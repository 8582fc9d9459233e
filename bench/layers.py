"""Per-layer metrics derived from a traced run.

Counts and totals are per traced round; every round repeats the same job
list, so they repeat exactly for a fixed seed. Rates divide the time in a
function (its spans including children, or its aggregate) by the work it
did. A metric whose layer a workload does not load reads 0.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import LAYERS, self_times

PROTOCOLS = ("quantum", "classical", "classical-multi", "classical-sim")
AMP_BYTES = 16  # one complex128 amplitude

# The end-to-end work_per_s counts a different unit on each workload.
WORK_NAMES = {
    "equality-mc": "trials_per_s",
    "description-length": "gates_per_s",
    "simulate-verify": "sim_amp_updates_per_s",
}

# (name, unit, better) in report order.
PER_LAYER = (
    [(f"smp.monte_carlo.us_per_trial.{p}", "us", "lower") for p in PROTOCOLS]
    + [
        ("smp.trial_seed.calls", "count", "lower"),
        ("smp.decided_ratio", "ratio", "higher"),
        ("bits.BitString.init_calls", "count", "lower"),
        ("bits.BitString.init_us", "us", "lower"),
        ("codes.encode.calls", "count", "lower"),
        ("codes.encode.us_per_call", "us", "lower"),
        ("codes.verify_distance.self_s", "s", "lower"),
        ("codes.verify_distance.words_checked", "count", "higher"),
        ("codes.hadamard_code.self_s", "s", "lower"),
        ("codes.decode_message.self_s", "s", "lower"),
        ("fingerprint.build_fingerprint.us_per_call", "us", "lower"),
        ("fingerprint.quantize_state.ns_per_amp", "ns", "lower"),
        ("fingerprint.decode_state.ns_per_amp", "ns", "lower"),
        ("fingerprint.overlap.calls", "count", "lower"),
        ("fingerprint.build_hx_circuit.us_per_gate", "us", "lower"),
        ("circuits.multi_controlled_x.gates_emitted", "count", "lower"),
        ("fingerprint.extract_codeword.us_per_call", "us", "lower"),
        ("bitio.write_uint.calls", "count", "lower"),
        ("bitio.ns_per_bit_written", "ns", "lower"),
        ("bitio.read_uint.calls", "count", "lower"),
        ("bitio.ns_per_bit_read", "ns", "lower"),
        ("compressor.kcl_upper.calls", "count", "lower"),
        ("compressor.kcl_upper.us_per_kb", "us", "lower"),
        ("complexity.encode_circuit.us_per_gate", "us", "lower"),
        ("complexity.decode_circuit.us_per_gate", "us", "lower"),
        ("complexity.knet_upper.self_s", "s", "lower"),
        ("complexity.cbe_upper.self_s", "s", "lower"),
        ("complexity.observation1_experiment.self_s", "s", "lower"),
        ("circuits.apply_circuit.ns_per_amp_update.q_le_10", "ns", "lower"),
        ("circuits.apply_circuit.ns_per_amp_update.q_ge_14", "ns", "lower"),
        ("circuits.apply_circuit.bytes_moved_computed", "B", "lower"),
        ("states.StateVector.init_calls", "count", "lower"),
        ("states.partial_trace.us_per_call", "us", "lower"),
        ("states.uhlmann_fidelity.us_per_call", "us", "lower"),
        ("states.swap_test_circuit.us_per_call", "us", "lower"),
        ("states.sample_swap_outcomes.calls", "count", "lower"),
        ("demon.multiphoton_ledger.us_per_call", "us", "lower"),
        ("cli.main.self_ms_per_call", "ms", "lower"),
        ("cli.bytes_written", "B", "lower"),
        ("setup.import_qkolab_s", "s", "lower"),
        ("setup.import_scipy_stats_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    + [(f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS]
)


class Stat:
    """Calls, inclusive time, self time and notes of one traced name."""

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.notes = []  # (inclusive seconds, note) per span with a note

    def per_call(self, scale: float) -> float:
        return scale * self.total / self.calls if self.calls else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def collect(tracer) -> tuple[dict, dict]:
    """Per-name Stat and per-layer self seconds over the whole trace."""
    stats = defaultdict(Stat)
    layer_self = defaultdict(float)
    for rec, own in zip(tracer.spans, self_times(tracer.spans)):
        st = stats[rec[0]]
        st.calls += 1
        st.total += rec[2] - rec[1]
        st.self_time += own
        if rec[6] is not None:
            st.notes.append((rec[2] - rec[1], rec[6]))
        layer_self[rec[0].split(".")[0]] += own
    for name, agg in tracer.aggregates.items():
        st = stats[name]
        st.calls += agg.calls
        st.total += agg.total
        st.self_time += agg.self_time
        st.notes.append((agg.total, agg.units))
        layer_self[name.split(".")[0]] += agg.self_time
    return stats, layer_self


def per_layer(tracer, workload, meas, probes: list[dict], scipy_import_s: float) -> dict:
    """name -> (value, unit) for every PER_LAYER metric."""
    stats, layer_self = collect(tracer)
    traced = [t for is_traced, t in meas.rounds if is_traced]
    untraced = [t for is_traced, t in meas.rounds if not is_traced]
    rounds = len(traced)
    s = stats.__getitem__

    def units(name: str) -> float:
        return sum(note for _, note in s(name).notes)

    v = {}
    mc_time, mc_trials = defaultdict(float), defaultdict(int)
    decided = 0
    for dt, (protocol, trials, dec) in s("smp.monte_carlo").notes:
        mc_time[protocol] += dt
        mc_trials[protocol] += trials
        decided += dec
    for p in PROTOCOLS:
        v[f"smp.monte_carlo.us_per_trial.{p}"] = 1e6 * _ratio(mc_time[p], mc_trials[p])
    v["smp.trial_seed.calls"] = s("smp.trial_seed").calls / rounds
    v["smp.decided_ratio"] = _ratio(decided, sum(mc_trials.values()))
    v["bits.BitString.init_calls"] = s("bits.BitString.__init__").calls / rounds
    v["bits.BitString.init_us"] = 1e6 * s("bits.BitString.__init__").total / rounds
    v["codes.encode.calls"] = s("codes.encode").calls / rounds
    v["codes.encode.us_per_call"] = s("codes.encode").per_call(1e6)
    v["codes.verify_distance.self_s"] = s("codes.verify_distance").self_time / rounds
    v["codes.verify_distance.words_checked"] = units("codes.verify_distance") / rounds
    v["codes.hadamard_code.self_s"] = s("codes.hadamard_code").self_time / rounds
    v["codes.decode_message.self_s"] = s("codes.decode_message").self_time / rounds
    v["fingerprint.build_fingerprint.us_per_call"] = s("fingerprint.build_fingerprint").per_call(1e6)
    for fn in ("quantize_state", "decode_state"):
        st = s(f"fingerprint.{fn}")
        v[f"fingerprint.{fn}.ns_per_amp"] = 1e9 * _ratio(st.total, units(f"fingerprint.{fn}"))
    v["fingerprint.overlap.calls"] = s("fingerprint.overlap").calls / rounds
    v["fingerprint.build_hx_circuit.us_per_gate"] = 1e6 * _ratio(
        s("fingerprint.build_hx_circuit").total, units("fingerprint.build_hx_circuit"))
    v["circuits.multi_controlled_x.gates_emitted"] = units("circuits.multi_controlled_x") / rounds
    v["fingerprint.extract_codeword.us_per_call"] = s("fingerprint.extract_codeword").per_call(1e6)
    write, to_bytes, read = s("bitio.BitWriter.write_uint"), s("bitio.BitWriter.to_bytes"), s("bitio.BitReader.read_uint")
    v["bitio.write_uint.calls"] = write.calls / rounds
    v["bitio.ns_per_bit_written"] = 1e9 * _ratio(write.total + to_bytes.total, units("bitio.BitWriter.write_uint"))
    v["bitio.read_uint.calls"] = read.calls / rounds
    v["bitio.ns_per_bit_read"] = 1e9 * _ratio(read.total, units("bitio.BitReader.read_uint"))
    v["compressor.kcl_upper.calls"] = s("compressor.kcl_upper").calls / rounds
    v["compressor.kcl_upper.us_per_kb"] = 1e6 * _ratio(
        s("compressor.kcl_upper").total, units("compressor.kcl_upper") / 8192)
    for fn in ("encode_circuit", "decode_circuit"):
        v[f"complexity.{fn}.us_per_gate"] = 1e6 * _ratio(s(f"complexity.{fn}").total, units(f"complexity.{fn}"))
    for fn in ("knet_upper", "cbe_upper", "observation1_experiment"):
        v[f"complexity.{fn}.self_s"] = s(f"complexity.{fn}").self_time / rounds
    small = [(dt, q, g) for dt, (q, g) in s("circuits.apply_circuit").notes if q <= 10]
    large = [(dt, q, g) for dt, (q, g) in s("circuits.apply_circuit").notes if q >= 14]
    for label, group in (("q_le_10", small), ("q_ge_14", large)):
        v[f"circuits.apply_circuit.ns_per_amp_update.{label}"] = 1e9 * _ratio(
            sum(dt for dt, _, _ in group), sum(g * 2**q for _, q, g in group))
    # computed, not measured: each gate reads and writes the whole state once
    v["circuits.apply_circuit.bytes_moved_computed"] = sum(
        2 * AMP_BYTES * g * 2**q for _, (q, g) in s("circuits.apply_circuit").notes) / rounds
    v["states.StateVector.init_calls"] = s("states.StateVector.__init__").calls / rounds
    for fn in ("partial_trace", "uhlmann_fidelity", "swap_test_circuit"):
        v[f"states.{fn}.us_per_call"] = s(f"states.{fn}").per_call(1e6)
    v["states.sample_swap_outcomes.calls"] = s("states.sample_swap_outcomes").calls / rounds
    v["demon.multiphoton_ledger.us_per_call"] = s("demon.multiphoton_ledger").per_call(1e6)
    v["cli.main.self_ms_per_call"] = 1e3 * _ratio(s("cli.main").self_time, s("cli.main").calls)
    v["cli.bytes_written"] = meas.bytes_written / rounds
    v["setup.import_qkolab_s"] = statistics.median(p["import_qkolab_s"] for p in probes)
    v["setup.import_scipy_stats_s"] = scipy_import_s
    v["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    for layer in LAYERS:
        v[f"layer.{layer}.self_s"] = layer_self[layer] / rounds
    return {name: (v[name], unit) for name, unit, _ in PER_LAYER}
