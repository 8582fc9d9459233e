"""Out-of-program tracing of qkolab's layers.

The tracer wraps each layer's public functions and rebinds every name that
refers to them in the ``qkolab.*`` modules (``qkolab.smp.encode``,
``qkolab.fingerprint.encode`` and ``qkolab.codes.encode`` are three import
sites of one function), so calls are caught whichever module makes them.
Nothing inside ``src/`` changes.

Two kinds of wrapper:

* span wrappers keep one in-memory span per call: name, start, end, parent
  span, job id, and the time spent in aggregated calls directly beneath it;
* aggregate wrappers, for methods that take a few microseconds, keep only a
  call count, total time, self time and a unit count (bits written, ...),
  so the trace stays bounded however many trials a job runs.

Spans are written out once, when the run ends (``write_spans``).
"""
from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

LAYERS = (
    "bits",
    "bitio",
    "compressor",
    "codes",
    "states",
    "circuits",
    "fingerprint",
    "smp",
    "complexity",
    "demon",
    "cli",
)

# Sub-10-microsecond callables: counted and timed, never given spans. Each
# maps to the unit count recorded per call (None: calls only).
AGGREGATED = {
    "bits.BitString.__init__": None,
    "bitio.BitWriter.write_uint": lambda a, kw, r: a[2] if len(a) > 2 else kw["width"],
    "bitio.BitReader.read_uint": lambda a, kw, r: a[1] if len(a) > 1 else kw["width"],
    "codes.encode": None,
    "circuits.quantize_angle": None,
    "circuits.gate_matrix": None,
    "fingerprint.overlap": None,
    "smp.trial_seed": None,
    "states.sample_swap_outcomes": None,
    "states.StateVector.__init__": None,
    "states.DensityMatrix.__init__": None,
}

# Methods traced besides module-level functions.
METHODS = (
    "bits.BitString.__init__",
    "bitio.BitWriter.write_uint",
    "bitio.BitWriter.to_bytes",
    "bitio.BitReader.read_uint",
    "states.StateVector.__init__",
    "states.DensityMatrix.__init__",
)

# cli's public helpers (canonical_json, emit, atomic_write, build_parser)
# serve the entry point only; their time is part of cli.main's self time.
CLI_ENTRY = ("main",)


def _span_notes() -> dict[str, Callable]:
    """Per-span facts the layer metrics need, taken from arguments/results."""
    return {
        "smp.monte_carlo": lambda a, kw, r: (a[0].protocol, a[0].trials, r.decided),
        "complexity.encode_circuit": lambda a, kw, r: len(a[0].gates),
        "complexity.decode_circuit": lambda a, kw, r: len(r.gates),
        "fingerprint.build_hx_circuit": lambda a, kw, r: len(r.gates),
        "circuits.multi_controlled_x": lambda a, kw, r: len(r),
        "circuits.apply_circuit": lambda a, kw, r: (a[0].q, len(a[0].gates)),
        "fingerprint.quantize_state": lambda a, kw, r: 2 ** a[0].q,
        "fingerprint.decode_state": lambda a, kw, r: 2**r.q,
        "compressor.kcl_upper": lambda a, kw, r: r.raw_length_bits,
        "codes.verify_distance": lambda a, kw, r: _words_checked(a[0].n, r[1]),
    }


def _words_checked(n: int, mode: str) -> int:
    """Codewords the verifier looked at, read from the mode it reports."""
    if mode == "exhaustive":
        return 2**n - 1
    if mode.startswith("sampled(") and mode.endswith(")"):
        return int(mode[len("sampled(") : -1])
    return 2**n  # an exact method over the whole message space


@dataclass
class Aggregate:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    units: float = 0.0


@dataclass
class Tracer:
    """Holds spans and aggregates for one process; install() to start."""

    clock: Callable[[], float] = time.perf_counter
    # span record: [name, start, end, parent, job, aggregated_child_time, note]
    spans: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    job: int = -1
    _stack: list = field(default_factory=list)
    _agg_stack: list = field(default_factory=list)
    _patch_list: list | None = None

    # -- wrappers ---------------------------------------------------------
    def _span_wrapper(self, name: str, fn: Callable, note: Callable | None):
        spans, stack, agg_stack, clock = self.spans, self._stack, self._agg_stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if agg_stack:  # inside an aggregated call: its timer covers this
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.job, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[6] = note(args, kwargs, result)
            return result

        return wrapper

    def _aggregate_wrapper(self, name: str, fn: Callable, units: Callable | None):
        spans, stack, agg_stack, clock = self.spans, self._stack, self._agg_stack, self.clock
        agg = self.aggregates.setdefault(name, Aggregate())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # time of aggregated calls nested in this one
            agg_stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                agg_stack.pop()
                agg.calls += 1
                agg.total += dt
                agg.self_time += dt - frame[0]
                if agg_stack:
                    agg_stack[-1][0] += dt
                elif stack:
                    spans[stack[-1]][5] += dt
            if units is not None:
                agg.units += units(args, kwargs, result)
            return result

        return wrapper

    # -- installation -----------------------------------------------------
    def _targets(self) -> dict[str, tuple[object, str, Callable]]:
        """name -> (owner, attribute, original) for everything traced."""
        out = {}
        for layer in LAYERS:
            mod = sys.modules[f"qkolab.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                if layer == "cli" and attr not in CLI_ENTRY:
                    continue
                out[f"{layer}.{attr}"] = (mod, attr, obj)
        for name in METHODS:
            layer, cls_name, attr = name.split(".")
            cls = getattr(sys.modules[f"qkolab.{layer}"], cls_name)
            out[name] = (cls, attr, cls.__dict__[attr])
        return out

    def _patches(self) -> list:
        """(owner, attribute, original, wrapper) for every rebinding."""
        if self._patch_list is None:
            notes = _span_notes()
            replacements = {}
            patches = []
            for name, (owner, attr, original) in self._targets().items():
                if name in AGGREGATED:
                    wrapped = self._aggregate_wrapper(name, original, AGGREGATED[name])
                else:
                    wrapped = self._span_wrapper(name, original, notes.get(name))
                replacements[id(original)] = (original, wrapped)
                if isinstance(owner, type):
                    patches.append((owner, attr, original, wrapped))
            # every import site of each module-level function
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "qkolab" or mod_name.startswith("qkolab.")):
                    continue
                for attr, obj in list(vars(mod).items()):
                    hit = replacements.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        patches.append((mod, attr, obj, hit[1]))
            self._patch_list = patches
        return self._patch_list

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches():
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches():
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------
    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            for name, a in sorted(self.aggregates.items()):
                fh.write(json.dumps(["aggregate", name, a.calls, a.total, a.self_time, a.units]) + "\n")


def self_times(spans: list) -> list[float]:
    """Self time of each span: its duration minus the time covered by its
    child spans and by aggregated calls made directly under it."""
    covered = [rec[5] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            covered[rec[3]] += rec[2] - rec[1]
    return [rec[2] - rec[1] - c for rec, c in zip(spans, covered)]
