"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _tiny(name: str, tmp_path, seed: int = 3):
    return workloads.build(name, seed, str(tmp_path / name), tiny=True)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_each_workload(name, capsys):
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0.3", "--trace", "0", "--tiny"]) == 0
    result = _last_json(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [m["name"] for m in SPEC["end_to_end"]] == list(result["metrics"])
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0


def test_traced_run_reports_every_layer_metric(capsys):
    assert run.main(["--workload", "description-length", "--seed", "3", "--seconds", "0.3",
                     "--trace", "1", "--tiny"]) == 0
    result = _last_json(capsys.readouterr().out)
    assert result["correct"]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, metric["unit"]) for name, metric in result["metrics"].items()
    ]
    assert result["metrics"]["complexity.encode_circuit.us_per_gate"]["value"] > 0


def test_benchmark_json_matches_the_code():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_corrupted_report_fails_its_check(tmp_path):
    wl = _tiny("equality-mc", tmp_path)
    job = next(j for j in wl.jobs if j.name == "quantum-n4-random-equal")
    out = job.run()
    assert job.check(out) == []
    with open(job.out_path) as fh:
        doc = json.load(fh)
    doc["per_direction_errors"]["false_not_equal"] = 1  # a flipped decision
    with open(job.out_path, "w") as fh:
        json.dump(doc, fh)
    assert job.check(out)
    job.run()
    with open(job.out_path, "r+") as fh:  # a truncated payload
        fh.truncate(40)
    assert job.check(out)


def test_corrupted_job_raises_failed_frac(tmp_path):
    wl = _tiny("description-length", tmp_path)
    job = wl.jobs[0]
    honest = job.run

    def drop_a_gate():
        c, enc, dec, knet, cbe = honest()
        return c, enc, type(dec)(dec.q, dec.gates[:-1], dec.basis, dec.p), knet, cbe

    job.run = drop_a_gate
    meas = run.measure(wl, seconds=0.0)
    assert meas.attempted == len(wl.jobs)
    assert meas.failed == 1 and meas.failed / meas.attempted > 0


def test_self_time_on_a_hand_built_span_tree():
    # [name, start, end, parent, job, aggregated child time, note]
    spans = [
        ["root", 0.0, 10.0, -1, 0, 1.0, None],
        ["a", 1.0, 4.0, 0, 0, 0.5, None],
        ["b", 5.0, 9.0, 0, 0, 0.0, None],
        ["a.child", 2.0, 3.0, 1, 0, 0.0, None],
    ]
    assert self_times(spans) == [2.0, 1.5, 4.0, 1.0]


def test_wrappers_subtract_nested_time():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer._aggregate_wrapper("bits.leaf", lambda: None, None)
    inner = tracer._span_wrapper("codes.inner", lambda: leaf(), None)
    outer = tracer._span_wrapper("smp.outer", lambda: (inner(), leaf()), None)
    outer()
    # clock reads: outer 0, inner 1, leaf 2-3, inner end 4, leaf 5-6, outer end 7
    assert [(r[0], r[1], r[2], r[5]) for r in tracer.spans] == [
        ("smp.outer", 0.0, 7.0, 1.0), ("codes.inner", 1.0, 4.0, 1.0)]
    assert self_times(tracer.spans) == [3.0, 2.0]
    assert tracer.aggregates["bits.leaf"].calls == 2


def test_tracer_rebinds_every_import_site(tmp_path):
    import qkolab.codes
    import qkolab.fingerprint
    import qkolab.smp

    original = qkolab.codes.encode
    tracer = Tracer()
    tracer.install()
    try:
        assert qkolab.codes.encode is not original
        assert qkolab.smp.encode is qkolab.codes.encode is qkolab.fingerprint.encode
    finally:
        tracer.uninstall()
    assert qkolab.smp.encode is original and qkolab.fingerprint.encode is original


def test_per_layer_counts_repeat_for_a_fixed_seed(tmp_path):
    counts = []
    for attempt in range(2):
        wl = _tiny("equality-mc", tmp_path / str(attempt), seed=7)
        tracer = Tracer()
        meas = run.measure(wl, seconds=0.0, tracer=tracer)
        assert meas.failed == 0
        metrics = layers.per_layer(tracer, wl, meas, [{"import_qkolab_s": 1.0}], 1.0)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit in ("count", "B")})
    assert counts[0] == counts[1]
    trials = sum(int(j.work(None)) for j in wl.jobs)
    assert counts[0]["codes.encode.calls"] == 2 * trials
    assert counts[0]["smp.trial_seed.calls"] == 2 * trials


def test_binomial_check_false_alarm_and_power():
    assert checks.binomial_problems("q", 244, 1000, 0.625**3) == []
    assert checks.binomial_problems("q", 400, 1000, 0.625**3)
    assert checks.binomial_problems("q", 100, 1000, 0.625**3)
    assert checks.binomial_problems("m", 0, 50, 0.5, sides="upper") == []
    assert checks.binomial_problems("m", 50, 50, 0.5, sides="upper")


def test_bare_directory_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "equality-mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
