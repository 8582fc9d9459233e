import csv
import json
import os

import pytest

from qkolab.cli import canonical_json, main

HADAMARD_VERIFY = ["codes", "verify", "--code", "hadamard", "--n", "3"]


def run(args, tmp_path, name="out.json", fmt=None):
    out = tmp_path / name
    argv = list(args) + ["--out", str(out)]
    if fmt:
        argv += ["--format", fmt]
    code = main(argv)
    return code, (out.read_bytes() if out.exists() else None)


def test_codes_verify(tmp_path, capsys):
    code, data = run(HADAMARD_VERIFY, tmp_path)
    assert code == 0
    assert "delta = 0.5" in capsys.readouterr().out
    doc = json.loads(data)
    assert doc["delta_verified"] == 0.5
    assert doc["config"]["n"] == 3


def test_codes_verify_ignores_mode_and_caps_n(tmp_path, capsys):
    code, data = run(
        ["codes", "verify", "--code", "hadamard", "--n", "13",
         "--mode", "sampled", "--samples", "2000"],
        tmp_path,
    )
    assert code == 0
    doc = json.loads(data)
    assert (doc["delta_verified"], doc["verification_mode"]) == (0.5, "exhaustive")
    assert main(["codes", "verify", "--code", "concatenated", "--n", "21"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_equality_quantum(tmp_path):
    code, data = run(
        ["equality", "--protocol", "quantum", "--n", "4", "--k", "1",
         "--trials", "3000", "--seed", "7"],
        tmp_path,
    )
    assert code == 0
    doc = json.loads(data)
    lo, hi = doc["wilson_99"]
    assert lo <= 0.625 <= hi
    assert doc["config"]["seed"] == 7


def test_complexity_report(tmp_path):
    code, data = run(
        ["complexity", "report", "--target", "fingerprint", "--n", "3", "--x", "101"],
        tmp_path,
    )
    assert code == 0
    doc = json.loads(data)
    assert doc["knet_upper_bits"] < doc["raw_knet_bits"]
    assert doc["method_id"]


def test_fingerprint_build_then_extract(tmp_path):
    state = tmp_path / "state.json"
    assert main(
        ["fingerprint", "build", "--code", "hadamard", "--n", "2", "--x", "10",
         "--out", str(state)]
    ) == 0
    code, data = run(
        ["fingerprint", "extract", "--code", "hadamard", "--n", "2",
         "--state", str(state)],
        tmp_path,
    )
    assert code == 0
    doc = json.loads(data)
    assert (doc["word"], doc["status"], doc["message"]) == ("0011", "exact", "10")


def test_demon_run_and_multi(tmp_path):
    code, data = run(["demon", "run", "--m", "4", "--seed", "1"], tmp_path)
    assert code == 0
    ledger = json.loads(data)["ledger"]
    assert ledger["delta_total_bits"] == 4
    code, data = run(
        ["demon", "multi", "--n", "2", "--m", "3", "--eps", "0.0625"], tmp_path
    )
    assert code == 0
    doc = json.loads(data)
    assert doc["entangled"]["delta_total_bits"] == 14
    assert doc["product"]["delta_total_bits"] == 6


def test_sweep_csv(tmp_path):
    code, data = run(
        ["sweep", "--n-min", "1", "--n-max", "5"], tmp_path, "sweep.csv", fmt="csv"
    )
    assert code == 0
    rows = list(csv.reader(data.decode().splitlines()))
    assert len(rows) == 6  # header + 5
    assert rows[0][:3] == ["protocol", "n", "q"]


def test_unknown_flag_exits_2(tmp_path, capsys):
    assert main(["equality", "--bogus"]) == 2
    assert main(["nonsense"]) == 2


def test_cap_violation_exits_3(tmp_path):
    assert main(["demon", "run", "--m", "99", "--seed", "1"]) == 3


def test_bad_input_exits_2(tmp_path):
    assert main(
        ["fingerprint", "build", "--code", "hadamard", "--n", "2", "--x", "abc"]
    ) == 2


def test_byte_reproducibility_across_thread_counts(tmp_path):
    outputs = []
    for threads in ("1", "4", "16"):
        os.environ["QKOLAB_THREADS"] = threads
        try:
            _, data = run(
                ["equality", "--protocol", "classical", "--n", "3",
                 "--trials", "500", "--seed", "3"],
                tmp_path,
                "rep.json",
            )
        finally:
            del os.environ["QKOLAB_THREADS"]
        outputs.append(data)
    assert outputs[0] == outputs[1] == outputs[2]


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("protocol=quantum\nn=4\nk=1\ntrials=200\nseed=3\n")
    _, base = run(["equality", "--config", str(cfg)], tmp_path, "a.json")
    _, over = run(
        ["equality", "--config", str(cfg), "--trials", "300"], tmp_path, "b.json"
    )
    assert json.loads(base)["config"]["trials"] == 200
    assert json.loads(over)["config"]["trials"] == 300


def test_canonical_json_formatting():
    text = canonical_json({"b": 0.1 + 0.2, "a": [1, 2.5, None, True]})
    assert '"a"' in text and text.index('"a"') < text.index('"b"')
    assert "0.3" in text  # %.12g collapses the float noise
    doc = json.loads(text)
    assert doc["a"] == [1, 2.5, None, True]


def test_atomic_write_leaves_no_temp(tmp_path):
    _, _ = run(HADAMARD_VERIFY, tmp_path, "x.json")
    assert [p.name for p in tmp_path.iterdir()] == ["x.json"]
