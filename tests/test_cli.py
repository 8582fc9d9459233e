import contextlib
import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkolab.cli import build_parser, canonical_json, main

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
    doc = json.loads(data)
    assert doc["delta_verified"] == 0.5
    assert doc["config"]["n"] == 3
    capsys.readouterr()
    assert main(HADAMARD_VERIFY) == 0
    assert json.loads(capsys.readouterr().out) == doc  # stdout holds the one report


def test_usage_errors_leave_the_one_parser_as_it_was(tmp_path, capsys, fresh_cli):
    argv = ["equality", "--protocol", "quantum", "--n", "3", "--k", "2", "--trials", "40",
            "--seed", "5"]
    assert build_parser() is build_parser()
    assert main(["equality", "--protocol", "quantum", "--bogus"]) == 2
    assert main(argv[:4] + ["three"] + argv[5:]) == 2
    code, data = run(argv, tmp_path)
    assert code == 0 and data == fresh_cli(argv)


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


def test_extract_report_does_not_depend_on_state_path(tmp_path):
    reports = []
    for name in ("a.json", "b.json"):
        state = tmp_path / name
        assert main(["fingerprint", "build", "--n", "2", "--x", "10", "--out", str(state)]) == 0
        reports.append(run(["fingerprint", "extract", "--n", "2", "--state", str(state)],
                           tmp_path)[1])
    assert reports[0] == reports[1]


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


def test_csv_without_a_row_form_is_a_usage_error(monkeypatch, capsys):
    def fail(cfg):
        raise AssertionError("monte_carlo ran")

    monkeypatch.setattr("qkolab.cli.monte_carlo", fail)
    for argv in (
        ["equality", "--protocol", "classical", "--n", "3", "--trials", "10", "--seed", "1"],
        ["complexity", "report", "--target", "bell", "--n", "2"],
        ["fingerprint", "extract", "--n", "2", "--state", "state.json"],
        ["demon", "run", "--m", "2", "--seed", "1"],
        ["demon", "multi", "--n", "2", "--m", "3", "--eps", "0.0625"],
    ):
        assert main(argv + ["--format", "csv"]) == 2
        assert "usage:" in capsys.readouterr().err


def test_cap_violation_exits_3(tmp_path):
    assert main(["demon", "run", "--m", "99", "--seed", "1"]) == 3


def test_bad_input_exits_2(tmp_path):
    assert main(
        ["fingerprint", "build", "--code", "hadamard", "--n", "2", "--x", "abc"]
    ) == 2


def test_equality_bytes_repeat_across_out_paths_and_in_a_fresh_process(tmp_path, fresh_cli):
    argv = ["equality", "--protocol", "classical", "--n", "3", "--trials", "500", "--seed", "3"]
    outputs = [run(argv, tmp_path, f"rep-{i}.json")[1] for i in range(3)]  # the bytes must not depend on --out
    outputs.append(fresh_cli(argv))
    assert outputs[0] == outputs[1] == outputs[2] == outputs[3]


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("protocol=quantum\nn=4\nk=1\ntrials=200\nseed=3\n")
    _, base = run(["equality", "--config", str(cfg)], tmp_path, "a.json")
    _, over = run(
        ["equality", "--config", str(cfg), "--trials", "300"], tmp_path, "b.json"
    )
    assert json.loads(base)["config"]["trials"] == 200
    assert json.loads(over)["config"]["trials"] == 300


def test_config_equals_spelling_reads_the_file_and_abbreviations_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials=7\nseed=4\n")
    cmd = ["equality", "--protocol", "quantum", "--n", "2"]
    _, data = run([f"--config={cfg}"] + cmd, tmp_path)
    config = json.loads(data)["config"]
    assert (config["trials"], config["seed"]) == (7, 4)
    # spellings argparse would take for --config and then never read
    full = cmd + ["--trials", "5", "--seed", "1"]
    for spelling in (["--conf", str(cfg)], [f"--conf={cfg}"], ["--co", str(cfg)],
                     ["--config", str(cfg), "--config", str(cfg)]):
        assert main(spelling + full) == 2, spelling
        assert "usage:" in capsys.readouterr().err


def test_canonical_json_formatting():
    text = canonical_json({"b": 0.1 + 0.2, "a": [1, 2.5, None, True]})
    assert '"a"' in text and text.index('"a"') < text.index('"b"')
    assert "0.3" in text  # %.12g collapses the float noise
    doc = json.loads(text)
    assert doc["a"] == [1, 2.5, None, True]
    tricky = 'say "hi"\\ \b\f\n\r\t\x01 \u00e9'
    text = canonical_json({"s": tricky})
    assert '\\"hi\\"' in text and "\\n" in text and "\\u0001" in text and "\u00e9" in text
    assert json.loads(text) == {"s": tricky}


def test_atomic_write_leaves_no_temp(tmp_path):
    _, _ = run(HADAMARD_VERIFY, tmp_path, "x.json")
    assert [p.name for p in tmp_path.iterdir()] == ["x.json"]


def assert_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "text",
    ["not json", "[[1, 0], [0]]", '"ab"', "5", '[["1", 0], [0, 0]]', "[]",
     "[" * 100_000 + "]" * 100_000, "[[1, 0]]"],
    ids=["not-json", "short-pair", "string", "number", "string-part", "empty", "deep",
         "one-amplitude"],
)
def test_malformed_state_json_exits_2(tmp_path, capsys, text):
    state = tmp_path / "state.json"
    state.write_text(text)
    assert_exit_2(
        ["fingerprint", "extract", "--code", "hadamard", "--n", "2", "--state", str(state)],
        capsys,
    )


@pytest.mark.parametrize("argv", [["fingerprint", "extract", "--n", "2", "--state"],
                                  ["equality", "--config"]], ids=["state", "config"])
def test_non_utf8_input_file_exits_2(tmp_path, capsys, argv):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"\xff\xfe")
    assert_exit_2(argv + [str(path)], capsys)


def test_negative_demon_seed_exits_2(capsys):
    assert_exit_2(["demon", "run", "--m", "4", "--seed", "-5"], capsys)
    assert_exit_2(
        ["demon", "multi", "--n", "2", "--m", "3", "--eps", "0.0625", "--seed", "-5"], capsys
    )


@pytest.mark.parametrize("flags", [["--T", "-5"], ["--T", "0"], ["--kB", "0"], ["--kB", "inf"]],
                         ids=["T-negative", "T-zero", "kB-zero", "kB-inf"])
@pytest.mark.parametrize("cmd", [["demon", "run", "--m", "2", "--seed", "1"],
                                 ["demon", "multi", "--n", "2", "--m", "3", "--eps", "0.0625"]],
                         ids=["run", "multi"])
def test_impossible_kB_or_T_exits_2(capsys, cmd, flags):
    assert_exit_2(cmd + flags, capsys)


def test_zero_indices_per_party_exits_2(capsys):
    assert_exit_2(
        ["equality", "--protocol", "classical-multi", "--n", "3", "--s", "0",
         "--trials", "10", "--seed", "1"],
        capsys,
    )


@pytest.mark.parametrize("protocol", ["classical", "classical-multi", "quantum", "classical-sim"])
def test_zero_copies_exits_2(capsys, protocol):
    assert_exit_2(
        ["equality", "--protocol", protocol, "--n", "3", "--k", "0", "--trials", "10",
         "--seed", "1", "--eps-a", "0.01"],
        capsys,
    )


@pytest.mark.parametrize("flags", [["--p", "0"], ["--p", "1"], ["--p", "63"], ["--k", "0"]])
def test_sweep_bad_precision_or_copies_exits_2(capsys, flags):
    assert_exit_2(["sweep", "--n-min", "1", "--n-max", "3"] + flags, capsys)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["complexity", "report", "--target", "fingerprint", "--n", "2", "--x", "10",
          "--eps-a", "5e-324"], 2),
        (["equality", "--protocol", "classical-sim", "--n", "2", "--trials", "2", "--seed", "1",
          "--eps-a", "1e-310"], 2),
        (["demon", "multi", "--n", "2", "--m", "3", "--eps", "5e-324", "--mode", "simulated"], 2),
        (["complexity", "report", "--target", "bell", "--n", "0"], 2),
        (["demon", "multi", "--n", "0", "--m", "3", "--eps", "0.1"], 2),
        (["demon", "multi", "--n", "0", "--m", "3", "--eps", "0.1", "--mode", "simulated"], 2),
        (["demon", "run", "--m", "0", "--seed", "1"], 2),
        (["complexity", "report", "--target", "bell", "--n", "16385"], 3),
        (["demon", "run", "--m", "65", "--seed", "1"], 3),
        (["demon", "multi", "--n", "17", "--m", "3", "--eps", "0.1"], 3),
        (["sweep", "--n-min", "15000", "--n-max", "15000"], 3),
        (["sweep", "--n-min", "15000", "--n-max", "15000", "--format", "json"], 3),
        (["sweep", "--n-min", "1", "--n-max", str(10**12)], 3),
        (["demon", "multi", "--n", str(10**400), "--m", "3", "--eps", "0.1"], 3),
        (["codes", "verify", "--code", "hadamard", "--n", "0"], 2),
        (["codes", "verify", "--code", "simplex", "--n", "0"], 2),
        (["codes", "verify", "--code", "hadamard", "--n", "17"], 3),
        (["codes", "verify", "--code", "simplex", "--n", "17"], 3),
        (["equality", "--protocol", "quantum", "--n", "2", "--k", str(10**30), "--trials", "1",
          "--seed", "1"], 3),
        (["sweep", "--n-min", "1", "--n-max", "1", "--k", str(10**308)], 3),
        (["codes", "verify", "--code", "concatenated", "--n", "2", "--c", str(10**30)], 3),
        (["complexity", "report", "--target", "bell", "--n", "2", "--eps-a", "-1"], 2),
        (["equality", "--protocol", "quantum", "--n", "2", "--trials", "5", "--seed", "1",
          "--eps-a", "-3"], 2),
    ],
    ids=["report-subnormal-eps", "equality-subnormal-eps", "multi-subnormal-eps", "bell-0",
         "multi-0", "multi-simulated-0", "run-m-0", "bell-cap", "run-m-cap", "multi-cap",
         "sweep-cap-csv", "sweep-cap-json", "sweep-huge-n-max", "multi-huge-n", "hadamard-0",
         "simplex-0", "hadamard-cap", "simplex-cap", "equality-huge-k", "sweep-huge-k",
         "concatenated-huge-c", "bell-unused-eps-a", "quantum-unused-eps-a"],
)
def test_subnormal_eps_and_zero_counts_exit_2_caps_exit_3(capsys, argv, expected):
    assert main(argv) == expected
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_fingerprint_report_above_the_gate_cap_exits_3(capsys):
    argv = ["complexity", "report", "--target", "fingerprint", "--n", "9", "--x", "101010101"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_atomic_write_uses_unique_temp_and_cleans_up(tmp_path, capsys):
    (tmp_path / "x.json.tmp").mkdir()  # the old fixed temp name is taken
    code, data = run(HADAMARD_VERIFY, tmp_path, "x.json")
    assert code == 0 and json.loads(data)["delta_verified"] == 0.5
    target = tmp_path / "dir"
    target.mkdir()  # renaming a file over a directory fails
    assert_exit_2(HADAMARD_VERIFY + ["--out", str(target)], capsys)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "x.json", "x.json.tmp"]


@pytest.fixture(scope="module")
def state_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("states")
    assert main(["fingerprint", "build", "--n", "2", "--x", "10",
                 "--out", str(root / "good.json")]) == 0
    (root / "bad.json").write_text("[[1, 0], [0]]")
    (root / "latin1.json").write_bytes(b"\xff\xfe")
    return [str(root / n) for n in ("good.json", "bad.json", "latin1.json", "missing.json")]


def _req(name, values):
    return values.map(lambda v: [name, str(v)])


def _opt(name, values):
    return st.one_of(st.just([]), _req(name, values))


SMALL = st.integers(-1, 4)
# --k and --c: at most their caps, or so far above them that a missed cap
# check would allocate without bound; never a slow value in between
COUNTS = st.one_of(SMALL, st.integers(10**12, 10**30))
SEEDS = st.integers(-5, 5)
REALS = st.sampled_from(
    ["-1", "0", "1e-300", "5e-324", "0.0625", "0.5", "1", "2", "nan", "inf"]
)
BITS_TEXT = st.text("01x", max_size=5)


def _argv_grammar(state_paths):
    """Every subcommand with its required flags present, their values and
    the optional flags drawn from small ranges that include invalid ones."""
    choice = st.sampled_from

    def code(n=SMALL):
        return st.tuples(
            _opt("--code", choice(["hadamard", "simplex", "concatenated"])),
            _req("--n", n), _opt("--c", COUNTS),
        ).map(lambda parts: sum(parts, []))

    fmt = _opt("--format", choice(["json", "csv"]))
    commands = [
        # n around the caps only here: a hadamard-16 fingerprint circuit has millions of gates
        st.tuples(st.just(["codes", "verify"]), code(st.one_of(SMALL, choice([16, 17, 20, 21]))),
                  _opt("--mode", choice(["exhaustive", "sampled"])), fmt),
        st.tuples(
            st.just(["equality"]),
            _req("--protocol", choice(["classical", "classical-multi", "quantum", "classical-sim"])),
            code(), _opt("--k", COUNTS), _opt("--s", SMALL),
            _req("--trials", st.integers(-1, 20)), _req("--seed", SEEDS),
            _opt("--eps-a", REALS), _opt("--mode", choice(["threshold", "sampled"])),
            _opt("--inputs", choice(["random-unequal", "random-equal"])), fmt,
        ),
        st.tuples(st.just(["complexity", "report"]), _req("--target", choice(["bell", "fingerprint"])),
                  _req("--n", SMALL), _opt("--x", BITS_TEXT), _opt("--eps-a", REALS), fmt),
        st.tuples(st.just(["fingerprint", "build"]), code(), _req("--x", BITS_TEXT)),
        st.tuples(st.just(["fingerprint", "extract"]), code(),
                  _req("--state", choice(state_paths)), fmt),
        st.tuples(st.just(["demon", "run"]), _req("--m", st.integers(-1, 65)),
                  _req("--seed", SEEDS), _opt("--kB", REALS), _opt("--T", REALS), fmt),
        st.tuples(st.just(["demon", "multi"]), _req("--n", SMALL), _req("--m", st.integers(-1, 65)),
                  _req("--eps", REALS), _opt("--mode", choice(["formula", "simulated"])),
                  _opt("--seed", SEEDS), _opt("--kB", REALS), _opt("--T", REALS), fmt),
        st.tuples(st.just(["sweep"]), _req("--n-min", SMALL),
                  _req("--n-max", st.one_of(SMALL, st.integers(1025, 10**12))),
                  _opt("--k", COUNTS), _opt("--p", st.integers(-1, 64)), fmt),
    ]
    return st.one_of(commands).map(lambda parts: sum(parts, []))


def test_cli_fuzz_exits_cleanly(state_files):
    @settings(max_examples=150, deadline=None)
    @given(_argv_grammar(state_files))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3), (argv, code)
        assert "Traceback" not in err.getvalue()
        if code:
            assert "error:" in err.getvalue() or "usage:" in err.getvalue()

    check()
