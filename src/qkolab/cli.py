"""Experiment runner: seeded, byte-reproducible subcommands over the
protocol, complexity, fingerprint, and demon modules.

Each handler returns the text of its report and `main` writes it, to stdout
or atomically to `--out`. Reports are canonical JSON (sorted keys, floats
formatted %.12g) with the parsed flags echoed under "config"; `codes verify`
and `sweep` can also give their rows as RFC-4180 CSV. A flat key=value config
file can supply defaults; command-line flags override it. Exit codes: 0
success, 2 bad input or undecodable data, 3 a resource cap; errors print one
`error:` line.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import asdict

from .bits import BitString
from .codes import concatenated_code, hadamard_code, simplex_code
from .complexity import bell_pair_circuit, cbe_upper, knet_upper
from .compressor import METHOD_ID
from .demon import demon_step, multiphoton_ledger
from .errors import CapError, InputError, QkolabError
from .fingerprint import _precision_bits, build_fingerprint, build_hx_circuit, extract_codeword
from .smp import INPUT_POLICIES, PROTOCOLS, SIM_MODES, ExperimentConfig
from .smp import communication_report, monte_carlo
from .states import StateVector


def canonical_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, %.12g floats, and json.dumps for
    null, booleans, ints and strings (non-ASCII kept, JSON's escapes)."""
    pad = " " * indent
    if obj is None or isinstance(obj, (bool, int, str)):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise InputError("non-finite float in report")
        return "%.12g" % obj
    if isinstance(obj, dict):
        items = sorted(obj.items())
        inner = ",".join(
            f"\n{pad}  {canonical_json(k)}: {canonical_json(v, indent + 2)}"
            for k, v in items
        )
        return "{" + inner + ("\n" + pad + "}" if items else "}")
    if isinstance(obj, (list, tuple)):
        inner = ",".join(canonical_json(v, indent) for v in obj)
        return "[" + inner + "]"
    raise InputError(f"cannot serialize {type(obj).__name__}")


def atomic_write(path: str, data: str) -> None:
    """Writes a uniquely named temp file next to path, then renames it over
    path; the temp file is removed when either step fails."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        fh = open(tmp, "x", newline="")  # "x": never adopt an existing file
    except OSError as e:
        raise InputError(f"cannot write {path}: {e}") from e
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as e:
        os.unlink(tmp)
        raise InputError(f"cannot write {path}: {e}") from e


def _report(args, report: dict, rows: list[dict] | None = None) -> str:
    """The report as canonical JSON with the config echo merged in, or its
    row table as CSV; argparse offers csv only where there are rows."""
    if args.format == "json":
        return canonical_json({"config": _config_echo(args)} | report) + "\n"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\r\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: "%.12g" % v if isinstance(v, float) else v for k, v in row.items()})
    return buf.getvalue()


CODES = {
    "hadamard": lambda n, _c: hadamard_code(n),
    "simplex": lambda n, _c: simplex_code(n),
    "concatenated": concatenated_code,
}


def _cmd_codes_verify(args) -> str:
    code = CODES[args.code](args.n, args.c)  # the factory has verified the distance
    report = {
        "name": code.name,
        "n": code.n,
        "m": code.m,
        "delta_verified": code.delta_verified,
        "verification_mode": code.verification_mode,
    }
    return _report(args, report, rows=[{"config": ""} | report])


def _cmd_equality(args) -> str:
    cfg = ExperimentConfig(
        CODES[args.code](args.n, args.c),
        args.protocol,
        args.trials,
        args.seed,
        k=args.k,
        s=args.s,
        eps_a=args.eps_a,
        mode=args.mode,
        inputs=args.inputs,
    )
    rep = monte_carlo(cfg)
    return _report(args, {
        "decided": rep.decided,
        "restarts": rep.restarts,
        "error_rate": rep.error_rate,
        "wilson_99": list(rep.wilson_99),
        "mean_bits": rep.mean_classical_bits,
        "mean_qubits": rep.mean_qubits,
        "per_direction_errors": {
            "false_equal": rep.false_equal,
            "false_not_equal": rep.false_not_equal,
        },
    })


def _cmd_complexity_report(args) -> str:
    _precision_bits(args.eps_a)  # echoed for both targets, so checked for both
    state = None
    if args.target == "bell":
        circuit = bell_pair_circuit(args.n)
    else:
        code = hadamard_code(args.n)
        x = _parse_bits(args.x, args.n)
        circuit = build_hx_circuit(code, x)
        state = build_fingerprint(code, x)
    knet = knet_upper(circuit)
    report = {
        "subject": args.target,
        "knet_upper_bits": knet.compressed_length_bits,
        "raw_knet_bits": knet.raw_length_bits,
        "cbe_upper_bits": None,
        "raw_cbe_bits": None,
        "eps_a": args.eps_a,
        "method_id": METHOD_ID,
    }
    if state is not None:
        cbe = cbe_upper(state, args.eps_a)
        report["cbe_upper_bits"] = cbe.compressed_length_bits
        report["raw_cbe_bits"] = cbe.raw_length_bits
    return _report(args, report)


def _parse_bits(text: str | None, n: int) -> BitString:
    if text is None:
        raise InputError("this subcommand requires --x")
    if len(text) != n or set(text) - {"0", "1"}:
        raise InputError(f"--x must be {n} characters of 0/1")
    return BitString(text)


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read {path}: {e}") from e


def _cmd_fingerprint_build(args) -> str:
    code = CODES[args.code](args.n, args.c)
    return build_fingerprint(code, _parse_bits(args.x, code.n)).to_json() + "\n"


def _cmd_fingerprint_extract(args) -> str:
    code = CODES[args.code](args.n, args.c)
    res = extract_codeword(StateVector.from_json(_read_text(args.state)), code)
    return _report(args, {
        "word": res.word.to_text(),
        "status": res.status,
        "message": res.message.to_text() if res.message is not None else None,
    })


def _ledger_dict(ledger, n: int, m: int) -> dict:
    return asdict(ledger) | {
        "n": n,
        "m": m,
        "delta_total_bits": ledger.delta_total,
        "work_joules": ledger.work_joules,
    }


def _cmd_demon_run(args) -> str:
    record, _post, ledger = demon_step(args.m, args.seed, args.kB, args.T)
    return _report(args, {
        "record": record.full_record.to_text(),
        "outcome": record.outcome_bit,
        "ledger": _ledger_dict(ledger, 1, args.m),
    })


def _cmd_demon_multi(args) -> str:
    cmp_ = multiphoton_ledger(
        args.n, args.m, args.eps, args.mode, args.kB, args.T, args.seed
    )
    return _report(args, {
        "product": _ledger_dict(cmp_.product, args.n, args.m),
        "entangled": _ledger_dict(cmp_.entangled, args.n, args.m),
        "entangled_exceeds_product": cmp_.entangled_exceeds_product,
    })


def _cmd_sweep(args) -> str:
    if args.n_min > args.n_max:
        raise InputError("--n-min must be <= --n-max")
    rows = [
        asdict(row)
        for row in communication_report(range(args.n_min, args.n_max + 1), args.k, args.p)
    ]
    return _report(args, {"rows": rows}, rows=rows)


def _config_echo(args) -> dict:
    # paths stay out, so the bytes do not depend on where files live
    skip = {"func", "out", "state"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _add_common(sp, formats: tuple[str, ...] = ("json",)):
    sp.add_argument("--out", default=None, help="output path (stdout if omitted)")
    sp.add_argument("--format", choices=formats, default=formats[0])


def _add_code_flags(sp):
    sp.add_argument("--code", choices=tuple(CODES), default="hadamard")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--c", type=int, default=4, help="rate multiple for concatenated")


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    # _effective_argv reads --config, so any spelling that reaches argparse exits 2
    parser = argparse.ArgumentParser(
        prog="qkolab", epilog="--config PATH or --config=PATH: flat key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)

    codes = sub.add_parser("codes").add_subparsers(dest="action", required=True)
    cv = codes.add_parser("verify")
    _add_code_flags(cv)
    # --mode and --samples are still accepted so existing job lists keep working
    cv.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive",
                    help="ignored: verification is always exact")
    cv.add_argument("--samples", type=int, default=10000, help="ignored")
    _add_common(cv, ("json", "csv"))
    cv.set_defaults(func=_cmd_codes_verify)

    eq = sub.add_parser("equality")
    eq.add_argument("--protocol", choices=PROTOCOLS, required=True)
    _add_code_flags(eq)
    eq.add_argument("--k", type=int, default=1)
    eq.add_argument("--s", type=int, default=None)
    eq.add_argument("--trials", type=int, required=True)
    eq.add_argument("--seed", type=int, required=True)
    eq.add_argument("--eps-a", dest="eps_a", type=float, default=None)
    eq.add_argument("--mode", choices=SIM_MODES, default=ExperimentConfig.mode)
    eq.add_argument("--inputs", choices=INPUT_POLICIES, default=ExperimentConfig.inputs)
    _add_common(eq)
    eq.set_defaults(func=_cmd_equality)

    comp = sub.add_parser("complexity").add_subparsers(dest="action", required=True)
    cr = comp.add_parser("report")
    cr.add_argument("--target", choices=("bell", "fingerprint"), required=True)
    cr.add_argument("--n", type=int, required=True)
    cr.add_argument("--x", default=None)
    cr.add_argument("--eps-a", dest="eps_a", type=float, default=2.0**-16)
    _add_common(cr)
    cr.set_defaults(func=_cmd_complexity_report)

    fp = sub.add_parser("fingerprint").add_subparsers(dest="action", required=True)
    fb = fp.add_parser("build")
    _add_code_flags(fb)
    fb.add_argument("--x", required=True)
    fb.add_argument("--out", default=None)
    fb.set_defaults(func=_cmd_fingerprint_build)
    fe = fp.add_parser("extract")
    _add_code_flags(fe)
    fe.add_argument("--state", required=True, help="statevector JSON file")
    _add_common(fe)
    fe.set_defaults(func=_cmd_fingerprint_extract)

    dm = sub.add_parser("demon").add_subparsers(dest="action", required=True)
    dr = dm.add_parser("run")
    dr.add_argument("--m", type=int, required=True)
    dr.add_argument("--seed", type=int, required=True)
    dr.add_argument("--kB", type=float, default=1.380649e-23)
    dr.add_argument("--T", type=float, default=300.0)
    _add_common(dr)
    dr.set_defaults(func=_cmd_demon_run)
    dmu = dm.add_parser("multi")
    dmu.add_argument("--n", type=int, required=True)
    dmu.add_argument("--m", type=int, required=True)
    dmu.add_argument("--eps", type=float, required=True)
    dmu.add_argument("--mode", choices=("formula", "simulated"), default="formula")
    dmu.add_argument("--seed", type=int, default=0)
    dmu.add_argument("--kB", type=float, default=1.380649e-23)
    dmu.add_argument("--T", type=float, default=300.0)
    _add_common(dmu)
    dmu.set_defaults(func=_cmd_demon_multi)

    sw = sub.add_parser("sweep")
    sw.add_argument("--n-min", dest="n_min", type=int, required=True)
    sw.add_argument("--n-max", dest="n_max", type=int, required=True)
    sw.add_argument("--k", type=int, default=1)
    sw.add_argument("--p", type=int, default=16)
    _add_common(sw, ("csv", "json"))
    sw.set_defaults(func=_cmd_sweep)
    return parser


def _load_config_file(path: str) -> list[str]:
    flags = []
    for line in _read_text(path).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"bad config line {line!r} (expected key=value)")
        key, value = line.split("=", 1)
        flags.extend([f"--{key.strip()}", value.strip()])
    return flags


def _effective_argv(argv: list[str]) -> list[str]:
    i = next((j for j, tok in enumerate(argv) if tok.partition("=")[0] == "--config"), None)
    if i is None:
        return argv
    _, eq, path = argv[i].partition("=")
    rest = argv[:i] + argv[i + 1 :]
    if not eq:
        if i >= len(rest):
            raise InputError("--config needs a path")
        path = rest.pop(i)
    flags = _load_config_file(path)
    # insert file-supplied flags before explicit flags so the latter win
    split = next((j for j, tok in enumerate(rest) if tok.startswith("-")), len(rest))
    return rest[:split] + flags + rest[split:]


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(_effective_argv(list(argv)))
        text = args.func(args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            atomic_write(args.out, text)
        return 0
    except CapError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except QkolabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SystemExit as e:  # argparse usage errors
        return 2 if e.code else 0


if __name__ == "__main__":
    sys.exit(main())
