"""Command-line front end: nonlocal-lab <witness|chsh|simulate|filter-scan|reproduce>."""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import acceptance, bell, filters, lhv, states
from .qmat import partial_transpose

_encode_str = json.encoder.encode_basestring_ascii

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2

_WITNESS_NEG_TOL = 1e-12
_PPT_NEG_TOL = 1e-9


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _dump_json(obj) -> str:
    """json.dumps(obj, indent=2) with every float rounded to 12 significant
    digits and a non-finite one, which JSON cannot hold, as null; written
    in one walk: with an indent, json runs its pure-Python encoder, which
    would walk the payload a second time."""
    return _json12(obj, "\n")


def _json12(obj, pad: str) -> str:
    """obj as _dump_json writes it on a line that starts with pad (a newline
    and two spaces per level)."""
    if isinstance(obj, float):
        r = float(f"{obj:.12g}")
        return repr(r) if math.isfinite(r) else "null"
    if type(obj) is int:
        return repr(obj)
    if isinstance(obj, str):
        return _encode_str(obj)
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        items = [f"{_encode_str(k)}: {_json12(v, inner)}" for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, (list, tuple)) and obj:
        return "[" + inner + ("," + inner).join([_json12(v, inner) for v in obj]) + pad + "]"
    return json.dumps(obj)


def _parse_bloch(text: str) -> np.ndarray:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated components, got {text!r}")
    v = np.array(parts)
    if not np.isfinite(v).all():
        raise ValueError(f"direction components must be finite, got {text!r}")
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("direction must be nonzero")
    return v / norm


def _parse_count(text: str) -> int:
    n = float(text)
    if not (1 <= n < math.inf and n.is_integer()):
        raise argparse.ArgumentTypeError(f"sample count must be a finite whole number >= 1, got {text!r}")
    return int(n)


def _parse_seed(text: str) -> int:
    """A --seed value: numpy's generators take only non-negative integers."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return int(text)


_N_HELP = "n has no upper bound, and the time grows linearly in n"
_PPT_HELP = "The PPT check eigensolves the whole partial transpose, of side dA*dB, so its time grows as (dA*dB)^3 up to the 256 MiB matrix budget (dA*dB <= 4096)."


def _build_state(args) -> tuple[states.DensityMatrix, str]:
    """The state of --state-json, or the named state of states.STATES with
    its parameters taken from the flags of the same names."""
    if args.state_json:
        path = Path(args.state_json)
        size, limit = path.stat().st_size, states.DensityMatrix.JSON_BYTES
        if size > limit:  # checked before reading: no state within qmat.MATRIX_BUDGET is longer
            raise ValueError(f"{path} holds {size} bytes, more than any state within the matrix budget ({limit})")
        return states.DensityMatrix.from_json(path.read_text()), f"json:{args.state_json}"
    name = args.state
    if name is None:
        raise ValueError("provide a state name or --state-json")
    make = states.STATES[name]
    params = lhv._by_name(make, vars(args))
    missing = [p for p, v in params.items() if v is None]
    if missing:
        raise ValueError(f"{name} requires --{missing[0]}")
    label = ", ".join(f"{p}={v}" for p, v in params.items())
    return make(**params), f"{name}({label})" if params else name


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def cmd_witness(args) -> int:
    rho, label = _build_state(args)
    w = states.flip_witness(rho) if rho.d_a == rho.d_b else None
    if w is None:
        verdict = "not applicable (unequal local dimensions)"
    elif w < -_WITNESS_NEG_TOL:
        verdict = "entangled"
    elif args.state in states.WERNER_STATES and not args.state_json:
        verdict = "separable"
    else:
        verdict = "inconclusive (witness non-negative)"
    ppt_min = float(np.linalg.eigvalsh(partial_transpose(rho.mat, rho.d_a, rho.d_b, "B")).min())
    ppt_verdict = "entangled" if ppt_min < -_PPT_NEG_TOL else "no entanglement detected"
    payload = {
        "state": label,
        "flip_witness": w,
        "witness_verdict": verdict,
        "ppt_min_eigenvalue": ppt_min,
        "ppt_verdict": ppt_verdict,
    }
    if args.format == "json":
        _emit(_dump_json(payload), args.out)
    else:
        lines = [f"{k}: {_fmt(v) if isinstance(v, float) else v}" for k, v in payload.items() if v is not None]
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_chsh(args) -> int:
    rho, _ = _build_state(args)
    if (rho.d_a, rho.d_b) != (2, 2):
        raise ValueError("chsh requires a two-qubit state")
    settings = None
    if not args.optimal:
        missing = [f for f in ("x", "x2", "y", "y2") if getattr(args, f) is None]
        if missing:
            raise ValueError(f"provide --optimal or all four settings (missing {', '.join(missing)})")
        settings = bell.ChshSettings(args.x, args.x2, args.y, args.y2)
    _emit(_dump_json(bell.horodecki_m(rho, settings).to_dict()), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    """One model of lhv.MODELS against the Born table of its target state,
    which its trial returns; the scalars of the trial's extra are printed
    after the table. An estimate with standard error 0 passes a cell when it
    is within mc.EXACT_TOL of the oracle."""
    trial = lhv.MODELS[args.model]
    res, table, oracle, extra = trial(**lhv._by_name(trial, {**vars(args), "rng": np.random.default_rng(args.seed)}))
    max_sigma = table.max_sigma(oracle)
    passed = max_sigma <= acceptance.SIGMA
    if args.format == "json":
        payload = table.to_dict()
        payload["oracle"] = [[float(v) for v in row] for row in np.asarray(oracle)]
        payload.update({"max_sigma": max_sigma, "within_5_sigma": passed, **extra})
        _emit(_dump_json(payload), args.out)
    else:
        text = table.to_csv(np.asarray(oracle))
        text += f"# max_sigma = {_fmt(max_sigma)} -> {'ok' if passed else 'FAIL'}\n"
        text += "".join(f"# {k} = {v}\n" for k, v in extra.items())
        _emit(text.rstrip("\n"), args.out)
    # a model that also checks a rewrite of its own rule fails on any mismatch
    return EXIT_CHECK_FAILED if not passed or getattr(res, "rewrite_mismatches", 0) else EXIT_OK


def cmd_filter_scan(args) -> int:
    if args.family == "popescu":
        res = filters.popescu_protocol(args.d)
        text = "d,success_prob,chsh_fixed_settings,chsh_horodecki,M\n"
        text += (
            f"{args.d},{_fmt(res.success_prob)},{_fmt(res.chsh)},"
            f"{_fmt(res.chsh_horodecki)},{_fmt(res.m_rho)}\n"
        )
        _emit(text.rstrip("\n"), args.out)
        return EXIT_OK
    if args.q is None:
        raise ValueError(f"family {args.family!r} requires --q")
    rows = filters.hidden_nonlocality_scan(args.family, args.q, args.eps_grid)
    _emit(filters.scan_to_csv(rows).rstrip("\n"), args.out)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    if args.n < acceptance.FULL_POWER_N:
        print(
            f"warning: n={args.n} is below the calibrated {acceptance.FULL_POWER_N}; "
            "5-sigma checks are underpowered",
            file=sys.stderr,
        )
    results = acceptance.run_all(seed=args.seed, n=args.n)
    path = acceptance.write_report(results, args.out, args.seed, args.n)
    for r in results:
        print(f"{r.status}  C{r.cid:02d}  {r.name}")
        print(f"      {r.detail}")
        for f in r.findings:
            print(f"      note: {f}")
    failed = [r.cid for r in results if not r.passed]
    print(f"report written to {path}")
    if failed:
        print(f"FAILED criteria: {failed}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _add_state_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("state", nargs="?", choices=tuple(states.STATES), help="named state family")
    p.add_argument("--d", type=int, default=2, help="local dimension (default 2)")
    p.add_argument("--phi", type=float, default=None, help="flip-trace parameter in [-1, 1]")
    p.add_argument("--alpha", type=float, default=None, help="singlet weight in [0, 1]")
    p.add_argument("--q", type=float, default=None, help="singlet weight in [0, 1]")
    p.add_argument("--state-json", default=None, help="load the state from a JSON file instead")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nonlocal-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("witness", help="flip witness + partial-transpose check of a state", description=_PPT_HELP)
    _add_state_args(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("chsh", help="CHSH value and Horodecki diagnosis of a two-qubit state")
    _add_state_args(p)
    p.add_argument("--optimal", action="store_true", help="use the constructed optimal settings")
    for flag in ("--x", "--x2", "--y", "--y2"):
        p.add_argument(flag, type=_parse_bloch, default=None, help="Bloch direction as 'vx,vy,vz'")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_chsh)

    p = sub.add_parser("simulate", help="run a hidden-variable protocol against its Born oracle")
    p.add_argument("model", choices=tuple(lhv.MODELS))
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--q", type=float, default=0.4)
    p.add_argument("--x", type=_parse_bloch, default=np.array([0.0, 0.0, 1.0]))
    p.add_argument("--y", type=_parse_bloch, default=np.array([0.0, 0.0, 1.0]))
    p.add_argument("--n", type=_parse_count, default=1_000_000, help=f"samples (default 1e6); {_N_HELP}")
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("filter-scan", help="filter a state family over an epsilon grid")
    p.add_argument("family", choices=("rho-g", "rho-g-prime", "popescu"))
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--d", type=int, default=5)
    p.add_argument(
        "--eps-grid",
        type=lambda s: [float(x) for x in s.split(",")],
        default=list(filters.DEFAULT_EPS_GRID),
    )
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_filter_scan)

    p = sub.add_parser("reproduce", help="run the full verification suite and write a report")
    p.add_argument("--out", default="report")
    p.add_argument(
        "--n", type=_parse_count, default=acceptance.FULL_POWER_N,
        help=f"samples per Monte Carlo run (default 1e6, the 5-sigma calibration); {_N_HELP}",
    )
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
