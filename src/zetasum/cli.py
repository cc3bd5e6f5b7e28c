"""Command-line front end: run suites, list them, or certify a single sum.

Exit codes: 0 all verdicts pass, 1 at least one claim failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
from dataclasses import asdict
from typing import List, Optional, Sequence

import mpmath as mp

from .config import EXTENDED_DPS
from .kernel import oracle_recompute
from .phases import single_sum
from .specs import PhaseKind, SumSpec
from .suites import (ClaimRecord, ExperimentConfig, RefusedOptionError,
                     UnknownSuiteError, load_manifest, registered_suites,
                     run_suite)

CSV_COLUMNS = ["claim_id", "sigma", "t", "param1", "param2", "value_re",
               "value_im", "magnitude", "envelope", "ratio", "slope", "verdict"]


def _fmt(x: float) -> str:
    return "%.17g" % x


def _csv_row(r: ClaimRecord) -> str:
    cells = [r.claim_id] + [_fmt(v) for v in (
        r.sigma, r.t, r.param1, r.param2, r.value.real, r.value.imag,
        r.magnitude, r.envelope, r.ratio, r.slope)] + [r.verdict]
    return ",".join(cells)


def records_to_csv(records: List[ClaimRecord]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(_csv_row(r) for r in records)
    return "\n".join(lines) + "\n"


def _record_to_json(r: ClaimRecord) -> dict:
    d = asdict(r)
    d["value"] = {"re": r.value.real, "im": r.value.imag}
    return d


def records_to_json(records: List[ClaimRecord]) -> str:
    return json.dumps([_record_to_json(r) for r in records], indent=2) + "\n"


def records_from_json(text: str) -> List[ClaimRecord]:
    out = []
    for d in json.loads(text):
        d = dict(d)
        d["value"] = complex(d["value"]["re"], d["value"]["im"])
        out.append(ClaimRecord(**d))
    return out


def emit(records: List[ClaimRecord], out_format: str, path: Optional[str]) -> str:
    if out_format == "csv":
        text = records_to_csv(records)
    elif out_format == "json":
        text = records_to_json(records)
    else:
        raise ValueError(f"unknown format {out_format!r}")
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write artifact to {path}: {exc}") from exc
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zetasum",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a named experiment suite")
    run.add_argument("--suite", required=True)
    run.add_argument("--t-min", type=float, default=None)
    run.add_argument("--t-max", type=float, default=None)
    run.add_argument("--points", type=int, default=None)
    run.add_argument("--sigma", type=float, action="append", default=None,
                     help="may be given multiple times")
    run.add_argument("--delta", type=float, default=None)
    run.add_argument("--delta2", type=float, default=None)
    run.add_argument("--delta3", type=float, default=None)
    run.add_argument("--threads", type=int, default=1)
    run.add_argument("--precision", choices=["standard", "extended"],
                     default="standard")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", default=None)
    run.add_argument("--format", choices=["csv", "json"], default="csv")

    sub.add_parser("list-suites", help="list registered suites")

    oracle = sub.add_parser("oracle",
                            help="recompute one sum in extended precision and "
                                 "report the fast path's error against it")
    oracle.add_argument("--spec", required=True,
                        help='JSON, e.g. {"phase":"F3","sigma":0.5,"t":100,'
                             '"lo":1,"hi":100,"conjugate":true}')
    return parser


_VALUE_OPTIONS = ("sigma", "t_min", "t_max", "points", "delta", "delta2", "delta3", "seed")


def _given_values(args) -> str:
    """The value options given to `run`, as ``--name value`` words."""
    words = []
    for name in _VALUE_OPTIONS:
        value = getattr(args, name)
        for v in value if isinstance(value, list) else [value]:
            if v is not None:
                words.append(f"--{name.replace('_', '-')} {v}")
    return " ".join(words) or "its manifest defaults"


def _cmd_run(args) -> int:
    if args.precision == "extended":
        print("error: suites run in standard precision only; certify a single "
              "sum in extended precision with `zetasum oracle --spec ...`",
              file=sys.stderr)
        return 2
    if args.threads < 1:
        print(f"error: --threads must be at least 1, got {args.threads}",
              file=sys.stderr)
        return 2
    config = ExperimentConfig(
        suite=args.suite, sigma_list=args.sigma, t_min=args.t_min,
        t_max=args.t_max, points=args.points, delta=args.delta,
        delta2=args.delta2, delta3=args.delta3, threads=args.threads,
        seed=args.seed)
    try:
        records = run_suite(config)
    except (UnknownSuiteError, RefusedOptionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # an option value the suite cannot run with
        print(f"error: suite {args.suite!r} cannot run with {_given_values(args)}: {exc}",
              file=sys.stderr)
        return 2
    text = emit(records, args.format, args.out)
    if not args.out:
        sys.stdout.write(text)
    else:
        n_fail = sum(not r.passed() for r in records)
        print(f"{args.suite}: {len(records)} records, {n_fail} failing "
              f"-> {args.out}")
    return 0 if all(r.passed() for r in records) else 1


def _cmd_list_suites() -> int:
    manifest = load_manifest()
    for name in registered_suites():
        print(f"{name}: {manifest[name]['anchor']}")
    return 0


def _cmd_oracle(args) -> int:
    try:
        payload = json.loads(args.spec)
        spec = SumSpec(phase=PhaseKind[payload["phase"]],
                       sigma=float(payload["sigma"]), t=float(payload["t"]),
                       lo=int(payload["lo"]), hi=int(payload["hi"]),
                       conjugate=bool(payload.get("conjugate", False)))
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: bad --spec: {exc}", file=sys.stderr)
        return 2
    try:
        result = oracle_recompute(spec)
        fast = single_sum(spec)
    except ValueError as exc:  # budget exceeded or non-finite input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with mp.workdps(EXTENDED_DPS):
        abs_err = abs(mp.mpc(fast) - mp.mpc(result.re, result.im))
    print(json.dumps({"re": float(result.re), "im": float(result.im),
                      "precision_mode": result.precision_mode.value,
                      "flag": result.flag, "fast_re": fast.real,
                      "fast_im": fast.imag, "abs_err": float(abs_err)}))
    return 0


# mallopt parameters of glibc's <malloc.h>
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory() -> None:
    """Fix glibc's thresholds so freed blocks of up to 32 MiB stay in the heap.

    The streamed sums allocate and free arrays of 0.1-2 MiB for every block.
    glibc maps afresh each array above its mmap threshold and hands back a
    heap top above its trim threshold; both start at 128 KiB and grow only
    when a larger mapped block happens to be freed.  So how often each
    block's pages fault in again depends on what ran or was imported before:
    thm-5.1 took 0.8 s in a fresh process, 0.5 s once a larger block had
    been freed.  Elsewhere than glibc this does nothing.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv: Optional[Sequence[str]] = None) -> int:
    _keep_freed_memory()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize anything else
        return 2 if exc.code not in (0,) else 0
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "list-suites":
        return _cmd_list_suites()
    if args.command == "oracle":
        return _cmd_oracle(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
