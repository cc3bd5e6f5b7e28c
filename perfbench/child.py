"""One benchmark pass: a fresh process runs a workload's suites back to back.

    python3 perfbench/child.py --root ROOT --workdir DIR --suites a,b --threads N
                               --seed S --spawned T [--until U] [--trace]

Set-up (interpreter start, `zetasum` import, golden constants staged into
DIR/golden, manifest loaded) is timed from T, the parent's CLOCK_MONOTONIC
reading just before it started this process.  Each suite then runs through
`zetasum.cli.main(["run", ..., "--format", "json", "--out", DIR/<suite>.r<k>.json])`.
One run of every suite is a round (k counts them from 0).  The child starts
another round while it would end by U, a CLOCK_MONOTONIC reading, judged by
the longest round so far; it always runs one.  Right after set-up, before each
round and after every suite it times a fixed reference loop (`pace`), so
that the parent can tell a slow program from a slow host.
After the timed part the child re-parses every artifact through
`cli.records_from_json`, diffs the staged golden directory, and writes
DIR/result.json (and DIR/spans.json when traced).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from checks import golden_events, snapshot_dir  # noqa: E402


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


PACE_REPEATS = 60
PACE_SLICES = 3


def pace() -> float:
    """Seconds a fixed reference loop takes: the host's speed right now.

    Small NumPy calls on a 4096-element array, so mostly interpreter and
    dispatch work, as in the suites; no zetasum code, so a change to the
    program does not move it.  It runs on this thread, wherever the
    scheduler has put it.  Median of PACE_SLICES slices (about 12 ms in all).
    """
    import numpy as np

    a = np.linspace(0.0, 1.0, 4096)
    times = []
    for _ in range(PACE_SLICES):
        t0 = time.perf_counter()
        for _ in range(PACE_REPEATS):
            np.cos(a * 3.0 + np.exp(a)).sum()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def roundtrip_bad(cli, text: str) -> list:
    """Indices of records whose doubles change through records_from_json and back."""
    again = cli.records_to_json(cli.records_from_json(text))
    if again == text:
        return []
    raw, back = json.loads(text), json.loads(again)
    bad = [i for i, d in enumerate(raw)
           if i >= len(back) or json.dumps(back[i]) != json.dumps(d)]
    return bad or list(range(len(raw)))


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--suites", required=True)
    p.add_argument("--threads", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--until", type=float, default=0.0)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    root, work = Path(args.root), Path(args.workdir)

    sys.path.insert(0, str(root / "src"))
    import zetasum
    import zetasum.cli as cli
    from zetasum.suites import load_manifest
    if Path(zetasum.__file__).resolve().parent != (root / "src" / "zetasum").resolve():
        raise SystemExit(f"imported zetasum from {zetasum.__file__}, not {root / 'src'}")
    golden = work / "golden"
    shutil.copytree(root / "golden", golden)
    os.environ["ZETASUM_GOLDEN_DIR"] = str(golden)
    os.chdir(work)  # a constant written to cwd/golden lands in the staged copy too
    manifest = load_manifest()
    setup_s = _monotonic() - args.spawned
    setup_pace = pace()

    golden_before = snapshot_dir(golden)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    suites, rounds, longest = [], [], 0.0
    while not rounds or _monotonic() + longest <= args.until:
        started = _monotonic()
        wall = 0.0
        before = pace()
        for suite in args.suites.split(","):
            out = work / f"{suite}.r{len(rounds)}.json"
            argv_run = ["run", "--suite", suite, "--threads", str(args.threads),
                        "--format", "json", "--out", str(out)]
            if "seed" in manifest[suite]["defaults"]:
                argv_run += ["--seed", str(args.seed)]
            error = None
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv_run)
            except Exception:  # a crashing suite is a failed operation, not a crashed pass
                rc, error = None, traceback.format_exc(limit=3)
            seconds = time.perf_counter() - t0
            wall += seconds
            after = pace()
            suites.append({"suite": suite, "round": len(rounds), "rc": rc, "error": error,
                           "seconds": seconds, "pace": (before + after) / 2,
                           "artifact": out.name})
            before = after
        rounds.append(wall)
        longest = max(longest, _monotonic() - started)
        if len(rounds) == 1:  # later rounds may keep memory the allocator did not return
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    for s in suites:
        path = work / s["artifact"]
        if s["error"] is None and not path.is_file():
            s["error"] = f"exit code {s['rc']} and no artifact"
        if s["error"] is not None:
            s.update(records=None, fail_verdicts=[], nonfinite=[], roundtrip_bad=[])
            continue
        text = path.read_text()
        rows = json.loads(text)
        s.update(records=len(rows),
                 fail_verdicts=[i for i, d in enumerate(rows) if d["verdict"] != "pass"],
                 nonfinite=[i for i, d in enumerate(rows)
                            if not all(map(math.isfinite, d["value"].values()))],
                 roundtrip_bad=roundtrip_bad(cli, text))

    result = {"threads": args.threads, "setup_s": setup_s, "setup_pace": setup_pace,
              "rounds": rounds,
              "peak_rss_mb": peak_rss_mb, "suites": suites,
              "golden": golden_events(golden_before, snapshot_dir(golden))}
    if tracer is not None:
        (work / "spans.json").write_text(json.dumps({"spans": tracer.rows()}))
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
