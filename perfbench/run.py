"""zetasum suite-level benchmark: time, peak memory and certified digits.

    python3 perfbench/run.py --workload single-sweep --seed 1 --seconds 44 --trace 0

Run from the repository root.  One closed-loop client runs a workload's
suites back to back through `zetasum.cli.main`; every (workload, thread
count) pass is a fresh child process (child.py), so its set-up time and
peak RSS are its own.  With --trace 0 the run alternates --threads 1 and
--threads 2 passes, four in all if they fit in --seconds; each pass runs the
suites over and over (rounds) for its share of the time.  The run reports
the medians of the end-to-end metrics over passes (set-up, peak RSS) and
over rounds (wall time); times are rescaled to a reference host speed.
With --trace 1 it runs one untraced and one traced --threads 1 pass and one
traced --threads 2 pass, of one round each, and reports the per-layer
metrics (tracer.py).  Outputs are checked in
every mode (checks.py).  The last line of standard output is the JSON
result; a table of the same metrics precedes it.  See perfbench/README.md
for the workloads.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from checks import (Ledger, certified_digits, load_references, score_mismatch,  # noqa: E402
                    score_pass, tree_digest)
from tracer import busy_ratio, layer_metrics  # noqa: E402

WORKLOADS: Dict[str, List[str]] = {
    "single-sweep": ["est-2.13", "est-2.5", "lemma-2.3", "identity-2.6", "appendix-a"],
    "coupled-sweep": ["thm-5.3", "thm-5.1", "lemma-4.1", "lemma-4.2", "relation-3.4"],
    "exact-checks": ["determinism", "identity-3.12", "decomp-5.3", "bound-5gh",
                     "chi-checks", "identity-2.7", "lemma-5.2"],
}

END_TO_END = {"setup_s": "s", "wall_s.t1": "s", "wall_s.t2": "s",
              "peak_rss_mb.t1": "MB", "peak_rss_mb.t2": "MB",
              "ok_ratio": "1", "min_correct_digits": "digits"}

# What each workload was chosen for, checked on its traced run:
# (metric, at least (True) or below (False), threshold).
PREMISES = {
    "single-sweep": [("share.single_sum", True, 0.90)],
    "coupled-sweep": [("share.prefix_doublesums", True, 0.90),
                      ("share.single_sum", False, 0.01)],
}

HARD_LIMIT_S = 170.0  # a run must end within 180 s
PASSES = 4  # per --trace 0 run: --threads 1, 2, 1, 2

# What child.pace takes on the reference host (the quiet 2-vCPU VM the
# benchmark was written on); setup_s and wall_s.* are rescaled to it
# (README, "Host pace").
PACE_REF_S = 0.0038


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes") or name.endswith("bytes_computed"):
        return "B"
    if name.startswith("share.") or name.endswith("busy_ratio"):
        return "1"
    return "count"


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def paced_rounds(result: dict) -> List[float]:
    """Each round's wall time, every suite rescaled by the host pace around it."""
    walls = [0.0] * len(result["rounds"])
    for s in result["suites"]:
        walls[s["round"]] += s["seconds"] * PACE_REF_S / s["pace"]
    return walls


class Runner:
    """Starts child passes for one workload and scores their outputs."""

    def __init__(self, workload: str, seed: int, work: Path, started: float):
        self.suites = WORKLOADS[workload]
        self.seed = seed % 2**32
        self.work = work
        self.started = started
        self.ledger = Ledger()
        self.passes: List[dict] = []
        self.first_t1: Optional[dict] = None  # suite -> artifact text

    def run_pass(self, threads: int, trace: bool = False,
                 until: float = 0.0) -> Optional[dict]:
        """Run one child pass, with rounds until `until`; None when it crashed."""
        index = len(self.passes)
        pass_dir = self.work / f"pass{index}-t{threads}"
        pass_dir.mkdir()
        cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
               "--workdir", str(pass_dir), "--suites", ",".join(self.suites),
               "--threads", str(threads), "--seed", str(self.seed)]
        if trace:
            cmd.append("--trace")
        if until:
            cmd += ["--until", repr(until)]
        timeout = max(1.0, HARD_LIMIT_S - (_monotonic() - self.started))
        label = f"pass {index} (--threads {threads})"
        try:
            proc = subprocess.run(cmd + ["--spawned", repr(_monotonic())],
                                  stdout=subprocess.DEVNULL, timeout=timeout)
            crashed = proc.returncode != 0 or not (pass_dir / "result.json").is_file()
        except subprocess.TimeoutExpired:
            crashed = True
        if crashed:
            self.passes.append({"threads": threads, "crashed": True})
            self.ledger.fail(len(self.suites), f"{label}: child failed", attempted=True)
            shutil.rmtree(pass_dir)
            return None
        result = json.loads((pass_dir / "result.json").read_text())
        bad = score_pass(self.ledger, result, label)
        texts = {s["artifact"]: (pass_dir / s["artifact"]).read_text()
                 for s in result["suites"] if s["records"] is not None}
        if self.first_t1 is None and threads == 1:
            self.first_t1 = {s["suite"]: texts[s["artifact"]] for s in result["suites"]
                             if s["round"] == 0 and s["artifact"] in texts}
        for s in result["suites"]:  # every artifact against the first --threads 1 one
            if s["artifact"] in texts and self.first_t1:
                score_mismatch(self.ledger, s["suite"], self.first_t1.get(s["suite"]),
                               texts[s["artifact"]], bad[s["artifact"]],
                               f"{label} round {s['round']}")
        spans = pass_dir / "spans.json"
        result["spans"] = json.loads(spans.read_text())["spans"] if spans.is_file() else None
        result["crashed"] = False
        result["paced"] = paced_rounds(result)
        self.passes.append(result)
        shutil.rmtree(pass_dir)
        return result

    def digits(self, references: Dict[str, complex]) -> Dict[str, float]:
        """Correct digits of each certified record of the first --threads 1 pass."""
        if not self.first_t1:
            return {}
        rows = [d for text in self.first_t1.values() for d in json.loads(text)]
        got = certified_digits(rows, references)
        prefixes = tuple(f"{s}|" for s in self.suites)
        for key in references:
            if key.startswith(prefixes) and key not in got:
                self.ledger.fail(1, f"no record for reference {key}", attempted=True)
        return got

    def ok(self, kind: int) -> List[dict]:
        return [p for p in self.passes if not p["crashed"] and p["threads"] == kind]


def measure(runner: Runner, seconds: float) -> Dict[str, float]:
    """Run PASSES passes, --threads 1 and 2 in turn, sharing the budget.

    Each pass gets an equal share of what is left, so time a pass leaves
    unused goes to the next.  A pass is skipped when one round of it (its
    longest cost so far, less its extra rounds) would overrun the budget;
    the first pass of each thread count always runs.
    """
    one_round = {1: 0.0, 2: 0.0}
    budget = min(seconds, HARD_LIMIT_S)
    end = runner.started + budget
    for i in range(PASSES):
        threads = 1 + i % 2
        t0 = _monotonic()
        if i >= 2 and t0 + one_round[threads] > end:
            continue
        result = runner.run_pass(threads, until=t0 + (end - t0) / (PASSES - i))
        cost = _monotonic() - t0
        if result is not None:
            cost -= sum(sorted(result["rounds"])[:-1])
        one_round[threads] = max(one_round[threads], cost)
    t1, t2 = runner.ok(1), runner.ok(2)
    if not t1 or not t2:
        return {}
    med = statistics.median
    return {"setup_s": med(p["setup_s"] * PACE_REF_S / p["setup_pace"] for p in t1 + t2),
            "wall_s.t1": med(r for p in t1 for r in p["paced"]),
            "wall_s.t2": med(r for p in t2 for r in p["paced"]),
            "peak_rss_mb.t1": med(p["peak_rss_mb"] for p in t1),
            "peak_rss_mb.t2": med(p["peak_rss_mb"] for p in t2)}


def trace(runner: Runner, workload: str, out: Path) -> Dict[str, float]:
    """Untraced t1, traced t1 and traced t2 passes; per-layer metrics."""
    plain = runner.run_pass(1)
    traced = runner.run_pass(1, trace=True)
    traced2 = runner.run_pass(2, trace=True)
    if not (plain and traced and traced2):
        return {}
    for p in (traced, traced2):
        (out / f"trace-{workload}-t{p['threads']}.json").write_text(json.dumps(
            {"wall_s": p["rounds"][0], "spans": p["spans"]}))
    metrics = layer_metrics(traced["spans"])
    metrics["suites.busy_ratio"] = busy_ratio(traced2["spans"], traced2["rounds"][0], 2)
    metrics["trace.overhead_s"] = traced["rounds"][0] - plain["rounds"][0]
    for name, at_least, bound in PREMISES.get(workload, []):
        holds = metrics[name] >= bound if at_least else metrics[name] < bound
        premise = f"premise {workload}: {name} = {metrics[name]:.4f} " \
                  f"{'>=' if at_least else '<'} {bound}"
        print(f"{premise}: {'holds' if holds else 'DOES NOT HOLD'}", file=sys.stderr)
        if not holds:
            runner.ledger.fail(1, f"{premise} does not hold", attempted=True)
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = _monotonic()

    needed = [ROOT / "src" / "zetasum" / "__init__.py", ROOT / "golden",
              HERE / "references.json"]
    missing = [str(x) for x in needed if not x.exists()]
    if missing:
        print(f"error: not a zetasum checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    references = load_references(HERE / "references.json")
    golden_digest = tree_digest(ROOT / "golden")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out))
    runner = Runner(args.workload, args.seed, work, started)
    try:
        if args.trace:
            metrics = trace(runner, args.workload, out)
        else:
            metrics = measure(runner, args.seconds)
        digits = runner.digits(references)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tree_digest(ROOT / "golden") != golden_digest:
        runner.ledger.fail(1, "repository golden/ changed during the run", attempted=True)
    if not metrics or not digits:
        print("error: no complete pass; " + "; ".join(runner.ledger.problems), file=sys.stderr)
        return 1

    if args.trace:
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics["ok_ratio"] = 1.0 - runner.ledger.fail_ratio
        metrics["min_correct_digits"] = min(digits.values())
        units = END_TO_END
    for suite in runner.suites:
        mine = {k: v for k, v in digits.items() if k.startswith(f"{suite}|")}
        if mine:
            key = min(mine, key=mine.get)
            print(f"lowest correct digits of {suite}: {mine[key]:.2f} at {key} "
                  f"({len(mine)} certified)", file=sys.stderr)
    for k in (1, 2):
        setups = " ".join(f"{p['setup_s']:.3f}" for p in runner.ok(k))
        print(f"--threads {k} measured set-up by pass (s): {setups}", file=sys.stderr)
        for key in ("rounds", "paced"):
            walls = " | ".join(" ".join(f"{r:.3f}" for r in p[key]) for p in runner.ok(k))
            print(f"--threads {k} {key} walls by pass (s): {walls}", file=sys.stderr)
    for problem in runner.ledger.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"{args.workload}: {len(runner.ok(1))} passes at --threads 1, "
          f"{len(runner.ok(2))} at --threads 2, "
          f"{runner.ledger.attempted} operations, {runner.ledger.failed} failed")
    for name in sorted(units):
        print(f"  {name:34s} {metrics[name]:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": runner.ledger.failed == 0,
        "attempted": max(1, runner.ledger.attempted),
        "failed": runner.ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(units)}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
