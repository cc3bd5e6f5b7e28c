"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import (Ledger, certified_digits, golden_events, load_references,  # noqa: E402
                    record_key, score_mismatch, score_pass, snapshot_dir)
from tracer import busy_ratio, layer_metrics, self_times  # noqa: E402
import run  # noqa: E402

MAIN, POOL = 1, 2  # thread ids


def span(sid, parent, kind, tid, t0, t1, cpu=None, counts=None):
    return [sid, parent, kind, tid, t0, t1, t1 - t0 if cpu is None else cpu, counts or {}]


def synthetic_tree():
    # runner [0, 10] on the main thread; two children overlap in time, one of
    # them on a pool thread; a grandchild nests inside the main-thread child.
    return [
        span(1, None, "suites.runner", MAIN, 0.0, 10.0, cpu=6.0),
        span(2, 1, "phases.single_sum", MAIN, 1.0, 4.0),
        span(3, 2, "kernel.reduce", MAIN, 2.0, 3.0, counts={"chunks": 5}),
        span(4, 1, "phases.single_sum", POOL, 2.0, 6.0, counts={"terms": 100}),
    ]


def test_self_time_is_duration_minus_union_of_children():
    selfs = self_times(synthetic_tree())
    assert math.isclose(selfs[1], 10.0 - 5.0)  # children cover [1, 6]
    assert math.isclose(selfs[2], 3.0 - 1.0)
    assert math.isclose(selfs[3], 1.0)
    assert math.isclose(selfs[4], 4.0)
    assert math.isclose(sum(selfs.values()), 10.0 + 2.0)  # [2, 4] ran on both threads


def test_layer_metrics_sum_self_time_and_counters_per_kind():
    m = layer_metrics(synthetic_tree())
    assert m["phases.single_sum.calls"] == 2
    assert math.isclose(m["phases.single_sum.self_s"], 6.0)
    assert m["phases.single_sum.terms"] == 100
    assert math.isclose(m["phases.single_sum.terms_per_s"], 100 / 6.0)
    assert m["kernel.reduce.chunks"] == 5
    assert math.isclose(m["suites.runner.self_s"], 5.0)
    assert math.isclose(m["share.single_sum"], 6.0 / 12.0)


def test_nested_calls_of_one_kind_count_once():
    rows = [span(1, None, "kernel.log_gamma", MAIN, 0.0, 2.0),
            span(2, 1, "kernel.log_gamma", MAIN, 0.5, 1.5)]
    m = layer_metrics(rows)
    assert m["kernel.log_gamma.calls"] == 1
    assert math.isclose(m["kernel.log_gamma.self_s"], 2.0)


def test_busy_ratio_counts_outermost_span_per_thread():
    # main thread: 6 s of CPU in the runner; pool thread: 4 s; wall 10 s, 2 threads
    assert math.isclose(busy_ratio(synthetic_tree(), 10.0, 2), (6.0 + 4.0) / 20.0)


def test_tracer_keeps_every_span_under_thread_contention():
    from concurrent.futures import ThreadPoolExecutor
    from tracer import Tracer

    tracer = Tracer()
    leaf = tracer.wrap(lambda: None, "estlab.gh_bound", "leaf")

    def work(_):
        for _ in range(200):
            leaf()

    outer = tracer.wrap(lambda: list(pool.map(work, range(16))), "suites.runner", "outer")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            outer()
    finally:
        sys.setswitchinterval(interval)
    rows = tracer.rows()
    assert len(rows) == 16 * 200 + 1
    assert len({r[0] for r in rows}) == len(rows)
    root = next(r[0] for r in rows if r[2] == "suites.runner")
    assert all(r[1] == root for r in rows if r[2] == "estlab.gh_bound")


def _est25_reference():
    """(references, key, record(value)) for one est-2.5 grid point."""
    refs = load_references(HERE / "references.json")
    key = next(k for k in refs if k.startswith("est-2.5|"))
    claim_id, sigma, t, param1 = key.split("|")

    def record(value):
        return {"claim_id": claim_id, "sigma": float(sigma), "t": float(t),
                "param1": float(param1), "value": {"re": value.real, "im": value.imag}}

    return refs, key, record


def test_perturbed_value_lowers_min_correct_digits():
    refs, key, record = _est25_reference()
    exact = certified_digits([record(refs[key])], refs)[key]
    perturbed = certified_digits([record(refs[key] * (1 + 1e-6))], refs)[key]
    assert exact == 17.0
    assert math.isclose(perturbed, 6.0, abs_tol=0.01)


def test_value_that_is_not_finite_has_no_correct_digits():
    refs, key, record = _est25_reference()
    for value in (complex(math.nan, 0.0), complex(0.0, math.inf), complex(-math.inf, 1.0)):
        assert certified_digits([record(value)], refs)[key] == 0.0


def test_value_that_is_not_finite_is_a_failed_operation():
    result = {"suites": [{"suite": "est-2.5", "artifact": "est-2.5.r0.json", "records": 3,
                          "fail_verdicts": [2], "nonfinite": [1, 2], "roundtrip_bad": [1]}],
              "golden": {"created": [], "rewritten": [], "removed": []}}
    ledger = Ledger()
    bad = score_pass(ledger, result, "pass")
    assert bad == {"est-2.5.r0.json": {1, 2}}
    assert (ledger.attempted, ledger.failed) == (3, 2)


def test_chi_rows_are_certified_against_mpmath():
    from mpmath import mp, mpc, zeta
    s = complex(0.5, 1000.0)
    with mp.workdps(30):
        chi = complex(zeta(mpc(s)) / zeta(1 - mpc(s)))
    row = {"claim_id": "chi-checks", "sigma": 0.5, "t": 1000.0, "param1": 1.0,
           "value": {"re": chi.real, "im": chi.imag}}
    assert certified_digits([row], {})[record_key("chi-checks", 0.5, 1000.0, 1.0)] > 12


def test_golden_events_see_creates_and_rewrites(tmp_path):
    (tmp_path / "a.json").write_text("1")
    (tmp_path / "b.json").write_text("2")
    before = snapshot_dir(tmp_path)
    (tmp_path / "b.json").write_text("3")
    (tmp_path / "c.json").write_text("4")
    events = golden_events(before, snapshot_dir(tmp_path))
    assert events == {"created": ["c.json"], "rewritten": ["b.json"], "removed": []}


def _fake_root(tmp_path, edit_golden):
    """A checkout whose golden copy edit_golden has changed; src is the real one."""
    root = tmp_path / "root"
    root.mkdir(parents=True)
    (root / "src").symlink_to(ROOT / "src")
    shutil.copytree(ROOT / "golden", root / "golden")
    edit_golden(root / "golden")
    return root


def _child(root, work, suite, *extra):
    work.mkdir()
    subprocess.run([sys.executable, str(HERE / "child.py"), "--root", str(root),
                    "--workdir", str(work), "--suites", suite, "--threads", "1",
                    "--seed", "1", "--spawned", "0", *extra], check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    return json.loads((work / "result.json").read_text())


def test_child_runs_rounds_until_its_deadline(tmp_path):
    import time
    root = _fake_root(tmp_path, lambda g: None)
    until = time.clock_gettime(time.CLOCK_MONOTONIC) + 3.0  # set-up ~1.5 s, a round ~0.1 s
    result = _child(root, tmp_path / "w", "identity-2.7", "--until", repr(until))
    assert len(result["rounds"]) >= 2
    assert [s["round"] for s in result["suites"]] == list(range(len(result["rounds"])))
    texts = {(tmp_path / "w" / s["artifact"]).read_text() for s in result["suites"]}
    assert len(texts) == 1  # every round writes the same artifact


def test_forged_golden_write_raises_fail_ratio(tmp_path):
    def forge(golden):  # a stale context hash makes identity-2.7 rewrite its constant
        path = golden / "identity-2.7.json"
        record = json.loads(path.read_text())
        path.write_text(json.dumps(dict(record, context_hash="0" * 16)))

    clean = _child(_fake_root(tmp_path / "a", lambda g: None), tmp_path / "wa", "identity-2.7")
    forged = _child(_fake_root(tmp_path / "b", forge), tmp_path / "wb", "identity-2.7",
                    "--trace")
    assert forged["golden"]["rewritten"] == ["identity-2.7.json"]
    spans = json.loads((tmp_path / "wb" / "spans.json").read_text())["spans"]
    assert layer_metrics(spans)["golden.written"] == 1
    ledgers = []
    for result in (clean, forged):
        ledger = Ledger()
        score_pass(ledger, result, "pass")
        ledgers.append(ledger)
    assert ledgers[0].fail_ratio == 0.0
    assert ledgers[1].fail_ratio > 0.0


def test_broken_premise_fails_the_traced_run(tmp_path):
    class FakeRunner:  # every pass returns the synthetic tree: share.single_sum = 0.5
        def __init__(self):
            self.ledger = Ledger()

        def run_pass(self, threads, trace=False):
            return {"threads": threads, "rounds": [10.0], "spans": synthetic_tree()}

    for workload, broken in (("single-sweep", 1), ("coupled-sweep", 2), ("exact-checks", 0)):
        runner = FakeRunner()
        run.trace(runner, workload, tmp_path)
        assert (runner.ledger.attempted, runner.ledger.failed) == (broken, broken)


def test_paced_rounds_rescale_each_suite_by_the_host_pace_around_it():
    ref = run.PACE_REF_S
    result = {"rounds": [3.0, 1.0],
              "suites": [{"round": 0, "seconds": 1.0, "pace": ref},
                         {"round": 0, "seconds": 2.0, "pace": 2.0 * ref},  # host at half speed
                         {"round": 1, "seconds": 1.0, "pace": 0.5 * ref}]}
    assert run.paced_rounds(result) == [2.0, 2.0]


def test_threads_mismatch_fails_the_differing_records():
    a = json.dumps([{"value": 1.0}, {"value": 2.0}])
    b = json.dumps([{"value": 1.0}, {"value": 2.5}])
    ledger = Ledger()
    ledger.attempted = 2
    bad = set()
    score_mismatch(ledger, "suite", a, b, bad, "pass")
    assert bad == {1} and ledger.failed == 1


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END[m["name"]]
    traced = set(layer_metrics([])) | {"suites.busy_ratio", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == traced
    for m in spec["per_layer"]:
        assert m["unit"] == run.per_layer_unit(m["name"])
    suites = [s for names in run.WORKLOADS.values() for s in names]
    manifest = json.loads((ROOT / "src" / "zetasum" / "claims.json").read_text())
    assert sorted(suites) == sorted(manifest)  # every suite exactly once


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact-checks",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
