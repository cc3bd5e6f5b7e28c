"""Outside-in tracing of zetasum: spans around calls into each module's public functions.

The tracer replaces each traced function in every namespace that holds it
(`suites` binds `single_sum` and `doublesums` binds `power_prefix` through
`from ... import`, and `suites._RUNNERS` holds the runners), so no call path
escapes.  Spans stay in memory with their parent and thread id; the child
writes them out when its pass ends and `layer_metrics` turns them into the
per-layer figures.  A span's self time is its duration minus the union of
its children's intervals, so children running in parallel on pool threads
are not subtracted twice.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from checks import snapshot_dir

# A span is (id, parent, kind, tid, t0, t1, cpu_s, counts), stored and written
# out in that order.

# module -> {function name: span kind}.  doublesums kinds are decided per call.
TRACED = {
    "kernel": {"reduce_deterministic": "kernel.reduce",
               "sum_array_deterministic": "kernel.sum_array",
               "log_gamma_complex": "kernel.log_gamma"},
    "phases": {"single_sum": "phases.single_sum",
               "power_prefix": "phases.power_prefix"},
    "asymptotics": {"chi_exact": "asymptotics.chi",
                    "chi_asymptotic": "asymptotics.chi",
                    "fl_identity_residual": "asymptotics.residual",
                    "fr_identity_residual": "asymptotics.residual",
                    "functional_equation_residual": "asymptotics.residual",
                    "zeta_reference": "asymptotics.residual"},
    "doublesums": {name: "doublesums" for name in (
        "grid_double_sum", "f_sum", "g_sum", "lemma32_identity_residual",
        "tail_double_sum", "relation_36_check", "s4_a_sum", "s4_b_sum",
        "s4_b_part1_exchanged", "s5_decomposition_residual", "s5_1_sum", "s5_2_sum")},
    "estlab": {"fit_growth_exponent": "estlab.fit",
               "gh_bound_check": "estlab.gh_bound",
               "j_integral": "estlab.integral",
               "j2_integral": "estlab.integral"},
    "golden": {"freeze": "golden.freeze"},
    "suites": {"run_suite": "suites.run_suite"},
    "cli": {"emit": "cli.emit"},
}


# Kinds whose counters or classification need the call's arguments.
_NEEDS_ARGS = {"doublesums", "kernel.reduce", "kernel.sum_array", "phases.single_sum",
               "phases.power_prefix"}


def _doublesum_pairs(name: str, a: dict) -> int:
    """Index pairs (m, n) the double sum covers, from its arguments."""
    if name == "lemma32_identity_residual":
        return 0  # its f and g calls carry the pairs
    if name in ("f_sum", "g_sum"):
        n = a["n_max"]
        return n * n if name == "f_sum" else n * (n + 1) // 2
    big_t = int(a["t"])
    if name in ("tail_double_sum", "s4_b_part1_exchanged"):
        return big_t * (big_t + 1) // 2
    if name == "s5_1_sum":
        t, d = a["t"], a["delta"]
        return sum(max(0, big_t - int(t ** (1.0 - d) * m)) + m
                   for m in range(1, int(t**d) + 1))
    if name == "s5_2_sum":  # sum over m >= [t^(1-d)] of m t^(d-1), in closed form
        t, d = a["t"], a["delta"]
        m_lo = int(t ** (1.0 - d))
        return int(t ** (d - 1.0) * (big_t * (big_t + 1) - m_lo * (m_lo - 1)) / 2)
    return big_t * big_t


def _doublesum_kind(name: str, a: dict) -> str:
    strategy = a.get("strategy")
    if name == "s4_b_part1_exchanged" or getattr(strategy, "value", "") == "brute_force":
        return "doublesums.brute"
    if name == "s5_decomposition_residual":
        return "doublesums.partition"
    if name == "s4_b_sum":
        return "doublesums.fft"
    return "doublesums.fast"


def _counts(kind: str, a: dict, result) -> dict:
    """Work counters of one call, from its bound arguments and result."""
    if kind == "kernel.reduce":
        return {"chunks": len(a["chunks"])}
    if kind == "kernel.sum_array":
        return {"elements": int(getattr(a["values"], "size", len(a["values"])))}
    if kind == "phases.single_sum":
        return {"terms": a["spec"].term_count}
    if kind == "phases.power_prefix":
        return {"entries": int(a["upper"])}
    if kind == "estlab.fit":
        return {"dropped_points": result.dropped_points}
    if kind == "suites.run_suite":
        return {"records": len(result)}
    if kind == "cli.emit":
        return {"bytes": len(result)}
    return {}


def _golden_state() -> Dict[str, Tuple[int, str]]:
    return snapshot_dir(Path(os.environ["ZETASUM_GOLDEN_DIR"]))


class Tracer:
    """Collects spans from wrapped functions on any thread."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: Optional[list] = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
        return stack

    def _parent(self, stack: list) -> Optional[int]:
        if stack:
            return stack[-1]
        # a span opened on a pool thread belongs to the main thread's open span
        main = self._main_stack
        return main[-1] if main else None

    def wrap(self, fn: Callable, kind: str, name: str) -> Callable:
        sig = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            a, k = None, kind
            if kind in _NEEDS_ARGS:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                if kind == "doublesums":
                    k = _doublesum_kind(name, a)
            golden_before = _golden_state() if kind == "golden.freeze" else None
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = tracer._parent(stack)
            stack.append(span_id)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                cpu = time.thread_time() - c0
                stack.pop()
            if golden_before is not None:
                written = int(_golden_state() != golden_before)
                counts = {"written": written, "reused": 1 - written}
            elif kind == "doublesums":
                counts = {"pairs": _doublesum_pairs(name, a)}
            else:
                counts = _counts(k, a, result)
            tracer.spans.append((span_id, parent, k, threading.get_ident(), t0, t1, cpu, counts))
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function in every namespace of zetasum."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "zetasum" or n.startswith("zetasum."))]
        for mod_name, functions in TRACED.items():
            module = sys.modules[f"zetasum.{mod_name}"]
            for name, kind in functions.items():
                original = getattr(module, name)
                self._replace(modules, original, self.wrap(original, kind, name))
        suites = sys.modules["zetasum.suites"]
        for suite, runner in list(suites._RUNNERS.items()):
            traced = self.wrap(runner, "suites.runner", suite)
            suites._RUNNERS[suite] = traced
            self._replace(modules, runner, traced)

    @staticmethod
    def _replace(modules: Sequence, original: Callable, traced: Callable) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, traced)

    def rows(self) -> List[list]:
        return [list(s) for s in self.spans]


# ---------------------------------------------------------------------------
# span arithmetic (runs in the parent on the rows a child wrote)
# ---------------------------------------------------------------------------


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    end = -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(rows: Sequence[Sequence]) -> Dict[int, float]:
    """span id -> duration minus the union of its children's intervals."""
    spans = {r[0]: r for r in rows}
    children = defaultdict(list)
    for r in rows:
        if r[1] in spans:
            children[r[1]].append(r)
    out = {}
    for sid, r in spans.items():
        t0, t1 = r[4], r[5]
        covered = _union_length([(max(c[4], t0), min(c[5], t1)) for c in children[sid]
                                 if c[5] > t0 and c[4] < t1])
        out[sid] = (t1 - t0) - covered
    return out


def busy_ratio(rows: Sequence[Sequence], wall_s: float, threads: int) -> float:
    """CPU time inside the outermost span of each thread, over threads x wall."""
    by_id = {r[0]: r for r in rows}
    busy = sum(r[6] for r in rows
               if r[1] not in by_id or by_id[r[1]][3] != r[3])
    return busy / (threads * wall_s) if wall_s > 0 else 0.0


def layer_metrics(rows: Sequence[Sequence]) -> Dict[str, float]:
    """Per-layer calls, counters and self time from one traced pass."""
    by_id = {r[0]: r for r in rows}
    selfs = self_times(rows)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(lambda: defaultdict(float))
    for r in rows:
        kind = r[2]
        self_s[kind] += selfs[r[0]]
        parent = by_id.get(r[1])
        if parent is None or parent[2] != kind:
            calls[kind] += 1  # nested calls of the same kind are one call into it
        for name, v in r[7].items():
            counts[kind][name] += v
    total_self = sum(selfs.values())

    m: Dict[str, float] = {}
    for kind in ("kernel.reduce", "kernel.sum_array", "kernel.log_gamma",
                 "phases.single_sum", "phases.power_prefix", "asymptotics.chi",
                 "asymptotics.residual", "doublesums.fast", "doublesums.brute",
                 "estlab.fit", "estlab.gh_bound"):
        m[f"{kind}.calls"] = calls[kind]
        m[f"{kind}.self_s"] = self_s[kind]
    for kind, counter in (("kernel.reduce", "chunks"), ("kernel.sum_array", "elements"),
                          ("phases.single_sum", "terms"), ("phases.power_prefix", "entries"),
                          ("doublesums.fast", "pairs"), ("doublesums.brute", "pairs"),
                          ("estlab.fit", "dropped_points")):
        m[f"{kind}.{counter}"] = counts[kind][counter]
    for kind in ("doublesums.fft", "doublesums.partition", "estlab.integral"):
        m[f"{kind}.self_s"] = self_s[kind]
    ss, pp = "phases.single_sum", "phases.power_prefix"
    m[f"{ss}.terms_per_s"] = _rate(counts[ss]["terms"], self_s[ss])
    m[f"{pp}.entries_per_s"] = _rate(counts[pp]["entries"], self_s[pp])
    m[f"{pp}.bytes_computed"] = 16 * counts[pp]["entries"]  # complex128 entries
    m["golden.reused"] = counts["golden.freeze"]["reused"]
    m["golden.written"] = counts["golden.freeze"]["written"]
    m["golden.self_s"] = self_s["golden.freeze"]
    m["suites.runner.self_s"] = self_s["suites.runner"] + self_s["suites.run_suite"]
    m["suites.records"] = counts["suites.run_suite"]["records"]
    m["cli.emit.self_s"] = self_s["cli.emit"]
    m["cli.emit.bytes"] = counts["cli.emit"]["bytes"]
    doublesums = sum(v for k, v in self_s.items() if k.startswith("doublesums."))
    m["trace.self_total_s"] = total_self
    m["share.single_sum"] = self_s[ss] / total_self if total_self else 0.0
    m["share.prefix_doublesums"] = (self_s[pp] + doublesums) / total_self if total_self else 0.0
    return m


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0
