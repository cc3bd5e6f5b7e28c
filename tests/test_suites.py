"""Suite plumbing: the thread-pool map behind every sweep."""

import threading
import time

from zetasum.cli import records_to_json
from zetasum.suites import ExperimentConfig, _pmap, run_suite


def test_pmap_keeps_input_order_with_uneven_costs():
    # ascending costs, as in a sweep over ascending t
    costs = [0.0, 0.01, 0.02, 0.04, 0.08]
    started = []
    lock = threading.Lock()

    def work(cost):
        with lock:
            started.append(cost)
        time.sleep(cost)
        return cost, threading.get_ident()

    out = _pmap(work, costs, threads=2)
    assert [cost for cost, _ in out] == costs
    assert len({ident for _, ident in out}) == 2
    # the two costliest points are taken first
    assert set(started[:2]) == {0.04, 0.08}


def test_pmap_serial_path():
    assert _pmap(lambda x: x * x, [3, 1, 2], threads=1) == [9, 1, 4]


def test_lemma_52_records_identical_across_threads():
    # the J2 quadrature keeps no shared state, so pool threads cannot perturb
    # it; with mpmath.quad, whose shared context the first threaded run races
    # on, the artifacts differ in about half of the runs
    def artifact(threads):
        return records_to_json(run_suite(ExperimentConfig(suite="lemma-5.2", threads=threads)))

    two = artifact(2)
    assert artifact(1) == two and artifact(2) == two
