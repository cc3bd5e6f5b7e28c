"""Suite plumbing: the worker-process map behind every sweep, bound-5gh's stacked checks
and the pinned artifacts of every suite."""

import hashlib
import inspect
import math
import multiprocessing
import os
import time
import tracemalloc

import mpmath
import numpy as np
import pytest

from zetasum import suites
from zetasum.asymptotics import _dist_to_2pi_grid, e_term
from zetasum.cli import records_to_json
from zetasum.config import ETA_DIST_EPS
from zetasum.estlab import gh_bound_check
from zetasum.suites import (ExperimentConfig, _pmap, load_manifest, nudge_eta,
                            registered_suites, run_suite)


@pytest.mark.skipif(suites._usable_cpus() < 2, reason="one usable CPU runs serially")
def test_pmap_keeps_input_order_with_uneven_costs():
    # ascending costs, as in a sweep over ascending t
    costs = [0.0, 0.02, 0.05, 0.1, 0.2]

    def work(cost):
        started = time.monotonic()
        time.sleep(cost)
        return cost, os.getpid(), started

    out = _pmap(work, costs, threads=2)
    assert [cost for cost, _, _ in out] == costs
    pids = {pid for _, pid, _ in out}
    assert len(pids) == 2 and os.getpid() in pids  # the caller works too
    # the two costliest points are taken first
    assert {cost for cost, _, _ in sorted(out, key=lambda r: r[2])[:2]} == {0.1, 0.2}
    assert multiprocessing.active_children() == []


def test_pmap_worker_error_reaches_caller():
    def work(x):
        if x == 2:
            raise ValueError(f"no value at item {x}")
        return x

    with pytest.raises(ValueError, match="no value at item 2"):
        _pmap(work, [0, 1, 2, 3], threads=2)
    assert multiprocessing.active_children() == []


def test_pmap_takes_each_item_once():
    # many tiny items contend for the shared counter; an index taken twice
    # or skipped leaves the count of results wrong, which _pmap raises on
    out = _pmap(lambda x: (x, os.getpid()), range(2000), threads=8)
    assert [x for x, _ in out] == list(range(2000))
    assert len({pid for _, pid in out}) <= suites._usable_cpus()


@pytest.mark.skipif(suites._usable_cpus() < 2, reason="one usable CPU runs serially")
def test_pmap_worker_death_raises():
    caller = os.getpid()

    def work(x):
        if os.getpid() != caller:
            os._exit(3)
        time.sleep(0.02)
        return x

    with pytest.raises(RuntimeError, match="worker process died"):
        _pmap(work, list(range(6)), threads=2)
    assert multiprocessing.active_children() == []


def test_pmap_serial_path():
    assert _pmap(lambda x: x * x, [3, 1, 2], threads=1) == [9, 1, 4]


def test_run_suite_merges_options_once_and_runners_take_no_config(monkeypatch):
    # every runner takes (meta, merged defaults, threads), and run_suite is the
    # one place that merges: determinism's relation-3.4 probe merges nothing
    assert all(list(inspect.signature(r).parameters) == ["meta", "d", "threads"]
               for r in suites._RUNNERS.values())
    merges, calls = [], []
    resolve = suites._resolve_defaults

    def counted(config, meta):
        merges.append(meta["claim_id"])
        return resolve(config, meta)

    monkeypatch.setattr(suites, "_resolve_defaults", counted)
    for suite, runner in list(suites._RUNNERS.items()):
        def checked(*args, suite=suite, runner=runner):
            assert not any(isinstance(a, ExperimentConfig) for a in args)
            calls.append(suite)
            return runner(*args)
        monkeypatch.setitem(suites._RUNNERS, suite, checked)
        monkeypatch.setattr(suites, runner.__name__, checked)
    records = run_suite(ExperimentConfig(suite="determinism"))
    assert all(r.passed() for r in records)
    assert merges == ["determinism"]
    assert calls == ["determinism", "relation-3.4", "relation-3.4"]


@pytest.mark.parametrize("threads", [0, -3])
def test_run_suite_rejects_threads_below_one(threads, monkeypatch):
    # refused before the runner starts
    monkeypatch.setitem(suites._RUNNERS, "relation-3.4", None)
    with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
        run_suite(ExperimentConfig(suite="relation-3.4", threads=threads))


def test_lemma_52_records_identical_across_threads():
    # the J2 quadrature keeps no shared state, so no worker can perturb it;
    # with mpmath.quad, whose shared context the first run on a thread pool
    # raced on, the artifacts differed in about half of the runs
    def artifact(threads):
        return records_to_json(run_suite(ExperimentConfig(suite="lemma-5.2", threads=threads)))

    two = artifact(2)
    assert artifact(1) == two and artifact(2) == two


# bound-5gh's record as the one-by-one checker wrote it: float.hex of sigma,
# rows (param1), cols (param2), lhs (value and magnitude), 5GH (envelope), ratio
_BOUND_5GH_RECORDS = {
    None: ("0x1.0000000000000p-2", "0x1.8000000000000p+1", "0x1.0000000000000p+2",
           "0x1.ba84e6307ff09p-2", "0x1.166059e8dfed5p+1", "0x1.96f2dd2ee7803p-3"),
    7: ("0x1.0000000000000p-2", "0x1.8000000000000p+1", "0x1.0000000000000p+1",
        "0x1.45ac92cb84604p-2", "0x1.99b85381f0b8cp+0", "0x1.96f93006faeffp-3"),
}


def _bound_5gh(seed=None, threads=1):
    return run_suite(ExperimentConfig(suite="bound-5gh", seed=seed, threads=threads))


def _assert_pinned(record, seed):
    got = (record.sigma, record.param1, record.param2, record.magnitude,
           record.envelope, record.ratio)
    assert tuple(x.hex() for x in got) == _BOUND_5GH_RECORDS[seed]
    assert record.value == complex(record.magnitude)
    assert record.t == 10000.0 and record.verdict == "pass"


def test_bound_5gh_record_pinned_and_thread_independent():
    one, two = _bound_5gh(threads=1), _bound_5gh(threads=2)
    assert records_to_json(one) == records_to_json(two)
    _assert_pinned(one[0], None)


def test_bound_5gh_record_pinned_seed_7():
    _assert_pinned(_bound_5gh(seed=7)[0], 7)


def _draw_params(rng, d):
    """All instances' (sigma, rows, cols, m_lo, n_lo), one array draw per parameter."""
    n, side = d["instances"], d["max_side"] + 1
    sg = [d["sigma_list"][i] for i in rng.integers(len(d["sigma_list"]), size=n).tolist()]
    rows, cols = rng.integers(2, side, size=n).tolist(), rng.integers(2, side, size=n).tolist()
    m_lo, n_lo = rng.integers(1, 101, size=n).tolist(), rng.integers(1, 101, size=n).tolist()
    return list(zip(sg, rows, cols, m_lo, n_lo))


def _instance(sg, rows, cols, m_lo, n_lo, x):
    """Unimodular a = e^{2 pi i x} and weights b = m**(-sg) n**(-sg) of one instance."""
    m = np.arange(m_lo, m_lo + rows, dtype=np.float64) ** (-sg)
    n = np.arange(n_lo, n_lo + cols, dtype=np.float64) ** (-sg)
    return suites._unimodular(x), np.outer(m, n)


def _one_by_one_5gh(seed, meta):
    """The instances checked one gh_bound_check call at a time, in draw order:
    every instance's parameters first, then each instance's phases."""
    rng = np.random.default_rng(seed)
    failures, worst, worst_case = 0, 0.0, None
    for sg, rows, cols, m_lo, n_lo in _draw_params(rng, meta["defaults"]):
        a, b = _instance(sg, rows, cols, m_lo, n_lo, rng.random((rows, cols)))
        chk = gh_bound_check(a[None], b[None])  # a stack of one
        lhs, bound = chk.lhs[0], chk.bound[0]
        failures += (not chk.holds[0]) + (not chk.sign_conditions_ok[0])
        if lhs / bound > worst:
            worst, worst_case = lhs / bound, (sg, rows, cols, lhs, bound)
    return failures, worst, worst_case


def test_bound_5gh_phases_one_call_equal_per_instance_calls():
    # a double takes one 64-bit output whatever the integer draws before it
    # left over, so one call into a buffer gives each instance's phases in
    # turn; an odd count of 32-bit integer draws (5 * 701) leaves half an
    # output cached, an even one (5 * 700) none
    for instances, cached in ((700, 0), (701, 1)):
        d = dict(load_manifest()["bound-5gh"]["defaults"], instances=instances)
        one, each = np.random.default_rng(11), np.random.default_rng(11)
        params = _draw_params(one, d)
        assert params == _draw_params(each, d)
        state = one.bit_generator.state
        assert state["has_uint32"] == cached
        sizes = [rows * cols for _, rows, cols, _, _ in params]
        n = sum(sizes)
        buf = np.full(n + 5, -1.0)
        one.random(out=buf[:n])
        per = [each.random((rows, cols)).ravel() for _, rows, cols, _, _ in params]
        assert np.array_equal(buf[:n], np.concatenate(per)) and (buf[n:] == -1.0).all()
        assert one.random() == each.random()
        # so a generator set to the state after the integer draws and jumped
        # ahead by off[k] draws instance k's phases, as a bound-5gh chunk does
        off = np.concatenate(([0], np.cumsum(sizes)))
        for k in (0, 1, 333, instances - 1):
            bits = np.random.PCG64()
            bits.state = state
            jumped = np.random.default_rng(bits.advance(int(off[k])))
            assert np.array_equal(jumped.random(sizes[k]), buf[off[k]:off[k + 1]])


@pytest.mark.parametrize("chunk,stack", [(512, 32), (37, 5), (1, 1)])
def test_bound_5gh_stacks_match_one_by_one(monkeypatch, chunk, stack):
    monkeypatch.setattr(suites, "_GH_CHUNK", chunk)
    monkeypatch.setattr(suites, "_GH_STACK", stack)
    meta = dict(load_manifest()["bound-5gh"], claim_id="bound-5gh")
    meta["defaults"] = dict(meta["defaults"], instances=1500)
    for seed in (1, 5):
        rec, = suites._run_bound_5gh(meta, dict(meta["defaults"], seed=seed), 1)
        failures, worst, (sg, rows, cols, lhs, bound) = _one_by_one_5gh(seed, meta)
        assert failures == 0 and rec.verdict == "pass"
        assert (rec.sigma, rec.param1, rec.param2) == (sg, rows, cols)
        assert (rec.magnitude, rec.envelope, rec.ratio) == (lhs, bound, worst)


def test_bound_5gh_stack_keeps_instance_bits():
    rng = np.random.default_rng(2)
    draws = []
    for _ in range(9):
        rows, cols = (int(v) for v in rng.integers(2, 21, size=2))
        draws.append((float(rng.choice([0.25, 0.5, 0.75])), rows, cols,
                      int(rng.integers(1, 101)), int(rng.integers(1, 101)),
                      rng.random((rows, cols))))
    sa, sb = suites._gh_stack(draws, 20, 20)
    for k, draw in enumerate(draws):
        a, b = _instance(*draw)
        rows, cols = draw[1], draw[2]
        assert np.array_equal(sa[k, :rows, :cols], a) and not sa[k, rows:].any()
        assert not sa[k, :, cols:].any()
        assert np.array_equal(sb[k, :rows, :cols], b)
        assert (sb[k, rows:] == sb[k, rows - 1]).all()
        assert (sb[k, :, cols:] == sb[k, :, cols - 1:cols]).all()


def test_unimodular_matches_expjpi():
    edges = [0.0, 2.0**-60, 0.125, 0.25, 0.5, 0.75, 1.0 - 2.0**-53]
    x = np.concatenate([np.random.default_rng(3).random(10_000), edges])
    a = suites._unimodular(x)
    assert a.dtype == np.complex128 and a.shape == x.shape
    with mpmath.workdps(40):
        err = max(abs(mpmath.mpc(v) - mpmath.expjpi(2 * mpmath.mpf(xi)))
                  for xi, v in zip(x.tolist(), a.tolist()))
    assert err <= 1e-15
    assert np.abs(np.abs(a) - 1.0).max() <= 5e-16
    # a stack pads with exact zeros around the unimodular entries
    draws = [(0.5, 3, 7, 1, 1, x[:21].reshape(3, 7)), (0.5, 10, 2, 1, 1, x[21:41].reshape(10, 2))]
    sa, _ = suites._gh_stack(draws, 10, 10)
    assert np.array_equal(sa[0, :3, :7], a[:21].reshape(3, 7))
    assert np.count_nonzero(sa) == 41 and math.isfinite(abs(sa).sum())


class _CountingGenerator:
    """A Generator that counts the calls made to each of its methods."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)
        if not callable(method):   # bit_generator
            return method

        def counted(*args, **kwargs):
            self._calls[name] = self._calls.get(name, 0) + 1
            return method(*args, **kwargs)
        return counted


def test_bound_5gh_generator_calls(monkeypatch):
    # five array draws of the parameters on the seeded generator, then one
    # draw of each chunk's phases on a generator jumped ahead for that chunk
    seeded, chunks = {}, []
    default_rng = np.random.default_rng

    def counting(seed):
        if isinstance(seed, np.random.BitGenerator):
            chunks.append({})
            return _CountingGenerator(default_rng(seed), chunks[-1])
        return _CountingGenerator(default_rng(seed), seeded)

    monkeypatch.setattr(np.random, "default_rng", counting)
    assert _bound_5gh()[0].verdict == "pass"
    assert seeded == {"integers": 5}
    assert chunks == [{"random": 1}] * 20   # ceil(10^4 / _GH_CHUNK) chunks


def test_bound_5gh_peak_allocation():
    # one chunk's phases (about 3 MB, freed with the chunk) and its stacks; drawing
    # all 10^4 instances before checking them would hold about 54 MB of phases
    tracemalloc.start()
    try:
        _bound_5gh()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_nudged_eta_is_taken_by_e_term():
    # identity-2.7's eta2 = sqrt(t)/2 at 2 pi k + off: the nudged eta lies
    # farther than ETA_DIST_EPS from 2 pi Z, where e_term takes it
    for off in (0.0, 0.05, -0.05, 0.09, -0.09, 0.1, -0.1):
        for k in range(8, 80):
            t = (2.0 * (2.0 * math.pi * k + off)) ** 2
            eta = nudge_eta(math.sqrt(t) / 2.0)
            assert _dist_to_2pi_grid(eta) > ETA_DIST_EPS, (k, off)
            e_term(0.5, t, eta)


# SHA-256 of each suite's JSON artifact at threads=2 (NumPy 2.4, x86-64): a
# change to the runners that moves one bit of one record shows here
_ARTIFACT_SHA256 = {
    "appendix-a": "c2d3a0e3a902e206ab7fbe0d7a6e81428f1a48366ac36593e01cf63d9867969a",
    "bound-5gh": "d9c0e6bcf050a83b13e742deb59ef0441f751bd989e964b3030b1eb6bf23d954",
    "chi-checks": "4f144225dc69f6fee57012df79919a6b6ea8926ac686806f52b12c89f44370de",
    "decomp-5.3": "b790ffa4dc99451da58145b63f037b860b91689b8111ff83186562e11c7f9fdf",
    "determinism": "b3d5ca16f47a446c42fea4caa46db2932daad52397c30e2dbd6bf82f50f07d76",
    "est-2.13": "35ed061ad7ee7c3d18aacebb3a0f8a68b7a1dbd670770a906c700f88bfd4690c",
    "est-2.5": "342ddb0b78df69ff98558ee754c1717dd0f637cc4f7e4ce04effc2bea2030f61",
    "identity-2.6": "39a9a47b7b831ff969d98f7240b5c17ebfa807cad18709bcd17efd0a2bacd57f",
    "identity-2.7": "3cce2a308f733b73e7b2a80b5db645bae8299730a2229a0a402010174bf69924",
    "identity-3.12": "39edb5cb426d170775ee25c3a9adedb0f1bccc0ea4e1435c22b4ad4d57581af9",
    "lemma-2.3": "15d036a9a7633514698e7f46def33af27c224973b3967661cdc33a317d2cdbfc",
    "lemma-4.1": "567420bff0aec6d026c651e0f6a3ad4c35c7cb86559d588f3d2aa9cd64cd59be",
    "lemma-4.2": "df4515a3b33f40f178bd0a5546d094971022a74b19a69878810cbda1ec745f30",
    "lemma-5.2": "213c73abe10cb9605387b12bb5f925dc4b68144021580897f13513f029211f00",
    "relation-3.4": "e17101f0d7679e45389e5ce68f4d9c4e30f1804507c4f53a8bd73fc045a111e0",
    "thm-5.1": "0ba65e8dcf705f373d15604c8efd859f9461383753e342659a75dafcc6945c90",
    "thm-5.3": "e677436c5808992970b6b5699aa6ab75ce54aa492679673cdd49eb53ebdfa0dd",
}


@pytest.mark.parametrize("suite", sorted(_ARTIFACT_SHA256))
def test_artifact_pinned(suite):
    text = records_to_json(run_suite(ExperimentConfig(suite=suite, threads=2)))
    assert hashlib.sha256(text.encode()).hexdigest() == _ARTIFACT_SHA256[suite]


@pytest.mark.parametrize("suite", ["identity-2.6", "lemma-2.3", "determinism",
                                   "identity-3.12"])
def test_sigma_batched_artifact_thread_independent(suite):
    # one pool job per t point with all its sigmas, or per drawn point of
    # determinism and identity-3.12, at either thread count
    text = records_to_json(run_suite(ExperimentConfig(suite=suite, threads=1)))
    assert hashlib.sha256(text.encode()).hexdigest() == _ARTIFACT_SHA256[suite]


def test_every_suite_pinned():
    assert sorted(_ARTIFACT_SHA256) == registered_suites()
