"""Named experiment suites keyed to claim ids.

The registry itself is data (claims.json); each entry carries an anchor
string and the default parameters of its sweep.  A run first merges the
configuration into those defaults (`_resolve_defaults`): a suite takes an
override only where its manifest holds that default and refuses any other.
Runners then turn the merged parameters into a flat list of ClaimRecord rows
that the CLI serializes, mostly through a few shared shapes: a row checked
against a fixed tolerance (`_exact`), a growth-exponent sweep (`_growth`)
and a bound by one frozen constant (`_frozen_bound`).  Adding a sweep means
adding a manifest entry plus a runner; the evaluators stay untouched.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from importlib import resources
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from . import golden
from .asymptotics import (chi_asymptotic, chi_exact, fl_identity_residuals,
                          fr_identity_residual, functional_equation_residual)
from .doublesums import (Strategy, grid_double_sum, lemma32_identity_residual,
                         relation_36_check, s4_a_sum, s4_b_sum,
                         s5_1_sum, s5_2_sum, s5_decomposition_residual,
                         tail_double_sum)
from .estlab import (SampleSeries, Verdict, fit_growth_exponent,
                     gh_bound_check, j2_integral, log_grid)
from .phases import single_sum
from .specs import PhaseKind, SumSpec

NAN = math.nan


class UnknownSuiteError(ValueError):
    """Raised for a suite id missing from the registry; lists valid ids."""


class RefusedOptionError(ValueError):
    """Raised for an override the suite has no use for; names the option."""


@dataclass(frozen=True)
class ExperimentConfig:
    suite: str
    sigma_list: Optional[List[float]] = None
    t_min: Optional[float] = None
    t_max: Optional[float] = None
    points: Optional[int] = None
    delta: Optional[float] = None
    delta2: Optional[float] = None
    delta3: Optional[float] = None
    threads: int = 1
    seed: Optional[int] = None


@dataclass(frozen=True)
class ClaimRecord:
    claim_id: str
    anchor: str
    sigma: float
    t: float
    param1: float
    param2: float
    value: complex
    magnitude: float
    envelope: float
    ratio: float
    slope: float
    verdict: str

    def passed(self) -> bool:
        return self.verdict == "pass"


def load_manifest() -> Dict[str, dict]:
    text = resources.files("zetasum").joinpath("claims.json").read_text()
    return json.loads(text)


def registered_suites() -> List[str]:
    return sorted(load_manifest())


def _refuse(meta: dict, what: str, why: str):
    raise RefusedOptionError(f"suite {meta['claim_id']!r} refuses {what}: {why}")


def _resolve_defaults(config: ExperimentConfig, meta: dict) -> dict:
    """The manifest defaults of ``meta`` with the overrides of ``config`` merged in.

    Each override replaces the default of its own name (``sigma_list`` is
    ``--sigma``), and ``delta2`` with ``delta3`` together replace
    ``delta_pairs``.  An override without such a default is refused.
    """
    d = dict(meta["defaults"])
    given = {k: v for k, v in vars(config).items()
             if v is not None and k not in ("suite", "threads")}
    pair = given.pop("delta2", None), given.pop("delta3", None)
    if pair != (None, None):
        if None in pair or "delta_pairs" not in d:
            _refuse(meta, "--delta2/--delta3",
                    "the two replace a delta_pairs default, and only together")
        d["delta_pairs"] = [pair]
    for key, value in given.items():
        option = "--sigma" if key == "sigma_list" else "--" + key.replace("_", "-")
        if key not in d:
            _refuse(meta, option, f"its manifest holds no {key} default")
        if value == []:
            _refuse(meta, option, "an empty list sweeps nothing")
        d[key] = list(value) if key == "sigma_list" else value
    return d


def _one_sigma(meta: dict, d: dict) -> float:
    """The single sigma of a suite that freezes one golden constant for it."""
    if len(d["sigma_list"]) != 1:
        _refuse(meta, "more than one --sigma", "it freezes one constant for one sigma")
    return d["sigma_list"][0]


def _t_grid(d: dict) -> List[float]:
    return log_grid(d["t_min"], d["t_max"], d["points"])


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pmap(fn: Callable, items: Sequence, threads: int) -> list:
    """Order-preserving map, optionally across forked worker processes.

    With threads > 1 and more than one item it runs on up to ``threads``
    processes, no more than the items or the usable CPUs: the caller and
    forked workers, which inherit ``fn`` and ``items`` at fork, so closures
    need no pickling; only the results travel back.  Two threads cannot do
    this job: the GIL changes hands between the kernel's NumPy calls of
    about 15 us each.  Sweeps list their grid points in ascending t, so the
    processes take them last first, one at a time: the costliest point
    starts at once instead of setting the wall time by starting last.  The
    caller works too, in its warm heap, so a map of a few small items costs
    about one fork.  Every value is computed by the same code in whichever
    process, so results keep their bits.  With one usable CPU, or without
    fork, the map runs serially.  Forking is safe only from a process with
    one thread, so a library caller should pass threads > 1 from its main
    thread alone.  An exception raised for any item reaches the caller, and
    every worker is reaped before this returns or raises.
    """
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    import multiprocessing
    from multiprocessing.connection import wait
    workers = min(threads, len(items), _usable_cpus()) - 1
    if workers < 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(x) for x in items]
    ctx = multiprocessing.get_context("fork")
    left = ctx.Value("q", len(items))  # items not yet taken

    def take() -> int:
        with left.get_lock():
            left.value -= 1
            return left.value

    def work(conn) -> None:
        while (i := take()) >= 0:
            try:
                conn.send((i, True, fn(items[i])))
            except Exception as exc:  # sent to the caller, which raises it
                conn.send((i, False, exc))
                return

    out, done, conns, procs = [None] * len(items), 0, [], []
    try:
        for _ in range(workers):
            reader, writer = ctx.Pipe(duplex=False)
            conns.append(reader)
            proc = ctx.Process(target=work, args=(writer,))
            proc.start()
            procs.append(proc)
            writer.close()
        while (i := take()) >= 0:
            out[i], done = fn(items[i]), done + 1
        while conns:
            for conn in wait(conns):
                try:
                    i, ok, value = conn.recv()
                except EOFError:  # the worker has exited
                    conns.remove(conn)
                    conn.close()
                    continue
                if not ok:
                    raise value
                out[i], done = value, done + 1
        if done != len(items):
            raise RuntimeError("a worker process died before sending all its results")
    finally:
        for conn in conns:
            conn.close()
        for p in procs:
            p.terminate()
        for p in procs:
            p.join()
    return out


# ---------------------------------------------------------------------------
# record shapes
# ---------------------------------------------------------------------------


def _record(meta, ok, *, value, magnitude, envelope, ratio=NAN, sigma=NAN,
            t=NAN, param1=NAN, param2=NAN, slope=NAN) -> ClaimRecord:
    """One row of the suite ``meta``, passing when ``ok``."""
    return ClaimRecord(meta["claim_id"], meta["anchor"], sigma, t, param1, param2,
                       value, magnitude, envelope, ratio, slope,
                       "pass" if ok else "fail")


def _exact(meta, rel, tol, ok=True, **fields) -> ClaimRecord:
    """A row checked against a fixed tolerance: passes when ``ok`` and rel <= tol.

    Its ratio is rel / tol; magnitude and envelope default to rel and tol.
    """
    fields.setdefault("magnitude", rel)
    fields.setdefault("envelope", tol)
    return _record(meta, ok and rel <= tol, ratio=rel / tol, **fields)


def _sweep(config, d, evaluate) -> List[tuple]:
    """Per s in sigma_list, the values at (s, t) over the t grid.

    evaluate(sigmas, t) gives the values at one t for every sigma in order,
    so each pool job is one t point with all its sigmas.
    """
    rows = _pmap(lambda t: evaluate(d["sigma_list"], t), _t_grid(d), config.threads)
    return list(zip(*rows))


def _growth(config, meta, d, evaluate, params=(NAN, NAN)) -> List[ClaimRecord]:
    """Growth exponent of |value| over the t grid, per s in sigma_list, with
    the values from _sweep(config, d, evaluate).

    With alpha, tol, k the claimed_exponent, tolerance and ln_power, a sigma's
    rows share the verdict slope <= alpha + tol and report the envelope
    t**(alpha + tol) (ln t)**k C, C the fit's max-ratio constant.
    """
    ts = _t_grid(d)
    alpha, tol, k = d["claimed_exponent"], d["tolerance"], d["ln_power"]
    records = []
    for s, vals in zip(d["sigma_list"], _sweep(config, d, evaluate)):
        mags = [abs(v) for v in vals]
        fit = fit_growth_exponent(SampleSeries(meta["claim_id"], list(zip(ts, mags)),
                                               ln_power=k),
                                  claimed_exponent=alpha, tolerance=tol)
        for t, v, m in zip(ts, vals, mags):
            env = t ** (alpha + tol) * math.log(t) ** k * fit.max_ratio_constant
            records.append(_record(
                meta, fit.verdict is Verdict.PASS, sigma=s, t=t, param1=params[0],
                param2=params[1], value=v, magnitude=m, envelope=env,
                ratio=m / env if env > 0 else NAN, slope=fit.slope))
    return records


def _frozen_bound(meta, d, ts, vals, k, key, context, **fields) -> List[ClaimRecord]:
    """|value| <= C (ln t)**k, C frozen under ``key``, and a fitted slope within +-tol.

    The slope is that of |value| / (ln t)**k; tol is slope_tolerance, and C
    the largest |value| / (ln t)**k times the headroom.
    """
    tol = d["slope_tolerance"]
    mags = [abs(v) for v in vals]
    fit = fit_growth_exponent(SampleSeries(meta["claim_id"], list(zip(ts, mags)),
                                           ln_power=k),
                              claimed_exponent=0.0, tolerance=tol)
    logs = [math.log(t) ** k for t in ts]
    c = golden.freeze(key, max(m / g for m, g in zip(mags, logs)) * d["headroom"],
                      context)["constant"]
    ok = abs(fit.slope) <= tol and all(m <= c * g for m, g in zip(mags, logs))
    return [_record(meta, ok, t=t, value=v, magnitude=m, envelope=c * g,
                    ratio=m / (c * g), slope=fit.slope, **fields)
            for t, v, m, g in zip(ts, vals, mags, logs)]


# ---------------------------------------------------------------------------
# individual suite runners
# ---------------------------------------------------------------------------


def _run_identity_312(config, meta) -> List[ClaimRecord]:
    d = _resolve_defaults(config, meta)
    rng = np.random.default_rng(d["seed"])
    records = []
    for n_max in d["n_values"]:
        for _ in range(d["draws"]):
            u = complex(rng.uniform(-2, 2), rng.uniform(-50, 50))
            v = complex(rng.uniform(-2, 2), rng.uniform(-50, 50))
            res = lemma32_identity_residual(u, v, n_max)
            # scale by the product side so the residual is relative
            m = np.arange(1, n_max + 1, dtype=np.float64)
            scale = abs(np.exp(-u * np.log(m)).sum() * np.exp(-v * np.log(m)).sum())
            records.append(_exact(meta, abs(res) / max(scale, 1.0), d["tolerance"],
                                  sigma=u.real, t=float(n_max), param1=u.imag,
                                  param2=v.imag, value=res))
    return records


def _run_relation_34(config, meta) -> List[ClaimRecord]:
    d = _resolve_defaults(config, meta)

    def one(job):
        s, t = job
        rc = relation_36_check(s, t)
        return _exact(meta, rc.relative_residual, d["tolerance"], sigma=s, t=t,
                      value=rc.residual, magnitude=abs(rc.residual))

    jobs = [(s, t) for s in d["sigma_list"] for t in d["t_values"]]
    return _pmap(one, jobs, config.threads)


def _run_decomp_53(config, meta) -> List[ClaimRecord]:
    d = _resolve_defaults(config, meta)

    def one(job):
        t, d2, d3 = job
        rep = s5_decomposition_residual(0.5, t, d2, d3)
        return _exact(meta, rep.relative_residual, d["tolerance"], rep.partition_exact,
                      sigma=0.5, t=t, param1=d2, param2=d3, value=rep.residual,
                      magnitude=abs(rep.residual))

    jobs = [(t, d2, d3) for t in d["t_values"] for d2, d3 in d["delta_pairs"]]
    return _pmap(one, jobs, config.threads)


def _run_identity_26(config, meta) -> List[ClaimRecord]:
    d = _resolve_defaults(config, meta)
    ts = _t_grid(d)
    records = []
    sweep = _sweep(config, d, lambda ss, t: fl_identity_residuals(ss, t, 9.0 * math.pi * t))
    for s, rows in zip(d["sigma_list"], sweep):
        mags = [abs(r.residual) for r in rows]
        fit = fit_growth_exponent(SampleSeries(meta["claim_id"], list(zip(ts, mags)),
                                               ln_power=0),
                                  claimed_exponent=-s, tolerance=d["tolerance"])
        records += [_record(meta, fit.verdict is Verdict.PASS, sigma=s, t=t,
                            param1=9.0 * math.pi * t, value=r.residual, magnitude=m,
                            envelope=r.envelope, ratio=m / r.envelope, slope=fit.slope)
                    for t, r, m in zip(ts, rows, mags)]
    return records


def nudge_eta(eta: float, clearance: float = 0.1) -> float:
    """Push eta away from the nearest multiple of 2 pi if it sits too close."""
    k = round(eta / (2.0 * math.pi))
    dist = eta - 2.0 * math.pi * k
    if abs(dist) < clearance:
        return 2.0 * math.pi * k + (clearance if dist >= 0 else -clearance)
    return eta


def _run_identity_27(config, meta) -> List[ClaimRecord]:
    d = _resolve_defaults(config, meta)
    sigma = _one_sigma(meta, d)
    ts, empty_ts = _t_grid(d), d["empty_case_t"]
    # (t, eta1, eta2): the main case, then both etas inside (2pi, 4pi), where
    # the chi-side sum has an empty range
    cases = ([(t, math.e, nudge_eta(math.sqrt(t) / 2.0)) for t in ts]
             + [(t, 2.0 * math.pi + 0.5, 4.0 * math.pi - 0.5) for t in empty_ts])
    rows = _pmap(lambda case: fr_identity_residual(sigma, *case), cases, config.threads)
    ratios = [abs(r.residual) / r.envelope for r in rows]
    context = {"suite": meta["claim_id"], "sigma": sigma, "t_grid": ts,
               "empty_case_t": empty_ts, "eta1": "e", "eta2": "sqrt(t)/2"}
    c = golden.freeze(meta["claim_id"], max(ratios) * d["headroom"], context)["constant"]
    return [_exact(meta, ratio, c, sigma=sigma, t=t, param1=eta1, param2=eta2,
                   value=r.residual, magnitude=abs(r.residual), envelope=c * r.envelope)
            for (t, eta1, eta2), r, ratio in zip(cases, rows, ratios)]


def _run_lemma_23(config, meta) -> List[ClaimRecord]:
    d = _resolve_defaults(config, meta)
    ts = _t_grid(d)
    records = []
    sweep = _sweep(config, d,
                   lambda ss, t: single_sum(SumSpec(PhaseKind.F2, 0.0, t, 1, int(t)), ss))
    for s, vals in zip(d["sigma_list"], sweep):
        context = {"suite": meta["claim_id"], "sigma": s, "t_grid": ts}
        records += _frozen_bound(meta, d, ts, vals, 0, f"{meta['claim_id']}-sigma-{s:g}",
                                 context, sigma=s)
    return records


def _run_est_213(config, meta) -> List[ClaimRecord]:
    return _growth(config, meta, _resolve_defaults(config, meta),
                   lambda ss, t: single_sum(SumSpec(PhaseKind.F1, 0.0, t, 1, int(t)), ss))


def _run_est_25(config, meta) -> List[ClaimRecord]:
    return _growth(config, meta, _resolve_defaults(config, meta),
                   lambda ss, t: single_sum(SumSpec(PhaseKind.F3, 0.0, t, 1, int(t)), ss))


def _run_chi_checks(config, meta) -> List[ClaimRecord]:
    d = _resolve_defaults(config, meta)
    tol = d["tolerance"]
    records = []
    for t in _t_grid(d):
        s = complex(0.5, t)
        chi = chi_exact(s)
        records += [
            _exact(meta, abs(abs(chi) - 1.0), tol, sigma=0.5, t=t, param1=1.0, value=chi),
            _exact(meta, abs(chi / chi_asymptotic(s) - 1.0), 10.0 / t,
                   sigma=0.5, t=t, param1=2.0, value=chi)]
    rng = np.random.default_rng(d["seed"])
    for _ in range(d["involution_draws"]):
        sg = rng.uniform(0.05, 0.95)
        t = rng.uniform(10.0, 1e4)
        s = complex(sg, t)
        prod = chi_exact(s) * chi_exact(1.0 - s)
        records.append(_exact(meta, abs(prod - 1.0), tol, sigma=sg, t=t, param1=3.0,
                              value=prod))
    return records


def _run_appendix_a(config, meta) -> List[ClaimRecord]:
    d = _resolve_defaults(config, meta)
    tol = d["tolerance"]
    records = []
    for s in d["sigma_list"]:
        for t in d["t_values"]:
            r = functional_equation_residual(s, t)
            records.append(_exact(meta, abs(r.residual) / r.envelope, tol, sigma=s, t=t,
                                  value=r.residual, magnitude=abs(r.residual),
                                  envelope=r.envelope * tol))
    # finite-sum growth at s = sigma - 1 + it
    sg = d["slope_sigma"]
    slope = dict(d, sigma_list=[sg], claimed_exponent=1.5 - sg,
                 tolerance=d["slope_tolerance"], ln_power=0)
    return records + _growth(
        config, meta, slope,
        lambda ss, t: single_sum(SumSpec(PhaseKind.F3, 0.0, t, 1, int(t), conjugate=True),
                                 [s - 1.0 for s in ss]),
        (sg - 1.0, NAN))


def _run_thm_51(config, meta) -> List[ClaimRecord]:
    d = _resolve_defaults(config, meta)
    return _growth(config, meta, d,
                   lambda ss, t: [s5_1_sum(s, t, d["delta"]).total for s in ss])


def _run_thm_53(config, meta) -> List[ClaimRecord]:
    d = _resolve_defaults(config, meta)
    s, delta, ts = _one_sigma(meta, d), d["delta"], _t_grid(d)
    vals = _pmap(lambda t: s5_2_sum(s, t, delta).total, ts, config.threads)
    context = {"suite": meta["claim_id"], "sigma": s, "delta": delta, "t_grid": ts}
    return _frozen_bound(meta, d, ts, vals, d["ln_power"], meta["claim_id"], context,
                         sigma=s, param1=delta)


def _run_lemma_52(config, meta) -> List[ClaimRecord]:
    d = _resolve_defaults(config, meta)
    ts = _t_grid(d)
    records = []
    for sg, delta in d["pairs"]:
        def one(t):
            num, asym = j2_integral(sg, t, delta)
            rel = abs(num / asym - 1.0)
            decay = max(t ** (-2.0 * delta * (1.0 - sg)), t ** (-delta))
            return num, asym, rel, decay
        rows = _pmap(one, ts, config.threads)
        context = {"suite": meta["claim_id"], "sigma": sg, "delta": delta, "t_grid": ts}
        c = golden.freeze(f"{meta['claim_id']}-s{sg:g}-d{delta:g}",
                          max(rel / decay for _, _, rel, decay in rows) * d["headroom"],
                          context)["constant"]
        records += [_exact(meta, rel, c * decay, sigma=sg, t=t, param1=delta,
                           param2=asym, value=complex(num))
                    for t, (num, asym, rel, decay) in zip(ts, rows)]
    return records


# bound-5gh draws the five parameters of all its instances first, then each
# chunk's phases in one call into a reused buffer, and checks each chunk as
# stacks of instances whose rows and columns round up to the same multiple of
# _GH_ROUND.  A double takes one 64-bit output of the bit generator and every
# integer is drawn before it, so the instances do not depend on the chunking.
_GH_CHUNK = 512
_GH_STACK = 32
_GH_ROUND = 10


def _unimodular(x):
    """e^{2 pi i x} for an array of x as (1 - u**2 + 2iu) / (1 + u**2), u = tan(pi x).

    numpy vectorizes tan, unlike the complex exp, and the form is elementwise,
    so an instance has the same bits alone and in a stack.
    """
    u = np.tan(np.multiply(x, math.pi))
    u2 = u * u
    den = 1.0 + u2
    a = np.empty(u.shape, dtype=np.complex128)
    np.subtract(1.0, u2, out=u2)
    np.divide(u2, den, out=a.real)
    u *= 2.0
    np.divide(u, den, out=a.imag)
    return a


def _gh_instance(sg, rows, cols, m_lo, n_lo, x):
    """Unimodular a = e^{2 pi i x} and weights b = m**(-sg) n**(-sg) of one instance."""
    m = np.arange(m_lo, m_lo + rows, dtype=np.float64) ** (-sg)
    n = np.arange(n_lo, n_lo + cols, dtype=np.float64) ** (-sg)
    return _unimodular(x), np.outer(m, n)


def _gh_stack(draws, rows, cols):
    """The draws as one padded (k, rows, cols) stack for gh_bound_check."""
    sg, r, c, m_lo, n_lo = (np.array([d[i] for d in draws])[:, None] for i in range(5))
    i, j = np.arange(rows), np.arange(cols)
    x = np.zeros((len(draws), rows, cols))
    for k, d in enumerate(draws):
        x[k, :d[1], :d[2]] = d[5]
    a = _unimodular(x)
    a *= (i < r)[:, :, None] & (j < c)[:, None, :]   # the padding is 0
    # past its last row and column an instance's weights repeat them
    m = (m_lo + np.minimum(i, r - 1)) ** -sg
    n = (n_lo + np.minimum(j, c - 1)) ** -sg
    return a, m[:, :, None] * n[:, None, :]


def _run_bound_5gh(config, meta) -> List[ClaimRecord]:
    d = _resolve_defaults(config, meta)
    rng = np.random.default_rng(d["seed"])
    n_inst, side = d["instances"], d["max_side"] + 1
    sigmas = [d["sigma_list"][i]
              for i in rng.integers(len(d["sigma_list"]), size=n_inst).tolist()]
    rows, cols = rng.integers(2, side, size=n_inst), rng.integers(2, side, size=n_inst)
    m_lo, n_lo = rng.integers(1, 101, size=n_inst), rng.integers(1, 101, size=n_inst)
    # instance k's phases are cells off[k]:off[k + 1] of the phase stream
    off = np.concatenate(([0], np.cumsum(rows * cols)))
    starts = range(0, n_inst, _GH_CHUNK)
    buf = np.empty(max(off[min(s + _GH_CHUNK, n_inst)] - off[s] for s in starts))
    failures = 0   # instances breaking the bound or its sign conditions
    worst = (0.0, None)   # (stacked ratio, draw); ties keep the earliest draw
    for start in starts:
        stop, base = min(start + _GH_CHUNK, n_inst), off[start]
        rng.random(out=buf[:off[stop] - base])
        chunk = zip(sigmas[start:stop],
                    *(v[start:stop].tolist() for v in (off, rows, cols, m_lo, n_lo)))
        draws = [(sg, r, c, ml, nl, buf[o - base:o - base + r * c].reshape(r, c))
                 for sg, o, r, c, ml, nl in chunk]
        buckets: Dict[tuple, List[int]] = {}
        for k, (_, r, c, *_rest) in enumerate(draws):
            shape = (-(-r // _GH_ROUND) * _GH_ROUND, -(-c // _GH_ROUND) * _GH_ROUND)
            buckets.setdefault(shape, []).append(k)
        ratios = np.empty(len(draws))
        for shape, members in buckets.items():
            for s in range(0, len(members), _GH_STACK):
                idx = members[s:s + _GH_STACK]
                chk = gh_bound_check(*_gh_stack([draws[k] for k in idx], *shape))
                failures += int(np.count_nonzero(~(chk.holds & chk.sign_conditions_ok)))
                ratios[idx] = chk.lhs / chk.bound
        k = int(np.argmax(ratios))
        if ratios[k] > worst[0]:
            # copied out, as the next chunk's phases overwrite the buffer
            worst = (ratios[k], (*draws[k][:5], draws[k][5].copy()))
    # padding may move lhs in its last bit, so the record comes from the
    # worst instance checked on its own
    sg, r, c, *_rest = draw = worst[1]
    chk = gh_bound_check(*_gh_instance(*draw))
    return [_record(meta, failures == 0, sigma=sg,
                    t=float(n_inst), param1=float(r), param2=float(c),
                    value=complex(chk.lhs), magnitude=chk.lhs, envelope=chk.bound,
                    ratio=chk.lhs / chk.bound)]


def _run_lemma_41(config, meta) -> List[ClaimRecord]:
    d = _resolve_defaults(config, meta)
    return _growth(config, meta, dict(d, sigma_list=[d["sigma1"]]),
                   lambda ss, t: [s4_a_sum(s, d["sigma2"], t).value for s in ss],
                   (d["sigma2"], NAN))


def _run_lemma_42(config, meta) -> List[ClaimRecord]:
    d = _resolve_defaults(config, meta)
    sg = d["sigma"]
    return _growth(config, meta, dict(d, sigma_list=[sg]),
                   lambda ss, t: [s4_b_sum(s - 1.0, s, 1.0, t).total for s in ss],
                   (sg - 1.0, 1.0))


def _run_determinism(config, meta) -> List[ClaimRecord]:
    d = _resolve_defaults(config, meta)
    rng = np.random.default_rng(d["seed"])
    records = []
    for i in range(d["draws"]):
        t = float(rng.uniform(50.0, d["t_max_draw"]))
        sg = float(rng.uniform(0.1, 0.9))
        fast = grid_double_sum(sg, t).value + tail_double_sum(sg, t)
        slow = (grid_double_sum(sg, t, Strategy.BRUTE_FORCE).value
                + tail_double_sum(sg, t, Strategy.BRUTE_FORCE))
        records.append(_exact(meta, abs(fast - slow) / max(abs(slow), 1e-300),
                              d["tolerance"], sigma=sg, t=t, param1=float(i),
                              value=fast - slow))
    # the same sub-suite run serially and on up to eight processes (no more
    # than the usable CPUs) must agree exactly
    probe = ExperimentConfig(suite="relation-3.4")
    sub = dict(load_manifest()["relation-3.4"], claim_id="relation-3.4")
    one_thread = _run_relation_34(probe, sub)
    identical = repr(one_thread) == repr(_run_relation_34(replace(probe, threads=8), sub))
    records.append(_record(meta, identical, param1=1.0, param2=8.0,
                           value=complex(len(one_thread)),
                           magnitude=0.0 if identical else 1.0, envelope=0.0))
    return records


_RUNNERS: Dict[str, Callable] = {
    "identity-3.12": _run_identity_312,
    "relation-3.4": _run_relation_34,
    "decomp-5.3": _run_decomp_53,
    "identity-2.6": _run_identity_26,
    "identity-2.7": _run_identity_27,
    "lemma-2.3": _run_lemma_23,
    "est-2.13": _run_est_213,
    "est-2.5": _run_est_25,
    "chi-checks": _run_chi_checks,
    "appendix-a": _run_appendix_a,
    "thm-5.1": _run_thm_51,
    "thm-5.3": _run_thm_53,
    "lemma-5.2": _run_lemma_52,
    "bound-5gh": _run_bound_5gh,
    "lemma-4.1": _run_lemma_41,
    "lemma-4.2": _run_lemma_42,
    "determinism": _run_determinism,
}


def run_suite(config: ExperimentConfig) -> List[ClaimRecord]:
    if config.threads < 1:
        raise ValueError(f"threads must be at least 1, got {config.threads}")
    manifest = load_manifest()
    if config.suite not in manifest:
        raise UnknownSuiteError(
            f"unknown suite {config.suite!r}; registered suites: "
            + ", ".join(sorted(manifest)))
    meta = dict(manifest[config.suite], claim_id=config.suite)
    return _RUNNERS[config.suite](config, meta)
