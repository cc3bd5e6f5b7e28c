"""Regenerate perfbench/references.json, the reference values for min_correct_digits.

Run from the repository root (takes a few minutes on two cores):

    python3 perfbench/make_references.py

Every reference is computed in mpmath without zetasum.phases or
zetasum.doublesums:

- F3 sums over [1, N] (est-2.5, appendix-a growth rows): zeta(s) - zeta(s, N+1);
- identity-2.6 residuals: zeta(s, lo) - zeta(s, hi+1) minus the closed form;
- F1/F2 sums (est-2.13, lemma-2.3): zetasum.kernel.oracle_recompute, term by
  term at 36 digits, at the grid points with at most ORACLE_MAX_T terms;
- coupled double sums (thm-5.3, thm-5.1, lemma-4.1, lemma-4.2): a literal
  mpmath double sum at the smallest grid point of each suite.

chi-checks references depend on the seed and are computed at run time
(checks.chi_reference).  Each entry is keyed exactly like the record it
certifies (checks.record_key).
"""

from __future__ import annotations

import json
import math
import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import mpmath as mp
import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "references.json"
DPS = 30
ORACLE_MAX_T = 1.0e6

sys.path.insert(0, str(HERE))
from checks import record_key  # noqa: E402


def _grid(d: dict) -> list:
    return [float(t) for t in np.geomspace(d["t_min"], d["t_max"], d["points"])]


def _partial_zeta(s, n_max: int):
    """sum_{n=1}^{n_max} n**(-s)."""
    return mp.zeta(s) - mp.zeta(s, n_max + 1)


def f3_prefix(sigma_re: float, t_im: float, n_max: int):
    with mp.workdps(DPS):
        return _partial_zeta(mp.mpc(sigma_re, t_im), n_max)


def identity_26_residual(sigma: float, t: float, eta: float):
    lo, hi = int(t) + 1, int(eta / (2.0 * math.pi))
    with mp.workdps(DPS):
        s = mp.mpc(sigma, t)
        window = mp.zeta(s, lo) - mp.zeta(s, hi + 1)
        x = mp.mpf(eta) / (2 * mp.pi)
        return window - mp.power(x, 1 - s) / (1 - s)


def oracle_sum(phase: str, sigma: float, t: float):
    sys.path.insert(0, str(ROOT / "src"))
    from zetasum.kernel import oracle_recompute
    from zetasum.specs import PhaseKind, SumSpec
    r = oracle_recompute(SumSpec(PhaseKind[phase], sigma, t, 1, int(t)))
    return mp.mpc(r.re, r.im)


def _powers(exponent, n_max: int) -> list:
    """[0, 1**(-exponent), ..., n_max**(-exponent)] in mpmath."""
    return [mp.mpc(0)] + [mp.power(n, -exponent) for n in range(1, n_max + 1)]


def thm_53_sum(sigma: float, t: float, delta: float):
    """sum_{m=[t^(1-d)]}^{[t]} sum_{n=m+1}^{[m(1+t^(d-1))]} m**(-s) n**(-sbar)."""
    big_t, m_lo, tau = int(t), int(t ** (1.0 - delta)), t ** (delta - 1.0)
    his = {m: int(m * (1.0 + tau)) for m in range(m_lo, big_t + 1)}
    with mp.workdps(DPS):
        s = mp.mpc(sigma, t)
        inner = _powers(mp.conj(s), max(his.values()))
        total = mp.mpc(0)
        for m, hi in his.items():
            total += mp.power(m, -s) * mp.fsum(inner[m + 1 : hi + 1])
        return total


def thm_51_sum(sigma: float, t: float, delta: float):
    """sum_{m<=[t^d]} sum_{n=[t^(1-d) m]+1}^{[t]+m} m**(-s) n**(-sbar)."""
    big_t, m_max = int(t), int(t**delta)
    with mp.workdps(DPS):
        s = mp.mpc(sigma, t)
        inner = _powers(mp.conj(s), big_t + m_max)
        total = mp.mpc(0)
        for m in range(1, m_max + 1):
            lo = min(int(t ** (1.0 - delta) * m), big_t) + 1
            total += mp.power(m, -s) * mp.fsum(inner[lo : big_t + m + 1])
        return total


def lemma_41_sum(sigma1: float, sigma2: float, t: float):
    """sum_{m1,m2<=[t]} (m1+m2)**(-sigma1-it) m2**(-sigma2+it)."""
    big_t = int(t)
    with mp.workdps(DPS):
        inner = _powers(mp.mpc(sigma1, t), 2 * big_t)
        total = mp.mpc(0)
        for m2 in range(1, big_t + 1):
            total += mp.power(m2, -mp.mpc(sigma2, -t)) * mp.fsum(inner[m2 + 1 : m2 + big_t + 1])
        return total


def lemma_42_sum(sigma1: float, sigma2: float, sigma3: float, t: float):
    """sum_{m1,m2<=[t]} (m1+m2)**(-sigma1-it) m2**(-sigma2+it) m1**(-sigma3)."""
    big_t = int(t)
    with mp.workdps(DPS):
        c = _powers(mp.mpc(sigma1, t), 2 * big_t)
        b = _powers(mp.mpc(sigma2, -t), big_t)
        total = mp.mpc(0)
        for m1 in range(1, big_t + 1):
            row = mp.fsum(b[m2] * c[m1 + m2] for m2 in range(1, big_t + 1))
            total += mp.power(m1, -sigma3) * row
        return total


def jobs(manifest: dict) -> list:
    """(key, method, function, args) for every stored reference."""
    nan = math.nan
    out = []
    d = manifest["est-2.5"]["defaults"]
    for s in d["sigma_list"]:
        for t in _grid(d):  # nsum_power(s, t, 1, [t], minus_it=False): n**(-(s - it))
            out.append((record_key("est-2.5", s, t, nan), "zeta-hurwitz",
                        f3_prefix, (s, -t, int(t))))
    d = manifest["appendix-a"]["defaults"]
    sg = d["slope_sigma"]
    for t in _grid(d):  # nsum_power(sg - 1, t, 1, [t], minus_it=True)
        out.append((record_key("appendix-a", sg, t, sg - 1.0), "zeta-hurwitz",
                    f3_prefix, (sg - 1.0, t, int(t))))
    d = manifest["identity-2.6"]["defaults"]
    for s in d["sigma_list"]:
        for t in _grid(d):
            eta = 9.0 * math.pi * t
            out.append((record_key("identity-2.6", s, t, eta), "hurwitz-window",
                        identity_26_residual, (s, t, eta)))
    for suite, phase in (("est-2.13", "F1"), ("lemma-2.3", "F2")):
        d = manifest[suite]["defaults"]
        for s in d["sigma_list"]:
            for t in _grid(d):
                if t <= ORACLE_MAX_T:
                    out.append((record_key(suite, s, t, nan), "oracle",
                                oracle_sum, (phase, s, t)))
    d = manifest["thm-5.3"]["defaults"]
    s, t = d["sigma_list"][0], _grid(d)[0]
    out.append((record_key("thm-5.3", s, t, d["delta"]), "mp-double-sum",
                thm_53_sum, (s, t, d["delta"])))
    d = manifest["thm-5.1"]["defaults"]
    s, t = d["sigma_list"][0], _grid(d)[0]
    out.append((record_key("thm-5.1", s, t, nan), "mp-double-sum",
                thm_51_sum, (s, t, d["delta"])))
    d = manifest["lemma-4.1"]["defaults"]
    t = _grid(d)[0]
    out.append((record_key("lemma-4.1", d["sigma1"], t, d["sigma2"]), "mp-double-sum",
                lemma_41_sum, (d["sigma1"], d["sigma2"], t)))
    d = manifest["lemma-4.2"]["defaults"]
    sg, t = d["sigma"], _grid(d)[0]
    out.append((record_key("lemma-4.2", sg, t, sg - 1.0), "mp-double-sum",
                lemma_42_sum, (sg - 1.0, sg, 1.0, t)))
    return out


def _run(job):
    key, method, fn, args = job
    start = time.perf_counter()
    v = fn(*args)
    return {"key": key, "method": method, "re": float(v.real), "im": float(v.imag),
            "seconds": round(time.perf_counter() - start, 2)}


def main() -> int:
    manifest = json.loads((ROOT / "src" / "zetasum" / "claims.json").read_text())
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
        rows = list(pool.map(_run, jobs(manifest)))
    for r in rows:
        print(f"{r['key']}: {r['method']} {r['seconds']} s", file=sys.stderr)
    rows.sort(key=lambda r: r["key"])
    payload = {"dps": DPS, "oracle_max_t": ORACLE_MAX_T,
               "references": [{k: r[k] for k in ("key", "method", "re", "im")} for r in rows]}
    OUT.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(rows)} references to {OUT.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
