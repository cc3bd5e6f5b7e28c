"""Correctness accounting for the benchmark: operations, golden events, digits.

An operation is one claim record of one round of a pass.  A record fails on
a `fail` verdict, on a value that is not finite or a JSON round-trip mismatch
(both found by the child), or when its artifact differs from the first
`--threads 1` one.  A suite that raises or writes no artifact is one failed
operation; every golden constant created or rewritten is one more.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

import mpmath as mp

# -log10 of a relative error of zero is infinite; report the float64 limit.
MAX_DIGITS = 17.0
CHI_DPS = 30


def record_key(claim_id: str, sigma: float, t: float, param1: float) -> str:
    """Exact identity of a record on its grid (floats by repr, NaN as 'nan')."""
    return f"{claim_id}|{float(sigma)!r}|{float(t)!r}|{float(param1)!r}"


def snapshot_dir(path: Path) -> Dict[str, Tuple[int, str]]:
    """name -> (mtime_ns, sha256) for every file directly under path."""
    if not path.is_dir():
        return {}
    return {p.name: (p.stat().st_mtime_ns, hashlib.sha256(p.read_bytes()).hexdigest())
            for p in sorted(path.iterdir()) if p.is_file()}


def golden_events(before: Dict[str, Tuple[int, str]],
                  after: Dict[str, Tuple[int, str]]) -> Dict[str, List[str]]:
    """Constants created, rewritten (touched or changed) and removed."""
    return {"created": sorted(set(after) - set(before)),
            "rewritten": sorted(n for n in set(after) & set(before) if after[n] != before[n]),
            "removed": sorted(set(before) - set(after))}


def correct_digits(value: complex, reference: complex) -> float:
    """-log10(|value - reference| / |reference|), within [0, MAX_DIGITS].

    A value that is not finite has no correct digits.
    """
    err = abs(value - reference)
    if not math.isfinite(err):
        return 0.0
    if err == 0.0:
        return MAX_DIGITS
    return max(0.0, min(MAX_DIGITS, -math.log10(err / abs(reference))))


def chi_reference(sigma: float, t: float) -> complex:
    """chi(s) = (2 pi)^s / pi * sin(pi s / 2) * Gamma(1 - s) through mpmath loggamma."""
    with mp.workdps(CHI_DPS):
        s = mp.mpc(sigma, t)
        log_chi = (s * mp.log(2 * mp.pi) - mp.log(mp.pi) + mp.log(mp.sin(mp.pi * s / 2))
                   + mp.loggamma(1 - s))
        return complex(mp.exp(log_chi))


def load_references(path: Path) -> Dict[str, complex]:
    rows = json.loads(path.read_text())["references"]
    return {r["key"]: complex(r["re"], r["im"]) for r in rows}


def _record_value(d: dict) -> complex:
    return complex(d["value"]["re"], d["value"]["im"])


def certified_digits(records: Iterable[dict], references: Dict[str, complex]
                     ) -> Dict[str, float]:
    """Correct digits of every record that has an independent reference.

    chi-checks rows are certified at run time because their involution
    draws depend on the seed: rows 1 and 2 carry chi(1/2 + it), row 3 the
    product chi(s) chi(1 - s), whose exact value is 1.
    """
    out = {}
    for d in records:
        key = record_key(d["claim_id"], d["sigma"], d["t"], d["param1"])
        if key in references:
            ref = references[key]
        elif d["claim_id"] == "chi-checks" and d["param1"] in (1.0, 2.0):
            ref = chi_reference(d["sigma"], d["t"])
        elif d["claim_id"] == "chi-checks" and d["param1"] == 3.0:
            ref = 1.0 + 0j
        else:
            continue
        out[key] = correct_digits(_record_value(d), ref)
    return out


class Ledger:
    """Attempted and failed operations of one run, with a note per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, count: int, why: str, attempted: bool = False) -> None:
        """Count failed operations; attempted=True when they are extra operations."""
        if count <= 0:
            return
        self.failed += count
        if attempted:
            self.attempted += count
        self.problems.append(f"{count} x {why}")

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def score_pass(ledger: Ledger, result: dict, label: str) -> Dict[str, set]:
    """Add one child pass to the ledger; return artifact -> indices of failed records."""
    bad = {}
    for s in result["suites"]:
        if s["records"] is None:
            ledger.fail(1, f"{label} {s['suite']}: {s['error']}", attempted=True)
            continue
        ledger.attempted += s["records"]
        verdicts, nonfinite = set(s["fail_verdicts"]), set(s["nonfinite"])
        ledger.fail(len(verdicts), f"{label} {s['suite']}: fail verdict")
        ledger.fail(len(nonfinite - verdicts), f"{label} {s['suite']}: value not finite")
        ledger.fail(len(set(s["roundtrip_bad"]) - verdicts - nonfinite),
                    f"{label} {s['suite']}: JSON round-trip mismatch")
        bad[s["artifact"]] = verdicts | nonfinite | set(s["roundtrip_bad"])
    for event in ("created", "rewritten", "removed"):
        names = result["golden"][event]
        ledger.fail(len(names), f"{label} golden constant {event}: {', '.join(names)}",
                    attempted=True)
    return bad


def score_mismatch(ledger: Ledger, suite: str, text_a: Optional[str],
                   text_b: Optional[str], bad_b: set, label: str) -> None:
    """Count records of artifact b that differ from artifact a (same suite)."""
    if text_a is None or text_b is None or text_a == text_b:
        return
    rows_a, rows_b = json.loads(text_a), json.loads(text_b)
    differing = 0
    for i in range(max(len(rows_a), len(rows_b))):
        if i >= len(rows_b):
            ledger.fail(1, f"{label} {suite}: record {i} missing", attempted=True)
        elif (i >= len(rows_a) or json.dumps(rows_a[i]) != json.dumps(rows_b[i])) \
                and i not in bad_b:
            bad_b.add(i)
            differing += 1
    ledger.fail(differing, f"{label} {suite}: artifact differs from --threads 1")


def tree_digest(path: Path) -> str:
    """Hash of every file under path (names and bytes)."""
    h = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(path)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()
