"""Output checks run on every benchmark request, outside the timed region.

Each check returns a list of problems; an empty list means the output is
correct.  Expected values come from closed forms and from the counts and
probabilities the paper pins, never from the program under test.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import sqrt

PT_TOL = 1e-10
SIGMAS = 5.0

# Lowered two-qubit counts the paper pins for the 5-qubit (3,2)
# ancilla-relphase variants, keyed by (family, n, style, fused).
PINNED_TWOQ = {
    ("grover", 5, "ancilla-relphase", False): 36,
    ("drzewker", 5, "ancilla-relphase", False): 44,
    ("wojter", 5, "ancilla-relphase", True): 25,
    ("wojter", 5, "ancilla-relphase", False): 51,
    ("wojter-aa", 5, "ancilla-relphase", False): 81,
}

# Exact p_t of the families without a closed form, for the (3,2) partition
# at n=5 and for the n=4 wielomianer circuit; every mask gives the same value.
PINNED_PT = {
    ("wojter", 5): Fraction(25, 32),
    ("drzewker", 5): Fraction(289, 512),
    ("wojter-aa", 5): Fraction(7921, 8192),
    ("partial-drzewker", 5): Fraction(169, 512),
    ("wielomianer", 4): Fraction(13, 16),
}

_BUILD_LINE = re.compile(r"^circuit_\S+?_([01]+)\.qasm: two_qubit_count=(\d+)\b")


def grover_pt(n: int) -> float:
    """One-iteration Grover success probability (3 - 4/N)^2 / N."""
    big_n = 2 ** n
    return (3 - 4 / big_n) ** 2 / big_n


def partial_pt(n: int, k: int) -> float:
    """Partial-diffuser success probability (3 - 2^(2-k))^2 / 2^n."""
    return (3 - 2.0 ** (2 - k)) ** 2 / 2 ** n


def expected_pt(row) -> float | None:
    if row.family == "grover":
        return grover_pt(row.n)
    if row.family == "partial":
        return partial_pt(row.n, row.diffuser_size)
    pinned = PINNED_PT.get((row.family, row.n))
    return float(pinned) if pinned is not None else None


def pinned_twoq(row) -> int | None:
    return PINNED_TWOQ.get((row.family, row.n, row.style, row.fused))


def binom_sigma(p: float, shots: int) -> float:
    return sqrt(max(p * (1.0 - p), 0.0) / shots)


def check_run_report(row, masks: list[str], report: dict) -> list[str]:
    """Check a `qsearch run` report against closed forms, pins and sampling bounds."""
    problems = []
    rows = report.get("oracles", [])
    if [r.get("mask") for r in rows] != masks:
        return [f"oracle masks {[r.get('mask') for r in rows][:4]}... != requested"]
    pt_want = expected_pt(row)
    twoq_want = pinned_twoq(row)
    twoq = (report.get("census") or {}).get("two_qubit_count")
    if twoq_want is not None and twoq != twoq_want:
        problems.append(f"two_qubit_count {twoq} != pinned {twoq_want}")
    uniform = 1.0 / 2 ** row.n
    for r in rows:
        mask, p_t = r["mask"], r["p_t"]
        if pt_want is not None and abs(p_t - pt_want) > PT_TOL:
            problems.append(f"{mask}: p_t {p_t!r} != {pt_want!r}")
        if abs(sum(r["exact_distribution"]) - 1.0) > PT_TOL:
            problems.append(f"{mask}: exact distribution does not sum to 1")
        if row.shots == 0:
            continue
        counts = r.get("counts")
        if counts is None or sum(counts) != row.shots or r.get("shots") != row.shots:
            problems.append(f"{mask}: sampled counts do not sum to {row.shots} shots")
            continue
        p_succ = r["p_succ"]
        if row.control:
            if abs(p_succ - p_t) > SIGMAS * binom_sigma(p_t, row.shots):
                problems.append(f"{mask}: noiseless p_succ {p_succ} not within 5 sigma of p_t {p_t}")
            continue
        low = uniform - SIGMAS * binom_sigma(uniform, row.shots)
        high = p_t + SIGMAS * binom_sigma(p_t, row.shots)
        if not low <= p_succ <= high:
            problems.append(f"{mask}: p_succ {p_succ} outside [{low:.5f}, {high:.5f}]")
    return problems


def parse_build_counts(stdout: str) -> dict[str, int]:
    """Mask -> lowered two-qubit count from `qsearch build` output lines."""
    out = {}
    for line in stdout.splitlines():
        m = _BUILD_LINE.match(line)
        if m:
            out[m.group(1)] = int(m.group(2))
    return out


def check_build_output(row, masks: list[str], counts: dict[str, int], parsed: dict, built: dict) -> list[str]:
    """Check `qsearch build` output: one count line and one re-parsable file per mask.

    ``parsed`` maps mask to the circuit that ``qasm.parse`` read back from
    the written file (or None when the file is missing); ``built`` maps
    mask to the circuit the library builds for the same request.
    """
    problems = []
    if sorted(counts) != sorted(masks):
        problems.append(f"count lines for {sorted(counts)} != requested {sorted(masks)}")
    twoq_want = pinned_twoq(row)
    for mask in masks:
        if twoq_want is not None and counts.get(mask) != twoq_want:
            problems.append(f"{mask}: two_qubit_count {counts.get(mask)} != pinned {twoq_want}")
        if parsed.get(mask) is None:
            problems.append(f"{mask}: circuit file missing")
        elif parsed[mask] != built[mask]:
            problems.append(f"{mask}: re-parsed circuit differs from the built circuit")
    return problems
