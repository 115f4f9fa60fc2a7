"""Expectations derived from the benchmark's own inputs, never from udm.

Everything here is written against the documented behaviour of the
program, in plain Python, so that a defect in udm cannot also move the
value it is checked against.
"""

from __future__ import annotations

import math
import random

# Pinned from the seed code: the (7, 5, 12) family with the (n-1, n-1)
# entry of its first matrix set to zero first fails at the very last
# exact-sum tuple, where the first matrix is stacked alone and has a zero row.
FAILING_WITNESS_KS = (12, 0, 0, 0, 0)
FAILING_WITNESS_TUPLES = 1820
FAILING_WITNESS_RANK = 11


def exact_tuple_count(L: int, n: int) -> int:
    """Tuples in [0, n]^L with sum exactly n (stars and bars)."""
    return math.comb(n + L - 1, L - 1)


def superset_tuple_count(L: int, n: int) -> int:
    """Tuples in [0, n]^L with sum at least n, by counting sums."""
    ways = [1]  # ways[s]: tuples over the channels so far with sum s
    for _ in range(L):
        nxt = [0] * (len(ways) + n)
        for s, w in enumerate(ways):
            for k in range(n + 1):
                nxt[s + k] += w
        ways = nxt
    return sum(ways[n:])


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over the prime field GF(p), by plain Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        prow = [(v * inv) % p for v in rows[rank]]
        rows[rank] = prow
        for i in range(len(rows)):
            if i != rank and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], prow)]
        rank += 1
    return rank


def stack_rows(matrices_rows: list[list[list[int]]], ks) -> list[list[int]]:
    """The first ks[l] rows of each matrix, in channel order."""
    out = []
    for rows, k in zip(matrices_rows, ks):
        out.extend(rows[:k])
    return out


def _trial_rng(seed: int, index: int) -> random.Random:
    # The per-trial generator that udm.simulate documents as reproducible.
    return random.Random((seed * 0x9E3779B1 + index) & 0xFFFFFFFFFFFF)


def expected_geometric_simulation(L: int, n: int, q: int, trials: int, seed: int) -> dict:
    """Outcome counts udm.simulate must report for a universally decodable
    family under the 'geometric' source: a trial decodes exactly when at
    least n symbols survive."""
    ok = insufficient = 0
    histogram: dict[int, int] = {}
    for t in range(trials):
        rng = _trial_rng(seed, t)
        weight = 0
        for _ in range(L):
            k = 0
            while k < n and rng.random() < 0.5:
                k += 1
            weight += k
        histogram[weight] = histogram.get(weight, 0) + 1
        if weight >= n:
            ok += 1
        else:
            insufficient += 1
    return {
        "trials": trials,
        "successes": ok,
        "failures_insufficient": insufficient,
        "failures_rank_deficient": 0,
        "weight_histogram": histogram,
    }


def family_file_header(text: str) -> tuple[str, ...]:
    """The tag, L and n lines of a UDMv1 family file."""
    lines = text.splitlines()
    return tuple(lines[i] for i in (0, 2, 3)) if len(lines) >= 4 else ()
