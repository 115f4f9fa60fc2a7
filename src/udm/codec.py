"""Encoder and decoder for the L-parallel prefix-erasure channel model.

Each channel delivers an intact prefix of its block and erases the rest.
An observation therefore carries the per-channel prefix lengths explicitly
together with the surviving symbols; recovery solves the stacked linear
system built from the matching matrix prefixes.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import accumulate

from .errors import (
    BadArgument,
    DecodeMismatch,
    DimensionMismatch,
    InsufficientSymbols,
    RankDeficient,
)
from .families import UdmFamily
from .linalg import matvec, solve, stack_prefixes


@dataclass(frozen=True)
class ChannelOutput:
    """Per-channel prefix lengths and the surviving leading symbols."""

    ks: tuple[int, ...]
    prefixes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "ks", tuple(self.ks))
        object.__setattr__(self, "prefixes", tuple(tuple(p) for p in self.prefixes))
        if len(self.ks) != len(self.prefixes):
            raise DimensionMismatch("prefix count does not match channel count")
        for k, p in zip(self.ks, self.prefixes):
            if k < 0 or len(p) != k:
                raise DimensionMismatch(f"prefix of length {len(p)} declared as k={k}")


@dataclass(frozen=True)
class SimulationStats:
    trials: int
    successes: int
    failures_insufficient: int
    failures_rank_deficient: int
    mean_symbols: float
    weight_histogram: dict[int, int]


def encode(family: UdmFamily, u: Sequence[int]) -> list[tuple[int, ...]]:
    """Per-channel blocks A_l @ u."""
    if len(u) != family.n:
        raise DimensionMismatch(f"information vector of length {len(u)}, expected {family.n}")
    q = family.field.q
    for v in u:
        if not 0 <= v < q:
            raise DimensionMismatch(f"symbol {v} is not an element of GF({q})")
    return [matvec(m, u) for m in family.matrices]


def erase(x: Sequence[Sequence[int]], ks: Sequence[int]) -> ChannelOutput:
    """Keep only the leading ks[l] symbols of each block."""
    if len(ks) != len(x):
        raise DimensionMismatch(f"{len(ks)} prefix lengths for {len(x)} blocks")
    for block, k in zip(x, ks):
        if not 0 <= k <= len(block):
            raise DimensionMismatch(f"prefix length {k} out of range [0, {len(block)}]")
    return ChannelOutput(tuple(ks), tuple(tuple(block[:k]) for block, k in zip(x, ks)))


def decode(family: UdmFamily, obs: ChannelOutput) -> tuple[int, ...]:
    """Recover the information vector from the surviving prefixes.

    Requires at least n symbols in total. The matching matrix prefixes are
    stacked and solved with linalg.solve, one echelon row insertion per
    surviving symbol followed by back-substitution. With more than n
    symbols, the redundant rows are checked exactly and a contradiction
    raises Inconsistent. For a verified family the solve cannot be rank
    deficient.
    """
    n = family.n
    if len(obs.ks) != family.L:
        raise DimensionMismatch(f"{len(obs.ks)} channels in observation, expected {family.L}")
    q = family.field.q
    for k, prefix in zip(obs.ks, obs.prefixes):
        if k > n:
            raise DimensionMismatch(f"prefix length {k} exceeds block length {n}")
        for v in prefix:
            if not 0 <= v < q:
                raise DimensionMismatch(f"symbol {v} is not an element of GF({q})")
    if sum(obs.ks) < n:
        raise InsufficientSymbols(
            f"{sum(obs.ks)} surviving symbols cannot determine {n} unknowns"
        )
    a = stack_prefixes(family.matrices, obs.ks)
    y = [v for prefix in obs.prefixes for v in prefix]
    return solve(a, y)


def trial_rng(seed: int, index: int) -> random.Random:
    """Independent per-trial generator, reproducible regardless of ordering."""
    return random.Random((seed * 0x9E3779B1 + index) & 0xFFFFFFFFFFFF)


def uniform_pattern(rng: random.Random, L: int, n: int) -> tuple[int, ...]:
    """Each prefix length drawn uniformly from [0, n]."""
    return tuple(rng.randrange(n + 1) for _ in range(L))


def exact_pattern(rng: random.Random, L: int, n: int) -> tuple[int, ...]:
    """Uniform over all tuples with sum exactly n, via separator positions."""
    seps = sorted(rng.sample(range(n + L - 1), L - 1))
    ks = []
    prev = -1
    for s in seps:
        ks.append(s - prev - 1)
        prev = s
    ks.append(n + L - 2 - prev)
    return tuple(ks)


def geometric_pattern(rng: random.Random, L: int, n: int, r: float = 0.5) -> tuple[int, ...]:
    """Each prefix survives symbol by symbol with probability r, capped at n."""
    ks = []
    for _ in range(L):
        k = 0
        while k < n and rng.random() < r:
            k += 1
        ks.append(k)
    return tuple(ks)


_PATTERN_SOURCES: dict[str, Callable] = {
    "uniform": uniform_pattern,
    "exact": exact_pattern,
    "geometric": geometric_pattern,
}


def simulate(
    family: UdmFamily,
    trials: int,
    pattern_source: str | Callable = "exact",
    seed: int = 0,
) -> SimulationStats:
    """Run decode trials against randomly drawn erasure patterns.

    Every trial draws its pattern and a uniform information vector from its
    own generator, so the statistics are reproducible for a fixed seed and
    independent of trial ordering. Only the surviving symbols are encoded,
    with one product of the stacked prefixes and u per trial. Recovered
    vectors are compared against the ground truth; a mismatch would be a
    library defect and raises.
    """
    if trials < 0:
        raise BadArgument("trials must be non-negative")
    if isinstance(pattern_source, str):
        if pattern_source not in _PATTERN_SOURCES:
            raise BadArgument(
                f"unknown pattern source {pattern_source!r}; "
                f"expected one of {sorted(_PATTERN_SOURCES)} or a callable"
            )
        source = _PATTERN_SOURCES[pattern_source]
    else:
        source = pattern_source
    n, L, q = family.n, family.L, family.field.q
    successes = 0
    fail_insufficient = 0
    fail_rank = 0
    total_symbols = 0
    histogram: dict[int, int] = {}
    for t in range(trials):
        rng = trial_rng(seed, t)
        ks = tuple(source(rng, L, n))
        u = tuple(rng.randrange(q) for _ in range(n))
        y = matvec(stack_prefixes(family.matrices, ks), u)
        obs = ChannelOutput(ks, tuple(y[e - k : e] for k, e in zip(ks, accumulate(ks))))
        weight = sum(ks)
        total_symbols += weight
        histogram[weight] = histogram.get(weight, 0) + 1
        try:
            got = decode(family, obs)
        except InsufficientSymbols:
            fail_insufficient += 1
        except RankDeficient:
            fail_rank += 1
        else:
            if got != u:
                raise DecodeMismatch(f"trial {t}: decoded {got}, expected {u}")
            successes += 1
    mean = total_symbols / trials if trials else 0.0
    return SimulationStats(
        trials=trials,
        successes=successes,
        failures_insufficient=fail_insufficient,
        failures_rank_deficient=fail_rank,
        mean_symbols=mean,
        weight_histogram=histogram,
    )
