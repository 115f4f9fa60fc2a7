"""Encoder and decoder for the L-parallel prefix-erasure channel model.

Each channel delivers an intact prefix of its block and erases the rest.
An observation therefore carries the per-channel prefix lengths explicitly
together with the surviving symbols. Recovery interpolates a polynomial for
the families of construct and solves the stacked linear system built from
the matching matrix prefixes for every other family.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from itertools import accumulate, chain
from typing import NamedTuple

from .errors import (
    BadArgument,
    DecodeMismatch,
    DimensionMismatch,
    Inconsistent,
    InsufficientSymbols,
    RankDeficient,
)
from .families import UdmFamily, is_generator
from .gf import Field
from .linalg import matvec, solve, stack_prefixes


class ChannelOutput:
    """Per-channel prefix lengths and the surviving leading symbols.

    Instances are immutable; they compare, hash, print and pickle on
    (ks, prefixes)."""

    __slots__ = ("ks", "prefixes")

    def __init__(self, ks: tuple[int, ...], prefixes: tuple[tuple[int, ...], ...]):
        ks = tuple(ks)
        prefixes = tuple(tuple(p) for p in prefixes)
        if len(ks) != len(prefixes):
            raise DimensionMismatch("prefix count does not match channel count")
        for k, p in zip(ks, prefixes):
            if k < 0 or len(p) != k:
                raise DimensionMismatch(f"prefix of length {len(p)} declared as k={k}")
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "prefixes", prefixes)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable ChannelOutput")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable ChannelOutput")

    def __eq__(self, other):
        if other.__class__ is not ChannelOutput:
            return NotImplemented
        return (self.ks, self.prefixes) == (other.ks, other.prefixes)

    def __hash__(self) -> int:
        return hash((self.ks, self.prefixes))

    def __repr__(self) -> str:
        return f"ChannelOutput(ks={self.ks!r}, prefixes={self.prefixes!r})"

    def __reduce__(self):
        return ChannelOutput, (self.ks, self.prefixes)


class SimulationStats(NamedTuple):
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

    Requires at least n symbols in total. With more than n symbols, the
    redundant ones are checked exactly and a contradiction raises
    Inconsistent. Two paths give the same vectors and the same errors:

    - A family for which families.is_generator holds, construct's output,
      is decoded by Hermite interpolation (_interpolate), O(n^2) field
      operations: row i of its matrix l applied to u is the i-th Hasse
      derivative of u(X) = sum(u_t X^t) at one point of the projective
      line. No matrix is stacked. Such a family is universally decodable,
      so it is never rank deficient.
    - Every other family, whatever alpha it claims, and every transform
      output among them: the matching matrix prefixes are stacked and
      solved with linalg.solve, one echelon row insertion per surviving
      symbol followed by back-substitution, O(n^3) field operations. Over
      a field whose elements pack into one byte (GF(2^s) for s <= 8, odd
      primes up to 127, GF(9), GF(25), GF(49)) a row operation is a few
      C-level calls on a whole byte row (gf._byte_rows), so that is O(n^2)
      row steps. For a verified family the solve cannot be rank
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
    if is_generator(family):
        return _interpolate(family, obs)
    a = stack_prefixes(family.matrices, obs.ks)
    y = [v for prefix in obs.prefixes for v in prefix]
    return solve(a, y)


def _interpolate(family: UdmFamily, obs: ChannelOutput) -> tuple[int, ...]:
    """decode for construct's output, from at least n symbols.

    Channel 0 observes the Hasse derivatives of u(X) at 0, channel 1 its
    top coefficients (the point at infinity) and channel l >= 2 the
    derivatives at alpha**(l - 2). The first n symbols, taken channel by
    channel, determine u by hermite(); every later one is re-encoded from u
    with the field's dot_rows and must match. n = 1 is the only size at
    which construct repeats points (when L > q + 1), and then only the
    first of them is interpolated.
    """
    field, n = family.field, family.n
    need = n
    top, points, rows, redundant = (), [], [], []
    for l, (m, prefix) in enumerate(zip(family.matrices, obs.prefixes)):
        k = min(len(prefix), need)
        need -= k
        if l == 1:
            top = prefix[:k]
        elif k:
            points.append((field.pow(family.alpha, l - 2) if l else 0, prefix[:k]))
        rows += m.entries[k * n : len(prefix) * n]
        redundant += prefix[k:]
    u = hermite(field, n, top, points)
    if field.dot_rows(rows, u) != redundant:
        raise Inconsistent("redundant rows contradict the solution")
    return tuple(u)


def hermite(
    field: Field, n: int, top: Sequence[int], points: Sequence[tuple[int, Sequence[int]]]
) -> list[int]:
    """The coefficients, constant term first, of the u(X) of degree below n
    whose top len(top) coefficients are top, highest first, and whose Hasse
    derivatives 0..k-1 at each (beta, w) of points, k = len(w), are w. The
    betas must be distinct and len(top) plus the k's must make n.

    An incremental Chinese remainder step per point: P, which starts as the
    top coefficients, meets every point so far, and M is the product of
    (X - beta)**k over them. At the next point, with P~ and M~ the first k
    Taylor coefficients of P and M there (M~[0] = M(beta) is nonzero), the
    power series Q~ = (w - P~) / M~ mod Y**k is the Taylor expansion at beta
    of the Q(X) of degree below k with P + M*Q meeting the point too; the
    top coefficients stay, since M*Q has degree below n - len(top).
    """
    taylor, mul_add = field.taylor, field.mul_add
    mul, sub, neg = field.mul, field.sub, field.neg
    P = [0] * (n - len(top))
    P += reversed(top)
    M = [1]
    for j, (beta, w) in enumerate(points):
        k = len(w)
        mt = taylor(M, beta, k)
        scale = field.inv(mt[0])
        qt = []
        for i, (wi, pi) in enumerate(zip(w, taylor(P, beta, k))):
            acc = sub(wi, pi)
            for t in range(1, i + 1):
                acc = sub(acc, mul(mt[t], qt[i - t]))
            qt.append(mul(acc, scale))
        # Q(X) = Q~(X - beta), the Taylor expansion of Q~ at -beta.
        nb = neg(beta)
        for i, c in enumerate(taylor(qt, nb, k)):
            mul_add(P, c, M, i)
        if j + 1 < len(points):
            for _ in range(k):
                M.insert(0, 0)
                mul_add(M, nb, M[1:], 0)  # M * X - beta * M
    return P


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
    each the dot product of u with its matrix row, through the field's
    dot_rows; no prefixes are stacked for the encode, so a trial stacks
    them at most once, inside decode, and only for a family that decode
    solves. Recovered vectors are compared against the ground truth; a
    mismatch would be a library defect and raises.
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
    dot_rows, mats = family.field.dot_rows, family.matrices
    successes = 0
    fail_insufficient = 0
    fail_rank = 0
    total_symbols = 0
    histogram: dict[int, int] = {}
    for t in range(trials):
        rng = trial_rng(seed, t)
        ks = tuple(source(rng, L, n))
        u = tuple(rng.randrange(q) for _ in range(n))
        y = dot_rows(tuple(chain.from_iterable(m.entries[: k * n] for m, k in zip(mats, ks))), u)
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
