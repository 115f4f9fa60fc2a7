"""Encoder and decoder for the L-parallel prefix-erasure channel model.

Each channel delivers an intact prefix of its block and erases the rest.
An observation therefore carries the per-channel prefix lengths explicitly
together with the surviving symbols. Recovery interpolates a polynomial in
Newton form for the families of construct and solves the stacked linear
system built from the matching matrix prefixes for every other family.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from typing import NamedTuple

from .errors import (
    BadArgument,
    DecodeMismatch,
    DimensionMismatch,
    Inconsistent,
    InsufficientSymbols,
    RankDeficient,
)
from .families import UdmFamily, _gaps, _packed_columns, _Record, is_generator
from .gf import Field
from .linalg import Matrix, matvec, solve, stack_prefixes


class ChannelOutput(_Record):
    """Per-channel prefix lengths and the surviving leading symbols; an
    immutable record (families._Record) on (ks, prefixes)."""

    __slots__ = _fields = ("ks", "prefixes")

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


class SimulationStats(NamedTuple):
    trials: int
    successes: int
    failures_insufficient: int
    failures_rank_deficient: int
    mean_symbols: float
    weight_histogram: dict[int, int]


def encode(family: UdmFamily, u: Sequence[int]) -> list[tuple[int, ...]]:
    """Per-channel blocks A_l @ u.

    The L matrices, stacked, are one L*n x n system: its columns are packed
    once per family by the field's columns kernel, on the first encode or
    verify (families._packed_columns), and kept on the family. Each encode
    is then one dot_columns pass over them, split into the L blocks; the
    field's row module, udm.byterows or udm.elementrows, owns the packed
    form.
    """
    n, field = family.n, family.field
    if len(u) != n:
        raise DimensionMismatch(f"information vector of length {len(u)}, expected {n}")
    for v in u:
        if not 0 <= v < field.q:
            raise DimensionMismatch(f"symbol {v} is not an element of GF({field.q})")
    y = field.dot_columns(_packed_columns(family), u)
    return [tuple(y[i : i + n]) for i in range(0, len(y), n)]


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
      is decoded by Hermite interpolation (_interpolate): one to_newton
      call, at most n^2 / 2 divided-difference steps that call no Python
      function outside the odd-characteristic extension fields, and two
      from_newton calls. Row i of its matrix l applied to u is the i-th
      Hasse derivative of u(X) = sum(u_t X^t) at one point of the
      projective line. No matrix is stacked. Such a family is universally
      decodable, so it is never rank deficient.
    - Every other family, whatever alpha it claims, and every transform
      output among them: the matching matrix prefixes are stacked and
      solved with linalg.solve, one echelon row insertion per surviving
      symbol followed by back-substitution, O(n^3) field operations, on
      the field's row kernels (udm.byterows or udm.elementrows). For a
      verified family the solve cannot be rank deficient.
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
    channel, determine u by hermite(), channel 1's as top; every later one
    is re-encoded from u by linalg.matvec on its rows and must match; with
    no later symbol nothing is packed. n = 1 is the only size at which
    construct repeats points (when L > q + 1), and then only the first of
    them is interpolated.
    """
    field, n = family.field, family.n
    need = n
    top, points, rows, redundant = (), [], (), ()
    for l, (m, prefix) in enumerate(zip(family.matrices, obs.prefixes)):
        k = min(len(prefix), need)
        need -= k
        if l == 1:
            top = prefix[:k]
        elif k:
            points.append((field.pow(family.alpha, l - 2) if l else 0, prefix[:k]))
        rows += m.entries[k * n : len(prefix) * n]
        redundant += prefix[k:]
    u = hermite(field, top, points)
    if redundant and matvec(Matrix._unchecked(field, len(redundant), n, rows), u) != redundant:
        raise Inconsistent("redundant rows contradict the solution")
    return tuple(u)


def hermite(
    field: Field, top: Sequence[int], points: Sequence[tuple[int, Sequence[int]]]
) -> list[int]:
    """The coefficients, constant term first, of the u(X) of degree below n
    whose top len(top) coefficients are top, highest first, and whose Hasse
    derivatives 0..k-1 at each (beta, w) of points, k = len(w), are w; n is
    len(top) plus the d symbols of the w's. The betas must be distinct.

    Confluent Newton interpolation. The field's to_newton kernel expands
    the points into d nodes z, each beta k times in a row, and fills the
    divided-difference table, one list comprehension per level, whose
    entries call no Python function outside the odd-characteristic
    extension fields. R = sum(c[i] * N_i), N_i the product of (X - z_j)
    over j < i, meets every point, and so does u = R + M * T for M = N_d.
    R has degree below d, so top fixes T by a unit triangular solve in M's
    top coefficients, and u is one Newton expansion on the nodes extended
    by len(top) zeros.
    """
    sub, mul = field.sub, field.mul
    c, nodes = field.to_newton(points)
    d = len(c)
    if top:
        # top[j] is T[j] + sum(M[d - s] * T[j - s]) over 1 <= s <= d, T
        # highest first: M is monic of degree d, and s > d would reach
        # below its constant term.
        M = field.from_newton([0] * d, nodes, 1)
        T = []
        for j, v in enumerate(top):
            for s in range(1, min(j, d) + 1):
                v = sub(v, mul(M[d - s], T[j - s]))
            T.append(v)
        c += reversed(T)
        nodes += [0] * len(T)
    return field.from_newton(c[:-1], nodes[:-1], c[-1])


def trial_rng(seed: int, index: int) -> random.Random:
    """Independent per-trial generator, reproducible regardless of ordering."""
    return random.Random((seed * 0x9E3779B1 + index) & 0xFFFFFFFFFFFF)


def uniform_pattern(rng: random.Random, L: int, n: int) -> tuple[int, ...]:
    """Each prefix length drawn uniformly from [0, n]."""
    return tuple(rng.randrange(n + 1) for _ in range(L))


def exact_pattern(rng: random.Random, L: int, n: int) -> tuple[int, ...]:
    """Uniform over all tuples with sum exactly n, via separator positions."""
    return _gaps(sorted(rng.sample(range(n + L - 1), L - 1)), n + L - 1)


def geometric_pattern(rng: random.Random, L: int, n: int) -> tuple[int, ...]:
    """Each prefix survives symbol by symbol with probability 1/2, capped at n."""
    ks = []
    for _ in range(L):
        k = 0
        while k < n and rng.random() < 0.5:
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
    independent of trial ordering. Each trial encodes the full blocks with
    encode, from the columns packed once per family, and erases them.
    Recovered vectors are compared against the ground truth; a mismatch
    would be a library defect and raises.
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
        obs = erase(encode(family, u), ks)
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
