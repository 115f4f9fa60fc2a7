"""Univariate polynomials over GF(q) with Hasse derivatives.

The i-th Hasse derivative sends sum a_k X^k to sum C(k, i) a_k X^(k-i).
Over positive characteristic it replaces f^(i) / i!, which degenerates when
i! vanishes, and it detects root multiplicities exactly: beta has
multiplicity m in f iff the derivatives of order 0..m-1 vanish at beta and
the order-m one does not.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache

from .errors import BadArgument, BadPoint
from .gf import Field

#: Multiplicity reported for any point of the zero polynomial.
INFINITE = math.inf


def nat_map(field: Field, z: int) -> int:
    """Image of an arbitrary integer in the prime subfield of field."""
    return z % field.p


@lru_cache(maxsize=8)
def _factorials(p: int) -> tuple[list[int], list[int]]:
    """k! mod p and its inverse for k < p."""
    fact = [1] * p
    for i in range(1, p):
        fact[i] = fact[i - 1] * i % p
    inv_fact = [1] * p
    inv_fact[p - 1] = p - 1  # (p - 1)! = -1 mod p (Wilson)
    for i in range(p - 1, 1, -1):
        inv_fact[i - 1] = inv_fact[i] * i % p
    return fact, inv_fact


def binom(field: Field, a: int, b: int) -> int:
    """Binomial coefficient of two arbitrary integers, reduced into the
    prime subfield of field, GF(p).

    Computed by Lucas' theorem as the product over base-p digits of
    C(a_h, b_h) mod p, each from factorial and inverse-factorial tables
    mod p (p entries each, built on first use and kept for the last 8
    primes); no big-integer values are ever formed. Negative upper index
    is folded to the non-negative case through C(a, b) = (-1)**b *
    C(b - a - 1, b).
    """
    if b < 0:
        return 0
    if b == 0:
        return 1
    p = field.p
    if a < 0:
        v = binom(field, b - a - 1, b)
        return v if b % 2 == 0 else (p - v) % p
    if b > a:
        return 0
    if p == 2:
        return int(a & b == b)  # Lucas in base 2: b's bits lie within a's
    fact, inv_fact = _factorials(p)
    acc = 1
    while b:
        a, a_h = divmod(a, p)
        b, b_h = divmod(b, p)
        if b_h > a_h:
            return 0
        acc = acc * fact[a_h] * inv_fact[b_h] * inv_fact[a_h - b_h] % p
    return acc


class Polynomial:
    """Immutable coefficient-vector polynomial; index k holds the X^k term."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Sequence[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        q = field.q
        for c in cs:
            if not 0 <= c < q:
                raise BadArgument(f"coefficient {c} is not an element of GF({q})")
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, field: Field) -> "Polynomial":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "Polynomial":
        return cls(field, (1,))

    @classmethod
    def monomial(cls, field: Field, k: int, coeff: int = 1) -> "Polynomial":
        if k < 0:
            raise BadArgument("monomial degree must be non-negative")
        return cls(field, (0,) * k + (coeff,))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)} over {self.field!r})"


def poly_add(f: Polynomial, g: Polynomial) -> Polynomial:
    field = f.field
    a, b = f.coeffs, g.coeffs
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] = field.add(out[k], c)
    return Polynomial(field, out)


def poly_scale(f: Polynomial, c: int) -> Polynomial:
    field = f.field
    return Polynomial(field, [field.mul(c, a) for a in f.coeffs])


def poly_mul(f: Polynomial, g: Polynomial) -> Polynomial:
    field = f.field
    a, b = f.coeffs, g.coeffs
    if not a or not b:
        return Polynomial.zero(field)
    add, mul = field.add, field.mul
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = add(out[i + j], mul(ai, bj))
    return Polynomial(field, out)


def hasse_derivative(f: Polynomial, i: int) -> Polynomial:
    """The i-th Hasse derivative; i = 0 returns f unchanged."""
    if i < 0:
        raise BadArgument("derivative order must be non-negative")
    if i == 0:
        return f
    field = f.field
    out = []
    for k in range(i, len(f.coeffs)):
        out.append(field.mul(binom(field, k, i), f.coeffs[k]))
    return Polynomial(field, out)


def evaluate(f: Polynomial, beta: int) -> int:
    """Horner evaluation; the zero polynomial evaluates to 0 everywhere."""
    field = f.field
    if not 0 <= beta < field.q:
        raise BadArgument(f"{beta} is not an element of GF({field.q})")
    acc = 0
    for c in reversed(f.coeffs):
        acc = field.add(field.mul(acc, beta), c)
    return acc


def root_multiplicity(f: Polynomial, beta: int) -> int | float:
    """Exponent of (X - beta) in f: the least i with a nonvanishing i-th
    Hasse derivative at beta. Returns INFINITE for the zero polynomial."""
    if f.is_zero():
        return INFINITE
    for i in range(len(f.coeffs)):
        if evaluate(hasse_derivative(f, i), beta) != 0:
            return i
    raise AssertionError("top derivative of a nonzero polynomial cannot vanish")


def from_linear_factors(field: Field, pairs: Sequence[tuple[int, int]]) -> Polynomial:
    """Product of (X - gamma)**m over the given (gamma, m) pairs."""
    acc = Polynomial.one(field)
    for gamma, m in pairs:
        if m < 0:
            raise BadArgument("multiplicities must be non-negative")
        factor = Polynomial(field, (field.neg(gamma), 1))
        for _ in range(m):
            acc = poly_mul(acc, factor)
    return acc


def hasse_monomial_bivariate(
    field: Field, t: int, n: int, i: int, point: tuple[int, int]
) -> int:
    """Hasse derivative of the degree-(n-1) homogeneous monomial X^t * Y^(n-1-t),
    at one of the two supported evaluation points.

    At (beta, 1) the order-i derivative is taken in the first variable and
    equals C(t, i) * beta**(t - i). At (1, 0), the point at infinity, it is
    taken in the second variable and equals 1 when i == n - 1 - t, else 0.
    """
    if not 0 <= t <= n - 1:
        raise BadArgument(f"monomial index {t} out of range [0, {n - 1}]")
    if i < 0:
        raise BadArgument("derivative order must be non-negative")
    a, b = point
    if b == 1:
        if not 0 <= a < field.q:
            raise BadPoint(f"{a} is not an element of GF({field.q})")
        c = binom(field, t, i)
        if c == 0:
            return 0
        return field.mul(c, field.pow(a, t - i))
    if (a, b) == (1, 0):
        return 1 if i == n - 1 - t else 0
    raise BadPoint(f"unsupported evaluation point {point}; expected (beta, 1) or (1, 0)")
