"""Families of universally decodable matrices: construction, verification
and structure-preserving transforms. The independent entry routes and the
exhaustive existence search live in udm.oracles.

An (L, n, q) family is universally decodable when, for every tuple
(k_0, ..., k_{L-1}) of per-channel prefix lengths with sum at least n,
stacking the first k_l rows of each matrix yields full rank n. Checking the
tuples with sum exactly n suffices; there are C(n+L-1, L-1) of them.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .errors import (
    BadArgument,
    BadNormalization,
    DegenerateNullVector,
    NotLowerTriangular,
    Singular,
    TooManyChannels,
    ZeroDiagonal,
)
from .gf import Field
from .linalg import (
    Matrix,
    anti_identity,
    identity,
    kron,
    left_null_vector,
    matmul,
    rank,
    stack_prefixes,
)


class UdmFamily:
    """An ordered list of L square matrices of size n x n over one field.

    alpha records the primitive element used by the standard construction;
    it is None for hand-built families and for transforms that leave the
    constructed entry pattern behind. A hand-built family can claim any
    alpha, so code that relies on it asks is_generator instead.

    Instances are immutable; they compare, hash, print and pickle on
    (field, L, n, matrices, alpha).
    """

    __slots__ = ("field", "L", "n", "matrices", "alpha", "_generator", "_columns")

    def __init__(
        self, field: Field, L: int, n: int, matrices: tuple[Matrix, ...], alpha: int | None = None
    ):
        matrices = tuple(matrices)
        if L < 1 or n < 1:
            raise BadArgument("L and n must be positive")
        if len(matrices) != L:
            raise BadArgument(f"expected {L} matrices, got {len(matrices)}")
        for m in matrices:
            if m.rows != n or m.cols != n:
                raise BadArgument(f"matrix of shape {m.rows}x{m.cols} in an n={n} family")
            # Identity first spares a Field.__eq__ call per matrix.
            if m.field is not field and m.field != field:
                raise BadArgument("matrix over a different field than the family")
        # _generator is is_generator's answer once known: set by construct
        # and on first use. _columns is field.columns of the matrices'
        # entries, set by codec.encode on first use: L * n**2 bytes over a
        # byte-row field, the entry tuples themselves otherwise. Neither is
        # copied by _replace, and only _generator is pickled.
        for name, value in zip(self.__slots__, (field, L, n, matrices, alpha, None, None)):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return (self.field, self.L, self.n, self.matrices, self.alpha)

    def _replace(self, **changes) -> UdmFamily:
        """A new family with some fields changed, checked as any other; the
        is_generator answer and the packed columns are not carried over."""
        fields = dict(
            field=self.field, L=self.L, n=self.n, matrices=self.matrices, alpha=self.alpha
        )
        return UdmFamily(**{**fields, **changes})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable UdmFamily")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable UdmFamily")

    def __eq__(self, other):
        if other.__class__ is not UdmFamily:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"UdmFamily(field={self.field!r}, L={self.L!r}, n={self.n!r}, "
            f"matrices={self.matrices!r}, alpha={self.alpha!r})"
        )

    def __reduce__(self):
        # The is_generator answer travels as the state.
        return UdmFamily, self._key(), self._generator

    def __setstate__(self, known: bool):
        object.__setattr__(self, "_generator", known)


class Witness(NamedTuple):
    ks: tuple[int, ...]
    stacked: Matrix
    rank: int


class VerifyReport(NamedTuple):
    passed: bool
    tuples_checked: int
    witness: Witness | None


# The most entries, L * n**2, of a family that construct, tensor_power or
# oracles.refute_bound will build: about 4.2 million, some 34 MB of tuple
# slots.
MAX_FAMILY_ENTRIES = 1 << 22


def check_family_size(L: int, n: int):
    """Raise BadArgument when an (L, n) family would hold more than
    MAX_FAMILY_ENTRIES entries; nothing is allocated."""
    if L * n * n > MAX_FAMILY_ENTRIES:
        raise BadArgument(
            f"an (L={L}, n={n}) family has L*n^2 = {L * n * n} entries, "
            f"above the supported maximum {MAX_FAMILY_ENTRIES}"
        )


def check_construct(field: Field, L: int, n: int):
    """Raise what construct(field, L, n) raises for its arguments, without
    building anything."""
    if n < 1:
        raise BadArgument("n must be positive")
    if L < 1:
        raise BadArgument("L must be positive")
    if n >= 2 and L > field.q + 1:
        raise TooManyChannels(
            f"no (L={L}, n={n}, q={field.q}) family exists: L exceeds q + 1"
        )
    check_family_size(L, n)


def construct(field: Field, L: int, n: int) -> UdmFamily:
    """The explicit (L, n, q) family: identity, row reversal, then for each
    remaining index l a binomial matrix with entry (i, t) equal to
    C(t, i) * alpha**(l * (t - i)), alpha the canonical primitive element.

    Requires L <= q + 1 when n >= 2; n = 1 is unconstrained (every family of
    1x1 ones is universally decodable) and accepts any L. L * n**2 is
    bounded by MAX_FAMILY_ENTRIES.
    """
    check_construct(field, L, n)
    alpha = field.primitive_element()
    mats = [identity(field, n)]
    if L >= 2:
        mats.append(anti_identity(field, n))
    mats += _binomial_matrices(field, alpha, L - 2, n)
    return _known_generator(UdmFamily(field, L, n, tuple(mats), alpha=alpha), True)


def _binomial_matrices(field: Field, alpha: int, count: int, n: int) -> list[Matrix]:
    """The matrices of construct for l = 0..count-1: entry (i, t) is
    C(t, i) * alpha**(l * (t - i)), zero below the diagonal."""
    if count < 1:
        return []
    p, mul = field.p, field.mul
    # powers[l][d] = alpha**(l * d), the factor of every entry with t - i = d.
    powers = []
    for l in range(count):
        step, pw = field.pow(alpha, l), [1]
        for _ in range(n - 1):
            pw.append(mul(pw[-1], step))
        powers.append(pw)
    entries = [[] for _ in powers]
    # Row i is zero before column i; binoms[d] = C(i + d, i) mod p, and
    # C(i + d, i) is the sum of C(i - 1 + e, i - 1) over e <= d (Pascal).
    binoms = [1] * n
    for i in range(n):
        if i:
            binoms = [c % p for c in itertools.accumulate(binoms[: n - i])]
        for out, pw in zip(entries, powers):
            out += [0] * i
            # c * w is the entry for c = 0 or 1, without a field multiply.
            out += [mul(c, w) if c > 1 else c * w for c, w in zip(binoms, pw)]
    return [Matrix._unchecked(field, n, n, tuple(e)) for e in entries]


def count_exact_tuples(L: int, n: int) -> int:
    return math.comb(n + L - 1, L - 1)


def enumerate_exact_tuples(L: int, n: int):
    """All (k_0, ..., k_{L-1}) with sum n and 0 <= k_l <= n, ascending
    lexicographic with k_0 varying slowest."""
    if L < 1:
        raise BadArgument("L must be positive")
    if n < 0:
        raise BadArgument("n must be non-negative")

    def gen(slots, total):
        if slots == 1:
            yield (total,)
            return
        for k in range(total + 1):
            for rest in gen(slots - 1, total - k):
                yield (k,) + rest

    yield from gen(L, n)


def enumerate_superset_tuples(L: int, n: int):
    """All tuples in [0, n]^L with sum at least n, ascending lexicographic."""
    for ks in itertools.product(range(n + 1), repeat=L):
        if sum(ks) >= n:
            yield ks


def verify(family: UdmFamily, superset: bool = False) -> VerifyReport:
    """Check the full-rank condition for every admissible erasure tuple.

    By default only tuples with sum exactly n are checked, which is
    sufficient. With superset=True every tuple with sum >= n is checked
    directly. The first failing tuple, in enumeration order, becomes the
    witness.

    The tuples are walked in enumeration order (enumerate_exact_tuples or
    enumerate_superset_tuples) as a depth-first walk of the tree of
    prefixes: one echelon basis is carried along, and each step to the next
    tuple undoes the rows of the channels it resets and inserts one row of
    the channel it grows. Exact sums: the first tuple, (0, ..., 0, n),
    passes iff the last matrix M is invertible; then every other matrix is
    right-multiplied once by T with M T = J, the row reversal, which
    changes no rank and turns the last channel's first r rows into the
    last r unit vectors. The last channel's rows are never inserted: each
    later tuple costs one insertion and one compare, and passes iff its
    new row takes the next free pivot column. Superset: a tuple fails when
    its sum is at least n and its rank below n; once the rows of channels
    0..j reach rank n, every tuple sharing that prefix passes, and they
    are counted without being built. The witness is rebuilt from the
    original matrices with stack_prefixes and rank, so reports are the
    same as from checking every tuple on its own.
    """
    walk = _walk_superset if superset else _walk_exact
    checked, ks = walk(family)
    if ks is None:
        return VerifyReport(True, checked, None)
    stacked = stack_prefixes(family.matrices, ks)
    return VerifyReport(False, checked, Witness(ks, stacked, rank(stacked)))


class _Echelon:
    """The echelon basis of the superset walk, with the (channel, column)
    of every filled slot in insertion order, so the rows of channels above
    j can be undone by popping."""

    def __init__(self, family: UdmFamily):
        n = family.n
        self.insert_row = family.field.insert_row
        self.rows = [[m.row(i) for i in range(n)] for m in family.matrices]
        self.basis = [None] * n
        self.trail: list[tuple[int, int]] = []

    def insert(self, l: int, i: int) -> bool:
        """Insert row i of matrix l; False when it is dependent."""
        c = self.insert_row(self.basis, self.rows[l][i])
        if c < 0:
            return False
        self.trail.append((l, c))
        return True

    def undo_above(self, j: int):
        trail, basis = self.trail, self.basis
        while trail and trail[-1][0] > j:
            basis[trail.pop()[1]] = None


def _walk_exact(family: UdmFamily) -> tuple[int, tuple[int, ...] | None]:
    """(tuples checked, first failing tuple or None) over the exact sums.

    The first tuple, (0, ..., 0, n), passes iff the last matrix M is
    invertible: the n rows of [M | J], J the row reversal, all take pivots
    among the first n columns. Their back-substitution gives T with
    M T = J, and every other matrix is right-multiplied by T once. T is
    invertible, so no stack changes rank, and row i of M T is the unit
    vector of column n - 1 - i: a tuple whose last channel holds r rows
    passes iff its other n - r rows reduce to pivots in exactly the
    columns 0..n-r-1.

    Invariant: at each later tuple, with f = n - 1 - r, slots 0..f-1 of
    the basis hold the tuple's other rows, in stacking order, except the
    newest one. An earlier tuple, the one that ends with those rows and
    n - f rows of the last channel, passed, so they fill exactly those
    slots. The step to the tuple clears the slots of the channel it
    resets and inserts the newest row, and the tuple passes iff that row
    takes slot f: -1 is a dependent row and a larger column a pivot
    among the last r.
    """
    L, n, field = family.L, family.n, family.field
    insert_row = field.insert_row
    last = L - 1
    ks = [0] * L
    ks[last] = n
    aug = [None] * (2 * n)
    rev = anti_identity(field, n)
    m = family.matrices[last]
    if any(insert_row(aug, m.row(i) + rev.row(i)) >= n for i in range(n)):
        return 1, tuple(ks)
    t = Matrix._unchecked(field, n, n, tuple(field.back_substitute(aug, n, n)))
    rows = [matmul(a, t) for a in family.matrices[:last]]
    rows = [[a.row(i) for i in range(n)] for a in rows]
    basis, empty = [None] * n, [None] * n
    nonzero = [last]  # the positions with ks > 0, ascending
    checked = 1
    while True:
        # The next tuple moves one unit from the rightmost nonzero position
        # r to r - 1 and the rest of ks[r] to the last channel; the rows of
        # channels before r keep slots 0..f-1.
        r = nonzero.pop()
        if r == 0:
            return checked, None
        j, f = r - 1, n - ks[r]
        rest = ks[r] - 1
        ks[r] = 0
        if not ks[j]:
            nonzero.append(j)
        ks[j] += 1
        ks[last] = rest
        if rest:
            nonzero.append(last)
        checked += 1
        if r < last:
            basis[f:] = empty[f:]
        if insert_row(basis, rows[j][ks[j] - 1]) != f:
            return checked, tuple(ks)


def _walk_superset(family: UdmFamily) -> tuple[int, tuple[int, ...] | None]:
    """(tuples checked, first failing tuple or None) over [0, n]^L with sum
    at least n, in itertools.product order."""
    L, n = family.L, family.n
    ech = _Echelon(family)
    ks = [0] * L
    total = 0
    checked = 0
    while True:
        j = L - 1
        while j >= 0 and ks[j] == n:
            j -= 1
        if j < 0:
            return checked, None
        ech.undo_above(j)
        total += 1 - n * (L - 1 - j)
        ks[j] += 1
        ks[j + 1 :] = [0] * (L - 1 - j)
        if len(ech.trail) < n:
            ech.insert(j, ks[j] - 1)
        if len(ech.trail) == n:
            # Every tuple with this prefix has rank n: count them and jump
            # to the last of them.
            checked += (n + 1) ** (L - 1 - j)
            total += n * (L - 1 - j)
            ks[j + 1 :] = [n] * (L - 1 - j)
        elif total >= n:
            checked += 1
            return checked, tuple(ks)


def _is_lower_triangular(c: Matrix) -> bool:
    return all(c.at(i, j) == 0 for i in range(c.rows) for j in range(i + 1, c.cols))


def left_transform(family: UdmFamily, l: int, c: Matrix) -> UdmFamily:
    """Replace the l-th matrix by c @ A_l for a lower triangular c with
    nonzero diagonal; this never breaks universal decodability."""
    if not 0 <= l < family.L:
        raise BadArgument(f"matrix index {l} out of range [0, {family.L})")
    if c.rows != family.n or c.cols != family.n:
        raise BadArgument(f"transform must be {family.n}x{family.n}")
    if not _is_lower_triangular(c):
        raise NotLowerTriangular("transform matrix has an entry above the diagonal")
    if any(c.at(i, i) == 0 for i in range(c.rows)):
        raise ZeroDiagonal("transform matrix has a zero diagonal entry")
    mats = list(family.matrices)
    mats[l] = matmul(c, mats[l])
    return family._replace(matrices=tuple(mats), alpha=None)


def right_multiply(family: UdmFamily, b: Matrix) -> UdmFamily:
    """Replace every matrix A_l by A_l @ b for an invertible b: its rows
    are inserted into one echelon basis with the field's insert_row, and b
    is invertible when every row is accepted."""
    n = family.n
    if b.rows != n or b.cols != n:
        raise BadArgument(f"multiplier must be {n}x{n}")
    basis, insert_row = [None] * n, b.field.insert_row
    if any(insert_row(basis, b.row(i)) < 0 for i in range(n)):
        raise Singular("right multiplier is not invertible")
    mats = tuple(matmul(m, b) for m in family.matrices)
    return family._replace(matrices=mats, alpha=None)


def tensor_power(family: UdmFamily, m: int) -> UdmFamily:
    """The family of m-fold Kronecker powers, an (L, n**m, q) candidate.

    The output is not guaranteed universally decodable in general; callers
    verify it. For the standard construction over a prime field with n = p
    the result coincides entrywise with the directly constructed
    (L, p**m, p) family. alpha is kept only when the output equals
    construct(field, L, n**m); otherwise it is None.
    """
    if m < 1:
        raise BadArgument("tensor power must be positive")
    field, n = family.field, family.n
    # n**m >= 2**m, so the size bound settles a large m before n**m is formed.
    if n > 1 and m >= MAX_FAMILY_ENTRIES.bit_length():
        raise BadArgument(
            f"tensor power {m} of n={n} has more than {MAX_FAMILY_ENTRIES} entries"
        )
    check_family_size(family.L, n**m)
    if n == 1:
        # The m-th Kronecker power of (a) is (a**m): no loop over m.
        mats = [
            Matrix._unchecked(field, 1, 1, (field.pow(a.entries[0], m),))
            for a in family.matrices
        ]
    else:
        mats = []
        for a in family.matrices:
            acc = a
            for _ in range(m - 1):
                acc = kron(acc, a)
            mats.append(acc)
    return with_checked_alpha(UdmFamily(field, family.L, n**m, tuple(mats), alpha=family.alpha))


def is_generator(family: UdmFamily) -> bool:
    """Whether family is construct(field, L, n), alpha included: its alpha
    is the field's primitive element and its matrices equal construct's.

    construct's own output is known to be; any other family is compared
    with construct's output once, and the answer kept on the instance. A
    family that construct would refuse, for its L or its size, is not."""
    if family._generator is None:
        field, L, n = family.field, family.L, family.n
        _known_generator(
            family,
            family.alpha == field.primitive_element()
            and (n == 1 or L <= field.q + 1)
            and L * n * n <= MAX_FAMILY_ENTRIES
            and construct(field, L, n).matrices == family.matrices,
        )
    return family._generator


def _known_generator(family: UdmFamily, known: bool) -> UdmFamily:
    object.__setattr__(family, "_generator", known)
    return family


def with_checked_alpha(family: UdmFamily) -> UdmFamily:
    """family with its alpha kept only when is_generator holds; otherwise
    with alpha None, so that alpha never claims a provenance the matrices
    lack."""
    if family.alpha is None or is_generator(family):
        return family
    return family._replace(alpha=None)


def reverse_pairs(family: UdmFamily) -> UdmFamily:
    """Rework each pair (A_{2j}, A_{2j+1}) so the second matrix is the first
    with its rows reversed, preserving universal decodability.

    Row i of the even matrix is replaced by the null-space combination of the
    stack of its rows 0..i over rows 0..n-1-i of the odd matrix; the matching
    row of the odd matrix takes the negated complementary combination. Both
    replacements are triangular row updates with a nonzero coefficient on the
    replaced row, which never break the rank condition. A null vector with a
    vanishing boundary coefficient can only arise for input that was not
    universally decodable.
    """
    field = family.field
    n = family.n
    neg, mul_add = field.neg, field.mul_add
    mats = [m.to_lists() for m in family.matrices]

    def combo(coeffs, rows):
        out = [0] * n
        for c, row in zip(coeffs, rows):
            mul_add(out, c, row, 0)
        return out

    for base in range(0, family.L - 1, 2):
        a0, a1 = mats[base], mats[base + 1]
        for i in range(n):
            b0 = a0[: i + 1]
            b1 = a1[: n - i]
            stacked = Matrix.from_rows(field, b0 + b1)
            b = left_null_vector(stacked)
            if b[i] == 0 or b[n] == 0:
                raise DegenerateNullVector(
                    f"null vector has a zero boundary coefficient at step {i}; "
                    "the input family is not universally decodable"
                )
            c0, c1 = b[: i + 1], b[i + 1 :]
            a0[i] = combo(c0, b0)
            a1[n - i - 1] = [neg(v) for v in combo(c1, b1)]
    return family._replace(matrices=tuple(Matrix.from_rows(field, m) for m in mats), alpha=None)


def reduce(family: UdmFamily) -> UdmFamily:
    """Shrink an (L, n, q) family normalized to A_0 = I, A_1 = J into an
    (L, n-1, q) one: the second matrix loses its first column and last row,
    every other matrix its last column and last row."""
    field = family.field
    n = family.n
    if n < 2:
        raise BadArgument("cannot reduce below n = 1")
    if family.L < 2 or family.matrices[0] != identity(field, n):
        raise BadNormalization("first matrix must be the identity")
    if family.matrices[1] != anti_identity(field, n):
        raise BadNormalization("second matrix must be the row reversal")
    mats = []
    for l, m in enumerate(family.matrices):
        drop_col = 0 if l == 1 else n - 1
        entries = [
            m.at(i, j) for i in range(n - 1) for j in range(n) if j != drop_col
        ]
        mats.append(Matrix(field, n - 1, n - 1, entries))
    return family._replace(n=n - 1, matrices=tuple(mats))


def permute(family: UdmFamily, perm) -> UdmFamily:
    """Reorder the matrices; position l receives matrix perm[l]."""
    perm = tuple(perm)
    if sorted(perm) != list(range(family.L)):
        raise BadArgument(f"not a permutation of 0..{family.L - 1}: {perm}")
    return family._replace(matrices=tuple(family.matrices[p] for p in perm), alpha=None)


def prefix(family: UdmFamily, L: int) -> UdmFamily:
    """The family of the first L matrices."""
    if not 1 <= L <= family.L:
        raise BadArgument(f"prefix length {L} out of range [1, {family.L}]")
    return family._replace(L=L, matrices=family.matrices[:L])
