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
    matmul_each,
    rank,
    stack_prefixes,
)


class _Record:
    """An immutable record on the fields a subclass names in _fields: it
    compares, hashes, prints and pickles on them, plus any __getstate__
    state; __init__ sets slots with object.__setattr__."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        kind = type(self).__name__
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {kind}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return self.__class__, self._key(), self.__getstate__()

    def __getstate__(self):
        return None


class UdmFamily(_Record):
    """An ordered list of L square matrices of size n x n over one field.

    alpha records the primitive element used by the standard construction;
    it is None for hand-built families and for transforms that leave the
    constructed entry pattern behind. A hand-built family can claim any
    alpha, so code that relies on it asks is_generator instead.

    An immutable record (_Record) on (field, L, n, matrices, alpha).
    """

    __slots__ = ("field", "L", "n", "matrices", "alpha", "_generator", "_columns")
    _fields = __slots__[:5]

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
        # entries, packed in the format of the field's row module
        # (udm.byterows or udm.elementrows) by _packed_columns on the first
        # encode or verify, whichever comes first. Neither is copied by
        # _replace, and only _generator is pickled, as the state.
        for name, value in zip(self.__slots__, (field, L, n, matrices, alpha, None, None)):
            object.__setattr__(self, name, value)

    def _replace(self, **changes) -> UdmFamily:
        """A new family with some fields changed, checked as any other; the
        is_generator answer and the packed columns are not carried over."""
        return UdmFamily(**{**dict(zip(self._fields, self._key())), **changes})

    def __getstate__(self):
        return self._generator

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


# The largest count udm prints in decimal, as oracles.refute_bound forms
# and reports it and as udm verify reports its tuples; a larger one is
# printed as a power.
MAX_COUNT_BITS = 4096

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


def _check_tuple_sizes(L: int, n: int):
    """Raise BadArgument unless L >= 1 and n >= 0."""
    if L < 1:
        raise BadArgument("L must be positive")
    if n < 0:
        raise BadArgument("n must be non-negative")


def count_exact_tuples(L: int, n: int) -> int:
    _check_tuple_sizes(L, n)
    return math.comb(n + L - 1, L - 1)


def enumerate_exact_tuples(L: int, n: int):
    """All (k_0, ..., k_{L-1}) with sum n and 0 <= k_l <= n, ascending
    lexicographic with k_0 varying slowest."""
    _check_tuple_sizes(L, n)
    end = n + L - 1
    return (_gaps(bars, end) for bars in itertools.combinations(range(end), L - 1))


def _gaps(bars, end: int) -> tuple[int, ...]:
    """Stars and bars: k_l is the gap after bar l - 1, bars ascending in 0..end-1."""
    return tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, end)))


def enumerate_superset_tuples(L: int, n: int):
    """All tuples in [0, n]^L with sum at least n, ascending lexicographic."""
    _check_tuple_sizes(L, n)
    return (ks for ks in itertools.product(range(n + 1), repeat=L) if sum(ks) >= n)


def verify(family: UdmFamily, superset: bool = False) -> VerifyReport:
    """Check the full-rank condition for every admissible erasure tuple.

    By default the tuples with sum exactly n are checked, which is
    sufficient. With superset=True the report is the one that checking
    every tuple with sum >= n, in enumeration order, would give. The first
    failing tuple becomes the witness.

    The exact tuples are walked in enumeration order as a depth-first walk
    of their prefix tree (_walk): after one change of coordinates each
    tuple costs one entry read of a saved Schur complement, plus one
    column update per remaining column while the last channel still holds
    rows, so no stack is eliminated from scratch. The change of
    coordinates is n products over the family's packed columns, the ones
    codec.encode reads, which stay on the family (_packed_columns).

    One walk serves both modes, because the first failing superset
    tuple is the first failing exact one. Rows added to a stack never lower
    its rank, so a failing tuple with sum above n lies above failing tuples
    with sum n, each lexicographically earlier; and both orders are
    lexicographic. Superset mode only recounts tuples_checked, in closed
    form, with _superset_position. The witness is rebuilt from the original
    matrices with stack_prefixes and rank, so reports are the same as from
    checking every tuple on its own.
    """
    checked, ks = _walk(family)
    if superset:
        checked = _superset_position(family.L, family.n, ks)
    if ks is None:
        return VerifyReport(True, checked, None)
    stacked = stack_prefixes(family.matrices, ks)
    return VerifyReport(False, checked, Witness(ks, stacked, rank(stacked)))


def _superset_position(L: int, n: int, ks: tuple[int, ...] | None) -> int:
    """The 1-based position of ks among the tuples of [0, n]^L with sum at
    least n, in itertools.product order; their count when ks is None.

    The tuples before ks agree with it on channels 0..i-1 and hold v < k_i
    on channel i. Their m = L - 1 - i later channels take all (n + 1)**m
    values but the C(t - 1 + m, m) with sum below t = n - (k_0 + ... +
    k_{i-1} + v), none when t <= 0: entries of those are below t <= n, so
    they are all m-tuples of naturals with sum at most t - 1. Likewise the
    count is (n + 1)**L less the C(n - 1 + L, L) tuples with sum below n.
    """
    if ks is None:
        return (n + 1) ** L - math.comb(n - 1 + L, L)
    position, rest = 1, n
    for i, k in enumerate(ks):
        m = L - 1 - i
        for t in range(rest, rest - k, -1):
            position += (n + 1) ** m - (math.comb(t - 1 + m, m) if t > 0 else 0)
        rest -= k
    return position


def _packed_columns(family: UdmFamily) -> list:
    """The family's matrices, stacked, as field.columns packs them: n
    columns of L * n entries, packed on first use and kept on the family
    for encode and verify alike."""
    cols = family._columns
    if cols is None:
        cols = family.field.columns(tuple(m.entries for m in family.matrices), family.n)
        object.__setattr__(family, "_columns", cols)
    return cols


def _reversal_state(family: UdmFamily) -> list | None:
    """A T packed by Field.columns, for A the stack of A_0..A_{L-2} and T
    with M T = J, M the last matrix and J the row reversal; None when M is
    singular. M is invertible iff the n rows of [M | J] all take pivots
    among the first n columns, and their back-substitution gives T. Row i
    of M T is the unit vector of column n - 1 - i. Column j of A T is one
    dot_columns of the family's packed columns with column j of T, less
    its last n entries, those of M T."""
    field, n, m = family.field, family.n, family.matrices[-1]
    aug, rev = [None] * (2 * n), anti_identity(field, n)
    if any(field.insert_row(aug, m.row(i) + rev.row(i)) >= n for i in range(n)):
        return None
    t, cols = field.back_substitute(aug, n), _packed_columns(family)
    height = (family.L - 1) * n
    products = [field.dot_columns(cols, t[j::n])[:height] for j in range(n)]
    return field.columns(zip(*products), n)


def _walk(family: UdmFamily) -> tuple[int, tuple[int, ...] | None]:
    """(tuples checked, first failing tuple or None) over the exact sums,
    in enumeration order.

    The first tuple, (0, ..., 0, n), passes iff _reversal_state finds the
    last matrix invertible. Right-multiplying every matrix by T with
    M T = J, the row reversal, changes no rank and makes the last
    channel's first r rows the last r unit vectors. So a later tuple
    whose last channel holds r rows passes iff its other f + 1 = n - r
    rows, in those coordinates, have full rank on columns 0..f.

    The walk runs on Schur complements. The candidates are the rows of
    channels 0..L-2, position x = l * n + i for row i of channel l. The
    state at depth f holds them reduced modulo the tuple's first f rows,
    in stacking order, which have full rank on columns 0..f-1 (an earlier
    tuple, the one that ends with them and n - f rows of the last channel,
    passed); only columns f..n-1 and the positions after the f-th row are
    kept, packed by Field.columns; the state at depth 0 is
    _reversal_state's A T. A step appends row x at depth f, and the tuple
    passes iff x's entry in column f is nonzero. While the last channel
    still holds rows, Field.eliminate reads that entry and gives the state
    at depth f + 1; otherwise f = n - 1, and the test is one read of the
    packed entry, which is zero exactly when the element is.

    A reset returns to the state at the depth where channel r starts,
    with r the rightmost nonzero channel. So the walk keeps, on a stack,
    one state for each depth at which a nonzero channel of the current
    tuple starts: at most min(n, L - 1) of them.
    """
    L, n = family.L, family.n
    last = L - 1
    ks = [0] * L
    ks[last] = n
    state = _reversal_state(family)
    if state is None:
        return 1, tuple(ks)
    eliminate = family.field.eliminate
    # (start, state): the state at a depth, whose first entry is position start.
    saved = [(0, state)]
    nonzero = [last]  # the positions with ks > 0, ascending
    checked = 1
    while True:
        # The next tuple moves one unit from the rightmost nonzero position
        # r to r - 1 and the rest of ks[r] to the last channel; its new row
        # is row ks[j] - 1 of channel j = r - 1, at depth f = n - ks[r].
        r = nonzero.pop()
        if r == 0:
            return checked, None
        j = r - 1
        rest = ks[r] - 1
        ks[r] = 0
        if not ks[j]:
            nonzero.append(j)
        ks[j] += 1
        ks[last] = rest
        if rest:
            nonzero.append(last)
        checked += 1
        # Depth f stays a channel start only when channel j starts there.
        start, state = saved[-1] if ks[j] == 1 else saved.pop()
        x = j * n + ks[j] - 1
        if rest:
            state = eliminate(state, x - start)
            if state is None:
                return checked, tuple(ks)
            saved.append((x + 1, state))
        elif not state[0][x - start]:
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
    """Replace every matrix A_l by A_l @ b for an invertible b, one of rank n."""
    n = family.n
    if b.rows != n or b.cols != n:
        raise BadArgument(f"multiplier must be {n}x{n}")
    if rank(b) < n:
        raise Singular("right multiplier is not invertible")
    return family._replace(matrices=matmul_each(family.matrices, b), alpha=None)


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
    neg, columns, dot_columns = field.neg, field.columns, field.dot_columns
    mats = [m.to_lists() for m in family.matrices]

    def combo(coeffs, rows):
        # The rows are the columns of their transpose.
        return dot_columns(columns(list(zip(*rows)), len(rows)), coeffs)

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
