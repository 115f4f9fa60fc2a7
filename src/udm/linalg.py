"""Dense exact matrices and vectors over a Field.

Matrices are immutable: a row-major tuple of int-encoded elements plus the
owning field. Vectors are plain sequences of ints. Every elimination inserts
rows in order into one echelon basis with the field's insert_row, each
reduced row taking the slot of its first nonzero column; there is no
magnitude to prefer over an exact field, and the fixed rule keeps every
witness and null vector reproducible.

rank, solve and left_null_vector, the decode and transform paths and the
rank of a verify witness, run on the field's elimination kernels,
Field.insert_row and back_substitute; verify's walk runs on
Field.eliminate instead.
matvec and matmul, the transform paths and the encode reference, run on
its product kernels: Field.columns packs a matrix once and
Field.dot_columns multiplies it by a vector, as codec.encode does with a
family's stacked matrices, and matmul packs its left factor and
multiplies it by each column of the right one. How a field stores rows
and packs columns is its row module's own: udm.byterows, with
udm.bitplanes in characteristic 2, for the fields whose elements fit a
byte, and udm.elementrows for the others. The tests check rank, solve
and left_null_vector against per-element Gaussian elimination of their
own.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from itertools import chain

from .errors import DimensionMismatch, Inconsistent, RankDeficient
from .gf import Field


class Matrix:
    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, rows: int, cols: int, entries):
        entries = tuple(entries)
        if rows < 0 or cols < 0:
            raise DimensionMismatch("negative matrix dimension")
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}"
            )
        q = field.q
        for e in entries:
            if not 0 <= e < q:
                raise DimensionMismatch(f"entry {e} is not an element of GF({q})")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def _unchecked(cls, field: Field, rows: int, cols: int, entries: tuple) -> "Matrix":
        """A matrix from a tuple of rows * cols elements of field, as built
        by the package's own field operations; nothing is checked."""
        m = cls.__new__(cls)
        m.field, m.rows, m.cols, m.entries = field, rows, cols, entries
        return m

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence[int]]) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = []
        for r in rows:
            if len(r) != ncols:
                raise DimensionMismatch("ragged rows")
            flat.extend(r)
        return cls(field, nrows, ncols, flat)

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols} over {self.field!r})"


def identity(field: Field, n: int) -> Matrix:
    entries = [0] * (n * n)
    for i in range(n):
        entries[i * n + i] = 1
    return Matrix._unchecked(field, n, n, tuple(entries))


def anti_identity(field: Field, n: int) -> Matrix:
    """The reversal matrix: ones on the anti-diagonal, zero elsewhere."""
    entries = [0] * (n * n)
    for i in range(n):
        entries[i * n + n - 1 - i] = 1
    return Matrix._unchecked(field, n, n, tuple(entries))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """a @ b: a's columns packed once, then one dot_columns per column of
    b."""
    return matmul_each((a,), b)[0]


def matmul_each(mats: Sequence[Matrix], b: Matrix) -> tuple[Matrix, ...]:
    """The products m @ b for each m in mats, as one product of their
    stack: its columns packed once, one dot_columns per column of b over
    the whole stack, and the stacked product cut back into the products.
    Over short columns most of a GF(2^s) dot_columns call is a fixed cost
    per bit plane, so one call over the stack replaces len(mats) of them."""
    field, k, c = b.field, b.rows, b.cols
    for a in mats:
        if a.field != field:
            raise DimensionMismatch("matrices over different fields")
        if a.cols != k:
            raise DimensionMismatch(f"cannot multiply {a.rows}x{a.cols} by {k}x{c}")
    if not k or not c:
        return tuple(Matrix._unchecked(field, a.rows, c, (0,) * (a.rows * c)) for a in mats)
    # Column j of the stacked product, held compact until it is cut.
    cols = field.columns([a.entries for a in mats], k)
    prods = [array("I", field.dot_columns(cols, b.entries[j::c])) for j in range(c)]
    out, lo = [], 0
    for a in mats:
        hi = lo + a.rows
        rows = chain.from_iterable(zip(*[col[lo:hi] for col in prods]))
        out.append(Matrix._unchecked(field, a.rows, c, tuple(rows)))
        lo = hi
    return tuple(out)


def matvec(a: Matrix, v: Sequence[int]) -> tuple[int, ...]:
    """a @ v, by the field's dot_columns on a's columns."""
    if len(v) != a.cols:
        raise DimensionMismatch(f"vector of length {len(v)} against {a.rows}x{a.cols}")
    if not v:
        return (0,) * a.rows
    field = a.field
    return tuple(field.dot_columns(field.columns((a.entries,), len(v)), v))


def rank(a: Matrix) -> int:
    """The number of rows of a that the field's insert_row accepts into one
    echelon basis of a.cols slots."""
    insert_row, basis = a.field.insert_row, [None] * a.cols
    return sum(insert_row(basis, a.row(i)) >= 0 for i in range(a.rows))


def solve(a: Matrix, y: Sequence[int]) -> tuple[int, ...]:
    """The unique x with a @ x == y, for a of full column rank.

    Every augmented row (a_i, y_i) is inserted into one echelon basis of
    n + 1 slots with the field's insert_row; x comes from back-substitution
    on the stored rows. The rank of a is the number of filled slots among
    the first n, and rank deficiency is reported first. With full rank, a
    filled slot n means the redundant rows contradict the others: that
    raises Inconsistent rather than being discarded.
    """
    if len(y) != a.rows:
        raise DimensionMismatch(f"right-hand side of length {len(y)} against {a.rows} rows")
    n = a.cols
    field = a.field
    insert_row = field.insert_row
    basis = [None] * (n + 1)
    for i in range(a.rows):
        insert_row(basis, (*a.row(i), y[i]))
    r = n - basis[:n].count(None)
    if r < n:
        raise RankDeficient(f"coefficient matrix has rank {r} < {n}")
    if basis[n] is not None:
        raise Inconsistent("redundant rows contradict the solution")
    return tuple(field.back_substitute(basis))


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; block (i, j) equals a[i, j] * b."""
    if a.field != b.field:
        raise DimensionMismatch("matrices over different fields")
    field = a.field
    mul = field.mul
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    out = [0] * (rows * cols)
    for i1 in range(a.rows):
        for j1 in range(a.cols):
            v = a.at(i1, j1)
            if not v:
                continue
            for i2 in range(b.rows):
                base = (i1 * b.rows + i2) * cols + j1 * b.cols
                for j2 in range(b.cols):
                    w = b.at(i2, j2)
                    if w:
                        out[base + j2] = mul(v, w)
    return Matrix._unchecked(field, rows, cols, tuple(out))


def stack_prefixes(matrices: Sequence[Matrix], ks: Sequence[int]) -> Matrix:
    """Stack the first ks[l] rows of each square matrix, in index order."""
    if not matrices:
        raise DimensionMismatch("no matrices to stack")
    if len(ks) != len(matrices):
        raise DimensionMismatch(f"{len(ks)} prefix lengths for {len(matrices)} matrices")
    field = matrices[0].field
    n = matrices[0].rows
    flat = []
    total = 0
    for m, k in zip(matrices, ks):
        if m.rows != n or m.cols != n or m.field != field:
            raise DimensionMismatch("matrices must be square, same size, same field")
        if not 0 <= k <= n:
            raise DimensionMismatch(f"prefix length {k} out of range [0, {n}]")
        flat.extend(m.entries[: k * n])
        total += k
    return Matrix._unchecked(field, total, n, tuple(flat))


def left_null_vector(b: Matrix) -> tuple[int, ...]:
    """A nonzero v with v @ b == 0, for b of shape (n+1) x n.

    Deterministic: b's rows are inserted in order with the field's
    insert_row, and f is the last row it refuses. Then v[f] = 1, the rows
    accepted before f take the coefficients that cancel row f, found by
    solve on their transpose (unique, as those rows are independent), and
    every other entry is 0. That is the vector that eliminating b's
    transpose gives with its highest-index free variable set to 1 and every
    other free variable to 0.
    """
    if b.rows != b.cols + 1:
        raise DimensionMismatch(f"expected an (n+1) x n matrix, got {b.rows}x{b.cols}")
    field, n = b.field, b.cols
    insert_row, basis = field.insert_row, [None] * n
    kept = []
    for i in range(b.rows):
        if insert_row(basis, b.row(i)) >= 0:
            kept.append(i)
        else:
            f, k = i, len(kept)
    kept = kept[:k]
    t = Matrix._unchecked(field, n, k, tuple(b.entries[i * n + j] for j in range(n) for i in kept))
    x = [0] * b.rows
    for i, c in zip(kept, solve(t, [field.neg(v) for v in b.row(f)])):
        x[i] = c
    x[f] = 1
    return tuple(x)
