"""Dense exact matrices and vectors over a Field.

Matrices are immutable: a row-major tuple of int-encoded elements plus the
owning field. Vectors are plain sequences of ints. Elimination uses
first-nonzero pivoting scanning top-down; there is no magnitude to prefer
over an exact field, and the fixed rule keeps every witness reproducible.

solve, matvec and matmul, the decode and transform paths and the encode
reference, run on the field's row kernels (Field.insert_row,
back_substitute, dot_rows and matmul), whose stored-row format stays inside
gf; codec.encode packs a family's columns once with Field.columns and
multiplies by dot_columns, the kernel under dot_rows. Over every field whose
elements pack into one byte (GF(2^s) for s <= 8, odd primes up to 127,
GF(9), GF(25) and GF(49)) those kernels act on whole byte rows, so solve
is O(n^2) C-level row steps rather than O(n^3) Python steps per element,
and matmul packs each row of b once and adds one scaled row per nonzero
entry of a. rank and left_null_vector eliminate with per-element Field
calls, an independent path that the verify tests use as their oracle.
"""

from __future__ import annotations

from collections.abc import Sequence

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
    """a @ b through the field's matmul kernel, handed the flat entries."""
    if a.field != b.field:
        raise DimensionMismatch("matrices over different fields")
    if a.cols != b.rows:
        raise DimensionMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    if not a.cols or not b.cols:
        return Matrix._unchecked(a.field, a.rows, b.cols, (0,) * (a.rows * b.cols))
    out = a.field.matmul(a.entries, b.entries, a.cols)
    return Matrix._unchecked(a.field, a.rows, b.cols, tuple(out))


def matvec(a: Matrix, v: Sequence[int]) -> tuple[int, ...]:
    """a @ v, one dot product of v with each row through the field's
    dot_rows kernel, handed the flat entries."""
    if len(v) != a.cols:
        raise DimensionMismatch(f"vector of length {len(v)} against {a.rows}x{a.cols}")
    if not v:
        return (0,) * a.rows
    return tuple(a.field.dot_rows(a.entries, v))


def _forward_eliminate(rows: list[list[int]], ncols: int, field: Field) -> list[int]:
    """In-place row echelon over the first ncols columns; returns pivot columns.

    Pivot rows come out normalized to a leading 1. Row operations act on full
    rows, so trailing augmented columns are carried along.
    """
    inv, mul, sub = field.inv, field.mul, field.sub
    pivots = []
    r = 0
    nrows = len(rows)
    width = len(rows[0]) if rows else 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        if piv != 1:
            k = inv(piv)
            rows[r] = [mul(k, v) for v in rows[r]]
        prow = rows[r]
        for i in range(r + 1, nrows):
            f = rows[i][c]
            if f:
                ri = rows[i]
                rows[i] = [sub(ri[j], mul(f, prow[j])) for j in range(width)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rank(a: Matrix) -> int:
    return len(_forward_eliminate(a.to_lists(), a.cols, a.field))


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
    return tuple(field.back_substitute(basis, n))


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

    Deterministic: under first-nonzero pivoting on the transpose, the
    highest-index free variable is set to 1 and every other free variable
    to 0.
    """
    if b.rows != b.cols + 1:
        raise DimensionMismatch(f"expected an (n+1) x n matrix, got {b.rows}x{b.cols}")
    field = b.field
    m = b.rows
    rows = [[b.at(i, j) for i in range(m)] for j in range(b.cols)]
    pivots = _forward_eliminate(rows, m, field) if rows else []
    pivot_set = set(pivots)
    free = [c for c in range(m) if c not in pivot_set]
    x = [0] * m
    x[free[-1]] = 1
    add, mul, neg = field.add, field.mul, field.neg
    for idx in reversed(range(len(pivots))):
        pc = pivots[idx]
        row = rows[idx]
        acc = 0
        for c in range(pc + 1, m):
            if row[c] and x[c]:
                acc = add(acc, mul(row[c], x[c]))
        x[pc] = neg(acc)
    return tuple(x)
