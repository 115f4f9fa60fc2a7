"""Exact matrix operations: rank, solve, products, prefix stacks, null vectors.

rank, solve, left_null_vector and matvec run on the field's row kernels;
gaussian_rank, solve_gaussian, gaussian_left_null_vector and naive_matvec
below are their independent references, built on per-element Field calls.
The verify, decode and transform tests check against them too.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udm.cli import parse_matrix_arg
from udm.errors import DimensionMismatch, Inconsistent, ParseError, RankDeficient
from udm.gf import Field
from udm.linalg import (
    Matrix,
    anti_identity,
    identity,
    kron,
    left_null_vector,
    matmul,
    matmul_each,
    matvec,
    rank,
    solve,
    stack_prefixes,
)

F2 = Field(2)
F3 = Field(3)
F5 = Field(5)

# The standard (4, 3, 3) family, frozen; reused as stacking input below.
A2_GF3 = Matrix.from_rows(F3, [[1, 1, 1], [0, 1, 2], [0, 0, 1]])
A3_GF3 = Matrix.from_rows(F3, [[1, 2, 1], [0, 1, 1], [0, 0, 1]])


# -- independent oracles --------------------------------------------------------


def det_oracle(field, rows):
    """Determinant by Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    acc = 0
    sign = 1
    for j in range(n):
        if rows[0][j]:
            minor = [[r[c] for c in range(n) if c != j] for r in rows[1:]]
            term = field.mul(rows[0][j], det_oracle(field, minor))
            acc = field.add(acc, term if sign > 0 else field.neg(term))
        sign = -sign
    return acc


def rank_oracle(field, rows):
    """Largest r with a nonvanishing r x r minor, by full enumeration."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    for r in range(min(nrows, ncols), 0, -1):
        for rsel in itertools.combinations(range(nrows), r):
            for csel in itertools.combinations(range(ncols), r):
                minor = [[rows[i][j] for j in csel] for i in rsel]
                if det_oracle(field, minor) != 0:
                    return r
    return 0


def random_matrix(rng, field, rows, cols):
    return Matrix(field, rows, cols, [rng.randrange(field.q) for _ in range(rows * cols)])


def gaussian_eliminate(rows, ncols, field):
    """In-place row echelon over the first ncols columns, first-nonzero
    pivoting top-down; returns the pivot columns.

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


def gaussian_rank(a):
    """The rank of a by Gaussian elimination, the reference for rank and
    for every rank that verify reports."""
    return len(gaussian_eliminate(a.to_lists(), a.cols, a.field))


def gaussian_left_null_vector(b):
    """The reference for left_null_vector: eliminate the transpose of b,
    set its highest-index free variable to 1, every other free variable
    to 0, and back-substitute."""
    field = b.field
    m = b.rows
    rows = [[b.at(i, j) for i in range(m)] for j in range(b.cols)]
    pivots = gaussian_eliminate(rows, m, field)
    free = [c for c in range(m) if c not in pivots]
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


def solve_gaussian(a, y):
    """Gaussian elimination of the augmented rows [a | y], the reference
    for solve and decode: pivots over the first n columns, rank deficiency
    first, then any redundant row left with a nonzero right-hand side."""
    if len(y) != a.rows:
        raise DimensionMismatch(f"right-hand side of length {len(y)} against {a.rows} rows")
    n = a.cols
    field = a.field
    rows = [list(a.row(i)) + [y[i]] for i in range(a.rows)]
    pivots = gaussian_eliminate(rows, n, field)
    if len(pivots) < n:
        raise RankDeficient(f"coefficient matrix has rank {len(pivots)} < {n}")
    for i in range(n, a.rows):
        if rows[i][n]:
            raise Inconsistent("redundant rows contradict the solution")
    sub, mul = field.sub, field.mul
    x = [0] * n
    for i in reversed(range(n)):
        acc = rows[i][n]
        row = rows[i]
        for j in range(i + 1, n):
            if row[j] and x[j]:
                acc = sub(acc, mul(row[j], x[j]))
        x[i] = acc
    return tuple(x)


def outcome(fn, *args):
    """fn's result, or its exception's type and message."""
    try:
        return fn(*args)
    except (RankDeficient, Inconsistent) as exc:
        return type(exc), str(exc)


def naive_matvec(field, a, v):
    out = []
    for i in range(a.rows):
        acc = 0
        for j in range(a.cols):
            acc = field.add(acc, field.mul(a.at(i, j), v[j]))
        out.append(acc)
    return tuple(out)


# Every arithmetic path: prime fields, characteristic 2, odd extensions;
# on both sides of the byte-row kernels' range in odd characteristic,
# GF(9), GF(25) and GF(49) against GF(27).
ORACLE_FIELDS = [
    Field(p, s)
    for p, s in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2)]
]
# The other edges of the byte-row range: the largest prime it covers and
# the next one, GF(81), and GF(2^8) against GF(2^9) and GF(2^16).
BYTE_ROW_EDGES = [Field(p, s) for p, s in [(127, 1), (131, 1), (3, 4), (2, 8), (2, 9), (2, 16)]]
# Every element encoding of insert_row, on both sides of the byte-row range:
# GF(131), GF(27), GF(81), GF(2^9) and GF(2^16) keep the per-element rows.
ROW_ENCODINGS = [
    (2, 1), (7, 1), (127, 1), (131, 1), (2, 3), (2, 4), (2, 8), (2, 9), (2, 16), (3, 2), (5, 2),
    (7, 2), (3, 3), (3, 4),
]


# -- identity and reversal ---------------------------------------------------------


def test_identity_and_anti_identity():
    assert identity(F2, 2).to_lists() == [[1, 0], [0, 1]]
    assert anti_identity(F3, 3).to_lists() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    assert identity(F3, 0).rows == 0


def test_anti_identity_is_an_involution():
    for n in range(9):
        j = anti_identity(F3, n)
        assert matmul(j, j) == identity(F3, n)


# -- products -----------------------------------------------------------------------


def test_identity_multiplication():
    rng = random.Random(1)
    a = random_matrix(rng, F3, 3, 4)
    assert matmul(identity(F3, 3), a) == a


def test_matvec_known_column():
    assert matvec(A2_GF3, (1, 0, 0)) == (1, 0, 0)


def test_product_associativity_with_vectors():
    rng = random.Random(2)
    for _ in range(30):
        a = random_matrix(rng, F5, 3, 3)
        b = random_matrix(rng, F5, 3, 3)
        v = tuple(rng.randrange(5) for _ in range(3))
        assert matvec(matmul(a, b), v) == matvec(a, matvec(b, v))


@pytest.mark.parametrize("field", ORACLE_FIELDS + BYTE_ROW_EDGES, ids=repr)
def test_matmul_columns_match_the_naive_loop(field):
    rng = random.Random(field.q)
    for _ in range(12):
        r, k, c = (rng.randrange(0, 6) for _ in range(3))
        a = Matrix(field, r, k, [rng.randrange(field.q) * rng.randrange(2) for _ in range(r * k)])
        b = random_matrix(rng, field, k, c)
        product = matmul(a, b)
        for j in range(c):
            column = naive_matvec(field, a, [b.at(t, j) for t in range(k)])
            assert tuple(product.at(i, j) for i in range(r)) == column


@pytest.mark.parametrize("field", [Field(2, 8), Field(5, 2), Field(131), Field(3, 3)], ids=repr)
def test_matmul_each_matches_the_naive_loop(field):
    # Byte rows of both characteristics and two per-element fields: left
    # operands of different heights, 0 among them, with k = 0 and c = 0,
    # give the naive products, and each is the one matmul gives alone.
    rng = random.Random(field.q + 5)
    assert matmul_each((), identity(field, 3)) == ()
    for k, c in ((0, 3), (3, 0), (0, 0), (1, 1), (4, 3), (6, 6), (8, 5)):
        for heights in ((2, 0, 5, 1), (0,), (0, 0), (40, 3, 40)):
            mats = [random_matrix(rng, field, r, k) for r in heights]
            b = random_matrix(rng, field, k, c)
            got = matmul_each(mats, b)
            assert len(got) == len(mats)
            for a, m in zip(mats, got):
                columns = [naive_matvec(field, a, b.entries[j::c]) for j in range(c)]
                want = [columns[j][i] for i in range(a.rows) for j in range(c)]
                assert m == Matrix(field, a.rows, c, want)
                assert m == matmul(a, b)


@pytest.mark.parametrize("p, s", ROW_ENCODINGS)
def test_columns_and_dot_columns_multiply_the_stack(p, s):
    # columns stacks its blocks and dot_columns returns the stack times v,
    # whatever form the packed columns take: 1-3 blocks of rows 1-6 wide,
    # some blocks empty, and v with zeros, all zero among them. A unit
    # vector picks out its column of the stack.
    field = Field(p, s)
    q = field.q
    rng = random.Random(p * 100 + s)
    for _ in range(40):
        width = rng.randint(1, 6)
        sizes = [width * rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        pick = [0, 0, 1, q - 1]
        blocks = [tuple(rng.choice(pick + [rng.randrange(q)]) for _ in range(k)) for k in sizes]
        stack = Matrix(field, sum(sizes) // width, width, [x for b in blocks for x in b])
        cols = field.columns(blocks, width)
        for j in range(width):
            unit = [0] * width
            unit[j] = 1
            assert field.dot_columns(cols, unit) == list(stack.entries[j::width])
        # The packed columns serve every vector.
        for v in ([0] * width, [rng.choice([0, rng.randrange(q)]) for _ in range(width)]):
            assert tuple(field.dot_columns(cols, v)) == naive_matvec(field, stack, v)


@pytest.mark.parametrize("s", range(1, 9))
def test_dot_columns_over_long_columns_in_characteristic_2(s):
    # Columns of 300-400 bytes and nonzero symbols, q - 1 among them, so
    # that every bit of a symbol is set somewhere and the shifted products
    # need reducing by the modulus in many entries.
    field = Field(2, s)
    q = field.q
    rng = random.Random(s)
    for _ in range(3):
        width = rng.randint(1, 9)
        stack = random_matrix(rng, field, rng.randint(300, 400), width)
        cols = field.columns((stack.entries,), width)
        v = [q - 1] + [rng.randrange(1, q) for _ in range(width - 1)]
        rng.shuffle(v)
        assert tuple(field.dot_columns(cols, v)) == naive_matvec(field, stack, v)


@pytest.mark.parametrize("p, s", ROW_ENCODINGS)
def test_dot_columns_of_terms_that_cancel_is_zero(p, s):
    # Columns a, b and k * a + b with v = (k, 1, -1): no term is a zero
    # column, and the sum is zero in every one of 300 entries.
    field = Field(p, s)
    q, mul, add = field.q, field.mul, field.add
    rng = random.Random(q + s)
    k = rng.randrange(1, q)
    rows = []
    for _ in range(300):
        a, b = rng.randrange(1, q), rng.randrange(q)
        rows += (a, b, add(mul(k, a), b))
    cols = field.columns((rows,), 3)
    assert field.dot_columns(cols, (k, 1, field.neg(1))) == [0] * 300


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        matmul(identity(F3, 2), identity(F3, 3))
    with pytest.raises(DimensionMismatch):
        matvec(identity(F3, 2), (1, 0, 0))
    with pytest.raises(DimensionMismatch):
        Matrix(F3, 2, 2, [0, 1, 2])
    with pytest.raises(DimensionMismatch):
        Matrix(F3, 1, 2, [0, 5])


def test_public_constructors_still_check_entries():
    # Only linalg's own results skip the entry check; what comes from
    # outside is still checked on every public path.
    for bad in (-1, 3, 4):
        with pytest.raises(DimensionMismatch):
            Matrix(F3, 2, 2, [0, 1, bad, 2])
        with pytest.raises(DimensionMismatch):
            Matrix.from_rows(F3, [[0, 1], [bad, 2]])
        with pytest.raises(ParseError):
            parse_matrix_arg(F3, f"0 1; {bad} 2", 2)
    rng = random.Random(12)
    a, b = random_matrix(rng, F5, 3, 4), random_matrix(rng, F5, 4, 2)
    for m in (identity(F5, 4), anti_identity(F5, 4), matmul(a, b), kron(a, b)):
        assert Matrix(m.field, m.rows, m.cols, m.entries) == m


# -- rank ------------------------------------------------------------------------------


def test_rank_of_stacked_identity_reversal():
    # First 3 rows of I_5 over the first 2 rows of J_5.
    rows = [
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1],
        [0, 0, 0, 1, 0],
    ]
    for field in (F2, F3):
        assert rank(Matrix.from_rows(field, rows)) == 5


def test_rank_identity():
    for n in range(6):
        assert rank(identity(F3, n)) == n


def test_rank_duplicated_row_drops():
    rng = random.Random(3)
    for _ in range(25):
        rows = [[rng.randrange(3) for _ in range(3)] for _ in range(2)]
        rows.append(list(rows[0]))
        m = Matrix.from_rows(F3, rows)
        assert rank(m) < 3
        assert rank(m) == rank_oracle(F3, rows)


def test_rank_matches_minor_oracle_exhaustive_gf2():
    for nrows, ncols in [(1, 1), (2, 2), (2, 3), (3, 3)]:
        for bits in itertools.product(range(2), repeat=nrows * ncols):
            rows = [list(bits[i * ncols : (i + 1) * ncols]) for i in range(nrows)]
            assert rank(Matrix.from_rows(F2, rows)) == rank_oracle(F2, rows)


def test_rank_matches_minor_oracle_exhaustive_gf3_2x2():
    for vals in itertools.product(range(3), repeat=4):
        rows = [list(vals[:2]), list(vals[2:])]
        assert rank(Matrix.from_rows(F3, rows)) == rank_oracle(F3, rows)


def test_rank_matches_minor_oracle_sampled():
    rng = random.Random(4)
    for field in (F2, F3, F5):
        for _ in range(60):
            nrows = rng.randrange(1, 5)
            ncols = rng.randrange(1, 5)
            m = random_matrix(rng, field, nrows, ncols)
            assert rank(m) == rank_oracle(field, m.to_lists())


def test_rank_of_empty_matrix():
    assert rank(Matrix(F3, 0, 3, [])) == 0


# -- solve ------------------------------------------------------------------------------


def test_solve_identity():
    assert solve(identity(F3, 3), (2, 0, 1)) == (2, 0, 1)


def test_solve_round_trip_random():
    rng = random.Random(5)
    for field in (F2, F3, F5):
        done = 0
        while done < 20:
            a = random_matrix(rng, field, 3, 3)
            if rank(a) < 3:
                continue
            u = tuple(rng.randrange(field.q) for _ in range(3))
            assert solve(a, matvec(a, u)) == u
            done += 1


def test_solve_overdetermined_consistent_and_not():
    a = Matrix.from_rows(F3, [[1, 0], [0, 1], [1, 1]])
    u = (2, 1)
    y = list(matvec(a, u))
    assert solve(a, y) == u
    y[2] = F3.add(y[2], 1)
    with pytest.raises(Inconsistent):
        solve(a, y)


def test_solve_rank_deficient():
    a = Matrix.from_rows(F3, [[1, 0], [2, 0], [1, 0]])  # zero column
    with pytest.raises(RankDeficient):
        solve(a, (1, 2, 1))
    with pytest.raises(RankDeficient):
        solve(Matrix.from_rows(F3, [[1, 2]]), (1,))  # wide: rank < cols


def test_solve_rhs_length_checked():
    with pytest.raises(DimensionMismatch):
        solve(identity(F3, 2), (1, 2, 0))


def random_system(rng, field, rows, cols):
    """A seeded matrix, often sparse, with zero and repeated rows, and a
    right-hand side that is consistent about half of the time."""
    density = rng.choice((0.3, 0.7, 1.0))
    entries = [
        rng.randrange(1, field.q) if rng.random() < density else 0 for _ in range(rows * cols)
    ]
    for i in range(rows):
        r = rng.random()
        if r < 0.1:
            entries[i * cols : (i + 1) * cols] = [0] * cols
        elif r < 0.2 and i:
            j = rng.randrange(i)
            entries[i * cols : (i + 1) * cols] = entries[j * cols : (j + 1) * cols]
    a = Matrix(field, rows, cols, entries)
    if rng.random() < 0.5:
        y = naive_matvec(field, a, [rng.randrange(field.q) for _ in range(cols)])
    else:
        y = tuple(rng.randrange(field.q) for _ in range(rows))
    return a, y


@pytest.mark.parametrize("field", ORACLE_FIELDS + BYTE_ROW_EDGES, ids=repr)
def test_solve_matches_gaussian_reference(field):
    # Square, tall and wide systems, rows = 0 and n = 0 included: the same
    # solution, or the same exception with the same rank in its message.
    rng = random.Random(field.q * 31 + field.p)
    seen = {"ok": 0, RankDeficient: 0, Inconsistent: 0}
    for _ in range(400):
        a, y = random_system(rng, field, rng.randrange(0, 8), rng.randrange(0, 6))
        got, want = outcome(solve, a, y), outcome(solve_gaussian, a, y)
        assert got == want, (a.to_lists(), y)
        seen[want[0] if want and isinstance(want[0], type) else "ok"] += 1
    assert min(seen.values()) >= 20, seen
    # Unit rows, and a zero row whose right-hand side alone is nonzero.
    top = field.q - 1
    for n in range(1, 6):
        y = tuple((top - i) % field.q for i in range(n))
        assert solve(identity(field, n), y) == y
        assert solve(anti_identity(field, n), y) == y[::-1]
        a = Matrix(field, n + 1, n, identity(field, n).entries + (0,) * n)
        assert solve(a, y + (0,)) == y
        with pytest.raises(Inconsistent):
            solve(a, y + (top,))


# Both sides of the byte rows: GF(7) and GF(25) take them, GF(27), GF(131)
# and GF(2^9) the per-element kernels, as do the largest prime and the
# largest odd extension.
LARGEST = [Field(65521), Field(3, 10)]
BACK_SUBSTITUTE_FIELDS = [
    Field(p, s) for p, s in [(7, 1), (5, 2), (3, 3), (131, 1), (2, 9)]
] + LARGEST


@pytest.mark.parametrize("field", BACK_SUBSTITUTE_FIELDS, ids=repr)
def test_back_substitute_solves_k_right_hand_sides_at_once(field):
    # The n rows of [a | y_0 ... y_{k-1}] for an invertible a, inserted into
    # one basis of n + k slots: column t of back_substitute(basis, n) is
    # solve(a, y_t), which equals the Gaussian reference. Zero right-hand
    # sides and unit rows, whose stored tails may be empty, are among them.
    rng = random.Random(field.q * 17 + field.s)
    for trial in range(60):
        n, k = rng.randint(1, 6), rng.randint(1, 5)
        if trial % 4 == 0:
            a = (identity if trial % 8 else anti_identity)(field, n)
        else:
            a = random_matrix(rng, field, n, n)
            if rank(a) < n:
                continue
        density = rng.choice((0.0, 0.4, 1.0))
        ys = [
            tuple(rng.randrange(field.q) if rng.random() < density else 0 for _ in range(n))
            for _ in range(k)
        ]
        basis = [None] * (n + k)
        for i in range(n):
            assert 0 <= field.insert_row(basis, a.row(i) + tuple(y[i] for y in ys)) < n
        x = field.back_substitute(basis, n)
        assert len(x) == n * k
        for t, y in enumerate(ys):
            assert tuple(x[t::k]) == solve(a, y) == solve_gaussian(a, y)
    # k = n with the reversal as the right-hand sides: x is a^-1 J.
    for n in range(1, 7):
        a = random_matrix(rng, field, n, n)
        while rank(a) < n:
            a = random_matrix(rng, field, n, n)
        rev = anti_identity(field, n)
        basis = [None] * (2 * n)
        for i in range(n):
            field.insert_row(basis, a.row(i) + rev.row(i))
        assert matmul(a, Matrix(field, n, n, field.back_substitute(basis, n))) == rev


@pytest.mark.parametrize("field", ORACLE_FIELDS + BYTE_ROW_EDGES + LARGEST, ids=repr)
def test_back_substitute_on_dense_bases_matches_the_reference(field):
    # Dense invertible a and dense right-hand sides, k in {1, 2, n}: k = 1
    # takes the byte-row kernel's column form, k > 1 its row form, the
    # per-element kernel its column form for every k, and every column of
    # x is the Gaussian solution computed with per-element Field calls.
    rng = random.Random(field.q * 7 + field.s)
    for n in (1, 2, 5, 12, 24):
        a = random_matrix(rng, field, n, n)
        while rank(a) < n:
            a = random_matrix(rng, field, n, n)
        for k in sorted({1, 2, n}):
            ys = [[rng.randrange(field.q) for _ in range(n)] for _ in range(k)]
            basis = [None] * (n + k)
            for i in range(n):
                field.insert_row(basis, a.row(i) + tuple(y[i] for y in ys))
            x = field.back_substitute(basis, n)
            assert [tuple(x[t::k]) for t in range(k)] == [solve_gaussian(a, y) for y in ys]


def test_solve_reports_rank_deficiency_before_contradiction():
    # Both rows of a repeat the same coefficients with different right-hand
    # sides, and the second column is zero: rank 1 < 2 must win.
    for field in ORACLE_FIELDS:
        a = Matrix.from_rows(field, [[1, 0], [1, 0], [0, 0]])
        for y in ((0, 1, 0), (1, 0, 1), (0, 0, 1)):
            with pytest.raises(RankDeficient, match="rank 1 < 2"):
                solve(a, y)
            assert outcome(solve, a, y) == outcome(solve_gaussian, a, y)


def test_solve_edge_shapes():
    assert solve(Matrix(F5, 0, 0, []), ()) == ()
    assert solve(Matrix(F5, 2, 0, []), (0, 0)) == ()
    with pytest.raises(Inconsistent):
        solve(Matrix(F5, 2, 0, []), (0, 3))
    with pytest.raises(RankDeficient, match="rank 0 < 3"):
        solve(Matrix(F5, 0, 3, []), ())


@settings(max_examples=60)
@given(data=st.data())
def test_property_solve_equals_gaussian_over_small_char_2_fields(data):
    # GF(2^s) for s <= 9: the byte-row kernels and, at s = 9, the log rows.
    field = Field(2, data.draw(st.integers(1, 9)))
    rows, cols = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 6))
    element = st.one_of(st.just(0), st.integers(0, field.q - 1))

    def vector(size):
        return data.draw(st.lists(element, min_size=size, max_size=size))

    a = Matrix(field, rows, cols, vector(rows * cols))
    y = naive_matvec(field, a, vector(cols)) if data.draw(st.booleans()) else vector(rows)
    assert outcome(solve, a, y) == outcome(solve_gaussian, a, y)


# -- matvec --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "p, s",
    [(7, 1), (127, 1), (131, 1), (2, 1), (2, 4), (2, 8), (2, 9), (5, 2), (7, 2), (3, 3), (3, 10),
     (2, 16)],
)
def test_matvec_matches_naive_loop(p, s):
    field = Field(p, s)
    rng = random.Random(p * 1000 + s)
    for trial in range(120):
        rows, cols = rng.randrange(0, 7), rng.randrange(0, 9)
        density = rng.choice((0.0, 0.3, 1.0))
        a = Matrix(
            field,
            rows,
            cols,
            [rng.randrange(1, field.q) if rng.random() < density else 0 for _ in range(rows * cols)],
        )
        if trial % 5 == 0:
            v = [0] * cols
        else:
            # Extremes of the log range too: 1 = alpha**0 and alpha**(q-2).
            pool = (0, 1, field.q - 1, field.pow(field.primitive_element(), field.q - 2))
            v = [
                rng.choice(pool) if rng.random() < 0.3 else rng.randrange(field.q)
                for _ in range(cols)
            ]
        assert matvec(a, v) == naive_matvec(field, a, v)


# -- kron --------------------------------------------------------------------------------


def test_kron_identities():
    assert kron(identity(F2, 2), identity(F2, 2)) == identity(F2, 4)


def test_kron_mixed_product():
    rng = random.Random(6)
    for _ in range(20):
        a = random_matrix(rng, F3, 2, 3)
        c = random_matrix(rng, F3, 3, 2)
        b = random_matrix(rng, F3, 2, 2)
        d = random_matrix(rng, F3, 2, 3)
        assert kron(matmul(a, c), matmul(b, d)) == matmul(kron(a, b), kron(c, d))


def test_kron_rank_is_multiplicative():
    rng = random.Random(7)
    for _ in range(30):
        a = random_matrix(rng, F2, rng.randrange(1, 4), rng.randrange(1, 4))
        b = random_matrix(rng, F2, rng.randrange(1, 4), rng.randrange(1, 4))
        assert rank(kron(a, b)) == rank(a) * rank(b)


# -- stack_prefixes ------------------------------------------------------------------------


def test_stack_prefixes_known_checks():
    mats = [identity(F3, 3), anti_identity(F3, 3), A2_GF3, A3_GF3]
    assert stack_prefixes(mats, (0, 0, 1, 2)).to_lists() == [
        [1, 1, 1],
        [1, 2, 1],
        [0, 1, 1],
    ]
    assert stack_prefixes(mats, (0, 0, 3, 0)) == A2_GF3
    assert stack_prefixes(mats, (1, 1, 0, 1)).to_lists() == [
        [1, 0, 0],
        [0, 0, 1],
        [1, 2, 1],
    ]


def test_stack_prefixes_edges():
    mats = [identity(F3, 3), anti_identity(F3, 3)]
    assert stack_prefixes(mats, (3, 0)) == identity(F3, 3)
    empty = stack_prefixes(mats, (0, 0))
    assert empty.rows == 0 and empty.cols == 3
    with pytest.raises(DimensionMismatch):
        stack_prefixes(mats, (4, 0))
    with pytest.raises(DimensionMismatch):
        stack_prefixes(mats, (1,))


# -- left null vectors ------------------------------------------------------------------------


def test_left_null_vector_simple():
    b = Matrix.from_rows(F3, [[1, 0], [0, 1], [1, 1]])
    v = left_null_vector(b)
    assert v == (2, 2, 1)  # a scalar multiple of (1, 1, -1)
    for j in range(2):
        acc = 0
        for i in range(3):
            acc = F3.add(acc, F3.mul(v[i], b.at(i, j)))
        assert acc == 0


def test_left_null_vector_zero_last_row():
    b = Matrix.from_rows(F3, [[1, 2], [0, 1], [0, 0]])
    assert left_null_vector(b) == (0, 0, 1)


def test_left_null_vector_orthogonal_and_nonzero():
    rng = random.Random(8)
    for field in (F2, F3, F5):
        for _ in range(40):
            n = rng.randrange(1, 4)
            b = Matrix(field, n + 1, n, [rng.randrange(field.q) for _ in range((n + 1) * n)])
            v = left_null_vector(b)
            assert any(v)
            for j in range(n):
                acc = 0
                for i in range(n + 1):
                    acc = field.add(acc, field.mul(v[i], b.at(i, j)))
                assert acc == 0


def test_left_null_space_is_one_dimensional_for_full_rank():
    # For rank-n input every annihilating vector is a scalar multiple of the
    # returned one; exhaustive over all vectors of the small field.
    rng = random.Random(9)
    for field in (F2, F3):
        found = 0
        while found < 10:
            n = 2
            b = Matrix(field, n + 1, n, [rng.randrange(field.q) for _ in range((n + 1) * n)])
            if rank(b) < n:
                continue
            found += 1
            v = left_null_vector(b)
            multiples = {tuple(field.mul(c, x) for x in v) for c in range(field.q)}
            for cand in itertools.product(range(field.q), repeat=n + 1):
                ok = True
                for j in range(n):
                    acc = 0
                    for i in range(n + 1):
                        acc = field.add(acc, field.mul(cand[i], b.at(i, j)))
                    if acc != 0:
                        ok = False
                        break
                if ok:
                    assert cand in multiples


def test_left_null_vector_requires_tall_shape():
    with pytest.raises(DimensionMismatch):
        left_null_vector(identity(F3, 3))


def rows_with_dependencies(rng, field, nrows, ncols):
    """nrows random rows of width ncols, some of them zero, copies or
    scaled copies of earlier ones."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if rows and kind < 0.4:
            c = 1 if kind < 0.2 else rng.randrange(1, field.q)
            rows.append([field.mul(c, v) for v in rng.choice(rows)])
        elif kind < 0.5:
            rows.append([0] * ncols)
        else:
            rows.append([rng.randrange(field.q) if rng.random() < 0.7 else 0 for _ in range(ncols)])
    return rows


@pytest.mark.parametrize("p, s", ROW_ENCODINGS)
def test_rank_and_left_null_vector_match_gaussian_elimination(p, s):
    field = Field(p, s)
    rng = random.Random(p * 1000 + s)
    for _ in range(80):
        r, c = rng.randint(0, 8), rng.randint(0, 7)
        a = Matrix(field, r, c, sum(rows_with_dependencies(rng, field, r, c), []))
        assert rank(a) == gaussian_rank(a)
    # Null vectors for n = 0 and 1 and up; with two refused rows or more,
    # the one to set to 1 is the last.
    deficient = 0
    for n in [0, 1] * 5 + [rng.randint(2, 6) for _ in range(60)]:
        b = Matrix(field, n + 1, n, sum(rows_with_dependencies(rng, field, n + 1, n), []))
        deficient += gaussian_rank(b) < n
        assert left_null_vector(b) == gaussian_left_null_vector(b)
    assert deficient >= 10
