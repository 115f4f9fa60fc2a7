"""The prefix-sharing verify walk against a from-scratch reference.

verify_from_scratch is the per-tuple loop: stack the prefixes of every
tuple in enumeration order and eliminate the stack on its own, with
per-element Gaussian elimination (gaussian_rank) rather than the field's
row kernels that verify runs on. The walk in udm.families.verify must give
the same report on every family, passing or failing, in both modes.
"""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_linalg import ROW_ENCODINGS, gaussian_rank, solve_gaussian

from udm.families import (
    UdmFamily,
    VerifyReport,
    Witness,
    _superset_position,
    construct,
    count_exact_tuples,
    enumerate_exact_tuples,
    enumerate_superset_tuples,
    right_multiply,
    verify,
)
from udm.gf import Field
from udm.linalg import Matrix, anti_identity, identity, stack_prefixes

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (5, 2)]
MAX_N = 5
# Superset reference runs stack every tuple of [0, n]^L; keep them small.
MAX_SUPERSET_TUPLES = 1300


def verify_from_scratch(family: UdmFamily, superset: bool = False) -> VerifyReport:
    n = family.n
    source = (
        enumerate_superset_tuples(family.L, n)
        if superset
        else enumerate_exact_tuples(family.L, n)
    )
    checked = 0
    for ks in source:
        checked += 1
        stacked = stack_prefixes(family.matrices, ks)
        r = gaussian_rank(stacked)
        if r < n:
            return VerifyReport(False, checked, Witness(ks, stacked, r))
    return VerifyReport(True, checked, None)


def modes(family):
    yield False
    if (family.n + 1) ** family.L <= MAX_SUPERSET_TUPLES:
        yield True


def assert_same_report(family, superset):
    got = verify(family, superset=superset)
    want = verify_from_scratch(family, superset=superset)
    assert got == want, (family.field, family.L, family.n, superset)
    return want


def construct_families():
    for p, s in FIELDS:
        field = Field(p, s)
        for L in range(1, min(field.q + 1, 6) + 1):
            for n in range(1, MAX_N + 1):
                yield construct(field, L, n)


def with_entries(family, changes):
    """A copy of family with (matrix, row, col) -> value changes applied."""
    n = family.n
    entries = [list(m.entries) for m in family.matrices]
    for (l, i, j), v in changes.items():
        entries[l][i * n + j] = v
    mats = tuple(Matrix(family.field, n, n, e) for e in entries)
    return UdmFamily(family.field, family.L, n, mats)


def perturbed(family, rng, dependent_row):
    """A copy of family with one to three seeded entries changed and, with
    dependent_row, one row a multiple of another."""
    field, L, n = family.field, family.L, family.n
    changes = {
        (rng.randrange(L), rng.randrange(n), rng.randrange(n)): rng.randrange(field.q)
        for _ in range(rng.randint(1, 3))
    }
    if dependent_row:
        (l, i), (l2, i2) = rng.sample([(l, i) for l in range(L) for i in range(n)], 2)
        c = rng.randrange(1, field.q)
        for j in range(n):
            changes[l, i, j] = field.mul(c, family.matrices[l2].at(i2, j))
    return with_entries(family, changes)


def test_every_construct_family_matches_the_reference():
    checked = 0
    for fam in construct_families():
        for superset in modes(fam):
            assert assert_same_report(fam, superset).passed
            checked += 1
    assert checked > 200


def test_perturbed_families_match_the_reference():
    rng = random.Random(20260508)
    failing = 0
    for fam in construct_families():
        n, L, q = fam.n, fam.L, fam.field.q
        for _ in range(2):
            changes = {}
            for _ in range(rng.randint(1, 3)):
                key = (rng.randrange(L), rng.randrange(n), rng.randrange(n))
                changes[key] = rng.randrange(q)
            for superset in modes(fam):
                failing += not assert_same_report(with_entries(fam, changes), superset).passed
    assert failing > 100


def test_zero_row_in_a_middle_matrix_fails_at_an_inner_node():
    # A zero row in a matrix other than the last makes a node of the tuple
    # tree rank-deficient; the witness is the first leaf under it.
    rng = random.Random(7)
    seen = 0
    for fam in construct_families():
        n, L = fam.n, fam.L
        if L < 3:
            continue
        l, i = rng.randrange(1, L - 1), rng.randrange(n)
        broken = with_entries(fam, {(l, i, j): 0 for j in range(n)})
        for superset in modes(fam):
            rep = assert_same_report(broken, superset)
            assert not rep.passed
            if not superset:
                ks = rep.witness.ks
                assert ks[l] == i + 1 and not any(ks[l + 1 : L - 1])
            seen += 1
    assert seen > 100


def test_pinned_7_5_12_witness():
    fam = construct(Field(7), 5, 12)
    broken = with_entries(fam, {(0, 11, 11): 0})
    rep = assert_same_report(broken, False)
    assert not rep.passed
    assert rep.tuples_checked == 1820
    assert rep.witness.ks == (12, 0, 0, 0, 0)
    assert rep.witness.rank == 11
    assert rep.witness.stacked == broken.matrices[0]


@pytest.mark.parametrize(
    "s, L, n, superset, checked, ks, r",
    [
        (4, 6, 8, False, 84, (0, 0, 2, 0, 2, 4), 7),
        (4, 6, 8, True, 1262, (0, 0, 2, 0, 2, 4), 7),
        (8, 5, 6, False, 130, (1, 2, 3, 0, 0), 5),
        (8, 5, 6, True, 3044, (1, 2, 3, 0, 0), 5),
    ],
)
def test_pinned_byte_row_field_witnesses(s, L, n, superset, checked, ks, r):
    # GF(16) and GF(256) families with entry (1, 3) of matrix 2 zeroed: the
    # witness and the tuple count are pinned to those of the log-row walk.
    broken = with_entries(construct(Field(2, s), L, n), {(2, 1, 3): 0})
    rep = verify(broken, superset=superset)
    assert not rep.passed
    assert (rep.tuples_checked, rep.witness.ks, rep.witness.rank) == (checked, ks, r)
    assert rep.witness.stacked == stack_prefixes(broken.matrices, ks)


# Both sides of every edge of the byte-row range: GF(9), GF(25) and GF(49)
# against GF(27) and GF(81), GF(127) against GF(131), GF(256) against
# GF(512).
BOUNDARY_FIELDS = [(3, 2), (5, 2), (7, 2), (3, 3), (3, 4), (127, 1), (131, 1), (2, 8), (2, 9)]


@pytest.mark.parametrize(
    "p, s, change, checked, ks, super_checked",
    [
        (3, 2, ((2, 1, 2), 0), 61, (2, 2, 2, 0), 689),
        (5, 2, ((2, 1, 3), 0), 16, (0, 2, 2, 2), 70),
        (7, 2, ((2, 1, 3), 0), 58, (2, 1, 3, 0), 650),
        (3, 3, ((2, 1, 2), 0), 61, (2, 2, 2, 0), 689),
        (3, 4, ((2, 1, 2), 0), 61, (2, 2, 2, 0), 689),
        (127, 1, ((2, 1, 3), 1), 12, (0, 1, 4, 1), 43),
        (131, 1, ((2, 1, 3), 2), 16, (0, 2, 2, 2), 70),
        (2, 8, ((2, 1, 3), 0), 43, (1, 2, 3, 0), 376),
        (2, 9, ((2, 1, 3), 0), 43, (1, 2, 3, 0), 376),
    ],
)
def test_pinned_boundary_field_witnesses(p, s, change, checked, ks, super_checked):
    # (4, 6) families with one entry changed, on both sides of the byte-row
    # range: the witness and the tuple counts are pinned to those of the
    # per-element walk, in both modes.
    key, value = change
    broken = with_entries(construct(Field(p, s), 4, 6), {key: value})
    for superset, count in ((False, checked), (True, super_checked)):
        rep = verify(broken, superset=superset)
        assert not rep.passed
        assert (rep.tuples_checked, rep.witness.ks, rep.witness.rank) == (count, ks, 5)
        assert rep.witness.stacked == stack_prefixes(broken.matrices, ks)


@pytest.mark.parametrize("p, s", BOUNDARY_FIELDS)
def test_perturbed_boundary_field_families_match_the_reference(p, s):
    # Random entries seldom break a family over a large field, so every
    # other perturbation also makes one row a multiple of another.
    field = Field(p, s)
    rng = random.Random(p * 100 + s)
    failing = 0
    for L in range(2, 5):
        for n in range(1, 6):
            fam = construct(field, L, n)
            for trial in range(4):
                broken = perturbed(fam, rng, dependent_row=trial % 2)
                for superset in modes(fam):
                    failing += not assert_same_report(broken, superset).passed
    assert failing > 30


def seeded_invertible(field, n, rng, zeros=0):
    """A dense n x n matrix of seeded entries, the first zeros entries of
    row 0 zero, that insert_row finds invertible."""
    while True:
        entries = [0] * zeros + [rng.randrange(field.q) for _ in range(n * n - zeros)]
        m = Matrix(field, n, n, entries)
        basis = [None] * n
        if all(field.insert_row(basis, m.row(i)) >= 0 for i in range(n)):
            return m


def coordinate_change_families(field, rng):
    """(kind, family) pairs that stress the exact walk's change of
    coordinates: a dense last matrix, a singular last matrix, a singular
    middle matrix and a zeroed first-row entry, for L = 1..4 and n = 1..5,
    three rounds each."""
    for L, n, _ in itertools.product(range(1, 5), range(1, 6), range(3)):
        fam = construct(field, L, n)
        dense = right_multiply(fam, seeded_invertible(field, n, rng))
        yield "dense", dense
        # Row i of the last matrix becomes a multiple of row i2 < i, or
        # zero when i is 0.
        i = rng.randrange(n)
        i2, c = rng.randrange(max(i, 1)), rng.randrange(field.q)
        row = dense.matrices[L - 1].row(i2)
        yield "singular last", with_entries(
            dense, {(L - 1, i, j): field.mul(c, row[j]) if i else 0 for j in range(n)}
        )
        if L >= 3 and n >= 2:
            l, (i, i2) = rng.randrange(1, L - 1), sorted(rng.sample(range(n), 2))
            row = dense.matrices[l].row(i)
            yield "singular middle", with_entries(dense, {(l, i2, j): row[j] for j in range(n)})
        for base in (fam, dense):
            l, j = rng.randrange(L), rng.randrange(n)
            yield "zeroed first row", with_entries(base, {(l, 0, j): 0})


# Every form of Field.eliminate: GF(7) and GF(25) take the odd byte rows,
# GF(16) and GF(256) those of characteristic 2, and GF(27), GF(131),
# GF(2^9), GF(2^16) and GF(3^10) the per-element kernels.
WALK_FIELDS = [(7, 1), (5, 2), (2, 4), (2, 8), (3, 3), (131, 1), (2, 9), (2, 16), (3, 10)]


@pytest.mark.parametrize("p, s", WALK_FIELDS)
def test_exact_walk_after_its_change_of_coordinates_matches_the_reference(p, s):
    # The walk right-multiplies by S with M S = J U, U upper triangular, and
    # then reads one entry of a Schur complement per tuple; the per-tuple
    # reference stacks and
    # ranks every tuple of the original matrices. Failing families stop at
    # the first tuple, in the middle of the walk, or at its last tuple.
    field = Field(p, s)
    rng = random.Random(p * 1000 + s)
    kinds = ("dense", "singular last", "singular middle", "zeroed first row")
    where = {kind: set() for kind in kinds}
    for kind, fam in coordinate_change_families(field, rng):
        rep = assert_same_report(fam, False)
        total = count_exact_tuples(fam.L, fam.n)
        if rep.passed:
            where[kind].add("passed")
        elif rep.tuples_checked == 1:
            where[kind].add("first")
        else:
            where[kind].add("last" if rep.tuples_checked == total else "middle")
    assert where["dense"] == {"passed"}
    assert where["singular last"] == {"first"}
    assert where["singular middle"] >= {"middle"}
    assert "middle" in where["zeroed first row"]


def start_state_families(field, rng):
    """(kind, family) pairs aimed at the walk's start state, the last
    matrix M's columns eliminated on its rows: a dense M whose row 0 is
    zero in its first columns, in a universally decodable family and in
    one that is not; an M singular only at its last row; an M with a zero
    row 0; n = 1; L = 1 and L = 2."""
    for L, n in itertools.product(range(1, 5), range(1, 6)):
        others = [
            Matrix(field, n, n, [rng.randrange(field.q) for _ in range(n * n)])
            for _ in range(L - 1)
        ]
        if n >= 2:
            zeros = rng.randrange(1, n)
            m = seeded_invertible(field, n, rng, zeros)
            yield "skips columns", UdmFamily(field, L, n, (*others, m))
            if L <= field.q + 1:
                # construct's family right-multiplied by B = M0^-1 m, with
                # M0 its last matrix, stays universally decodable and ends
                # in m.
                fam = construct(field, L, n)
                xs = [solve_gaussian(fam.matrices[-1], m.entries[j::n]) for j in range(n)]
                b = Matrix(field, n, n, [x for row in zip(*xs) for x in row])
                fam = right_multiply(fam, b)
                assert fam.matrices[-1] == m
                yield "skips columns, decodable", fam
            # Row n - 1 becomes a combination of rows 0..n-2.
            rows = [m.row(i) for i in range(n - 1)]
            cs = [rng.randrange(field.q) for _ in rows]
            row = [0] * n
            for c, r in zip(cs, rows):
                row = [field.add(x, field.mul(c, y)) for x, y in zip(row, r)]
            singular = Matrix.from_rows(field, [*rows, row])
            yield "singular last row", UdmFamily(field, L, n, (*others, singular))
        m = seeded_invertible(field, n, rng)
        zero_row = Matrix(field, n, n, (0,) * n + m.entries[n:])
        yield "zero row 0", UdmFamily(field, L, n, (*others, zero_row))
    for L in range(1, 6):
        entries = [rng.randrange(1, field.q) for _ in range(L)]
        for zero in (None, rng.randrange(L)):
            mats = tuple(
                Matrix(field, 1, 1, (0 if l == zero else e,)) for l, e in enumerate(entries)
            )
            yield "n = 1", UdmFamily(field, L, 1, mats)


# Every row format: GF(7), GF(25) (packed digits) and GF(256) (bit planes)
# take the byte rows; GF(27), GF(131), GF(2^16) and GF(3^10) the
# per-element ones.
START_FIELDS = [(2, 1), (7, 1), (5, 2), (2, 8), (3, 3), (131, 1), (2, 16), (3, 10)]


@pytest.mark.parametrize("p, s", START_FIELDS)
def test_start_state_matches_the_reference(p, s):
    # The start state's pivot search, its singular cases, and n = 1, L = 1
    # and L = 2, in both modes: the per-tuple reference stacks and ranks
    # every tuple of the original matrices. A singular last matrix fails
    # the first tuple, (0, ..., 0, n); a decodable family passes.
    field = Field(p, s)
    rng = random.Random(p * 31 + s)
    seen, n_1 = set(), set()
    for kind, fam in start_state_families(field, rng):
        first = (0,) * (fam.L - 1) + (fam.n,)
        for superset in modes(fam):
            rep = assert_same_report(fam, superset)
            if kind in ("singular last row", "zero row 0"):
                assert (rep.tuples_checked, rep.witness.ks) == (1, first)
            elif kind == "skips columns, decodable":
                assert rep.passed
            elif kind == "skips columns":
                assert rep.passed or rep.witness.ks != first
            else:
                n_1.add(rep.passed)
            seen.add((kind, min(fam.L, 3)))
    kinds = ("skips columns", "singular last row", "zero row 0")
    assert seen >= {(kind, L) for kind in kinds for L in (1, 2, 3)}
    assert n_1 == {True, False}


@settings(max_examples=40)
@given(data=st.data())
def test_property_every_witness_is_rank_deficient(data):
    # The witness of a failing report, rebuilt from scratch, is a tuple of
    # the mode's kind whose stacked prefixes have rank below n by Gaussian
    # elimination.
    p, s = data.draw(st.sampled_from(BOUNDARY_FIELDS + [(2, 1), (7, 1), (2, 4)]))
    field = Field(p, s)
    n = data.draw(st.integers(1, 5))
    L = data.draw(st.integers(1, min(field.q + 1, 4) if n > 1 else 4))
    fam = construct(field, L, n)
    cells = st.tuples(st.integers(0, L - 1), st.integers(0, n - 1), st.integers(0, n - 1))
    values = st.integers(0, field.q - 1)
    changes = data.draw(st.dictionaries(cells, values, min_size=1, max_size=4))
    if data.draw(st.booleans()):
        l, i = data.draw(st.integers(0, L - 1)), data.draw(st.integers(0, n - 1))
        changes.update({(l, i, j): 0 for j in range(n)})
    broken = with_entries(fam, changes)
    for superset in modes(broken):
        rep = verify(broken, superset=superset)
        if rep.passed:
            continue
        ks = rep.witness.ks
        assert sum(ks) >= n if superset else sum(ks) == n
        assert rep.witness.stacked == stack_prefixes(broken.matrices, ks)
        assert gaussian_rank(rep.witness.stacked) == rep.witness.rank < n


def superset_closed_form_families(field, rng):
    """(kind, family) pairs aimed at superset mode's closed-form count: a
    singular last matrix, a dependent row that leaves the prefix
    (n, 0, ..., 0) of sum n rank-deficient, L = 1, n = 1 and a dense
    right_multiply family."""
    for L, n in itertools.product(range(2, 5), range(1, 5)):
        if (n + 1) ** L > MAX_SUPERSET_TUPLES:
            continue
        dense = right_multiply(construct(field, L, n), seeded_invertible(field, n, rng))
        yield "dense", dense
        i = rng.randrange(n)
        i2, c = rng.randrange(max(i, 1)), rng.randrange(field.q)
        row = dense.matrices[L - 1].row(i2)
        yield "singular last", with_entries(
            dense, {(L - 1, i, j): field.mul(c, row[j]) if i else 0 for j in range(n)}
        )
        if n >= 2:
            # Row n - 1 of the first matrix becomes a multiple of an earlier
            # row. Only prefixes with k_0 = n hold it, so the first failing
            # tuple is (n, 0, ..., 0): a prefix of sum n and r = 0.
            row, c = dense.matrices[0].row(rng.randrange(n - 1)), rng.randrange(field.q)
            yield "sum reaches n", with_entries(
                dense, {(0, n - 1, j): field.mul(c, row[j]) for j in range(n)}
            )
    for n in range(1, 5):
        m = seeded_invertible(field, n, rng)
        one = UdmFamily(field, 1, n, (m,))
        yield "L = 1", one
        yield "singular last", with_entries(one, {(0, 0, j): 0 for j in range(n)})
    for L in range(1, 7):
        fam = construct(field, L, 1)
        yield "n = 1", fam
        for l in range(L):
            yield "n = 1", with_entries(fam, {(l, 0, 0): 0})


@pytest.mark.parametrize("p, s", [(7, 1), (131, 1), (2, 9)])
def test_superset_closed_form_matches_the_reference(p, s):
    # GF(7) takes the byte-row kernels, GF(131) and GF(2^9) the per-element
    # ones. Superset mode walks the exact sums and counts its tuples in
    # closed form; the per-tuple reference stacks and ranks every tuple of
    # the original matrices.
    field = Field(p, s)
    rng = random.Random(p * 10 + s)
    seen = set()
    for kind, fam in superset_closed_form_families(field, rng):
        rep = assert_same_report(fam, True)
        n, L = fam.n, fam.L
        seen.add(kind)
        if kind in ("dense", "L = 1"):
            assert rep.passed
            assert rep.tuples_checked == superset_count(L, n)
        elif kind == "singular last":
            assert rep.tuples_checked == 1
            assert rep.witness.ks == (0,) * (L - 1) + (n,)
        elif kind == "sum reaches n":
            assert rep.witness.ks == (n,) + (0,) * (L - 1)
        elif not rep.passed:
            assert sum(rep.witness.ks) == 1
    assert seen == {"dense", "singular last", "sum reaches n", "L = 1", "n = 1"}


def tuples_by_sum(m, n):
    """ways[t]: the tuples in [0, n]^m with sum t."""
    ways = [1]
    for _ in range(m):
        ways = [sum(ways[max(0, t - n) : t + 1]) for t in range(len(ways) + n)]
    return ways


def superset_count(L, n):
    """Tuples in [0, n]^L with sum at least n, counted by their sums."""
    return sum(tuples_by_sum(L, n)[n:])


def superset_position_by_sums(L, n, ks):
    """The 1-based position of ks among the tuples of [0, n]^L with sum at
    least n, in product order: 1 plus, for each channel i and v < k_i, the
    tuples that start ks[:i] + (v,) and reach sum n, counted by sums."""
    position, done = 1, 0
    for i, k in enumerate(ks):
        ways = tuples_by_sum(L - 1 - i, n)
        for v in range(k):
            position += sum(ways[max(0, n - done - v) :])
        done += k
    return position


def test_superset_position_is_the_product_index():
    # Every tuple of the superset enumeration, including sums above n,
    # which a witness never has; with no tuple, the count.
    for L in range(1, 5):
        for n in range(5):
            index = 0
            for index, ks in enumerate(enumerate_superset_tuples(L, n), 1):
                assert _superset_position(L, n, ks) == index, (L, n, ks)
                assert superset_position_by_sums(L, n, ks) == index, (L, n, ks)
            assert _superset_position(L, n, None) == superset_count(L, n) == index


@pytest.mark.parametrize("p, s, L, n", [(7, 1, 8, 6), (2, 4, 17, 3), (2, 9, 6, 5)])
def test_superset_witness_is_the_exact_witness_beyond_the_reference(p, s, L, n):
    # (n + 1)**L is above what the per-tuple reference can stack. Perturbed
    # families, half of them with one row a multiple of another: a failing
    # superset report has the exact report's witness, at the position that
    # counting tuples by sums gives.
    assert (n + 1) ** L > MAX_SUPERSET_TUPLES
    field = Field(p, s)
    fam = construct(field, L, n)
    rng = random.Random(p * 100 + L * 10 + n)
    positions = set()
    for trial in range(16):
        broken = perturbed(fam, rng, dependent_row=trial % 2)
        exact, superset = verify(broken), verify(broken, superset=True)
        assert superset.passed == exact.passed
        if exact.passed:
            assert superset.tuples_checked == superset_count(L, n)
            continue
        assert superset.witness == exact.witness
        ks = exact.witness.ks
        assert superset.tuples_checked == superset_position_by_sums(L, n, ks)
        positions.add(superset.tuples_checked)
    assert len(positions) >= 4


@pytest.mark.parametrize(
    "p, s, L, n, want",
    [(2, 2, 5, 4, 3069), (7, 1, 4, 7, 3886), (7, 1, 8, 6, None), (2, 4, 17, 3, None),
     (2, 8, 12, 4, None)],
)
def test_superset_counts_beyond_the_reference(p, s, L, n, want):
    # (n + 1)**L is above what the per-tuple reference can stack, so the
    # count of a passing construct family, and of the same family after a
    # dense right multiplication, is pinned to counting tuples by sums.
    assert (n + 1) ** L > MAX_SUPERSET_TUPLES
    count = superset_count(L, n)
    assert want is None or count == want
    field = Field(p, s)
    fam = construct(field, L, n)
    dense = right_multiply(fam, seeded_invertible(field, n, random.Random(L * n)))
    for f in (fam, dense):
        assert verify(f, superset=True) == VerifyReport(True, count, None)


def test_many_channels_walk_without_recursion():
    fam = construct(Field(2), 3000, 1)
    assert verify(fam) == VerifyReport(True, 3000, None)
    # Superset: every nonzero tuple of [0, 1]^L, counted through prefixes
    # that already reach full rank.
    assert verify(construct(Field(2), 200, 1), superset=True) == VerifyReport(
        True, 2**200 - 1, None
    )


def eliminated_by_element(field, cols, i):
    """Field.eliminate's answer on canonical columns, one element at a
    time: None for a zero pivot, else each later column less (c[i] / a[i])
    times the first, a, over the entries after i."""
    a = cols[0]
    if not a[i]:
        return None
    out = []
    for c in cols[1:]:
        k = field.mul(c[i], field.inv(a[i]))
        out.append([field.sub(y, field.mul(k, x)) for x, y in zip(a[i + 1 :], c[i + 1 :])])
    return out


def packed(field, cols):
    """cols, canonical columns of one height, as Field.columns packs them."""
    if not cols:
        return []
    return field.columns(list(zip(*cols)), len(cols))


@pytest.mark.parametrize("p, s", ROW_ENCODINGS)
def test_eliminate_is_per_element_elimination(p, s):
    # Every encoding, on both sides of the byte-row range: 1-6 columns of
    # height 1-12, whose entries are often zero (so many columns only get
    # cut) and sometimes q - 1. A zero pivot gives None; otherwise each
    # other column loses its multiple of the first and keeps only the
    # entries after i, in the packed form that a second step reads too. A
    # packed entry is zero exactly when the element is, which the walk's
    # one-entry test reads.
    field = Field(p, s)
    q = field.q
    rng = random.Random(p * 1000 + s)
    seen = set()
    for _ in range(150):
        width, height = rng.randint(1, 6), rng.randint(1, 12)
        cols = [
            [rng.choice([0, 0, 1, q - 1, rng.randrange(q)]) for _ in range(height)]
            for _ in range(width)
        ]
        i = rng.randrange(height)
        if rng.random() < 0.2:
            cols[0][i] = 0
        state = packed(field, cols)
        assert [[bool(x) for x in c] for c in state] == [[bool(x) for x in c] for c in cols]
        got, want = field.eliminate(state, i), eliminated_by_element(field, cols, i)
        if want is None:
            assert got is None
            seen.add("zero pivot")
            continue
        seen.add("cut to nothing" if i == height - 1 else "cut")
        seen.update("zeroed entry" for c in cols[1:] if not c[i])
        assert list(got) == list(packed(field, want)), (width, height, i)
        if want and want[0]:
            j = rng.randrange(len(want[0]))
            again = eliminated_by_element(field, want, j)
            assert field.eliminate(got, j) == (again if again is None else packed(field, again))
    assert seen == {"zero pivot", "cut", "cut to nothing", "zeroed entry"}


def test_walk_holds_few_states_on_a_tall_family():
    # (256, 3, 128): the walk keeps a state only where a nonzero channel
    # starts, at most min(n, L - 1) = 2 of them. One state per depth would
    # hold about 2 MB of columns. This walk peaks at 0.17 MB: the first
    # state comes from eliminating the stack's own columns, and nothing
    # stays on the family. Forming A T by n products over columns packed
    # and kept on the family peaked at 0.78 MB, and through a stacked
    # Matrix product at 1.23 MB.
    fam = construct(Field(2, 8), 3, 128)
    tracemalloc.start()
    try:
        rep = verify(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep == VerifyReport(True, count_exact_tuples(3, 128), None)
    assert peak < 500_000


def test_many_channel_walk_with_two_rows():
    # L = q + 1 = 257 channels of n = 2 rows: each channel starts at depth
    # 0, 1 or 2, so the walk saves and drops a state at nearly every
    # channel. A zero first row in channel 200 fails the first tuple that
    # holds it, (0, ..., 0, 1, 0, ..., 0, 1).
    fam = construct(Field(2, 8), 257, 2)
    total = count_exact_tuples(257, 2)
    assert verify(fam) == VerifyReport(True, total, None)
    broken = with_entries(fam, {(200, 0, 0): 0, (200, 0, 1): 0})
    first = next(
        k for k, ks in enumerate(enumerate_exact_tuples(257, 2), 1) if ks[200]
    )
    rep = verify(broken)
    assert (rep.tuples_checked, rep.witness.rank) == (first, 1)
    assert rep.witness.ks == (0,) * 200 + (1,) + (0,) * 55 + (1,)


@pytest.mark.parametrize("p, s", ROW_ENCODINGS)
def test_insert_row_counts_the_rank(p, s):
    # Every encoding, on both sides of the byte-row range: the rows that
    # insert_row accepts are as many as the Gaussian rank, each in its own
    # slot, and clearing those slots empties the basis. Zero-width and
    # all-zero rows are refused.
    field = Field(p, s)
    rng = random.Random(p * 100 + s)
    for _ in range(60):
        n = rng.randint(0, 7)
        rows = [
            tuple(rng.randrange(field.q) if rng.random() < 0.7 else 0 for _ in range(n))
            for _ in range(rng.randint(1, 9))
        ]
        rows += [rows[0]] * rng.randint(0, 1) + [(0,) * n] * rng.randint(0, 1)
        basis = [None] * n
        filled = [c for c in (field.insert_row(basis, r) for r in rows) if c >= 0]
        assert len(filled) == len(set(filled)) == gaussian_rank(Matrix.from_rows(field, rows))
        for c in filled:
            basis[c] = None
        assert basis == [None] * n
    # Unit rows fill their own column, and a row that is zero but for its
    # last entry, an augmented row's right-hand side, fills the last slot.
    for n in range(1, 7):
        for unit, cols in ((identity, range(n)), (anti_identity, range(n - 1, -1, -1))):
            basis, m = [None] * n, unit(field, n)
            assert [field.insert_row(basis, m.row(i)) for i in range(n)] == list(cols)
        basis = [None] * (n + 1)
        assert field.insert_row(basis, (0,) * n + (field.q - 1,)) == n
        assert field.insert_row(basis, (0,) * n + (1,)) == -1


def plus_one(v, p):
    """1 + v for an encoded element: only the lowest base-p digit changes."""
    low = v % p
    return v - low + (low + 1) % p


@pytest.mark.parametrize("p, s", [(3, 2), (5, 2), (3, 3), (3, 10)])
def test_zech_table_matches_field_addition(p, s):
    # log1p[v] is the logarithm of 1 + v, computed here digit-wise and
    # looked up by its index in the exp table, never through Field.add.
    # The one v with 1 + v = 0 is -1, encoded p - 1 and equal to
    # alpha**((q - 1) / 2), and its entry is 0.
    field = Field(p, s)
    q, exp, log1p = field.q, field._exp, field._log1p
    index = {v: k for k, v in enumerate(exp)}
    vs = range(q) if q < 1000 else random.Random(310).sample(range(q), 2000) + [0, p - 1, q - 1]
    for v in vs:
        w = plus_one(v, p)
        assert (w == 0) == (v == p - 1)
        assert log1p[v] == (0 if w == 0 else index[w])
    assert exp[(q - 1) // 2] == p - 1
