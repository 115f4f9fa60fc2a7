"""Family construction, verification, transforms, and the existence search."""

import math
import random
import time
import tracemalloc

import pytest
from test_linalg import gaussian_rank

from udm import hasse
from udm.codec import simulate
from udm.errors import (
    BadArgument,
    BadNormalization,
    BudgetExceeded,
    DegenerateNullVector,
    NotLowerTriangular,
    Singular,
    TooManyChannels,
    UdmError,
    ZeroDiagonal,
)
from udm.families import (
    MAX_FAMILY_ENTRIES,
    UdmFamily,
    check_family_size,
    construct,
    count_exact_tuples,
    enumerate_exact_tuples,
    enumerate_superset_tuples,
    left_transform,
    permute,
    prefix,
    reduce,
    reverse_pairs,
    right_multiply,
    tensor_power,
    verify,
)
from udm.gf import Field, field_of_order
from udm.linalg import Matrix, anti_identity, identity, matmul, rank, solve, stack_prefixes
from udm.oracles import (
    construct_entry_oracle,
    delta_matrix,
    lucas_entry,
    pascal_inverse_check,
    refute_bound,
)

F2 = Field(2)
F3 = Field(3)

# The known (4, 3, 3) family.
KNOWN_433 = [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
    [[1, 1, 1], [0, 1, 2], [0, 0, 1]],
    [[1, 2, 1], [0, 1, 1], [0, 0, 1]],
]


def known_family():
    return construct(F3, 4, 3)


def invert(m):
    """Matrix inverse by solving against unit vectors, column by column."""
    n = m.rows
    cols = [solve(m, [1 if i == j else 0 for i in range(n)]) for j in range(n)]
    return Matrix(m.field, n, n, [cols[j][i] for i in range(n) for j in range(n)])


# -- construction ----------------------------------------------------------------


def test_construct_reproduces_known_family():
    fam = known_family()
    assert fam.alpha == 2
    assert [m.to_lists() for m in fam.matrices] == KNOWN_433


def test_construct_two_channels_is_identity_and_reversal():
    for field, n in [(F2, 5), (Field(2, 2), 5), (F3, 4)]:
        fam = construct(field, 2, n)
        assert fam.matrices == (identity(field, n), anti_identity(field, n))


def test_construct_rejects_too_many_channels():
    with pytest.raises(TooManyChannels):
        construct(F2, 4, 2)
    with pytest.raises(TooManyChannels):
        construct(F3, 5, 3)


def test_construct_allows_any_l_for_trivial_blocks():
    fam = construct(F2, 7, 1)
    assert all(m.entries == (1,) for m in fam.matrices)
    assert verify(fam).passed


def test_construct_rejects_nonpositive_parameters():
    with pytest.raises(ValueError):
        construct(F3, 0, 3)
    with pytest.raises(ValueError):
        construct(F3, 2, 0)


def test_constructed_tails_are_upper_triangular_with_unit_diagonal():
    for q, p, s in [(2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1)]:
        field = Field(p, s)
        fam = construct(field, field.q + 1, 4)
        for m in fam.matrices[2:]:
            for i in range(4):
                assert m.at(i, i) != 0
                for t in range(i):
                    assert m.at(i, t) == 0


# -- entry oracle -------------------------------------------------------------------


@pytest.mark.parametrize("p,s,L,n", [(3, 1, 4, 30), (2, 1, 3, 20), (2, 2, 5, 9), (5, 1, 6, 12)])
def test_construct_matches_entry_oracles_beyond_p(p, s, L, n):
    """Blocks longer than p, where binomials mod p vanish and Lucas digit
    products take over; both oracle routes, entry by entry, and the
    unchecked matrices equal checked ones."""
    field = Field(p, s)
    fam = construct(field, L, n)
    for l, m in enumerate(fam.matrices):
        assert m == Matrix(field, n, n, list(m.entries))
        for i in range(n):
            for t in range(n):
                assert m.at(i, t) == construct_entry_oracle(field, L, n, l, i, t)
                if l >= 2:
                    assert m.at(i, t) == lucas_entry(field, L, n, l - 2, i, t)


def test_entry_oracle_matches_construct_small():
    fam = known_family()
    for l in range(4):
        for i in range(3):
            for t in range(3):
                assert construct_entry_oracle(F3, 4, 3, l, i, t) == fam.matrices[l].at(i, t)


def test_entry_oracle_yields_identity_and_reversal():
    n = 4
    for i in range(n):
        for t in range(n):
            assert construct_entry_oracle(F3, 4, n, 0, i, t) == (1 if i == t else 0)
            assert construct_entry_oracle(F3, 4, n, 1, i, t) == (1 if t == n - 1 - i else 0)


# -- tuple enumeration -----------------------------------------------------------------


def test_enumerate_exact_tuples_counts():
    assert len(list(enumerate_exact_tuples(4, 3))) == 20
    assert count_exact_tuples(4, 3) == 20
    assert list(enumerate_exact_tuples(1, 5)) == [(5,)]
    assert list(enumerate_exact_tuples(3, 2)) == [
        (0, 0, 2),
        (0, 1, 1),
        (0, 2, 0),
        (1, 0, 1),
        (1, 1, 0),
        (2, 0, 0),
    ]


def test_enumerate_exact_tuples_lexicographic_and_complete():
    for L, n in [(2, 5), (3, 4), (5, 2)]:
        tuples = list(enumerate_exact_tuples(L, n))
        assert tuples == sorted(tuples)
        assert len(set(tuples)) == len(tuples) == math.comb(n + L - 1, L - 1)
        assert all(sum(t) == n and all(0 <= k <= n for k in t) for t in tuples)


def test_enumerate_exact_tuples_many_channels_without_recursion():
    tuples = list(enumerate_exact_tuples(3000, 1))
    assert len(tuples) == count_exact_tuples(3000, 1) == 3000
    assert tuples[0] == (0,) * 2999 + (1,) and tuples[-1] == (1,) + (0,) * 2999


def test_enumerate_superset_tuples():
    tuples = list(enumerate_superset_tuples(4, 3))
    assert len(tuples) == 4**4 - 15  # all of [0,3]^4 minus the 15 with sum < 3
    assert all(sum(t) >= 3 for t in tuples)


@pytest.mark.parametrize(
    "helper, L, n",
    [
        (enumerate_superset_tuples, 0, 0),
        (enumerate_superset_tuples, -1, 2),
        (count_exact_tuples, 2, -1),
        (count_exact_tuples, 0, 0),
        (enumerate_exact_tuples, 0, 3),
        (enumerate_exact_tuples, 2, -1),
    ],
)
def test_tuple_helpers_reject_bad_sizes_when_called(helper, L, n):
    # L < 1 or n < 0 raises BadArgument at the call, before any tuple.
    with pytest.raises(BadArgument):
        helper(L, n)


def test_tuple_helpers_accept_n_zero():
    assert count_exact_tuples(3, 0) == 1
    assert list(enumerate_exact_tuples(3, 0)) == [(0, 0, 0)]
    assert len(list(enumerate_superset_tuples(2, 0))) == 1


# -- verification ------------------------------------------------------------------------


def test_verify_known_family():
    report = verify(known_family())
    assert report.passed
    assert report.tuples_checked == 20
    assert report.witness is None


def test_verify_identity_reversal_pair():
    for field in (F2, F3):
        fam = UdmFamily(field, 2, 5, (identity(field, 5), anti_identity(field, 5)))
        report = verify(fam)
        assert report.passed and report.tuples_checked == 6


def test_verify_reports_first_failing_tuple():
    fam = known_family()
    mats = list(fam.matrices)
    zeroed = [[0, 0, 0]] + mats[2].to_lists()[1:]
    mats[2] = Matrix.from_rows(F3, zeroed)
    broken = UdmFamily(F3, 4, 3, tuple(mats))
    report = verify(broken)
    assert not report.passed
    # Lexicographically first tuple that touches the zeroed row.
    assert report.witness.ks == (0, 0, 1, 2)
    assert report.witness.rank < 3
    assert report.tuples_checked == 2
    # The all-from-the-damaged-matrix tuple fails too.
    assert rank(stack_prefixes(broken.matrices, (0, 0, 3, 0))) < 3


def test_verify_superset():
    report = verify(known_family(), superset=True)
    assert report.passed
    assert report.tuples_checked == 4**4 - 15


# -- invariants of verified families --------------------------------------------------------


def test_members_of_verified_families_are_invertible():
    fam = known_family()
    for m in fam.matrices:
        assert rank(m) == 3


def test_permutation_closure():
    fam = known_family()
    rng = random.Random(17)
    for _ in range(5):
        perm = list(range(4))
        rng.shuffle(perm)
        assert verify(permute(fam, perm)).passed
    with pytest.raises(ValueError):
        permute(fam, (0, 0, 1, 2))


def test_prefix_closure():
    fam = known_family()
    for L in range(1, 5):
        sub = prefix(fam, L)
        assert sub.L == L
        assert verify(sub).passed


# -- transforms ------------------------------------------------------------------------------


def test_left_transform_identity_is_noop():
    fam = known_family()
    out = left_transform(fam, 2, identity(F3, 3))
    assert out.matrices == fam.matrices


def test_left_transform_scales_row():
    fam = known_family()
    c = Matrix.from_rows(F3, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    out = left_transform(fam, 2, c)
    assert out.matrices[2].row(0) == (2, 2, 2)
    assert out.matrices[2].row(1) == fam.matrices[2].row(1)
    assert verify(out).passed


def test_left_transform_rejects_bad_matrices():
    fam = known_family()
    with pytest.raises(ZeroDiagonal):
        left_transform(fam, 2, Matrix.from_rows(F3, [[0, 0, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(NotLowerTriangular):
        left_transform(fam, 2, Matrix.from_rows(F3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]))


def test_left_transform_preserves_verification():
    fam = known_family()
    rng = random.Random(18)
    for _ in range(5):
        rows = [[0] * 3 for _ in range(3)]
        for i in range(3):
            rows[i][i] = rng.randrange(1, 3)
            for j in range(i):
                rows[i][j] = rng.randrange(3)
        out = left_transform(fam, rng.randrange(4), Matrix.from_rows(F3, rows))
        assert verify(out).passed


def test_right_multiply_identity_and_normalization():
    fam = known_family()
    assert right_multiply(fam, identity(F3, 3)).matrices == fam.matrices
    # Move the binomial matrix to the front, then normalize it away.
    shuffled = permute(fam, (2, 0, 1, 3))
    normalized = right_multiply(shuffled, invert(shuffled.matrices[0]))
    assert normalized.matrices[0] == identity(F3, 3)
    assert verify(normalized).passed


def test_right_multiply_rejects_singular():
    fam = known_family()
    with pytest.raises(Singular):
        right_multiply(fam, Matrix.from_rows(F3, [[1, 0, 0], [0, 1, 0], [1, 1, 0]]))
    # Refused exactly when the Gaussian rank is short, on both sides of the
    # byte-row range.
    for p, s in [(3, 1), (2, 1), (2, 4), (2, 8), (2, 9), (2, 16), (3, 2)]:
        field = Field(p, s)
        fam = construct(field, 3, 4)
        rng = random.Random(p * 50 + s)
        seen = {True: 0, False: 0}
        for _ in range(40):
            entries = [rng.randrange(1, field.q) if rng.random() < 0.5 else 0 for _ in range(16)]
            if rng.random() < 0.2:
                entries[12:] = entries[:4]
            b = Matrix(field, 4, 4, entries)
            singular = gaussian_rank(b) < 4
            seen[singular] += 1
            if singular:
                with pytest.raises(Singular, match="right multiplier is not invertible"):
                    right_multiply(fam, b)
            else:
                assert right_multiply(fam, b).matrices == tuple(matmul(m, b) for m in fam.matrices)
        assert min(seen.values()) >= 5, (field, seen)


@pytest.mark.parametrize("p,s,L,n", [(2, 8, 20, 12), (7, 1, 8, 6), (2, 16, 6, 7), (3, 3, 5, 9), (5, 1, 4, 1)])
def test_right_multiply_is_one_product_per_matrix(p, s, L, n):
    # right_multiply multiplies the stacked (L * n) x n family by b at once;
    # each slice of that product is A_l @ b, over byte-row fields (GF(256),
    # GF(7)) and per-element ones (GF(2^16), GF(27)), and for n = 1.
    field = Field(p, s)
    rng = random.Random(L * 100 + n)
    fam = construct(field, L, n)
    while True:
        b = Matrix(field, n, n, [rng.randrange(field.q) for _ in range(n * n)])
        if gaussian_rank(b) == n:
            break
    out = right_multiply(fam, b)
    assert out.matrices == tuple(matmul(m, b) for m in fam.matrices)
    assert all(m.rows == m.cols == n and type(m.entries) is tuple for m in out.matrices)
    assert out.alpha is None


def test_right_multiply_preserves_verification():
    fam = known_family()
    rng = random.Random(19)
    done = 0
    while done < 5:
        b = Matrix(F3, 3, 3, [rng.randrange(3) for _ in range(9)])
        if rank(b) < 3:
            continue
        done += 1
        assert verify(right_multiply(fam, b)).passed


def test_tensor_power_one_is_identity():
    fam = known_family()
    assert tensor_power(fam, 1).matrices == fam.matrices


def test_tensor_power_verifies_and_matches_direct_construction():
    fam = known_family()
    squared = tensor_power(fam, 2)
    assert squared.n == 9
    report = verify(squared)
    assert report.passed and report.tuples_checked == count_exact_tuples(4, 9)
    direct = construct(F3, 4, 9)
    assert [m.entries for m in squared.matrices] == [m.entries for m in direct.matrices]


def test_tensor_power_keeps_alpha_only_on_construct_output():
    # GF(3), (L, n) = (4, 3): the square is construct(GF(3), 4, 9).
    kept = tensor_power(construct(F3, 4, 3), 2)
    assert kept.alpha == 2 and kept == construct(F3, 4, 9)
    # GF(2), (L, n) = (3, 3): the square is neither construct output nor
    # universally decodable, so it must not claim generator provenance.
    dropped = tensor_power(construct(F2, 3, 3), 2)
    assert dropped.alpha is None
    assert not verify(dropped).passed
    assert dropped.matrices != construct(F2, 3, 9).matrices
    # Hand-built input never gains alpha.
    assert tensor_power(right_multiply(known_family(), identity(F3, 3)), 2).alpha is None


def test_reverse_pairs_known_family():
    fam = known_family()
    out = reverse_pairs(fam)
    j = anti_identity(F3, 3)
    assert verify(out).passed
    assert out.matrices[1] == matmul(j, out.matrices[0])
    assert out.matrices[3] == matmul(j, out.matrices[2])


@pytest.mark.parametrize("p, s", [(131, 1), (3, 3), (2, 9), (7, 1), (2, 8)])
def test_reverse_pairs_on_both_row_formats(p, s):
    # GF(131), GF(27) and GF(2^9) combine rows per element, GF(7) and
    # GF(256) as byte rows. A random right factor makes every pair mixed.
    field = Field(p, s)
    rng = random.Random(p * 10 + s)
    while True:
        b = Matrix(field, 4, 4, [rng.randrange(field.q) for _ in range(16)])
        if gaussian_rank(b) == 4:
            break
    out = reverse_pairs(right_multiply(construct(field, 4, 4), b))
    j = anti_identity(field, 4)
    assert verify(out).passed
    assert out.matrices[1] == matmul(j, out.matrices[0])
    assert out.matrices[3] == matmul(j, out.matrices[2])


def test_reverse_pairs_leaves_odd_tail_untouched():
    fam = prefix(known_family(), 3)
    out = reverse_pairs(fam)
    assert out.matrices[2] == fam.matrices[2]
    assert out.matrices[1] == matmul(anti_identity(F3, 3), out.matrices[0])
    assert verify(out).passed


def test_reverse_pairs_flags_non_udm_input():
    bad = UdmFamily(F2, 2, 2, (identity(F2, 2), identity(F2, 2)))
    with pytest.raises(DegenerateNullVector):
        reverse_pairs(bad)


def test_reduce_matches_direct_construction():
    for p, s in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        field = Field(p, s)
        for n in range(2, 6):
            fam = construct(field, field.q + 1, n)
            reduced = reduce(fam)
            direct = construct(field, field.q + 1, n - 1)
            assert [m.entries for m in reduced.matrices] == [
                m.entries for m in direct.matrices
            ]


def test_reduce_to_trivial_blocks():
    fam = UdmFamily(F2, 2, 2, (identity(F2, 2), anti_identity(F2, 2)))
    reduced = reduce(fam)
    assert reduced.n == 1
    assert all(m.entries == (1,) for m in reduced.matrices)


def test_reduce_requires_normalization():
    fam = known_family()
    with pytest.raises(BadNormalization):
        reduce(permute(fam, (2, 1, 0, 3)))
    with pytest.raises(BadNormalization):
        reduce(permute(fam, (0, 2, 1, 3)))
    with pytest.raises(ValueError):
        reduce(construct(F3, 4, 1))


# -- delta factors --------------------------------------------------------------------------------


def test_delta_last_factor_is_identity():
    for n in range(1, 6):
        assert delta_matrix(F3, n, n - 1) == identity(F3, n)


def test_delta_factors_invert_the_binomial_matrix():
    fam = known_family()
    acc = fam.matrices[2]
    for t in range(3):
        acc = matmul(acc, delta_matrix(F3, 3, t))
    assert acc == identity(F3, 3)
    assert pascal_inverse_check(fam)


def test_delta_factors_are_invertible():
    for n in range(1, 6):
        for t in range(n):
            assert rank(delta_matrix(F3, n, t)) == n


# -- radix-p entry decomposition --------------------------------------------------------------------


def test_lucas_entry_single_digit_case():
    fam = known_family()
    for l in range(2):
        for i in range(3):
            for t in range(3):
                assert lucas_entry(F3, 4, 3, l, i, t) == fam.matrices[l + 2].at(i, t)


def test_lucas_entry_two_digit_case():
    big = construct(F3, 4, 9)
    for l in range(2):
        for i in range(9):
            for t in range(9):
                assert lucas_entry(F3, 4, 9, l, i, t) == big.matrices[l + 2].at(i, t)


def test_lucas_entry_vanishes_on_digit_excess():
    # i = 1 has low digit 1, t = 2 has low digit 0 in radix 2.
    assert lucas_entry(F2, 3, 4, 0, 1, 2) == 0


# -- bound search --------------------------------------------------------------------------------------


def test_refute_bound_beyond_the_limit():
    report = refute_bound(F2, 2, 4)
    assert not report.exists
    assert report.total_candidates == 256
    assert report.candidates_verified == 0  # pruning alone empties the space


def test_refute_bound_finds_family_at_the_limit():
    report = refute_bound(F2, 2, 3)
    assert report.exists
    assert verify(report.family).passed
    assert report.family.matrices[2] == construct(F2, 3, 2).matrices[2]


def test_refute_bound_trivial_blocks():
    report = refute_bound(F2, 1, 9)
    assert report.exists
    assert report.note is not None
    assert verify(report.family).passed


def test_refute_bound_with_one_block_forms_counts_of_up_to_4096_bits():
    assert refute_bound(F2, 1, 4097).total_candidates == 2**4095
    assert refute_bound(F2, 1, 4098).total_candidates is None
    assert (3**2584).bit_length() == 4096
    assert refute_bound(F3, 1, 2586).total_candidates == 3**2584
    assert refute_bound(F3, 1, 2587).total_candidates is None
    assert refute_bound(F3, 1, 2).total_candidates == 1


def test_refute_bound_budget():
    with pytest.raises(BudgetExceeded):
        refute_bound(F3, 3, 5)


@pytest.mark.parametrize(
    "q,n,L,verified,found",
    [
        (3, 3, 3, 83, [(1, 1, 1, 0, 1, 0, 0, 0, 1)]),
        (2, 4, 3, 1330, [(1, 1, 1, 1, 0, 1, 0, 1, 0, 0, 1, 1, 0, 0, 0, 1)]),
        (4, 2, 4, 98, [(1, 1, 0, 1), (1, 2, 0, 1)]),
    ],
)
def test_refute_bound_reports_are_pinned(q, n, L, verified, found):
    field = field_of_order(q)
    report = refute_bound(field, n, L)
    assert report.exists
    assert report.total_candidates == q ** (n * n * (L - 2))
    assert report.candidates_verified == verified
    assert report.family.matrices[:2] == (identity(field, n), anti_identity(field, n))
    assert [m.entries for m in report.family.matrices[2:]] == found
    assert verify(report.family).passed


def test_refute_bound_with_one_slot_never_lists_the_candidates():
    tracemalloc.start()
    try:
        refute_bound(F3, 3, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A list of all 5832 candidates with a nonzero first row peaks at ~1.4 MB.
    assert peak < 500_000


@pytest.mark.parametrize("n,L", [(0, 3), (-2, 5), (2, 0)])
def test_refute_bound_rejects_nonpositive_sizes(n, L):
    with pytest.raises(BadArgument):
        refute_bound(F2, n, L)


# -- hostile sizes ---------------------------------------------------------------------------------------


def test_family_size_bound_is_checked_without_allocating():
    side = math.isqrt(MAX_FAMILY_ENTRIES)
    check_family_size(1, side)
    with pytest.raises(BadArgument, match="entries"):
        check_family_size(1, side + 1)
    with pytest.raises(BadArgument):
        check_family_size(MAX_FAMILY_ENTRIES + 1, 1)


def test_hostile_sizes_are_refused_at_once():
    fam = construct(F3, 4, 3)
    calls = [
        lambda: construct(F2, 10**9, 1),
        lambda: construct(F2, 3, 10**5),
        lambda: construct(field_of_order(2**16), 2**16 + 1, 10**4),
        lambda: tensor_power(fam, 10**9),
        lambda: tensor_power(fam, 13),
        lambda: refute_bound(F2, 1, 10**9),
        lambda: refute_bound(F2, 10**5, 3),
    ]
    start = time.perf_counter()
    for call in calls:
        with pytest.raises(BadArgument):
            call()
    assert time.perf_counter() - start < 1.0


def test_huge_counts_are_not_formed():
    start = time.perf_counter()
    # n = 1: the m-th Kronecker power of (a) is (a**m), without m steps.
    ones = construct(F3, 5, 1)
    assert tensor_power(ones, 10**9) == ones
    # 2**15200 raw candidates: refused before the count is formed, and
    # named by its exponent.
    with pytest.raises(BudgetExceeded, match=r"2\^15200 "):
        refute_bound(F2, 20, 40)
    assert time.perf_counter() - start < 1.0


# -- family validation -------------------------------------------------------------------------------


def test_family_validation():
    with pytest.raises(ValueError):
        UdmFamily(F3, 2, 3, (identity(F3, 3),))
    with pytest.raises(ValueError):
        UdmFamily(F3, 1, 3, (identity(F3, 2),))
    with pytest.raises(ValueError):
        UdmFamily(F3, 1, 2, (identity(F2, 2),))


def test_argument_errors_are_one_udm_error():
    fam = construct(F3, 4, 3)
    calls = [
        lambda: construct(F3, 0, 3),
        lambda: prefix(fam, 5),
        lambda: hasse.Polynomial(F3, (5,)),
        lambda: hasse.evaluate(hasse.Polynomial.one(F3), 7),
        lambda: simulate(fam, -1),
        lambda: simulate(fam, 1, "bogus"),
    ]
    for call in calls:
        with pytest.raises(BadArgument):
            call()
    assert issubclass(BadArgument, UdmError) and issubclass(BadArgument, ValueError)
