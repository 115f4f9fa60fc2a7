"""End-to-end acceptance checks for the documented guarantees.

Each test covers one numbered criterion at its stated tolerance (exact
equality throughout; wall-clock budgets where stated) and prints a single
PASS line on success.
"""

import itertools
import math
import time

import pytest

from udm.cli import main, render_family
from udm.codec import decode, encode, erase
from udm.errors import InsufficientSymbols
from udm.families import (
    UdmFamily,
    construct,
    count_exact_tuples,
    enumerate_exact_tuples,
    reduce,
    reverse_pairs,
    tensor_power,
    verify,
)
from udm.gf import Field
from udm.hasse import (
    Polynomial,
    binom,
    evaluate,
    from_linear_factors,
    hasse_derivative,
    poly_add,
    poly_mul,
    poly_scale,
)
from udm.linalg import anti_identity, identity, matmul, rank, stack_prefixes
from udm.oracles import construct_entry_oracle, delta_matrix, pascal_inverse_check, refute_bound

SWEEP_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]  # q in {2,3,4,5,7,8,9}

KNOWN_433 = [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
    [[1, 1, 1], [0, 1, 2], [0, 0, 1]],
    [[1, 2, 1], [0, 1, 1], [0, 0, 1]],
]

KNOWN_433_FILE = """UDMv1
field q=3^1
L 4
n 3
alpha 2
matrix 0
1 0 0
0 1 0
0 0 1
matrix 1
0 0 1
0 1 0
1 0 0
matrix 2
1 1 1
0 1 2
0 0 1
matrix 3
1 2 1
0 1 1
0 0 1
"""


def test_criterion_01_generation_reproduces_known_family(tmp_path):
    out = tmp_path / "fam.udm"
    assert main(["generate", "--q", "3", "--L", "4", "--n", "3", "--out", str(out)]) == 0
    assert out.read_text() == KNOWN_433_FILE
    fam = construct(Field(3), 4, 3)
    assert [m.to_lists() for m in fam.matrices] == KNOWN_433
    # Budget applies to the construct-and-render path, not interpreter startup.
    field = Field(3)
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        render_family(construct(field, 4, 3))
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3, f"construction took {best * 1e3:.3f} ms"
    print("ACCEPTANCE 01 generation reproduces the (4,3,3) family: PASS")


def test_criterion_02_known_family_verifies_in_20_tuples():
    fam = construct(Field(3), 4, 3)
    report = verify(fam)
    assert report.passed and report.tuples_checked == 20
    spots = {
        (0, 0, 3, 0): [[1, 1, 1], [0, 1, 2], [0, 0, 1]],
        (0, 0, 1, 2): [[1, 1, 1], [1, 2, 1], [0, 1, 1]],
        (1, 1, 0, 1): [[1, 0, 0], [0, 0, 1], [1, 2, 1]],
    }
    for ks, rows in spots.items():
        stacked = stack_prefixes(fam.matrices, ks)
        assert stacked.to_lists() == rows
        assert rank(stacked) == 3
    print("ACCEPTANCE 02 exhaustive verification of the (4,3,3) family: PASS")


def test_criterion_03_identity_reversal_family():
    expected = [
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1],
        [0, 0, 0, 1, 0],
    ]
    for q in (2, 3):
        field = Field(q)
        fam = UdmFamily(field, 2, 5, (identity(field, 5), anti_identity(field, 5)))
        assert verify(fam).passed
        stacked = stack_prefixes(fam.matrices, (3, 2))
        assert stacked.to_lists() == expected
        assert rank(stacked) == 5
    print("ACCEPTANCE 03 identity/reversal pair verifies for q in {2,3}: PASS")


def test_criterion_04_construction_sweep_verifies():
    start = time.perf_counter()
    total = 0
    for p, s in SWEEP_FIELDS:
        field = Field(p, s)
        L = field.q + 1
        for n in range(1, 7):
            if count_exact_tuples(L, n) > 10**5:
                continue
            report = verify(construct(field, L, n))
            assert report.passed, f"q={field.q}, n={n}"
            total += report.tuples_checked
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"sweep took {elapsed:.1f} s"
    print(f"ACCEPTANCE 04 construction sweep ({total} tuples, {elapsed:.1f} s): PASS")


def test_criterion_05_derivative_oracle_matches_construction():
    entries = 0
    for p, s in SWEEP_FIELDS:
        field = Field(p, s)
        L = field.q + 1
        for n in range(1, 7):
            fam = construct(field, L, n)
            for l, m in enumerate(fam.matrices):
                for i in range(n):
                    for t in range(n):
                        assert construct_entry_oracle(field, L, n, l, i, t) == m.at(i, t)
                        entries += 1
    print(f"ACCEPTANCE 05 derivative oracle equals construction ({entries} entries): PASS")


def test_criterion_06_tensor_powers():
    start = time.perf_counter()
    fam = construct(Field(3), 4, 3)
    squared = tensor_power(fam, 2)
    report = verify(squared)
    assert report.passed and report.tuples_checked == 220
    for p in (2, 3):
        field = Field(p)
        doubled = tensor_power(construct(field, p + 1, p), 2)
        direct = construct(field, p + 1, p * p)
        assert [m.entries for m in doubled.matrices] == [m.entries for m in direct.matrices]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"tensor checks took {elapsed:.1f} s"
    print(f"ACCEPTANCE 06 tensor powers verify and match construction ({elapsed:.2f} s): PASS")


def test_criterion_07_reduction_consistency():
    for p, s in SWEEP_FIELDS:
        field = Field(p, s)
        L = field.q + 1
        for n in range(2, 7):
            reduced = reduce(construct(field, L, n))
            direct = construct(field, L, n - 1)
            assert [m.entries for m in reduced.matrices] == [
                m.entries for m in direct.matrices
            ], f"q={field.q}, n={n}"
    print("ACCEPTANCE 07 reduction matches direct construction: PASS")


def test_criterion_08_reverse_pairs():
    fam = construct(Field(3), 4, 3)
    out = reverse_pairs(fam)
    assert verify(out).passed
    j = anti_identity(Field(3), 3)
    assert out.matrices[1] == matmul(j, out.matrices[0])
    assert out.matrices[3] == matmul(j, out.matrices[2])
    print("ACCEPTANCE 08 reverse-pairs preserves the family and the row relation: PASS")


def test_criterion_09_bound_refutation():
    start = time.perf_counter()
    field = Field(2)
    refuted = refute_bound(field, 2, 4)
    assert not refuted.exists
    assert refuted.total_candidates <= 256
    found = refute_bound(field, 2, 3)
    assert found.exists and verify(found.family).passed
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"search took {elapsed:.2f} s"
    print(
        f"ACCEPTANCE 09 no (4,2,2) family among {refuted.total_candidates} candidates, "
        f"(3,2,2) exists ({elapsed * 1e3:.0f} ms): PASS"
    )


def test_criterion_10_codec_exhaustive_round_trip():
    fam = construct(Field(3), 4, 3)
    exact = list(enumerate_exact_tuples(4, 3))
    assert len(exact) == 20
    decodes = 0
    for u in itertools.product(range(3), repeat=3):
        x = encode(fam, u)
        for ks in exact:
            assert decode(fam, erase(x, ks)) == u
            decodes += 1
    assert decodes == 540
    u = (1, 2, 0)
    x = encode(fam, u)
    starved = [ks for ks in itertools.product(range(4), repeat=4) if sum(ks) < 3]
    assert len(starved) == 15
    for ks in starved:
        with pytest.raises(InsufficientSymbols):
            decode(fam, erase(x, ks))
    print("ACCEPTANCE 10 codec round-trips 540 cases and rejects 15 starved patterns: PASS")


def test_criterion_11_derivative_property_suite():
    import random

    rng = random.Random(2024)
    fields = [Field(2), Field(3), Field(2, 2), Field(5)]

    def rand_poly(field, max_deg):
        return Polynomial(field, [rng.randrange(field.q) for _ in range(max_deg + 1)])

    for field in fields:
        for _ in range(20):
            f = rand_poly(field, 5)
            g = rand_poly(field, 5)
            gamma, eta = rng.randrange(field.q), rng.randrange(field.q)
            for i in range(5):
                lin_lhs = hasse_derivative(poly_add(poly_scale(f, gamma), poly_scale(g, eta)), i)
                lin_rhs = poly_add(
                    poly_scale(hasse_derivative(f, i), gamma),
                    poly_scale(hasse_derivative(g, i), eta),
                )
                assert lin_lhs == lin_rhs
                prod_rhs = Polynomial.zero(field)
                for i1 in range(i + 1):
                    prod_rhs = poly_add(
                        prod_rhs,
                        poly_mul(hasse_derivative(f, i1), hasse_derivative(g, i - i1)),
                    )
                assert hasse_derivative(poly_mul(f, g), i) == prod_rhs
            for i1 in range(4):
                for i2 in range(4):
                    comp_lhs = hasse_derivative(hasse_derivative(f, i2), i1)
                    comp_rhs = poly_scale(
                        hasse_derivative(f, i1 + i2), binom(field, i1 + i2, i1)
                    )
                    assert comp_lhs == comp_rhs

    def compositions_at_most(total, parts):
        if parts == 1:
            yield from ((k,) for k in range(total + 1))
            return
        for k in range(total + 1):
            for rest in compositions_at_most(total - k, parts - 1):
                yield (k,) + rest

    cases = 0
    for field in fields:
        gammas = list(field.elements())
        for ms in compositions_at_most(6, field.q):
            poly = from_linear_factors(field, list(zip(gammas, ms)))
            for r, m in enumerate(ms):
                for i in range(m):
                    assert evaluate(hasse_derivative(poly, i), gammas[r]) == 0
                assert evaluate(hasse_derivative(poly, m), gammas[r]) != 0
                cases += 1
    print(f"ACCEPTANCE 11 derivative property suite ({cases} vanishing checks): PASS")


def test_criterion_12_pascal_inverse_identity():
    for q in (3, 5):
        field = Field(q)
        for n in range(2, 6):
            fam = construct(field, 3, n)
            acc = fam.matrices[2]
            for t in range(n):
                acc = matmul(acc, delta_matrix(field, n, t))
            assert acc == identity(field, n), f"q={q}, n={n}"
            assert pascal_inverse_check(fam)
    print("ACCEPTANCE 12 delta chain inverts the binomial matrix: PASS")
