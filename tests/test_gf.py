"""Field arithmetic, canonical encodings, and binomial coefficients."""

import gc
import hashlib
import math
import pickle
import random

import pytest

from udm import gf
from udm.errors import BadExponent, DivisionByZero, NotPrime, NotPrimePower, ParseError
from udm.gf import Field, factor_prime_power, field_of_order, field_string, parse_field_string

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2)]
SAMPLED_FIELDS = [(7, 1), (2, 3), (3, 2), (2, 4)]


# -- independent oracles -------------------------------------------------------


def poly_mul_mod_p(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


def poly_rem(f, d, p):
    """Remainder of f modulo monic d over GF(p), by long division."""
    f = list(f)
    while len(f) >= len(d):
        c = f[-1]
        if c:
            k = len(f) - len(d)
            for i, dc in enumerate(d):
                f[k + i] = (f[k + i] - c * dc) % p
        f.pop()
    return f


def poly_divides(d, f, p):
    """Whether monic d divides f over GF(p)."""
    return all(c == 0 for c in poly_rem(f, d, p))


def digits(v, p, s):
    out = []
    for _ in range(s):
        v, r = divmod(v, p)
        out.append(r)
    return out


def undigits(ds, p):
    return sum(d * p**i for i, d in enumerate(ds))


def is_irreducible_bruteforce(f, p):
    """Trial division by every monic polynomial of degree 1..deg(f)-1."""
    s = len(f) - 1
    for d in range(1, s):
        for code in range(p**d):
            div = []
            c = code
            for _ in range(d):
                c, r = divmod(c, p)
                div.append(r)
            div.append(1)
            if poly_divides(div, f, p):
                return False
    return True


def multiplicative_order(field, a):
    acc = a
    order = 1
    while acc != 1:
        acc = field.mul(acc, a)
        order += 1
    return order


# -- construction ----------------------------------------------------------------


def test_rejects_nonprime():
    for p in (0, 1, 4, 6, 9, 15):
        with pytest.raises(NotPrime):
            Field(p)


def test_rejects_bad_exponent():
    with pytest.raises(BadExponent):
        Field(2, 0)
    with pytest.raises(BadExponent):
        Field(2, -1)
    with pytest.raises(BadExponent):
        Field(2, 17)  # order 2**17 above the supported maximum


def test_prime_field_has_no_modulus():
    assert Field(3).modulus is None
    assert Field(3).q == 3


def test_gf4_modulus_is_the_unique_irreducible_quadratic():
    # Enumerate all monic quadratics over GF(2); exactly one has no factor.
    irreducible = [
        [c0, c1, 1]
        for c0 in range(2)
        for c1 in range(2)
        if is_irreducible_bruteforce([c0, c1, 1], 2)
    ]
    assert irreducible == [[1, 1, 1]]
    assert Field(2, 2).modulus == [1, 1, 1]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_root_filter_is_exact_below_degree_four(p):
    # A polynomial of degree 2 or 3 is irreducible exactly when it has no
    # root, so there the filter must agree with the brute-force test.
    for s in (2, 3):
        for code in range(p**s):
            f = [(code // p**i) % p for i in range(s)] + [1]
            expected = is_irreducible_bruteforce(f, p)
            assert (f[0] != 0 and not gf._has_nonzero_root(f, p)) == expected, f


@pytest.mark.parametrize("p,s", [(2, 8), (2, 16), (3, 5), (3, 10), (5, 4), (7, 3), (251, 2)])
def test_root_filter_keeps_the_modulus(p, s):
    # Rabin's test alone, on every candidate in order, picks the same one.
    code = 0
    while not gf._is_irreducible(gf._digits(code, p, s) + [1], p):
        code += 1
    assert gf._smallest_irreducible(p, s) == gf._digits(code, p, s) + [1]


@pytest.mark.parametrize("p,s", [(2, 3), (3, 2), (2, 4), (5, 2)])
def test_modulus_is_lex_smallest_irreducible(p, s):
    field = Field(p, s)
    assert len(field.modulus) == s + 1
    assert field.modulus[-1] == 1
    assert is_irreducible_bruteforce(field.modulus, p)
    code = sum(c * p**i for i, c in enumerate(field.modulus[:-1]))
    for smaller in range(code):
        cand = []
        c = smaller
        for _ in range(s):
            c, r = divmod(c, p)
            cand.append(r)
        cand.append(1)
        assert not is_irreducible_bruteforce(cand, p)


def test_factor_prime_power():
    assert factor_prime_power(2) == (2, 1)
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(49) == (7, 2)
    for bad in (1, 6, 12, 100):
        with pytest.raises(NotPrimePower):
            factor_prime_power(bad)


# -- arithmetic axioms -------------------------------------------------------------


@pytest.mark.parametrize("p,s", SMALL_FIELDS)
def test_axioms_exhaustive(p, s):
    f = Field(p, s)
    els = list(f.elements())
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.sub(a, b) == f.add(a, f.neg(b))
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("p,s", SAMPLED_FIELDS)
def test_axioms_sampled(p, s):
    f = Field(p, s)
    rng = random.Random(20240 + p * 16 + s)
    for _ in range(300):
        a, b, c = (rng.randrange(f.q) for _ in range(3))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1


def test_characteristic_two_addition():
    f = Field(2)
    assert f.add(1, 1) == 0


def test_gf3_inverse():
    assert Field(3).inv(2) == 2


def test_gf4_generators_cube_to_one():
    # Every multiplicative-order-3 element of GF(4), by full table check.
    f = Field(2, 2)
    generators = [a for a in range(1, 4) if multiplicative_order(f, a) == 3]
    assert generators  # the group is cyclic of order 3
    for g in generators:
        assert f.mul(f.mul(g, g), g) == 1


def test_division_by_zero():
    f = Field(5)
    with pytest.raises(DivisionByZero):
        f.inv(0)
    with pytest.raises(DivisionByZero):
        f.pow(0, -1)


def test_pow_conventions():
    for p, s in SMALL_FIELDS + SAMPLED_FIELDS:
        f = Field(p, s)
        for a in f.elements():
            assert f.pow(a, 0) == 1
            if a != 0:
                assert f.pow(a, -1) == f.inv(a)
                assert f.pow(a, f.q - 1) == 1
                assert f.pow(a, -3) == f.inv(f.pow(a, 3))
            else:
                assert f.pow(0, 4) == 0


# -- natural map ---------------------------------------------------------------------


def test_nat_map_examples():
    assert Field(3).nat_map(4) == 1
    assert Field(3).nat_map(-1) == 2
    assert Field(2, 2).nat_map(2) == 0


def test_nat_map_is_a_ring_homomorphism():
    rng = random.Random(7)
    for p, s in SMALL_FIELDS + SAMPLED_FIELDS:
        f = Field(p, s)
        for _ in range(100):
            x = rng.randrange(-500, 500)
            y = rng.randrange(-500, 500)
            assert f.nat_map(x + y) == f.add(f.nat_map(x), f.nat_map(y))
            assert f.nat_map(x * y) == f.mul(f.nat_map(x), f.nat_map(y))


# -- primitive elements ----------------------------------------------------------------


def test_primitive_element_known_values():
    assert Field(3).primitive_element() == 2
    assert Field(2).primitive_element() == 1
    # GF(5): brute-force orders are 1, 4, 4, 2 for 1, 2, 3, 4.
    f5 = Field(5)
    orders = {a: multiplicative_order(f5, a) for a in range(1, 5)}
    assert orders == {1: 1, 2: 4, 3: 4, 4: 2}
    assert f5.primitive_element() == 2


@pytest.mark.parametrize("p,s", SMALL_FIELDS + SAMPLED_FIELDS + [(3, 1), (7, 1)])
def test_primitive_element_order_and_minimality(p, s):
    f = Field(p, s)
    alpha = f.primitive_element()
    assert multiplicative_order(f, alpha) == f.q - 1
    for a in range(1, alpha):
        assert multiplicative_order(f, a) < f.q - 1


# -- binomial coefficients ----------------------------------------------------------------


def test_binom_examples():
    f = Field(3)
    assert f.binom(2, 1) == 2
    assert f.binom(3, -1) == 0
    assert f.binom(4, 2) == 0  # C(4,2) = 6 vanishes mod 3
    assert f.binom(0, 0) == 1
    assert f.binom(2, 3) == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_binom_matches_big_integer_oracle(p):
    f = Field(p)
    for a in range(65):
        for b in range(a + 1):
            assert f.binom(a, b) == math.comb(a, b) % p


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_binom_negative_upper_index(p):
    # Integer value of C(a, b) for a < 0: a(a-1)...(a-b+1) / b!, exact.
    f = Field(p)
    rng = random.Random(p)
    for _ in range(200):
        a = rng.randrange(-30, 0)
        b = rng.randrange(0, 12)
        num = 1
        for j in range(b):
            num *= a - j
        expected = num // math.factorial(b) % p
        assert f.binom(a, b) == expected


@pytest.mark.parametrize("p", [2, 3])
def test_binom_large_upper_index_is_a_lucas_product(p):
    # C(a, b) mod p is the product of C(a_h, b_h) over the base-p digits.
    f = Field(p)
    a, b = 2**40 + 5, 2**20 + 1
    if p == 2:
        # a has bits 40, 2, 0; bit 20 of b is not among them.
        assert f.binom(a, b) == 0
        assert f.binom(a, 2**40 + 1) == 1  # C(1,1) C(1,0) C(1,1)
        assert f.binom(a, 2) == 0  # C(0,1) at bit 1
    else:
        # Base-3 digits, least significant first.
        a3 = [0, 1, 2, 2, 2, 2, 2, 1, 2, 2, 0, 0, 2, 1, 2, 0, 0, 0, 0, 1, 0, 0, 2, 2, 0, 1]
        b3 = [2, 1, 0, 1, 0, 1, 1, 2, 0, 2, 2, 2, 1]
        assert undigits(a3, 3) == a and undigits(b3, 3) == b
        assert f.binom(a, b) == 0  # C(0,2) at digit 0
        # C(1,1) C(2,1) C(1,1) at digits 1, 2, 25; C(a_h, 0) = 1 elsewhere.
        assert f.binom(a, 3**25 + 3**2 + 3) == 2
        # One more factor C(2,1) at digit 3: 2 * 2 = 1 mod 3.
        assert f.binom(a, 3**25 + 3**3 + 3**2 + 3) == 1


def test_binom_lands_in_the_prime_subfield():
    f = Field(3, 2)
    for a in range(10):
        for b in range(10):
            assert f.binom(a, b) < 3


# -- serialization ------------------------------------------------------------------------


def test_field_string_forms():
    assert field_string(Field(3)) == "q=3^1"
    assert field_string(Field(2, 2)) == "q=2^2;mod=1,1,1"


def test_field_string_roundtrip():
    for p, s in SMALL_FIELDS + SAMPLED_FIELDS:
        f = Field(p, s)
        assert parse_field_string(field_string(f)) == f


def test_parse_field_string_rejects_bad_input():
    with pytest.raises(ParseError):
        parse_field_string("q=4^1")  # not prime
    with pytest.raises(ParseError):
        parse_field_string("q=2^2")  # missing modulus
    with pytest.raises(ParseError):
        parse_field_string("q=2^2;mod=1,0,1")  # not the canonical modulus
    with pytest.raises(ParseError):
        parse_field_string("q=3^1;mod=1,1")  # prime field carries no modulus
    with pytest.raises(ParseError):
        parse_field_string("garbage")


def test_field_equality_and_repr():
    assert Field(3) == Field(3)
    assert Field(3) != Field(5)
    assert Field(2, 2) != Field(2, 3)
    assert repr(Field(3, 2)) == "GF(9)"


def test_field_pickles_by_order():
    for p, s in [(2, 1), (7, 1), (2, 3), (3, 2)]:
        field = Field(p, s)
        again = pickle.loads(pickle.dumps(field))
        assert again == field
        assert [again.mul(a, 2) for a in range(field.q)] == [field.mul(a, 2) for a in range(field.q)]
        basis = [None] * 2
        assert again.insert_row(basis, (0, 1)) == 1


def test_a_dropped_field_is_freed_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        before = sum(isinstance(o, Field) for o in gc.get_objects())
        for p, s in [(7, 1), (2, 1), (2, 4), (2, 8), (2, 9), (2, 16), (3, 2)]:
            Field(p, s)
        after = sum(isinstance(o, Field) for o in gc.get_objects())
    finally:
        gc.enable()
    assert after == before


BYTE_ROW_FIELDS = {(2, 1), (2, 2), (2, 8), (3, 1), (5, 1), (127, 1), (3, 2), (5, 2), (7, 2)}


def test_the_field_order_alone_selects_the_byte_row_kernels():
    # GF(2^s) for s <= 8, odd primes up to 127, GF(9), GF(25) and GF(49),
    # and nothing else: both sides of every boundary. The scalar ops and
    # taylor keep the per-element encoding everywhere.
    edges = [(2, 9), (2, 16), (131, 1), (251, 1), (3, 3), (3, 5), (3, 10), (11, 2)]
    for p, s in sorted(BYTE_ROW_FIELDS) + edges:
        field = Field(p, s)
        kernels = (
            field.insert_row, field.back_substitute, field.dot_rows, field.columns,
            field.dot_columns, field.mul_add, field.matmul,
        )
        owner = "_byte_rows." if (p, s) in BYTE_ROW_FIELDS else "_encoding."
        assert all(f.__qualname__.startswith(owner) for f in kernels), (p, s)
        assert field.mul.__qualname__.startswith("_encoding.")
        assert field.taylor.__qualname__.startswith("_encoding.")


def test_field_of_order_checks_the_cap_before_factoring():
    assert field_of_order(9) == Field(3, 2)
    with pytest.raises(NotPrimePower):
        field_of_order(12)
    with pytest.raises(BadExponent):
        field_of_order(2**16 + 1)
    with pytest.raises(BadExponent):
        field_of_order(1000000000000000003)  # prime; factoring it would take minutes


# -- exp/log and Zech tables ----------------------------------------------------------------

EXTENSION_FIELDS_UP_TO_1024 = [
    (p, s) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31) for s in range(2, 11) if p**s <= 1024
]


# Odd-characteristic extension fields above the exhaustive range, up to the
# 2**16 cap; for p = 127, 131 and 251 a digit sum 2p - 2 nearly fills the
# packed digit the table build uses.
ODD_EXTENSION_FIELDS_ABOVE_1024 = [
    (p, s)
    for p in range(3, 256)
    if all(p % d for d in range(2, p))
    for s in range(2, 11)
    if 1024 < p**s <= 1 << 16
]

# sha256 of repr((_exp, _log, _zech)), pinned from the tables built one
# Horner step per power over alpha's digits, before the half-table build.
PINNED_TABLE_DIGESTS = {
    (3, 10): "827103e8375298bb269ad93cf0dfb80013ab43e03062d2b32785f0ad8c7606f7",
    (251, 2): "f9209d0d63602f284ec754ccd349d505f1dda94d2e7dbced16c6d1149b13570c",
    (2, 16): "34750930f31fd4825d55d4c5ec800a752e3d3b939cb0922968910f76ac6b1305",
}


@pytest.fixture(scope="module")
def big_fields():
    return {(2, 16): Field(2, 16), (3, 10): Field(3, 10)}


def check_tables_by_polynomial_products(f, samples):
    """exp is a bijection onto the nonzero elements, log its inverse, and
    exp[k+1] = exp[k]*alpha mod modulus by the tests' own polynomial
    product at `samples` seeded k; for odd p, zech[k] is log(1 + exp[k])
    computed digit-wise, or None where that sum is 0."""
    p, s = f.p, f.s
    m = f.q - 1
    exp, log = f._exp, f._log
    assert sorted(exp) == list(range(1, f.q))
    assert all(log[v] == k for k, v in enumerate(exp))
    alpha = digits(f.primitive_element(), p, s)
    rng = random.Random(p * 100 + s)
    for _ in range(samples):
        k = rng.randrange(m)
        product = poly_mul_mod_p(digits(exp[k], p, s), alpha, p)
        assert exp[(k + 1) % m] == undigits(poly_rem(product, f.modulus, p), p)
        if p != 2:
            d = digits(exp[k], p, s)
            one_plus = undigits([(d[0] + 1) % p] + d[1:], p)
            assert f._zech[k] == (log[one_plus] if one_plus else None)


@pytest.mark.parametrize("p,s", EXTENSION_FIELDS_UP_TO_1024)
def test_exp_table_is_the_repeated_raw_product(p, s):
    f = Field(p, s)
    alpha = digits(f.primitive_element(), p, s)
    cur = 1
    for k in range(f.q - 1):
        assert f._exp[k] == cur
        cur = undigits(poly_rem(poly_mul_mod_p(digits(cur, p, s), alpha, p), f.modulus, p), p)
    assert cur == 1


@pytest.mark.parametrize("p,s", [(2, 16), (3, 10)])
def test_big_field_tables_against_polynomial_products(big_fields, p, s):
    check_tables_by_polynomial_products(big_fields[(p, s)], 2000)


@pytest.mark.parametrize("p,s", ODD_EXTENSION_FIELDS_ABOVE_1024)
def test_mid_size_field_tables_against_polynomial_products(p, s):
    check_tables_by_polynomial_products(Field(p, s), 200)


@pytest.mark.parametrize("p,s", sorted(PINNED_TABLE_DIGESTS))
def test_tables_match_pinned_digests(big_fields, p, s):
    f = big_fields.get((p, s)) or Field(p, s)
    digest = hashlib.sha256(repr((f._exp, f._log, f._zech)).encode()).hexdigest()
    assert digest == PINNED_TABLE_DIGESTS[(p, s)]


def check_digitwise(f, a, b):
    p, s = f.p, f.s
    da, db = digits(a, p, s), digits(b, p, s)
    assert f.add(a, b) == undigits([(x + y) % p for x, y in zip(da, db)], p)
    assert f.sub(a, b) == undigits([(x - y) % p for x, y in zip(da, db)], p)
    assert f.neg(a) == undigits([-x % p for x in da], p)


@pytest.mark.parametrize(
    "p,s", SMALL_FIELDS + SAMPLED_FIELDS + [(3, 3), (5, 2), (2, 6), (31, 1)]
)
def test_add_neg_sub_are_digitwise_exhaustive(p, s):
    f = Field(p, s)
    for a in f.elements():
        for b in f.elements():
            check_digitwise(f, a, b)


def test_add_neg_sub_are_digitwise_sampled(big_fields):
    for f in (big_fields[(3, 10)], big_fields[(2, 16)]):
        rng = random.Random(310)
        pairs = [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(3000)]
        pairs += [(0, 0), (0, 5), (5, 0), (1, f.q - 1)] + [(a, f.neg(a)) for a, _ in pairs[:200]]
        for a, b in pairs:
            check_digitwise(f, a, b)


# -- mul, inv and pow against schoolbook products ----------------------------------------------


def schoolbook_mul(f, a, b):
    """a * b from the digit lists: their product mod p, reduced modulo the
    field's modulus (a prime field has none, and one digit)."""
    p, s = f.p, f.s
    product = poly_mul_mod_p(digits(a, p, s), digits(b, p, s), p)
    if f.modulus is not None:
        product = poly_rem(product, f.modulus, p)
    return undigits(product, p)


def schoolbook_pow(f, a, e):
    """a**e for e >= 0 by square-and-multiply on schoolbook_mul, with no
    reduction of e."""
    acc = 1
    while e:
        if e & 1:
            acc = schoolbook_mul(f, acc, a)
        a = schoolbook_mul(f, a, a)
        e >>= 1
    return acc


def check_mul_inv_pow(f, a, b, exponents):
    assert f.mul(a, b) == schoolbook_mul(f, a, b)
    if a:
        assert schoolbook_mul(f, a, f.inv(a)) == 1
    else:
        with pytest.raises(DivisionByZero):
            f.inv(a)
    for e in exponents:
        if e >= 0:
            assert f.pow(a, e) == schoolbook_pow(f, a, e)
        elif a:
            assert schoolbook_mul(f, f.pow(a, e), schoolbook_pow(f, a, -e)) == 1
        else:
            with pytest.raises(DivisionByZero):
                f.pow(a, e)


@pytest.mark.parametrize("p,s", SMALL_FIELDS + SAMPLED_FIELDS)
def test_mul_inv_pow_match_schoolbook_products_exhaustive(p, s):
    f = Field(p, s)
    exponents = range(-2 * f.q, 2 * f.q + 1)
    for a in f.elements():
        for b in f.elements():
            check_mul_inv_pow(f, a, b, exponents if b == 0 else ())


@pytest.mark.parametrize("p,s", [(3, 10), (2, 16)])
def test_mul_inv_pow_match_schoolbook_products_sampled(big_fields, p, s):
    f = big_fields[(p, s)]
    rng = random.Random(p * 100 + s)
    pairs = [(0, 0), (0, 7), (7, 0), (1, f.q - 1), (f.q - 1, f.q - 1)]
    pairs += [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(600)]
    for i, (a, b) in enumerate(pairs):
        # pow on the first 60 pairs only: each check is ~20 schoolbook products
        exponents = [rng.randrange(-3 * f.q, 3 * f.q), -1, 0, f.q - 1] if i < 60 else ()
        check_mul_inv_pow(f, a, b, exponents)
