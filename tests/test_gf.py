"""Field arithmetic, canonical encodings, and the binomial coefficients and
natural map of udm.hasse."""

import gc
import hashlib
import math
import pickle
import random
import sys
from array import array

import pytest

from udm import extension
from udm.errors import BadExponent, DivisionByZero, NotPrime, NotPrimePower, ParseError
from udm.gf import (
    Field,
    _prime_factors,
    factor_prime_power,
    field_of_order,
    field_string,
    is_prime,
    parse_field_string,
)
from udm.hasse import binom, nat_map

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
            assert (f[0] != 0 and not extension._has_nonzero_root(f, p)) == expected, f


@pytest.mark.parametrize("p,s", [(2, 8), (2, 16), (3, 5), (3, 10), (5, 4), (7, 3), (251, 2)])
def test_root_filter_keeps_the_modulus(p, s):
    # Rabin's test alone, on every candidate in order, picks the same one.
    code = 0
    while not extension._is_irreducible(extension._digits(code, p, s) + [1], p):
        code += 1
    assert extension._smallest_irreducible(p, s)[0] == extension._digits(code, p, s) + [1]


def strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


# The largest p for s = 2, 3, 4 and 5, GF(3^10) and GF(2^16): the widest
# product slots of extension._kronecker for each degree.
KRONECKER_EDGES = [(2, 16), (3, 10), (7, 5), (13, 4), (37, 3), (251, 2)]


@pytest.mark.parametrize("p,s", KRONECKER_EDGES)
def test_kronecker_products_match_schoolbook_products(p, s):
    f = extension._smallest_irreducible(p, s)[0]
    pack, mul, unpack = extension._kronecker(f, p)
    rng = random.Random(p * 100 + s)
    # All coefficients p - 1 fill every product slot to its bound, and a
    # lone top coefficient sends the whole product through the fold.
    operands = [[p - 1] * s, [0] * (s - 1) + [p - 1], [1] + [0] * (s - 1), [0] * s]
    operands += [[p - 1] * (s - 1) + [1], [rng.randrange(p) for _ in range(s)]]
    operands += [[rng.choice((0, 1, p - 1)) for _ in range(s)] for _ in range(30)]
    for a in operands:
        assert unpack(pack(a)) == strip(a)
        for b in operands[:10]:
            expected = strip(poly_rem(poly_mul_mod_p(a, b, p), f, p))
            assert unpack(mul(pack(a), pack(b))) == expected, (a, b)


@pytest.mark.parametrize("p,s", KRONECKER_EDGES)
def test_kronecker_powers_match_repeated_products(p, s):
    f = extension._smallest_irreducible(p, s)[0]
    pack, mul, unpack = extension._kronecker(f, p)
    rng = random.Random(p + s)
    x = pack([0, 1])
    assert extension._ppow(x, p**s, mul) == x  # Frobenius fixes GF(p^s)
    for _ in range(3):
        a = [rng.randrange(p) for _ in range(s - 1)] + [rng.randrange(1, p)]
        assert extension._ppow(pack(a), p**s - 1, mul) == pack([1])
        acc = [1]
        for e in range(12):
            assert unpack(extension._ppow(pack(a), e, mul)) == strip(acc)
            acc = poly_rem(poly_mul_mod_p(acc, a, p), f, p)


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


def least_factor_sieve(limit):
    """least[n] is the least prime factor of n for 2 <= n < limit."""
    least = list(range(limit))
    for f in range(2, math.isqrt(limit - 1) + 1):
        if least[f] == f:
            for m in range(f * f, limit, f):
                least[m] = min(least[m], f)
    return least


def test_prime_routines_match_a_sieve():
    least = least_factor_sieve(1 << 12)
    for n in range(-2, 2):
        assert not is_prime(n) and _prime_factors(n) == []
        with pytest.raises(NotPrimePower):
            factor_prime_power(n)
    for n in range(2, 1 << 12):
        factors, rest = [], n
        while rest > 1:
            factors.append(least[rest])
            while rest % factors[-1] == 0:
                rest //= factors[-1]
        assert is_prime(n) == (least[n] == n), n
        assert _prime_factors(n) == factors, n
        if len(factors) == 1:
            p = factors[0]
            assert factor_prime_power(n) == (p, round(math.log(n, p))), n
        else:
            with pytest.raises(NotPrimePower):
                factor_prime_power(n)
    # Around 2**16: the two largest primes below it, 2**16 and the prime 2**16 + 1.
    assert is_prime(65519) and is_prime(65521) and is_prime(65537)
    assert not is_prime(65536) and not is_prime(65535)
    assert factor_prime_power(65521) == (65521, 1)
    assert factor_prime_power(65536) == (2, 16)
    assert _prime_factors(65535) == [3, 5, 17, 257]
    assert _prime_factors(65520) == [2, 3, 5, 7, 13]
    assert _prime_factors(65537) == [65537]


def test_factor_prime_power_stops_at_the_least_factor():
    # Trial division up to sqrt(2**62) would take hours; the least factor,
    # 2, leaves a cofactor that is not a power of 2.
    with pytest.raises(NotPrimePower):
        factor_prime_power(2 * (2**61 - 1))


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
    assert nat_map(Field(3), 4) == 1
    assert nat_map(Field(3), -1) == 2
    assert nat_map(Field(2, 2), 2) == 0


def test_nat_map_is_a_ring_homomorphism():
    rng = random.Random(7)
    for p, s in SMALL_FIELDS + SAMPLED_FIELDS:
        f = Field(p, s)
        for _ in range(100):
            x = rng.randrange(-500, 500)
            y = rng.randrange(-500, 500)
            assert nat_map(f, x + y) == f.add(nat_map(f, x), nat_map(f, y))
            assert nat_map(f, x * y) == f.mul(nat_map(f, x), nat_map(f, y))


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
    assert binom(f, 2, 1) == 2
    assert binom(f, 3, -1) == 0
    assert binom(f, 4, 2) == 0  # C(4,2) = 6 vanishes mod 3
    assert binom(f, 0, 0) == 1
    assert binom(f, 2, 3) == 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_binom_matches_big_integer_oracle(p):
    f = Field(p)
    for a in range(65):
        for b in range(a + 1):
            assert binom(f, a, b) == math.comb(a, b) % p


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
        assert binom(f, a, b) == expected


@pytest.mark.parametrize("p", [2, 3])
def test_binom_large_upper_index_is_a_lucas_product(p):
    # C(a, b) mod p is the product of C(a_h, b_h) over the base-p digits.
    f = Field(p)
    a, b = 2**40 + 5, 2**20 + 1
    if p == 2:
        # a has bits 40, 2, 0; bit 20 of b is not among them.
        assert binom(f, a, b) == 0
        assert binom(f, a, 2**40 + 1) == 1  # C(1,1) C(1,0) C(1,1)
        assert binom(f, a, 2) == 0  # C(0,1) at bit 1
    else:
        # Base-3 digits, least significant first.
        a3 = [0, 1, 2, 2, 2, 2, 2, 1, 2, 2, 0, 0, 2, 1, 2, 0, 0, 0, 0, 1, 0, 0, 2, 2, 0, 1]
        b3 = [2, 1, 0, 1, 0, 1, 1, 2, 0, 2, 2, 2, 1]
        assert undigits(a3, 3) == a and undigits(b3, 3) == b
        assert binom(f, a, b) == 0  # C(0,2) at digit 0
        # C(1,1) C(2,1) C(1,1) at digits 1, 2, 25; C(a_h, 0) = 1 elsewhere.
        assert binom(f, a, 3**25 + 3**2 + 3) == 2
        # One more factor C(2,1) at digit 3: 2 * 2 = 1 mod 3.
        assert binom(f, a, 3**25 + 3**3 + 3**2 + 3) == 1


def test_binom_lands_in_the_prime_subfield():
    f = Field(3, 2)
    for a in range(10):
        for b in range(10):
            assert binom(f, a, b) < 3


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
    # and nothing else: both sides of every boundary. The byte-row kernels
    # live in udm.byterows, but for the bit-plane products of
    # characteristic 2 in udm.bitplanes; the per-element ones in udm.gf.
    # The scalar ops and to_newton keep the per-element encoding everywhere.
    edges = [(2, 9), (2, 16), (131, 1), (251, 1), (3, 3), (3, 5), (3, 10), (11, 2)]
    for p, s in sorted(BYTE_ROW_FIELDS) + edges:
        field = Field(p, s)
        rows = (field.insert_row, field.back_substitute, field.eliminate, field.from_newton)
        products = (field.columns, field.dot_columns)
        if (p, s) not in BYTE_ROW_FIELDS:
            homes = [("udm.gf", "_encoding.", rows + products)]
        elif p == 2:
            homes = [("udm.byterows", "byte_rows.", rows), ("udm.bitplanes", "bit_planes.", products)]
        else:
            homes = [("udm.byterows", "byte_rows.", rows + products)]
        for module, owner, kernels in homes:
            assert all(f.__module__ == module for f in kernels), (p, s)
            assert all(f.__qualname__.startswith(owner) for f in kernels), (p, s)
        for f in (field.mul, field.to_newton):
            assert (f.__module__, f.__qualname__.split(".")[0]) == ("udm.gf", "_encoding")


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


# Extension fields above the exhaustive range, up to the 2**16 cap: the odd
# ones and GF(2^11) to GF(2^15); for p = 127, 131 and 251 a digit sum 2p - 2
# nearly fills the packed digit the table build uses.
EXTENSION_FIELDS_ABOVE_1024 = [
    (p, s)
    for p in range(3, 256)
    if all(p % d for d in range(2, p))
    for s in range(2, 11)
    if 1024 < p**s <= 1 << 16
] + [(2, s) for s in range(11, 16)]

# q - 1 just below, at and just above extension._EXP_BLOCK, the powers the
# table build computes one at a time; two blocks and one more power; and a
# last block cut short, q - 1 being no multiple of the block.
BLOCK_EDGE_FIELDS = [(31, 2), (2, 10), (11, 3), (37, 2), (2, 11), (3, 7)]

# sha256 over every extension field with q <= 2**16, in order of p and
# then s, of repr((p, s, modulus, alpha, exp, log, zech)), with the tables
# as lists (legacy_tables), pinned from the tables built one power at a
# time, before the block build.
ALL_TABLES_DIGEST = "15ca542804dfec3f6d87e67dd352b898d880224869f5c220568f7bd460ea51de"

# sha256 of repr((exp, log, zech)) of legacy_tables, pinned from the
# tables built one Horner step per power over alpha's digits, before the
# half-table build.
PINNED_TABLE_DIGESTS = {
    (3, 10): "827103e8375298bb269ad93cf0dfb80013ab43e03062d2b32785f0ad8c7606f7",
    (251, 2): "f9209d0d63602f284ec754ccd349d505f1dda94d2e7dbced16c6d1149b13570c",
    (2, 16): "34750930f31fd4825d55d4c5ec800a752e3d3b939cb0922968910f76ac6b1305",
}


@pytest.fixture(scope="module")
def big_fields():
    return {(2, 16): Field(2, 16), (3, 10): Field(3, 10)}


def legacy_tables(f):
    """(exp, log, zech) as the lists the pinned digests were taken from:
    zech[k] = log(1 + alpha**k), None where that sum is 0, i.e. where
    alpha**k = -1 = p - 1, and zech None for p = 2."""
    zech = None if f.p == 2 else [None if v == f.p - 1 else f._log1p[v] for v in f._exp]
    return list(f._exp), list(f._log), zech


@pytest.mark.parametrize("p,s", [(2, 16), (3, 10), (251, 2)])
def test_tables_are_16_bit_arrays(big_fields, p, s):
    f = big_fields.get((p, s)) or Field(p, s)
    tables = [f._exp, f._log] + ([f._log1p] if p != 2 else [])
    assert [type(t) for t in tables] == [array] * len(tables)
    assert [t.typecode for t in tables] == ["H"] * len(tables)
    assert [len(t) for t in tables] == [f.q - 1, f.q, f.q][: len(tables)]
    assert (f._log1p is None) == (p == 2)
    assert sum(map(sys.getsizeof, tables)) < 500_000


def check_tables_by_polynomial_products(f, samples):
    """exp is a bijection onto the nonzero elements, log its inverse, and
    exp[k+1] = exp[k]*alpha mod modulus by the tests' own polynomial
    product at `samples` seeded k; for odd p, log1p[exp[k]] is log(1 +
    exp[k]) computed digit-wise, and exp[k] is p - 1 where that sum is 0."""
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
            if one_plus:
                assert f._log1p[exp[k]] == log[one_plus]
            else:
                assert exp[k] == p - 1


def check_exp_by_repeated_products(f):
    """Every power in exp, one schoolbook product by alpha after another."""
    p, s = f.p, f.s
    alpha = digits(f.primitive_element(), p, s)
    cur = 1
    for k in range(f.q - 1):
        assert f._exp[k] == cur
        cur = undigits(poly_rem(poly_mul_mod_p(digits(cur, p, s), alpha, p), f.modulus, p), p)
    assert cur == 1


@pytest.mark.parametrize("p,s", EXTENSION_FIELDS_UP_TO_1024)
def test_exp_table_is_the_repeated_raw_product(p, s):
    check_exp_by_repeated_products(Field(p, s))


def test_block_edge_fields_straddle_the_block():
    block = extension._EXP_BLOCK
    assert [p**s - 1 - block for p, s in BLOCK_EDGE_FIELDS] == [-63, 0, 307, 345, 1024, 1163]


@pytest.mark.parametrize("p,s", BLOCK_EDGE_FIELDS)
def test_exp_table_across_the_block_edge(p, s):
    check_exp_by_repeated_products(Field(p, s))


def test_the_field_order_alone_selects_the_block_build(monkeypatch):
    # Blocks follow the first _EXP_BLOCK powers when q - 1 is larger, unless
    # two digits can sum past a byte: the primes from 131 up.
    built = []
    real = extension._exp_blocks
    monkeypatch.setattr(extension, "_exp_blocks", lambda p, s, *rest: built.append((p, s)) or real(p, s, *rest))
    for p, s in [(2, 10), (2, 11), (31, 2), (11, 3), (127, 2), (131, 2), (251, 2), (7, 5)]:
        Field(p, s)
    assert built == [(2, 11), (11, 3), (127, 2), (7, 5)]


def test_every_extension_field_matches_the_pinned_digest():
    h = hashlib.sha256()
    fields = [(p, s) for p in range(2, 256) if all(p % d for d in range(2, p)) for s in range(2, 17)]
    fields = [(p, s) for p, s in fields if p**s <= 1 << 16]
    assert len(fields) == 93
    for p, s in fields:
        f = Field(p, s)
        h.update(repr((p, s, f.modulus, f.primitive_element(), *legacy_tables(f))).encode())
    assert h.hexdigest() == ALL_TABLES_DIGEST


@pytest.mark.parametrize("p,s", [(2, 16), (3, 10)])
def test_big_field_tables_against_polynomial_products(big_fields, p, s):
    check_tables_by_polynomial_products(big_fields[(p, s)], 2000)


@pytest.mark.parametrize("p,s", EXTENSION_FIELDS_ABOVE_1024)
def test_mid_size_field_tables_against_polynomial_products(p, s):
    check_tables_by_polynomial_products(Field(p, s), 200)


@pytest.mark.parametrize("p,s", sorted(PINNED_TABLE_DIGESTS))
def test_tables_match_pinned_digests(big_fields, p, s):
    f = big_fields.get((p, s)) or Field(p, s)
    digest = hashlib.sha256(repr(legacy_tables(f)).encode()).hexdigest()
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
