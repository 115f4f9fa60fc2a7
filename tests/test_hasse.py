"""Hasse derivatives, root multiplicities, and the bivariate monomial values."""

import random

import pytest

from udm.errors import BadPoint
from udm.gf import Field
from udm.hasse import (
    INFINITE,
    Polynomial,
    binom,
    evaluate,
    from_linear_factors,
    hasse_derivative,
    hasse_monomial_bivariate,
    poly_add,
    poly_mul,
    poly_scale,
    root_multiplicity,
)

F2 = Field(2)
F3 = Field(3)
F4 = Field(2, 2)
F5 = Field(5)


# -- independent oracles ---------------------------------------------------------


def convolve_oracle(field, a, b):
    """Coefficient convolution, written independently of poly_mul."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i in range(len(a)):
        for j in range(len(b)):
            out[i + j] = field.add(out[i + j], field.mul(a[i], b[j]))
    while out and out[-1] == 0:
        out.pop()
    return out


def divide_out_root(field, coeffs, beta):
    """Synthetic division by (X - beta); returns (quotient, remainder)."""
    q = []
    acc = 0
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, beta), c)
        q.append(acc)
    rem = q.pop()
    q.reverse()
    return q, rem


def multiplicity_by_division(field, coeffs, beta):
    m = 0
    cur = list(coeffs)
    while cur:
        quot, rem = divide_out_root(field, cur, beta)
        if rem != 0:
            break
        m += 1
        cur = quot
    return m


def compositions_at_most(total, parts):
    if parts == 1:
        for k in range(total + 1):
            yield (k,)
        return
    for k in range(total + 1):
        for rest in compositions_at_most(total - k, parts - 1):
            yield (k,) + rest


def random_poly(rng, field, max_deg):
    return Polynomial(field, [rng.randrange(field.q) for _ in range(rng.randrange(max_deg + 2))])


# -- representation ----------------------------------------------------------------


def test_normalization():
    p = Polynomial(F3, [1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    z = Polynomial(F3, [0, 0])
    assert z.is_zero()
    assert z.degree is None
    assert z == Polynomial.zero(F3)


def test_monomial_and_one():
    assert Polynomial.monomial(F3, 2).coeffs == (0, 0, 1)
    assert Polynomial.one(F3).coeffs == (1,)


def test_rejects_out_of_range_coefficients():
    with pytest.raises(ValueError):
        Polynomial(F3, [4])


# -- derivative basics ----------------------------------------------------------------


def test_derivative_kills_cubic_over_gf3():
    # The first derivative of X^3 carries C(3,1) = 3, which vanishes mod 3.
    assert hasse_derivative(Polynomial.monomial(F3, 3), 1).is_zero()


def test_derivative_of_monomials():
    for field in (F3, F5):
        for t in range(9):
            mono = Polynomial.monomial(field, t)
            for i in range(9):
                expected = (
                    Polynomial.monomial(field, t - i, binom(field, t, i))
                    if i <= t and binom(field, t, i)
                    else Polynomial.zero(field)
                )
                assert hasse_derivative(mono, i) == expected


def test_derivative_order_above_degree():
    assert hasse_derivative(Polynomial.monomial(F3, 1), 2).is_zero()


def test_zeroth_derivative_is_identity():
    rng = random.Random(11)
    for _ in range(20):
        p = random_poly(rng, F4, 5)
        assert hasse_derivative(p, 0) == p
        for beta in F4.elements():
            assert evaluate(hasse_derivative(p, 0), beta) == evaluate(p, beta)


def test_rejects_negative_order():
    with pytest.raises(ValueError):
        hasse_derivative(Polynomial.one(F3), -1)


# -- evaluation ----------------------------------------------------------------------------


def test_evaluate_examples():
    assert evaluate(Polynomial(F2, [1, 0, 1]), 1) == 0  # X^2 + 1 at 1 over GF(2)
    one = Polynomial.one(F3)
    assert all(evaluate(one, b) == 1 for b in F3.elements())
    assert evaluate(Polynomial.zero(F5), 3) == 0


def test_evaluate_rejects_foreign_elements():
    with pytest.raises(ValueError):
        evaluate(Polynomial.one(F3), 3)


# -- multiplication helpers -------------------------------------------------------------------


def test_poly_mul_against_convolution_oracle():
    rng = random.Random(12)
    for field in (F2, F3, F4, F5):
        for _ in range(25):
            f = random_poly(rng, field, 4)
            g = random_poly(rng, field, 4)
            assert list(poly_mul(f, g).coeffs) == convolve_oracle(field, f.coeffs, g.coeffs)


def test_poly_add_and_scale():
    f = Polynomial(F3, [1, 2])
    g = Polynomial(F3, [2, 1, 1])
    assert poly_add(f, g).coeffs == (0, 0, 1)
    assert poly_scale(g, 2).coeffs == (1, 2, 2)


# -- linear factors and multiplicities ----------------------------------------------------------


def test_from_linear_factors_examples():
    assert from_linear_factors(F2, [(0, 1)]).coeffs == (0, 1)
    # (X-1)^2 (X-2) over GF(3), expanded by hand: X^3 + 2X^2 + 2X + 1.
    assert from_linear_factors(F3, [(1, 2), (2, 1)]).coeffs == (1, 2, 2, 1)
    assert from_linear_factors(F5, [(2, 0), (3, 0)]) == Polynomial.one(F5)


def test_root_multiplicity_examples():
    p = from_linear_factors(F3, [(1, 2)])
    assert root_multiplicity(p, 1) == 2
    assert root_multiplicity(Polynomial.zero(F3), 2) == INFINITE
    q = Polynomial(F3, [1, 1])  # X + 1, no root at 0
    assert root_multiplicity(q, 0) == 0


def test_vanishing_pattern_exhaustive():
    # For products of known linear factors the derivatives of order < m
    # vanish at each root and the order-m one does not; multiplicity queries
    # agree with repeated synthetic division.
    for p, s in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        field = Field(p, s)
        gammas = list(field.elements())
        for ms in compositions_at_most(6, field.q):
            if sum(ms) == 0:
                continue
            poly = from_linear_factors(field, list(zip(gammas, ms)))
            for r, m in enumerate(ms):
                for i in range(m):
                    assert evaluate(hasse_derivative(poly, i), gammas[r]) == 0
                assert evaluate(hasse_derivative(poly, m), gammas[r]) != 0
                assert root_multiplicity(poly, gammas[r]) == m
                assert multiplicity_by_division(field, poly.coeffs, gammas[r]) == m


# -- derivative properties -------------------------------------------------------------------------


def test_linearity():
    rng = random.Random(13)
    for field in (F3, F4, F5):
        for _ in range(25):
            f = random_poly(rng, field, 5)
            g = random_poly(rng, field, 5)
            gamma = rng.randrange(field.q)
            eta = rng.randrange(field.q)
            i = rng.randrange(5)
            lhs = hasse_derivative(poly_add(poly_scale(f, gamma), poly_scale(g, eta)), i)
            rhs = poly_add(
                poly_scale(hasse_derivative(f, i), gamma),
                poly_scale(hasse_derivative(g, i), eta),
            )
            assert lhs == rhs


def test_product_rule():
    rng = random.Random(14)
    for field in (F2, F3, F4, F5):
        for _ in range(25):
            f = random_poly(rng, field, 4)
            g = random_poly(rng, field, 4)
            for i in range(7):
                lhs = hasse_derivative(poly_mul(f, g), i)
                rhs = Polynomial.zero(field)
                for i1 in range(i + 1):
                    rhs = poly_add(
                        rhs,
                        poly_mul(hasse_derivative(f, i1), hasse_derivative(g, i - i1)),
                    )
                assert lhs == rhs


def test_composition_identity():
    rng = random.Random(15)
    for field in (F2, F3, F5):
        for _ in range(25):
            f = random_poly(rng, field, 6)
            for i1 in range(5):
                for i2 in range(5):
                    lhs = hasse_derivative(hasse_derivative(f, i2), i1)
                    rhs = poly_scale(
                        hasse_derivative(f, i1 + i2), binom(field, i1 + i2, i1)
                    )
                    assert lhs == rhs


def test_derivative_of_linear_factor_powers():
    rng = random.Random(16)
    for field in (F3, F5):
        for _ in range(15):
            gamma = rng.randrange(field.q)
            k = rng.randrange(7)
            i = rng.randrange(7)
            base = from_linear_factors(field, [(gamma, k)])
            lhs = hasse_derivative(base, i)
            c = binom(field, k, i)
            rhs = (
                poly_scale(from_linear_factors(field, [(gamma, k - i)]), c)
                if i <= k
                else Polynomial.zero(field)
            )
            assert lhs == rhs


# -- bivariate values ---------------------------------------------------------------------------------


def test_bivariate_at_finite_points():
    for field in (F3, F4):
        n = 4
        for t in range(n):
            for i in range(n + 1):
                for beta in field.elements():
                    c = binom(field, t, i)
                    expected = field.mul(c, field.pow(beta, t - i)) if c else 0
                    assert hasse_monomial_bivariate(field, t, n, i, (beta, 1)) == expected


def test_bivariate_at_infinity_selects_reversal():
    n = 5
    for t in range(n):
        for i in range(n + 1):
            expected = 1 if i == n - 1 - t else 0
            assert hasse_monomial_bivariate(F3, t, n, i, (1, 0)) == expected


def test_bivariate_zero_binomial():
    assert hasse_monomial_bivariate(F3, 0, 3, 1, (2, 1)) == 0


def test_bivariate_rejects_other_points():
    with pytest.raises(BadPoint):
        hasse_monomial_bivariate(F3, 1, 3, 0, (0, 0))
    with pytest.raises(BadPoint):
        hasse_monomial_bivariate(F3, 1, 3, 0, (2, 0))
    with pytest.raises(BadPoint):
        hasse_monomial_bivariate(F3, 1, 3, 0, (1, 2))
