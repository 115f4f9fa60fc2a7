"""Independent cross-checks of the construction, and the `udm oracle` command.

Each check derives what construct builds by another route, so the fast
path is tested against a slow one: the Hasse-derivative route and the
radix-p digit product for single entries, the delta chain that inverts the
binomial matrix, and refute_bound, an exhaustive search showing that no
family has more than q + 1 channels at desk scale. Only `udm oracle` and
the tests import this module, so no other command loads it or udm.hasse.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from . import gf, hasse
from .errors import BadArgument, BudgetExceeded, ParseError
from .families import (
    MAX_COUNT_BITS,
    UdmFamily,
    check_construct,
    check_family_size,
    construct,
    verify,
)
from .gf import Field
from .linalg import Matrix, anti_identity, identity, matmul

# The most steps each check of run_check may take, counted as check_cost
# counts them; at its bound each check takes about three seconds (2-core
# x86-64 host, Python 3.11).
MAX_ORACLE_STEPS = {"hasse": 2 * 10**7, "lucas": 6 * 10**5, "delta": 12 * 10**7}

# The most raw candidates, q**(n*n*(L-2)), that refute_bound will search.
MAX_CANDIDATES = 10_000_000


class SearchReport(NamedTuple):
    """What refute_bound found. total_candidates is q**(n*n*(L-2)), or
    None when that count has more than MAX_COUNT_BITS bits, which only an
    n = 1 search reports without refusing."""

    exists: bool
    family: UdmFamily | None
    total_candidates: int | None
    candidates_verified: int
    note: str | None = None


def construct_entry_oracle(field: Field, L: int, n: int, l: int, i: int, t: int) -> int:
    """Entry (i, t) of the l-th constructed matrix, derived through the
    polynomial route instead of the direct binomial formula.

    For l != 1 it evaluates the i-th Hasse derivative of X^t at the l-th
    evaluation point (0 for l = 0, alpha**(l-2) afterwards). For l = 1 it
    evaluates the homogeneous monomial at the point at infinity.
    """
    if not 0 <= l < L:
        raise BadArgument(f"matrix index {l} out of range [0, {L})")
    if not (0 <= i < n and 0 <= t < n):
        raise BadArgument("entry indices out of range")
    if l == 1:
        return hasse.hasse_monomial_bivariate(field, t, n, i, (1, 0))
    beta = 0 if l == 0 else field.pow(field.primitive_element(), l - 2)
    mono = hasse.Polynomial.monomial(field, t)
    return hasse.evaluate(hasse.hasse_derivative(mono, i), beta)


def lucas_entry(field: Field, L: int, n: int, l: int, i: int, t: int) -> int:
    """Entry (i, t) of the (l+2)-nd constructed matrix computed digit by
    digit in radix p: the product over digits h of
    C(t_h, i_h) * alpha**(l * (t_h - i_h) * p**h)."""
    if not 0 <= l < L - 2:
        raise BadArgument(f"twist index {l} out of range [0, {L - 2})")
    if not (0 <= i < n and 0 <= t < n):
        raise BadArgument("entry indices out of range")
    p = field.p
    m = 0
    while p**m < n:
        m += 1
    alpha = field.primitive_element()
    acc = 1
    ii, tt = i, t
    for h in range(m):
        ii, i_h = divmod(ii, p)
        tt, t_h = divmod(tt, p)
        c = hasse.binom(field, t_h, i_h)
        if c == 0:
            return 0
        acc = field.mul(acc, c)
        acc = field.mul(acc, field.pow(alpha, l * (t_h - i_h) * p**h))
    return acc


def delta_matrix(field: Field, n: int, t: int) -> Matrix:
    """Unit upper bidiagonal factor: +1 on the diagonal, -1 at (t'-1, t')
    for t < t' <= n-1. The product A_2 * delta_0 * ... * delta_{n-1} is the
    identity, which inverts the binomial matrix column by column."""
    if not 0 <= t < n:
        raise BadArgument(f"index {t} out of range [0, {n})")
    neg1 = hasse.nat_map(field, -1)
    entries = [0] * (n * n)
    for d in range(n):
        entries[d * n + d] = 1
    for tp in range(t + 1, n):
        entries[(tp - 1) * n + tp] = neg1
    return Matrix(field, n, n, entries)


def pascal_inverse_check(family: UdmFamily) -> bool:
    """Whether A_2 times the full chain of delta factors is the identity."""
    if family.L < 3:
        raise BadArgument("family has no third matrix")
    field, n = family.field, family.n
    acc = family.matrices[2]
    for t in range(n):
        acc = matmul(acc, delta_matrix(field, n, t))
    return acc == identity(field, n)


def refute_bound(field: Field, n: int, L: int) -> SearchReport:
    """Exhaustively search for an (L, n, q) family with A_0 = I and A_1 = J.

    Candidate matrices for the remaining slots are pruned by two necessary
    conditions before verification: every first-row entry nonzero, and the
    ratios of the last two first-row entries pairwise distinct across slots.
    Raises BudgetExceeded when the raw space q**(n*n*(L-2)) is above
    MAX_CANDIDATES.
    """
    if n < 1 or L < 1:
        raise BadArgument(f"n and L must be positive, got n={n}, L={L}")
    check_family_size(L, n)
    q = field.q
    slots = max(L - 2, 0)
    if n == 1:
        # q**slots has at least (bit_length(q) - 1) * slots + 1 bits: a
        # count too long for MAX_COUNT_BITS is not formed.
        total = q**slots if (q.bit_length() - 1) * slots < MAX_COUNT_BITS else None
        if total is not None and total.bit_length() > MAX_COUNT_BITS:
            total = None
        fam = UdmFamily(field, L, 1, (identity(field, 1),) * L)
        return SearchReport(
            True,
            fam,
            total,
            0,
            note="n = 1 is unconstrained: the all-ones family works for any L",
        )
    # The count is built up factor by factor, so a huge one is refused
    # before it is formed.
    total = 1
    for _ in range(n * n * slots):
        total *= q
        if total > MAX_CANDIDATES:
            raise BudgetExceeded(
                f"{q}^{n * n * slots} raw candidates exceed the budget of {MAX_CANDIDATES}"
            )
    base = (identity(field, n), anti_identity(field, n))[:L]
    # With no slot there is no candidate, and product(repeat=0) below
    # yields the one empty pick: base alone is verified.
    combos = itertools.product(range(q), repeat=n * n) if slots else ()
    candidates = (
        (Matrix._unchecked(field, n, n, combo), field.mul(combo[n - 2], field.inv(combo[n - 1])))
        for combo in combos
        if all(combo[:n])
    )
    # One slot takes the candidates as they come, so the search stops making
    # them at the first passing family; product() would list them all first.
    choices = zip(candidates) if slots == 1 else itertools.product(candidates, repeat=slots)
    verified = 0
    for picks in choices:
        ratios = [r for _, r in picks]
        if len(set(ratios)) != slots:
            continue
        fam = UdmFamily(field, L, n, base + tuple(m for m, _ in picks))
        verified += 1
        if verify(fam).passed:
            return SearchReport(True, fam, total, verified)
    return SearchReport(False, None, total, verified)


def check_cost(check: str, L: int, n: int):
    """Raise BadArgument when check ("hasse", "lucas" or "delta") on
    construct's (L, n) family would take more than MAX_ORACLE_STEPS[check]
    steps; nothing is built.

    The Hasse route takes each of the L*n^2 entries through a polynomial of
    up to n coefficients, with a fixed cost per entry worth about 40 more:
    L*n^2*(n + 40) steps. The digit product takes each of the (L-2)*n^2
    entries of the twisted matrices through at most a dozen radix-p digits:
    one step per entry. The delta chain makes n products of n x n matrices:
    n^4 steps.
    """
    if check == "hasse":
        steps = L * n * n * (n + 40)
    elif check == "lucas":
        steps = max(L - 2, 0) * n * n
    else:
        steps = n**4
    if steps > MAX_ORACLE_STEPS[check]:
        raise BadArgument(
            f"oracle {check} at (L={L}, n={n}) would take {steps} steps, "
            f"above the supported maximum {MAX_ORACLE_STEPS[check]}"
        )


def run_check(check: str, q: int, L: int | None, n: int) -> int:
    """Run one `udm oracle` check over GF(q), print its outcome and return
    the exit code: 0 when the routes agree, 1 when they do not. L defaults
    to q + 2 for "bound" and is required by "hasse" and "lucas", which
    also needs L >= 3: it has no matrix to check below that."""
    field = gf.field_of_order(q)
    if check in ("hasse", "lucas"):
        if L is None:
            raise ParseError(f"oracle {check} requires --L")
        if check == "lucas" and L < 3:
            raise BadArgument(f"oracle lucas checks the matrices from the third on: --L {L} < 3")
        check_construct(field, L, n)
        check_cost(check, L, n)
        fam = construct(field, L, n)
        # lucas_entry indexes the matrices from the third one on.
        if check == "hasse":
            checked, entry, route = fam.matrices, construct_entry_oracle, "the derivative route"
        else:
            checked, entry, route = fam.matrices[2:], lucas_entry, "the digit product"
        bad = sum(
            entry(field, L, n, l, i, t) != m.at(i, t)
            for l, m in enumerate(checked)
            for i in range(n)
            for t in range(n)
        )
        if bad == 0:
            print(f"PASS ({len(checked)} matrices, {n * n} entries each agree with {route})")
            return 0
        print(f"FAIL ({bad} entries disagree)")
        return 1
    if check == "delta":
        check_construct(field, 3, n)
        check_cost(check, 3, n)
        if pascal_inverse_check(construct(field, 3, n)):
            print(f"PASS (binomial matrix times {n} delta factors is the identity)")
            return 0
        print("FAIL (delta product is not the identity)")
        return 1
    # bound
    if L is None:
        L = field.q + 2
    report = refute_bound(field, n, L)
    expected = n == 1 or L <= field.q + 1
    if report.exists:
        total = report.total_candidates
        if total is None:
            total = f"{field.q}^{n * n * (L - 2)}"
        print(
            f"found ({L},{n},{field.q}) family after verifying "
            f"{report.candidates_verified} of {total} raw candidates"
        )
        if report.note:
            print(report.note)
    else:
        print(
            f"no ({L},{n},{field.q}) family exists; {report.total_candidates} raw candidates "
            f"pruned to {report.candidates_verified} verified"
        )
    if report.exists == expected:
        print("PASS (search agrees with the L <= q+1 bound)")
        return 0
    print("FAIL (search contradicts the L <= q+1 bound)")
    return 1
