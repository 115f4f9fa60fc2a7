"""Exact arithmetic in GF(p**s) with a canonical integer encoding of elements.

An element is a plain int in [0, q). Its base-p digits, least significant
first, are the coefficients of the element in the polynomial basis, so 0 and
1 always encode the additive and multiplicative identities. For s == 1 the
encoding is the ordinary residue mod p.

The reduction modulus for s > 1 is pinned to the lexicographically smallest
monic irreducible polynomial of degree s over GF(p), comparing coefficient
lists from the constant term upward, so every build agrees bit-exactly on
element encodings and on serialized matrices.
"""

from __future__ import annotations

import re
from operator import xor

from .errors import BadExponent, DivisionByZero, NotPrime, NotPrimePower, ParseError

MAX_ORDER = 1 << 16

_FIELD_STRING_RE = re.compile(r"^q=(\d+)\^(\d+)(?:;mod=([0-9,]+))?$")


def _least_factor(n: int) -> int:
    """The least prime factor of n >= 2, by trial division that stops there."""
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def is_prime(n: int) -> bool:
    return n >= 2 and _least_factor(n) == n


def factor_prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, s) with q = p**s and p prime."""
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    p, s, rest = _least_factor(q), 0, q
    while rest % p == 0:
        rest //= p
        s += 1
    if rest != 1:
        raise NotPrimePower(f"{q} is not a prime power")
    return p, s


def _check_order(q: int):
    if q > MAX_ORDER:
        raise BadExponent(f"field order {q} exceeds the supported maximum 2**16")


def field_of_order(q: int) -> "Field":
    """GF(q) for a prime power q. The order cap is checked before q is
    factored, so an order far above it fails at once instead of after a
    long trial division."""
    _check_order(q)
    return Field(*factor_prime_power(q))


def _prime_factors(n: int) -> list[int]:
    out = []
    while n > 1:
        out.append(_least_factor(n))
        while n % out[-1] == 0:
            n //= out[-1]
    return out


class Field:
    """The finite field GF(p**s), acting on canonically encoded int elements.

    A prime field needs only its smallest primitive root. For s > 1,
    udm.extension, imported on first use, finds the modulus by Rabin's test
    and the primitive element by powers, both on polynomials packed one int
    each (Kronecker substitution), and builds the exp and log tables and,
    for odd p, log1p, the logarithm of each element's successor; exp is
    built a block of powers at a time past its first 1023. Each table is
    an array('H'), 2 bytes an entry, so no field holds more than 370 KiB
    of them (GF(251^2)).

    add, neg, sub, mul, inv and pow, and the seven row and polynomial
    kernels insert_row, back_substitute, columns, dot_columns, eliminate,
    from_newton and to_newton, are plain functions bound per field by
    _encoding for the field's element encoding; pow(a, 0) == 1 for every
    a, including zero. The other six kernels come from the field's row
    module, udm.byterows when its elements fit a byte, else udm.elementrows.
    Every product of a matrix with a vector or a matrix is columns once
    and dot_columns per vector.
    """

    __slots__ = (
        "p",
        "s",
        "q",
        "modulus",
        "_alpha",
        "_exp",
        "_log",
        "_log1p",
        "add",
        "neg",
        "sub",
        "mul",
        "inv",
        "pow",
        "insert_row",
        "back_substitute",
        "columns",
        "dot_columns",
        "eliminate",
        "from_newton",
        "to_newton",
    )

    def __init__(self, p: int, s: int = 1):
        # p and s are bounded before the trial division in is_prime and
        # before p**s is formed, so a hostile header fails at once.
        if p > MAX_ORDER or (p >= 2 and s > MAX_ORDER.bit_length() - 1):
            raise BadExponent(f"field order {p}^{s} exceeds the supported maximum 2**16")
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if s < 1:
            raise BadExponent(f"exponent must be positive, got {s}")
        q = p**s
        _check_order(q)
        self.p = p
        self.s = s
        self.q = q
        if s == 1:
            cofactors = [(p - 1) // r for r in _prime_factors(p - 1)]
            self.modulus = self._exp = self._log = self._log1p = None
            self._alpha = next(a for a in range(1, p) if all(pow(a, m, p) != 1 for m in cofactors))
        else:
            from .extension import extension_tables

            self.modulus, self._alpha, self._exp, self._log, self._log1p = extension_tables(p, s)
        ops = _encoding(p, s, self._alpha, self._exp, self._log, self._log1p)
        self.add, self.neg, self.sub, self.mul, self.inv, self.pow = ops[:6]
        self.insert_row, self.back_substitute, self.columns, self.dot_columns = ops[6:10]
        self.eliminate, self.from_newton, self.to_newton = ops[10:]

    # -- field-specific queries ----------------------------------------------

    def primitive_element(self) -> int:
        """The smallest-encoded element of multiplicative order q - 1."""
        return self._alpha

    def elements(self) -> range:
        return range(self.q)

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other) -> bool:
        # (p, s) fixes the canonical modulus, the only one a Field holds.
        return isinstance(other, Field) and (self.p, self.s) == (other.p, other.s)

    def __hash__(self) -> int:
        return hash((self.p, self.s))

    def __reduce__(self):
        # Rebuilt from (p, s): the tables and bound functions are derived state.
        return (Field, (self.p, self.s))

    def __repr__(self) -> str:
        return f"GF({self.q})"


def _zero_power(e: int) -> int:
    """0**e, with 0**0 == 1 as for every element."""
    if e < 0:
        raise DivisionByZero("negative power of zero")
    return 0 if e else 1


def _encoding(p: int, s: int, alpha: int, exp, log, log1p):
    """The arithmetic of GF(p**s), bound once for its element encoding, as
    plain functions: (add, neg, sub, mul, inv, pow, insert_row,
    back_substitute, columns, dot_columns, eliminate, from_newton,
    to_newton). alpha is the field's primitive element, and exp, log and
    log1p are its array('H') tables (None for a prime field, log1p None
    for p = 2), which the kernels index as they would lists, negative
    indices included.

    The scalar ops act on canonical elements; inv(0) and pow(0, e) for
    e < 0 raise DivisionByZero, and pow(a, 0) == 1 for every a. A prime
    field reduces mod p; the others multiply by exp and log and add by XOR
    in characteristic 2, by add_power's Zech step in odd.

    insert_row(basis, row) reduces `row` (canonical elements) against
    `basis`, a list of slots indexed by pivot column, one per column of the
    rows, each None or a row stored by this function. It fills the slot of
    the first column where the reduced row is nonzero and returns that
    column, or returns -1 when the row reduces to zero, leaving `basis`
    unchanged. A stored row stays valid until its slot is set back to None,
    so a caller undoes insertions in any order by clearing the columns they
    returned.

    back_substitute(basis, n) solves the unit upper triangular system
    held in slots 0..n-1 of a basis of rows n + k wide, whose last k
    columns are right-hand sides; every one of those slots must be filled.
    A basis has one slot per column, so k = len(basis) - n. It returns the
    n x k solution x as a flat row-major list of canonical elements: row c
    of x is rhs[c] - sum(b[c][j] * x[j] for c < j < n), so column t solves
    right-hand side t, and for k = 1, as solve passes, the list is the one
    solution.

    columns(blocks, width) stacks blocks, a sequence of flat sequences of
    rows `width` long, in order, and packs the stack's `width` columns in
    a form that only dot_columns reads; dot_columns(cols, v), for v
    `width` long and not empty, returns the stack times v, the sum of v[j]
    times column j, as a list. So a caller that multiplies one matrix by
    many vectors packs it once, and a caller that combines rows passes them
    as the columns of their transpose.

    eliminate(cols, i), for cols packed by columns (or returned by
    eliminate) with at least one column, is one step of elimination on
    the columns: None when entry i of the first column is zero, else the
    other columns, each less its entry i over the first's times the first
    (so entry i becomes zero), cut to the entries after i, in the form
    eliminate reads. On the columns of a stack of rows, it reduces the
    rows after row i modulo row i and drops the first column, which is
    what verify's walk runs on (families._walk). In every encoding both
    forms are a sequence of the columns, each a sequence whose entry is
    zero exactly when the element is, so the walk reads a pivot itself.

    A polynomial is a list of canonical elements, constant term first.
    from_newton(c, nodes, lead), for c as long as nodes, returns the
    len(nodes) + 1 coefficients of lead * N_d + sum(c[i] * N_i) for d =
    len(nodes), where N_i is the product of (X - nodes[j]) over j < i: by
    Horner's rule, one step acc * (X - nodes[i]) + c[i] per node from the
    last. to_newton(points) is its dual, confluent Newton interpolation:
    points is a sequence of (beta, w), the w's d elements in all, and it
    returns (c, nodes) such that sum(c[i] * N_i) has Hasse derivatives w at
    each beta; two points with one beta raise DivisionByZero. The d nodes
    z are each beta len(w) times in a row, and level k of the in-place
    table makes c[i] the divided difference over z_{i-k}..z_i: w[k] where
    those nodes coincide, else (c[i] - c[i - 1]) / (z_i - z_{i-k}). Each
    level is one list comprehension, and only its quotient, taken with a
    factor r tabulated once per pair of betas a, b, varies by encoding:
    - GF(2^s), s <= 8: r[c_i ^ c_{i-1}], r the byte-row table of
      x -> x / (a ^ b);
    - the primes: (c_i - c_{i-1}) * r % p, r = 1 / (a - b);
    - every other field: exp[log[c_i - c_{i-1}] - r] for a nonzero
      difference, r = log[a - b] in [0, m), so that the index wraps.
      The difference is an XOR in characteristic 2. In odd
      characteristic it is inlined: c_i - c_{i-1} = c_i * (1 + v) for v =
      -c_{i-1} / c_i, zero when v = -1, so the quotient's logarithm is
      log[c_i] + log1p[v] - r; a zero c_i or c_{i-1} takes its own
      branch.

    The row format is chosen once, here, from (p, s) alone: a field whose
    elements pack into one byte, s * w <= 8 for w-bit digits, takes the
    six row kernels, and for p = 2 to_newton's quotient, from udm.byterows,
    and every other field from udm.elementrows, whose docstrings describe
    their stored rows. A process compiles only the module its fields pick.

    The functions hold the field's tables, never the field itself, so a
    Field is in no reference cycle and is freed as soon as it is dropped.
    """
    m = p**s - 1
    w = 1 if p == 2 else (2 * p - 2).bit_length()
    add_power = None  # bound below for odd p and s > 1
    if s == 1:

        def add(a, b):
            return (a + b) % p

        def neg(a):
            return -a % p

        def sub(a, b):
            return (a - b) % p

        def mul(a, b):
            return a * b % p

        def inv(a):
            if not a:
                raise DivisionByZero("inverse of zero")
            return pow(a, p - 2, p)

        def power(a, e):
            return pow(a, e % m, p) if a else _zero_power(e)

        over = inv

        def level(ws, k, r, steps):
            return [ws[g][k] if g == h else (ci - cj) * r[g][h] % p for g, h, ci, cj in steps]

    else:

        def mul(a, b):
            return exp[log[a] + log[b] - m] if a and b else 0

        def inv(a):
            if not a:
                raise DivisionByZero("inverse of zero")
            return exp[-log[a]]

        def power(a, e):
            return exp[log[a] * e % m] if a else _zero_power(e)

        if p == 2:
            add = sub = xor

            def neg(a):
                return a

        else:
            half, minus_one = m // 2, p - 1  # -1 is alpha**half, encoded p - 1

            def add_power(x, lw):
                """x + alpha**lw for canonical x and lw in [-m, m), by Zech
                logarithms: alpha**a + alpha**b = alpha**(a + log1p[v]) for
                v = exp[b - a], zero when v = -1, which is p - 1."""
                if not x:
                    return exp[lw]
                lx = log[x]
                v = exp[(lw - lx) % m]
                return 0 if v == minus_one else exp[lx + log1p[v] - m]

            def add(a, b):
                return add_power(a, log[b]) if b else a

            def neg(a):
                return exp[log[a] + half - m] if a else 0

            def sub(a, b):
                return add_power(a, log[b] + half - m) if b else a  # + (-b)

            def level(ws, k, r, steps):
                # c_i - c_{i-1} = c_i * (1 + v) for v = -c_{i-1} / c_i, as in
                # add_power, so the quotient's logarithm is lc + log1p[v] - r.
                return [
                    ws[g][k] if g == h
                    else (
                        0 if (v := exp[(log[cj] + half - (lc := log[ci])) % m]) == minus_one
                        else exp[(lc + log1p[v] - r[g][h]) % m]
                    ) if ci and cj
                    else exp[log[ci] - r[g][h]] if ci
                    else exp[(log[cj] + half - r[g][h]) % m] if cj
                    else 0
                    for g, h, ci, cj in steps
                ]

            over = log.__getitem__

    if s * w <= 8:
        from .byterows import byte_rows

        *kernels, quotient = byte_rows(p, s, w, alpha, exp)
    else:
        from .elementrows import element_rows

        *kernels, quotient = element_rows(p, s, exp, log, add_power, neg, inv, mul)
    if quotient:  # p = 2; the other fields bind over and level above
        over, level = quotient

    def to_newton(points):
        betas = [a for a, _ in points]
        if len(set(betas)) < len(betas):
            raise DivisionByZero("two points share a beta")
        ws = [w for _, w in points]
        group = [g for g, w in enumerate(ws) for _ in w]
        r = [[over(sub(a, b)) for b in betas[:g]] for g, a in enumerate(betas)]
        c = [ws[g][0] for g in group]
        for k in range(1, len(group)):
            # Level k from level k - 1: node i pairs with node i - k, which
            # holds the same beta when both are in one group.
            c[k:] = level(ws, k, r, zip(group[k:], group, c[k:], c[k - 1 :]))
        return c, [betas[g] for g in group]

    return add, neg, sub, mul, inv, power, *kernels, to_newton


def field_string(field: Field) -> str:
    """Canonical header form, e.g. 'q=3^1' or 'q=2^2;mod=1,1,1'."""
    if field.s == 1:
        return f"q={field.p}^1"
    mod = ",".join(str(c) for c in field.modulus)
    return f"q={field.p}^{field.s};mod={mod}"


def parse_field_string(text: str) -> Field:
    m = _FIELD_STRING_RE.match(text)
    if not m:
        raise ParseError(f"bad field string: {text!r}")
    p, s = int(m.group(1)), int(m.group(2))
    try:
        field = Field(p, s)
    except (NotPrime, BadExponent) as exc:
        raise ParseError(str(exc)) from exc
    if m.group(3) is None:
        if s != 1:
            raise ParseError(f"field string {text!r} is missing the modulus")
    else:
        declared = [int(c) for c in m.group(3).split(",")]
        if s == 1 or declared != field.modulus:
            raise ParseError(
                f"field string {text!r} does not use the canonical modulus "
                f"for GF({p}^{s})"
            )
    return field
