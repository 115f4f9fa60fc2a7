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
from functools import reduce as _fold
from itertools import compress
from operator import mul as _int_mul, xor

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

    add, neg, sub, mul, inv and pow, and the six row and polynomial
    kernels insert_row, back_substitute, columns, dot_columns, from_newton
    and to_newton, are plain functions bound per field by _encoding for the
    field's element encoding; pow(a, 0) == 1 for every a, including zero.
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
        self.from_newton, self.to_newton = ops[10:]

    # -- field-specific queries ----------------------------------------------

    def primitive_element(self) -> int:
        """The smallest-encoded element of multiplicative order q - 1."""
        return self._alpha

    def elements(self) -> range:
        return range(self.q)

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.s == other.s
            and self.modulus == other.modulus
        )

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
    back_substitute, columns, dot_columns, from_newton, to_newton). alpha
    is the field's primitive element, and exp, log and log1p are its
    array('H') tables (None for a prime field, log1p None for p = 2),
    which the kernels index as they would lists, negative indices included.

    The scalar ops act on canonical elements; inv(0) and pow(0, e) for
    e < 0 raise DivisionByZero, and pow(a, 0) == 1 for every a.

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
    solution. The per-element kernel solves each right-hand side in turn,
    one dot product per row: x_t[c] = rhs_t(b) - dot(x_t[c+1:], b).

    columns(blocks, width) stacks blocks, a sequence of flat sequences of
    rows `width` long, in order, and packs the stack's `width` columns in
    a form that only dot_columns reads; dot_columns(cols, v), for v
    `width` long and not empty, returns the stack times v, the sum of v[j]
    times column j, as a list. So a caller that multiplies one matrix by
    many vectors packs it once, and a caller that combines rows passes them
    as the columns of their transpose.

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
    - every other field: exp[log[c_i - c_{i-1}] + r] for a nonzero
      difference, r = -log[a - b] in (-m, 0], so that the index wraps.
      The difference is an XOR in characteristic 2. In odd
      characteristic it is inlined: c_i - c_{i-1} = c_i * (1 + v) for v =
      -c_{i-1} / c_i, zero when v = -1, so the quotient's logarithm is
      log[c_i] + log1p[v] + r; a zero c_i or c_{i-1} takes its own
      branch.

    The encoding is chosen once, here. A field whose elements pack into
    one byte with room for a digit-wise sum, GF(2^s) for s <= 8, the odd
    primes up to 127, GF(9), GF(25) and GF(49), takes the first five kernels
    from _byte_rows: a row is one byte per element, held as a big-endian
    int, a sum of rows is one XOR, or one int add and one bytes.translate,
    and a scaled row one bytes.translate, so each kernel makes a few
    C-level calls per row instead of one Python step per element. A prime
    field, which has no tables, passes the powers of its primitive element;
    for GF(2) that is {1}.

    Every other field, and the scalar ops of every field, use the
    per-element kernels. There, a stored row is the tail after the
    pivot column of the row scaled to a leading 1, and each encoding defines
    its scalar ops and the pieces the shared kernels are built from:
    pivot(t, i), that scaling of t[i:]; reduce(t, i, b), the step t - t[i]
    * b on the tail; value(y), a stored entry's canonical element; dot(xs,
    b), the sum of xs[j] * b[j] for canonical xs and stored b over the
    shorter of the two; and mul_add(acc, c, v), which adds c * v[i] to
    acc[i] for every i < len(v), in place. Each keeps its own per-element
    loop:
    - prime fields: the residues themselves, reduced with % p;
    - characteristic 2: stored rows hold logarithms, sums are XORs;
    - odd characteristic, s > 1: stored rows hold logarithms, sums go
      through Zech logarithms, alpha**a + alpha**b = alpha**(a + log1p[v])
      for v = exp[b - a], zero when v = -1, which is p - 1 and
      alpha**((q - 1) / 2).
    Stored logarithms are kept in [-m, 0) for m = q - 1, with 0 marking a
    zero entry, so that adding a logarithm in [0, m) gives an index in
    [-m, m), where Python's negative indexing wraps the exp table mod m;
    c goes to such a logarithm once per mul_add call.
    An all-zero tail, as from a unit row of an identity or reversal
    matrix, is stored empty, and reducing by it only drops the pivot entry.
    Here columns cuts lists, rows[j::width]. A prime field's dot_columns
    takes each entry as one C-level sum of unreduced products, reduced
    once; every other field's runs mul_add once per nonzero v[j].

    The functions hold the field's tables, never the field itself, so a
    Field is in no reference cycle and is freed as soon as it is dropped.
    """
    m = p**s - 1
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

        def pivot(t, i):
            k = pow(t[i], p - 2, p)
            return [k * x % p for x in t[i + 1 :]]

        def reduce(t, i, b):
            f = t[i]
            return [(x - f * y) % p for x, y in zip(t[i + 1 :], b)]

        def value(y):
            return y

        def dot(xs, b):
            return sum(map(_int_mul, xs, b)) % p

        def mul_add(acc, c, v):
            if c:
                acc[: len(v)] = [(x + c * y) % p for x, y in zip(acc, v)]

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

        def pivot(t, i):
            l0 = log[t[i]]
            return [(log[x] - l0) % m - m if x else 0 for x in t[i + 1 :]]

        def value(y):
            return exp[y] if y else 0

        def over(x):
            return -log[x]

        def level(ws, k, r, steps):
            return [
                ws[g][k] if g == h else exp[log[x] + r[g][h]] if (x := sub(ci, cj)) else 0
                for g, h, ci, cj in steps
            ]

        if p == 2:
            add = sub = xor

            def neg(a):
                return a

            def reduce(t, i, b):
                lf = log[t[i]]
                return [x ^ exp[lf + y] if y else x for x, y in zip(t[i + 1 :], b)]

            def dot(xs, b):
                acc = 0
                for x, y in zip(xs, b):
                    if x and y:
                        acc ^= exp[log[x] + y]
                return acc

            def mul_add(acc, c, v):
                if c:
                    lc = log[c] - m
                    acc[: len(v)] = [x ^ exp[log[y] + lc] if y else x for x, y in zip(acc, v)]

        else:
            half, minus_one = m // 2, p - 1  # -1 is alpha**half, encoded p - 1

            def add_power(x, lw):
                """x + alpha**lw for canonical x and lw in [-m, m)."""
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
                # add_power, so the quotient's logarithm is lc + log1p[v] + r.
                return [
                    ws[g][k] if g == h
                    else (
                        0 if (v := exp[(log[cj] + half - (lc := log[ci])) % m]) == minus_one
                        else exp[(lc + log1p[v] + r[g][h]) % m]
                    ) if ci and cj
                    else exp[log[ci] + r[g][h]] if ci
                    else exp[(log[cj] + half + r[g][h]) % m] if cj
                    else 0
                    for g, h, ci, cj in steps
                ]

            def reduce(t, i, b):
                nf = (log[t[i]] + half) % m  # the logarithm of -t[i]
                return [add_power(x, nf + y) if y else x for x, y in zip(t[i + 1 :], b)]

            def dot(xs, b):
                acc = 0
                for x, y in zip(xs, b):
                    if x and y:
                        acc = add_power(acc, log[x] + y)
                return acc

            def mul_add(acc, c, v):
                if c:
                    lc = log[c] - m
                    acc[: len(v)] = [add_power(x, log[y] + lc) if y else x for x, y in zip(acc, v)]

    def insert_row(basis, row):
        t, c = row, 0
        while True:
            for i, v in enumerate(t):
                if v:
                    break
            else:
                return -1
            c += i
            b = basis[c]
            if b is None:
                b = pivot(t, i)
                basis[c] = b if any(b) else []
                return c
            t = reduce(t, i, b) if b else t[i + 1 :]
            c += 1

    def back_substitute(basis, n):
        k = len(basis) - n
        x = [0] * (n * k)
        for r in range(-k, 0):
            # Right-hand side k + r is entry r of a stored tail, and dot's
            # zip stops at xt's end, before the first of them.
            xt = [0] * n
            for c in range(n - 1, -1, -1):
                b = basis[c]
                if b:
                    xt[c] = sub(value(b[r]), dot(xt[c + 1 :], b))
            x[k + r :: k] = xt
        return x

    def columns(blocks, width):
        rows = [x for b in blocks for x in b]
        return [rows[j::width] for j in range(width)]

    if s == 1:

        def dot_columns(cols, v):
            # Each entry is one unreduced sum of products, reduced once.
            return [sum(map(_int_mul, v, row)) % p for row in zip(*cols)]

    else:

        def dot_columns(cols, v):
            acc = [0] * len(cols[0])
            for col, vj in zip(cols, v):
                mul_add(acc, vj, col)
            return acc

    def from_newton(c, nodes, lead):
        acc = [lead]
        for ci, b in zip(reversed(c), reversed(nodes)):
            acc, prev = [ci] + acc, acc
            mul_add(acc, neg(b), prev)
        return acc

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

    w = 1 if p == 2 else (2 * p - 2).bit_length()
    if s * w <= 8:
        exp = exp or [pow(alpha, k, p) for k in range(m)]
        *kernels, divide = _byte_rows(p, s, w, exp)
        insert_row, back_substitute, columns, dot_columns, from_newton = kernels
        if p == 2:
            # The packed byte is the canonical element, so a quotient by
            # a ^ b is one index into the byte-row table of 1 / (a ^ b).
            over = divide.__getitem__

            def level(ws, k, r, steps):
                return [ws[g][k] if g == h else r[g][h][ci ^ cj] for g, h, ci, cj in steps]
    return (
        add, neg, sub, mul, inv, power, insert_row, back_substitute, columns, dot_columns,
        from_newton, to_newton,
    )


def _byte_rows(p, s, w, exp):
    """insert_row, back_substitute, columns, dot_columns and from_newton
    of _encoding for a field whose elements pack into one byte with room
    for a digit-wise sum, from its exp table, each acting on a whole row,
    column or bit plane with a few C-level calls; and inv, its tables of
    x -> x / b.

    An element is packed as its base-p digits, w bits apart, s * w <= 8:
    w = 1 for p = 2, and w = (2p - 2).bit_length() for odd p, so that the
    sum of two digits stays in its slot, as _exp_table packs them. For
    prime fields and in characteristic 2 the packed byte is the canonical
    encoding itself; otherwise a canonical row packs, and a packed one
    unpacks, with one translate. A row of n elements is n packed bytes,
    one per element in column order, or the big-endian int of those bytes.
    Adding two rows is one XOR in characteristic 2. In odd characteristic
    it is one int add, in which no digit carries into the next, followed by
    one translate through red, which reduces every digit mod p. The
    leading element of a nonzero int row is its top byte.

    A row times c is one translate through the 256-byte table of x -> c * x.
    The table of alpha maps alpha**k to alpha**(k + 1), and the table of
    alpha**(k + 1) is that of alpha**k translated through it, so the q - 1
    tables cost q - 1 translates and no field multiplications. scale[c]
    is the table of a canonical c; neg[b] and inv[b] are those of -b and
    1 / b for a packed b, the same tables at other powers of alpha. A
    stored row is the full-width bytes row scaled to a leading 1;
    insert_row adds a row with its own XOR, or int add and translate, in
    place of a call of add.
    columns joins the packed blocks into one bytes object and cuts out
    each column as a strided slice. In odd characteristic dot_columns adds
    one translated column per nonzero v[j]. In characteristic 2, c * y is
    GF(2)-linear in c, so the sum of v[j] * col_j is the sum over bits b of
    x**b times the XOR of the columns whose v[j] has bit b set. There
    columns holds each column as one int, with the stack's height and two
    masks, ones (a 1 in every byte) and low (the low s - 1 bits of every
    byte), and dot_columns runs Horner's rule over the bit planes from the
    top: acc * x for every byte at once, (acc & low) << 1 ^ (acc >> s - 1
    & ones) * modlow with modlow = x**s reduced, then one XOR per column
    whose v[j] has the plane's bit. A product is s - 1 shift steps and
    about n * s / 2 int XORs, where a translate and a from_bytes per
    column cost more than the XOR; the columns pay one from_bytes each,
    once, when packed. back_substitute chooses its form by the k it reads:
    for k = 1, solve's, it adds one translated column of the stored rows
    per nonzero entry of x; for k > 1, verify's k = n, it adds one
    translated k-byte row of x per nonzero coefficient, where the column
    form would cut and translate every column once per right-hand side.
    from_newton holds its polynomial as one int, constant term in the low
    byte, so a Horner step acc * (X - b) + c is one shift, one translate
    through the table of -b and one add.

    That covers GF(2^s) for s <= 8, every odd prime p <= 127, and GF(9),
    GF(25) and GF(49), the fields with s * w <= 8. translate maps a byte to
    a byte, so GF(27) (three 3-bit digits), GF(121) (two 5-bit digits),
    the primes from 131 up (sums up to 260) and every larger field keep the
    per-element rows.
    """
    m = len(exp)
    pack = [0]
    for j in range(s):
        pack = [x + (d << w * j) for d in range(p) for x in pack]
    pexp = [pack[v] for v in exp]
    by_alpha = bytearray(256)
    for a, b in zip(pexp[-1:] + pexp[:-1], pexp):
        by_alpha[a] = b
    by_packed = [bytes(256)] * 256
    t = bytes(range(256))
    for b in pexp:
        by_packed[b] = t
        t = t.translate(by_alpha)
    scale = [by_packed[b] for b in pack]
    half = m // 2 if p > 2 else 0  # alpha**half == -1
    neg, inv = list(by_packed), list(by_packed)
    for b, nb, ib in zip(pexp, pexp[half:] + pexp[:half], pexp[:1] + pexp[:0:-1]):
        neg[b], inv[b] = by_packed[nb], by_packed[ib]
    from_bytes = int.from_bytes

    if s == 1 or p == 2:
        packed, unpacked = bytes, list
    else:
        to_packed, unpack = bytes(pack).ljust(256, b"\0"), bytearray(256)
        for v, b in enumerate(pack):
            unpack[b] = v

        def packed(row):
            return bytes(row).translate(to_packed)

        def unpacked(row):
            return list(row.translate(unpack))

    if p == 2:
        add = xor
    else:
        red = [0]
        for j in range(s):
            red = [x + (d % p << w * j) for d in range(1 << w) for x in red]
        red = bytes(red).ljust(256, b"\0")

        def add(a, b):
            v = a + b
            return from_bytes(v.to_bytes(v.bit_length() + 7 >> 3, "big").translate(red), "big")

    def insert_row(basis, row):
        top = len(row) - 1
        t = from_bytes(packed(row), "big")
        while t:
            # The leading element is the top byte, byte e from the low end;
            # the stored row of its column has its top there too, so the
            # sum fits e + 1 bytes.
            e = t.bit_length() - 1 >> 3
            lead, c = t >> 8 * e, top - e
            b = basis[c]
            if b is None:
                basis[c] = t.to_bytes(top + 1, "big").translate(inv[lead])
                return c
            if p == 2:
                t ^= from_bytes(b.translate(neg[lead]), "big")
            else:
                t += from_bytes(b.translate(neg[lead]), "big")
                t = from_bytes(t.to_bytes(e + 1, "big").translate(red), "big")
        return -1

    def back_substitute(basis, n):
        k = len(basis) - n
        if k == 1:
            # acc starts as column n and loses x[c] * column c once x[c] is
            # known, so entry c of acc is x[c] when column c comes up.
            rows = b"".join(basis[:n])
            x = bytearray(n)
            acc = from_bytes(rows[n :: n + 1], "big")
            for c in range(n - 1, -1, -1):
                xc = x[c] = acc >> 8 * (n - 1 - c) & 255
                if xc:
                    acc = add(acc, from_bytes(rows[c :: n + 1].translate(neg[xc]), "big"))
            return unpacked(x)
        # Row form: row c of x is the right-hand sides of b, less b[j] times
        # each later row j.
        x = [b""] * n
        for c in range(n - 1, -1, -1):
            b = basis[c]
            acc = from_bytes(b[n:], "big")
            for xj, bj in zip(x[c + 1 :], b[c + 1 : n]):
                if bj:
                    acc = add(acc, from_bytes(xj.translate(neg[bj]), "big"))
            x[c] = acc.to_bytes(k, "big")
        return unpacked(b"".join(x))

    if p == 2:
        # planes[i] maps a packed byte to its bit top - i.
        top = s - 1
        planes = [bytes(x >> b & 1 for x in range(256)) for b in range(top, -1, -1)]
        modlow = scale[2][1 << top] if s > 1 else 0  # x**s, reduced

        def columns(blocks, width):
            rows = b"".join(map(packed, blocks))
            size = len(rows) // width
            ones = from_bytes(b"\1" * size, "big")
            cols = [from_bytes(rows[j::width], "big") for j in range(width)]
            return cols, size, ones, ones * ((1 << top) - 1)

        def dot_columns(packed_cols, v):
            cols, size, ones, low = packed_cols
            vb, acc = bytes(v), 0
            for plane in planes:
                # acc * x, every byte at once, then the columns whose
                # coefficient has this bit.
                acc = (acc & low) << 1 ^ (acc >> top & ones) * modlow
                acc ^= _fold(xor, compress(cols, vb.translate(plane)), 0)
            return list(acc.to_bytes(size, "big"))

    else:

        def columns(blocks, width):
            rows = b"".join(map(packed, blocks))
            return [rows[j::width] for j in range(width)]

        def dot_columns(cols, v):
            acc = 0
            for col, vj in zip(cols, v):
                if vj:
                    acc = add(acc, from_bytes(col.translate(scale[vj]), "big"))
            return unpacked(acc.to_bytes(len(cols[0]), "big"))

    def from_newton(c, nodes, lead):
        pc, acc, d = packed(c), pack[lead], len(nodes)
        for i in range(d - 1, -1, -1):
            b = nodes[i]
            t = acc << 8 | pc[i]
            if b:
                t = add(t, from_bytes(acc.to_bytes(d - i, "big").translate(neg[pack[b]]), "big"))
            acc = t
        return unpacked(acc.to_bytes(d + 1, "big")[::-1])

    return insert_row, back_substitute, columns, dot_columns, from_newton, inv


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
