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
from operator import mul as _int_mul, xor

from .errors import BadExponent, DivisionByZero, NotPrime, NotPrimePower, ParseError

MAX_ORDER = 1 << 16

_FIELD_STRING_RE = re.compile(r"^q=(\d+)\^(\d+)(?:;mod=([0-9,]+))?$")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factor_prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, s) with q = p**s and p prime."""
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    p = q
    for d in range(2, q + 1):
        if d * d > q:
            break
        if q % d == 0:
            p = d
            break
    s = 0
    rest = q
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
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _digits(value: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        value, d = divmod(value, p)
        out.append(d)
    return out


def _undigits(digits: list[int], p: int) -> int:
    acc = 0
    for d in reversed(digits):
        acc = acc * p + d
    return acc


# Polynomials over GF(p) as little-endian coefficient lists, trailing zeros
# stripped ([] is the zero polynomial). Used for modulus selection and for
# the powers tested while searching for a primitive element, which come
# before the log tables exist.


def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmod(a: list[int], f: list[int], p: int) -> list[int]:
    """Remainder of a modulo monic f."""
    a = [c % p for c in a]
    df = len(f) - 1
    while len(a) > df:
        c = a[-1]
        if c:
            k = len(a) - 1 - df
            for i in range(df):
                a[k + i] = (a[k + i] - c * f[i]) % p
        a.pop()
    return _ptrim(a)


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a = _ptrim(list(a))
    b = _ptrim(list(b))
    while b:
        inv_lc = pow(b[-1], p - 2, p)
        monic = [(c * inv_lc) % p for c in b]
        a, b = monic, _pmod(a, monic, p)
    return a


def _pmulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    """a * b modulo monic f; the product is reduced mod p only by _pmod."""
    out = [0] * (len(a) + len(b))
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _pmod(out, f, p)


def _ppow(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    """a**e modulo monic f."""
    result = [1]
    base = _pmod(a, f, p)
    while e:
        if e & 1:
            result = _pmulmod(result, base, f, p)
        base = _pmulmod(base, base, f, p)
        e >>= 1
    return result


def _is_irreducible(f: list[int], p: int) -> bool:
    """Rabin's criterion for a monic polynomial f over GF(p)."""
    s = len(f) - 1
    if s == 1:
        return True
    if f[0] == 0:
        return False
    if _ppow([0, 1], p**s, f, p) != [0, 1]:
        return False
    for r in _prime_factors(s):
        g = _ppow([0, 1], p ** (s // r), f, p)
        while len(g) < 2:
            g.append(0)
        g[1] = (g[1] - 1) % p
        g = _ptrim(g)
        if not g:
            return False
        if len(_pgcd(f, g, p)) > 1:
            return False
    return True


def _has_nonzero_root(f: list[int], p: int) -> bool:
    """Whether f has a nonzero root in GF(p), by Horner's rule at each."""
    for a in range(1, p):
        acc = 0
        for c in reversed(f):
            acc = (acc * a + c) % p
        if not acc:
            return True
    return False


def _smallest_irreducible(p: int, s: int) -> list[int]:
    # A root in GF(p), 0 when the constant term is 0, is a linear factor,
    # so those candidates are dropped before Rabin's test; for s > 1 that
    # never drops an irreducible one, and the first irreducible one is the
    # same.
    for code in range(p**s):
        f = _digits(code, p, s) + [1]
        if f[0] and not _has_nonzero_root(f, p) and _is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")  # unreachable


class Field:
    """The finite field GF(p**s), acting on canonically encoded int elements.

    add, neg, sub, mul, inv and pow, and the row and polynomial kernels, are
    plain functions bound per field by _encoding for the field's element
    encoding; pow(a, 0) == 1 for every a, including zero.
    """

    __slots__ = (
        "p",
        "s",
        "q",
        "modulus",
        "_alpha",
        "_exp",
        "_log",
        "_zech",
        "_fact",
        "_inv_fact",
        "add",
        "neg",
        "sub",
        "mul",
        "inv",
        "pow",
        "insert_row",
        "back_substitute",
        "dot_rows",
        "columns",
        "dot_columns",
        "taylor",
        "mul_add",
        "matmul",
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
        self.modulus = None if s == 1 else _smallest_irreducible(p, s)
        self._exp = None
        self._log = None
        self._zech = None
        self._fact = None
        self._inv_fact = None
        self._alpha = self._find_primitive()
        if s > 1:
            self._build_tables()
        ops = _encoding(p, s, self._alpha, self._exp, self._log, self._zech)
        self.add, self.neg, self.sub, self.mul, self.inv, self.pow = ops[:6]
        self.insert_row, self.back_substitute, self.dot_rows = ops[6:9]
        self.columns, self.dot_columns, self.taylor, self.mul_add, self.matmul = ops[9:]

    # -- construction helpers ------------------------------------------------

    def _raw_pow(self, a: int, e: int) -> int:
        p, s = self.p, self.s
        if s == 1:
            return pow(a, e, p)
        return _undigits(_ppow(_digits(a, p, s), e, self.modulus, p), p)

    def _find_primitive(self) -> int:
        cofactors = [(self.q - 1) // r for r in _prime_factors(self.q - 1)]
        # For s > 1 the elements below p form the prime subfield, of order
        # p - 1 < q - 1, which holds no primitive element.
        for a in range(1 if self.s == 1 else self.p, self.q):
            if all(self._raw_pow(a, m) != 1 for m in cofactors):
                return a
        raise AssertionError("no primitive element found")  # unreachable

    def _build_tables(self):
        """exp[k] = alpha**k, its inverse log, and for odd p the Zech table."""
        p, q = self.p, self.q
        exp = self._exp_table()
        log = [0] * q
        for k, v in enumerate(exp):
            log[v] = k
        self._exp = exp
        self._log = log
        if p != 2:
            # Zech logarithms: zech[k] = log(1 + alpha**k), None where
            # 1 + alpha**k = 0, i.e. at k = (q - 1) / 2. Adding 1 changes
            # only the lowest base-p digit, which wraps from p - 1 to 0, so
            # log_plus_one[v] = log(v + 1) is log shifted, with every p-th
            # entry taken from the start of its digit block.
            log_plus_one = log[1:]
            log_plus_one.append(0)
            log_plus_one[p - 1 :: p] = log[::p]
            zech = [log_plus_one[v] for v in exp]
            zech[(q - 1) // 2] = None
            self._zech = zech

    def _exp_table(self) -> list[int]:
        """exp[k] = alpha**k for k < q - 1.

        Multiplying by alpha is GF(p)-linear on digit vectors, so the image
        of an element is the digit-wise sum of the images of its low s // 2
        digits and of its high ones. Two half tables hold those images for
        every low and every high digit vector (p**(s // 2) and
        p**(s - s // 2) of them: 243 each for GF(3^10), at most 1369 for
        q <= 2**16), spanned from the images alpha * x**j of the unit
        vectors, and each power is the previous one's image, two lookups
        and one digit-wise add:
        - p = 2: encodings are the bit vectors and the add is an XOR;
        - odd p: vectors are packed w = p.bit_length() + 1 bits per digit,
          so a digit sum up to 2p - 2 stays in its slot; adding
          2**(w-1) - p to every digit sets the top bit of exactly the
          digits >= p, and subtracting p there reduces them all at once.
          The power is carried packed. A table entry holds the packed image
          above bit cb and the canonical encoding of its half below, so the
          sum of two entries gives both the power's encoding and its
          unreduced image; the table is indexed by the packed half.
        """
        p, s, q = self.p, self.s, self.q
        h = s // 2
        if p == 2:
            w, add = 1, xor
        else:
            w = p.bit_length() + 1
            ones = sum(1 << (w * j) for j in range(s))
            carry, top = ((1 << (w - 1)) - p) * ones, (1 << (w - 1)) * ones

            def add(a, b):
                v = a + b
                return v - (((v + carry) & top) >> (w - 1)) * p

        def span(basis):
            """Sums of multiples of basis, ordered by the canonical encoding
            of the coefficient vector."""
            out = [0]
            for b in basis:
                mults = [0]
                for _ in range(p - 1):
                    mults.append(add(mults[-1], b))
                out = [add(x, m) for m in mults for x in out]
            return out

        alpha = _digits(self._alpha, p, s)
        images = [
            sum(d << (w * i) for i, d in enumerate(_pmod([0] * j + alpha, self.modulus, p)))
            for j in range(s)
        ]
        exp = [0] * (q - 1)
        if p == 2:
            low, high, mask = span(images[:h]), span(images[h:]), (1 << h) - 1
            v = 1
            for k in range(q - 1):
                exp[k] = v
                v = low[v & mask] ^ high[v >> h]
        else:
            units = [1 << (w * j) for j in range(s)]
            cb, shift = q.bit_length(), w * h
            low = [0] * (1 << shift)
            for i, v, c in zip(span(units[:h]), span(images[:h]), range(p**h)):
                low[i] = (v << cb) + c
            high = [0] * (1 << (w * (s - h)))
            for i, v, c in zip(span(units[h:]), span(images[h:]), range(0, q, p**h)):
                high[i >> shift] = (v << cb) + c
            mask, cmask = (1 << shift) - 1, (1 << cb) - 1
            v = 1
            for k in range(q - 1):
                u = low[v & mask] + high[v >> shift]
                exp[k] = u & cmask
                v = u >> cb
                v -= (((v + carry) & top) >> (w - 1)) * p
        return exp

    # -- field-specific queries ----------------------------------------------

    def nat_map(self, z: int) -> int:
        """Image of an arbitrary integer in the prime subfield."""
        return z % self.p

    def primitive_element(self) -> int:
        """The smallest-encoded element of multiplicative order q - 1."""
        return self._alpha

    def binom(self, a: int, b: int) -> int:
        """Binomial coefficient of two arbitrary integers, reduced into GF(p).

        Computed by Lucas' theorem as the product over base-p digits of
        C(a_h, b_h) mod p, each from factorial and inverse-factorial tables
        mod p (p entries each, built on first use); no big-integer values
        are ever formed. Negative upper index is folded to the non-negative
        case through C(a, b) = (-1)**b * C(b - a - 1, b).
        """
        if b < 0:
            return 0
        if b == 0:
            return 1
        p = self.p
        if a < 0:
            v = self.binom(b - a - 1, b)
            return v if b % 2 == 0 else (p - v) % p
        if b > a:
            return 0
        if p == 2:
            return int(a & b == b)  # Lucas in base 2: b's bits lie within a's
        if self._fact is None:
            fact = [1] * p
            for i in range(1, p):
                fact[i] = fact[i - 1] * i % p
            inv_fact = [1] * p
            inv_fact[p - 1] = p - 1  # (p - 1)! = -1 mod p (Wilson)
            for i in range(p - 1, 1, -1):
                inv_fact[i - 1] = inv_fact[i] * i % p
            self._fact, self._inv_fact = fact, inv_fact
        fact, inv_fact = self._fact, self._inv_fact
        acc = 1
        while b:
            a, a_h = divmod(a, p)
            b, b_h = divmod(b, p)
            if b_h > a_h:
                return 0
            acc = acc * fact[a_h] * inv_fact[b_h] * inv_fact[a_h - b_h] % p
        return acc

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


def _encoding(p: int, s: int, alpha: int, exp, log, zech):
    """The arithmetic of GF(p**s), bound once for its element encoding, as
    plain functions: (add, neg, sub, mul, inv, pow, insert_row,
    back_substitute, dot_rows, columns, dot_columns, taylor, mul_add,
    matmul). alpha is the field's primitive element, and exp, log and zech
    are its tables (None for a prime field, zech None for p = 2).

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

    back_substitute(basis, n, k=1) solves the unit upper triangular system
    held in slots 0..n-1 of a basis of rows n + k wide, whose last k
    columns are right-hand sides; every one of those slots must be filled.
    It returns the n x k solution x as a flat row-major list of canonical
    elements: row c of x is rhs[c] - sum(b[c][j] * x[j] for c < j < n),
    so column t solves right-hand side t, and for k = 1 the list is the one
    solution. One right-hand side, as solve passes, takes one dot product
    per row. With k of them, both kernels work in row form, adding one
    scaled row of x per nonzero coefficient.

    columns(blocks, width) packs blocks, a sequence of flat sequences of
    rows `width` long, stacked in order, into the kernels' column format;
    dot_columns(cols, v), for v as long as the rows and not empty, returns
    the list of the dot products of v with each row of the stack. So a
    caller that multiplies one matrix by many vectors packs it once.
    dot_rows(entries, v) is dot_columns(columns((entries,), len(v)), v).

    A polynomial is a list of canonical elements, constant term first.
    taylor(a, beta, k) returns the first k Taylor coefficients of a at
    beta, the coefficients of a(beta + Y) in Y: entry i is the i-th Hasse
    derivative of a at beta, and entries past a's degree are 0. Each is the
    remainder of one synthetic division by X - beta, done in place on a
    copy of a, the quotient of each pass divided by the next. a is not
    changed. mul_add(acc, c, v, j) adds c * v[i] to acc[j + i] for every
    i, in place; acc must reach j + len(v).

    matmul(a, b, k) returns the flat entries of the product of an r x k
    matrix and a k x c one, both given as flat sequences of canonical
    elements, k >= 1 and b not empty: row i is the sum of a[i, t] times row
    t of b.

    The encoding is chosen once, here. A field whose elements pack into
    one byte with room for a digit-wise sum, GF(2^s) for s <= 8, the odd
    primes up to 127, GF(9), GF(25) and GF(49), takes insert_row,
    back_substitute, dot_rows, columns, dot_columns, mul_add and matmul
    from _byte_rows: a row is one byte per element, held as a big-endian
    int, a sum of rows is one XOR, or one int add and one bytes.translate,
    and a scaled row one bytes.translate, so each kernel makes a few
    C-level calls per row instead of one Python step per element. A prime
    field, which has no tables, passes the powers of its primitive element;
    for GF(2) that is {1}.

    Every other field, and the scalar ops and taylor of every field, use
    the per-element kernels. There, a stored row is the tail after the
    pivot column of the row scaled to a leading 1, and each encoding defines
    its scalar ops and the pieces the shared kernels are built from:
    pivot(t, i), that scaling of t[i:]; reduce(t, i, b), the step t - t[i]
    * b on the tail; stored(v) and value(y), to and from the stored format;
    dot(xs, b), the sum of xs[j] * b[j] for canonical xs and stored b over
    the shorter of the two; divide(a, lo, beta), one synthetic division of
    a[lo:] by X - beta in place, leaving the remainder in a[lo] and the
    quotient above it; and mul_add, on which matmul is built. Each keeps
    its own per-element loop:
    - prime fields: the residues themselves, reduced with % p;
    - characteristic 2: stored rows hold logarithms, sums are XORs;
    - odd characteristic, s > 1: stored rows hold logarithms, sums go
      through Zech logarithms, alpha**a + alpha**b = alpha**(a + zech[b -
      a]), and -1 = alpha**((q - 1) / 2).
    Stored logarithms are kept in [-m, 0) for m = q - 1, with 0 marking a
    zero entry, so that adding a logarithm in [0, m) gives an index in
    [-m, m), where Python's negative indexing wraps the exp table mod m;
    beta and c go to such a logarithm once per divide and mul_add call.
    An all-zero tail, as from a unit row of an identity or reversal
    matrix, is stored empty, and reducing by it only drops the pivot entry.
    Here columns returns the blocks as they are, and dot_columns takes v
    into the stored format once per call and runs dot on each row, so each
    of its products, like each in back_substitute, is one such index.

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

        def stored(v):
            return v

        def value(y):
            return y

        def dot(xs, b):
            return sum(map(_int_mul, xs, b)) % p

        def divide(a, lo, b):
            acc = 0
            for i in range(len(a) - 1, lo - 1, -1):
                acc = a[i] = (a[i] + b * acc) % p

        def mul_add(acc, c, v, j):
            if c:
                e = j + len(v)
                acc[j:e] = [(x + c * y) % p for x, y in zip(acc[j:e], v)]

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

        def stored(v):
            return [log[x] - m if x else 0 for x in v]

        def value(y):
            return exp[y] if y else 0

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

            def divide(a, lo, b):
                lb, acc = log[b] - m, 0
                for i in range(len(a) - 1, lo - 1, -1):
                    acc = a[i] = a[i] ^ exp[log[acc] + lb] if acc else a[i]

            def mul_add(acc, c, v, j):
                if c:
                    lc, e = log[c] - m, j + len(v)
                    acc[j:e] = [x ^ exp[log[y] + lc] if y else x for x, y in zip(acc[j:e], v)]

        else:
            half = m // 2  # alpha**half == -1

            def add_power(x, lw):
                """x + alpha**lw for canonical x and lw in [-m, m)."""
                if not x:
                    return exp[lw]
                lx = log[x]
                z = zech[(lw - lx) % m]
                return 0 if z is None else exp[lx + z - m]

            def add(a, b):
                return add_power(a, log[b]) if b else a

            def neg(a):
                return exp[log[a] + half - m] if a else 0

            def sub(a, b):
                return add_power(a, log[b] + half - m) if b else a  # + (-b)

            def reduce(t, i, b):
                nf = (log[t[i]] + half) % m  # the logarithm of -t[i]
                return [add_power(x, nf + y) if y else x for x, y in zip(t[i + 1 :], b)]

            def dot(xs, b):
                acc = 0
                for x, y in zip(xs, b):
                    if x and y:
                        acc = add_power(acc, log[x] + y)
                return acc

            def divide(a, lo, b):
                lb, acc = log[b] - m, 0
                for i in range(len(a) - 1, lo - 1, -1):
                    acc = a[i] = add_power(a[i], log[acc] + lb) if acc else a[i]

            def mul_add(acc, c, v, j):
                if c:
                    lc, e = log[c] - m, j + len(v)
                    acc[j:e] = [
                        add_power(x, log[y] + lc) if y else x for x, y in zip(acc[j:e], v)
                    ]

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

    def back_substitute(basis, n, k=1):
        if k == 1:
            x = [0] * n
            for c in range(n - 1, -1, -1):
                b = basis[c]
                if b:
                    # zip stops at x's end, before b's right-hand-side entry.
                    x[c] = sub(value(b[-1]), dot(x[c + 1 :], b))
            return x
        # Row form: row c of x is its right-hand sides, the tail of b from
        # column n on, less b[j] times each later row j.
        x = [None] * n
        for c in range(n - 1, -1, -1):
            b = basis[c]
            row = [value(y) for y in b[n - c - 1 :]] if b else [0] * k
            for xj, y in zip(x[c + 1 :], b):
                if y:
                    mul_add(row, neg(value(y)), xj, 0)
            x[c] = row
        return [v for row in x for v in row]

    def columns(blocks, width):
        return blocks

    def dot_columns(cols, v):
        sv, w = stored(v), len(v)
        return [dot(b[i : i + w], sv) for b in cols for i in range(0, len(b), w)]

    def dot_rows(entries, v):
        return dot_columns(columns((entries,), len(v)), v)

    def taylor(a, beta, k):
        a = list(a)
        while len(a) > k and not a[-1]:
            a.pop()
        a += [0] * (k - len(a))
        if beta:
            for lo in range(k):
                divide(a, lo, beta)
        return a[:k]

    def matmul(a, b, k):
        c = len(b) // k
        brows = [b[i : i + c] for i in range(0, len(b), c)]
        out = []
        for i in range(0, len(a), k):
            row = [0] * c
            for v, brow in zip(a[i : i + k], brows):
                mul_add(row, v, brow, 0)
            out += row
        return out

    w = 1 if p == 2 else (2 * p - 2).bit_length()
    if s * w <= 8:
        exp = exp or [pow(alpha, k, p) for k in range(m)]
        kernels = _byte_rows(p, s, w, exp)
        insert_row, back_substitute, dot_rows, columns, dot_columns, mul_add, matmul = kernels
    return (
        add, neg, sub, mul, inv, power, insert_row, back_substitute, dot_rows, columns,
        dot_columns, taylor, mul_add, matmul,
    )


def _byte_rows(p, s, w, exp):
    """insert_row, back_substitute, dot_rows, columns, dot_columns, mul_add
    and matmul of _encoding for a field whose elements pack into one byte
    with room for a digit-wise sum, from its exp table; each acts on a
    whole row or column with a few C-level calls.

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
    stored row is the full-width bytes row scaled to a leading 1.
    columns joins the packed blocks into one bytes object and cuts out
    each column as a strided slice, so dot_columns adds one translated
    column per nonzero v[j]. back_substitute with one right-hand side works
    the columns of the stored rows the same way; with k of them it adds
    one translated k-byte row of x per nonzero coefficient, as matmul adds
    one translated row of b per nonzero entry of a.

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
        n = len(row)
        t = from_bytes(packed(row), "big")
        while t:
            # The leading element is the top byte, which starts at bit sh.
            sh = t.bit_length() - 1 & -8
            lead, c = t >> sh, n - 1 - (sh >> 3)
            b = basis[c]
            if b is None:
                basis[c] = t.to_bytes(n, "big").translate(inv[lead])
                return c
            t = add(t, from_bytes(b.translate(neg[lead]), "big"))
        return -1

    def back_substitute(basis, n, k=1):
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

    def columns(blocks, width):
        rows = b"".join(map(packed, blocks))
        return [rows[j::width] for j in range(width)]

    def dot_columns(cols, v):
        acc = 0
        for col, vj in zip(cols, v):
            if vj:
                acc = add(acc, from_bytes(col.translate(scale[vj]), "big"))
        return unpacked(acc.to_bytes(len(cols[0]), "big"))

    def dot_rows(entries, v):
        return dot_columns(columns((entries,), len(v)), v)

    def mul_add(acc, c, v, j):
        if c:
            e = j + len(v)
            t = from_bytes(packed(v).translate(scale[c]), "big")
            t = add(from_bytes(packed(acc[j:e]), "big"), t)
            acc[j:e] = unpacked(t.to_bytes(e - j, "big"))

    def matmul(a, b, k):
        # Each row of b is packed once; row i of the product is the sum of
        # a[i, t] times row t of b.
        c = len(b) // k
        rows = packed(b)
        brows = [rows[i : i + c] for i in range(0, len(rows), c)]
        out = []
        for i in range(0, len(a), k):
            acc = 0
            for ait, brow in zip(a[i : i + k], brows):
                if ait:
                    acc = add(acc, from_bytes(brow.translate(scale[ait]), "big"))
            out.append(acc.to_bytes(c, "big"))
        return unpacked(b"".join(out))

    return insert_row, back_substitute, dot_rows, columns, dot_columns, mul_add, matmul


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
