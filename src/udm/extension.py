"""GF(p**s) for s > 1: the modulus, the primitive element, and the exp,
log and log1p tables that udm.gf's encodings read, each an array('H') of
2 bytes an entry.

udm.gf imports this module only when it builds a field with s > 1, so a
process that uses prime fields alone never compiles or loads it. The
modulus search and the primitive element test multiply polynomials by
Kronecker substitution (_kronecker), and the exp table is computed one
power at a time for its first _EXP_BLOCK powers, then a block at a time
(_exp_blocks).
"""

from __future__ import annotations

import struct
import sys
from array import array
from operator import add as _int_add, xor

from .gf import _prime_factors

# The powers of alpha that _exp_table computes one at a time; every later
# block of as many is the previous block times alpha**_EXP_BLOCK.
_EXP_BLOCK = 1023

# Where the low byte of an element sits in a native 16-bit word, the item
# of the array("H") tables.
_LOW = 0 if sys.byteorder == "little" else 1


def extension_tables(p: int, s: int):
    """(modulus, alpha, exp, log, log1p) of GF(p**s), s > 1, each table an
    array('H'): exp[k] = alpha**k for k < q - 1, log its inverse on the
    q elements (log[0] = 0 marks no logarithm), and for odd p log1p[v] =
    log(1 + v), log1p[p - 1] = 0 where 1 + v = 0; None for p = 2. So
    GF(2^16) holds 256 KiB of tables and GF(3^10) 346 KiB.
    """
    q = p**s
    modulus, alpha = _modulus_and_alpha(p, s)
    exp = _exp_table(p, s, modulus, alpha)
    log = array("H", bytes(2 * q))
    with memoryview(log) as view:
        # A memoryview item store skips the argument parsing of the array's
        # own, about a sixth of this loop.
        for k, v in enumerate(exp):
            view[v] = k
    log1p = None
    if p != 2:
        # Adding 1 changes only the lowest base-p digit, which wraps from
        # p - 1 to 0, so log1p is log shifted by one, with every p-th entry
        # taken from the start of its digit block.
        log1p = log[1:]
        log1p.append(0)
        log1p[p - 1 :: p] = log[::p]
    return modulus, alpha, exp, log, log1p


def _digits(value: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        value, d = divmod(value, p)
        out.append(d)
    return out


# Polynomials over GF(p) as little-endian coefficient lists, trailing zeros
# stripped ([] is the zero polynomial), for the modulus search. _kronecker
# packs them one int each for the powers of Rabin's test and of the
# primitive-element search, which come before the log tables exist.


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


def _kronecker(f: list[int], p: int):
    """(pack, mul, unpack): products modulo monic f of degree s >= 2 over
    GF(p), by Kronecker substitution.

    A polynomial of degree below s is one int holding its coefficients in
    [0, p) in s slots of w bits, constant term lowest; pack and unpack go
    between that int and a coefficient list. mul(a, b) is one int multiply,
    whose 2s - 1 slots hold the unreduced coefficients of the product, then
    a fold of the top s - 1 slots: each, as it stands, times the packed
    x**k mod f, precomputed for s <= k < 2s - 1, is added to the low s.
    Product slot k has at most min(k + 1, 2s - 1 - k) terms below
    (p - 1)**2, so a low slot then holds below 2**v, v the bit length of
    s(p - 1)**2 + (p - 1)**3 s(s - 1) / 2. One pass reduces every slot mod
    p: with big = ceil(2**e / p) and e = v + p.bit_length(), each slot's
    x * big >> e is x // p, and those quotients stay apart, each in the low
    v bits of its slot, when w >= v + e. w, the first of 8, 16, 32 and 64
    bits that fits, depends only on (p, s): 32 for GF(2^16) and GF(3^10),
    64 for GF(37^3) and GF(251^2).
    """
    s = len(f) - 1
    v = (s * (p - 1) ** 2 + (p - 1) ** 3 * s * (s - 1) // 2).bit_length()
    e = v + p.bit_length()
    size = max(0, (v + e - 1).bit_length() - 3)  # log2 of the slot's bytes
    low, top = struct.Struct(f"<{s}{'BHIQ'[size]}"), struct.Struct(f"<{s - 1}{'BHIQ'[size]}")
    w = 8 << size
    cut, mask, big = w * s, (1 << w * s) - 1, -(-(1 << e) // p)
    quotients = ((1 << v) - 1) * (mask // ((1 << w) - 1))
    from_bytes = int.from_bytes

    def pack(coeffs):
        return from_bytes(low.pack(*coeffs, *[0] * (s - len(coeffs))), "little")

    def unpack(a):
        return _ptrim(list(low.unpack(a.to_bytes(low.size, "little"))))

    def reduce(x):
        return x - p * (x * big >> e & quotients)

    fold = [pack([-c % p for c in f[:s]])]  # x**k mod f for s <= k < 2s - 1
    for _ in range(s - 2):
        r = fold[-1] << w
        fold.append(reduce((r & mask) + (r >> cut) * fold[0]))

    def mul(a, b):
        t = a * b
        acc = t & mask
        for c, x in zip(top.unpack((t >> cut).to_bytes(top.size, "little")), fold):
            if c:
                acc += c * x
        return reduce(acc)

    return pack, mul, unpack


def _ppow(a: int, e: int, mul) -> int:
    """a**e for a packed polynomial a, by square-and-multiply on a mul of
    _kronecker, with no product by 1 (packed 1 is the int 1)."""
    result = 1
    while e:
        if e & 1:
            result = mul(result, a) if result != 1 else a
        e >>= 1
        if e:
            a = mul(a, a)
    return result


def _is_irreducible(f: list[int], p: int):
    """Rabin's criterion for a monic polynomial f of degree s >= 2 over
    GF(p): (pack, mul) of _kronecker for f when f is irreducible, else
    None."""
    s = len(f) - 1
    if f[0] == 0:
        return None
    pack, mul, unpack = _kronecker(f, p)
    x = pack([0, 1])
    if _ppow(x, p**s, mul) != x:
        return None
    for r in _prime_factors(s):
        g = unpack(_ppow(x, p ** (s // r), mul))
        while len(g) < 2:
            g.append(0)
        g[1] = (g[1] - 1) % p
        g = _ptrim(g)
        if not g or len(_pgcd(f, g, p)) > 1:
            return None
    return pack, mul


def _has_nonzero_root(f: list[int], p: int) -> bool:
    """Whether f has a nonzero root in GF(p), by Horner's rule at each."""
    for a in range(1, p):
        acc = 0
        for c in reversed(f):
            acc = (acc * a + c) % p
        if not acc:
            return True
    return False


def _smallest_irreducible(p: int, s: int):
    """The field modulus for s > 1, and its (pack, mul) of _kronecker."""
    # A root in GF(p), 0 when the constant term is 0, is a linear factor,
    # so those candidates are dropped before Rabin's test; for s > 1 that
    # never drops an irreducible one, and the first irreducible one is the
    # same.
    for code in range(p**s):
        f = _digits(code, p, s) + [1]
        if f[0] and not _has_nonzero_root(f, p):
            ring = _is_irreducible(f, p)
            if ring:
                return f, ring
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _times_x(c: list[int], f: list[int], p: int) -> list[list[int]]:
    """The digit lists of c * x**j modulo monic f, for j < s = deg f, from
    c's s digits."""
    out = [c]
    for _ in range(len(f) - 2):
        v = out[-1]
        t = p - v[-1]
        out.append([(x + t * y) % p for x, y in zip([0] + v[:-1], f)])
    return out


def _modulus_and_alpha(p: int, s: int) -> tuple[list[int], int]:
    """The modulus and the smallest-encoded element of multiplicative
    order q - 1, tested by powers in the modulus's _kronecker product."""
    q = p**s
    modulus, (pack, mul) = _smallest_irreducible(p, s)
    cofactors = [(q - 1) // r for r in _prime_factors(q - 1)]
    # The elements below p form the prime subfield, of order p - 1 < q - 1,
    # which holds no primitive element.
    for a in range(p, q):
        packed = pack(_digits(a, p, s))
        if all(_ppow(packed, m, mul) != 1 for m in cofactors):
            return modulus, a
    raise AssertionError("no primitive element found")  # unreachable


def _exp_table(p: int, s: int, f: list[int], alpha: int) -> array:
    """exp[k] = alpha**k for k < q - 1, as an array('H').

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

    That loop computes only the first _EXP_BLOCK powers when q - 1 is
    larger, and _exp_blocks the rest, a block at a time, appended to the
    array as native 16-bit words, unless the field fails its byte bound:
    groups * (p - 1) < 256, for the groups = ceil(s / g) bytes of g digits
    each, p**g <= 256, that hold an element.
    The bound fails exactly for the primes from 131 up, where s = 2, g = 1
    and two digits sum past 255; there the first block is the whole
    table. Both choices depend on (p, s) alone, as _byte_rows' does.
    """
    q = p**s
    m, h, first = q - 1, s // 2, q - 1
    if m > _EXP_BLOCK:
        g = 1
        while p ** (g + 1) <= 256:
            g += 1
        if -(-s // g) * (p - 1) < 256:
            first = _EXP_BLOCK
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

    images = [sum(d << (w * i) for i, d in enumerate(v)) for v in _times_x(_digits(alpha, p, s), f, p)]
    exp = array("H", bytes(2 * first))
    view = memoryview(exp)
    if p == 2:
        low, high, mask = span(images[:h]), span(images[h:]), (1 << h) - 1
        v = 1
        for k in range(first):
            view[k] = v
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
        for k in range(first):
            u = low[v & mask] + high[v >> shift]
            view[k] = u & cmask
            v = u >> cb
            v -= (((v + carry) & top) >> (w - 1)) * p
    view.release()
    if first < m:
        # v is alpha**first, packed w bits per digit.
        c = [v >> w * i & (1 << w) - 1 for i in range(s)]
        exp.frombytes(_exp_blocks(p, s, g, f, exp, c, m - first))
    return exp


def _sums(levels, n):
    """Every sum of one n-byte entry from each level, added bytewise and
    concatenated in mixed-radix order, the first level varying fastest. A
    level is its entries concatenated; each further level costs one int
    add per entry, on all the sums so far. No byte of a sum may reach 256."""
    out = levels[0]
    for level in levels[1:]:
        k = len(out) // n
        low = int.from_bytes(out, "little")
        out = b"".join(
            (low + int.from_bytes(level[e : e + n] * k, "little")).to_bytes(k * n, "little")
            for e in range(0, len(level), n)
        )
    return out


def _exp_blocks(p, s, g, f, block, c, count):
    """The count powers that follow block, an array('H') of powers of
    alpha, as the bytes of native 16-bit words, in a field of modulus f:
    each further block is the previous one times c, the power after
    block's last, as a digit list.

    Multiplying by c is GF(p)-linear on digit vectors, so it acts on a
    whole block at once through byte planes. Plane i holds group i of every
    element: g base-p digits as one canonical byte (p**g <= 256). An output
    group is cut into units of k digits, packed w bits apart, and
    tables[i][u] maps a group-i byte x to unit u of c times x * p**(g * i).
    A unit's terms, one per input group, add by XOR in characteristic 2,
    where the planes are the low and high bytes of the encoding and a unit
    is a whole group of k = 8 bits. Otherwise they add as ints, w bits
    leaving room for a digit sum up to groups * (p - 1) < 256 (the caller's
    byte bound), and a translate through red[u] reduces each digit mod p
    and places it in its group's canonical byte, so the units of one group
    add without carrying. The new powers, each sum(plane_i * p**(g * i)),
    are written to their words' low and high bytes, as _LOW places them.
    """
    b, size, groups, from_bytes = len(block), p**g, -(-s // g), int.from_bytes
    w = 1 if p == 2 else (groups * (p - 1)).bit_length()
    k = 8 // w
    images = _times_x(c, f, p)
    cuts = [(d, min(d + k, j + g, s)) for j in range(0, s, g) for d in range(j, min(j + g, s), k)]
    reduce, tables = bytes(x % p for x in range(256)), []
    for i in range(groups):
        # Row x: the digits of c * x * p**(g * i), one byte each.
        rows = _sums([bytes(e * y % p for e in range(p) for y in v) for v in images[g * i : g * i + g]], s)
        digits = rows.translate(reduce)
        digits = [from_bytes(digits[d::s], "little") for d in range(s)]
        tables.append([
            sum(digits[d] << w * (d - d0) for d in range(d0, d1)).to_bytes(size, "little").ljust(256, b"\0")
            for d0, d1 in cuts
        ])
    if p == 2:
        combine, red = xor, [None] * len(cuts)
        data = block.tobytes()
        planes = [data[_LOW::2], data[1 - _LOW :: 2]]
    else:
        combine, red, planes = _int_add, [], []
        for d0, d1 in cuts:
            levels = [bytes(y % p * p ** (d % g) for y in range(1 << w)) for d in range(d0, d1)]
            red.append(_sums(levels, 1).ljust(256, b"\0"))
        for _ in range(groups - 1):
            planes.append(bytes([v % size for v in block]))
            block = [v // size for v in block]
        planes.append(bytes(block))
    units = [(d0 // g, tabs, r) for (d0, _), tabs, r in zip(cuts, zip(*tables), red)]
    data = bytearray(2 * count)
    for done in range(0, count, b):
        n = min(b, count - done)
        grouped = [0] * groups
        for j, tabs, r in units:
            acc = 0
            for plane, tab in zip(planes, tabs):
                acc = combine(acc, from_bytes(plane[:n].translate(tab), "little"))
            if p > 2:
                acc = from_bytes(acc.to_bytes(n, "little").translate(r), "little")
            grouped[j] += acc
        planes = [x.to_bytes(n, "little") for x in grouped]
        if p == 2:
            low, high = planes
        else:
            out = 0
            for i, plane in enumerate(planes):
                wide = bytearray(2 * n)
                wide[::2] = plane
                out += from_bytes(wide, "little") * size**i
            out = out.to_bytes(2 * n, "little")
            low, high = out[::2], out[1::2]
        data[2 * done + _LOW : 2 * (done + n) : 2] = low
        data[2 * done + 1 - _LOW : 2 * (done + n) : 2] = high
    return data
