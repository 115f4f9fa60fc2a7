"""The byte rows: udm.gf's row kernels for the fields whose elements pack
into one byte with room for a digit-wise sum, imported only for those.

An element is packed as its base-p digits, w bits apart, s * w <= 8:
w = 1 for p = 2, and w = (2p - 2).bit_length() for odd p, so that the
sum of two digits stays in its slot, as udm.extension's _exp_table packs
them. For prime fields and in characteristic 2 the packed byte is the
canonical encoding itself; otherwise a canonical row packs, and a packed
one unpacks, with one translate. A row of n elements is n packed bytes,
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
one translated column per nonzero v[j]; in characteristic 2,
udm.bitplanes, imported only then, adds one int per column to those and
multiplies by bit planes, as its docstring describes. eliminate reads
entry i of the first column as one byte, and each other column with a
nonzero entry there loses its multiple of the first, cut after i, with
one translate and one XOR, or in odd characteristic one int add and one
translate through red; a column with a zero there is only cut.
back_substitute chooses its form by the k it reads:
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
per-element rows of udm.elementrows.
"""

from operator import xor


def byte_rows(p, s, w, alpha, exp):
    """insert_row, back_substitute, columns, dot_columns, eliminate and
    from_newton on byte rows, as gf._encoding specifies them, for
    GF(p**s), from its exp table or, for a prime field, the powers of
    alpha ({1} for GF(2)); and to_newton's quotient (over, level) for
    p = 2, else None."""
    exp = exp or [pow(alpha, k, p) for k in range(p - 1)]
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

    def columns(blocks, width):
        rows = b"".join(map(packed, blocks))
        return [rows[j::width] for j in range(width)]

    def eliminate(cols, i):
        first = cols[0]
        lead = first[i]
        if not lead:
            return None
        # rest is the first column over its entry i, so column c gains
        # -c[i] times it; the sum, digit-wise in odd characteristic, fits
        # the cut's size bytes.
        i += 1
        rest = first[i:].translate(inv[lead])
        size = len(rest)
        if p == 2:
            return [
                (from_bytes(c[i:], "big") ^ from_bytes(rest.translate(neg[v]), "big"))
                .to_bytes(size, "big") if (v := c[i - 1])
                else c[i:]
                for c in cols[1:]
            ]
        return [
            (from_bytes(c[i:], "big") + from_bytes(rest.translate(neg[v]), "big"))
            .to_bytes(size, "big").translate(red) if (v := c[i - 1])
            else c[i:]
            for c in cols[1:]
        ]

    if p == 2:
        from .bitplanes import bit_planes

        columns, dot_columns = bit_planes(s, scale, columns)

        # The packed byte is the canonical element, so a quotient by
        # a ^ b is one index into the byte-row table of 1 / (a ^ b).
        def level(ws, k, r, steps):
            return [ws[g][k] if g == h else r[g][h][ci ^ cj] for g, h, ci, cj in steps]

        quotient = inv.__getitem__, level
    else:
        quotient = None

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

    return insert_row, back_substitute, columns, dot_columns, eliminate, from_newton, quotient
