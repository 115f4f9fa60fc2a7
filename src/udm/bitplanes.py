"""The bit-plane products: udm.byterows' columns and dot_columns for
GF(2^s), s <= 8, imported by it only in characteristic 2.

The packed byte is the canonical element, and c * y is GF(2)-linear in
c, so the sum of v[j] * col_j is the sum over bits b of x**b times the
XOR of the columns whose v[j] has bit b set. columns keeps the byte rows'
strided bytes columns, which eliminate and the verify walk read, and adds
each column as one int, with the stack's height and two masks, ones (a 1
in every byte) and low (the low s - 1 bits of every byte). dot_columns
runs Horner's rule on those ints over the bit planes from the top: acc *
x for every byte at once, (acc & low) << 1 ^ (acc >> s - 1 & ones) *
modlow with modlow = x**s reduced, then one XOR per column whose v[j]
has the plane's bit. A product is s - 1 shift steps and about n * s / 2
int XORs, where a translate and a from_bytes per column cost more than
the XOR; the columns pay one from_bytes each, once, when packed.
"""

from functools import reduce as _fold
from itertools import compress
from operator import xor


class Planes(list):
    """Packed columns of GF(2^s): the list of the byte rows' bytes
    columns, and each of them as one big-endian int (ints), with their
    height (size) and the masks ones and low."""

    __slots__ = ("ints", "size", "ones", "low")


def bit_planes(s, scale, strided):
    """The byte rows' columns and dot_columns for GF(2^s), s <= 8, from
    their 256-byte table of x -> 2 * x, scale[2], and their columns,
    strided."""
    top = s - 1
    # planes[i] maps a packed byte to its bit top - i.
    planes = [bytes(x >> b & 1 for x in range(256)) for b in range(top, -1, -1)]
    modlow = scale[2][1 << top] if s > 1 else 0  # x**s, reduced
    from_bytes = int.from_bytes

    def columns(blocks, width):
        cols = Planes(strided(blocks, width))
        cols.size = len(cols[0])
        cols.ints = [from_bytes(c, "big") for c in cols]
        cols.ones = from_bytes(b"\1" * cols.size, "big")
        cols.low = cols.ones * ((1 << top) - 1)
        return cols

    def dot_columns(cols, v):
        ints, ones, low = cols.ints, cols.ones, cols.low
        vb, acc = bytes(v), 0
        for plane in planes:
            # acc * x, every byte at once, then the columns whose
            # coefficient has this bit.
            acc = (acc & low) << 1 ^ (acc >> top & ones) * modlow
            acc ^= _fold(xor, compress(ints, vb.translate(plane)), 0)
        return list(acc.to_bytes(cols.size, "big"))

    return columns, dot_columns
