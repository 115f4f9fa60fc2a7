"""The per-element rows: udm.gf's row kernels for every field whose
elements do not fit a byte, as udm.byterows' do, imported only for those.

A stored row is the tail after the pivot column of the row scaled to a
leading 1, and each encoding defines the pieces the kernels are built
from: pivot(t, i), that scaling of t[i:]; reduce(t, i, b), the step t -
t[i] * b on the tail, for t[i] nonzero; value(y), a stored entry's
canonical element; and mul_add(acc, c, v), which adds c * v[i] to acc[i]
for every i < len(v), in place. A prime field stores residues, reduced
with % p. Every other field stores logarithms in [-m, 0) for m = q - 1,
0 marking a zero entry, so that adding a logarithm in [0, m) gives an
index in [-m, m), where Python's negative indexing wraps the exp table;
it sums by XOR in characteristic 2 and by gf's add_power in odd. An
all-zero tail, as from a unit row of an identity or reversal matrix, is
stored empty, and reducing by it only drops the pivot entry.

columns cuts lists, rows[j::width]. A prime field's dot_columns takes
each entry as one C-level sum of unreduced products, reduced once; every
other field's runs mul_add once per nonzero v[j], as eliminate does once
per other column with a nonzero entry i. back_substitute works on
columns: once entry c of the right-hand side is x[c], the entries above
it lose x[c] times column c of the stored rows, one reduce.
"""

from operator import mul as _int_mul


def element_rows(p, s, exp, log, add_power, neg, inv, mul):
    """insert_row, back_substitute, columns, dot_columns, eliminate and
    from_newton on per-element rows, as gf._encoding specifies them, for
    GF(p**s), from its exp and log tables (None for a prime field), its
    add_power (None but for odd p and s > 1) and its scalar neg, inv and
    mul; and to_newton's quotient (over, level) for p = 2, else None."""
    m = p**s - 1
    if s == 1:

        def pivot(t, i):
            k = pow(t[i], p - 2, p)
            return [k * x % p for x in t[i + 1 :]]

        def reduce(t, i, b):
            f = t[i]
            return [(x - f * y) % p for x, y in zip(t[i + 1 :], b)]

        def value(y):
            return y

        def mul_add(acc, c, v):
            if c:
                acc[: len(v)] = [(x + c * y) % p for x, y in zip(acc, v)]

        def dot_columns(cols, v):
            # Each entry is one unreduced sum of products, reduced once.
            return [sum(map(_int_mul, v, row)) % p for row in zip(*cols)]

    else:

        def pivot(t, i):
            l0 = log[t[i]]
            return [(log[x] - l0) % m - m if x else 0 for x in t[i + 1 :]]

        def value(y):
            return exp[y] if y else 0

        if p == 2:

            def reduce(t, i, b):
                lf = log[t[i]]
                return [x ^ exp[lf + y] if y else x for x, y in zip(t[i + 1 :], b)]

            def mul_add(acc, c, v):
                if c:
                    lc = log[c] - m
                    acc[: len(v)] = [x ^ exp[log[y] + lc] if y else x for x, y in zip(acc, v)]

        else:
            half = m // 2

            def reduce(t, i, b):
                nf = (log[t[i]] + half) % m  # the logarithm of -t[i]
                return [add_power(x, nf + y) if y else x for x, y in zip(t[i + 1 :], b)]

            def mul_add(acc, c, v):
                if c:
                    lc = log[c] - m
                    acc[: len(v)] = [add_power(x, log[y] + lc) if y else x for x, y in zip(acc, v)]

        def dot_columns(cols, v):
            acc = [0] * len(cols[0])
            for col, vj in zip(cols, v):
                mul_add(acc, vj, col)
            return acc

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

    def back_substitute(basis):
        n = len(basis) - 1
        rows = basis[:n]
        # The rows in full, zero up to and at the pivot: cols[c] is column c.
        cols = list(zip(*([0] * (r + 1) + (b or [0] * n)[: n - r - 1] for r, b in enumerate(rows))))
        # The right-hand side is the last entry of every nonempty tail.
        x = [value(b[-1]) if b else 0 for b in rows]
        for c in range(n - 1, 0, -1):
            if x[c]:
                x[:c] = reduce([x[c], *x[:c]], 0, cols[c])
        return x

    def columns(blocks, width):
        rows = [x for b in blocks for x in b]
        return [rows[j::width] for j in range(width)]

    def eliminate(cols, i):
        first = cols[0]
        lead = first[i]
        if not lead:
            return None
        i += 1
        rest, k = first[i:], neg(inv(lead))
        out = []
        for c in cols[1:]:
            tail = c[i:]
            mul_add(tail, mul(c[i - 1], k), rest)
            out.append(tail)
        return out

    def from_newton(c, nodes, lead):
        acc = [lead]
        for ci, b in zip(reversed(c), reversed(nodes)):
            acc, prev = [ci] + acc, acc
            mul_add(acc, neg(b), prev)
        return acc

    kernels = insert_row, back_substitute, columns, dot_columns, eliminate, from_newton
    if p != 2:
        return *kernels, None

    def level(ws, k, r, steps):
        # r[g][h] is log[a ^ b], so the quotient's logarithm is log[x] - r.
        return [
            ws[g][k] if g == h else exp[log[x] - r[g][h]] if (x := ci ^ cj) else 0
            for g, h, ci, cj in steps
        ]

    return *kernels, (log.__getitem__, level)
