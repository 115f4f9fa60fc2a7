"""Command-line front end and the text file formats it owns.

Family files (format tag UDMv1) are line oriented and canonical: header
fields in fixed order, then one block per matrix with one row per line and
elements rendered as their canonical integers. Rendering a parsed file
reproduces it byte for byte.

Exit codes: 0 success, 1 semantic failure, 2 usage or parse errors. Commands
raise, and main alone maps what they raise to a code and one 'error: '
line on stderr:
- InsufficientSymbols, RankDeficient, Inconsistent (a decode that cannot
  or must not succeed): 1, the first with an 'insufficient symbols: '
  prefix; a verification that fails prints its witness and exits 1 too;
- any other UdmError (ParseError for malformed arguments or files,
  including non-UTF-8 ones, and the library's argument errors) and OSError:
  2.
Anything else, such as a stray ValueError, is a defect and propagates.

Each process loads only what its subcommand runs: generate, verify and
transform need udm.families (with udm.gf and udm.linalg under it); codec
adds udm.codec and oracle adds udm.oracles (and udm.hasse), both imported
inside their commands. The `udm` package itself imports nothing eagerly.
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter
from typing import TYPE_CHECKING

from . import families, gf
from .errors import (
    BudgetExceeded,
    Inconsistent,
    InsufficientSymbols,
    ParseError,
    RankDeficient,
    UdmError,
)
from .families import UdmFamily
from .linalg import Matrix

if TYPE_CHECKING:
    from .codec import ChannelOutput

FILE_TAG = "UDMv1"

# verify's bound on its walk unless --budget sets another, in exact-sum
# tuples: 3.4-17 s at the 0.34-1.7 us a tuple of (q, 40, 4) families from
# GF(256) to GF(3^10), measured on 2 cores with Python 3.11 (more a tuple
# at larger n), where an unbounded walk could run for years.
DEFAULT_BUDGET = 10**7

# The longest text of a family within families.MAX_FAMILY_ENTRIES: at n = 1
# each of up to 2**22 matrices takes "matrix <l>" (at most 15 characters
# with its newline) and one entry line (at most 6), 21 characters an entry,
# about 88 MB, and the header takes under 1024. Longer input is refused
# after reading one character past the cap.
MAX_INPUT_CHARS = 21 * families.MAX_FAMILY_ENTRIES + 1024


# -- family file format -------------------------------------------------------


def render_family(family: UdmFamily) -> str:
    lines = [
        FILE_TAG,
        f"field {gf.field_string(family.field)}",
        f"L {family.L}",
        f"n {family.n}",
    ]
    if family.alpha is not None:
        lines.append(f"alpha {family.alpha}")
    for l, m in enumerate(family.matrices):
        lines += (f"matrix {l}", format_matrix(m))
    return "\n".join(lines) + "\n"


def parse_family(text: str) -> UdmFamily:
    lines = text.splitlines()
    pos = 0

    def next_line(what):
        nonlocal pos
        if pos >= len(lines):
            raise ParseError(f"unexpected end of file, expected {what}")
        line = lines[pos].strip()
        pos += 1
        return line

    def keyed(line, key):
        parts = line.split()
        if len(parts) != 2 or parts[0] != key:
            raise ParseError(f"expected '{key} <value>', got {line!r}")
        return parts[1]

    if next_line("format tag") != FILE_TAG:
        raise ParseError(f"missing {FILE_TAG} format tag")
    field = gf.parse_field_string(keyed(next_line("field header"), "field"))
    try:
        L = int(keyed(next_line("L header"), "L"))
        n = int(keyed(next_line("n header"), "n"))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    if L < 1 or n < 1:
        raise ParseError(f"L and n must be positive, got L={L}, n={n}")
    alpha = None
    if pos < len(lines) and lines[pos].strip().startswith("alpha "):
        try:
            alpha = int(keyed(next_line("alpha header"), "alpha"))
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        if not 0 < alpha < field.q:
            raise ParseError(f"alpha {alpha} is not a nonzero element of GF({field.q})")
    mats = []
    for l in range(L):
        header = next_line(f"matrix {l} header")
        if header != f"matrix {l}":
            raise ParseError(f"expected 'matrix {l}', got {header!r}")
        entries = []
        for _ in range(n):
            row = next_line("matrix row").split()
            if len(row) != n:
                raise ParseError(f"expected {n} entries per row, got {len(row)}")
            for tok in row:
                try:
                    v = int(tok)
                except ValueError as exc:
                    raise ParseError(f"bad element {tok!r}") from exc
                if not 0 <= v < field.q:
                    raise ParseError(f"element {v} out of range for GF({field.q})")
                entries.append(v)
        mats.append(Matrix(field, n, n, entries))
    while pos < len(lines):
        if lines[pos].strip():
            raise ParseError(f"trailing content: {lines[pos]!r}")
        pos += 1
    return families.with_checked_alpha(UdmFamily(field, L, n, tuple(mats), alpha=alpha))


# -- observation and vector formats -------------------------------------------


def render_observation(obs: ChannelOutput) -> str:
    """One line per channel: 'k=<int>: s0 s1 ...'."""
    lines = []
    for k, prefix in zip(obs.ks, obs.prefixes):
        body = " ".join(str(v) for v in prefix)
        lines.append(f"k={k}: {body}" if body else f"k={k}:")
    return "\n".join(lines) + "\n"


def parse_observation(text: str) -> ChannelOutput:
    from .codec import ChannelOutput

    ks = []
    prefixes = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        head, sep, body = line.partition(":")
        if not sep or not head.startswith("k="):
            raise ParseError(f"bad observation line: {raw!r}")
        try:
            k = int(head[2:])
        except ValueError as exc:
            raise ParseError(f"bad prefix length in {raw!r}") from exc
        if k < 0:
            raise ParseError(f"negative prefix length in {raw!r}")
        toks = body.split()
        if len(toks) < k or any(t == "?" for t in toks[:k]):
            raise ParseError(f"line {raw!r} carries fewer than k={k} symbols")
        if any(t != "?" for t in toks[k:]):
            raise ParseError(f"unexpected tokens after the prefix in {raw!r}")
        try:
            prefix = tuple(int(t) for t in toks[:k])
        except ValueError as exc:
            raise ParseError(f"bad symbol in {raw!r}") from exc
        if any(v < 0 for v in prefix):
            raise ParseError(f"negative symbol in {raw!r}")
        ks.append(k)
        prefixes.append(prefix)
    if not ks:
        raise ParseError("empty observation")
    return ChannelOutput(tuple(ks), tuple(prefixes))


def parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split())
    except ValueError as exc:
        raise ParseError(f"bad vector: {text!r}") from exc


def parse_matrix_arg(field: gf.Field, text: str, n: int) -> Matrix:
    """Inline matrix syntax: rows separated by ';', entries by whitespace."""
    rows = []
    for chunk in text.split(";"):
        toks = chunk.split()
        if not toks:
            raise ParseError(f"empty row in matrix argument {text!r}")
        try:
            row = [int(t) for t in toks]
        except ValueError as exc:
            raise ParseError(f"bad entry in matrix argument {text!r}") from exc
        rows.append(row)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ParseError(f"matrix argument must be {n}x{n}")
    for row in rows:
        for v in row:
            if not 0 <= v < field.q:
                raise ParseError(f"entry {v} out of range for GF({field.q})")
    return Matrix.from_rows(field, rows)


def format_matrix(m: Matrix) -> str:
    return "\n".join(" ".join(str(v) for v in m.row(i)) for i in range(m.rows))


# -- I/O helpers ---------------------------------------------------------------


def _read_text(path: str) -> str:
    """The text of path, '-' for stdin; ParseError past MAX_INPUT_CHARS."""
    try:
        if path == "-":
            text = sys.stdin.read(MAX_INPUT_CHARS + 1)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read(MAX_INPUT_CHARS + 1)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc})") from exc
    if len(text) > MAX_INPUT_CHARS:
        raise ParseError(f"{path}: longer than {MAX_INPUT_CHARS} characters")
    return text


def _write_text(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _fail(msg: str, code: int) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _count_text(count: int) -> str:
    """count in decimal up to families.MAX_COUNT_BITS bits, else as a
    power. Only a superset count gets larger, and str() refuses such an
    int."""
    if count.bit_length() <= families.MAX_COUNT_BITS:
        return str(count)
    return f"at least 2^{count.bit_length() - 1}"


def _verify(family: UdmFamily, superset: bool = False, budget: int = DEFAULT_BUDGET) -> int:
    """families.verify, after stating its tuple count on stderr and
    followed there by its elapsed seconds; refused with BudgetExceeded
    before the walk when the family has more exact-sum tuples than budget,
    which superset mode walks too. Prints PASS with the tuple count, or
    FAIL with the witness and its stack."""
    L, n = family.L, family.n
    exact = families.count_exact_tuples(L, n)
    total = families._superset_position(L, n, None) if superset else exact
    print(f"verify: {_count_text(total)} tuples", file=sys.stderr)
    if exact > budget:
        raise BudgetExceeded(
            f"{_count_text(exact)} exact-sum tuples exceed the budget of {budget}"
        )
    start = perf_counter()
    report = families.verify(family, superset=superset)
    print(f"verify: {perf_counter() - start:.3g} s elapsed", file=sys.stderr)
    if report.passed:
        print(f"PASS ({_count_text(report.tuples_checked)} tuples)")
        return 0
    w = report.witness
    print(f"FAIL: tuple {w.ks} stacks to rank {w.rank} < {n}")
    print(format_matrix(w.stacked))
    return 1


# -- commands -------------------------------------------------------------------


def cmd_generate(args) -> int:
    field = gf.field_of_order(args.q)
    fam = families.construct(field, args.L, args.n)
    _write_text(args.out, render_family(fam))
    summary = f"(L={fam.L}, n={fam.n}, q={field.q}) family, alpha={fam.alpha}"
    print(summary, file=sys.stderr if args.out == "-" else sys.stdout)
    return 0


def cmd_verify(args) -> int:
    fam = parse_family(_read_text(args.infile))
    return _verify(fam, args.superset, args.budget)


def cmd_transform(args) -> int:
    fam = parse_family(_read_text(args.infile))
    if args.op == "tensor":
        if args.m is None:
            raise ParseError("--op tensor requires --m")
        out = families.tensor_power(fam, args.m)
    elif args.op == "reduce":
        out = families.reduce(fam)
    elif args.op == "reverse-pairs":
        out = families.reverse_pairs(fam)
    elif args.op == "right-mul":
        if args.matrix is None:
            raise ParseError("--op right-mul requires --matrix")
        out = families.right_multiply(fam, parse_matrix_arg(fam.field, args.matrix, fam.n))
    else:  # left-tri, the last of --op's choices
        if args.matrix is None or args.ell is None:
            raise ParseError("--op left-tri requires --ell and --matrix")
        out = families.left_transform(
            fam, args.ell, parse_matrix_arg(fam.field, args.matrix, fam.n)
        )
    _write_text(args.out, render_family(out))
    if args.then_verify:
        return _verify(out)
    return 0


def cmd_codec(args) -> int:
    from . import codec

    fam = parse_family(_read_text(args.infile))
    n = fam.n

    def parse_u():
        u = parse_vector(args.u)
        if len(u) != n or any(not 0 <= v < fam.field.q for v in u):
            raise ParseError(f"information vector must be {n} elements of GF({fam.field.q})")
        return u

    def parse_ks():
        if args.k is None:
            return (n,) * fam.L
        ks = parse_vector(args.k)
        if len(ks) != fam.L or any(not 0 <= k <= n for k in ks):
            raise ParseError(f"erasure tuple must be {fam.L} integers in [0, {n}]")
        return ks

    if args.mode == "encode":
        if args.u is None:
            raise ParseError("encode requires --u")
        obs = codec.erase(codec.encode(fam, parse_u()), parse_ks())
        sys.stdout.write(render_observation(obs))
        return 0
    if args.mode == "decode":
        if args.obs is None:
            raise ParseError("decode requires --obs")
        u = None
        obs = parse_observation(_read_text(args.obs))
    else:  # roundtrip
        if args.u is None or args.k is None:
            raise ParseError("roundtrip requires --u and --k")
        u = parse_u()
        obs = codec.erase(codec.encode(fam, u), parse_ks())
    got = codec.decode(fam, obs)
    if u is None:
        print(" ".join(str(v) for v in got))
        return 0
    if got == u:
        print("PASS")
        return 0
    print(f"FAIL: decoded {got}, expected {u}")
    return 1


def cmd_oracle(args) -> int:
    from . import oracles

    return oracles.run_check(args.check, args.q, args.L, args.n)


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udm",
        description="Construct, verify, transform, and exercise universally decodable matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="construct a family and write it to a file")
    gen.add_argument("--q", type=int, required=True, help="field order, a prime power")
    gen.add_argument("--L", type=int, required=True, help="number of channels")
    gen.add_argument("--n", type=int, required=True, help="block length")
    gen.add_argument("--out", default="-", help="output path, '-' for stdout")
    gen.set_defaults(func=cmd_generate)

    ver = sub.add_parser("verify", help="check the full-rank condition exhaustively")
    ver.add_argument("--in", dest="infile", required=True, help="family file, '-' for stdin")
    ver.add_argument(
        "--superset",
        action="store_true",
        help="also check every tuple with more than n surviving symbols",
    )
    ver.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        metavar="N",
        help="exit 2 before the walk when the family has more than N tuples with "
        "sum exactly n (default 10^7, which transform --then-verify keeps); "
        "--superset walks only those too, so it is held to the same count",
    )
    ver.set_defaults(func=cmd_verify)

    tr = sub.add_parser("transform", help="apply a structure-preserving transform")
    tr.add_argument("--in", dest="infile", required=True)
    tr.add_argument(
        "--op",
        required=True,
        choices=["tensor", "reduce", "reverse-pairs", "right-mul", "left-tri"],
    )
    tr.add_argument("--m", type=int, help="tensor power")
    tr.add_argument("--ell", type=int, help="matrix index for left-tri")
    tr.add_argument("--matrix", help="inline matrix, rows separated by ';'")
    tr.add_argument("--out", default="-")
    tr.add_argument("--then-verify", action="store_true", dest="then_verify")
    tr.set_defaults(func=cmd_transform)

    cd = sub.add_parser("codec", help="encode, decode, or roundtrip over the erasure model")
    cd.add_argument("mode", choices=["encode", "decode", "roundtrip"])
    cd.add_argument("--in", dest="infile", required=True, help="family file")
    cd.add_argument("--u", help="information vector, e.g. '1 0 0'")
    cd.add_argument("--k", help="erasure tuple, e.g. '0 0 1 2'")
    cd.add_argument("--obs", help="observation file for decode, '-' for stdin")
    cd.set_defaults(func=cmd_codec)

    orc = sub.add_parser("oracle", help="run an independent cross-check")
    orc.add_argument("check", choices=["hasse", "lucas", "delta", "bound"])
    orc.add_argument("--q", type=int, required=True)
    orc.add_argument("--L", type=int)
    orc.add_argument("--n", type=int, required=True)
    orc.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InsufficientSymbols as exc:
        return _fail(f"insufficient symbols: {exc}", 1)
    except (RankDeficient, Inconsistent) as exc:
        return _fail(str(exc), 1)
    except (UdmError, OSError) as exc:
        return _fail(str(exc), 2)


if __name__ == "__main__":
    sys.exit(main())
