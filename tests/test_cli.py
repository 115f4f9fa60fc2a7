"""Command-line behaviour, file formats, and exit-code contracts."""

import hashlib
import io
import re
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udm.cli import (
    main,
    parse_family,
    parse_observation,
    render_family,
    render_observation,
)
from udm import cli, families, oracles
from udm.codec import ChannelOutput
from udm.errors import BadArgument, ParseError
from udm.families import construct, permute, right_multiply
from udm.gf import Field, factor_prime_power, field_of_order
from udm.linalg import Matrix, rank

KNOWN_FILE = """UDMv1
field q=3^1
L 4
n 3
alpha 2
matrix 0
1 0 0
0 1 0
0 0 1
matrix 1
0 0 1
0 1 0
1 0 0
matrix 2
1 1 1
0 1 2
0 0 1
matrix 3
1 2 1
0 1 1
0 0 1
"""


@pytest.fixture
def known_path(tmp_path):
    path = tmp_path / "known.udm"
    path.write_text(KNOWN_FILE)
    return path


# -- file format ------------------------------------------------------------------


def test_render_known_family_bytes():
    assert render_family(construct(Field(3), 4, 3)) == KNOWN_FILE


def test_parse_render_roundtrip_is_byte_identical():
    for q, L, n in [(3, 4, 3), (2, 3, 2), (4, 5, 2), (9, 10, 2)]:
        fam = construct(Field(*factor_prime_power(q)), L, n)
        text = render_family(fam)
        again = parse_family(text)
        assert render_family(again) == text
        assert again.matrices == fam.matrices
        assert again.alpha == fam.alpha


@st.composite
def desk_families(draw):
    """construct's output at desk scale, possibly right-multiplied by a
    random invertible matrix and then permuted."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    field = field_of_order(q)
    n = draw(st.integers(1, 4))
    fam = construct(field, draw(st.integers(1, q + 1 if n > 1 else 6)), n)
    if draw(st.booleans()):
        entries = draw(st.lists(st.integers(0, q - 1), min_size=n * n, max_size=n * n))
        b = Matrix(field, n, n, entries)
        if rank(b) == n:
            fam = right_multiply(fam, b)
    if draw(st.booleans()):
        fam = permute(fam, draw(st.permutations(range(fam.L))))
    return fam


@settings(max_examples=30)
@given(fam=desk_families())
def test_render_parse_render_is_byte_identical(fam):
    text = render_family(fam)
    assert render_family(parse_family(text)) == text


def test_parse_family_without_alpha():
    text = KNOWN_FILE.replace("alpha 2\n", "")
    fam = parse_family(text)
    assert fam.alpha is None
    assert render_family(fam) == text


def test_parse_family_keeps_alpha_only_on_generator_output():
    fam = parse_family(KNOWN_FILE)
    assert fam.alpha == 2
    assert render_family(fam) == KNOWN_FILE
    # A wrong alpha on the right matrices, and the right alpha on wrong ones.
    assert parse_family(KNOWN_FILE.replace("alpha 2\n", "alpha 1\n")).alpha is None
    assert parse_family(KNOWN_FILE.replace("1 1 1", "0 0 0")).alpha is None


def test_parse_family_rejects_malformed_input():
    for text in [
        "",
        "nonsense\n",
        KNOWN_FILE.replace("UDMv1", "UDMv2"),
        KNOWN_FILE.replace("matrix 1", "matrix 7"),
        KNOWN_FILE.replace("1 0 0\n0 1 0\n0 0 1\nmatrix 1", "1 0\n0 1\nmatrix 1"),
        KNOWN_FILE.replace("0 1 2", "0 1 5"),
        KNOWN_FILE.replace("q=3^1", "q=6^1"),
        KNOWN_FILE + "extra\n",
        KNOWN_FILE.replace("alpha 2", "alpha 0"),
    ]:
        with pytest.raises(ParseError):
            parse_family(text)


def test_observation_format_roundtrip():
    obs = ChannelOutput((2, 0, 1), ((1, 2), (), (0,)))
    text = render_observation(obs)
    assert text == "k=2: 1 2\nk=0:\nk=1: 0\n"
    assert parse_observation(text) == obs


def test_observation_erased_rendering_accepted_on_parse():
    # Erased positions written as '?' after the prefix are read and dropped.
    text = "k=1: 2 ? ?\nk=0: ? ? ?\n"
    assert parse_observation(text) == ChannelOutput((1, 0), ((2,), ()))


def test_observation_parse_rejects_malformed():
    for text in ["", "k=2: 1\n", "j=1: 0\n", "k=1: ? 1\n", "k=1: 1 2\n", "k=-1:\n"]:
        with pytest.raises(ParseError):
            parse_observation(text)


# -- generate ---------------------------------------------------------------------------


def test_generate_writes_known_file(tmp_path, capsys):
    out = tmp_path / "fam.udm"
    assert main(["generate", "--q", "3", "--L", "4", "--n", "3", "--out", str(out)]) == 0
    assert out.read_text() == KNOWN_FILE
    captured = capsys.readouterr()
    assert "alpha=2" in captured.out


def test_generate_to_stdout(capsys):
    assert main(["generate", "--q", "2", "--L", "2", "--n", "5"]) == 0
    captured = capsys.readouterr()
    fam = parse_family(captured.out)
    assert fam.L == 2 and fam.n == 5


def test_generate_composite_prime_power(tmp_path):
    out = tmp_path / "gf4.udm"
    assert main(["generate", "--q", "4", "--L", "2", "--n", "5", "--out", str(out)]) == 0
    fam = parse_family(out.read_text())
    assert fam.field.q == 4


def test_generate_and_oracle_reject_a_huge_order_at_once(capsys):
    # The order cap comes before factoring: trial division of this prime
    # would take minutes.
    huge = "1000000000000000003"
    for argv in (["generate", "--q", huge, "--L", "3", "--n", "2"],
                 ["oracle", "bound", "--q", huge, "--n", "2"]):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        assert "exceeds the supported maximum" in capsys.readouterr().err


def test_hostile_family_sizes_exit_2_at_once(known_path, tmp_path, capsys):
    out = str(tmp_path / "x.udm")
    start = time.perf_counter()
    for argv in (
        ["generate", "--q", "2", "--L", "1000000000", "--n", "1", "--out", out],
        ["generate", "--q", "65536", "--L", "5", "--n", "100000", "--out", out],
        ["oracle", "hasse", "--q", "2", "--L", "3", "--n", "100000"],
        ["oracle", "lucas", "--q", "2", "--L", "3", "--n", "100000"],
        ["oracle", "delta", "--q", "2", "--n", "100000"],
        ["oracle", "bound", "--q", "2", "--L", "1000000000", "--n", "1"],
        ["transform", "--in", str(known_path), "--op", "tensor", "--m", "1000000000", "--out", out],
    ):
        assert main(argv) == 2, argv
        assert "entries" in capsys.readouterr().err
    assert time.perf_counter() - start < 2.0


def test_oracle_bound_prints_huge_counts_as_powers(capsys):
    # 3**9998 and 2**15200 have more digits than int to str converts.
    assert main(["oracle", "bound", "--q", "3", "--L", "10000", "--n", "1"]) == 0
    assert "0 of 3^9998 raw candidates" in capsys.readouterr().out
    assert main(["oracle", "bound", "--q", "2", "--L", "40", "--n", "20"]) == 2
    assert "2^15200 raw candidates exceed the budget" in capsys.readouterr().err


def test_oracle_bound_with_one_block_forms_no_huge_count(capsys):
    # 65521**3999998 alone took ~45 s to form; the printed count is a power.
    start = time.perf_counter()
    assert main(["oracle", "bound", "--q", "65521", "--L", "4000000", "--n", "1"]) == 0
    assert time.perf_counter() - start < 1.0
    assert "0 of 65521^3999998 raw candidates" in capsys.readouterr().out
    # Counts of up to 4096 bits are printed in decimal, as before.
    assert main(["oracle", "bound", "--q", "2", "--L", "4097", "--n", "1"]) == 0
    assert f"0 of {2**4095} raw candidates" in capsys.readouterr().out
    assert main(["oracle", "bound", "--q", "2", "--L", "4098", "--n", "1"]) == 0
    assert "0 of 2^4096 raw candidates" in capsys.readouterr().out


@pytest.mark.parametrize(
    "check, L, largest",
    [("hasse", 1, 258), ("hasse", 3, 175), ("lucas", 3, 774), ("delta", 3, 104)],
)
def test_oracle_checks_are_bounded_by_their_cost(check, L, largest):
    oracles.check_cost(check, L, largest)
    with pytest.raises(BadArgument, match="steps"):
        oracles.check_cost(check, L, largest + 1)


def test_oversized_oracle_checks_exit_2_before_building(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("built a family for an oversized check")

    monkeypatch.setattr(oracles, "construct", refuse)
    start = time.perf_counter()
    # n = 1182 is the largest n with L = 3 that the family size bound lets
    # through; each check would take minutes at that size.
    for argv in (
        ["oracle", "hasse", "--q", "2", "--L", "3", "--n", "1182"],
        ["oracle", "lucas", "--q", "2", "--L", "3", "--n", "1182"],
        ["oracle", "delta", "--q", "2", "--n", "1182"],
    ):
        assert main(argv) == 2
        assert "above the supported maximum" in capsys.readouterr().err
    assert main(["oracle", "hasse", "--q", "65536", "--L", "10000", "--n", "9"]) == 2
    assert "steps" in capsys.readouterr().err
    assert time.perf_counter() - start < 1.0
    # A check refused for its arguments keeps the message of construct.
    assert main(["oracle", "hasse", "--q", "2", "--L", "5", "--n", "500"]) == 2
    assert "L exceeds q + 1" in capsys.readouterr().err


def test_verify_rejects_a_huge_field_header_at_once(tmp_path, capsys):
    # Trial division of the prime, or forming 2**(10**12), would hang.
    for field in ("q=1000000000000000003^1", "q=2^1000000000000"):
        path = tmp_path / "huge.udm"
        path.write_text(KNOWN_FILE.replace("field q=3^1", f"field {field}"))
        start = time.perf_counter()
        assert main(["verify", "--in", str(path)]) == 2
        assert time.perf_counter() - start < 1.0
        assert "error:" in capsys.readouterr().err


def test_generate_largest_field_output_is_pinned(capsys):
    assert main(["generate", "--q", "65536", "--L", "5", "--n", "6", "--out", "-"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "8ffa02a0977ceb0ad6734f1d9c1e5674b468a9273c47ef657892bff5f488d646"


def test_generate_rejects_bound_violation(tmp_path, capsys):
    out = tmp_path / "never.udm"
    rc = main(["generate", "--q", "2", "--L", "4", "--n", "2", "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "q + 1" in capsys.readouterr().err


def test_generate_rejects_non_prime_power(capsys):
    assert main(["generate", "--q", "12", "--L", "2", "--n", "2"]) == 2
    assert "prime power" in capsys.readouterr().err


# -- verify ------------------------------------------------------------------------------


def assert_verify_stderr(err, count):
    # The count line before the walk is exact; the line after it gives
    # the walk's elapsed seconds, which vary.
    lines = err.splitlines()
    assert lines[0] == f"verify: {count} tuples"
    assert re.fullmatch(r"verify: [0-9.e+-]+ s elapsed", lines[1])
    assert len(lines) == 2


def test_verify_pass(known_path, capsys):
    assert main(["verify", "--in", str(known_path)]) == 0
    out, err = capsys.readouterr()
    assert out == "PASS (20 tuples)\n"
    assert_verify_stderr(err, 20)


def test_verify_superset(known_path, capsys):
    assert main(["verify", "--in", str(known_path), "--superset"]) == 0
    out, err = capsys.readouterr()
    assert out == "PASS (241 tuples)\n"
    assert_verify_stderr(err, 241)


def test_verify_budget_refuses_before_the_walk(known_path, tmp_path, capsys):
    # The exact-sum count is held to the budget in both modes: the known
    # family has 20 of them and 241 tuples with sum at least n.
    for extra in ([], ["--superset"]):
        assert main(["verify", "--in", str(known_path), "--budget", "20", *extra]) == 0
        assert capsys.readouterr().out.startswith("PASS")
        assert main(["verify", "--in", str(known_path), "--budget", "19", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "error: 20 exact-sum tuples exceed the budget of 19"
        )
    # A walk of C(260, 4) tuples would take hours; the refusal is at once.
    path = tmp_path / "wide.udm"
    assert main(["generate", "--q", "256", "--L", "257", "--n", "4", "--out", str(path)]) == 0
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["verify", "--in", str(path), "--budget", "1000000"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "verify: 186043585 tuples"
    assert err[1].startswith("error: 186043585 exact-sum tuples exceed the budget")


def test_verify_is_bounded_by_default(known_path, tmp_path, capsys):
    # A (256, 60, 12) file is small, 8640 entries, but its walk has 1.3e13
    # tuples: without --budget it is refused before the walk, as it is
    # after transform --then-verify, and an explicit --budget moves the bound.
    path = tmp_path / "deep.udm"
    assert main(["generate", "--q", "256", "--L", "60", "--n", "12", "--out", str(path)]) == 0
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["verify", "--in", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "verify: 12802736917880 tuples",
        "error: 12802736917880 exact-sum tuples exceed the budget of 10000000",
    ]
    out = str(tmp_path / "out.udm")
    argv = ["transform", "--in", str(path), "--op", "reverse-pairs", "--out", out, "--then-verify"]
    assert main(argv) == 2
    assert capsys.readouterr().err.endswith("exceed the budget of 10000000\n")
    assert main(["verify", "--in", str(known_path), "--budget", str(10**8)]) == 0
    assert capsys.readouterr().out == "PASS (20 tuples)\n"


def test_verify_prints_a_huge_superset_count_as_a_power(tmp_path, capsys):
    # 2**20000 - 1 tuples have more digits than int to str converts.
    path = tmp_path / "long.udm"
    assert main(["generate", "--q", "2", "--L", "20000", "--n", "1", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--in", str(path), "--superset"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "PASS (at least 2^19999 tuples)\n"
    assert_verify_stderr(captured.err, "at least 2^19999")


def test_verify_failure_prints_witness(tmp_path, capsys):
    corrupted = KNOWN_FILE.replace("1 1 1", "0 0 0")
    path = tmp_path / "bad.udm"
    path.write_text(corrupted)
    assert main(["verify", "--in", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "(0, 0, 1, 2)" in out and "rank" in out


def test_verify_parse_error(tmp_path, capsys):
    path = tmp_path / "garbage.udm"
    path.write_text("not a family\n")
    assert main(["verify", "--in", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_non_utf8_input_files_exit_2(known_path, tmp_path, capsys):
    binary = tmp_path / "binary.udm"
    binary.write_bytes(bytes(range(128, 192)))  # no byte here starts a UTF-8 character
    out = str(tmp_path / "out.udm")
    assert main(["verify", "--in", str(binary)]) == 2
    assert main(["transform", "--in", str(binary), "--op", "reduce", "--out", out]) == 2
    assert main(["codec", "decode", "--in", str(known_path), "--obs", str(binary)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("error: ") and "not UTF-8" in line for line in lines)


def test_input_past_the_cap_exits_2(known_path, tmp_path, capsys, monkeypatch):
    # The cap holds the longest family file within MAX_FAMILY_ENTRIES; here
    # it is cut to the known file's length, so that file still passes and
    # one more character of padding, /dev/zero or a long stdin is refused
    # after reading one character past it.
    assert cli.MAX_INPUT_CHARS >= 21 * families.MAX_FAMILY_ENTRIES
    text = known_path.read_text()
    monkeypatch.setattr(cli, "MAX_INPUT_CHARS", len(text))
    assert main(["verify", "--in", str(known_path)]) == 0
    padded = tmp_path / "padded.udm"
    padded.write_text(text + " ")
    assert main(["verify", "--in", str(padded)]) == 2
    assert main(["verify", "--in", "/dev/zero"]) == 2
    monkeypatch.setattr("sys.stdin", io.StringIO(text + "\n" * 10**6))
    assert main(["verify", "--in", "-"]) == 2
    lines = capsys.readouterr().err.splitlines()
    refusals = [line for line in lines if line.startswith("error: ")]
    assert refusals == [
        f"error: {name}: longer than {len(text)} characters"
        for name in (padded, "/dev/zero", "-")
    ]


def generate_gf2_333(tmp_path):
    """The GF(2) (L, n) = (3, 3) family; its tensor square is not
    universally decodable."""
    path = tmp_path / "gf2.udm"
    assert main(["generate", "--q", "2", "--L", "3", "--n", "3", "--out", str(path)]) == 0
    return path


def test_verify_and_then_verify_print_the_same_failure(tmp_path, capsys):
    squared = tmp_path / "gf2_squared.udm"
    base = generate_gf2_333(tmp_path)
    capsys.readouterr()
    assert main(["transform", "--in", str(base), "--op", "tensor", "--m", "2",
                 "--out", str(squared), "--then-verify"]) == 1
    then_verify, err = capsys.readouterr()
    assert_verify_stderr(err, 55)
    assert main(["verify", "--in", str(squared)]) == 1
    out, err = capsys.readouterr()
    assert out == then_verify
    assert_verify_stderr(err, 55)
    lines = then_verify.splitlines()
    assert lines[0] == "FAIL: tuple (2, 2, 5) stacks to rank 8 < 9"
    assert len(lines) == 1 + 9  # the witness stack has n = 9 rows


# -- transform ----------------------------------------------------------------------------


def test_transform_tensor_then_verify(known_path, tmp_path, capsys):
    out = tmp_path / "squared.udm"
    rc = main(
        ["transform", "--in", str(known_path), "--op", "tensor", "--m", "2",
         "--out", str(out), "--then-verify"]
    )
    assert rc == 0
    stdout, err = capsys.readouterr()
    assert stdout == "PASS (220 tuples)\n"
    assert_verify_stderr(err, 220)
    fam = parse_family(out.read_text())
    assert fam.n == 9


def test_transform_reduce_reproduces_smaller_generation(tmp_path):
    big = tmp_path / "big.udm"
    small = tmp_path / "small.udm"
    reduced = tmp_path / "reduced.udm"
    assert main(["generate", "--q", "3", "--L", "4", "--n", "3", "--out", str(big)]) == 0
    assert main(["generate", "--q", "3", "--L", "4", "--n", "2", "--out", str(small)]) == 0
    assert main(["transform", "--in", str(big), "--op", "reduce", "--out", str(reduced)]) == 0
    assert reduced.read_text() == small.read_text()


def test_transform_reverse_pairs_relation(known_path, tmp_path):
    out = tmp_path / "reversed.udm"
    assert main(["transform", "--in", str(known_path), "--op", "reverse-pairs",
                 "--out", str(out), "--then-verify"]) == 0
    fam = parse_family(out.read_text())
    from udm.linalg import anti_identity, matmul

    j = anti_identity(fam.field, 3)
    assert fam.matrices[1] == matmul(j, fam.matrices[0])
    assert fam.matrices[3] == matmul(j, fam.matrices[2])


def test_transform_right_mul_identity(known_path, tmp_path):
    out = tmp_path / "same.udm"
    rc = main(["transform", "--in", str(known_path), "--op", "right-mul",
               "--matrix", "1 0 0; 0 1 0; 0 0 1", "--out", str(out)])
    assert rc == 0
    fam = parse_family(out.read_text())
    assert fam.matrices == construct(Field(3), 4, 3).matrices
    assert fam.alpha is None  # transforms drop the construction marker


_B16 = "3 0 7 1; 1 1 0 2; 0 5 1 0; "
_B256 = "3 0 7 1 200 9; 1 1 0 2 17 255; 0 5 1 0 0 64; 9 0 0 1 128 2; 77 31 5 0 1 1; "


@pytest.mark.parametrize(
    "q, L, n, matrix, singular, digest",
    [
        (16, 5, 4, _B16 + "9 0 0 1", _B16 + "2 4 6 3",
         "ebfa4bc8136e891857188372171fcd8875c86ba9c4ce18586be3f359ba15b548"),
        (256, 6, 6, _B256 + "0 0 0 0 3 250", _B256 + "70 27 3 2 88 181",
         "c9fc70dcb054988b845bafaba689b316eb9c738ed383e40ac9a3a802ae3a10fb"),
    ],
)
def test_transform_right_mul_output_is_pinned(q, L, n, matrix, singular, digest, tmp_path,
                                              capsys):
    # Byte-row fields: the UDMv1 file is the one the log-row kernels wrote,
    # and a multiplier whose last row is the sum of the others is refused.
    base = tmp_path / "base.udm"
    assert main(["generate", "--q", str(q), "--L", str(L), "--n", str(n), "--out", str(base)]) == 0
    capsys.readouterr()
    for b, code in ((matrix, 0), (singular, 2)):
        assert main(["transform", "--in", str(base), "--op", "right-mul", "--matrix", b,
                     "--out", "-"]) == code
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert err == "error: right multiplier is not invertible\n"


def test_transform_left_tri(known_path, tmp_path, capsys):
    out = tmp_path / "scaled.udm"
    rc = main(["transform", "--in", str(known_path), "--op", "left-tri", "--ell", "2",
               "--matrix", "2 0 0; 0 1 0; 0 0 1", "--out", str(out), "--then-verify"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_transform_errors_exit_2(known_path, tmp_path, capsys):
    out = tmp_path / "x.udm"
    # reduce requires the identity up front; permuted input violates that.
    swapped = KNOWN_FILE.replace("alpha 2\n", "")
    swapped = swapped.replace("matrix 0\n1 0 0\n0 1 0\n0 0 1", "matrix 0\n1 1 1\n0 1 2\n0 0 1")
    bad = tmp_path / "bad.udm"
    bad.write_text(swapped)
    assert main(["transform", "--in", str(bad), "--op", "reduce", "--out", str(out)]) == 2
    assert main(["transform", "--in", str(known_path), "--op", "right-mul",
                 "--matrix", "0 0 0; 0 0 0; 0 0 0", "--out", str(out)]) == 2
    assert main(["transform", "--in", str(known_path), "--op", "tensor",
                 "--out", str(out)]) == 2
    assert main(["transform", "--in", str(known_path), "--op", "left-tri", "--ell", "1",
                 "--matrix", "1 1 0; 0 1 0; 0 0 1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.count("error:") == 4


# -- codec --------------------------------------------------------------------------------------


def test_codec_roundtrip_pass(known_path, capsys):
    rc = main(["codec", "roundtrip", "--in", str(known_path),
               "--u", "1 0 0", "--k", "0 0 1 2"])
    assert rc == 0
    assert capsys.readouterr().out == "PASS\n"


def test_codec_roundtrip_on_a_non_udm_family_exits_1(tmp_path, capsys):
    squared = tmp_path / "gf2_squared.udm"
    assert main(["transform", "--in", str(generate_gf2_333(tmp_path)), "--op", "tensor",
                 "--m", "2", "--out", str(squared)]) == 0
    capsys.readouterr()
    # (2, 2, 5) is the first rank-deficient tuple of this family.
    rc = main(["codec", "roundtrip", "--in", str(squared), "--u", " ".join(["1"] * 9),
               "--k", "2 2 5"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "rank" in captured.err


def test_codec_encode_zero_vector(known_path, capsys):
    assert main(["codec", "encode", "--in", str(known_path), "--u", "0 0 0"]) == 0
    assert capsys.readouterr().out == "k=3: 0 0 0\n" * 4


def test_codec_encode_with_erasure(known_path, capsys):
    assert main(["codec", "encode", "--in", str(known_path),
                 "--u", "1 0 0", "--k", "0 0 1 2"]) == 0
    assert capsys.readouterr().out == "k=0:\nk=0:\nk=1: 1\nk=2: 1 0\n"


def test_codec_decode_from_file(known_path, tmp_path, capsys):
    obs = tmp_path / "obs.txt"
    obs.write_text("k=0:\nk=0:\nk=1: 1\nk=2: 1 0\n")
    assert main(["codec", "decode", "--in", str(known_path), "--obs", str(obs)]) == 0
    assert capsys.readouterr().out == "1 0 0\n"


def test_codec_decode_insufficient_exits_1(known_path, tmp_path, capsys):
    obs = tmp_path / "obs.txt"
    obs.write_text("k=0:\nk=0:\nk=1: 1\nk=1: 1\n")
    assert main(["codec", "decode", "--in", str(known_path), "--obs", str(obs)]) == 1
    assert "insufficient symbols" in capsys.readouterr().err


def test_codec_malformed_input_exits_2(known_path, capsys):
    assert main(["codec", "encode", "--in", str(known_path), "--u", "1 0"]) == 2
    assert main(["codec", "roundtrip", "--in", str(known_path), "--u", "1 0 0",
                 "--k", "9 0 0 0"]) == 2
    assert main(["codec", "encode", "--in", str(known_path)]) == 2
    capsys.readouterr()


# -- oracle -------------------------------------------------------------------------------------


def test_oracle_hasse(capsys):
    assert main(["oracle", "hasse", "--q", "3", "--L", "4", "--n", "3"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_oracle_lucas(capsys):
    assert main(["oracle", "lucas", "--q", "3", "--L", "4", "--n", "9"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_oracle_delta(capsys):
    assert main(["oracle", "delta", "--q", "3", "--n", "3"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_oracle_bound_refutes(capsys):
    assert main(["oracle", "bound", "--q", "2", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "no (4,2,2) family exists" in out
    assert "256 raw candidates" in out
    assert "PASS" in out


def test_oracle_bound_finds_at_the_limit(capsys):
    assert main(["oracle", "bound", "--q", "2", "--n", "2", "--L", "3"]) == 0
    out = capsys.readouterr().out
    assert "found (3,2,2) family" in out
    assert "PASS" in out


@pytest.mark.parametrize("L", ["1", "2"])
def test_oracle_bound_with_no_slot_verifies_the_base(capsys, L):
    # L <= 2 leaves no matrix to search: the base alone, I or (I, J), is
    # the one raw candidate, and it is verified.
    assert main(["oracle", "bound", "--q", "3", "--L", L, "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert f"found ({L},3,3) family after verifying 1 of 1 raw candidates" in out
    assert "PASS" in out


def test_oracle_bound_budget_exceeded(capsys):
    assert main(["oracle", "bound", "--q", "3", "--n", "3"]) == 2
    assert "budget" in capsys.readouterr().err


def test_oracle_requires_l_where_needed(capsys):
    assert main(["oracle", "hasse", "--q", "3", "--n", "3"]) == 2
    capsys.readouterr()


def test_library_argument_errors_exit_2(known_path, tmp_path, capsys):
    out = str(tmp_path / "x.udm")
    assert main(["generate", "--q", "3", "--L", "3", "--n", "0", "--out", out]) == 2
    assert main(["oracle", "delta", "--q", "3", "--n", "0"]) == 2
    assert main(["oracle", "bound", "--q", "2", "--L", "3", "--n", "0"]) == 2
    assert main(["oracle", "bound", "--q", "2", "--L", "5", "--n", "-2"]) == 2
    assert main(["transform", "--in", str(known_path), "--op", "tensor", "--m", "0",
                 "--out", out]) == 2
    assert capsys.readouterr().err.count("error:") == 5


def test_a_stray_value_error_is_not_a_usage_error(monkeypatch):
    def broken(field, L, n):
        raise ValueError("a library defect")

    monkeypatch.setattr(families, "construct", broken)
    with pytest.raises(ValueError, match="a library defect"):
        main(["generate", "--q", "3", "--L", "4", "--n", "3"])


# -- argparse usage errors -------------------------------------------------------------------------


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# -- fuzzed input files ----------------------------------------------------------------------------

# u = (1, 0, 0) over the known family, with three surplus symbols
OBSERVATION = "k=3: 1 0 0\nk=1: 0\nk=2: 1 0\nk=0:\n"
FUZZ_ALPHABET = " \n\t0123456789-+_?:=;,^kLnqmatrixlphfiedUDMv"


@st.composite
def mutated(draw, text):
    """Random bytes; text with one token replaced by a small integer; or
    text with a few slices replaced by short runs of format characters."""
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return draw(st.binary(max_size=64))
    if kind < 3:
        parts = re.split(r"(\s+)", text)  # tokens at the even indices
        parts[draw(st.sampled_from(range(0, len(parts), 2)))] = str(draw(st.integers(-1, 4)))
        return "".join(parts).encode()
    data = text.encode()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 4)))
        data = data[:i] + draw(st.text(FUZZ_ALPHABET, max_size=4)).encode() + data[j:]
    return data


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=40)
@given(data=st.data())
def test_fuzzed_input_files_exit_with_a_code(fuzz_dir, data):
    family, obs = KNOWN_FILE.encode(), OBSERVATION.encode()
    if data.draw(st.booleans()):
        family = data.draw(mutated(KNOWN_FILE))
    else:
        obs = data.draw(mutated(OBSERVATION))
    fam_path, obs_path = fuzz_dir / "family.udm", fuzz_dir / "obs.txt"
    fam_path.write_bytes(family)
    obs_path.write_bytes(obs)
    for argv in (
        ["verify", "--in", str(fam_path)],
        ["transform", "--in", str(fam_path), "--op", "reduce", "--out", str(fuzz_dir / "out.udm")],
        ["codec", "decode", "--in", str(fam_path), "--obs", str(obs_path)],
    ):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 1, 2)
        if rc == 2:
            assert err.getvalue().startswith("error: ")
