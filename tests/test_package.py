"""The lazy `udm` package, the modules each CLI process loads, and the
immutable record classes."""

import ast
import importlib.util
import json
import os
import pickle
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import udm
from udm import families, linalg
from udm.cli import render_family
from udm.codec import ChannelOutput, SimulationStats
from udm.errors import BadArgument, DimensionMismatch
from udm.families import UdmFamily, VerifyReport, Witness, construct, is_generator
from udm.gf import Field
from udm.oracles import SearchReport

SRC = Path(__file__).resolve().parent.parent / "src"

# Every public name of the package, by the module it lives in.
HOMES = {
    "codec": "ChannelOutput SimulationStats decode encode erase simulate",
    "families": "UdmFamily VerifyReport Witness construct count_exact_tuples "
    "enumerate_exact_tuples enumerate_superset_tuples left_transform permute prefix "
    "reduce reverse_pairs right_multiply tensor_power verify",
    "gf": "Field factor_prime_power field_string parse_field_string",
    "hasse": "INFINITE Polynomial evaluate from_linear_factors hasse_derivative "
    "hasse_monomial_bivariate root_multiplicity",
    "linalg": "Matrix anti_identity identity kron left_null_vector matmul matvec rank solve "
    "stack_prefixes",
    "oracles": "SearchReport construct_entry_oracle delta_matrix lucas_entry "
    "pascal_inverse_check refute_bound",
}


# -- the lazy package ------------------------------------------------------------------------


def test_every_public_name_is_its_home_modules_object():
    names = sorted(name for names in HOMES.values() for name in names.split())
    assert udm.__all__ == names
    for module, names in HOMES.items():
        home = import_module(f"udm.{module}")
        for name in names.split():
            assert getattr(udm, name) is getattr(home, name), name


def test_the_names_traced_benchmark_runs_wrap_are_linalgs():
    # perfbench's traced runs replace these module attributes by getattr
    # and setattr, so each must stay the linalg function it wraps.
    path = SRC.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.CROSS_LAYER
    for module, attr, _ in spans.CROSS_LAYER:
        home = import_module(f"udm.{module}")
        assert getattr(home, attr) is getattr(linalg, attr), (module, attr)


def test_dir_covers_all():
    assert set(udm.__all__) <= set(dir(udm))
    assert "__version__" in dir(udm)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        udm.nope
    assert not hasattr(udm, "poly_add")  # public in udm.hasse, not in __all__
    # A submodule still imports through the package.
    from udm import hasse

    assert hasse is sys.modules["udm.hasse"]


# -- what each process loads -----------------------------------------------------------------

HEAVY = ["udm.codec", "udm.hasse", "udm.oracles", "dataclasses", "inspect"]


def loaded_by(code: str, tmp_path) -> set[str]:
    """The modules a fresh interpreter loads while running code, beyond
    those loaded at its start."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(__import__('json').dumps(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_generate_and_verify_load_no_codec_oracle_or_dataclasses(tmp_path):
    loaded = loaded_by(
        "from udm.cli import main\n"
        "assert main(['generate', '--q', '3', '--L', '4', '--n', '3', '--out', 'f.udm']) == 0\n"
        "assert main(['verify', '--in', 'f.udm']) == 0",
        tmp_path,
    )
    assert {"udm.cli", "udm.families", "udm.gf", "udm.linalg", "udm.errors"} <= loaded
    assert not loaded & set(HEAVY)
    assert "udm.extension" not in loaded  # GF(3) is a prime field


def test_only_an_extension_field_loads_the_extension_module(tmp_path):
    loaded = loaded_by(
        "from udm.cli import main\n"
        "assert main(['generate', '--q', '4', '--L', '4', '--n', '3', '--out', 'f.udm']) == 0",
        tmp_path,
    )
    assert "udm.extension" in loaded
    assert not loaded & set(HEAVY)


@pytest.mark.parametrize(
    "q, byte_rows",
    [(3, True), (256, True), (2**16, False), (131, False), (25, True), (27, False)],
)
def test_only_a_byte_row_field_loads_the_byte_row_module(tmp_path, q, byte_rows):
    # Each field loads one row module: the byte rows or the per-element rows.
    loaded = loaded_by(
        "from udm.cli import main\n"
        f"assert main(['generate', '--q', '{q}', '--L', '3', '--n', '2', '--out', 'f.udm']) == 0",
        tmp_path,
    )
    assert ("udm.byterows" in loaded) == byte_rows
    assert ("udm.elementrows" in loaded) != byte_rows
    assert "udm.gf" in loaded


@pytest.mark.parametrize("q, planes", [(3, False), (25, False), (16, True), (256, True), (2**16, False)])
def test_only_characteristic_2_byte_rows_load_the_bit_plane_module(tmp_path, q, planes):
    # GF(3) and GF(25) take the byte rows without compiling the bit-plane
    # products; GF(2^16) takes neither.
    loaded = loaded_by(
        "from udm.cli import main\n"
        f"assert main(['generate', '--q', '{q}', '--L', '3', '--n', '2', '--out', 'f.udm']) == 0\n"
        "assert main(['verify', '--in', 'f.udm']) == 0",
        tmp_path,
    )
    assert ("udm.bitplanes" in loaded) == planes
    assert ("udm.byterows" in loaded) == (q < 2**16)


def test_codec_loads_codec_but_not_hasse(tmp_path):
    (tmp_path / "f.udm").write_text(render_family(construct(Field(3), 4, 3)))
    loaded = loaded_by(
        "from udm.cli import main\n"
        "assert main(['codec', 'roundtrip', '--in', 'f.udm', '--u', '1 2 0', "
        "'--k', '1 1 1 0']) == 0",
        tmp_path,
    )
    assert "udm.codec" in loaded
    assert not loaded & {"udm.hasse", "udm.oracles", "dataclasses", "inspect"}


def test_bare_import_loads_no_submodule(tmp_path):
    loaded = loaded_by("import udm", tmp_path)
    assert not {m for m in loaded if m.startswith("udm.")}


# -- record classes ---------------------------------------------------------------------------


def records():
    field = Field(3)
    fam = construct(field, 4, 3)
    return [
        (fam, UdmFamily(field, 4, 3, fam.matrices, alpha=2), fam._replace(alpha=None)),
        (
            ChannelOutput((1, 0), ((2,), ())),
            ChannelOutput([1, 0], [[2], []]),
            ChannelOutput((0, 1), ((), (2,))),
        ),
    ]


@pytest.mark.parametrize("record, equal, other", records())
def test_records_are_immutable(record, equal, other):
    for name in type(record).__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record, equal, other", records())
def test_records_compare_and_hash_on_their_fields(record, equal, other):
    assert record == equal and hash(record) == hash(equal)
    assert record != other
    assert record != tuple(getattr(record, name) for name in type(record).__slots__[:2])
    assert len({record, equal, other}) == 2


@pytest.mark.parametrize("record, equal, other", records())
def test_records_pickle(record, equal, other):
    again = pickle.loads(pickle.dumps(record))
    assert again == record and repr(again) == repr(record)


def test_records_repr_their_fields():
    obs = ChannelOutput((1, 0), ((2,), ()))
    assert repr(obs) == "ChannelOutput(ks=(1, 0), prefixes=((2,), ()))"
    fam = construct(Field(2), 2, 1)
    assert repr(fam) == (
        f"UdmFamily(field={fam.field!r}, L=2, n=1, matrices={fam.matrices!r}, alpha=1)"
    )


def test_records_keep_their_checks():
    fam = construct(Field(3), 4, 3)
    with pytest.raises(BadArgument):
        fam._replace(L=3)
    with pytest.raises(BadArgument):
        fam._replace(n=2)
    with pytest.raises(DimensionMismatch):
        ChannelOutput((1,), ((1, 2),))
    with pytest.raises(DimensionMismatch):
        ChannelOutput((1, 0), ((1,),))


def test_replace_resets_the_generator_memo(monkeypatch):
    fam = construct(Field(3), 4, 3)
    assert fam._generator is True
    same = fam._replace()
    assert same == fam and same is not fam and same._generator is None
    calls = []
    real = families.construct
    monkeypatch.setattr(families, "construct", lambda *a: calls.append(a) or real(*a))
    assert is_generator(same) and len(calls) == 1
    assert not is_generator(fam._replace(alpha=1))
    # A pickled family keeps the answer.
    assert pickle.loads(pickle.dumps(same))._generator is True


def test_reports_keep_their_field_names():
    assert Witness._fields == ("ks", "stacked", "rank")
    assert VerifyReport._fields == ("passed", "tuples_checked", "witness")
    assert SearchReport._fields == (
        "exists", "family", "total_candidates", "candidates_verified", "note"
    )
    assert SearchReport(True, None, 1, 0).note is None
    assert SimulationStats._fields == (
        "trials",
        "successes",
        "failures_insufficient",
        "failures_rank_deficient",
        "mean_symbols",
        "weight_histogram",
    )


def test_every_module_parses_as_python_3_10():
    # The floor in pyproject.toml is 3.10; syntax that only 3.11 accepts,
    # such as except*, would pass every other test on a newer interpreter.
    paths = sorted((SRC / "udm").glob("*.py"))
    assert len(paths) >= 9
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_every_int_byte_conversion_names_its_byte_order():
    # Python 3.10, the floor in pyproject.toml, has no default byte order
    # for int.to_bytes and int.from_bytes, and no default length for
    # int.to_bytes, while 3.11 defaults to length 1 and "big": a call
    # without them passes on 3.11 and raises TypeError on 3.10. Names
    # bound to either method, such as from_bytes = int.from_bytes, count.
    calls = 0
    for path in sorted((SRC / "udm").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        method_of = {"to_bytes": "to_bytes", "from_bytes": "from_bytes"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute):
                if node.value.attr in method_of:
                    for t in node.targets:
                        if isinstance(t, ast.Name):
                            method_of[t.id] = node.value.attr
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            method = method_of.get(name)
            if method:
                calls += 1
                keywords = {k.arg for k in node.keywords}
                explicit = len(node.args) >= 2 or "byteorder" in keywords
                assert explicit, f"{path.name}:{node.lineno} has no explicit byte order"
                if method == "to_bytes":
                    sized = node.args or "length" in keywords
                    assert sized, f"{path.name}:{node.lineno} has no explicit length"
    assert calls >= 10


def test_no_runtime_check_is_an_assert():
    # python -O strips assert statements, so a check made with one would
    # vanish; runtime checks raise a UdmError instead.
    paths = sorted((SRC / "udm").glob("*.py"))
    assert len(paths) >= 9
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/udm: {found}"


# -- the test settings -----------------------------------------------------------------------

TWO_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_runs_after():
    pass
"""


def test_a_failing_hypothesis_example_leaves_the_run_going(tmp_path):
    # Under the repository's own settings, which turn warnings into
    # errors, a failing example counts as one failure and the test after it
    # still runs; the session does not end in INTERNALERROR.
    (tmp_path / "test_two.py").write_text(TWO_TESTS, encoding="utf-8")
    config = SRC.parent / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_two.py"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
