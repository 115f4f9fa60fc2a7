"""Universally decodable matrices over finite fields.

Construction, exhaustive verification, structure-preserving transforms,
Hasse-derivative cross-checks, and an encoder/decoder for parallel
prefix-erasure channels.

Importing the package loads none of its modules: each name in __all__ is
imported from its home module on first use (PEP 562), so a `udm` process
compiles and runs only the modules it needs.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "codec": ("ChannelOutput", "SimulationStats", "decode", "encode", "erase", "simulate"),
    "families": (
        "UdmFamily",
        "VerifyReport",
        "Witness",
        "construct",
        "count_exact_tuples",
        "enumerate_exact_tuples",
        "enumerate_superset_tuples",
        "left_transform",
        "permute",
        "prefix",
        "reduce",
        "reverse_pairs",
        "right_multiply",
        "tensor_power",
        "verify",
    ),
    "gf": ("Field", "factor_prime_power", "field_string", "parse_field_string"),
    "hasse": (
        "INFINITE",
        "Polynomial",
        "evaluate",
        "from_linear_factors",
        "hasse_derivative",
        "hasse_monomial_bivariate",
        "root_multiplicity",
    ),
    "linalg": (
        "Matrix",
        "anti_identity",
        "identity",
        "kron",
        "left_null_vector",
        "matmul",
        "matvec",
        "rank",
        "solve",
        "stack_prefixes",
    ),
    "oracles": (
        "SearchReport",
        "construct_entry_oracle",
        "delta_matrix",
        "lucas_entry",
        "pascal_inverse_check",
        "refute_bound",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
