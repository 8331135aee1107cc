"""Exact Kazhdan-Lusztig computations for braid and cone-graph matroids:
coefficient tables, symmetric-group-equivariant refinements, the E1-page
dimension ledger, FS-module structure checks, and generating-function
asymptotics, all in exact rational arithmetic.

Submodules load on first use: `import braidkl` imports none of them, and a
name such as `braidkl.eqkl_braid` or `braidkl.eqkl` imports its submodule
when it is first read (PEP 562).  A CLI command therefore loads only the
modules it runs."""

from importlib import import_module as _import_module

# The public names, by the submodule that defines them.
_EXPORTS = {
    "combinat": (
        "Partition",
        "bell",
        "class_size",
        "double_factorial_odd",
        "mn_character",
        "partitions",
        "set_partition_count_by_type",
        "stirling1_unsigned",
        "stirling2",
    ),
    "eqcore": (),
    "eqkl": (
        "ClassFn",
        "GradedClassFn",
        "SymFn",
        "ch",
        "eq_char_poly",
        "eqkl_braid",
        "eqkl_braid_bruteforce",
        "os_character",
        "row_bound_check",
        "specht_decompose",
    ),
    "fsmod": (
        "H1Vector",
        "Surjection",
        "compose",
        "enumerate_surjections",
        "growth_diagnostic",
        "h1_generation_check",
        "h1_pullback",
        "hom_fs_count",
    ),
    "graphmat": (
        "Graph",
        "canonical_key",
        "char_poly",
        "cone_extend",
        "conf_betti",
    ),
    "intpoly": (),
    "klcore": (
        "c1_count",
        "conjecture_top_check",
        "d_coeff",
        "d_coeff_graph",
        "kl_braid",
        "kl_graphic",
    ),
    "polyseries": (
        "InsufficientDataError",
        "Poly",
        "RatFn",
        "SeqTable",
        "fit_rational",
        "series",
    ),
    "specseq": (
        "b_dim",
        "comp_dim",
        "euler_identity",
        "euler_identity_graph",
        "ratio_diagnostic",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

# eqcore, the integer kernel under eqkl, loads as `braidkl.eqcore` but stays
# out of `from braidkl import *`, whose names eqkl already covers.
__all__ = sorted({*_EXPORTS, *_OWNER} - {"eqcore"})


def __getattr__(name):
    if name in _OWNER:
        value = getattr(_import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _EXPORTS:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
