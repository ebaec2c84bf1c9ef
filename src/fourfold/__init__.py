"""Exact homotopy invariants of simply connected closed 4-manifolds.

Single input: the second Betti number.  Outputs: rational homotopy ranks,
loop-space homology series, stable homotopy groups, growth classification,
and a brute-force graded-algebra oracle that independently verifies every
closed-form identity.

The public names, listed once in `_EXPORTS` by home module, are exported
lazily: `import fourfold` loads no submodule, and the first use of a name
imports only its home module.  The modules named in `_EXPORTS` are package
attributes too (`fourfold.oracle`).
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "DomainError",
        "FourfoldError",
        "InsufficientStemsData",
        "InternalInconsistency",
        "ParseError",
        "ResourceLimit",
        "UngradedGenerator",
        "ValidationError",
    ),
    "oracle": (
        "OracleReport",
        "koszul_leading_monomial_check",
        "quotient_dims_oracle",
    ),
    "ranks": (
        "PBW_FAIL",
        "PBW_NOT_APPLICABLE",
        "PBW_PASS",
        "GrowthReport",
        "PbwCheck",
        "RankTable",
        "growth_base",
        "growth_report",
        "homotopy_ranks",
        "pbw_identity_check",
        "pbw_series",
        "rank_polynomial_checks",
    ),
    "series": (
        "GradedDims",
        "TruncatedSeries",
        "free_comm_series",
        "quotient_series",
        "tensor_series",
    ),
    "stable": (
        "FinAbGroup",
        "StemsTable",
        "bundled_stems_table",
        "integral_low_homotopy",
        "load_stems_table",
        "stable_homotopy_finite_pi1",
        "stable_homotopy_simply_connected",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    """Import a public name's home module on first use (PEP 562)."""
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        from .errors import _echo
        raise AttributeError(f"module 'fourfold' has no attribute {_echo(name)}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
