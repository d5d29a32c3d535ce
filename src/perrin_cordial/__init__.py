"""Perrin cordial labelings: generators, constructors, verifier, oracle, claims sweep.

Submodules load on first use (PEP 562): ``import perrin_cordial`` imports
none of them, and the first use of a public name imports the submodule that
defines it and binds all of that submodule's names here, so later lookups
are plain attribute hits.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

# each submodule and the public names it defines
_EXPORTS = {
    "claims": "Claim ClaimCheckRow builtin_claims claim_for default_grid rows_to_csv rows_to_markdown"
    " sweep sweep_all",
    "construct": "CONSTRUCTORS Constructed Infeasible SchemeExhaustedError construct",
    "graph_io": "export_dot read_graph read_labeling write_graph write_labeling",
    "graphs": "FAMILY_NAMES FamilyParameterError FamilySpec FormatError Graph generate",
    "labeling": "EdgeTally InvalidLabelingError LabelSupplyError ParityPattern PatternLengthError PerrinLabeling"
    " feasible_even_counts is_cordial is_valid realize tally to_parity",
    "oracle": "GraphTooLargeError SearchConfig Verdict decide_exhaustive decide_parity",
    "perrin": "Parity even_count even_indices odd_indices perrin_parity perrin_value",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted({*_EXPORTS, *_HOME})


def __getattr__(name: str):
    if name in _HOME:
        module = _import_module(f"{__name__}.{_HOME[name]}")
        for export in _EXPORTS[_HOME[name]].split():
            globals()[export] = getattr(module, export)
        return globals()[name]
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(_ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # the import system binds each submodule on the package when it first
        # loads; the function construct keeps its name over the submodule
        if not (isinstance(value, _ModuleType) and name in _HOME):
            super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
