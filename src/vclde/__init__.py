"""Green's functions and solutions of linear difference equations with
variable coefficients, computed through banded Hessenbergian determinants
and cross-verified against independent expansions.

Importing the package loads nothing else: each public name below, and each
submodule, is looked up on first access (PEP 562), so a program loads only
the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# The names README's "Library" list documents; every other name is
# reached through its submodule.
_EXPORTS = {
    name: module
    for module, names in {
        "scalar": "BackendMismatchError",
        "coefficients": "CoefficientModel DomainError EnumLimitError",
        "lde": """GREEN_METHODS MissingForcingError SOLVE_METHODS SolutionProblem
            casorati evaluate_green evaluate_solution general_solution
            general_solution_kittappa green xi""",
    }.items()
    for name in names.split()
}
_MODULES = ("scalar", "hessenberg", "leibnizian", "nested_sum", "coefficients", "lde",
            "oracles")

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
