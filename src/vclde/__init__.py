"""Green's functions and solutions of linear difference equations with
variable coefficients, computed through banded Hessenbergian determinants
and cross-verified against independent expansions.

Importing the package loads nothing else: each public name below is looked
up in its submodule on first access (PEP 562), so a program loads only the
modules it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in {
        "scalar": """BACKENDS FLOAT64 RATIONAL SYMBOLIC BackendMismatchError Scalar
            TermSum backend_of format_rational h_sym is_zero one parse_rational
            phi_sym scalar_from_json scalar_to_json scalars_close
            term_sum_from_json term_sum_to_json v_sym y_sym zero""",
        "hessenberg": """BandedHessenbergMatrix HessenbergMatrix StructureError
            det_leibniz_oracle det_recurrence""",
        "leibnizian": """SepTerm det_leibnizian enumerate_seps mask_from_index
            sep_columns""",
        "nested_sum": "SuperdiagonalError det_nested_sum",
        "coefficients": """CoefficientModel DEFAULT_ENUM_LIMIT DomainError
            EnumLimitError build_phi_matrix""",
        "lde": """CasoratiMatrix GREEN_METHODS MissingForcingError SOLVE_METHODS
            SolutionProblem casorati companion_product evaluate_green
            evaluate_solution general_solution general_solution_kittappa green
            homogeneous_solution particular_solution particular_solution_det
            principal_chain recursion_oracle xi xi_via_green""",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _EXPORTS.values():
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
