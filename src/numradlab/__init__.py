"""numradlab: numerical radius and operator norm inequality certification.

Computes numerical radii, operator norms, matrix functions, and operator
means on dense complex matrices, and certifies a catalog of operator
inequalities over explicit examples and seeded random ensembles.

Importing the package loads none of its submodules. A public name such as
``numradlab.numerical_radius`` is looked up in its submodule on each access
(PEP 562), so ``from numradlab import numerical_radius`` loads ``radius``,
``linalg`` and ``errors`` only, and a rebinding of the submodule's name is
seen through the package at once.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "catalog": "CheckInstance CheckResult InequalityId Status evaluate",
    "ensembles": "EnsembleSpec sample",
    "errors": (
        "BudgetExhausted DimensionMismatch DomainViolation InvalidBounds MatrixFormatError "
        "NotHermitian NotInvertible NotPositive NotSuperquadratic NumradError UnsupportedParameter"
    ),
    "functions": (
        "ScalarFunction SchwarzPair jensen_gap_mu power schwarz_power_pair superquadratic_defect"
    ),
    "linalg": "adjoint apply_scalar_function loewner_leq operator_norm",
    "means": "f_connection gamma_factor weighted_geometric",
    "radius": "RadiusResult numerical_radius",
    "report": "IneqRecord SuiteReport",
    "suite": "draw_instance run_suite",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ takes the import statement's path, which `-X importtime` reports
    return getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)


def __dir__():
    return sorted({*globals(), *__all__})
