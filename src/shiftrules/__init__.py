"""Shift rules for derivatives of trigonometric cost functions.

Subpackages:

* :mod:`shiftrules.spectra`     -- frequency sets from generator spectra.
* :mod:`shiftrules.trigpoly`    -- exact trigonometric-polynomial oracle.
* :mod:`shiftrules.epsr`        -- shift-rule construction and application.
* :mod:`shiftrules.variance`    -- variance objectives, shot allocation and
  node optimization.
* :mod:`shiftrules.qsim`        -- batched statevector testbed (XXZ/HVA).
* :mod:`shiftrules.experiments` -- canned reproduction experiments.
* :mod:`shiftrules.cli`         -- command-line driver.
"""

from .epsr import (
    PSRRule,
    RuleDiagnostics,
    ShiftNodes,
    SingularNodesError,
    apply_rule,
    equidistant_coefficients_closed_form,
    equidistant_nodes,
    evaluation_count,
    make_rule,
    solve_coefficients,
)
from .spectra import (
    FrequencySet,
    detect_equidistant,
    integer_frequencies,
    positive_difference_frequencies,
)
from .trigpoly import TrigPoly, random_trigpoly
from .variance import (
    OptimizeResult,
    F_unif,
    F_wgt,
    allocate,
    grad_F_unif,
    optimize_shifts_global,
    optimize_shifts_local,
    predicted_variance,
    subgrad_F_wgt,
)

__version__ = "0.1.0"

__all__ = [
    "FrequencySet",
    "TrigPoly",
    "ShiftNodes",
    "PSRRule",
    "RuleDiagnostics",
    "OptimizeResult",
    "SingularNodesError",
    "positive_difference_frequencies",
    "detect_equidistant",
    "integer_frequencies",
    "random_trigpoly",
    "solve_coefficients",
    "make_rule",
    "apply_rule",
    "evaluation_count",
    "equidistant_nodes",
    "equidistant_coefficients_closed_form",
    "F_unif",
    "F_wgt",
    "grad_F_unif",
    "subgrad_F_wgt",
    "allocate",
    "predicted_variance",
    "optimize_shifts_local",
    "optimize_shifts_global",
    "__version__",
]
