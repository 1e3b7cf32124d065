"""Difference tables and second-order zero differential spectra of power
maps over GF(p^n), with entrywise closed-form predictors, equation
solvers, and a survey of published uniformities."""

from .gf import (
    DESK_SCALE_BOUND,
    Field,
    FieldElement,
    SubfieldMap,
    canonical_field,
    find_irreducible,
    irreducibility_oracle,
    is_irreducible,
    is_prime,
)
from .spectra import (
    LookupFunction,
    PowerFunction,
    SpectrumSummary,
    ddt_entry,
    differential_uniformity,
    fbct_entry,
    fbct_property_suite,
    full_table,
    sozd_entry,
    sozd_spectrum,
    sozd_uniformity,
)
from .equations import (
    QuadraticChar2,
    QuarticEq,
    TrinomialEq,
    brute_factor_shape,
    brute_roots,
    classify_cubic,
    classify_quartic,
    solve_quadratic_char2,
    solve_trinomial,
    solve_trinomial_linear,
)
from .closedform import (
    PredictionOutcome,
    VerificationReport,
    bound_x7_oddp,
    predict_x2m1p3,
    predict_x5_oddp,
    predict_x7_char2,
    predict_x7_p3,
    theorem_ids,
    verify_theorem,
)
from .survey import CATALOG, SurveyResult, SurveyRow, run_survey

__version__ = "0.1.0"
