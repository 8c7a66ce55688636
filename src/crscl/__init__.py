"""Overflow/underflow-safe scaling of complex vectors by a complex reciprocal."""

from .fpenv import FpEnv, Precision, fp_env, gamma
from .plan import CaseTag, ScalePlan, ScaleStep, StepKind, reciprocal_plan
from .vector import (
    Division,
    FlopCounter,
    StridedVector,
    apply_plan,
    crscl,
    naive_div_scale,
    rscl,
    scal_complex,
    scal_imaginary,
    scal_real,
)
from .lu import (
    DenseMatrix,
    LuResult,
    backward_error,
    getf2,
    getf2_naive,
    paper_issue_matrices,
)
from .oracle import (
    CaseProfile,
    Engine,
    ErrorReport,
    ProfileName,
    error_report,
    gen_cases,
    ulp_distance,
)

__all__ = [
    "FpEnv",
    "Precision",
    "fp_env",
    "gamma",
    "CaseTag",
    "ScalePlan",
    "ScaleStep",
    "StepKind",
    "reciprocal_plan",
    "Division",
    "FlopCounter",
    "StridedVector",
    "apply_plan",
    "crscl",
    "naive_div_scale",
    "rscl",
    "scal_complex",
    "scal_imaginary",
    "scal_real",
    "DenseMatrix",
    "LuResult",
    "backward_error",
    "getf2",
    "getf2_naive",
    "paper_issue_matrices",
    "CaseProfile",
    "Engine",
    "ErrorReport",
    "ProfileName",
    "error_report",
    "gen_cases",
    "ulp_distance",
]

__version__ = "0.1.0"
