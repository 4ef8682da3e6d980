"""Verification toolkit for sharp bounds on tilted-capped means.

Layers:

* :mod:`tiltbound.tilted` evaluates tilted-capped means of finite symmetric
  distributions, the symmetric bound factor as a plain function, and the
  symmetrized comparison expressions.
* :mod:`tiltbound.prover` certifies one-variable exp-polynomial inequalities
  with exact, replayable certificates.
* :mod:`tiltbound.regions` certifies the multivariate negativity claims on
  bounded boxes with outward-rounded interval arithmetic, and checks its
  exact links by expanding identities in :mod:`tiltbound.exppoly`.
* :mod:`tiltbound.extremal` searches constrained distribution families, built
  as signed atoms, to reproduce the sharpness of the bound factor.
* :mod:`tiltbound.cli` ties everything into reproducible reports.
"""

from .exppoly import ExpPoly, derivative, normalize, parse_expression
from .extremal import (
    ScanRow,
    ratio_limit_scan,
    scan_to_csv,
    sup_symmetric,
    three_point_extremal,
)
from .intervals import Interval
from .prover import (
    BatteryReport,
    Outcome,
    SignCertificate,
    SignDecision,
    decide_sign,
    replay,
    verify_battery,
)
from .regions import (
    CATALOG,
    BoxRegion,
    CaseRegion,
    CertifyResult,
    EmptyRegionError,
    certify_negative,
    eval_interval,
    verify_case_structure,
)
from .tilted import (
    BoundCheck,
    DegenerateDistributionError,
    InvalidDistributionError,
    SymmetricDiscreteDistribution,
    TiltParams,
    check_bound,
    d_expr,
    g_expr,
    symmetric_factor,
    tilted_mean,
    tilted_mean_signed,
)

__version__ = "0.1.0"

__all__ = [
    "BatteryReport",
    "BoundCheck",
    "BoxRegion",
    "CATALOG",
    "CaseRegion",
    "CertifyResult",
    "DegenerateDistributionError",
    "EmptyRegionError",
    "ExpPoly",
    "Interval",
    "InvalidDistributionError",
    "Outcome",
    "ScanRow",
    "SignCertificate",
    "SignDecision",
    "SymmetricDiscreteDistribution",
    "TiltParams",
    "certify_negative",
    "check_bound",
    "d_expr",
    "decide_sign",
    "derivative",
    "eval_interval",
    "g_expr",
    "normalize",
    "parse_expression",
    "ratio_limit_scan",
    "replay",
    "scan_to_csv",
    "sup_symmetric",
    "symmetric_factor",
    "three_point_extremal",
    "tilted_mean",
    "tilted_mean_signed",
    "verify_battery",
    "verify_case_structure",
]
