"""Integral transforms over hemispheres, paraboloids, and affine hyperplanes.

The package provides:

* lazily-evaluated scalar fields and quadrature controls (:mod:`hemiradon.fields`,
  :mod:`hemiradon.quadrature`),
* the three geometric averaging transforms plus the classical hyperplane
  transform (:mod:`hemiradon.transforms`),
* the coordinate-change operators that intertwine them, with chain execution
  and numeric identity verification (:mod:`hemiradon.operators`),
* norm bookkeeping for the exactness factors and the scaling analysis that
  singles out the admissible exponents (:mod:`hemiradon.norms`),
* backprojection and end-to-end reconstruction, which takes the power
  (-Delta)^((n-1)/2) inside the backprojection for every n, and the
  Laplacian stencil and hypersingular integral on a given field
  (:mod:`hemiradon.inversion`).
"""

from .errors import (
    ChainError,
    ConfigError,
    DomainError,
    HemiradonError,
    QuadratureError,
)
from .fields import Point, ScalarField, SphereProfile, make_test_field
from .quadrature import QuadratureSpec
from .transforms import (
    RadonPlane,
    classical_radon,
    parabolic_field,
    parabolic_transform,
    slope_intercept_relation,
    sonar_profile,
    sonar_transform,
    transversal_field,
    transversal_transform,
)
from .operators import (
    CANONICAL_IDENTITIES,
    IdentityReport,
    OperatorId,
    apply,
    apply_chain,
    scaling_exponents,
    verify_identity,
)
from .norms import lp_norm, mixed_norm, scaling_scan
from .inversion import (
    ReconstructionConfig,
    backprojection,
    backprojection_field,
    hypersingular_apply,
    hypersingular_constant,
    invert,
    laplacian_power,
    reconstruct,
    sqrt_laplacian_constant,
)

__version__ = "0.1.0"

__all__ = [
    "HemiradonError",
    "DomainError",
    "QuadratureError",
    "ChainError",
    "ConfigError",
    "Point",
    "ScalarField",
    "SphereProfile",
    "make_test_field",
    "QuadratureSpec",
    "sonar_transform",
    "sonar_profile",
    "parabolic_transform",
    "parabolic_field",
    "transversal_transform",
    "transversal_field",
    "classical_radon",
    "RadonPlane",
    "slope_intercept_relation",
    "OperatorId",
    "apply",
    "apply_chain",
    "verify_identity",
    "IdentityReport",
    "CANONICAL_IDENTITIES",
    "scaling_exponents",
    "lp_norm",
    "mixed_norm",
    "scaling_scan",
    "backprojection",
    "backprojection_field",
    "hypersingular_apply",
    "hypersingular_constant",
    "sqrt_laplacian_constant",
    "laplacian_power",
    "invert",
    "reconstruct",
    "ReconstructionConfig",
    "__version__",
]
