"""Correlation functions of Wigner characteristic polynomials.

Three mutually checking computational routes:

* generating-function contour extraction (``egf_engine``),
* exact small-N moment expansion over permutation pairs (``exact_oracle``),
* Monte Carlo simulation of the matrix ensembles (``wigner_mc``),

together with the limit kernels they converge to under edge and bulk
scaling (``kernels``) and the special functions feeding all of the above
(``special_fn``).
"""

__version__ = "0.1.0"

from .errors import (
    CancellationError,
    DegenerateDenominatorError,
    DomainError,
    NumericalConsistencyError,
)
from .numeric_core import (
    ScaledReal,
    scaled_add,
    scaled_div,
    scaled_from_real,
    scaled_mul,
    scaled_to_real_checked,
)

__all__ = [
    "CancellationError",
    "DegenerateDenominatorError",
    "DomainError",
    "NumericalConsistencyError",
    "ScaledReal",
    "scaled_add",
    "scaled_div",
    "scaled_from_real",
    "scaled_mul",
    "scaled_to_real_checked",
    "__version__",
]
