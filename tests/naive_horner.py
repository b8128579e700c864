"""Dense Horner's rule, deliberately naive.

Every coefficient is multiplied in and added, zeros included, starting
from zero: the package's ComplexPoly.eval_many before zero coefficients
were skipped, kept so that the sparse evaluation can be checked against
it bit for bit.
"""

from __future__ import annotations

import numpy as np


def dense_eval_many(coeffs, x: np.ndarray) -> np.ndarray:
    """The polynomial with ascending ``coeffs`` at every entry of x."""
    acc = np.zeros_like(x, dtype=complex)
    for c in reversed(coeffs):
        acc *= x
        acc += c
    return acc
