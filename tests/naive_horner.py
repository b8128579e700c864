"""Dense Horner's rule, deliberately naive.

Every coefficient is multiplied in and added, zeros included, starting
from zero: the reference that the product form of the chain primitives
is checked against, and the residuals of the naive root finder.
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
