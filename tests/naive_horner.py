"""Dense Horner's rule, deliberately naive.

Every coefficient is multiplied in and added, zeros included, starting
from zero: the reference that the product form of the chain primitives
is checked against, and the residuals of the naive root finder.  Beside
it, the first-order bound on Horner's rounding error that the product
form is held to.
"""

from __future__ import annotations

import numpy as np

from dessins.maps import as_poly


def dense_eval_many(coeffs, x: np.ndarray) -> np.ndarray:
    """The polynomial with ascending ``coeffs`` at every entry of x."""
    acc = np.zeros_like(x, dtype=complex)
    for c in reversed(coeffs):
        acc *= x
        acc += c
    return acc


def rounding_error(stages, x: np.ndarray) -> np.ndarray:
    """A first-order bound on the rounding error of the composite of
    ``stages`` (outermost first, as MapExpr.polynomial_part lists them)
    evaluated at x stage by stage in product form: Horner's rule on a stage
    of degree n at u errs by at most gamma_2n sum |c_k| |u|^k, where
    gamma_k = k u / (1 - k u) with u = 2**-53 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, 5.1), the product form within
    half that in 200-bit checks, and the error in u is carried by |p'(u)|.
    The sums are taken on the coefficients of ``as_poly``."""
    error = np.zeros(x.shape)
    for prim in reversed(stages):
        k = 2 * prim.degree * 2.0**-53
        majorant = dense_eval_many(np.abs(as_poly(prim).coeffs), np.abs(x)).real
        value, slope = prim.value_and_slope(x)
        error = np.abs(slope) * error + k / (1 - k) * majorant
        x = value  # the stage's value, the next stage's argument
    return error
