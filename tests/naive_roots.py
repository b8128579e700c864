"""The one-polynomial Aberth iteration, deliberately left as it was.

This is the package's ``roots`` before independent rows were solved in
one batched iteration, kept verbatim so that the batched solve can be
checked against it bit for bit, errors included.  Its residuals are taken
by dense Horner, which the package's sparse Horner equalled bit for bit
up to the sign of a zero.
"""

from __future__ import annotations

import numpy as np
from naive_horner import dense_eval_many

from dessins.polynomials import (
    ANGULAR_OFFSET,
    CLUSTER_TOL,
    ITERATION_TOL,
    MAX_ITERATIONS,
    RESIDUAL_TOL,
    ClusteredRootsError,
    ComplexPoly,
    NonConvergedError,
)


def naive_roots(
    poly: ComplexPoly,
    tol: float = ITERATION_TOL,
    residual_tol: float = RESIDUAL_TOL,
    max_iterations: int = MAX_ITERATIONS,
    angular_offset: float = ANGULAR_OFFSET,
) -> tuple[complex, ...]:
    """All complex roots, sorted by (re, im), or the error of ``roots``."""
    n = poly.degree
    if n < 1:
        raise ValueError("need degree >= 1")
    lead = poly.coeffs[-1]
    if n == 1:
        return (-poly.coeffs[0] / lead,)

    monic = np.array([c / lead for c in poly.coeffs], dtype=complex)
    radius = 1.0 + max(abs(c) for c in monic[:-1])
    z = radius * np.exp(1j * (2 * np.pi * np.arange(n) / n + angular_offset))

    deriv = np.arange(1, n + 1) * monic[1:]
    converged = False
    for _ in range(max_iterations):
        pv = np.zeros_like(z)
        for c in monic[::-1]:
            pv = pv * z + c
        dv = np.zeros_like(z)
        for c in deriv[::-1]:
            dv = dv * z + c
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.where(dv != 0, pv / dv, 0.25 + 0.25j)
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            repulse = np.sum(1.0 / diff, axis=1)
            w = newton / (1.0 - newton * repulse)
        w = np.where(np.isfinite(w), w, 0.0)
        z = z - w
        if np.all(np.abs(w) <= tol * np.maximum(1.0, np.abs(z))):
            converged = True
            break

    scale = max(1.0, max(abs(c) for c in monic))
    residuals = np.abs(dense_eval_many(poly.coeffs, z) / lead)
    if not np.all(residuals <= residual_tol * scale):  # NaN fails too
        if not converged:
            raise NonConvergedError(f"no convergence in {max_iterations} iterations")
        raise NonConvergedError(f"residual {residuals.max():.3e} above tolerance")
    diff = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(diff, np.inf)
    if not converged:
        raise ClusteredRootsError(
            f"iteration stalled at a root cluster, separation {diff.min():.3e}")
    if diff.min() < CLUSTER_TOL:
        raise ClusteredRootsError(f"root separation {diff.min():.3e}")
    return tuple(sorted((complex(v) for v in z), key=lambda v: (v.real, v.imag)))
