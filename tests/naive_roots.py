"""The one-polynomial Aberth iteration, deliberately left as it was.

This is the package's ``roots`` before independent rows were solved in
one batched iteration, kept verbatim so that the batched solve can be
checked against it bit for bit, errors included.  Its residuals are taken
by dense Horner, which the package's sparse Horner equalled bit for bit
up to the sign of a zero.  Beside it, ``dense_aberth`` is the batched
iteration as it was while its Horner loops still added every zero
coefficient.
"""

from __future__ import annotations

from typing import Sequence

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
    z = radius * np.exp(1j * (2 * np.pi * np.arange(n) / n + ANGULAR_OFFSET))

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


def dense_aberth(poly: ComplexPoly, heads: Sequence[complex]) -> list[tuple[complex, ...]]:
    """polynomials._aberth with dense Horner in the iteration: every
    coefficient, zeros included, multiplied in and added from zero.  The
    residuals after it are taken as the package takes them."""
    n = poly.degree
    if n < 1:
        raise ValueError("need degree >= 1")
    lead = poly.coeffs[-1]
    if n == 1 or not heads:
        return [(-h / lead,) for h in heads]

    tail = [c / lead for c in poly.coeffs[1:]]
    monic = np.array([[h / lead] + tail for h in heads], dtype=complex)
    radius = np.array([1.0 + max(abs(c) for c in row[:-1]) for row in monic])
    z = radius[:, None] * np.exp(1j * (2 * np.pi * np.arange(n) / n + ANGULAR_OFFSET))

    deriv = np.arange(1, n + 1) * monic[0, 1:]
    diagonal = np.arange(n)
    active = np.arange(len(heads))
    converged = np.zeros(len(heads), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(MAX_ITERATIONS):
            za = z[active]
            diff = za[:, :, None] - za[:, None, :]
            diff[:, diagonal, diagonal] = np.inf
            repulse = np.sum(1.0 / diff, axis=2)
            pv = np.zeros_like(za)
            for c in monic[active, ::-1].T:
                pv = pv * za + c[:, None]
            dv = np.zeros_like(za)
            for c in deriv[::-1]:
                dv = dv * za + c
            newton = np.where(dv != 0, pv / dv, 0.25 + 0.25j)
            w = newton / (1.0 - newton * repulse)
            w = np.where(np.isfinite(w), w, 0.0)
            za = za - w
            z[active] = za
            done = np.all(np.abs(w) <= ITERATION_TOL * np.maximum(1.0, np.abs(za)), axis=1)
            converged[active[done]] = True
            active = active[~done]
            if not active.size:
                break

        acc = np.full(z.shape, lead, dtype=complex)
        for c in reversed(poly.coeffs[1:-1]):
            acc *= z
            if c:
                acc += c
        acc *= z
        acc += np.array(heads, dtype=complex)[:, None]
        residuals = np.abs(acc / lead)
        scale = [max(1.0, max(abs(c) for c in row)) for row in monic]
        diff = np.abs(z[:, :, None] - z[:, None, :])
        diff[:, diagonal, diagonal] = np.inf
        separation = diff.min(axis=(1, 2))
    out = []
    for k, row in enumerate(z):
        if not np.all(residuals[k] <= RESIDUAL_TOL * scale[k]):  # NaN fails too
            if not converged[k]:
                raise NonConvergedError(f"no convergence in {MAX_ITERATIONS} iterations")
            raise NonConvergedError(f"residual {residuals[k].max():.3e} above tolerance")
        if not converged[k]:
            raise ClusteredRootsError(
                f"iteration stalled at a root cluster, separation {separation[k]:.3e}")
        if separation[k] < CLUSTER_TOL:
            raise ClusteredRootsError(f"root separation {separation[k]:.3e}")
        out.append(tuple(sorted((complex(v) for v in row), key=lambda v: (v.real, v.imag))))
    return out
