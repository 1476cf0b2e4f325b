"""Damped Newton minimization for smooth convex objectives."""

from __future__ import annotations

import numpy as np


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, grad_norm: float | None = None):
        super().__init__(message)
        self.grad_norm = grad_norm


def damped_newton(fun, x0, tol: float = 1e-9, max_iter: int = 200):
    """Minimize a smooth convex function with backtracking line search.

    `fun(x)` must return (value, gradient, hessian). Stops when the gradient
    sup-norm drops below `tol`; raises ConvergenceError (carrying the last
    gradient norm) otherwise.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    value, grad, hess = fun(x)
    gnorm = float(np.max(np.abs(grad))) if grad.size else 0.0
    for it in range(max_iter):
        if gnorm <= tol:
            return x, {"iterations": it, "grad_norm": gnorm, "value": float(value)}
        step = _newton_direction(hess, grad)
        slope = float(grad @ step)
        if slope >= 0.0:  # hessian too ill-conditioned; fall back to gradient
            step = -grad
            slope = -float(grad @ grad)
        t = 1.0
        for _ in range(60):
            cand = x + t * step
            cand_value, cand_grad, cand_hess = fun(cand)
            if np.isfinite(cand_value) and cand_value <= value + 1e-4 * t * slope:
                break
            # near the optimum the value plateaus at float resolution; accept
            # steps that contract the gradient without materially raising it
            cand_gnorm = float(np.max(np.abs(cand_grad))) if np.isfinite(cand_value) else np.inf
            if cand_gnorm <= 0.5 * gnorm and cand_value <= value + 1e-10 * (1.0 + abs(value)):
                break
            t *= 0.5
        else:
            raise ConvergenceError(
                f"line search failed (grad norm {gnorm:.3e})", grad_norm=gnorm
            )
        x, value, grad, hess = cand, cand_value, cand_grad, cand_hess
        gnorm = float(np.max(np.abs(grad)))
    raise ConvergenceError(
        f"no convergence in {max_iter} iterations (grad norm {gnorm:.3e})",
        grad_norm=gnorm,
    )


def _newton_direction(hess, grad):
    """-hess^-1 grad, with a growing ridge until hess + ridge I is positive definite.

    The Cholesky factor only tests definiteness; one general solve then makes
    the step. Returns -grad when no ridge helps.
    """
    k = grad.size
    ridge = 0.0
    eye = np.eye(k)
    for _ in range(6):
        ridged = hess + ridge * eye
        try:
            np.linalg.cholesky(ridged)
            return -np.linalg.solve(ridged, grad)
        except np.linalg.LinAlgError:
            ridge = max(ridge * 100.0, 1e-10)
    return -grad
