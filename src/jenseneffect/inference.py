"""Smoothing selection and covariance machinery on a fitted lambda path.

For a fit with design Phi (basis evaluated at the fitted index values) and
family weights W, the smoother is

    S = Phi (Phi' W Phi + lambda P)^{-1} Phi' W

and GCV, effective degrees of freedom, the residual-variance estimate and
the coefficient covariances are built from the same K-sized bracket
(Phi' W Phi + lambda P), formed in `_fit_system` and never from explicit
n x n products except in `smoother_matrix` itself (diagnostic use).
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .basis import basis_matrices, penalty_matrix
from .errors import DegreesOfFreedomError, NumericalError
from .model import FAMILY_TABLE, Dataset, FitResult, ModelSpec

__all__ = [
    "LambdaPath",
    "build_path",
    "fit_weights",
    "smoother_matrix",
    "gcv",
    "sigma2_hat",
    "coef_cov",
]

JITTER = 1e-10


@dataclass(eq=False)
class LambdaPath:
    """All per-lambda fits on the grid plus GCV selection state."""

    spec: ModelSpec
    data: Dataset
    grid: tuple[float, ...]
    fits: tuple[FitResult, ...]
    gcv: np.ndarray
    selected: int
    sigma2: float | None
    weight_ref: np.ndarray
    warnings: tuple[str, ...] = ()

    @property
    def selected_fit(self) -> FitResult:
        return self.fits[self.selected]


def fit_weights(fit: FitResult) -> np.ndarray:
    """The family's IRLS weight at the fitted means (`Family.weight`)."""
    return FAMILY_TABLE[fit.family].weight(fit.mu_or_pi)


def _design(fit: FitResult) -> np.ndarray:
    return basis_matrices(fit.basis, fit.index_values, (0,))[0]


def _solve_spd(M: np.ndarray, B: np.ndarray, context: str) -> np.ndarray:
    """Solve M X = B for symmetric positive (semi)definite M, retrying with a
    small diagonal jitter when the factorization fails."""
    try:
        c, low = scipy.linalg.cho_factor(M)
        return scipy.linalg.cho_solve((c, low), B)
    except np.linalg.LinAlgError:
        _warnings.warn(
            f"near-singular system in {context}; retrying with diagonal jitter",
            RuntimeWarning,
            stacklevel=3,
        )
        scale = max(float(np.abs(np.diag(M)).max()), 1.0)
        Mj = M + JITTER * scale * np.eye(M.shape[0])
        return scipy.linalg.solve(Mj, B, assume_a="sym")


def _fit_system(fit: FitResult) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(Phi, w, Phi' W Phi, M^-1) for one fit, with M = Phi' W Phi + lambda P
    the bracket."""
    phi = _design(fit)
    w = fit_weights(fit)
    gram = phi.T @ (phi * w[:, None])
    M = gram + fit.lam * penalty_matrix(fit.basis)
    return phi, w, gram, _solve_spd(M, np.eye(M.shape[0]), "the penalized bracket")


def smoother_matrix(fit: FitResult) -> np.ndarray:
    """The n x n linear map from working response to fitted link values."""
    phi, w, _, V = _fit_system(fit)
    return phi @ (V @ (phi.T * w[None, :]))


def gcv(fit: FitResult) -> float:
    """Generalized cross-validation score n ||sqrt(W)(z - Phi d)||^2 / (n - tr S)^2
    with the IRLS working response z = g(E) + W^{-1}(y - mu); for the
    gaussian family this is the classical n RSS / (n - tr S)^2."""
    _, w, gram, V = _fit_system(fit)
    tr_s = float(np.trace(V @ gram))
    n = fit.eta.size
    if tr_s >= n:
        raise DegreesOfFreedomError(
            f"smoother trace {tr_s:.3f} is not below n={n}; GCV is undefined"
        )
    # sqrt(W)(z - Phi d) is the Pearson residual (y - mu) / sqrt(w); for the
    # gaussian family w = 1 and mu = eta, so this is the plain residual
    resid2 = (fit.response - fit.mu_or_pi) ** 2 / np.maximum(w, 1e-300)
    return float(n * np.sum(resid2) / (n - tr_s) ** 2)


def effective_df(fit: FitResult) -> tuple[float, float]:
    """(tr S, tr SS') for the fit, without forming any n x n matrix."""
    phi, w, gram, V = _fit_system(fit)
    tr_s = float(np.trace(V @ gram))
    WPhi = phi * w[:, None]
    C = WPhi.T @ WPhi  # Phi' W^2 Phi
    D = phi.T @ phi
    tr_ss = float(np.trace(V @ C @ V @ D))
    return tr_s, tr_ss


def sigma2_hat(path: LambdaPath) -> float:
    """Residual variance at the GCV-selected lambda:
    sum of squared residuals over n - 2 tr S + tr SS' - (p + q)."""
    if not FAMILY_TABLE[path.spec.family].dispersion:
        raise ValueError("sigma2_hat applies to the gaussian_log family only")
    fit = path.selected_fit
    tr_s, tr_ss = effective_df(fit)
    n = fit.eta.size
    sub = path.spec.p + path.spec.q
    df = n - 2.0 * tr_s + tr_ss - sub
    if df <= 0:
        raise DegreesOfFreedomError(
            f"residual degrees of freedom {df:.3f} <= 0 (n={n}, trS={tr_s:.3f}, "
            f"trSS'={tr_ss:.3f}, parameter adjustment {sub})"
        )
    rss = float(np.sum((fit.response - fit.eta) ** 2))
    return rss / df


def build_path(spec: ModelSpec, data: Dataset, fits: list[FitResult]) -> LambdaPath:
    """Attach GCV values, the selected index, reference weights, and (for a
    family with a dispersion) the residual variance to a list of fits. The
    path's warnings open with each distinct fit warning once, in the order
    first seen."""
    path_warnings = list(dict.fromkeys(w for f in fits for w in f.warnings))
    gcvs = np.full(len(fits), np.inf)
    for k, f in enumerate(fits):
        try:
            gcvs[k] = gcv(f)
        except DegreesOfFreedomError as exc:
            path_warnings.append(f"lambda={f.lam:.6g}: {exc}")
        if not f.converged:
            path_warnings.append(f"lambda={f.lam:.6g}: fit did not converge")
    if not np.any(np.isfinite(gcvs)):
        raise NumericalError("GCV is undefined on the whole grid")
    selected = int(np.argmin(gcvs))
    path = LambdaPath(
        spec=spec,
        data=data,
        grid=tuple(f.lam for f in fits),
        fits=tuple(fits),
        gcv=gcvs,
        selected=selected,
        sigma2=None,
        weight_ref=fit_weights(fits[selected]),
        warnings=tuple(path_warnings),
    )
    if FAMILY_TABLE[spec.family].dispersion:
        try:
            path.sigma2 = sigma2_hat(path)
        except DegreesOfFreedomError as exc:
            path.warnings = path.warnings + (f"residual variance unavailable: {exc}",)
    return path


def _check_same_frame(path: LambdaPath, i: int, j: int) -> None:
    # Reflected frames are fine: reflection reverses the coefficient axis of
    # one fit, and every sensitivity contracted here transforms covariantly,
    # so the resulting delta covariances are identical. Only genuinely
    # different knot sets (hand-assembled paths) are rejected.
    bi, bj = path.fits[i].basis, path.fits[j].basis
    if bi != bj and bi != bj.reflected():
        raise NumericalError(
            "fits at the requested lambdas use different spline bases; "
            "cross-lambda covariance needs a shared (possibly reflected) frame"
        )


def _noise_scale(path: LambdaPath) -> float:
    """The factor s in cov(W z) = s diag(w_ref): the residual variance for a
    family with a dispersion (gaussian_log, where w = 1), else 1."""
    if not FAMILY_TABLE[path.spec.family].dispersion:
        return 1.0
    if path.sigma2 is None:
        raise DegreesOfFreedomError(
            "sigma2 is unavailable on this path; gaussian covariance needs it"
        )
    return path.sigma2


def coef_cov(path: LambdaPath, i: int, j: int) -> np.ndarray:
    """The K x K covariance of (d_hat at grid[i], d_hat at grid[j]).

    Each d_hat = M^-1 Phi' W z is linear in W z, whose covariance is
    s diag(w_ref) (see `_noise_scale`; w_ref are the weights at the
    GCV-selected lambda), so the covariance is
    s M_i^-1 Phi_i' diag(w_ref) Phi_j M_j^-1 for every family. The index
    direction is treated as known. `jensen.delta_cov` contracts the same
    form in observation space; this K x K version is the diagnostic and the
    reference it is tested against.
    """
    m = len(path.fits)
    if not (0 <= i < m and 0 <= j < m):
        raise IndexError("lambda grid index out of range")
    _check_same_frame(path, i, j)
    s = _noise_scale(path)
    phi_i, _, _, Vi = _fit_system(path.fits[i])
    phi_j, _, _, Vj = _fit_system(path.fits[j])
    return s * (Vi @ (phi_i.T @ (phi_j * path.weight_ref[:, None])) @ Vj)
