"""Penalized single-index models: specification, objectives, gradients, fitting.

A model is E[Y*|X,A] = h(eta) with eta built from an index E through a spline
link g(s) = phi(s) @ d:

    inside_index:   E = X beta + A gamma,   eta = g(E)
    outside_index:  E = X beta,             eta = A gamma + g(E)

Families: gaussian_log (least squares on Y* = log Y), poisson (log link),
bernoulli_logit. All objectives carry the curvature penalty lambda * d'Pd.
The index coefficients are constrained to the unit sphere with beta[0] > 0;
during optimization the constraint is imposed by renormalizing inside the
function evaluation, and the public gradient is projected onto the sphere
tangent accordingly.
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.optimize import minimize
from scipy.special import expit

from .basis import (
    SplineBasis,
    basis_for_index,
    basis_matrices,
    greville_abscissae,
    penalty,
    penalty_eigh,
)
from .errors import DegenerateIndexError, NumericalOverflowError

__all__ = [
    "FAMILIES",
    "FAMILY_TABLE",
    "Family",
    "ModelSpec",
    "Dataset",
    "Coefficients",
    "FitResult",
    "normalize_index",
    "objective",
    "gradient",
    "fit",
    "fit_path",
]

PLACEMENTS = ("inside_index", "outside_index")

# exp overflows just above 709; freeze the exponential there so the fitter
# sees a finite surface even when a line-search step shoots eta out of range
ETA_CLIP = 700.0


@dataclass(frozen=True)
class Family:
    """What the fitter, the smoother and the Jensen test know of a family."""

    loss: Callable  # (eta, y) -> (unhalved loss summed over y, its eta-derivative)
    curvature: Callable  # eta -> the loss's second eta-derivative
    mean: Callable  # eta -> mu, the inverse link
    weight: Callable  # mu -> the IRLS weight
    h: Callable  # g -> the Jensen transform of a link value
    h_prime: Callable  # g -> its slope
    direction: str  # the default sign test
    paired: bool  # delta pairs each observation with its environment-averaged twin
    dispersion: bool  # carries a residual variance, sigma2
    response: Callable  # y -> what the link models
    invalid: Callable  # y -> why the family cannot take y, or None
    eta_cap: float = np.inf  # the loss is the family's own only below this eta


def _gaussian_loss(eta, y):
    r = y - eta
    return float(r @ r), -2.0 * r


def _capped_exp(eta):
    # one-sided: the fitter's mean and curvature keep the lower tail exact
    return np.exp(np.minimum(eta, ETA_CLIP))


def _poisson_loss(eta, y):
    ex = _capped_exp(eta)
    # beyond the cap the capped exponential is flat: its part of the score is 0
    return float(np.sum(ex - y * eta)), np.where(eta < ETA_CLIP, ex, 0.0) - y


def _clipped_exp(g):
    return np.exp(np.clip(g, -ETA_CLIP, ETA_CLIP))


def _exp_transform(g):
    if np.any(np.abs(g) > ETA_CLIP):
        msg = f"link values beyond +-{ETA_CLIP:g} clipped before exponentiation"
        _warnings.warn(msg, RuntimeWarning, stacklevel=4)  # delta_hat's caller
    return _clipped_exp(g)


def _bernoulli_variance(pi):
    return pi * (1.0 - pi)


def _gaussian_invalid(y):
    if np.any(y <= 0):
        bad = int(np.argmax(y <= 0))
        return f"gaussian_log needs strictly positive responses; observation {bad} has y={y[bad]}"
    return None


# direction: the exp link's concavity pulls delta negative, so the interesting
# alternative is delta < 0; the logistic analogue is convex
FAMILY_TABLE = {
    "gaussian_log": Family(
        loss=_gaussian_loss, curvature=lambda eta: np.full(eta.size, 2.0),
        mean=lambda eta: eta.copy(), weight=np.ones_like,
        h=_exp_transform, h_prime=_clipped_exp,
        direction="test_negative", paired=False, dispersion=True,
        response=np.log, invalid=_gaussian_invalid,
    ),
    "poisson": Family(
        loss=_poisson_loss, curvature=_capped_exp,
        mean=_capped_exp, weight=lambda mu: mu.copy(),
        h=_exp_transform, h_prime=_clipped_exp,
        direction="test_negative", paired=False, dispersion=False,
        response=lambda y: y,
        invalid=lambda y: "poisson responses must be nonnegative" if np.any(y < 0) else None,
        eta_cap=ETA_CLIP,
    ),
    "bernoulli_logit": Family(
        loss=lambda eta, y: (float(np.sum(np.logaddexp(0.0, eta) - y * eta)), expit(eta) - y),
        curvature=lambda eta: _bernoulli_variance(expit(eta)),
        mean=expit, weight=_bernoulli_variance,
        h=expit, h_prime=lambda g: _bernoulli_variance(expit(g)),
        direction="test_positive", paired=True, dispersion=False,
        response=lambda y: y,
        invalid=lambda y: None if np.all(np.isin(y, (0.0, 1.0))) else "bernoulli_logit responses must be 0/1",
    ),
}
FAMILIES = tuple(FAMILY_TABLE)

GRAD_TOL = 1e-6
OBJ_REL_TOL = 1e-10
MAX_RESTARTS = 2


# The floor matters more than it looks. Below ~1e-1 the penalty is negligible
# against a count or binary deviance, so those grid cells waste resolution on
# fits identical to the unpenalized one. For low-noise gaussian responses the
# same cells are worse than wasted: near-unpenalized smoothing of a curved
# link carries a deterministic bias that can dwarf the tiny standard errors
# there and spuriously fire the path test. Callers who want a softer floor can
# always pass their own grid.
def default_lambda_grid(lo: float = 1e-1, hi: float = 1e6, count: int = 20) -> tuple[float, ...]:
    return tuple(float(v) for v in np.geomspace(lo, hi, count))


@dataclass(frozen=True)
class ModelSpec:
    """What to fit: family, covariate counts, extra-covariate placement,
    link basis, and the smoothing grid."""

    family: str
    p: int
    q: int = 0
    extra_placement: str = "inside_index"
    basis: SplineBasis | None = None
    lambda_grid: tuple[float, ...] = field(default_factory=default_lambda_grid)
    # used only when basis is None and one is built from the initial index
    basis_dim: int = 25
    basis_degree: int = 5

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.extra_placement not in PLACEMENTS:
            raise ValueError(f"unknown placement {self.extra_placement!r}; expected one of {PLACEMENTS}")
        if self.p < 1:
            raise ValueError("need at least one environmental covariate (p >= 1)")
        if self.q < 0:
            raise ValueError("q must be nonnegative")
        grid = np.asarray(self.lambda_grid, dtype=float)
        if grid.size == 0 or np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
            raise ValueError("lambda_grid must be positive and strictly increasing")
        if self.basis_degree < 3:
            raise ValueError("basis degree must be at least 3 for a curvature penalty")
        if self.basis_dim <= self.basis_degree + 1:
            raise ValueError("basis dimension must exceed degree + 1")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Raw responses plus covariate blocks. X columns drive the index; A
    columns are the extra covariates (may be absent)."""

    y: np.ndarray
    X: np.ndarray
    A: np.ndarray | None = None

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=float)
        X = np.asarray(self.X, dtype=float)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        if y.ndim != 1 or X.ndim != 2 or X.shape[0] != y.size:
            raise ValueError("y must be a vector and X a matrix with matching row count")
        if self.A is not None:
            A = np.asarray(self.A, dtype=float)
            object.__setattr__(self, "A", A)
            if A.ndim != 2 or A.shape[0] != y.size:
                raise ValueError("A must be a matrix with one row per observation")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(X))):
            raise ValueError("responses and covariates must be finite")
        if self.A is not None and not np.all(np.isfinite(self.A)):
            raise ValueError("extra covariates must be finite")

    @property
    def n(self) -> int:
        return self.y.size


@dataclass(frozen=True, eq=False)
class Coefficients:
    """(beta, gamma, d): index direction, extra-covariate effects, and spline
    coefficients of the link."""

    beta: np.ndarray
    gamma: np.ndarray
    d: np.ndarray

    def __post_init__(self) -> None:
        for name in ("beta", "gamma", "d"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))


@dataclass(frozen=True, eq=False)
class FitResult:
    """One converged (or honestly flagged) fit at a single lambda.

    `basis` is the frame the stored d lives in; it equals the fitting basis
    unless the optimizer landed on a negative leading index coefficient, in
    which case the whole frame is reflected to restore beta[0] > 0 without
    changing any fitted value. `raw_coeffs` keeps the optimizer's own frame
    for warm starts along a path.
    """

    lam: float
    family: str
    coeffs: Coefficients
    index_values: np.ndarray
    eta: np.ndarray
    mu_or_pi: np.ndarray
    response: np.ndarray
    objective: float
    converged: bool
    n_restarts_used: int
    basis: SplineBasis
    warnings: tuple[str, ...] = ()
    raw_coeffs: Coefficients | None = None


def normalize_index(beta_raw) -> np.ndarray:
    """Project onto the unit sphere with the leading nonzero entry positive."""
    beta_raw = np.asarray(beta_raw, dtype=float)
    if beta_raw.ndim != 1 or beta_raw.size == 0:
        raise DegenerateIndexError("index coefficients must form a nonempty vector")
    if not np.all(np.isfinite(beta_raw)):
        raise DegenerateIndexError("index coefficients must be finite")
    scale = np.max(np.abs(beta_raw))
    if scale == 0.0:
        raise DegenerateIndexError("index coefficients are identically zero")
    # prescale so the squared entries cannot underflow
    beta = beta_raw / scale
    beta = beta / np.linalg.norm(beta)
    lead = beta[np.nonzero(beta)[0][0]]
    return -beta if lead < 0 else beta


def _validate(spec: ModelSpec, data: Dataset) -> None:
    if data.X.shape[1] != spec.p:
        raise ValueError(f"X has {data.X.shape[1]} columns but spec.p = {spec.p}")
    q = 0 if data.A is None else data.A.shape[1]
    if q != spec.q:
        raise ValueError(f"A has {q} columns but spec.q = {spec.q}")
    problem = FAMILY_TABLE[spec.family].invalid(data.y)
    if problem is not None:
        raise ValueError(problem)


def _unpack(spec: ModelSpec, theta: np.ndarray, K: int):
    d = theta[:K]
    beta_raw = theta[K : K + spec.p]
    gamma = theta[K + spec.p :]
    return d, beta_raw, gamma


class _Evaluator:
    """Fused objective/gradient for one (spec, data, basis, lambda) tuple.

    The public parameter layout ("d-coordinates") is [d (K), beta_raw (p),
    gamma (q)]; `to_eig`/`from_eig` map it to and from the "c-coordinates"
    that every evaluation runs in, where the spline block is rotated into
    the penalty eigenbasis (d = U c). There the penalty term is
    lambda * sum(Lam_j c_j^2) with an exact diagonal gradient; in raw
    coordinates 2*lambda*P@d carries cancellation noise up to ~1e-3 for
    near-affine d at the top of the default grid, which stalls any line
    search long before the gradient tolerance.

    beta is renormalized inside the evaluation; the returned beta gradient
    is the tangent-projected derivative of the renormalized objective, so
    finite differences of the objective agree with the gradient
    coordinatewise.
    """

    def __init__(self, spec: ModelSpec, data: Dataset, basis: SplineBasis, lam: float):
        self.spec = spec
        self.data = data
        self.basis = basis
        self.lam = lam
        self.Lam, self.U = penalty_eigh(basis)
        self.family = FAMILY_TABLE[spec.family]
        self.yresp = self.family.response(data.y)
        self.inside = spec.extra_placement == "inside_index" and spec.q > 0
        self.outside = spec.extra_placement == "outside_index" and spec.q > 0
        # (value, gradient) of value_and_grad_eig per point, keyed by its bytes
        self._values: dict[bytes, tuple[float, np.ndarray]] = {}
        # the index part of the last point evaluated and (u, E, phi0, phi1) there
        self._index_key: bytes | None = None
        self._index_state: tuple[np.ndarray, ...] | None = None

    def at_index(self, beta_raw: np.ndarray, gamma: np.ndarray):
        """(u, E, phi0, phi1) at the index (beta_raw, gamma): the unit
        direction, the index values and the basis values and slopes there.

        Only the last index asked for is kept, keyed by (u, gamma), so a
        point costs one basis evaluation however many of the objective, the
        Hessian seed and the fitted values read it, whatever the scale of
        beta_raw, and a fit holds one point's matrices at a time.
        """
        u = beta_raw / np.linalg.norm(beta_raw)
        key = u.tobytes() + gamma.tobytes()
        if key != self._index_key:
            # drop the previous point's matrices before allocating new ones
            self._index_key = self._index_state = None
            E = self.data.X @ u
            if self.inside:
                E = E + self.data.A @ gamma
            phi0, phi1 = basis_matrices(self.basis, E, (0, 1))
            self._index_key, self._index_state = key, (u, E, phi0, phi1)
        return self._index_state

    def link_state(self, d: np.ndarray, beta_raw: np.ndarray, gamma: np.ndarray):
        """(u, E, phi0, eta, g') at the point (d, beta_raw, gamma): `at_index`'s
        direction, index values and basis values, the linear predictor, and
        the link slope, zero wherever E is clamped to the basis domain, since
        the index only moves eta through g where E is unclamped."""
        u, E, phi0, phi1 = self.at_index(beta_raw, gamma)
        eta = phi0 @ d + self.data.A @ gamma if self.outside else phi0 @ d
        gprime = (phi1 @ d) * ((E >= self.basis.lo) & (E <= self.basis.hi))
        return u, E, phi0, eta, gprime

    def _core(self, d, beta_raw, gamma):
        """Loss value and its gradient pieces, penalty excluded.

        Returns (loss, loss_grad_d, grad_beta, grad_gamma) or None when the
        index direction has collapsed.
        """
        spec, data = self.spec, self.data
        norm = np.linalg.norm(beta_raw)
        if norm < 1e-12 or not np.isfinite(norm):
            return None
        u, _, phi0, eta, gprime = self.link_state(d, beta_raw, gamma)

        loss, v = self.family.loss(eta, self.yresp)
        grad_d = phi0.T @ v
        w = v * gprime
        grad_u = self.data.X.T @ w
        grad_beta = (grad_u - u * (u @ grad_u)) / norm
        if spec.q > 0:
            grad_gamma = data.A.T @ (w if self.inside else v)
        else:
            grad_gamma = np.zeros(0)
        return loss, grad_d, grad_beta, grad_gamma

    def value_and_grad_eig(self, zeta: np.ndarray):
        """Objective and gradient in penalty-eigenbasis coordinates.

        Each point is computed once; a repeat returns the stored value and a
        copy of the stored gradient, which the caller may modify.
        """
        key = zeta.tobytes()
        if key not in self._values:
            c, beta_raw, gamma = _unpack(self.spec, zeta, self.basis.dim)
            core = self._core(self.U @ c, beta_raw, gamma)
            if core is None:
                self._values[key] = 1e12, np.zeros_like(zeta)
            else:
                loss, grad_d, grad_beta, grad_gamma = core
                value = loss + self.lam * float(self.Lam @ (c * c))
                grad_c = self.U.T @ grad_d + 2.0 * self.lam * self.Lam * c
                self._values[key] = value, np.concatenate([grad_c, grad_beta, grad_gamma])
        value, grad = self._values[key]
        return value, grad.copy()

    def to_eig(self, theta: np.ndarray) -> np.ndarray:
        K = self.basis.dim
        return np.concatenate([self.U.T @ theta[:K], theta[K:]])

    def from_eig(self, zeta: np.ndarray) -> np.ndarray:
        K = self.basis.dim
        return np.concatenate([self.U @ zeta[:K], zeta[K:]])

    def gauss_newton_hess_inv(self, zeta: np.ndarray) -> np.ndarray:
        """Inverse Gauss-Newton Hessian in eigenbasis coordinates, used to
        seed BFGS.

        The penalty block dominates the curvature at large lambda (condition
        numbers up to ~1e11 on the default grid); an identity seed makes the
        quasi-Newton iteration creep in the stiff directions.
        """
        spec, data = self.spec, self.data
        c, beta_raw, gamma = _unpack(spec, zeta, self.basis.dim)
        d = self.U @ c
        norm = np.linalg.norm(beta_raw)
        u, _, phi0, eta, gprime = self.link_state(d, beta_raw, gamma)
        q = self.family.curvature(eta)
        tangent = (np.eye(spec.p) - np.outer(u, u)) / norm
        blocks = [phi0 @ self.U, gprime[:, None] * (data.X @ tangent)]
        if spec.q > 0:
            blocks.append(gprime[:, None] * data.A if self.inside else data.A)
        J = np.hstack(blocks)
        H = J.T @ (J * q[:, None])
        K = self.basis.dim
        H[np.arange(K), np.arange(K)] += 2.0 * self.lam * self.Lam
        H = 0.5 * (H + H.T)
        # invert with an eigenvalue floor: the sphere-tangent direction is
        # flat, and scipy insists the seed be exactly symmetric and
        # Cholesky-factorizable. Huge link coefficients overflow H, and eigh
        # raises ValueError on non-finite input, so check before calling it.
        if not np.all(np.isfinite(H)):
            return np.eye(H.shape[0])
        try:
            w, V = scipy.linalg.eigh(H)
        except np.linalg.LinAlgError:
            return np.eye(H.shape[0])
        if not (np.all(np.isfinite(w)) and w[-1] > 0):
            return np.eye(H.shape[0])
        w = np.maximum(w, 1e-10 * w[-1])
        Hinv = (V / w) @ V.T
        return 0.5 * (Hinv + Hinv.T)


def _evaluator(spec: ModelSpec, data: Dataset, coeffs: Coefficients, lam: float) -> tuple[_Evaluator, np.ndarray]:
    _validate(spec, data)
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if spec.basis is None:
        raise ValueError("spec.basis must be set for direct objective/gradient evaluation")
    if coeffs.d.size != spec.basis.dim or coeffs.beta.size != spec.p or coeffs.gamma.size != spec.q:
        raise ValueError("coefficient block sizes do not match spec.basis.dim, spec.p, spec.q")
    ev = _Evaluator(spec, data, spec.basis, lam)
    theta = np.concatenate([coeffs.d, coeffs.beta, coeffs.gamma])
    return ev, theta


def _penalized(ev: _Evaluator, coeffs: Coefficients) -> tuple[float, float, np.ndarray]:
    """(loss, loss + lambda * d'Pd, eta) at coeffs, read in ev's basis."""
    eta = ev.link_state(coeffs.d, coeffs.beta, coeffs.gamma)[3]
    loss, _ = ev.family.loss(eta, ev.yresp)
    return loss, loss + ev.lam * penalty(ev.basis, coeffs.d), eta


def objective(spec: ModelSpec, data: Dataset, coeffs: Coefficients, lam: float) -> float:
    """Penalized loss: squared error (gaussian_log) or negative log-likelihood
    (poisson, bernoulli_logit), plus lambda * d'Pd.

    The loss is the family table's, as in `gradient` and the fitter, and a
    fit's `objective` is this value at its coefficients in its basis. Raises
    NumericalOverflowError naming an offending observation where eta reaches
    the family's cap (poisson's ETA_CLIP, beyond which the table caps the
    exponential) or the loss is not finite.
    """
    ev, _ = _evaluator(spec, data, coeffs, lam)
    if np.linalg.norm(coeffs.beta) == 0.0:
        raise DegenerateIndexError("index coefficients are identically zero")
    loss, value, eta = _penalized(ev, coeffs)
    # at or beyond the cap the table's loss is no longer the family's
    past = ~(eta < ev.family.eta_cap)
    if np.any(past):
        bad = int(np.argmax(past))
        raise NumericalOverflowError(
            f"objective overflows at observation {bad} (eta={eta[bad]:.6g})"
        )
    if not np.isfinite(loss):
        bad = int(np.argmax(np.abs(eta)))
        raise NumericalOverflowError(
            f"objective is not finite; the largest |eta| is at observation {bad} (eta={eta[bad]:.6g})"
        )
    return value


def gradient(spec: ModelSpec, data: Dataset, coeffs: Coefficients, lam: float) -> np.ndarray:
    """Analytic gradient of `objective`, ordered [d, beta, gamma], with the
    beta block projected onto the unit-sphere tangent."""
    ev, theta = _evaluator(spec, data, coeffs, lam)
    value, grad = ev.value_and_grad_eig(ev.to_eig(theta))
    if not np.isfinite(value):
        raise NumericalOverflowError("objective is not finite at the supplied coefficients")
    return ev.from_eig(grad)


def _irls(family: str, y: np.ndarray, D: np.ndarray, b: np.ndarray, floor: float, max_iter: int):
    """Unpenalized GLM fit of y on the design D by IRLS from b, with the IRLS
    weights floored at `floor`.

    Returns (coefficients, converged): the iterate that met the step test
    and True, the last iterate and False when max_iter steps did not meet
    it, or None and False when a step went non-finite.
    """
    fam = FAMILY_TABLE[family]
    for _ in range(max_iter):
        eta = D @ b
        mu = fam.mean(eta)
        w = np.maximum(fam.weight(mu), floor)
        z = eta + (y - mu) / w
        sw = np.sqrt(w)
        b_new, *_ = np.linalg.lstsq(D * sw[:, None], z * sw, rcond=None)
        if not np.all(np.isfinite(b_new)):
            return None, False
        if np.max(np.abs(b_new - b)) < 1e-10 * (1 + np.max(np.abs(b))):
            return b_new, True
        b = b_new
    return b, False


def _irls_linear(family: str, y: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Unpenalized GLM coefficients for initialization; falls back to a crude
    least-squares proxy if the iterations go non-finite."""
    if family == "gaussian_log":
        return np.linalg.lstsq(D, np.log(y), rcond=None)[0]
    b = np.zeros(D.shape[1])
    mean = float(np.mean(y))
    if family == "poisson":
        fallback = np.linalg.lstsq(D, np.log(y + 0.5), rcond=None)[0]
        b[-1] = np.log(max(mean, 1e-3))
    else:
        fallback = np.linalg.lstsq(D, y - 0.5, rcond=None)[0]
        mean = min(max(mean, 1e-3), 1 - 1e-3)
        b[-1] = np.log(mean / (1 - mean))
    b, _ = _irls(family, y, D, b, 1e-8, 25)
    return fallback if b is None else b


def _initial_coefficients(spec: ModelSpec, data: Dataset) -> tuple[Coefficients, SplineBasis]:
    """Start at the best linear model: beta from a (G)LM on [X, A, 1], g set
    to the matching affine map via its exact spline representation."""
    blocks = [data.X] + ([data.A] if spec.q > 0 else []) + [np.ones((data.n, 1))]
    D = np.hstack(blocks)
    b = _irls_linear(spec.family, data.y, D)
    bx, ba, c = b[: spec.p], b[spec.p : spec.p + spec.q], float(b[-1])
    if np.linalg.norm(bx) < 1e-12:
        # no linear signal to orient the index; fall back to a flat direction
        beta0 = normalize_index(np.ones(spec.p))
        slope = 0.0
    else:
        beta0 = normalize_index(bx)
        slope = float(bx @ beta0)
    if spec.q > 0 and spec.extra_placement == "inside_index":
        gamma0 = ba / slope if slope != 0.0 else np.zeros(spec.q)
    else:
        gamma0 = ba.copy()
    E0 = data.X @ beta0
    if spec.q > 0 and spec.extra_placement == "inside_index":
        E0 = E0 + data.A @ gamma0
    if spec.basis is not None:
        basis = spec.basis
    else:
        basis = basis_for_index(E0, dim=spec.basis_dim, degree=spec.basis_degree)
    d0 = c + slope * greville_abscissae(basis)
    return Coefficients(beta=beta0, gamma=gamma0, d=d0), basis


def _canonicalize(spec: ModelSpec, coeffs: Coefficients, index_values: np.ndarray, basis: SplineBasis):
    """(coeffs, index_values, basis) in the frame with a positive leading
    index coefficient: the given frame, or its reflection when the leading
    coefficient came out negative, which leaves every fitted value unchanged."""
    lead_idx = np.nonzero(coeffs.beta)[0]
    if lead_idx.size == 0:
        raise DegenerateIndexError("fitted index coefficients are identically zero")
    if coeffs.beta[lead_idx[0]] > 0:
        return coeffs, index_values, basis
    gamma = -coeffs.gamma if (spec.q > 0 and spec.extra_placement == "inside_index") else coeffs.gamma
    reflected = Coefficients(beta=-coeffs.beta, gamma=gamma, d=coeffs.d[::-1].copy())
    return reflected, -index_values, basis.reflected()


def fit(spec: ModelSpec, data: Dataset, lam: float, init: Coefficients | None = None) -> FitResult:
    """Minimize the penalized objective at one lambda by BFGS, run twice with
    the second run warm-started from the first (plus one more restart if the
    convergence test still fails).

    Without `init` the fit starts from the best linear model, in spec.basis
    or, when that is None, in a basis built around the starting index. An
    `init` is read in spec.basis, the frame its d lives in, so it needs one.
    """
    _validate(spec, data)
    if not (lam > 0 and np.isfinite(lam)):
        raise ValueError("lambda must be positive and finite")
    if init is None:
        init, basis = _initial_coefficients(spec, data)
    elif spec.basis is None:
        raise ValueError("an initial point needs spec.basis, the frame its d lives in")
    else:
        basis = spec.basis
    if init.d.size != basis.dim or init.beta.size != spec.p or init.gamma.size != spec.q:
        raise ValueError("initial coefficient block sizes do not match the basis dim or spec.p, spec.q")

    warnings: list[str] = []
    if data.n < basis.dim:
        warnings.append(
            f"rank-deficient link system: n={data.n} observations for "
            f"{basis.dim} basis functions"
        )

    ev = _Evaluator(spec, data, basis, lam)
    zeta = ev.to_eig(np.concatenate([init.d, init.beta, init.gamma]))
    best_value, _ = ev.value_and_grad_eig(zeta)
    best_zeta = zeta
    converged = False
    restarts = 0
    for attempt in range(1 + MAX_RESTARTS):
        # inf-norm bound implying the 2-norm target for this neighborhood
        gtol = GRAD_TOL * (1.0 + abs(best_value)) / (2.0 * np.sqrt(zeta.size))
        res = minimize(
            ev.value_and_grad_eig,
            best_zeta,
            jac=True,
            method="BFGS",
            options={
                "gtol": gtol,
                "maxiter": 400,
                "hess_inv0": ev.gauss_newton_hess_inv(best_zeta),
            },
        )
        prev_value = best_value
        if np.isfinite(res.fun) and res.fun <= best_value:
            best_zeta, best_value = res.x, float(res.fun)
        if attempt > 0:
            restarts += 1
        _, grad_now = ev.value_and_grad_eig(best_zeta)
        grad_ok = np.linalg.norm(grad_now) < GRAD_TOL * (1.0 + abs(best_value))
        obj_ok = attempt > 0 and abs(prev_value - best_value) < OBJ_REL_TOL * (1.0 + abs(best_value))
        if attempt > 0 and (grad_ok or obj_ok):
            converged = True
            break

    d, beta_raw, gamma = _unpack(spec, ev.from_eig(best_zeta), basis.dim)
    if np.linalg.norm(beta_raw) == 0.0:
        raise DegenerateIndexError("optimizer collapsed the index direction to zero")
    beta, E, _, eta, _ = ev.link_state(d, beta_raw, gamma)
    coeffs, E, frame = _canonicalize(
        spec, Coefficients(beta=beta, gamma=gamma.copy(), d=d.copy()), E, basis
    )
    framed = ev if frame is basis else _Evaluator(spec, data, frame, lam)
    return FitResult(
        lam=float(lam),
        family=spec.family,
        coeffs=coeffs,
        index_values=E,
        eta=eta,
        mu_or_pi=ev.family.mean(eta),
        response=ev.yresp,
        objective=_penalized(framed, coeffs)[1],
        converged=converged,
        n_restarts_used=restarts,
        basis=frame,
        warnings=tuple(warnings),
        raw_coeffs=Coefficients(beta=beta_raw.copy(), gamma=gamma.copy(), d=d.copy()),
    )


def fit_path(spec: ModelSpec, data: Dataset):
    """Fit every lambda on the grid in ascending order, each warm-started
    from its predecessor in one shared basis (spec.basis, or one built
    around the starting index), and attach GCV selection. Returns a
    LambdaPath whose spec is the caller's."""
    _validate(spec, data)
    carry, basis = _initial_coefficients(spec, data)
    fit_spec = replace(spec, basis=basis)
    fits = []
    for lam in spec.lambda_grid:
        res = fit(fit_spec, data, lam, init=carry)
        fits.append(res)
        carry = res.raw_coeffs
    from .inference import build_path  # deferred: inference sits above model

    return build_path(spec, data, fits)
