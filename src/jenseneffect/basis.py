"""B-spline and Fourier bases: evaluation, derivatives, curvature penalties.

Every link function in the package is represented as g(s) = phi(s) @ d for a
fixed B-spline basis phi. This module owns basis construction, evaluation of
the basis and its derivatives, the second-derivative penalty, and the
Fourier inner-product reduction that turns functional covariate histories
into ordinary design columns.

Evaluation is one vectorized Cox-de Boor pass per call: each point's knot
span comes from a binary search on the knots, the k + 1 nonzero B-splines of
every degree up to k are built level by level for all points at once, and
each requested derivative order is raised from the level below with the
degree-reduction recurrence; the blocks are then scattered into dense
n x dim matrices. Points are clamped to [lo, hi], and each end belongs to
the nonempty span that ends there, so values and derivatives at (and beyond)
either end are the one-sided limits from inside the domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "SplineBasis",
    "FourierBasis",
    "make_spline_basis",
    "basis_for_index",
    "basis_matrix",
    "greville_abscissae",
    "penalty_matrix",
    "penalty",
    "penalty_eigh",
    "fourier_matrix",
    "fourier_design",
]

# basis_for_index pads each end of the index range by this fraction of its width
INDEX_PAD = 0.05


@dataclass(frozen=True)
class SplineBasis:
    """B-spline basis of a given degree and dimension on a fixed domain.

    The knot sequence has full multiplicity (degree + 1) at both ends and
    equally spaced interior knots, so the basis spans all polynomials up to
    the degree on [lo, hi]. Instances are immutable and hashable. Each one
    computes its knot-derived tables (the cached properties) once, on first
    use, and frees them with itself; equal instances do not share them.
    """

    degree: int
    dim: int
    knots: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if self.dim < self.degree + 1:
            raise ValueError("basis dim must be at least degree + 1")
        if len(self.knots) != self.dim + self.degree + 1:
            raise ValueError("knot count must equal dim + degree + 1")
        arr = np.asarray(self.knots, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError("knots must be finite")
        if np.any(np.diff(arr) < 0):
            raise ValueError("knots must be nondecreasing")
        if not arr[self.degree] < arr[-self.degree - 1]:
            raise ValueError("domain must have positive width")

    @property
    def lo(self) -> float:
        return self.knots[self.degree]

    @property
    def hi(self) -> float:
        return self.knots[-self.degree - 1]

    @cached_property
    def knot_array(self) -> np.ndarray:
        arr = np.asarray(self.knots, dtype=float)
        arr.flags.writeable = False
        return arr

    @cached_property
    def span_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-span knot data for `_design`, read-only. Spans l = k..last
        are the nonempty ones; last is the span that ends at hi. `first` maps
        p = searchsorted(knots, x, "right") to l - k, the first basis function
        nonzero on span l = min(p - 1, last). Column l - k of `table` holds
        the knots t[l-k+1 .. l+k] (rows 0..2k-1), then for each degree
        j = 1..k the j knot differences t[l+m] - t[l+m-j], m = 1..j, that de
        Boor's recurrence divides by (all positive, as the span is nonempty)."""
        t = self.knot_array
        k = self.degree
        last = int(np.searchsorted(t, self.hi, side="left")) - 1
        first = np.minimum(np.arange(t.size + 1) - 1, last) - k
        window = t[np.arange(k, last + 1) + np.arange(1 - k, k + 1)[:, None]]
        widths = [window[k : k + j] - window[k - j : k] for j in range(1, k + 1)]
        table = np.concatenate([window, *widths])
        first.flags.writeable = False
        table.flags.writeable = False
        return first, table

    @cached_property
    def penalty_tables(self) -> tuple[np.ndarray, ...]:
        """(B, w, P, eigenvalues, eigenvectors) of the second-derivative
        penalty, read-only. B holds the basis functions' second derivatives
        at Gauss-Legendre nodes per knot span and w the node weights, with a
        node count exact for phi_i'' * phi_j'', a piecewise polynomial of
        degree 2 (degree - 2). P = B' diag(w) B, symmetrized; its
        eigenvalues are clipped at zero."""
        if self.degree < 2:
            raise ValueError("second-derivative penalty needs degree >= 2")
        t = self.knot_array
        k = self.degree
        nodes, weights = np.polynomial.legendre.leggauss(math.ceil((2 * (k - 2) + 1) / 2))
        pts = []
        wts = []
        for j in range(k, len(t) - k - 2 + 1):
            a, b = t[j], t[j + 1]
            if b <= a:
                continue
            half = 0.5 * (b - a)
            pts.append(half * nodes + 0.5 * (a + b))
            wts.append(half * weights)
        b2, wts = basis_matrix(self, np.concatenate(pts), 2), np.concatenate(wts)
        P = b2.T @ (b2 * wts[:, None])
        P = 0.5 * (P + P.T)
        w, V = np.linalg.eigh(P)
        w = np.maximum(w, 0.0)
        for arr in (b2, wts, P, w, V):
            arr.flags.writeable = False
        return b2, wts, P, w, V

    def reflected(self) -> "SplineBasis":
        """The mirror-image basis on [-hi, -lo].

        Basis function j of the reflection evaluated at -s equals basis
        function dim-1-j of the original at s, so reversing a coefficient
        vector re-expresses the same link under a negated index.
        """
        return SplineBasis(self.degree, self.dim, tuple(-k for k in reversed(self.knots)))


@dataclass(frozen=True)
class FourierBasis:
    """Orthonormal Fourier basis on a window of the given period length.

    dim must be odd: one constant function plus (dim - 1) / 2 sine/cosine
    pairs, all normalized to unit L2 norm over one period.
    """

    dim: int = 15
    period: float = 1.0

    def __post_init__(self) -> None:
        if self.dim < 1 or self.dim % 2 == 0:
            raise ValueError("Fourier dim must be a positive odd integer")
        if not (self.period > 0 and math.isfinite(self.period)):
            raise ValueError("period must be positive and finite")


def make_spline_basis(lo: float, hi: float, dim: int = 25, degree: int = 5) -> SplineBasis:
    """Build a basis with full boundary multiplicity and equally spaced
    interior knots on [lo, hi]."""
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("domain endpoints must be finite with lo < hi")
    n_interior = dim - degree - 1
    interior = np.linspace(lo, hi, n_interior + 2)[1:-1]
    knots = [lo] * (degree + 1) + list(interior) + [hi] * (degree + 1)
    return SplineBasis(degree=degree, dim=dim, knots=tuple(float(k) for k in knots))


def basis_for_index(values: np.ndarray, dim: int = 25, degree: int = 5) -> SplineBasis:
    """Basis whose domain covers the given index values with relative padding.

    The padding leaves room for the index to drift as the coefficients move
    during optimization; evaluation outside the padded domain clamps to the
    boundary rather than extrapolating.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0 or not np.all(np.isfinite(values)):
        raise ValueError("index values must be nonempty and finite")
    lo = float(values.min())
    hi = float(values.max())
    width = hi - lo
    if width == 0.0:
        # degenerate index: fall back to a unit window around the point
        lo, hi = lo - 0.5, hi + 0.5
    else:
        lo -= INDEX_PAD * width
        hi += INDEX_PAD * width
    return make_spline_basis(lo, hi, dim=dim, degree=degree)


def _design(basis: SplineBasis, x: np.ndarray, derivs: tuple[int, ...]) -> list[np.ndarray]:
    """Dense design matrices of the given derivative orders at points x in
    [lo, hi], from one Cox-de Boor triangle.

    Level j of the triangle holds the j + 1 degree-j B-splines l-j..l that
    are nonzero on x's span l, computed in de Boor's order of operations (A
    Practical Guide to Splines, 1978, BSPLVB). Derivative order r raises level
    k - r back to degree k with the factors j / (t[i+j] - t[i]) of the
    degree-reduction recurrence. Arrays are (functions, points), so every
    operation runs along contiguous rows of length n; temporaries are freed
    before the dense outputs are allocated.
    """
    k, dim, n = basis.degree, basis.dim, x.size
    first, table = basis.span_tables
    col = first[np.searchsorted(basis.knot_array, x, side="right")]
    g = np.take(table, col, axis=1)
    gap = np.subtract(g[: 2 * k], x, out=g[: 2 * k])  # t[l-k+1 .. l+k] - x
    width = [g[2 * k + j * (j - 1) // 2 : 2 * k + j * (j + 1) // 2] for j in range(1, k + 1)]
    keep = {k - r for r in derivs}
    h = np.ones((1, n))
    levels = {0: h}
    for j in range(1, max(keep, default=0) + 1):
        w = h / width[j - 1]
        h = np.empty((j + 1, n))
        np.multiply(w, gap[k : k + j], out=h[:j])
        h[j] = 0.0
        h[1:] -= np.multiply(w, gap[k - j : k], out=w)
        if j in keep:
            levels[j] = h
    blocks = []
    for r in derivs:
        v = levels[k - r]
        for j in range(k - r + 1, k + 1):
            u = j / width[j - 1] * v
            v = np.zeros((j + 1, n))
            v[1:] = u
            v[:j] -= u
        blocks.append(v)
    del g, gap, width, levels, h
    flat = col + np.arange(0, n * dim, dim) + np.arange(k + 1)[:, None]
    dense = np.zeros((len(derivs), n, dim))
    for out, v in zip(dense, blocks):
        out.reshape(-1)[flat] = v
    return list(dense)


def basis_matrix(basis: SplineBasis, s, deriv: int = 0) -> np.ndarray:
    """Evaluate all basis functions (or a derivative) at the points s.

    Returns a dense (len(s), dim) matrix. Points outside [lo, hi] are clamped
    to the nearest endpoint, so the returned rows continue the boundary row
    constantly. At lo and hi the rows are one-sided: the values and
    derivatives of the first and last nonempty knot spans, so no derivative
    row vanishes at an end (a value row sums to 1 there as everywhere).
    """
    return basis_matrices(basis, s, (deriv,))[0]


def basis_matrices(basis: SplineBasis, s, derivs: tuple[int, ...]) -> list[np.ndarray]:
    """Evaluate several derivative orders at once, from one Cox-de Boor
    pass; returns one dense matrix per order, as `basis_matrix` would."""
    for d in derivs:
        if not 0 <= d:
            raise ValueError("derivative order must be nonnegative")
        if d > basis.degree:
            raise ValueError(f"derivative order {d} exceeds spline degree {basis.degree}")
    x = np.atleast_1d(np.asarray(s, dtype=float))
    if x.ndim != 1:
        raise ValueError("evaluation points must be a scalar or 1-d array")
    if not np.all(np.isfinite(x)):
        raise ValueError("evaluation points must be finite")
    x = np.clip(x, basis.lo, basis.hi)
    return _design(basis, x, derivs)


def greville_abscissae(basis: SplineBasis) -> np.ndarray:
    """Knot averages xi_j such that sum_j xi_j phi_j(s) = s on the domain.

    These are the exact coefficients of the identity map in the basis
    (degree >= 1), used to initialize link coefficients.
    """
    if basis.degree < 1:
        raise ValueError("Greville abscissae need degree >= 1")
    t = basis.knot_array
    k = basis.degree
    return np.array([t[j + 1 : j + k + 1].mean() for j in range(basis.dim)])


def penalty_matrix(basis: SplineBasis) -> np.ndarray:
    """Second-derivative penalty matrix P, read-only: entry (i, j) is the
    integral of phi_i'' * phi_j'' over the domain (`SplineBasis.penalty_tables`)."""
    return basis.penalty_tables[2]


def penalty(basis: SplineBasis, d: np.ndarray) -> float:
    """The curvature penalty d'Pd of the link g = phi @ d, summed as the
    integral of g''^2 over P's quadrature nodes. For a near-affine d, where
    g'' almost vanishes, this keeps the value to the rounding of g'' itself;
    d'Pd formed from P's rounded entries is off by about eps |P| |d|^2."""
    b2, wts = basis.penalty_tables[:2]
    g2 = b2 @ d
    return float(wts @ (g2 * g2))


def penalty_eigh(basis: SplineBasis) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (eigenvalues, eigenvectors) of the penalty matrix,
    read-only, eigenvalues clipped at zero. In these coordinates the penalty
    quadratic form is diagonal, which evaluates free of the cancellation that
    plagues P @ d for near-affine coefficient vectors."""
    return basis.penalty_tables[3:]


def fourier_matrix(basis: FourierBasis, t) -> np.ndarray:
    """Values of the orthonormal Fourier functions at times t.

    Column 0 is the constant 1/sqrt(period); columns 2j-1 and 2j are the
    unit-norm sine and cosine at frequency j.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(np.isfinite(t)):
        raise ValueError("time grid must be finite")
    period = basis.period
    out = np.empty((t.size, basis.dim))
    out[:, 0] = 1.0 / math.sqrt(period)
    amp = math.sqrt(2.0 / period)
    for j in range(1, (basis.dim - 1) // 2 + 1):
        arg = 2.0 * math.pi * j * t / period
        out[:, 2 * j - 1] = amp * np.sin(arg)
        out[:, 2 * j] = amp * np.cos(arg)
    return out


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    w = np.empty_like(grid)
    w[0] = 0.5 * (grid[1] - grid[0])
    w[-1] = 0.5 * (grid[-1] - grid[-2])
    w[1:-1] = 0.5 * (grid[2:] - grid[:-2])
    return w


def fourier_design(histories, grid, basis: FourierBasis) -> np.ndarray:
    """Trapezoid-rule inner products of each history row with each Fourier
    basis function; the resulting columns act as ordinary covariates."""
    try:
        histories = np.asarray(histories, dtype=float)
    except ValueError as exc:
        raise ValueError("histories rows must all share one time grid") from exc
    if histories.ndim == 1:
        histories = histories[None, :]
    if histories.ndim != 2:
        raise ValueError("histories rows must all share one time grid")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size != histories.shape[1]:
        raise ValueError("grid length must match history row length")
    if grid.size < 2 * basis.dim:
        raise ValueError(
            f"under-resolved histories: {grid.size} samples for {basis.dim} "
            f"basis functions (need at least {2 * basis.dim})"
        )
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    if not (np.all(np.isfinite(histories)) and np.all(np.isfinite(grid))):
        raise ValueError("histories and grid must be finite")
    w = _trapezoid_weights(grid)
    return (histories * w) @ fourier_matrix(basis, grid)
