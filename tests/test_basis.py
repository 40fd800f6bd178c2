"""Basis-layer tests against independent oracles.

The spline oracle is a direct Cox-de Boor recursion written from the
textbook definition (no scipy), with the closed-right-end convention at the
domain's upper endpoint, and derivatives come from the textbook derivative
recursion on top of it. scipy's design matrix is a second, test-only oracle
that pins the values bit for bit. Penalty values are checked against
hand-integrated closed forms; Fourier inner products against analytic
integrals.
"""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from jenseneffect.basis import (
    FourierBasis,
    SplineBasis,
    basis_for_index,
    basis_matrix,
    fourier_design,
    fourier_matrix,
    greville_abscissae,
    make_spline_basis,
    penalty,
    penalty_eigh,
    penalty_matrix,
)


# --- independent oracle -----------------------------------------------------


def deboor_one(t, j, k, x, hi):
    """B-spline N_{j,k}(x) by the Cox-de Boor recursion, closed at hi."""
    if k == 0:
        if t[j] <= x < t[j + 1]:
            return 1.0
        # right-end convention: the last nonempty interval is closed
        if x == hi and t[j] < t[j + 1] and t[j + 1] == hi:
            return 1.0
        return 0.0
    left = 0.0
    if t[j + k] > t[j]:
        left = (x - t[j]) / (t[j + k] - t[j]) * deboor_one(t, j, k - 1, x, hi)
    right = 0.0
    if t[j + k + 1] > t[j + 1]:
        right = (t[j + k + 1] - x) / (t[j + k + 1] - t[j + 1]) * deboor_one(t, j + 1, k - 1, x, hi)
    return left + right


def deboor_row(basis, x):
    t = np.asarray(basis.knots)
    return np.array([deboor_one(t, j, basis.degree, x, basis.hi) for j in range(basis.dim)])


def deboor_deriv(t, j, k, x, hi, r):
    """r-th derivative of N_{j,k} at x by the textbook recursion
    N'_{j,k} = k/(t_{j+k}-t_j) N_{j,k-1} - k/(t_{j+k+1}-t_{j+1}) N_{j+1,k-1},
    zero-width terms dropped; one-sided like `deboor_one`."""
    if r == 0:
        return deboor_one(t, j, k, x, hi)
    out = 0.0
    if t[j + k] > t[j]:
        out += k / (t[j + k] - t[j]) * deboor_deriv(t, j, k - 1, x, hi, r - 1)
    if t[j + k + 1] > t[j + 1]:
        out -= k / (t[j + k + 1] - t[j + 1]) * deboor_deriv(t, j + 1, k - 1, x, hi, r - 1)
    return out


def assert_matches_recursion(basis, pts, orders):
    """Each derivative order within 1e-9 of the oracle's largest entry."""
    t = np.asarray(basis.knots)
    for r in orders:
        ours = basis_matrix(basis, pts, r)
        oracle = np.array(
            [[deboor_deriv(t, j, basis.degree, x, basis.hi, r) for j in range(basis.dim)] for x in pts]
        )
        assert np.max(np.abs(ours - oracle)) <= 1e-9 * max(1.0, np.max(np.abs(oracle))), r


# --- spline evaluation ------------------------------------------------------


def test_matches_de_boor_oracle_at_100_points():
    basis = make_spline_basis(0.0, 0.5, dim=25, degree=5)
    pts = np.linspace(0.0, 0.5, 100)
    ours = basis_matrix(basis, pts)
    oracle = np.array([deboor_row(basis, x) for x in pts])
    assert np.max(np.abs(ours - oracle)) <= 1e-12


def test_partition_of_unity_quintic():
    basis = make_spline_basis(0.0, 0.5, dim=25, degree=5)
    vals = basis_matrix(basis, np.linspace(0.0, 0.5, 257))
    assert np.all(vals >= 0)
    assert np.max(np.abs(vals.sum(axis=1) - 1.0)) <= 1e-12


def test_single_point_eval_and_constant_curvature():
    basis = make_spline_basis(0.0, 0.5)
    row = basis_matrix(basis, [0.2])[0]
    assert row.shape == (25,)
    assert abs(row.sum() - 1.0) <= 1e-12
    # constant function: second derivative identically zero
    d = np.full(25, 3.7)
    curv = basis_matrix(basis, np.linspace(0.0, 0.5, 41), 2) @ d
    assert np.max(np.abs(curv)) <= 1e-9


def test_local_support():
    basis = make_spline_basis(-1.0, 3.0, dim=12, degree=3)
    t = basis.knot_array
    pts = np.linspace(-1.0, 3.0, 301)
    vals = basis_matrix(basis, pts)
    for j in range(basis.dim):
        outside = (pts < t[j]) | (pts > t[j + basis.degree + 1])
        assert np.all(vals[outside, j] == 0.0)


def test_derivative_matches_finite_differences():
    basis = make_spline_basis(0.0, 1.0, dim=15, degree=5)
    pts = np.linspace(0.05, 0.95, 37)
    h = 1e-6
    d1 = basis_matrix(basis, pts, 1)
    fd = (basis_matrix(basis, pts + h) - basis_matrix(basis, pts - h)) / (2 * h)
    scale = np.maximum(np.abs(d1), 1.0)
    assert np.max(np.abs(d1 - fd) / scale) <= 1e-6


def test_second_derivative_matches_finite_differences():
    basis = make_spline_basis(0.0, 1.0, dim=15, degree=5)
    pts = np.linspace(0.1, 0.9, 17)
    h = 1e-5
    d2 = basis_matrix(basis, pts, 2)
    fd = (basis_matrix(basis, pts + h) - 2 * basis_matrix(basis, pts) + basis_matrix(basis, pts - h)) / h**2
    scale = np.maximum(np.abs(d2), 1.0)
    assert np.max(np.abs(d2 - fd) / scale) <= 1e-4


def test_clamping_outside_domain():
    basis = make_spline_basis(0.0, 1.0)
    inside = basis_matrix(basis, [0.0, 1.0])
    outside = basis_matrix(basis, [-5.0, 17.0])
    np.testing.assert_array_equal(inside, outside)
    # clamped derivative rows also freeze at the boundary value, at both ends:
    # the one-sided derivative of the span that ends there, never a zero row
    for r in range(1, basis.degree + 1):
        for end, beyond in ((0.0, -5.0), (1.0, 17.0)):
            row = basis_matrix(basis, [end], r)
            np.testing.assert_array_equal(basis_matrix(basis, [beyond], r), row)
            assert np.max(np.abs(row)) > 0.0


def test_partition_of_unity_at_hi_with_extra_end_multiplicity():
    # hi = t[7] = 1 and t[6] = 1 too: the span that ends at hi is [0.6, 1]
    basis = SplineBasis(3, 7, (0, 0, 0, 0, 0.3, 0.6, 1, 1, 1, 1, 1))
    row = basis_matrix(basis, [basis.hi])[0]
    assert row.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(basis_matrix(basis, [5.0]), basis_matrix(basis, [basis.hi]))
    assert np.max(np.abs(row - deboor_row(basis, basis.hi))) <= 1e-12


def test_derivatives_match_textbook_recursion_at_100_points():
    basis = make_spline_basis(-1.0, 2.0, dim=12, degree=5)
    knots = np.unique(basis.knot_array)  # lo, every interior knot, hi
    pts = np.concatenate([knots, np.linspace(-1.0, 2.0, 100 - knots.size + 2)[1:-1]])
    assert pts.size == 100
    assert_matches_recursion(basis, pts, range(1, basis.degree + 1))


@st.composite
def _bases_and_points(draw):
    k = draw(st.integers(min_value=0, max_value=5))
    # interior knots on a coarse grid, so repeats are common
    interior = sorted(draw(st.lists(st.integers(min_value=1, max_value=9), max_size=7)))
    knots = [0.0] * (k + 1) + [i / 10 for i in interior] + [1.0] * (k + 1)
    basis = SplineBasis(k, len(knots) - k - 1, tuple(knots))
    pts = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12))
    return basis, np.array(pts + [i / 10 for i in interior][::-1] + [1.0, 0.0])


@settings(max_examples=60, deadline=None)
@given(case=_bases_and_points())
def test_property_values_and_derivatives_match_recursion(case):
    basis, pts = case
    assert_matches_recursion(basis, pts, range(basis.degree + 1))


def test_values_bit_identical_to_scipy_design_matrix():
    # scipy is a test-only oracle: these rows are what the pipeline's numbers
    # were computed from before evaluation moved into the package
    rng = np.random.default_rng(20)
    for _ in range(40):
        k = int(rng.integers(0, 6))
        lo, hi = np.sort(rng.normal(scale=3.0, size=2))
        interior = np.sort(rng.uniform(lo, hi, int(rng.integers(0, 15))))
        if interior.size > 2:
            interior[1] = interior[0]  # a repeated interior knot
        knots = np.concatenate([[lo] * (k + 1), interior, [hi] * (k + 1)])
        basis = SplineBasis(k, knots.size - k - 1, tuple(float(v) for v in knots))
        x = np.sort(np.concatenate([rng.uniform(lo, hi, 300), knots[:-1]]))
        expected = BSpline.design_matrix(x, basis.knot_array, k, extrapolate=False).toarray()
        assert np.array_equal(basis_matrix(basis, x), expected)


def test_eval_input_errors():
    basis = make_spline_basis(0.0, 1.0)
    with pytest.raises(ValueError):
        basis_matrix(basis, [float("nan")])[0]
    with pytest.raises(ValueError):
        basis_matrix(basis, [math.inf])[0]
    with pytest.raises(ValueError):
        basis_matrix(basis, [0.5], deriv=6)


def test_greville_reproduces_identity():
    basis = make_spline_basis(-2.0, 3.0, dim=25, degree=5)
    xi = greville_abscissae(basis)
    s = np.linspace(-2.0, 3.0, 101)
    assert np.max(np.abs(basis_matrix(basis, s) @ xi - s)) <= 1e-10


def test_reflected_basis_mirrors_function():
    basis = make_spline_basis(0.0, 2.0, dim=10, degree=3)
    refl = basis.reflected()
    assert (refl.lo, refl.hi) == (-2.0, 0.0)
    rng = np.random.default_rng(5)
    d = rng.normal(size=10)
    s = np.linspace(0.0, 2.0, 50)
    g = basis_matrix(basis, s) @ d
    g_mirror = basis_matrix(refl, -s) @ d[::-1]
    assert np.max(np.abs(g - g_mirror)) <= 1e-12


def test_basis_for_index_padding_and_degenerate_range():
    b = basis_for_index(np.array([0.0, 1.0]))
    assert b.lo == pytest.approx(-0.05)
    assert b.hi == pytest.approx(1.05)
    d = basis_for_index(np.array([2.0, 2.0, 2.0]))
    assert d.lo < 2.0 < d.hi


def test_basis_validation():
    with pytest.raises(ValueError):
        make_spline_basis(1.0, 1.0)
    with pytest.raises(ValueError):
        SplineBasis(degree=3, dim=2, knots=tuple(np.linspace(0, 1, 6)))
    with pytest.raises(ValueError):
        SplineBasis(degree=3, dim=6, knots=tuple(np.linspace(0, 1, 5)))


@settings(max_examples=50, deadline=None)
@given(
    s=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    dim=st.integers(min_value=7, max_value=25),
)
def test_property_unity_and_nonnegativity(s, dim):
    basis = make_spline_basis(0.0, 0.5, dim=dim, degree=5)
    row = basis_matrix(basis, [s])[0]
    assert np.all(row >= 0)
    assert abs(row.sum() - 1.0) <= 1e-12


# --- penalty matrix ---------------------------------------------------------


def test_penalty_symmetric_and_affine_nullspace():
    basis = make_spline_basis(0.0, 5.0)
    P = penalty_matrix(basis)
    np.testing.assert_array_equal(P, P.T)
    xi = greville_abscissae(basis)
    for d in (np.ones(25), 2.0 - 3.0 * xi):
        assert abs(d @ P @ d) <= 1e-10
    rng = np.random.default_rng(11)
    d = rng.normal(size=25)
    affine = 0.4 * xi + 1.1
    assert abs((d + affine) @ P @ (d + affine) - d @ P @ d) <= 1e-10 * max(1.0, d @ P @ d)


def test_penalty_affine_nullspace_narrow_domain():
    # entries scale like width^-3, so the double-precision cancellation floor
    # of the quadratic form moves with the domain; on tight domains the null
    # space holds relative to the matrix scale
    basis = make_spline_basis(0.0, 0.5)
    P = penalty_matrix(basis)
    xi = greville_abscissae(basis)
    for d in (np.ones(25), 2.0 - 3.0 * xi):
        assert abs(d @ P @ d) <= 1e-12 * np.abs(P).max()


def test_penalty_cubic_closed_form():
    # g(s) = s^3 on [0,1]: integral of (6s)^2 is 12
    basis = make_spline_basis(0.0, 1.0, dim=25, degree=5)
    s = np.linspace(0.0, 1.0, 400)
    d, *_ = np.linalg.lstsq(basis_matrix(basis, s), s**3, rcond=None)
    assert np.max(np.abs(basis_matrix(basis, s) @ d - s**3)) <= 1e-10
    P = penalty_matrix(basis)
    assert d @ P @ d == pytest.approx(12.0, abs=1e-8)


def test_penalty_quadrature_node_count_is_exact():
    # the default node count already integrates the piecewise polynomial
    # exactly: a 9-node Gauss-Legendre rule per knot span must not move the
    # entries
    basis = make_spline_basis(0.0, 1.0, dim=12, degree=5)
    P_default = penalty_matrix(basis)
    nodes, weights = np.polynomial.legendre.leggauss(9)
    t = basis.knot_array
    spans = [(a, b) for a, b in zip(t[:-1], t[1:]) if b > a]
    pts = np.concatenate([0.5 * (b - a) * nodes + 0.5 * (a + b) for a, b in spans])
    wts = np.concatenate([0.5 * (b - a) * weights for a, b in spans])
    b2 = basis_matrix(basis, pts, 2)
    P_dense = b2.T @ (b2 * wts[:, None])
    assert np.max(np.abs(P_default - P_dense)) <= 1e-13 * np.abs(P_default).max()


def test_penalty_psd():
    basis = make_spline_basis(-1.0, 2.0, dim=18, degree=5)
    evals = np.linalg.eigvalsh(penalty_matrix(basis))
    assert evals.min() >= -1e-10


def test_penalty_cached_per_basis():
    basis = make_spline_basis(0.0, 1.0)
    assert penalty_matrix(basis) is penalty_matrix(basis)
    assert all(a is b for a, b in zip(basis.span_tables, basis.span_tables))
    assert all(a is b for a, b in zip(penalty_eigh(basis), penalty_eigh(basis)))
    # equal bases are separate instances, each with its own tables
    assert penalty_matrix(make_spline_basis(0.0, 1.0)) is not penalty_matrix(basis)


def test_penalty_eigh_is_the_clipped_eigendecomposition_of_p():
    basis = make_spline_basis(-1.0, 2.0, dim=18, degree=5)
    w, V = penalty_eigh(basis)
    w_ref, V_ref = np.linalg.eigh(penalty_matrix(basis))
    np.testing.assert_array_equal(w, np.maximum(w_ref, 0.0))
    np.testing.assert_array_equal(V, V_ref)
    for arr in (w, V, penalty_matrix(basis)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def test_a_basis_is_freed_with_its_tables():
    basis = make_spline_basis(0.0, 1.0)
    basis_matrix(basis, [0.2, 0.7], 1)
    penalty_matrix(basis)
    penalty_eigh(basis)
    penalty(basis, np.ones(basis.dim))
    ref = weakref.ref(basis)
    del basis
    gc.collect()
    assert ref() is None


# --- Fourier ----------------------------------------------------------------


def test_fourier_dim_must_be_odd():
    with pytest.raises(ValueError):
        FourierBasis(dim=4)
    with pytest.raises(ValueError):
        FourierBasis(dim=0)


def test_fourier_orthonormal_on_fine_grid():
    basis = FourierBasis(dim=15, period=36.0)
    t = np.linspace(0.0, 36.0, 20001)
    F = fourier_matrix(basis, t)
    gram = np.trapezoid(F[:, :, None] * F[:, None, :], t, axis=0)
    assert np.max(np.abs(gram - np.eye(15))) <= 1e-6


def test_fourier_design_constant_history():
    basis = FourierBasis(dim=15, period=36.0)
    t = np.linspace(0.0, 36.0, 400)
    row = fourier_design(np.ones((1, t.size)), t, basis)[0]
    assert row[0] == pytest.approx(math.sqrt(36.0), abs=1e-10)
    assert np.max(np.abs(row[1:])) <= 1e-10


def test_fourier_design_cosine_closed_form():
    period = 36.0
    basis = FourierBasis(dim=15, period=period)
    t = np.linspace(0.0, period, 1000)
    row = fourier_design(np.cos(2 * np.pi * t / period)[None, :], t, basis)[0]
    expected = np.zeros(15)
    expected[2] = math.sqrt(period / 2.0)  # unit-norm cos at frequency 1
    assert np.max(np.abs(row - expected)) <= 1e-6


def test_fourier_design_identical_rows_and_errors():
    basis = FourierBasis(dim=5, period=1.0)
    t = np.linspace(0.0, 1.0, 50)
    h = np.sin(t)
    out = fourier_design(np.vstack([h, h]), t, basis)
    np.testing.assert_array_equal(out[0], out[1])
    with pytest.raises(ValueError, match="under-resolved"):
        fourier_design(np.ones((1, 8)), np.linspace(0, 1, 8), basis)
    with pytest.raises(ValueError):
        fourier_design([[1.0, 2.0], [1.0, 2.0, 3.0]], t, basis)
    with pytest.raises(ValueError):
        fourier_design(np.ones((1, 50)), t[::-1], basis)
