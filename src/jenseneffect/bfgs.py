"""BFGS with a Moré–Thuente line search, for `model.fit`.

A port of scipy 1.17's `minimize(fun, x0, jac=True, method="BFGS")`:
`_optimize._minimize_bfgs`, `_linesearch.line_search_wolfe1` with the
MINPACK-2 `dcsrch`/`dcstep` search of `_dcsrch.py`, and the
`line_search_wolfe2` fallback with `_zoom`, `_cubicmin` and `_quadmin`. It
does the same arithmetic in the same order on the same types, and calls
`fun` at the same points in the same order, so every iterate, and every fit,
is bit-identical to scipy's. Only the paths the fitter takes are kept: no
extra arguments, callbacks, finite differences, step-acceptance hooks,
counters, messages or result object. The line searches use scipy's defaults
(c1 = 1e-4, c2 = 0.9) and the step bounds BFGS gives them.

The method is Nocedal & Wright, *Numerical Optimization*, 2nd ed., 2006,
§6.1 (BFGS) and Algorithms 3.5-3.6 (the fallback search); the line search
is Moré & Thuente, *ACM TOMS* 20 (1994) 286-307.

Derived from SciPy, which is distributed under this license:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

`dcsrch` and `dcstep` come from MINPACK-1 (Argonne National Laboratory,
1983; Jorge J. Moré and David J. Thuente) and MINPACK-2 (Argonne National
Laboratory and the University of Minnesota, 1993; Brett M. Averick,
Richard G. Carter and Jorge J. Moré), by way of scipy's Python port.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cholesky, issymmetric

__all__ = ["minimize"]

C1 = 1e-4  # sufficient decrease
C2 = 0.9  # curvature
STPMIN = 1e-100  # the step bounds BFGS hands the Moré–Thuente search
STPMAX = 1e100
XTOL = 1e-14  # the search's relative interval tolerance


def minimize(fun, x0, gtol, maxiter, hess_inv0):
    """Minimize by BFGS from the 1-D float vector x0; return (x, f(x)).

    `fun(x)` returns the value and the gradient at x. The iteration stops
    once the largest gradient entry is at most `gtol`, after `maxiter`
    iterations, on a step of zero length or a non-finite value, or when
    neither line search finds a step; the last point then stands, with the
    value it had. `hess_inv0` seeds the inverse Hessian and must be exactly
    symmetric and Cholesky-factorizable, or ValueError is raised.
    """
    if not _is_pos_def(hess_inv0):
        raise ValueError("'hess_inv0' matrix isn't positive definite.")
    last = [None, None, None]  # the last point fun was called at, its value and gradient

    def point(x):
        # one call per run of requests for the same point, as scipy's
        # ScalarFunction makes them: the line searches ask for a trial
        # point's value and its slope separately. Points compare by value,
        # as np.array_equal does, so a NaN point is never reused
        if last[0] is None or not (x == last[0]).all():
            last[:] = x, *fun(x)
        return last[1], last[2]

    xk = np.asarray(x0).flatten()
    old_fval, gfk = point(xk)
    N = len(xk)
    I = np.eye(N, dtype=int)
    Hk = hess_inv0
    # sets the initial step guess to dx ~ 1
    old_old_fval = old_fval + np.linalg.norm(gfk) / 2
    k = 0
    gnorm = np.amax(np.abs(gfk))
    while (gnorm > gtol) and (k < maxiter):
        pk = -np.dot(Hk, gfk)
        step = _line_search_wolfe1(point, xk, pk, gfk, old_fval, old_old_fval)
        if step[0] is None:
            step = _line_search_wolfe2(point, xk, pk, gfk, old_fval, old_old_fval)
            if step[0] is None:
                break
        alpha_k, fval, gfkp1 = step
        old_old_fval, old_fval = old_fval, fval
        sk = alpha_k * pk
        xk = xk + sk
        if gfkp1 is None:
            gfkp1 = point(xk)[1]
        yk = gfkp1 - gfk
        gfk = gfkp1
        k += 1
        gnorm = np.amax(np.abs(gfk))
        if gnorm <= gtol:
            break
        # scipy's relative step test at its default xrtol = 0: a zero step
        if alpha_k * _vecnorm(pk) <= 0 * (0 + _vecnorm(xk)):
            break
        if not np.isfinite(old_fval):
            break
        rhok_inv = np.dot(yk, sk)
        if rhok_inv == 0.0:
            rhok = 1000.0
        else:
            rhok = 1.0 / rhok_inv
        A1 = I - sk[:, np.newaxis] * yk[np.newaxis, :] * rhok
        A2 = I - yk[:, np.newaxis] * sk[np.newaxis, :] * rhok
        Hk = np.dot(A1, np.dot(Hk, A2)) + (rhok * sk[:, np.newaxis] * sk[np.newaxis, :])
    return xk, old_fval


def _is_pos_def(A) -> bool:
    if not issymmetric(A):
        return False
    try:
        cholesky(A)
    except np.linalg.LinAlgError:
        return False
    return True


def _vecnorm(x):
    return np.sum(np.abs(x) ** 2, axis=0) ** (1.0 / 2)


def _initial_step(phi0, old_phi0, derphi0):
    """The first trial step: the one that would repeat the last decrease,
    capped at 1."""
    if derphi0 != 0:
        alpha1 = min(1.0, 1.01 * 2 * (phi0 - old_phi0) / derphi0)
    else:
        alpha1 = 1.0
    if alpha1 < 0:
        alpha1 = 1.0
    return alpha1


def _along(point, xk, pk):
    """phi(s) and phi'(s) for phi(s) = f(xk + s * pk), and a cell holding
    the gradient of the last phi' call."""
    gval = [None]

    def phi(s):
        return point(xk + s * pk)[0]

    def derphi(s):
        gval[0] = point(xk + s * pk)[1]
        return np.dot(gval[0], pk)

    return phi, derphi, gval


def _line_search_wolfe1(point, xk, pk, gfk, old_fval, old_old_fval):
    """(step, value, gradient) at a step along pk from xk that meets the
    strong Wolfe conditions, by the Moré–Thuente search; (None, None, None)
    where that search fails."""
    phi, derphi, gval = _along(point, xk, pk)
    derphi0 = np.dot(gfk, pk)
    stp, fval = _dcsrch(phi, derphi, _initial_step(old_fval, old_old_fval, derphi0), old_fval, derphi0)
    if stp is None:
        return None, None, None
    return stp, fval, gval[0]


def _dcsrch(phi, derphi, stp, finit, ginit, maxiter=100):
    """(step, phi there) for a step that meets the sufficient decrease and
    curvature conditions, searched from the trial step `stp` given phi(0) =
    finit and phi'(0) = ginit; (None, None) where the search stops without
    one. MINPACK-2's dcsrch: an interval [stx, sty] is kept that contains a
    minimizer of phi(a) - finit - C1 * a * ginit, until a minimizer of phi
    is bracketed."""
    if stp < STPMIN or ginit >= 0:
        return None, None
    brackt = False
    stage = 1
    gtest = C1 * ginit
    width = STPMAX - STPMIN
    width1 = width / 0.5
    stx, fx, gx = 0.0, finit, ginit
    sty, fy, gy = 0.0, finit, ginit
    stmin = 0
    stmax = stp + 4.0 * stp
    f = phi(stp)
    g = derphi(stp)
    for _ in range(maxiter - 1):
        ftest = finit + stp * gtest
        if stage == 1 and f <= ftest and g >= 0:
            stage = 2
        if f <= ftest and abs(g) <= C2 * -ginit:
            return stp, f
        if (
            (brackt and (stp <= stmin or stp >= stmax))
            or (brackt and stmax - stmin <= XTOL * stmax)
            or (stp == STPMAX and f <= ftest and g <= gtest)
            or (stp == STPMIN and (f > ftest or g >= gtest))
        ):
            return None, None
        if stage == 1 and f <= fx and f > ftest:
            # a lower value without sufficient decrease: take the step on
            # the modified function phi(a) - a * gtest
            fm = f - stp * gtest
            fxm = fx - stx * gtest
            fym = fy - sty * gtest
            gm = g - gtest
            gxm = gx - gtest
            gym = gy - gtest
            with np.errstate(invalid="ignore", over="ignore"):
                stx, fxm, gxm, sty, fym, gym, stp, brackt = _dcstep(
                    stx, fxm, gxm, sty, fym, gym, stp, fm, gm, brackt, stmin, stmax
                )
            fx = fxm + stx * gtest
            fy = fym + sty * gtest
            gx = gxm + gtest
            gy = gym + gtest
        else:
            with np.errstate(invalid="ignore", over="ignore"):
                stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(
                    stx, fx, gx, sty, fy, gy, stp, f, g, brackt, stmin, stmax
                )
        if brackt:
            # bisect where the interval did not shrink enough
            if abs(sty - stx) >= 0.66 * width1:
                stp = stx + 0.5 * (sty - stx)
            width1 = width
            width = abs(sty - stx)
            stmin = min(stx, sty)
            stmax = max(stx, sty)
        else:
            stmin = stp + 1.1 * (stp - stx)
            stmax = stp + 4.0 * (stp - stx)
        stp = np.clip(stp, STPMIN, STPMAX)
        # where no further progress is possible, fall back to the best step
        if brackt and (stp <= stmin or stp >= stmax) or (brackt and stmax - stmin <= XTOL * stmax):
            stp = stx
        if not np.isfinite(stp):
            return None, None
        f = phi(stp)
        g = derphi(stp)
    return None, None


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """MINPACK-2's dcstep: a safeguarded cubic or quadratic step, and the
    interval [stx, sty] updated by the trial (stp, fp, dp)."""
    sgn_dp = np.sign(dp)
    sgn_dx = np.sign(dx)
    sgnd = sgn_dp * sgn_dx
    if fp > fx:
        # higher value: the minimum is bracketed
        theta = 3.0 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt((theta / s) ** 2 - dx / s * (dp / s))
        if stp < stx:
            gamma *= -1
        p = gamma - dx + theta
        q = gamma - dx + gamma + dp
        r = p / q
        stpc = stx + r * (stp - stx)
        stpq = stx + dx / ((fx - fp) / (stp - stx) + dx) / 2.0 * (stp - stx)
        if abs(stpc - stx) <= abs(stpq - stx):
            stpf = stpc
        else:
            stpf = stpc + (stpq - stpc) / 2.0
        brackt = True
    elif sgnd < 0.0:
        # the slopes change sign: the minimum is bracketed
        theta = 3 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt((theta / s) ** 2 - dx / s * (dp / s))
        if stp > stx:
            gamma *= -1
        p = gamma - dp + theta
        q = gamma - dp + gamma + dx
        r = p / q
        stpc = stp + r * (stx - stp)
        stpq = stp + dp / (dp - dx) * (stx - stp)
        if abs(stpc - stp) > abs(stpq - stp):
            stpf = stpc
        else:
            stpf = stpq
        brackt = True
    elif abs(dp) < abs(dx):
        # lower value, same-sign slope of smaller magnitude
        theta = 3 * (fx - fp) / (stp - stx) + dx + dp
        s = max(abs(theta), abs(dx), abs(dp))
        gamma = s * np.sqrt(max(0, (theta / s) ** 2 - dx / s * (dp / s)))
        if stp > stx:
            gamma = -gamma
        p = gamma - dp + theta
        q = gamma + (dx - dp) + gamma
        r = p / q
        if r < 0 and gamma != 0:
            stpc = stp + r * (stx - stp)
        elif stp > stx:
            stpc = stpmax
        else:
            stpc = stpmin
        stpq = stp + dp / (dp - dx) * (stx - stp)
        if brackt:
            if abs(stpc - stp) < abs(stpq - stp):
                stpf = stpc
            else:
                stpf = stpq
            if stp > stx:
                stpf = min(stp + 0.66 * (sty - stp), stpf)
            else:
                stpf = max(stp + 0.66 * (sty - stp), stpf)
        else:
            if abs(stpc - stp) > abs(stpq - stp):
                stpf = stpc
            else:
                stpf = stpq
            stpf = np.clip(stpf, stpmin, stpmax)
    elif brackt:
        # lower value, same-sign slope not smaller: cubic step to sty
        theta = 3.0 * (fp - fy) / (sty - stp) + dy + dp
        s = max(abs(theta), abs(dy), abs(dp))
        gamma = s * np.sqrt((theta / s) ** 2 - dy / s * (dp / s))
        if stp > sty:
            gamma = -gamma
        p = gamma - dp + theta
        q = gamma - dp + gamma + dy
        r = p / q
        stpc = stp + r * (sty - stp)
        stpf = stpc
    elif stp > stx:
        stpf = stpmax
    else:
        stpf = stpmin
    if fp > fx:
        sty = stp
        fy = fp
        dy = dp
    else:
        if sgnd < 0:
            sty = stx
            fy = fx
            dy = dx
        stx = stp
        fx = fp
        dx = dp
    stp = stpf
    return stx, fx, dx, sty, fy, dy, stp, brackt


def _line_search_wolfe2(point, xk, pk, gfk, old_fval, old_old_fval, maxiter=10):
    """The fallback search for a strong Wolfe step (Nocedal & Wright,
    Algorithm 3.5): (step, value, gradient), the gradient None where the
    search ran out of iterations and the step None where it failed.

    BFGS's step bound of 1e100 never binds here, since the trial steps start
    at 1 or below and at most double ten times, so it is left out."""
    phi, derphi, gval = _along(point, xk, pk)
    phi0 = old_fval
    derphi0 = np.dot(gfk, pk)
    alpha0 = 0
    alpha1 = _initial_step(phi0, old_old_fval, derphi0)
    phi_a1 = phi(alpha1)
    phi_a0 = phi0
    derphi_a0 = derphi0
    for i in range(maxiter):
        if alpha1 == 0:
            return None, None, None
        if (phi_a1 > phi0 + C1 * alpha1 * derphi0) or ((phi_a1 >= phi_a0) and i > 0):
            alpha_star, phi_star = _zoom(alpha0, alpha1, phi_a0, phi_a1, derphi_a0, phi, derphi, phi0, derphi0)
            break
        derphi_a1 = derphi(alpha1)
        if abs(derphi_a1) <= -C2 * derphi0:
            alpha_star, phi_star = alpha1, phi_a1
            break
        if derphi_a1 >= 0:
            alpha_star, phi_star = _zoom(alpha1, alpha0, phi_a1, phi_a0, derphi_a1, phi, derphi, phi0, derphi0)
            break
        alpha2 = 2 * alpha1
        alpha0 = alpha1
        alpha1 = alpha2
        phi_a0 = phi_a1
        phi_a1 = phi(alpha1)
        derphi_a0 = derphi_a1
    else:
        return alpha1, phi_a1, None
    # an accepted step is where derphi was called last
    return alpha_star, phi_star, gval[0]


def _zoom(a_lo, a_hi, phi_lo, phi_hi, derphi_lo, phi, derphi, phi0, derphi0, maxiter=10):
    """Nocedal & Wright's Algorithm 3.6: shrink [a_lo, a_hi] by cubic, then
    quadratic, then bisection steps until a trial meets the strong Wolfe
    conditions; (step, value), or (None, None) after maxiter + 1 trials."""
    delta1 = 0.2  # cubic interpolant check
    delta2 = 0.1  # quadratic interpolant check
    phi_rec = phi0
    a_rec = 0
    for i in range(maxiter + 1):
        dalpha = a_hi - a_lo
        if dalpha < 0:
            a, b = a_hi, a_lo
        else:
            a, b = a_lo, a_hi
        if i > 0:
            cchk = delta1 * dalpha
            a_j = _cubicmin(a_lo, phi_lo, derphi_lo, a_hi, phi_hi, a_rec, phi_rec)
        if (i == 0) or (a_j is None) or (a_j > b - cchk) or (a_j < a + cchk):
            qchk = delta2 * dalpha
            a_j = _quadmin(a_lo, phi_lo, derphi_lo, a_hi, phi_hi)
            if (a_j is None) or (a_j > b - qchk) or (a_j < a + qchk):
                a_j = a_lo + 0.5 * dalpha
        phi_aj = phi(a_j)
        if (phi_aj > phi0 + C1 * a_j * derphi0) or (phi_aj >= phi_lo):
            phi_rec = phi_hi
            a_rec = a_hi
            a_hi = a_j
            phi_hi = phi_aj
        else:
            derphi_aj = derphi(a_j)
            if abs(derphi_aj) <= -C2 * derphi0:
                return a_j, phi_aj
            if derphi_aj * (a_hi - a_lo) >= 0:
                phi_rec = phi_hi
                a_rec = a_hi
                a_hi = a_lo
                phi_hi = phi_lo
            else:
                phi_rec = phi_lo
                a_rec = a_lo
            a_lo = a_j
            phi_lo = phi_aj
            derphi_lo = derphi_aj
    return None, None


def _cubicmin(a, fa, fpa, b, fb, c, fc):
    """The minimizer of the cubic through (a, fa), (b, fb) and (c, fc) with
    slope fpa at a, or None."""
    # f(x) = A *(x-a)^3 + B*(x-a)^2 + C*(x-a) + D
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            C = fpa
            db = b - a
            dc = c - a
            denom = (db * dc) ** 2 * (db - dc)
            d1 = np.empty((2, 2))
            d1[0, 0] = dc ** 2
            d1[0, 1] = -db ** 2
            d1[1, 0] = -dc ** 3
            d1[1, 1] = db ** 3
            [A, B] = np.dot(d1, np.asarray([fb - fa - C * db, fc - fa - C * dc]).flatten())
            A /= denom
            B /= denom
            radical = B * B - 3 * A * C
            xmin = a + (-B + np.sqrt(radical)) / (3 * A)
        except ArithmeticError:
            return None
    if not np.isfinite(xmin):
        return None
    return xmin


def _quadmin(a, fa, fpa, b, fb):
    """The minimizer of the quadratic through (a, fa) and (b, fb) with slope
    fpa at a, or None."""
    # f(x) = B*(x-a)^2 + C*(x-a) + D
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            D = fa
            C = fpa
            db = b - a * 1.0
            B = (fb - D - C * db) / (db * db)
            xmin = a - C / (2.0 * B)
        except ArithmeticError:
            return None
    if not np.isfinite(xmin):
        return None
    return xmin
