"""Hot numeric kernels: sine/cosine integrals and the cross-dipole response.

``si_ci_arrays`` has one implementation, in numpy. ``response_batch``
dispatches on ``_accel.USE_NUMBA`` between a compiled and a pure-numpy
implementation; the two are compared against each other only by a test that
is skipped when numba is absent, and their last bits may differ.

The response kernel evaluates, for every (sample, element) pair, the complex
cross-dipole coupling factor

    h = conj(E_tx)^T  T  E_rx

where the 2x2 matrix ``T`` projects the transmit-side field polarization
basis onto the receive dipole axes, all angles being computed in the antennas'
own (rotated) frames. It also returns the exact distance and the squared
norms of the two response vectors (used for the polarization loss factor).
"""

from __future__ import annotations

import numpy as np

from ._accel import USE_NUMBA, njit, prange

EULER_GAMMA = 0.5772156649015329

# lanes whose propagation direction hits a basis singularity get NaN outputs;
# callers decide whether to raise or redraw
_SING_EPS = 1e-14


# ---------------------------------------------------------------------------
# sine and cosine integrals
# ---------------------------------------------------------------------------
# Maclaurin series below x = 2; above, the exponential-integral continued
# fraction evaluated with the modified Lentz scheme, which stays accurate to
# ~1e-15 for all arguments that arise here.


def _cmul_unfused(p, q):
    "Complex product with every real operation rounded on its own."
    out = np.empty_like(p)
    out.real = p.real * q.real - p.imag * q.imag
    out.imag = p.real * q.imag + p.imag * q.real
    return out


def _e1_lentz(x, groups):
    """``E1(i x)`` for x > 2 by the continued fraction, stopped per group.

    A group's lanes leave the working arrays after the first step at which
    all of them have converged, so each lane's value depends only on the
    lanes of its own group. numpy multiplies a one-element complex array in
    place without the fused multiply-add of its vector loop, so while other
    lanes share the working arrays, the lane of a one-lane group is
    multiplied that way by hand.
    """
    order = np.argsort(groups, kind="stable")
    _, sizes = np.unique(groups[order], return_counts=True)
    starts = np.cumsum(sizes) - sizes
    solo = np.repeat(sizes == 1, sizes)
    fix_solo = solo.size > 1 and solo.any()
    lane = order
    b = 1.0 + 1j * x[order]
    c = np.full_like(b, 1e308)
    d = 1.0 / b
    h = d.copy()
    out = np.empty_like(b)
    for i in range(1, 400):
        a = -float(i * i)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        if fix_solo:
            h_solo = _cmul_unfused(h[solo], delta[solo])
        h *= delta
        if fix_solo:
            h[solo] = h_solo
        done = np.maximum.reduceat(np.abs(delta - 1.0), starts) < 1e-16
        if done.any():
            fin = np.repeat(done, sizes)
            out[lane[fin]] = h[fin]
            keep = ~fin
            lane, b, c, d, h = lane[keep], b[keep], c[keep], d[keep], h[keep]
            solo, sizes = solo[keep], sizes[~done]
            if lane.size == 0:
                break
            starts = np.cumsum(sizes) - sizes
            fix_solo = solo.size > 1 and solo.any()
    out[lane] = h
    return out * np.exp(-1j * x)


def si_ci_arrays(x: np.ndarray, groups=None):
    """Vectorized (Si(x), Ci(x)) for strictly positive ``x``.

    ``groups`` holds one integer id per lane. Above x = 2 every group stops
    its continued fraction on its own, so a group's values are bit-identical
    to those of a separate call on just its lanes. ``None`` makes the whole
    call one group.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.size == 0:
        return np.empty(0), np.empty(0)
    if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
        raise ValueError("si_ci_arrays requires finite x > 0")
    if groups is None:
        groups = np.zeros(x.shape, dtype=np.int64)
    else:
        groups = np.asarray(groups)
        if groups.shape != x.shape:
            raise ValueError("groups must have the shape of x")
    si = np.empty_like(x)
    ci = np.empty_like(x)
    small = x <= 2.0
    if np.any(small):
        xs = x[small]
        x2 = xs * xs
        term = xs.copy()
        acc = xs.copy()
        for k in range(1, 40):
            term *= -x2 * (2 * k - 1) / ((2 * k) * (2 * k + 1) * (2 * k + 1))
            acc += term
        si[small] = acc
        acc = EULER_GAMMA + np.log(xs)
        t = np.ones_like(xs)
        for k in range(1, 40):
            t *= -x2 / ((2 * k - 1) * (2 * k))
            acc += t / (2 * k)
        ci[small] = acc
    big = ~small
    if np.any(big):
        e1 = _e1_lentz(x[big], groups[big])
        si[big] = np.pi / 2 + e1.imag
        ci[big] = -e1.real
    return si, ci


# ---------------------------------------------------------------------------
# cross-dipole response
# ---------------------------------------------------------------------------


def _resp_core_numpy(pos, elem, gs_r, gs_per_sample, uav_r, uav_per_sample,
                     wt0, wt1, wr0, wr1, ratio_t, ratio_r):
    n = pos.shape[0]
    m = elem.shape[0]
    h = np.empty((n, m), dtype=np.complex128)
    dist = np.empty((n, m))
    n1sq = np.empty((n, m))
    n2sq = np.empty((n, m))

    def fpat(cosang, ratio):
        s2 = 1.0 - cosang * cosang
        s = np.sqrt(np.maximum(s2, 0.0))
        safe = s > 1e-12
        num = np.cos(np.pi * ratio * cosang) - np.cos(np.pi * ratio)
        return np.where(safe, num / np.where(safe, s, 1.0), 0.0)

    ez_ref = uav_r[..., :, 2]  # receive dipole axes in the reference frame
    ey_ref = uav_r[..., :, 1]
    for l in range(m):
        rel = pos - elem[l]
        d = np.sqrt(np.sum(rel * rel, axis=1))
        rt_mat = gs_r if gs_per_sample else gs_r[l]
        rloc = np.einsum("...ji,...j->...i", rt_mat, rel)  # R^T rel
        x, y, z = rloc[:, 0], rloc[:, 1], rloc[:, 2]
        rr = np.einsum("...ji,...j->...i", uav_r, rel)
        ct_t = z / d
        cp_t = y / d
        ct_r = -rr[..., 2] / d
        cp_r = -rr[..., 1] / d
        rho_t = np.hypot(x, y)
        rho_p = np.hypot(x, z)
        bad = (rho_t <= _SING_EPS * d) | (rho_p <= _SING_EPS * d)
        rho_t = np.where(bad, 1.0, rho_t)
        rho_p = np.where(bad, 1.0, rho_p)
        th_loc = np.stack([-x * z, -y * z, x * x + y * y], axis=-1) / (d * rho_t)[:, None]
        ps_loc = np.stack([-x * y, x * x + z * z, -y * z], axis=-1) / (d * rho_p)[:, None]
        if gs_per_sample:
            th_ref = np.einsum("...ij,...j->...i", rt_mat, th_loc)
            ps_ref = np.einsum("...ij,...j->...i", rt_mat, ps_loc)
        else:
            th_ref = th_loc @ rt_mat.T
            ps_ref = ps_loc @ rt_mat.T
        t11 = np.sum(th_ref * ez_ref, axis=-1)
        t12 = np.sum(th_ref * ey_ref, axis=-1)
        t21 = np.sum(ps_ref * ez_ref, axis=-1)
        t22 = np.sum(ps_ref * ey_ref, axis=-1)
        a = np.conj(wt0) * fpat(ct_t, ratio_t)
        b = np.conj(wt1) * fpat(cp_t, ratio_t)
        c = wr0 * fpat(ct_r, ratio_r)
        e = wr1 * fpat(cp_r, ratio_r)
        hv = a * (t11 * c + t12 * e) + b * (t21 * c + t22 * e)
        cross = -y * z / (rho_t * rho_p)  # cos angle between the two basis vectors
        n1 = np.abs(a) ** 2 + np.abs(b) ** 2 + 2.0 * np.real(np.conj(a) * b) * cross
        n2 = np.abs(c) ** 2 + np.abs(e) ** 2
        h[:, l] = np.where(bad, np.nan + 0j, hv)
        dist[:, l] = d
        n1sq[:, l] = np.where(bad, np.nan, n1)
        n2sq[:, l] = np.where(bad, np.nan, n2)
    return h, dist, n1sq, n2sq


if USE_NUMBA:

    @njit(inline="always")
    def _fpat_scalar(cosang, ratio):
        s2 = 1.0 - cosang * cosang
        if s2 < 1e-24:
            return 0.0
        return (np.cos(np.pi * ratio * cosang) - np.cos(np.pi * ratio)) / np.sqrt(s2)

    @njit(parallel=True)
    def _resp_core_numba(pos, elem, gs_r, gs_step, uav_r, uav_step,
                         wt0, wt1, wr0, wr1, ratio_t, ratio_r):
        n = pos.shape[0]
        m = elem.shape[0]
        h = np.empty((n, m), dtype=np.complex128)
        dist = np.empty((n, m))
        n1sq = np.empty((n, m))
        n2sq = np.empty((n, m))
        wt0c = np.conj(wt0)
        wt1c = np.conj(wt1)
        for i in prange(n):
            iu = i * uav_step
            ez0 = uav_r[iu, 0, 2]
            ez1 = uav_r[iu, 1, 2]
            ez2 = uav_r[iu, 2, 2]
            ey0 = uav_r[iu, 0, 1]
            ey1 = uav_r[iu, 1, 1]
            ey2 = uav_r[iu, 2, 1]
            for l in range(m):
                rx = pos[i, 0] - elem[l, 0]
                ry = pos[i, 1] - elem[l, 1]
                rz = pos[i, 2] - elem[l, 2]
                d = np.sqrt(rx * rx + ry * ry + rz * rz)
                ig = i * gs_step + l * (1 - gs_step)
                # rel in the rotated transmit frame: R^T rel
                x = gs_r[ig, 0, 0] * rx + gs_r[ig, 1, 0] * ry + gs_r[ig, 2, 0] * rz
                y = gs_r[ig, 0, 1] * rx + gs_r[ig, 1, 1] * ry + gs_r[ig, 2, 1] * rz
                z = gs_r[ig, 0, 2] * rx + gs_r[ig, 1, 2] * ry + gs_r[ig, 2, 2] * rz
                zr = uav_r[iu, 0, 2] * rx + uav_r[iu, 1, 2] * ry + uav_r[iu, 2, 2] * rz
                yr = uav_r[iu, 0, 1] * rx + uav_r[iu, 1, 1] * ry + uav_r[iu, 2, 1] * rz
                rho_t = np.sqrt(x * x + y * y)
                rho_p = np.sqrt(x * x + z * z)
                dist[i, l] = d
                if rho_t <= _SING_EPS * d or rho_p <= _SING_EPS * d:
                    h[i, l] = complex(np.nan, np.nan)
                    n1sq[i, l] = np.nan
                    n2sq[i, l] = np.nan
                    continue
                # transmit-side polarization basis in local coordinates
                st = 1.0 / (d * rho_t)
                sp = 1.0 / (d * rho_p)
                ta0 = -x * z * st
                ta1 = -y * z * st
                ta2 = (x * x + y * y) * st
                pa0 = -x * y * sp
                pa1 = (x * x + z * z) * sp
                pa2 = -y * z * sp
                # rotate into the reference frame
                t0 = gs_r[ig, 0, 0] * ta0 + gs_r[ig, 0, 1] * ta1 + gs_r[ig, 0, 2] * ta2
                t1 = gs_r[ig, 1, 0] * ta0 + gs_r[ig, 1, 1] * ta1 + gs_r[ig, 1, 2] * ta2
                t2 = gs_r[ig, 2, 0] * ta0 + gs_r[ig, 2, 1] * ta1 + gs_r[ig, 2, 2] * ta2
                p0 = gs_r[ig, 0, 0] * pa0 + gs_r[ig, 0, 1] * pa1 + gs_r[ig, 0, 2] * pa2
                p1 = gs_r[ig, 1, 0] * pa0 + gs_r[ig, 1, 1] * pa1 + gs_r[ig, 1, 2] * pa2
                p2 = gs_r[ig, 2, 0] * pa0 + gs_r[ig, 2, 1] * pa1 + gs_r[ig, 2, 2] * pa2
                t11 = t0 * ez0 + t1 * ez1 + t2 * ez2
                t12 = t0 * ey0 + t1 * ey1 + t2 * ey2
                t21 = p0 * ez0 + p1 * ez1 + p2 * ez2
                t22 = p0 * ey0 + p1 * ey1 + p2 * ey2
                a = wt0c * _fpat_scalar(z / d, ratio_t)
                b = wt1c * _fpat_scalar(y / d, ratio_t)
                c = wr0 * _fpat_scalar(-zr / d, ratio_r)
                e = wr1 * _fpat_scalar(-yr / d, ratio_r)
                h[i, l] = a * (t11 * c + t12 * e) + b * (t21 * c + t22 * e)
                cross = -y * z / (rho_t * rho_p)
                n1sq[i, l] = (abs(a) ** 2 + abs(b) ** 2
                              + 2.0 * (a.conjugate() * b).real * cross)
                n2sq[i, l] = abs(c) ** 2 + abs(e) ** 2
        return h, dist, n1sq, n2sq


def response_batch(pos, elem, gs_r, uav_r, w_tx, w_rx, ratio_tx=0.5, ratio_rx=0.5,
                   gs_per_sample=None):
    """Cross-dipole coupling for every (sample, element) pair.

    Parameters
    ----------
    pos : (n, 3) drone positions in the reference frame.
    elem : (m, 3) element positions.
    gs_r : ground-side rotations, ``(m, 3, 3)`` for per-element orientations
        or ``(n, 3, 3)`` to give every sample its own common orientation.
    uav_r : drone rotations, ``(3, 3)`` shared or ``(n, 3, 3)`` per sample.
    w_tx, w_rx : complex feed coefficients of the (theta, psi) dipoles.
    ratio_tx, ratio_rx : dipole length over wavelength for each side.
    gs_per_sample : disambiguates the ``gs_r`` layout when n == m; inferred
        from the shape otherwise.

    Returns
    -------
    h, dist, n1sq, n2sq : arrays of shape ``(n, m)``; ``h`` is the complex
    coupling (antenna gains not applied), ``dist`` the exact distance, and
    ``n1sq``/``n2sq`` the squared response-vector norms. Samples whose
    direction is singular in the rotated transmit frame come back NaN.
    """
    pos = np.ascontiguousarray(pos, dtype=np.float64)
    elem = np.ascontiguousarray(elem, dtype=np.float64)
    n, m = pos.shape[0], elem.shape[0]
    gs_r = np.ascontiguousarray(gs_r, dtype=np.float64)
    uav_r = np.ascontiguousarray(uav_r, dtype=np.float64)
    if gs_r.ndim != 3 or gs_r.shape[0] not in (m, n):
        raise ValueError("gs_r must be (m, 3, 3) or (n, 3, 3)")
    if gs_per_sample is None:
        if n == m and gs_r.shape[0] == n:
            raise ValueError("ambiguous gs_r layout with n == m; pass gs_per_sample")
        gs_per_sample = gs_r.shape[0] == n
    elif gs_r.shape[0] != (n if gs_per_sample else m):
        raise ValueError("gs_r shape inconsistent with gs_per_sample")
    if uav_r.ndim == 2:
        uav_r = uav_r[None, :, :]
        uav_per_sample = False
    elif uav_r.shape[0] == 1:
        uav_per_sample = False
    else:
        if uav_r.shape[0] != n:
            raise ValueError("uav_r must be (3, 3) or (n, 3, 3)")
        uav_per_sample = True
    w_tx = np.asarray(w_tx, dtype=np.complex128)
    w_rx = np.asarray(w_rx, dtype=np.complex128)
    if USE_NUMBA:
        return _resp_core_numba(
            pos, elem, gs_r, 1 if gs_per_sample else 0, uav_r,
            1 if uav_per_sample else 0,
            complex(w_tx[0]), complex(w_tx[1]), complex(w_rx[0]), complex(w_rx[1]),
            float(ratio_tx), float(ratio_rx),
        )
    ur = uav_r if uav_per_sample else uav_r[0]
    return _resp_core_numpy(
        pos, elem, gs_r, gs_per_sample, ur, uav_per_sample,
        complex(w_tx[0]), complex(w_tx[1]), complex(w_rx[0]), complex(w_rx[1]),
        float(ratio_tx), float(ratio_rx),
    )
