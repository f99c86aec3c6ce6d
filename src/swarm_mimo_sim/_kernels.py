"""Hot numeric kernels: sine/cosine integrals and the cross-dipole response.

Both have one implementation, in numpy. The response kernel evaluates, for
every (sample, element) pair, the complex cross-dipole coupling factor

    h = conj(E_tx)^T  T  E_rx

where the 2x2 matrix ``T`` projects the transmit-side field polarization
basis onto the receive dipole axes, all angles being computed in the antennas'
own (rotated) frames. It also returns the exact distance and the squared
norms of the two response vectors (used for the polarization loss factor).
It works element-major on blocks of about ``_BLOCK_LANES`` (element, sample)
lanes, so a call costs a few dozen numpy operations per block whatever its
shape.

Last bits depend on which numpy and OpenBLAS code paths run, so outputs are
bit-reproducible only with the same numpy build, BLAS and CPU. Examples:

- The per-element basis rotation is one dgemm per element, which OpenBLAS
  computes with fused multiply-adds; written out as separate products it
  differs in about a third of the entries. numpy hands a one-row product to
  gemv instead, whose bits differ again: 300 single-sample calls and one
  batched call of the same drones differ in 5,928 of 15,000 ``h`` lanes,
  while two-row calls match the batched call, with a shared or a per-sample
  drone rotation alike. Batching single-sample callers therefore moves their
  last bits.
- numpy multiplies a one-element complex array in place without the fused
  multiply-add of its vector loop (see ``_e1_lentz``).
- The per-sample ground rotation of the basis goes through ``einsum``;
  explicit products differ from it in about two thirds of the lanes.
"""

from __future__ import annotations

import numpy as np

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


# (element, sample) lanes per block of the response kernel
_BLOCK_LANES = 1 << 14


def _fpat(cosang, ratio):
    "Normalized dipole field pattern at the cosine of the angle from the axis."
    s2 = 1.0 - cosang * cosang
    s = np.sqrt(np.maximum(s2, 0.0))
    safe = s > 1e-12
    num = np.cos(np.pi * ratio * cosang) - np.cos(np.pi * ratio)
    return np.where(safe, num / np.where(safe, s, 1.0), 0.0)


# The three-term sums below add in the order j = 0, 1, 2 and start from +0.0,
# as einsum and np.sum do, so a sum of negative zeros comes out +0.0 there too.


def _rt(r, rx, ry, rz, i):
    "Component ``i`` of ``R^T rel``."
    return 0.0 + r[..., 0, i] * rx + r[..., 1, i] * ry + r[..., 2, i] * rz


def _dot3(v, u):
    return 0.0 + v[..., 0] * u[..., 0] + v[..., 1] * u[..., 1] + v[..., 2] * u[..., 2]


def _row_blocks(n, m):
    """Row slices of about ``_BLOCK_LANES`` lanes, none of one row unless n == 1.

    numpy sends a one-row matrix product to gemv, whose last bits differ from
    gemm's, so a block holds two rows or more and a one-row remainder joins
    the block before it.
    """
    step = max(2, _BLOCK_LANES // max(m, 1))
    starts = list(range(0, n, step))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _resp_core_numpy(pos, elem, gs_r, gs_per_sample, uav_r, uav_per_sample,
                     wt0, wt1, wr0, wr1, ratio_t, ratio_r):
    n = pos.shape[0]
    m = elem.shape[0]
    h = np.empty((n, m), dtype=np.complex128)
    dist = np.empty((n, m))
    n1sq = np.empty((n, m))
    n2sq = np.empty((n, m))
    # element-major blocks: every array below is (m, rows)
    for rows in _row_blocks(n, m):
        gs = gs_r[rows] if gs_per_sample else gs_r[:, None]
        uav = uav_r[rows] if uav_per_sample else uav_r
        rx = pos[rows, 0] - elem[:, 0, None]
        ry = pos[rows, 1] - elem[:, 1, None]
        rz = pos[rows, 2] - elem[:, 2, None]
        d = np.sqrt(rx * rx + ry * ry + rz * rz)
        x, y, z = (_rt(gs, rx, ry, rz, i) for i in range(3))
        ct_t = z / d
        cp_t = y / d
        ct_r = -_rt(uav, rx, ry, rz, 2) / d
        cp_r = -_rt(uav, rx, ry, rz, 1) / d
        rho_t = np.hypot(x, y)
        rho_p = np.hypot(x, z)
        bad = (rho_t <= _SING_EPS * d) | (rho_p <= _SING_EPS * d)
        rho_t = np.where(bad, 1.0, rho_t)
        rho_p = np.where(bad, 1.0, rho_p)
        th_loc = np.stack([-x * z, -y * z, x * x + y * y], axis=-1) / (d * rho_t)[..., None]
        ps_loc = np.stack([-x * y, x * x + z * z, -y * z], axis=-1) / (d * rho_p)[..., None]
        if gs_per_sample:
            th_ref = np.einsum("nij,lnj->lni", gs, th_loc)
            ps_ref = np.einsum("nij,lnj->lni", gs, ps_loc)
        else:
            rt = np.swapaxes(gs_r, 1, 2)
            th_ref = th_loc @ rt
            ps_ref = ps_loc @ rt
        ez = uav[..., :, 2]  # receive dipole axes in the reference frame
        ey = uav[..., :, 1]
        t11 = _dot3(th_ref, ez)
        t12 = _dot3(th_ref, ey)
        t21 = _dot3(ps_ref, ez)
        t22 = _dot3(ps_ref, ey)
        a = np.conj(wt0) * _fpat(ct_t, ratio_t)
        b = np.conj(wt1) * _fpat(cp_t, ratio_t)
        c = wr0 * _fpat(ct_r, ratio_r)
        e = wr1 * _fpat(cp_r, ratio_r)
        hv = a * (t11 * c + t12 * e) + b * (t21 * c + t22 * e)
        cross = -y * z / (rho_t * rho_p)  # cos angle between the two basis vectors
        n1 = np.abs(a) ** 2 + np.abs(b) ** 2 + 2.0 * np.real(np.conj(a) * b) * cross
        n2 = np.abs(c) ** 2 + np.abs(e) ** 2
        h[rows].T[...] = np.where(bad, np.nan + 0j, hv)
        dist[rows].T[...] = d
        n1sq[rows].T[...] = np.where(bad, np.nan, n1)
        n2sq[rows].T[...] = np.where(bad, np.nan, n2)
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
    ur = uav_r if uav_per_sample else uav_r[0]
    return _resp_core_numpy(
        pos, elem, gs_r, gs_per_sample, ur, uav_per_sample,
        complex(w_tx[0]), complex(w_tx[1]), complex(w_rx[0]), complex(w_rx[1]),
        float(ratio_tx), float(ratio_rx),
    )
