"""Closed-form ergodic-rate lower bounds and their special functions.

The central quantity is ``omega``: the position-averaged excess correlation
between the spatial signatures of two drones independently uniform in a
spherical shell. It feeds the combining-receiver rate bound, whose remaining
terms capture channel-estimation noise and thermal noise under
channel-inversion power control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import si_ci_arrays
from .errors import SwarmMimoError
from .geometry import ArrayGeometry, ShellRegion


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------


def si(x):
    """Sine integral, the integral of sin(t)/t from 0 to x. Odd in x.

    Oracle: a scalar entry to ``_kernels.si_ci_arrays``, the Si/Ci under
    :func:`cb_db` and :func:`omega`; tests hold it against quadrature.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.zeros_like(arr)
    pos = np.abs(arr) > 0
    s, _ = si_ci_arrays(np.abs(arr[pos]))
    out[pos] = np.sign(arr[pos]) * s
    return float(out[0]) if scalar else out


def ci(x):
    """Cosine integral for x > 0.

    Oracle: a scalar entry to ``_kernels.si_ci_arrays``, the Si/Ci under
    :func:`cb_db` and :func:`omega`; tests hold it against quadrature.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr <= 0):
        raise SwarmMimoError("ci requires x > 0")
    _, c = si_ci_arrays(arr)
    return float(c[0]) if scalar else c


def cb_db(b, region: ShellRegion, groups=None):
    """Moments E[cos(b/d)] and E[sin(b/d)] for a shell-distributed radius d.

    The radius density is ``3 r^2 / (r_max^3 - r_min^3)`` on the shell; both
    moments are available in closed form through Si and Ci. Even/odd parity
    in ``b`` is applied, and the surface limit returns
    ``(cos(b/R), sin(b/R))`` exactly. ``groups`` (one integer id per value of
    ``b``) is passed on to :func:`si_ci_arrays`.
    """
    arr = np.asarray(b, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if groups is not None:
        groups = np.atleast_1d(np.asarray(groups))
    sign = np.sign(arr)
    mag = np.abs(arr)
    c = np.ones_like(mag)
    d = np.zeros_like(mag)
    pos = mag > 0
    if np.any(pos):
        m = mag[pos]
        if region.is_surface or region.r_max - region.r_min < 1e-6 * region.r_max:
            c[pos] = np.cos(m / region.r_max)
            d[pos] = np.sin(m / region.r_max)
        else:
            g = None if groups is None else groups[pos]
            c[pos], d[pos] = _cd_shell(m, region.r_min, region.r_max, g)
    d *= sign
    if scalar:
        return float(c[0]), float(d[0])
    return c, d


def _cd_shell(b, r_min, r_max, groups=None):
    """Closed-form shell moments for strictly positive b.

    Both endpoints share one :func:`si_ci_arrays` call. The lanes of
    ``b / r_max`` get group ``2 g`` and those of ``b / r_min`` group
    ``2 g + 1``, so each endpoint's values are those of a call of its own.
    """
    g = np.zeros(b.shape, dtype=np.int64) if groups is None else np.asarray(groups)
    args = np.concatenate([b / r_max, b / r_min])
    s, c_int = si_ci_arrays(args, np.concatenate([2 * g, 2 * g + 1]))

    def endpoint(r, half):
        arg, s_r, c_r = args[half], s[half], c_int[half]
        cosv = np.cos(arg)
        sinv = np.sin(arg)
        f = (2.0 * r * r - b * b) * r * cosv - b * r * r * sinv - b**3 * s_r
        g = (2.0 * r * r - b * b) * r * sinv + b * r * r * cosv + b**3 * c_r
        return f, g

    f_hi, g_hi = endpoint(r_max, slice(None, b.size))
    f_lo, g_lo = endpoint(r_min, slice(b.size, None))
    norm = 2.0 * (r_max**3 - r_min**3)
    return (f_hi - f_lo) / norm, (g_hi - g_lo) / norm


def expected_phase_sinc(dp: int, dq: int, geometry: ArrayGeometry, lam: float) -> float:
    """Spherical average of the inter-element phase factor.

    Averaging ``exp(-i (2 pi / lam) sin(theta) (dp dx cos(phi) + dq dy
    sin(phi)))`` over an isotropic direction gives
    ``sinc((2 / lam) * sqrt(dp^2 dx^2 + dq^2 dy^2))`` with the normalized
    sinc convention sin(pi x) / (pi x).
    """
    arg = (2.0 / lam) * math.hypot(dp * geometry.delta_x, dq * geometry.delta_y)
    return float(np.sinc(arg))


# ---------------------------------------------------------------------------
# signature-correlation excess
# ---------------------------------------------------------------------------


def _offset_products(count: int, delta: int):
    "Index products a^2 - (a - delta)^2 for all in-range positions."
    a = np.arange(max(0, delta), count + min(0, delta))
    return delta * (2 * a - delta)


# lanes per cd_of_b call in _omega_sum; bounds the working set of a large array
_CHUNK_LANES = 4096

# entries per block of padded offset rows in _omega_sum's pass 3
_PAD_ENTRIES = 1 << 16


def _group_chunks(group_of_lane, limit):
    "(lo, hi) slices of whole runs of equal ids, each within ``limit`` unless one run exceeds it."
    n = group_of_lane.size
    lo = prev = 0
    for end in [*(np.flatnonzero(np.diff(group_of_lane)) + 1).tolist(), n]:
        if end - lo > limit and prev > lo:
            yield lo, prev
            lo = prev
        prev = end
    yield lo, n


def _omega_sum(geometry: ArrayGeometry, lam: float, cd_of_b) -> float:
    """Shared pair-sum: sinc^2 weight times the radial moment factor.

    ``cd_of_b(b, groups)`` maps an array of b values to C^2 + D^2. Each
    distinct integer index product (p, q) is evaluated once, in three passes:

    1. list the (dp, dq) offsets in order with array operations: one
       ``math.hypot`` per offset, as :func:`expected_phase_sinc` computes it,
       then one ``np.sinc`` over all of them; the products first needed at an
       offset form that offset's group;
    2. evaluate all new products in a few calls of whole groups, where each
       group stops its Si/Ci continued fraction as if it had a call of its
       own (see :func:`si_ci_arrays`);
    3. lay each offset's terms out as a row padded with trailing zeros and
       add along the rows with ``cumsum``, which adds in order; then add the
       weighted row sums offset by offset, again with ``cumsum``. The rows go
       in blocks of at most ``_PAD_ENTRIES`` entries (more only when a single
       offset has more terms), so the padding costs a bounded amount of
       memory.

    The result is bit-identical to one ``cd_of_b`` call per offset whose
    terms are added with ``sum()``, accumulated over the offsets in order.
    """
    mx, my = geometry.m_x, geometry.m_y
    dx2, dy2 = geometry.delta_x**2, geometry.delta_y**2
    scale = math.pi / lam
    qspan = 2 * (my - 1) ** 2 + 1  # code p * qspan + q orders keys as (p, q)
    # pass 1
    offsets = [(a, b) for a in range(-(mx - 1), mx) for b in range(-(my - 1), my)]
    hyp = [math.hypot(a * geometry.delta_x, b * geometry.delta_y) for a, b in offsets]
    w = np.sinc((2.0 / lam) * np.array(hyp)) ** 2
    w[len(offsets) // 2] = 0.0  # the (0, 0) offset, in the middle
    kept = np.flatnonzero(w >= 1e-30)
    if kept.size == 0:
        return 0.0
    weights = w[kept]
    offsets = [offsets[i] for i in kept.tolist()]
    px = {a: _offset_products(mx, a) * qspan for a in {a for a, _ in offsets}}
    qy = {b: _offset_products(my, b) for b in {b for _, b in offsets}}
    codes = [(px[a][:, None] + qy[b][None, :]).ravel() for a, b in offsets]
    del offsets, hyp, w, kept  # free the per-offset lists before the sort
    sizes = np.array([c.size for c in codes])
    codes = np.concatenate(codes)
    order = np.argsort(codes, kind="stable")  # stable: first occurrence first
    sorted_codes = codes[order]
    first = np.ones(codes.size, dtype=bool)
    first[1:] = sorted_codes[1:] != sorted_codes[:-1]
    inverse = np.empty(codes.size, dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    keys = sorted_codes[first]
    group = np.repeat(np.arange(sizes.size), sizes)[order[first]]
    del codes, order, sorted_codes, first  # free the sort's arrays before the chunks

    # pass 2
    vals = np.empty(keys.size)
    ev = np.lexsort((keys, group))
    for lo, hi in _group_chunks(group[ev], _CHUNK_LANES):
        k = ev[lo:hi]
        p = (keys[k] + (qspan - 1) // 2) // qspan
        q = keys[k] - p * qspan
        vals[k] = cd_of_b(scale * (p * dx2 + q * dy2), group[k])

    # pass 3
    width = int(sizes.max())
    step = max(1, _PAD_ENTRIES // width)
    ends = np.cumsum(sizes).tolist()
    sums = np.empty(sizes.size)
    for r0 in range(0, sizes.size, step):
        r1 = min(r0 + step, sizes.size)
        rows = np.zeros((r1 - r0, width))
        rows[np.arange(width) < sizes[r0:r1, None]] = vals[inverse[ends[r0] - sizes[r0]:ends[r1 - 1]]]
        sums[r0:r1] = np.cumsum(rows, axis=1)[:, -1]
    return np.cumsum(weights * sums)[-1]


def omega(geometry: ArrayGeometry, lam: float, region: ShellRegion) -> float:
    """Excess signature correlation for shell-uniform drone positions.

    Nonnegative; zero for a line array at spacings that are multiples of
    half a wavelength. Requires the shell inner radius to exceed the array
    aperture.
    """
    if region.r_min <= geometry.aperture():
        raise SwarmMimoError(
            f"inner radius {region.r_min} must exceed the aperture "
            f"{geometry.aperture():.3f}"
        )

    def cd_of_b(b, groups):
        c, d = cb_db(b, region, groups)
        return np.atleast_1d(c) ** 2 + np.atleast_1d(d) ** 2

    return _omega_sum(geometry, lam, cd_of_b)


def omega_surface(geometry: ArrayGeometry, lam: float) -> float:
    """Limit of :func:`omega` when drones sit on a far sphere (C^2+D^2 = 1)."""
    return _omega_sum(geometry, lam, lambda b, groups: np.ones_like(b))


# ---------------------------------------------------------------------------
# rate bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateParams:
    """Everything entering the closed-form rate bounds.

    ``rho_p = inf`` models perfect channel knowledge. ``kappa`` is the mean
    reciprocal effective gain and ``chi_wc`` the worst-case mean gain used
    for pilot sizing; their product never exceeds 1.
    """

    geometry: ArrayGeometry
    region: ShellRegion
    lam: float
    k: int
    rho_u: float
    rho_p: float
    prelog: float
    kappa: float = 1.0
    chi_wc: float = 1.0

    def __post_init__(self):
        if self.k < 1:
            raise SwarmMimoError("drone count must be >= 1")
        if self.rho_u <= 0 or self.rho_p <= 0:
            raise SwarmMimoError("SNR targets must be positive")
        if not 0.0 < self.prelog <= 1.0:
            raise SwarmMimoError("pre-log fraction must be in (0, 1]")
        if self.kappa * self.chi_wc > 1.0 + 1e-9:
            raise SwarmMimoError(
                "kappa * chi_wc cannot exceed 1 (it is a mean reciprocal times a minimum)"
            )
        if self.lam <= 0:
            raise SwarmMimoError("wavelength must be positive")

    @property
    def m(self) -> int:
        return self.geometry.m


def _mrc_rate(p: RateParams, omega_value: float, ratio: float) -> float:
    """The combining-receiver bound for a correlation excess and an estimation ratio.

    ``ratio`` is the drones' mean square range over ``r_max**2``: the pilots
    are sized for the worst case, a drone at ``r_max``. Perfect channel
    knowledge (``rho_p = inf``) has no estimation term.
    """
    est = 0.0
    if not math.isinf(p.rho_p):
        est = (1.0 + p.k * p.rho_u) * p.kappa * p.chi_wc * ratio / (p.rho_u * p.rho_p)
    denom = p.rho_u * (p.k - 1) * (1.0 + omega_value / p.m) + 1.0 + est
    return p.prelog * math.log2(1.0 + p.m * p.rho_u / denom)


def mrc_bound_shell(params: RateParams, omega_value: float | None = None) -> float:
    """Ergodic-rate lower bound (bits/s/Hz) for shell-uniform drones.

    ``omega_value`` short-circuits the pair sum when the caller already has
    it (sweeps, optimal spacings).
    """
    p = params
    if omega_value is None:
        omega_value = omega(p.geometry, p.lam, p.region)
    return _mrc_rate(p, omega_value, p.region.mean_square_radius() / p.region.r_max**2)


def mrc_bound_general(
    interference_moment: float,
    e_inv_beta_chi: float,
    params: RateParams,
    d_wc: float | None = None,
) -> float:
    """Rate bound from externally supplied moments (arbitrary placements).

    ``interference_moment`` is the mean of ``p_uj p_uk |g_k^H g_j|^2`` for
    one interferer; ``e_inv_beta_chi`` the mean of ``1 / (beta chi)``.

    Oracle: fed with :func:`shell_moments` it reproduces
    :func:`mrc_bound_shell`, and fed with Monte Carlo moments it checks that
    bound against sampled drones; tests do both.
    """
    p = params
    m = p.m
    if d_wc is None:
        d_wc = p.region.r_max
    est = 0.0
    if not math.isinf(p.rho_p):
        est = (
            (1.0 + p.k * p.rho_u)
            * e_inv_beta_chi
            * (p.lam / (4.0 * math.pi * d_wc)) ** 2
            * p.chi_wc
            / (p.rho_u * p.rho_p)
        )
    denom = (p.k - 1) * interference_moment / (m * p.rho_u) + est + 1.0
    return p.prelog * math.log2(1.0 + m * p.rho_u / denom)


def shell_moments(params: RateParams, omega_value: float | None = None):
    """Closed-form (interference_moment, e_inv_beta_chi) for the shell model.

    Oracle: the moments with which :func:`mrc_bound_general` checks
    :func:`mrc_bound_shell`.
    """
    p = params
    if omega_value is None:
        omega_value = omega(p.geometry, p.lam, p.region)
    moment = p.rho_u**2 * (p.m + omega_value)
    e_inv = (
        p.kappa
        * (4.0 * math.pi / p.lam) ** 2
        * p.region.mean_square_radius()
    )
    return moment, e_inv


def mrc_bound_optimal(params: RateParams, array_kind: str = "ula") -> float:
    """Far-sphere rate bound at an optimal spacing.

    :func:`mrc_bound_shell` on the sphere of radius ``r_max``. The line-array
    branch drops the correlation excess entirely; the rectangular branch
    keeps the residual pair sum of its own geometry.
    """
    kind = array_kind.lower()
    # on the sphere the mean square range is r_max**2, an estimation ratio of 1.0
    if kind == "ula":
        return _mrc_rate(params, 0.0, 1.0)
    if kind == "ura":
        return _mrc_rate(params, omega_surface(params.geometry, params.lam), 1.0)
    raise SwarmMimoError(f"unknown array kind {array_kind!r}")


def zf_bound_two(expectation_estimate: float, prelog: float, rho_u: float) -> float:
    """Two-drone zero-forcing rate bound from the sampled inverse moment.

    ``expectation_estimate`` is the mean of ``1 / (M - (1 + cross/M))``
    where ``cross`` is the pairwise signature correlation sum; it comes from
    the Monte Carlo module.
    """
    if expectation_estimate <= 0:
        raise SwarmMimoError("inverse-SINR expectation must be positive")
    return prelog * math.log2(1.0 + rho_u / expectation_estimate)


def m_required(q_target: float, bandwidth: float, params: RateParams) -> int:
    """Smallest element count whose optimal-spacing bound meets a throughput.

    Inverts the line-array far-sphere bound at target ``q_target`` bits/s in
    ``bandwidth`` Hz and rounds up.
    """
    p = params
    if q_target < 0:
        raise SwarmMimoError("target throughput must be nonnegative")
    if q_target == 0:
        return 0
    est = 0.0
    if not math.isinf(p.rho_p):
        est = p.kappa * p.chi_wc * (1.0 + p.k * p.rho_u) / (p.rho_u**2 * p.rho_p)
    factor = (p.k - 1) + 1.0 / p.rho_u + est
    snr_needed = 2.0 ** (q_target / (p.prelog * bandwidth)) - 1.0
    return math.ceil(factor * snr_needed - 1e-9)
