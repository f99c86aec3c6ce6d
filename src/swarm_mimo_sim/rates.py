"""Closed-form ergodic-rate lower bounds and the shell moments under them.

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
# shell moments
# ---------------------------------------------------------------------------


def cb_db(b, region: ShellRegion):
    """Moments E[cos(b/d)] and E[sin(b/d)] for a shell-distributed radius d.

    The radius density is ``3 r^2 / (r_max^3 - r_min^3)`` on the shell; both
    moments are available in closed form through Si and Ci. Even/odd parity
    in ``b`` is applied, and the surface limit returns
    ``(cos(b/R), sin(b/R))`` exactly.
    """
    arr = np.asarray(b, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    sign = np.sign(arr)
    mag = np.abs(arr)
    c = np.ones_like(mag)
    d = np.zeros_like(mag)
    pos = mag > 0
    if np.any(pos):
        m = mag[pos]
        if region.r_max - region.r_min < 1e-6 * region.r_max:  # a thin shell or a surface
            c[pos] = np.cos(m / region.r_max)
            d[pos] = np.sin(m / region.r_max)
        else:
            c[pos], d[pos] = _cd_shell(m, region.r_min, region.r_max)
    d *= sign
    if scalar:
        return float(c[0]), float(d[0])
    return c, d


def _cd_shell(b, r_min, r_max):
    "Closed-form shell moments for strictly positive b; both endpoints share one Si/Ci call."
    args = np.concatenate([b / r_max, b / r_min])
    s, c_int = si_ci_arrays(args)

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


# lanes per cb_db call in omega; bounds the working set of a large array
_CHUNK_LANES = 4096


def _kept_offsets(geometry: ArrayGeometry, lam: float):
    """The (dp, dq) element offsets that enter the pair sum, in order, and their weights.

    A weight is :func:`expected_phase_sinc` squared: one ``math.hypot`` per
    offset, as that function computes it, then one ``np.sinc`` over all. The
    (0, 0) offset and weights below 1e-30 are left out, so a line array at a
    multiple of half a wavelength keeps no offset.
    """
    mx, my = geometry.m_x, geometry.m_y
    offsets = [(a, b) for a in range(-(mx - 1), mx) for b in range(-(my - 1), my)]
    hyp = [math.hypot(a * geometry.delta_x, b * geometry.delta_y) for a, b in offsets]
    w = np.sinc((2.0 / lam) * np.array(hyp)) ** 2
    w[len(offsets) // 2] = 0.0  # the (0, 0) offset, in the middle
    kept = np.flatnonzero(w >= 1e-30)
    return [offsets[i] for i in kept.tolist()], w[kept]


def omega(geometry: ArrayGeometry, lam: float, region: ShellRegion) -> float:
    """Excess signature correlation for shell-uniform drone positions.

    The sum over ordered element pairs of the pair's offset weight (see
    :func:`_kept_offsets`) times C^2 + D^2, the squared :func:`cb_db` moments
    at the pair's phase constant. Nonnegative; zero for a line array at
    multiples of half a wavelength. Requires the shell inner radius to
    exceed the array aperture.

    A pair's phase constant depends only on its integer index products
    (p, q). Each distinct product is evaluated once, in :func:`cb_db` calls
    of at most ``_CHUNK_LANES`` lanes; a lane's Si/Ci value does not depend
    on the other lanes of its call (see :func:`si_ci_arrays`). Each offset's
    terms are then added in order from 0.0 with ``np.bincount``, and the
    weighted offset sums in order with ``cumsum``, so the result is
    bit-identical to one :func:`cb_db` call per offset whose terms are added
    with ``sum()``, accumulated over the offsets in order.
    """
    if region.r_min <= geometry.aperture():
        raise SwarmMimoError(
            f"inner radius {region.r_min} must exceed the aperture "
            f"{geometry.aperture():.3f}"
        )
    offsets, weights = _kept_offsets(geometry, lam)
    if not offsets:
        return 0.0
    mx, my = geometry.m_x, geometry.m_y
    dx2, dy2 = geometry.delta_x**2, geometry.delta_y**2
    scale = math.pi / lam
    qspan = 2 * (my - 1) ** 2 + 1  # code p * qspan + q orders keys as (p, q)
    px = {a: _offset_products(mx, a) * qspan for a in {a for a, _ in offsets}}
    qy = {b: _offset_products(my, b) for b in {b for _, b in offsets}}
    codes = [(px[a][:, None] + qy[b][None, :]).ravel() for a, b in offsets]
    sizes = [c.size for c in codes]
    del offsets
    codes = np.concatenate(codes)  # rebound first, so the list is freed before the sort
    keys, inverse = np.unique(codes, return_inverse=True)
    del codes
    vals = np.empty(keys.size)
    for lo in range(0, keys.size, _CHUNK_LANES):
        k = keys[lo:lo + _CHUNK_LANES]
        p = (k + (qspan - 1) // 2) // qspan
        q = k - p * qspan
        c, d = cb_db(scale * (p * dx2 + q * dy2), region)
        vals[lo:lo + _CHUNK_LANES] = c**2 + d**2
    # each offset's terms, added in order from 0.0
    sums = np.bincount(np.repeat(np.arange(len(sizes)), sizes), weights=vals[inverse])
    return np.cumsum(weights * sums)[-1]


def omega_bytes(m: int) -> int:
    """Bytes :func:`omega` holds at its peak, in ``np.unique``: about 50 per ordered pair.

    The codes and unique's flattened copy, permutation, sorted copy, running
    count and inverse (8 bytes each), its mask and keys. tracemalloc read
    49.4-50.6 on lines of 400 to 2,000 elements and on 24² to 64² arrays.
    """
    return 50 * m * (m - 1)


def omega_surface(geometry: ArrayGeometry, lam: float) -> float:
    """Limit of :func:`omega` when drones sit on a far sphere.

    There C^2 + D^2 = 1 for every pair, so the pair sum is a weighted count
    of element pairs: each kept offset (dp, dq) adds its weight times its
    (m_x - |dp|)(m_y - |dq|) ordered pairs, offset by offset in the order in
    which :func:`omega` adds its offsets. No per-pair work is done.
    """
    offsets, weights = _kept_offsets(geometry, lam)
    if not offsets:
        return 0.0
    counts = np.array([(geometry.m_x - abs(a)) * (geometry.m_y - abs(b)) for a, b in offsets])
    return np.cumsum(weights * counts)[-1]


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
