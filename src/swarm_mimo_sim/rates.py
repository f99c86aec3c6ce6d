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


# lanes per cb_db call in omega, and about the pair terms per group of offsets
# in its passes; bounds the working set of a large array
_CHUNK_LANES = 4096


def _offset_blocks(count: int):
    """Every offset's index products on one axis, in blocks of about ``_CHUNK_LANES``.

    Offset d from -(count - 1) to count - 1, one after another: its products
    a^2 - (a - d)^2 = d (2a - d) over the positions a with a - d in range,
    in increasing a, ``count - |d|`` of them.
    """
    a = np.arange(count)
    rows = max(1, _CHUNK_LANES // count)
    for lo in range(1 - count, count, rows):
        d = np.arange(lo, min(lo + rows, count))[:, None]
        yield (d * (2 * a - d))[(a >= d) & (a < count + d)]


def _axis_marks(count: int):
    """Marks of one axis's index products a^2 - a'^2 (0 <= a, a' < count), at p + (count - 1)^2.

    A direct-address table over [-(count - 1)^2, (count - 1)^2], so the
    axis's pairs are never held or sorted at once.
    """
    top = (count - 1) ** 2
    seen = np.zeros(2 * top + 1, dtype=bool)
    for p in _offset_blocks(count):
        seen[top + p] = True
    return seen


def _axis_ranks(count: int):
    """One axis's distinct index products, and the rank among them of every offset's products.

    The products in increasing order; the ranks of the products of
    :func:`_offset_blocks`, in its order; and the index at which each
    offset's ranks start.
    """
    products = np.flatnonzero(_axis_marks(count)) - (count - 1) ** 2
    ranks = np.empty(count * count, dtype=np.intp)
    at = 0
    for p in _offset_blocks(count):
        ranks[at:at + p.size] = np.searchsorted(products, p)
        at += p.size
    sizes = count - np.abs(np.arange(1 - count, count))
    return products, ranks, np.cumsum(sizes) - sizes


_EXACT_COUNT_MAX = 1024  # omega_bytes counts an axis's products up to this many elements


def _product_count(count: int) -> int:
    """How many distinct index products one axis has.

    Counted up to ``_EXACT_COUNT_MAX`` elements; above, bounded by the axis's
    ordered pairs of distinct positions, plus 0.
    """
    if count > _EXACT_COUNT_MAX:
        return count * (count - 1) + 1
    return int(np.count_nonzero(_axis_marks(count)))


def _kept_offsets(geometry: ArrayGeometry, lam: float):
    """The (dp, dq) element offsets that enter the pair sum, as rows in order, and their weights.

    A weight is :func:`expected_phase_sinc` squared: one ``math.hypot`` per
    offset, as that function computes it, then one ``np.sinc`` over all. The
    (0, 0) offset and weights below 1e-30 are left out, so a line array at a
    multiple of half a wavelength keeps no offset.
    """
    mx, my = geometry.m_x, geometry.m_y
    hyp = [math.hypot(a * geometry.delta_x, b * geometry.delta_y)
           for a in range(-(mx - 1), mx) for b in range(-(my - 1), my)]
    w = np.sinc((2.0 / lam) * np.array(hyp)) ** 2
    w[len(hyp) // 2] = 0.0  # the (0, 0) offset, in the middle
    kept = np.flatnonzero(w >= 1e-30)
    return np.column_stack(np.divmod(kept, 2 * my - 1)) - [mx - 1, my - 1], w[kept]


def omega(geometry: ArrayGeometry, lam: float, region: ShellRegion) -> float:
    """Excess signature correlation for shell-uniform drone positions.

    The sum over ordered element pairs of the pair's offset weight (see
    :func:`_kept_offsets`) times C^2 + D^2, the squared :func:`cb_db` moments
    at the pair's phase constant. Nonnegative; zero for a line array at
    multiples of half a wavelength. Requires the shell inner radius to
    exceed the array aperture.

    A pair's phase constant depends only on its integer index products
    (p, q). Each axis's distinct products are ranked (see
    :func:`_axis_ranks`), and a boolean table of (p rank, q rank) cells
    marks the cells that the kept offsets' pairs reach, over groups of
    offsets of about ``_CHUNK_LANES`` pair terms. Each marked cell is
    evaluated once, in table order, which is (p, q) order, in :func:`cb_db`
    calls of at most ``_CHUNK_LANES`` lanes; a lane's Si/Ci value does not
    depend on the other lanes of its call (see :func:`si_ci_arrays`). A
    second pass over the groups adds each offset's terms in order from 0.0
    with ``np.bincount``, and the weighted offset sums are added in order
    with ``cumsum``, so the result is bit-identical to one :func:`cb_db`
    call per offset whose terms are added with ``sum()``, accumulated over
    the offsets in order. No array is held per pair of elements, only per
    pair of positions on each axis (see :func:`omega_bytes`).
    """
    if region.r_min <= geometry.aperture():
        raise SwarmMimoError(
            f"inner radius {region.r_min} must exceed the aperture "
            f"{geometry.aperture():.3f}"
        )
    offsets, weights = _kept_offsets(geometry, lam)
    if not offsets.size:
        return 0.0
    mx, my = geometry.m_x, geometry.m_y
    dx2, dy2 = geometry.delta_x**2, geometry.delta_y**2
    scale = math.pi / lam
    p_values, p_ranks, p_starts = _axis_ranks(mx)
    q_values, q_ranks, q_starts = _axis_ranks(my)
    cols = q_values.size
    a, b = offsets.T
    p_first, q_first = p_starts[a + mx - 1], q_starts[b + my - 1]
    q_len = my - np.abs(b)
    sizes = (mx - np.abs(a)) * q_len
    first = np.cumsum(sizes) - sizes  # each offset's first pair term
    group = first // _CHUNK_LANES
    bounds = [0, *(np.flatnonzero(np.diff(group)) + 1).tolist(), a.size]

    def cells(lo, hi):
        "Table cells of the pair terms of offsets lo to hi, in order, and each term's offset - lo."
        offset = np.repeat(np.arange(hi - lo), sizes[lo:hi])
        at = np.arange(offset.size) - (first[lo:hi] - first[lo])[offset]  # within its offset
        i, j = np.divmod(at, q_len[lo:hi][offset])
        row = p_ranks[p_first[lo:hi][offset] + i]
        return row * cols + q_ranks[q_first[lo:hi][offset] + j], offset

    marked = np.zeros(p_values.size * cols, dtype=bool)
    for lo, hi in zip(bounds, bounds[1:]):
        marked[cells(lo, hi)[0]] = True
    vals = np.empty(marked.size)  # C^2 + D^2 at the marked cells
    lanes = np.empty(0, dtype=np.intp)  # marked cells found and not yet evaluated
    for lo in range(0, marked.size, _CHUNK_LANES):
        lanes = np.concatenate([lanes, lo + np.flatnonzero(marked[lo:lo + _CHUNK_LANES])])
        last = lo + _CHUNK_LANES >= marked.size
        while lanes.size >= _CHUNK_LANES or (last and lanes.size):
            k, lanes = lanes[:_CHUNK_LANES], lanes[_CHUNK_LANES:]
            p, q = np.divmod(k, cols)
            c, d = cb_db(scale * (p_values[p] * dx2 + q_values[q] * dy2), region)
            vals[k] = c**2 + d**2
    del marked
    sums = np.empty(a.size)  # each offset's terms, added in order from 0.0
    for lo, hi in zip(bounds, bounds[1:]):
        cell, offset = cells(lo, hi)
        sums[lo:hi] = np.bincount(offset, weights=vals[cell])
    return np.cumsum(weights * sums)[-1]


def omega_bytes(m_x: int, m_y: int) -> int:
    """Bytes :func:`omega` holds at its peak, while it evaluates the marked cells.

    9 a cell of the (p, q) table, taken as all marked: its mark and its
    C^2 + D^2. 8 an ordered pair of positions on each axis, for the ranks of
    each offset's products, and 8 a distinct product. 80 an offset, for the
    kept offsets and where their terms sit. 330 a lane of one :func:`cb_db`
    call of ``_CHUNK_LANES`` lanes, whose Si/Ci holds less when its
    arguments lie below 2 (the series) than above (the continued fraction).
    tracemalloc read 0.90 to 1.08 of this on 16 x 16, 24 x 24, 32 x 32 and
    500-element arrays. See :func:`_product_count` for the table's size.
    """
    p, q = _product_count(m_x), _product_count(m_y)
    offsets = (2 * m_x - 1) * (2 * m_y - 1)
    return 9 * p * q + 8 * (m_x**2 + m_y**2 + p + q) + 80 * offsets + 330 * _CHUNK_LANES


def omega_surface(geometry: ArrayGeometry, lam: float) -> float:
    """Limit of :func:`omega` when drones sit on a far sphere.

    There C^2 + D^2 = 1 for every pair, so the pair sum is a weighted count
    of element pairs: each kept offset (dp, dq) adds its weight times its
    (m_x - |dp|)(m_y - |dq|) ordered pairs, offset by offset in the order in
    which :func:`omega` adds its offsets. No per-pair work is done.
    """
    offsets, weights = _kept_offsets(geometry, lam)
    if not offsets.size:
        return 0.0
    counts = np.prod([geometry.m_x, geometry.m_y] - np.abs(offsets), axis=1)
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
