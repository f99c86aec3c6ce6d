"""Antenna-spacing optimization and correlation-excess sweeps."""

from __future__ import annotations

import math

import numpy as np

from .errors import SwarmMimoError
from .geometry import ArrayGeometry, ShellRegion
from .rates import omega


def optimal_spacing_ula(m: int, lam: float, r_min: float) -> list[float]:
    """Line-array spacings nulling the correlation excess.

    All half-wavelength multiples whose aperture still fits inside the shell
    inner radius; empty when even the first multiple does not fit.
    """
    if r_min <= 0 or lam <= 0:
        raise SwarmMimoError("wavelength and inner radius must be positive")
    if m < 2:
        return [lam / 2.0]
    n_max = math.floor(2.0 * r_min / (lam * (m - 1)))
    return [n * lam / 2.0 for n in range(1, n_max + 1)]


def optimal_spacing_ura(m_x: int, m_y: int, lam: float, r_min: float) -> np.ndarray:
    """Rectangular-array spacing pairs with near-zero correlation excess.

    Rows ``(n lam/2, m lam/2)`` of an ``(n_pairs, 2)`` array, with
    ``n >= m_y`` and ``m >= m_x`` and an aperture that fits the inner radius,
    ordered most compact first; ``(0, 2)`` when none fits.
    """
    if r_min <= 0 or lam <= 0:
        raise SwarmMimoError("wavelength and inner radius must be positive")
    if m_x == 1 and m_y == 1:
        return np.array([[lam / 2.0, lam / 2.0]])
    limit = 4.0 * r_min**2 / lam**2

    def axis_cap(count_sq: int, start: int, other_min_sq) -> np.ndarray:
        # largest multiplier keeping the aperture inside the shell; a
        # one-element axis contributes nothing, so only its minimum is used
        room = limit - np.asarray(other_min_sq, dtype=float)
        if count_sq == 0:
            return np.full(room.shape, start)
        cap = np.minimum(np.floor(np.sqrt(np.maximum(room, 0.0) / count_sq)), start + 10_000)
        return np.where(room <= 0, start - 1, cap).astype(np.int64)

    cx = (m_x - 1) ** 2
    cy = (m_y - 1) ** 2
    ns = np.arange(m_y, int(axis_cap(cx, m_y, cy * m_x**2)) + 1)
    counts = np.maximum(axis_cap(cy, m_x, cx * ns**2) - m_x + 1, 0)
    n = np.repeat(ns, counts)
    m = m_x + np.arange(n.size) - np.repeat(np.cumsum(counts) - counts, counts)
    # squared aperture in units of (lam/2)^2, exact in integers
    key = cx * n**2 + cy * m**2
    keep = key < math.ceil(limit)
    n, m = n[keep], m[keep]
    # the pairs run in (n, m) order, so a stable sort on the key breaks ties by (n, m)
    order = np.argsort(key[keep], kind="stable")
    return np.column_stack([n[order], m[order]]) * lam / 2.0


def omega_sweep(
    m_x: int,
    m_y: int,
    lam: float,
    region: ShellRegion,
    ratios_x: np.ndarray,
    ratios_y: np.ndarray | None = None,
) -> np.ndarray:
    """Correlation excess across spacing/wavelength ratios.

    ``(nx,)`` values over ``delta_x`` for a line array, or the ``(nx, ny)``
    grid over ``(delta_x, delta_y)`` when ``ratios_y`` is given. A sweep over
    ``delta_x`` alone of an array with ``m_y > 1`` would stack its rows at
    ``delta_y = 0``, so it is refused.
    """
    line = ratios_y is None
    if line and m_y > 1:
        raise SwarmMimoError(f"a sweep over delta_x alone takes a line array, got m_y = {m_y}")
    ratios_x = np.asarray(ratios_x, dtype=float)
    ratios_y = np.zeros(1) if line else np.asarray(ratios_y, dtype=float)
    if ratios_x.size == 0 or ratios_y.size == 0:
        raise SwarmMimoError("spacing grid must be nonempty")
    vals = np.empty((ratios_x.size, ratios_y.size))
    for i, j in np.ndindex(vals.shape):
        geometry = ArrayGeometry(m_x, m_y, ratios_x[i] * lam, ratios_y[j] * lam)
        vals[i, j] = omega(geometry, lam, region)
    return vals[:, 0] if line else vals
