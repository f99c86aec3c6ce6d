"""Antenna-spacing optimization and correlation-excess sweeps."""

from __future__ import annotations

import math

import numpy as np

from .errors import SwarmMimoError
from .geometry import ArrayGeometry, ShellRegion
from .rates import omega


#: how many of the most compact optimal spacings each function returns
N_OPTIMAL = 20


def optimal_spacing_ula(m: int, lam: float, r_min: float) -> list[float]:
    """Line-array spacings nulling the correlation excess.

    The first :data:`N_OPTIMAL` half-wavelength multiples whose aperture
    still fits inside the shell inner radius; empty when even the first
    multiple does not fit.
    """
    if r_min <= 0 or lam <= 0:
        raise SwarmMimoError("wavelength and inner radius must be positive")
    if m < 2:
        return [lam / 2.0]
    n_max = math.floor(2.0 * r_min / (lam * (m - 1)))
    return [n * lam / 2.0 for n in range(1, min(n_max, N_OPTIMAL) + 1)]


def optimal_spacing_ura(m_x: int, m_y: int, lam: float, r_min: float) -> np.ndarray:
    """Rectangular-array spacing pairs with near-zero correlation excess.

    Rows ``(n lam/2, m lam/2)`` of an ``(n_pairs, 2)`` array, with
    ``n >= m_y`` and ``m >= m_x`` and an aperture that fits the inner radius:
    the :data:`N_OPTIMAL` most compact, ordered most compact first; ``(0, 2)``
    when none fits.
    """
    if r_min <= 0 or lam <= 0:
        raise SwarmMimoError("wavelength and inner radius must be positive")
    if m_x == 1 and m_y == 1:
        return np.array([[lam / 2.0, lam / 2.0]])
    cx = (m_x - 1) ** 2
    cy = (m_y - 1) ** 2
    # the squared aperture grows strictly along an axis that spans anything,
    # so the most compact pairs lie within N_OPTIMAL multipliers of the start;
    # a one-element axis contributes nothing, so only its start is used
    n, m = np.meshgrid(np.arange(m_y, m_y + (N_OPTIMAL if cx else 1)),
                       np.arange(m_x, m_x + (N_OPTIMAL if cy else 1)), indexing="ij")
    n, m = n.ravel(), m.ravel()
    # squared aperture in units of (lam/2)^2, exact in integers
    key = cx * n**2 + cy * m**2
    keep = key < math.ceil(4.0 * r_min**2 / lam**2)
    n, m = n[keep], m[keep]
    # the pairs run in (n, m) order, so a stable sort on the key breaks ties by (n, m)
    order = np.argsort(key[keep], kind="stable")[:N_OPTIMAL]
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
