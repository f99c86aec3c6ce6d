"""Antenna-spacing optimization and correlation-excess sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SwarmMimoError
from .geometry import ArrayGeometry, ShellRegion
from .rates import omega


@dataclass(frozen=True)
class SpacingGrid:
    """Correlation excess sampled over spacing/wavelength grid points."""

    delta_x_over_lam: np.ndarray
    delta_y_over_lam: np.ndarray | None
    omega_values: np.ndarray


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
) -> SpacingGrid:
    """Evaluate the correlation excess across spacing/wavelength ratios.

    One-dimensional for a line array; a full grid when ``ratios_y`` is given.
    """
    ratios_x = np.asarray(ratios_x, dtype=float)
    if ratios_x.size == 0:
        raise SwarmMimoError("spacing grid must be nonempty")
    if ratios_y is None:
        vals = np.array(
            [
                omega(ArrayGeometry(m_x, m_y, rx * lam, 0.0), lam, region)
                for rx in ratios_x
            ]
        )
        return SpacingGrid(ratios_x, None, vals)
    ratios_y = np.asarray(ratios_y, dtype=float)
    vals = np.empty((ratios_x.size, ratios_y.size))
    for i, rx in enumerate(ratios_x):
        for j, ry in enumerate(ratios_y):
            vals[i, j] = omega(ArrayGeometry(m_x, m_y, rx * lam, ry * lam), lam, region)
    return SpacingGrid(ratios_x, ratios_y, vals)
