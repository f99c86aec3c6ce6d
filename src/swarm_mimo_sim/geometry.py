"""Coordinate frames, array layout, the distance expansion, rotations, and position sampling.

Conventions used throughout the package:

* Right-handed reference frame with the antenna array in the z = 0 plane.
* Elevation ``theta`` is measured from the +z axis, azimuth ``phi`` from the
  +x axis toward +y.
* Rotations are parametrized by roll (about x), pitch (about y), and yaw
  (about z), composed as ``R = Rx @ Ry @ Rz`` (yaw applied first).
* All angles are radians, all lengths meters, and vectors are plain float64
  numpy arrays of shape ``(3,)`` (or batches ``(..., 3)``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SwarmMimoError

#: Propagation speed used for wavelength and coherence-time computations.
#: 3.0e8 keeps carrier/wavelength pairs like 2.4 GHz / 12.5 cm exact.
C_LIGHT = 3.0e8


def wavelength(f_c: float) -> float:
    "Carrier wavelength in meters."
    if f_c <= 0:
        raise SwarmMimoError(f"carrier frequency must be positive, got {f_c}")
    return C_LIGHT / f_c


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SphericalPosition:
    """Radial distance, elevation from +z, and azimuth of a point."""

    d: float
    theta: float
    phi: float

    def __post_init__(self):
        if not (self.d > 0 and np.isfinite(self.d)):
            raise SwarmMimoError(f"radial distance must be positive, got {self.d}")
        if not 0.0 <= self.theta <= math.pi:
            raise SwarmMimoError(f"elevation must be in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi < 2 * math.pi:
            raise SwarmMimoError(f"azimuth must be in [0, 2*pi), got {self.phi}")

    def to_cartesian(self) -> np.ndarray:
        st = math.sin(self.theta)
        return self.d * np.array(
            [math.cos(self.phi) * st, math.sin(self.phi) * st, math.cos(self.theta)]
        )


@dataclass(frozen=True)
class RotationAngles:
    """Roll/pitch/yaw triple; roll and pitch in [-pi/2, pi/2], yaw in [0, 2*pi)."""

    roll: float = 0.0
    pitch: float = 0.0
    yaw: float = 0.0

    def __post_init__(self):
        half = math.pi / 2
        if not -half <= self.roll <= half:
            raise SwarmMimoError(f"roll must be in [-pi/2, pi/2], got {self.roll}")
        if not -half <= self.pitch <= half:
            raise SwarmMimoError(f"pitch must be in [-pi/2, pi/2], got {self.pitch}")
        if not 0.0 <= self.yaw < 2 * math.pi + 1e-12:
            raise SwarmMimoError(f"yaw must be in [0, 2*pi), got {self.yaw}")


@dataclass(frozen=True)
class ArrayGeometry:
    """Rectangular array: ``m_x * m_y`` elements spaced ``delta_x``/``delta_y``.

    Elements are indexed 1-based by ``l = (q - 1) * m_x + p`` with
    ``p in 1..m_x`` along x and ``q in 1..m_y`` along y; element ``l`` sits at
    ``((p - 1) * delta_x, (q - 1) * delta_y, 0)``.
    """

    m_x: int
    m_y: int = 1
    delta_x: float = 0.0
    delta_y: float = 0.0

    def __post_init__(self):
        if self.m_x < 1 or self.m_y < 1:
            raise SwarmMimoError("element counts must be >= 1")
        if self.delta_x < 0 or self.delta_y < 0:
            raise SwarmMimoError("element spacings must be nonnegative")
        if not (np.isfinite(self.delta_x) and np.isfinite(self.delta_y)):
            raise SwarmMimoError("element spacings must be finite")

    @property
    def m(self) -> int:
        return self.m_x * self.m_y

    def aperture(self) -> float:
        "Diagonal extent of the array."
        return math.hypot((self.m_x - 1) * self.delta_x, (self.m_y - 1) * self.delta_y)


@dataclass(frozen=True)
class ShellRegion:
    """Spherical shell ``r_min <= r <= r_max`` centered on the array origin."""

    r_min: float
    r_max: float

    def __post_init__(self):
        if not 0 < self.r_min <= self.r_max:
            raise SwarmMimoError(
                f"shell requires 0 < r_min <= r_max, got ({self.r_min}, {self.r_max})"
            )

    @property
    def is_surface(self) -> bool:
        return self.r_max - self.r_min <= 1e-9 * self.r_max

    def mean_square_radius(self) -> float:
        "E[r^2] under the shell density 3 r^2 / (r_max^3 - r_min^3)."
        if self.is_surface:
            return self.r_max**2
        return (
            3.0
            * (self.r_max**5 - self.r_min**5)
            / (5.0 * (self.r_max**3 - self.r_min**3))
        )


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------


def rotation_matrix(angles: RotationAngles) -> np.ndarray:
    """3x3 rotation matrix ``Rx(roll) @ Ry(pitch) @ Rz(yaw)``."""
    return rotation_matrices(
        np.array([angles.roll]), np.array([angles.pitch]), np.array([angles.yaw])
    )[0]


def rotation_matrices(roll, pitch, yaw) -> np.ndarray:
    """Batched rotation matrices for angle arrays, shape ``(..., 3, 3)``."""
    roll, pitch, yaw = np.broadcast_arrays(
        np.asarray(roll, float), np.asarray(pitch, float), np.asarray(yaw, float)
    )
    cx, sx = np.cos(roll), np.sin(roll)
    cy, sy = np.cos(pitch), np.sin(pitch)
    cz, sz = np.cos(yaw), np.sin(yaw)
    r = np.empty(roll.shape + (3, 3))
    r[..., 0, 0] = cy * cz
    r[..., 0, 1] = -cy * sz
    r[..., 0, 2] = sy
    r[..., 1, 0] = cx * sz + sx * sy * cz
    r[..., 1, 1] = cx * cz - sx * sy * sz
    r[..., 1, 2] = -sx * cy
    r[..., 2, 0] = sx * sz - cx * sy * cz
    r[..., 2, 1] = sx * cz + cx * sy * sz
    r[..., 2, 2] = cx * cy
    return r


# ---------------------------------------------------------------------------
# array layout and distances
# ---------------------------------------------------------------------------


def element_positions(geometry: ArrayGeometry) -> np.ndarray:
    """Positions of all elements, shape ``(M, 3)``, ordered by index ``l``."""
    p = np.arange(geometry.m_x) * geometry.delta_x
    q = np.arange(geometry.m_y) * geometry.delta_y
    out = np.zeros((geometry.m, 3))
    out[:, 0] = np.tile(p, geometry.m_y)
    out[:, 1] = np.repeat(q, geometry.m_x)
    return out


def approx_distance(uav: SphericalPosition, geometry: ArrayGeometry, l: int) -> float:
    """Second-order expansion of the element-to-drone distance around the radial distance.

    The first-order term is the projection of the element offset onto the
    drone direction; the second-order term is
    ``[(p-1)^2 dx^2 + (q-1)^2 dy^2] / (2 d)``, which matters whenever the
    distance is comparable to the array aperture.

    Oracle: this is the expansion whose phase ``montecarlo.validate_expectations``
    samples and ``rates.cb_db`` integrates in closed form; tests hold it against
    the exact distance.
    """
    if uav.d <= geometry.aperture():
        raise SwarmMimoError(
            f"distance {uav.d} must exceed the array aperture {geometry.aperture()}"
        )
    if not 1 <= l <= geometry.m:
        raise SwarmMimoError(f"element index {l} outside 1..{geometry.m}")
    q, p = divmod(l - 1, geometry.m_x)
    xoff = p * geometry.delta_x
    yoff = q * geometry.delta_y
    d = uav.d
    first = -math.sin(uav.theta) * (xoff * math.cos(uav.phi) + yoff * math.sin(uav.phi))
    second = (xoff**2 + yoff**2) / (2.0 * d)
    return d + first + second


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sample_shell_positions(
    region: ShellRegion, rng: np.random.Generator, n: int
) -> np.ndarray:
    """Draw ``n`` uniform shell positions as Cartesian rows ``(n, 3)``."""
    d, theta, phi = _shell_draws(region, rng, n)
    st = np.sin(theta)
    return np.column_stack((d * np.cos(phi) * st, d * np.sin(phi) * st, d * np.cos(theta)))


def _shell_draws(region: ShellRegion, rng: np.random.Generator, n: int):
    # inverse-CDF draws: radius from the r^2-weighted density, cos(theta) uniform
    lo, hi = region.r_min**3, region.r_max**3
    d = np.cbrt(rng.uniform(size=n) * (hi - lo) + lo)
    theta = np.arccos(1.0 - 2.0 * rng.uniform(size=n))
    phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return d, theta, phi


#: Attitude intervals used for randomly oriented antennas:
#: roll and pitch span [-pi/2, pi/2], yaw spans [0, pi/2].
DEFAULT_ORIENTATION_RANGES = (
    (-math.pi / 2, math.pi / 2),
    (-math.pi / 2, math.pi / 2),
    (0.0, math.pi / 2),
)


def sample_orientation(
    rng: np.random.Generator,
    ranges=DEFAULT_ORIENTATION_RANGES,
) -> RotationAngles:
    """Draw an independent uniform roll/pitch/yaw triple from ``ranges``."""
    r = sample_orientations(rng, 1, ranges)
    return RotationAngles(float(r[0, 0]), float(r[0, 1]), float(r[0, 2]))


def sample_orientations(
    rng: np.random.Generator,
    n: int,
    ranges=DEFAULT_ORIENTATION_RANGES,
) -> np.ndarray:
    """Draw ``n`` roll/pitch/yaw triples, returned as an ``(n, 3)`` array."""
    legal = ((-math.pi / 2, math.pi / 2), (-math.pi / 2, math.pi / 2), (0.0, 2 * math.pi))
    out = np.empty((n, 3))
    for i, ((lo, hi), (llo, lhi)) in enumerate(zip(ranges, legal)):
        if not (llo <= lo <= hi <= lhi):
            raise SwarmMimoError(
                f"orientation interval ({lo}, {hi}) outside legal range ({llo}, {lhi})"
            )
        out[:, i] = rng.uniform(lo, hi, size=n)
    return out
