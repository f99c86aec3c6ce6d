"""Area-surveillance mission: camera math, coverage paths, throughput/power traces.

A fleet of drones partitions a rectangle into a grid of cells, each drone
flying a boustrophedon sweep of its cell at constant speed and altitude while
streaming to the ground-station array. Throughput uses the instantaneous
combining SINR; transmit power follows the channel-inversion link budget with
watt-denominated noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from .channel import (
    CoherenceParams,
    coherence_prelog,
    channel_matrix,
    instantaneous_sinr_mrc,
    ml_estimate,
)
from .errors import SwarmMimoError
from .montecarlo import substream
from .polarization import AntennaConfig, DipoleExcitation, GroundArray

BOLTZMANN = 1.380649e-23


@dataclass(frozen=True)
class CameraModel:
    """Sensor resolution, optics, and mission overlap requirements."""

    r_px: int
    r_py: int
    bits_per_pixel: int = 24
    pixel_size: float = 2.3e-6
    focal_length: float = 5.0e-3
    compression: float = 1.0
    fps: float = 60.0
    overlap_front: float = 0.7
    overlap_side: float = 0.6

    def __post_init__(self):
        if self.r_py <= self.r_px:
            raise SwarmMimoError("long sensor dimension r_py must exceed r_px")
        if min(self.r_px, self.bits_per_pixel, self.pixel_size, self.focal_length) <= 0:
            raise SwarmMimoError("camera parameters must be positive")
        if self.compression < 1.0:
            raise SwarmMimoError("compression ratio must be >= 1")
        if not (0.0 <= self.overlap_front < 1.0 and 0.0 <= self.overlap_side < 1.0):
            raise SwarmMimoError("overlaps must lie in [0, 1)")


@dataclass(frozen=True)
class MissionSpec:
    """Geometry of the surveyed area, the fleet, and the radio link."""

    x1: float
    x2: float
    y1: float
    y2: float
    k: int
    speed: float
    gsd: float
    camera: CameraModel
    geometry: geo.ArrayGeometry
    f_c: float = 2.4e9
    bandwidth: float = 20.0e6
    b_c: float = 3.0e6
    rho_u: float = 10.0
    rho_p: float = 100.0
    tau_dl_frac: float = 0.125
    chi_wc: float = 0.1
    excitation: str = "circular"
    orientation_seed: int = 0
    altitude: float | None = None
    noise_figure_db: float = 7.0
    temperature: float = 290.0
    p_u_max: float = math.inf
    grid_x: int | None = None
    grid_y: int | None = None
    cross_track_pixels: int | None = None

    def __post_init__(self):
        if self.x2 <= self.x1 or self.y2 <= self.y1:
            raise SwarmMimoError("area bounds must satisfy x2 > x1 and y2 > y1")
        if self.k < 1 or self.speed <= 0 or self.gsd <= 0:
            raise SwarmMimoError("fleet size, speed, and gsd must be positive")
        gx, gy = self.fleet_grid()
        if gx * gy != self.k:
            raise SwarmMimoError(f"grid {gx}x{gy} does not hold {self.k} drones")

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    @property
    def flight_altitude(self) -> float:
        return self.altitude if self.altitude is not None else altitude_for_gsd(self.gsd, self.camera)

    @property
    def noise_density(self) -> float:
        "Noise spectral density in joules, including the receiver noise figure."
        return BOLTZMANN * self.temperature * 10.0 ** (self.noise_figure_db / 10.0)

    @property
    def cross_track(self) -> int:
        return self.cross_track_pixels if self.cross_track_pixels is not None else self.camera.r_py

    @property
    def d_wc(self) -> float:
        "Largest array-to-drone distance over the mission volume."
        h = self.flight_altitude
        corners = [(self.x1, self.y1), (self.x1, self.y2), (self.x2, self.y1), (self.x2, self.y2)]
        return max(math.sqrt(x * x + y * y + h * h) for x, y in corners)

    def fleet_grid(self) -> tuple[int, int]:
        "Columns x rows of the cell grid; prefers at least as many columns."
        if self.grid_x is not None or self.grid_y is not None:
            gx = self.grid_x if self.grid_x is not None else self.k // max(self.grid_y, 1)
            gy = self.grid_y if self.grid_y is not None else self.k // max(gx, 1)
            return gx, gy
        root = math.sqrt(self.k)
        for gx in range(math.ceil(root), self.k + 1):
            if self.k % gx == 0:
                return gx, self.k // gx
        return self.k, 1

    def coherence(self) -> CoherenceParams:
        return CoherenceParams(
            f_c=self.f_c,
            bandwidth=self.bandwidth,
            b_c=self.b_c,
            v_max=self.speed,
            tau_dl_frac=self.tau_dl_frac,
        )


# ---------------------------------------------------------------------------
# camera and timing formulas
# ---------------------------------------------------------------------------


def altitude_for_gsd(gsd: float, camera: CameraModel) -> float:
    "Flight altitude that realizes the target ground sampling distance."
    if gsd <= 0:
        raise SwarmMimoError("gsd must be positive")
    return gsd * camera.focal_length / camera.pixel_size


def image_rate(camera: CameraModel, gsd: float, v: float) -> float:
    """Per-drone bit rate sustaining continuous still-image coverage.

    One image of ``r_px * r_py * b / CR`` bits is produced every
    ``r_py * gsd * (1 - overlap_front) / v`` seconds.
    """
    if gsd <= 0 or v <= 0:
        raise SwarmMimoError("gsd and speed must be positive")
    return (
        camera.r_px
        * camera.bits_per_pixel
        * v
        / (gsd * camera.compression * (1.0 - camera.overlap_front))
    )


def video_rate(camera: CameraModel, k: int = 1) -> float:
    "Sum bit rate of ``k`` drones streaming compressed video."
    if k < 1:
        raise SwarmMimoError("drone count must be >= 1")
    return k * camera.r_px * camera.r_py * camera.bits_per_pixel * camera.fps / camera.compression


def mission_time(spec: MissionSpec, cross_track_pixels: int | None = None) -> float:
    """Seconds to sweep the whole area with the fleet.

    ``cross_track_pixels`` selects which sensor dimension spans the swath;
    the default is the long dimension (camera mounted with its long side
    across the flight direction).
    """
    pixels = cross_track_pixels if cross_track_pixels is not None else spec.cross_track
    swath = pixels * spec.gsd * (1.0 - spec.camera.overlap_side)
    return spec.area / (spec.k * spec.speed * swath)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


def _cell_waypoints(spec: MissionSpec, k: int) -> np.ndarray:
    "Serpentine waypoints of drone k (1-based), constant altitude."
    gx, gy = spec.fleet_grid()
    j, i = divmod(k - 1, gx)  # row j (0-based), column i
    cell_w = (spec.x2 - spec.x1) / gx
    cell_h = (spec.y2 - spec.y1) / gy
    x0 = spec.x1 + i * cell_w
    y_top = spec.y1 + (j + 1) * cell_h
    y_bot = spec.y1 + j * cell_h
    h = spec.flight_altitude
    swath = spec.cross_track * spec.gsd * (1.0 - spec.camera.overlap_side)
    n_rows = max(1, math.ceil(cell_w / swath))
    pts = [(x0, y_top, h)]
    x = x0
    going_down = True
    for r in range(n_rows):
        y_next = y_bot if going_down else y_top
        pts.append((x, y_next, h))
        if r < n_rows - 1:
            x = x0 + (r + 1) * swath
            pts.append((x, y_next, h))
        going_down = not going_down
    return np.asarray(pts)


def _path_table(spec: MissionSpec, k: int):
    "Waypoints, segment vectors, segment lengths and cumulative lengths of drone k."
    pts = _cell_waypoints(spec, k)
    seg = np.diff(pts, axis=0)
    lengths = np.linalg.norm(seg, axis=1)
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    return pts, seg, lengths, cum


def _position_on_path(path, s: float):
    "Point at arc length ``s`` along a path table; clamps past the end."
    pts, seg, lengths, cum = path
    if s >= cum[-1]:
        return pts[-1].copy(), True
    idx = int(np.searchsorted(cum, s, side="right")) - 1
    frac = (s - cum[idx]) / lengths[idx]
    return pts[idx] + frac * seg[idx], False


def trajectory_position(spec: MissionSpec, k: int, t: float):
    """Drone position at time ``t`` along its sweep; clamps past the end.

    Returns ``(position, finished)``.
    """
    if t < 0:
        raise SwarmMimoError("time must be nonnegative")
    if not 1 <= k <= spec.k:
        raise SwarmMimoError(f"drone index {k} outside 1..{spec.k}")
    return _position_on_path(_path_table(spec, k), spec.speed * t)


# ---------------------------------------------------------------------------
# link budget and simulation
# ---------------------------------------------------------------------------


def link_budget_coefficients(spec: MissionSpec, d_k: float, d_wc: float | None = None):
    """Watt coefficients (data, pilot) of ``p = c_d / chi_mean + c_p / chi_wc``.

    ``c_d`` scales with the drone's squared distance, ``c_p`` with the
    worst-case distance (the far mission corner unless overridden) and the
    pilot share of the coherence interval.
    """
    lam = geo.wavelength(spec.f_c)
    t_len, prelog = coherence_prelog(spec.coherence(), spec.k)
    if d_wc is None:
        d_wc = spec.d_wc
    base = spec.bandwidth * spec.noise_density * (4.0 * math.pi / lam) ** 2
    c_data = base * prelog * spec.rho_u * d_k**2
    c_pilot = base * (spec.k / t_len) * spec.rho_p * d_wc**2
    return c_data, c_pilot


def instantaneous_power(spec: MissionSpec, d_k: float, chi_mean: float,
                        d_wc: float | None = None) -> float:
    "Total transmit power (W) needed at distance ``d_k`` with mean gain ``chi_mean``."
    if chi_mean <= 0 or spec.chi_wc <= 0:
        raise SwarmMimoError("gains must be positive")
    c_data, c_pilot = link_budget_coefficients(spec, d_k, d_wc)
    return c_data / chi_mean + c_pilot / spec.chi_wc


def _gs_configs(spec: MissionSpec):
    "Frozen, arbitrarily oriented array elements for the mission."
    exc = (
        DipoleExcitation.circular()
        if spec.excitation == "circular"
        else DipoleExcitation.linear()
    )
    rng = substream(spec.orientation_seed, 0x6E0)
    angles = geo.sample_orientations(rng, spec.geometry.m)
    return [
        AntennaConfig(exc, geo.RotationAngles(*angles[i]))
        for i in range(spec.geometry.m)
    ]


def run_mission(
    spec: MissionSpec,
    step: float,
    seed: int,
    duration: float | None = None,
    csi: str = "estimated",
):
    """Simulate the sweep and return per-step, per-drone link records.

    Produces a structured array with fields ``t_s, drone_id, x_m, y_m, z_m,
    throughput_bps, power_w``. Drone antennas are cross-dipoles in the x-z
    plane (level flight); ground elements keep their frozen orientations.
    """
    if step <= 0:
        raise SwarmMimoError("time step must be positive")
    if duration is None:
        duration = mission_time(spec)
    lam = geo.wavelength(spec.f_c)
    t_len, prelog = coherence_prelog(spec.coherence(), spec.k)
    ground = GroundArray.build(_gs_configs(spec), spec.f_c, spec.geometry)
    paths = [_path_table(spec, k) for k in range(1, spec.k + 1)]
    # dipoles along the x and z axes: yaw the antenna frame by a quarter turn
    uav_rot = geo.rotation_matrix(geo.RotationAngles(yaw=math.pi / 2))
    uav_rots = np.broadcast_to(uav_rot, (spec.k, 3, 3)).copy()
    p_p = spec.rho_p * (4.0 * math.pi * spec.d_wc / lam) ** 2 / spec.chi_wc
    rng = substream(seed, 0x51)
    times = np.arange(0.0, duration + 0.5 * step, step)
    rows = np.zeros(
        times.size * spec.k,
        dtype=[
            ("t_s", float),
            ("drone_id", int),
            ("x_m", float),
            ("y_m", float),
            ("z_m", float),
            ("throughput_bps", float),
            ("power_w", float),
        ],
    )
    out = 0
    for t in times:
        pos = np.stack([_position_on_path(path, spec.speed * t)[0] for path in paths])
        g = channel_matrix(ground, pos, uav_rots)
        mean_gain = np.mean(np.abs(g) ** 2, axis=0)
        powers = np.minimum(spec.rho_u / mean_gain, spec.p_u_max)
        if csi == "estimated":
            g_hat = ml_estimate(g, p_p, rng).g_hat
        else:
            g_hat = g
        sinr = instantaneous_sinr_mrc(g, g_hat, powers)
        throughput = prelog * spec.bandwidth * np.log2(1.0 + sinr)
        dist = np.linalg.norm(pos, axis=1)
        chi_mean = mean_gain / (lam / (4.0 * math.pi * dist)) ** 2
        watts = np.array(
            [instantaneous_power(spec, dist[i], chi_mean[i]) for i in range(spec.k)]
        )
        for i in range(spec.k):
            rows[out] = (t, i + 1, pos[i, 0], pos[i, 1], pos[i, 2], throughput[i], watts[i])
            out += 1
    return rows


def local_extrema_count(values: np.ndarray) -> int:
    "Strict local minima plus maxima of a sampled series."
    v = np.asarray(values, dtype=float)
    d = np.diff(v)
    d = d[d != 0.0]
    if d.size < 2:
        return 0
    return int(np.count_nonzero(np.sign(d[1:]) != np.sign(d[:-1])))
