"""Area-surveillance mission: camera math, coverage paths, throughput/power traces.

A fleet of drones partitions a rectangle into a grid of cells, each drone
flying a boustrophedon sweep of its cell at constant speed and altitude while
streaming to the ground-station array. Throughput uses the instantaneous
combining SINR; transmit power follows the channel-inversion link budget with
watt-denominated noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .channel import (
    CoherenceParams,
    coherence_prelog,
    channel_matrix,
    instantaneous_sinr_mrc,
    ml_estimate,
    pathloss,
    pilot_snr,
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

    def __post_init__(self):
        if self.x2 <= self.x1 or self.y2 <= self.y1:
            raise SwarmMimoError("area bounds must satisfy x2 > x1 and y2 > y1")
        if self.k < 1 or self.speed <= 0 or self.gsd <= 0:
            raise SwarmMimoError("fleet size, speed, and gsd must be positive")

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    @property
    def flight_altitude(self) -> float:
        return self.altitude if self.altitude is not None else altitude_for_gsd(self.gsd, self.camera)

    @property
    def noise_density(self) -> float:
        "Noise spectral density in joules at 290 K, including a 7 dB receiver noise figure."
        return BOLTZMANN * 290.0 * 10.0 ** (7.0 / 10.0)

    @property
    def d_wc(self) -> float:
        "Largest array-to-drone distance over the mission volume."
        h = self.flight_altitude
        corners = [(self.x1, self.y1), (self.x1, self.y2), (self.x2, self.y1), (self.x2, self.y2)]
        return max(math.sqrt(x * x + y * y + h * h) for x, y in corners)

    def fleet_grid(self) -> tuple[int, int]:
        "Columns x rows of the cell grid; prefers at least as many columns."
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
    pixels = cross_track_pixels if cross_track_pixels is not None else spec.camera.r_py
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
    swath = spec.camera.r_py * spec.gsd * (1.0 - spec.camera.overlap_side)
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


def _positions_on_path(path, s: np.ndarray):
    """Points at arc lengths ``s`` along a path table, clamped past its end.

    Returns ``(positions (n, 3), finished (n,))``.
    """
    pts, seg, lengths, cum = path
    finished = s >= cum[-1]
    idx = np.minimum(np.searchsorted(cum, s, side="right") - 1, seg.shape[0] - 1)
    frac = (s - cum[idx]) / lengths[idx]
    pos = pts[idx] + frac[:, None] * seg[idx]
    pos[finished] = pts[-1]
    return pos, finished


def trajectory_position(spec: MissionSpec, k: int, t: float):
    """Drone position at time ``t`` along its sweep; clamps past the end.

    Returns ``(position, finished)``.
    """
    if t < 0:
        raise SwarmMimoError("time must be nonnegative")
    if not 1 <= k <= spec.k:
        raise SwarmMimoError(f"drone index {k} outside 1..{spec.k}")
    pos, finished = _positions_on_path(_path_table(spec, k), np.array([spec.speed * t]))
    return pos[0], bool(finished[0])


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
    # not d_k**2: a scalar's pow differs from an array's square in 1 last bit in 1,200
    c_data = base * prelog * spec.rho_u * (d_k * d_k)
    c_pilot = base * (spec.k / t_len) * spec.rho_p * d_wc**2
    return c_data, c_pilot


def instantaneous_power(spec: MissionSpec, d_k, chi_mean, d_wc: float | None = None):
    "Transmit power (W) at distance ``d_k`` with mean gain ``chi_mean`` (scalars or arrays)."
    if np.any(chi_mean <= 0) or spec.chi_wc <= 0:
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


# (step, drone, element) lanes per group of mission steps: 4 steps of 20 drones
# at 100 elements, one kernel block; larger groups raise the peak memory
_GROUP_LANES = 8192

#: One per-step, per-drone record of :func:`run_mission`.
RECORD_DTYPE = np.dtype(
    [
        ("t_s", float),
        ("drone_id", int),
        ("x_m", float),
        ("y_m", float),
        ("z_m", float),
        ("throughput_bps", float),
        ("power_w", float),
    ]
)


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
    times = np.arange(0.0, duration + 0.5 * step, step)
    arc = spec.speed * times
    pos = np.empty((times.size, spec.k, 3))
    for k in range(spec.k):
        pos[:, k] = _positions_on_path(_path_table(spec, k + 1), arc)[0]
    # dipoles along the x and z axes: yaw the antenna frame by a quarter turn
    uav_rot = geo.rotation_matrix(geo.RotationAngles(yaw=math.pi / 2))
    p_p = pilot_snr(spec.rho_p, spec.d_wc, spec.chi_wc, lam)
    rng = substream(seed, 0x51)
    rows = np.zeros((times.size, spec.k), dtype=RECORD_DTYPE)
    rows["t_s"] = times[:, None]
    rows["drone_id"] = np.arange(1, spec.k + 1)
    rows["x_m"], rows["y_m"], rows["z_m"] = np.moveaxis(pos, -1, 0)
    group = max(1, _GROUP_LANES // (spec.k * spec.geometry.m))
    for start in range(0, times.size, group):
        steps = slice(start, start + group)
        p = pos[steps]
        g = channel_matrix(ground, p, np.broadcast_to(uav_rot, p.shape + (3,)))
        mean_gain = np.mean(np.abs(g) ** 2, axis=-2)
        powers = spec.rho_u / mean_gain
        if csi == "estimated":
            g_hat = ml_estimate(g, p_p, rng)
        else:
            g_hat = g
        sinr = instantaneous_sinr_mrc(g, g_hat, powers)
        dist = np.linalg.norm(p, axis=-1)
        chi_mean = mean_gain / pathloss(dist, lam)
        rows["throughput_bps"][steps] = prelog * spec.bandwidth * np.log2(1.0 + sinr)
        rows["power_w"][steps] = instantaneous_power(spec, dist, chi_mean)
    return rows.ravel()


def local_extrema_count(values: np.ndarray) -> int:
    "Strict local minima plus maxima of a sampled series."
    v = np.asarray(values, dtype=float)
    d = np.diff(v)
    d = d[d != 0.0]
    if d.size < 2:
        return 0
    return int(np.count_nonzero(np.sign(d[1:]) != np.sign(d[:-1])))
