"""Seeded Monte Carlo estimators that validate and feed the closed forms.

Reproducibility contract: :func:`_chunks` cuts every estimator's samples into
fixed-size chunks and gives chunk ``i`` its own counter-based random
substream, ``substream(seed, i)``; :func:`_estimate` combines the chunks'
partial sums in chunk order. Results are therefore bit-identical for a fixed
seed no matter how the chunks are scheduled, and independent of the
parallelism inside the numeric kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .channel import instantaneous_sinr_mrc, pilot_snr, sinr_zf, synthesize
from .errors import SwarmMimoError
from .polarization import DipoleExcitation, GroundArray, HALF_WAVE_DIPOLE_GAIN, chi_batch
from .rates import cb_db, expected_phase_sinc

#: Samples per substream chunk. Part of the reproducibility contract:
#: changing it changes the draws for a given seed.
CHUNK = 8192


def substream(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator for chunk ``index`` of an experiment seed."""
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    counter = np.zeros(4, dtype=np.uint64)
    counter[3] = index
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


@dataclass(frozen=True)
class EstimatorResult:
    """Sample mean with its standard error."""

    mean: float
    stderr: float
    n: int


def _chunks(n: int, seed: int, size: int = CHUNK):
    """``(rng, take)`` for each chunk of ``n`` samples, in order.

    Every chunk takes ``size`` samples but the last, which takes the rest;
    chunk ``i`` draws from ``substream(seed, i)``.
    """
    for index, start in enumerate(range(0, n, size)):
        yield substream(seed, index), min(size, n - start)


def _estimate(n: int, seed: int, size: int, sample) -> EstimatorResult:
    """Mean of ``sample(rng, take)``'s values over the chunks of :func:`_chunks`.

    Each chunk contributes its sum and sum of squares, added in chunk order
    with ``math.fsum``; a chunk's arrays are freed before the next is drawn.
    """
    sums, squares = [], []
    count = 0
    for rng, take in _chunks(n, seed, size):
        v = np.asarray(sample(rng, take), dtype=float)
        if not np.all(np.isfinite(v)):
            raise SwarmMimoError("non-finite Monte Carlo sample")
        sums.append(float(v.sum()))
        squares.append(float((v * v).sum()))
        count += v.size
    if count == 0:
        raise SwarmMimoError("no samples accumulated")
    mean = math.fsum(sums) / count
    var = max(math.fsum(squares) / count - mean * mean, 0.0)
    stderr = math.sqrt(var / count) if count > 1 else 0.0
    return EstimatorResult(mean=mean, stderr=stderr, n=count)


@dataclass(frozen=True)
class ScenarioSpec:
    """Array, drone population, and antenna configuration of one experiment.

    ``gs_orientation``:
      * ``fixed`` - every element upright (identity rotation);
      * ``identical`` - one common random orientation redrawn per sample;
      * ``pseudo-random`` - per-element orientations drawn once from
        ``orientation_seed`` and frozen for the scenario.

    ``pattern``:
      * ``dipole`` - half-wave patterns and gains;
      * ``isotropic`` - flat unit patterns, unit gains, polarization kept;
      * ``unit`` - effective gain pinned to 1 (pure geometry).
    """

    geometry: geo.ArrayGeometry
    region: geo.ShellRegion
    k: int = 2
    rho_u: float = 1.0
    rho_p: float = 10.0
    f_c: float = 2.4e9
    excitation: str = "circular"
    gs_orientation: str = "fixed"
    pattern: str = "dipole"
    chi_wc: float = 1.0
    orientation_seed: int = 0
    orientation_ranges: tuple = geo.DEFAULT_ORIENTATION_RANGES

    def __post_init__(self):
        if self.k < 1:
            raise SwarmMimoError("drone count must be >= 1")
        if self.excitation not in ("linear", "circular"):
            raise SwarmMimoError(f"unknown excitation {self.excitation!r}")
        if self.gs_orientation not in ("fixed", "identical", "pseudo-random"):
            raise SwarmMimoError(f"unknown gs_orientation {self.gs_orientation!r}")
        if self.pattern not in ("dipole", "isotropic", "unit"):
            raise SwarmMimoError(f"unknown pattern {self.pattern!r}")

    @property
    def lam(self) -> float:
        return geo.wavelength(self.f_c)

    def ground(self) -> GroundArray:
        """The array's elements, rotations and antenna; the drones carry the same antenna.

        Rotations are upright unless ``pseudo-random``; with ``identical`` the
        estimators rotate the whole array per sample instead.
        """
        m = self.geometry.m
        if self.gs_orientation == "pseudo-random":
            rotations = _rotations(self, substream(self.orientation_seed, 0xA11A), m)
        else:
            rotations = np.broadcast_to(np.eye(3), (m, 3, 3))
        circular = self.excitation == "circular"
        exc = DipoleExcitation.circular() if circular else DipoleExcitation.linear()
        ratio, gain = (0.5, HALF_WAVE_DIPOLE_GAIN) if self.pattern == "dipole" else (0.0, 1.0)
        return GroundArray(self.f_c, geo.element_positions(self.geometry), rotations,
                           exc.weights(), ratio, gain, self.geometry.aperture())


def _rotations(spec: ScenarioSpec, rng, n: int) -> np.ndarray:
    ang = geo.sample_orientations(rng, n, spec.orientation_ranges)
    return geo.rotation_matrices(ang[:, 0], ang[:, 1], ang[:, 2])


def _gs_rotations(spec: ScenarioSpec, ground: GroundArray, rng, n: int) -> np.ndarray:
    "The array's own rotations, or one common ``(n, 1, 3, 3)`` draw per sample."
    identical = spec.gs_orientation == "identical"
    return _rotations(spec, rng, n)[:, None] if identical else ground.rotations


def _chi_for(spec: ScenarioSpec, ground: GroundArray, positions, gs_rots, uav_rots):
    "(n, M) effective gains under the scenario's pattern mode."
    if spec.pattern == "unit":
        return np.ones((positions.shape[0], ground.elem.shape[0]))
    return chi_batch(ground, positions, gs_rots, uav_rots)


def _channel_for(spec: ScenarioSpec, ground: GroundArray, positions, gs_rots, uav_rots):
    """(n, M) complex channel rows and their pathlosses, from exact distances."""
    from ._kernels import response_batch

    if spec.pattern == "unit":
        rel = positions[:, None, :] - ground.elem[None, :, :]
        dist = np.sqrt(np.sum(rel * rel, axis=-1))
        h = np.ones_like(dist, dtype=np.complex128)
    else:
        h, dist = response_batch(positions, ground.elem, gs_rots, uav_rots, ground.w, ground.w,
                                 ground.ratio, ground.ratio)
        # the gain scales h, not synthesize's gains: moving it there changes last bits,
        # so it waits for a deliberate re-record of the seeded outputs
        h = h * ground.gain
    return synthesize(h, dist, spec.lam, 1.0)


def _redraw_bad(spec, ground, rng, positions, uav_rots, chi):
    "Resample any singular-direction lanes (probability-zero events)."
    for _ in range(100):
        bad = ~np.all(np.isfinite(chi), axis=1)
        if not np.any(bad):
            return positions, uav_rots, chi
        idx = np.flatnonzero(bad)
        positions[idx] = geo.sample_shell_positions(spec.region, rng, idx.size)
        uav_rots[idx] = _rotations(spec, rng, idx.size)
        gs = _gs_rotations(spec, ground, rng, idx.size)
        chi[idx] = _chi_for(spec, ground, positions[idx], gs, uav_rots[idx])
    raise SwarmMimoError("persistent singular directions while sampling")


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def estimate_interference_moment(spec: ScenarioSpec, n: int, seed: int) -> EstimatorResult:
    """Mean of ``p_uj p_uk |g_k^H g_j|^2`` for two independent shell drones.

    Uses full channel synthesis (exact distances) and uncapped
    channel-inversion powers.
    """
    ground = spec.ground()

    def sample(rng, take):
        pos_k = geo.sample_shell_positions(spec.region, rng, take)
        pos_j = geo.sample_shell_positions(spec.region, rng, take)
        rot_k = _rotations(spec, rng, take)
        rot_j = _rotations(spec, rng, take)
        gs = _gs_rotations(spec, ground, rng, take)
        g_k, _ = _channel_for(spec, ground, pos_k, gs, rot_k)
        g_j, _ = _channel_for(spec, ground, pos_j, gs, rot_j)
        gain_k = np.mean(np.abs(g_k) ** 2, axis=1)
        gain_j = np.mean(np.abs(g_j) ** 2, axis=1)
        cross = np.abs(np.sum(np.conj(g_k) * g_j, axis=1)) ** 2
        return (spec.rho_u / gain_k) * (spec.rho_u / gain_j) * cross

    return _estimate(n, seed, CHUNK, sample)


def estimate_zf_inverse_moment(spec: ScenarioSpec, n: int, seed: int) -> EstimatorResult:
    """Mean of ``1 / (M - |s|^2 / M)`` for two shell drones.

    ``s`` is the inner product of the unit-modulus signature phases; the
    moment plugs directly into the two-drone zero-forcing bound. Note the
    integrand blows up on the measure-zero set where the two drones share a
    projected bearing, so the sample mean is heavy-tailed at small element
    counts; it stabilizes once the array is large enough that near-collinear
    draws are rare at the requested sample size.
    """
    m = spec.geometry.m
    elem = spec.ground().elem
    lam = spec.lam

    def sample(rng, take):
        pos_1 = geo.sample_shell_positions(spec.region, rng, take)
        pos_2 = geo.sample_shell_positions(spec.region, rng, take)
        d1 = np.sqrt(np.sum((pos_1[:, None, :] - elem[None, :, :]) ** 2, axis=-1))
        d2 = np.sqrt(np.sum((pos_2[:, None, :] - elem[None, :, :]) ** 2, axis=-1))
        s = np.sum(np.exp(2j * math.pi * (d1 - d2) / lam), axis=1)
        cross = np.abs(s) ** 2 - m
        return 1.0 / (m - 1.0 - cross / m)

    size = max(1, min(CHUNK, 4_194_304 // max(m, 1)))  # bound the (take, M) buffers
    return _estimate(n, seed, size, sample)


def estimate_ergodic_rate(
    spec: ScenarioSpec,
    n: int,
    seed: int,
    receiver: str = "mrc",
    csi: str = "estimated",
    prelog: float = 1.0,
) -> EstimatorResult:
    """Mean over drone placements of ``prelog * log2(1 + SINR)``.

    Each draw places ``spec.k`` drones, applies channel-inversion power
    control, optionally perturbs the channel with pilot noise sized by the
    scenario's worst-case gain, and evaluates the instantaneous SINR of the
    selected receiver. The estimate averages drones and draws; ``stderr``
    reflects draw-to-draw variation.
    """
    if receiver not in ("mrc", "zf"):
        raise SwarmMimoError(f"unknown receiver {receiver!r}")
    if csi not in ("perfect", "estimated"):
        raise SwarmMimoError(f"unknown csi mode {csi!r}")
    if receiver == "zf" and csi != "perfect":
        raise SwarmMimoError("zero-forcing here assumes perfect channel knowledge")
    k = spec.k
    ground = spec.ground()
    p_p = pilot_snr(spec.rho_p, spec.region.r_max, spec.chi_wc, spec.lam)

    def sample(rng, take):
        pos = geo.sample_shell_positions(spec.region, rng, take * k)
        rots = _rotations(spec, rng, take * k)
        gs = _gs_rotations(spec, ground, rng, take)
        if gs.ndim == 4:  # one common array orientation per draw, shared by its k drones
            gs = np.repeat(gs, k, axis=0)
        g_rows, _ = _channel_for(spec, ground, pos, gs, rots)
        g = g_rows.reshape(take, k, -1)  # (draws, K, M)
        powers = spec.rho_u / np.mean(np.abs(g) ** 2, axis=2)
        g_hat = g
        if csi == "estimated":
            noise = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
            g_hat = g + noise / math.sqrt(2.0 * p_p)
        g = g.transpose(0, 2, 1)  # (draws, M, K), one matrix per draw
        if receiver == "mrc":
            sinr = instantaneous_sinr_mrc(g, g_hat.transpose(0, 2, 1), powers)
        else:
            sinr = sinr_zf(g, powers)
        return prelog * np.mean(np.log2(1.0 + sinr), axis=-1)

    return _estimate(n, seed, max(1, CHUNK // max(k, 1)), sample)


def gain_cdf(spec: ScenarioSpec, n: int, seed: int, thresholds_db: np.ndarray):
    """Empirical CDF of the summed effective gain over the array.

    Returns ``(thresholds_db, cdf, stats)`` where ``stats`` carries the
    median in dB and the probability of falling below 10 dB.
    """
    thresholds_db = np.asarray(thresholds_db, dtype=float)
    ground = spec.ground()

    def summed_gain(rng, take):
        pos = geo.sample_shell_positions(spec.region, rng, take)
        rots = _rotations(spec, rng, take)
        gs = _gs_rotations(spec, ground, rng, take)
        chi = _chi_for(spec, ground, pos, gs, rots)
        return _redraw_bad(spec, ground, rng, pos, rots, chi)[2].sum(axis=1)

    sums = np.empty(n)  # the only n-sized buffer: the median needs every sample
    for index, (rng, take) in enumerate(_chunks(n, seed)):
        sums[index * CHUNK:index * CHUNK + take] = summed_gain(rng, take)
    sums.sort()
    # counts of samples strictly below each threshold
    counts = np.searchsorted(sums, 10.0 ** (thresholds_db / 10.0), side="left")
    below_10 = int(np.searchsorted(sums, 10.0, side="left"))
    stats = {
        "median_db": float(10.0 * np.log10(np.median(sums, overwrite_input=True))),
        "p_below_10db": below_10 / n,
        "n": n,
        "seed": seed,
    }
    return thresholds_db, counts / n, stats


def validate_expectations(spec: ScenarioSpec, n: int, seed: int, max_pairs: int = 64):
    """Check the closed-form pair-phase moments against direct sampling.

    For element pairs (l, l') the phase of the distance difference splits
    into a reciprocal-radius part (shell moments C and D) and a
    direction part (the sinc average). Each row reports the closed form,
    the Monte Carlo mean of the phase factor under the second-order distance
    expansion that the closed form integrates (not of the exact phase), and
    the deviation in standard errors. All ``n`` draws come from one
    substream, ``substream(seed, 1)``, rather than from :func:`_chunks`.
    """
    geometry = spec.geometry
    lam = spec.lam
    m = geometry.m
    count = m * (m - 1)  # ordered pairs l != l', indexed row by row
    if count == 0:
        raise SwarmMimoError("a one-element array has no element pairs to validate")
    picks = range(count)
    if count > max_pairs:
        picks = sorted(substream(seed, 0xFA1).choice(count, size=max_pairs, replace=False))
    rng = substream(seed, 1)
    d, theta, phi = geo._shell_draws(spec.region, rng, n)
    sin_theta, cos_phi, sin_phi = np.sin(theta), np.cos(phi), np.sin(phi)
    pairs = []
    for k in picks:
        row, col = divmod(int(k), m - 1)
        l, lp = row + 1, col + 1 + (col >= row)  # a row skips its own index
        q, p = divmod(l - 1, geometry.m_x)
        qp, pp = divmod(lp - 1, geometry.m_x)
        bval = (math.pi / lam) * (
            (p * p - pp * pp) * geometry.delta_x**2
            + (q * q - qp * qp) * geometry.delta_y**2
        )
        pairs.append((l, lp, p - pp, q - qp, bval))
    # one group per pair: each value is that of a call of its own
    cvals, dvals = cb_db([bval for *_, bval in pairs], spec.region, np.arange(len(pairs)))
    rows = []
    for (l, lp, dp, dq, bval), cval, dval in zip(pairs, cvals.tolist(), dvals.tolist()):
        sincval = expected_phase_sinc(dp, dq, geometry, lam)
        closed = complex(cval, dval) * sincval
        phase = bval / d - (2.0 * math.pi / lam) * sin_theta * (
            dp * geometry.delta_x * cos_phi
            + dq * geometry.delta_y * sin_phi
        )
        z = np.exp(1j * phase)
        mc = complex(z.mean())
        se = float(np.sqrt((np.abs(z - mc) ** 2).mean() / n))
        dev = abs(mc - closed) / se if se > 0 else 0.0
        rows.append(
            {
                "l": l,
                "lp": lp,
                "closed_re": closed.real,
                "closed_im": closed.imag,
                "mc_re": mc.real,
                "mc_im": mc.imag,
                "stderr": se,
                "dev_se": dev,
            }
        )
    max_dev = max(r["dev_se"] for r in rows)
    return rows, max_dev
