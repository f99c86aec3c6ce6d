"""Pathloss, array channel vectors, pilots, power control, and linear receivers.

Noise variance is normalized to 1 throughout, so transmit powers are
normalized SNRs; the absolute-watt link budget lives in the mission module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from ._kernels import response_batch
from .errors import (
    InfeasibleBudgetError,
    InfeasibleFrameError,
    SingularChannelError,
    SingularDirectionError,
    SwarmMimoError,
)
from .polarization import AntennaConfig, GroundArray


@dataclass(frozen=True)
class CoherenceParams:
    """Carrier, bandwidths, and mobility defining the coherence interval.

    ``tau_dl`` (symbols) overrides ``tau_dl_frac`` when given; the default
    reserves 1/8 of the interval for the downlink.
    """

    f_c: float
    bandwidth: float
    b_c: float
    v_max: float
    tau_dl: float | None = None
    tau_dl_frac: float = 0.125

    def __post_init__(self):
        if min(self.f_c, self.bandwidth, self.b_c) <= 0:
            raise SwarmMimoError("frequencies and bandwidths must be positive")
        if self.v_max < 0:
            raise SwarmMimoError("maximum speed must be nonnegative")
        if not 0.0 <= self.tau_dl_frac < 1.0:
            raise SwarmMimoError("downlink fraction must be in [0, 1)")


@dataclass(frozen=True)
class PowerControlConfig:
    """Targets and caps for channel-inversion power control."""

    rho_u: float
    rho_p: float
    p_u_max: float = math.inf
    energy_budget: float | None = None
    d_wc: float = 0.0
    chi_wc: float = 1.0

    def __post_init__(self):
        if self.rho_u <= 0 or self.rho_p <= 0:
            raise SwarmMimoError("SNR targets must be positive")
        if self.p_u_max <= 0:
            raise SwarmMimoError("power cap must be positive")


@dataclass(frozen=True)
class ChannelEstimate:
    """Noisy channel matrix together with the pilot power that produced it."""

    g_hat: np.ndarray
    p_p: float


def pathloss(d: float, lam: float) -> float:
    "Free-space power gain (lambda / 4 pi d)^2."
    if d <= 0:
        raise SwarmMimoError(f"distance must be positive, got {d}")
    return (lam / (4.0 * math.pi * d)) ** 2


def coherence_interval(params: CoherenceParams) -> float:
    "Symbols per coherence interval; infinite for a static drone."
    if params.v_max == 0.0:
        return math.inf
    return params.b_c * geo.C_LIGHT / (2.0 * params.v_max * params.f_c)


def coherence_prelog(params: CoherenceParams, k: int):
    """Coherence interval length and uplink-data fraction ``Lambda``.

    Uses ``k`` pilot symbols (orthogonal pilots, one per drone).
    """
    t_len = coherence_interval(params)
    if math.isinf(t_len):
        lam = 1.0 if params.tau_dl is not None else 1.0 - params.tau_dl_frac
        return t_len, lam
    tau_dl = params.tau_dl if params.tau_dl is not None else params.tau_dl_frac * t_len
    lam = 1.0 - (tau_dl + k) / t_len
    if lam <= 0.0:
        raise InfeasibleFrameError(
            f"coherence interval {t_len:.1f} symbols cannot carry "
            f"tau_dl={tau_dl:.1f} plus {k} pilots"
        )
    return t_len, lam


def pilot_power(cfg: PowerControlConfig, lam: float) -> float:
    "Pilot SNR referred to the worst-case distance and effective gain."
    if cfg.chi_wc <= 0:
        raise SwarmMimoError("worst-case gain must be positive")
    if cfg.d_wc <= 0:
        raise SwarmMimoError("worst-case distance must be positive")
    return cfg.rho_p * (4.0 * math.pi * cfg.d_wc / lam) ** 2 / cfg.chi_wc


def channel_vector(
    ground: GroundArray,
    uav_position: np.ndarray,
    uav_orientation: geo.RotationAngles,
    uav_config: AntennaConfig | None = None,
) -> np.ndarray:
    """Complex channel vector of one drone to all array elements.

    Entries are sqrt(pathloss) times the effective coupling with the exact
    per-element propagation phase.
    """
    g = channel_matrix(
        ground,
        np.asarray(uav_position, float)[None, :],
        geo.rotation_matrix(uav_orientation)[None, :, :],
        uav_config,
    )
    return g[:, 0]


def channel_matrix(
    ground: GroundArray,
    uav_positions: np.ndarray,
    uav_rotations: np.ndarray,
    uav_config: AntennaConfig | None = None,
) -> np.ndarray:
    """Channel matrix ``G`` of shape ``(M, K)`` for ``K`` drones at ``ground.f0``."""
    lam = geo.wavelength(ground.f0)
    pos = np.asarray(uav_positions, float)
    norms = np.linalg.norm(pos, axis=1)
    if np.any(norms <= ground.aperture):
        raise SwarmMimoError("drone inside the array aperture")
    w_rx, ratio_rx, gain_rx = ground.drone_feed(uav_config)
    gains = ground.gain * gain_rx
    h, dist, _, _ = response_batch(
        pos,
        ground.elem,
        ground.rotations,
        uav_rotations,
        ground.w,
        w_rx,
        ground.ratio,
        ratio_rx,
        gs_per_sample=False,
    )
    if not np.all(np.isfinite(h.real)):
        raise SingularDirectionError("singular direction for at least one element")
    beta = (lam / (4.0 * math.pi * dist)) ** 2
    g = np.sqrt(beta * gains) * h * np.exp(-2j * math.pi * dist / lam)
    return g.T.copy()


def ml_estimate(g: np.ndarray, p_p: float, rng: np.random.Generator) -> ChannelEstimate:
    """Maximum-likelihood channel estimate from orthogonal pilots.

    Equivalent to despreading the received pilot block: the estimate is the
    true matrix plus white complex Gaussian noise scaled by 1/sqrt(p_p).
    """
    if p_p <= 0:
        raise SwarmMimoError("pilot power must be positive")
    g = np.asarray(g)
    if math.isinf(p_p):
        return ChannelEstimate(g_hat=g.copy(), p_p=p_p)
    w = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    return ChannelEstimate(g_hat=g + w / math.sqrt(2.0 * p_p), p_p=p_p)


def data_power(mean_gain: float, cfg: PowerControlConfig):
    """Channel-inversion transmit power and the outage flag.

    ``mean_gain`` is the average of ``beta_kl * chi_kl`` over the array.
    """
    if mean_gain <= 0:
        raise SwarmMimoError("mean channel gain must be positive")
    wanted = cfg.rho_u / mean_gain
    if wanted > cfg.p_u_max:
        return cfg.p_u_max, True
    return wanted, False


def max_data_power(energy_budget: float, p_p: float, tau_ul_p: float, tau_ul_d: float) -> float:
    "Largest per-symbol data power the per-interval energy budget allows."
    if tau_ul_d <= 0:
        raise SwarmMimoError("data phase must have positive length")
    remaining = energy_budget - p_p * tau_ul_p
    if remaining <= 0:
        raise InfeasibleBudgetError(
            f"pilot energy {p_p * tau_ul_p:.3g} exhausts the budget {energy_budget:.3g}"
        )
    return remaining / tau_ul_d


def outage_probability(
    sampler,
    cfg: PowerControlConfig,
    n: int,
    rng: np.random.Generator,
):
    """Monte Carlo outage probability under the power cap.

    ``sampler(rng, count)`` must return an array of mean channel gains
    (average ``beta * chi``) for independent drone placements. Returns
    ``(probability, stderr)``.
    """
    if n < 1:
        raise SwarmMimoError("sample count must be positive")
    gains = np.asarray(sampler(rng, n), dtype=float)
    out = (cfg.rho_u / gains) > cfg.p_u_max
    p = float(np.mean(out))
    stderr = math.sqrt(max(p * (1.0 - p), 0.0) / n)
    return p, stderr


def instantaneous_sinr_mrc(
    g: np.ndarray,
    g_hat: np.ndarray,
    powers: np.ndarray,
) -> np.ndarray:
    """Per-drone SINR of a combiner that projects onto the estimated vectors."""
    g = np.asarray(g)
    g_hat = np.asarray(g_hat)
    powers = np.asarray(powers, dtype=float)
    if g.shape != g_hat.shape or g.shape[1] != powers.shape[0]:
        raise SwarmMimoError("channel, estimate, and power shapes disagree")
    cross = g_hat.conj().T @ g  # (K, K): row k = estimate k against all drones
    sig = powers * np.abs(np.diag(cross)) ** 2
    inter = (np.abs(cross) ** 2 * powers[None, :]).sum(axis=1) - sig
    noise = np.sum(np.abs(g_hat) ** 2, axis=0)
    return sig / (inter + noise)


def sinr_zf(g: np.ndarray, powers: np.ndarray, cond_limit: float = 1e12) -> np.ndarray:
    """Post-processing SINR of the zero-forcing receiver with perfect CSI."""
    g = np.asarray(g)
    powers = np.asarray(powers, dtype=float)
    m, k = g.shape
    if m < k:
        raise SingularChannelError(f"need at least as many elements as drones ({m} < {k})")
    gram = g.conj().T @ g
    if np.linalg.cond(gram) > cond_limit:
        raise SingularChannelError("channel Gram matrix is ill conditioned")
    inv_diag = np.real(np.diag(np.linalg.inv(gram)))
    return powers / inv_diag
