"""Pathloss, channel synthesis, coherence and pilot sizing, ML estimation, and receivers.

Noise variance is normalized to 1 throughout, so transmit powers are
normalized SNRs; the absolute-watt link budget lives in the mission module.

The channel functions take stacks of ``(M, K)`` matrices, shaped ``(..., M,
K)``. Each matrix of a stack keeps the bits of its own call: matmul and the
``linalg`` routines work matrix by matrix, and the pilot noise is drawn
matrix by matrix. ``channel_matrix`` is the exception for one-drone matrices,
whose single call takes the kernel's gemv path (see ``_kernels``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from ._kernels import response_batch
from .errors import (
    InfeasibleFrameError,
    SingularChannelError,
    SingularDirectionError,
    SwarmMimoError,
)
from .polarization import AntennaConfig, GroundArray


@dataclass(frozen=True)
class CoherenceParams:
    """Carrier, bandwidths, and mobility defining the coherence interval.

    ``tau_dl_frac`` is the downlink share of the interval; the default
    reserves 1/8 of it.
    """

    f_c: float
    bandwidth: float
    b_c: float
    v_max: float
    tau_dl_frac: float = 0.125

    def __post_init__(self):
        if min(self.f_c, self.bandwidth, self.b_c) <= 0:
            raise SwarmMimoError("frequencies and bandwidths must be positive")
        if self.v_max < 0:
            raise SwarmMimoError("maximum speed must be nonnegative")
        if not 0.0 <= self.tau_dl_frac < 1.0:
            raise SwarmMimoError("downlink fraction must be in [0, 1)")


def pathloss(d, lam: float):
    "Free-space power gain (lambda / 4 pi d)^2 of a distance or an array of them."
    d_min = np.min(d)
    if d_min <= 0:
        raise SwarmMimoError(f"distance must be positive, got {d_min}")
    return (lam / (4.0 * math.pi * d)) ** 2


def synthesize(h: np.ndarray, dist: np.ndarray, lam: float, gains: float):
    """Channel entries and pathlosses from couplings ``h`` at distances ``dist``.

    Each entry is sqrt(pathloss * gains) times the coupling times the exact
    propagation phase. Returns ``(g, beta)`` in the shape of ``h``.
    """
    beta = pathloss(dist, lam)
    return np.sqrt(beta * gains) * h * np.exp(-2j * math.pi * dist / lam), beta


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
        return t_len, 1.0 - params.tau_dl_frac
    tau_dl = params.tau_dl_frac * t_len
    lam = 1.0 - (tau_dl + k) / t_len
    if lam <= 0.0:
        raise InfeasibleFrameError(
            f"coherence interval {t_len:.1f} symbols cannot carry "
            f"tau_dl={tau_dl:.1f} plus {k} pilots"
        )
    return t_len, lam


def pilot_snr(rho_p: float, d_wc: float, chi_wc: float, lam: float) -> float:
    "Pilot SNR ``rho_p (4 pi d_wc / lam)^2 / chi_wc`` for worst-case distance and gain."
    if chi_wc <= 0:
        raise SwarmMimoError("worst-case gain must be positive")
    if d_wc <= 0:
        raise SwarmMimoError("worst-case distance must be positive")
    return rho_p * (4.0 * math.pi * d_wc / lam) ** 2 / chi_wc


def channel_matrix(
    ground: GroundArray,
    uav_positions: np.ndarray,
    uav_rotations: np.ndarray,
    uav_config: AntennaConfig | None = None,
) -> np.ndarray:
    """Channel matrices ``G`` of ``K`` drones at ``ground.f0``.

    ``uav_positions`` is ``(..., K, 3)`` and ``uav_rotations`` ``(..., K, 3,
    3)``; the result is a C-contiguous ``(..., M, K)``. A stack of matrices is
    one kernel call on all its drones, and each matrix keeps the bits of its
    own call when every call has at least two drones (a one-drone call takes
    the kernel's gemv path).
    """
    pos = np.asarray(uav_positions, float)
    norms = np.linalg.norm(pos, axis=-1)
    if np.any(norms <= ground.aperture):
        raise SwarmMimoError("drone inside the array aperture")
    w_rx, ratio_rx, gain_rx = ground.drone_feed(uav_config)
    gains = ground.gain * gain_rx
    h, dist = response_batch(
        pos.reshape(-1, 3),
        ground.elem,
        ground.rotations,
        np.reshape(uav_rotations, (-1, 3, 3)),
        ground.w,
        w_rx,
        ground.ratio,
        ratio_rx,
    )
    if not np.all(np.isfinite(h.real)):
        raise SingularDirectionError("singular direction for at least one element")
    g, _ = synthesize(h, dist, geo.wavelength(ground.f0), gains)
    return g.reshape(pos.shape[:-1] + (-1,)).swapaxes(-1, -2).copy()


def ml_estimate(g: np.ndarray, p_p: float, rng: np.random.Generator) -> np.ndarray:
    """Maximum-likelihood channel estimate from orthogonal pilots.

    Equivalent to despreading the received pilot block: the estimate is the
    true matrix plus white complex Gaussian noise scaled by 1/sqrt(p_p).
    ``g`` may be a ``(..., M, K)`` stack; each matrix draws its real part,
    then its imaginary part, so a stack consumes the stream its matrices
    would in turn.
    """
    if p_p <= 0:
        raise SwarmMimoError("pilot power must be positive")
    g = np.asarray(g)
    if math.isinf(p_p):
        return g.copy()
    z = rng.standard_normal(g.shape[:-2] + (2,) + g.shape[-2:])
    w = z[..., 0, :, :] + 1j * z[..., 1, :, :]
    return g + w / math.sqrt(2.0 * p_p)


def instantaneous_sinr_mrc(
    g: np.ndarray,
    g_hat: np.ndarray,
    powers: np.ndarray,
) -> np.ndarray:
    """Per-drone SINR of a combiner that projects onto the estimated vectors.

    ``g`` and ``g_hat`` are ``(..., M, K)`` and ``powers`` is ``(..., K)``;
    numpy's matmul makes one product per stacked matrix, so each matrix keeps
    the bits of its own call.
    """
    g = np.asarray(g)
    g_hat = np.asarray(g_hat)
    powers = np.asarray(powers, dtype=float)
    if g.shape != g_hat.shape or g.shape[-1] != powers.shape[-1]:
        raise SwarmMimoError("channel, estimate, and power shapes disagree")
    cross = np.conj(g_hat).swapaxes(-1, -2) @ g  # row k: estimate k against all drones
    sig = powers * np.abs(np.diagonal(cross, axis1=-2, axis2=-1)) ** 2
    inter = (np.abs(cross) ** 2 * powers[..., None, :]).sum(axis=-1) - sig
    noise = np.sum(np.abs(g_hat) ** 2, axis=-2)
    return sig / (inter + noise)


def sinr_zf(g: np.ndarray, powers: np.ndarray, cond_limit: float = 1e12) -> np.ndarray:
    """Post-processing SINR of the zero-forcing receiver with perfect CSI.

    Takes ``(..., M, K)`` channel stacks and ``(..., K)`` powers, like
    :func:`instantaneous_sinr_mrc`; one ill-conditioned matrix raises.
    """
    g = np.asarray(g)
    powers = np.asarray(powers, dtype=float)
    m, k = g.shape[-2:]
    if m < k:
        raise SingularChannelError(f"need at least as many elements as drones ({m} < {k})")
    gram = np.conj(g).swapaxes(-1, -2) @ g
    if np.any(np.linalg.cond(gram) > cond_limit):
        raise SingularChannelError("channel Gram matrix is ill conditioned")
    inv_diag = np.real(np.diagonal(np.linalg.inv(gram), axis1=-2, axis2=-1))
    return powers / inv_diag
