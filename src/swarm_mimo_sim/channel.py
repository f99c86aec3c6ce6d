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
from .errors import InfeasibleFrameError, SingularChannelError, SwarmMimoError
from .polarization import GroundArray


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


def synthesize(h: np.ndarray, dist: np.ndarray, lam: float, gains: float, out=None) -> np.ndarray:
    """Channel entries from couplings ``h`` at distances ``dist``, into ``out`` if given.

    Each entry is sqrt(pathloss * gains) times the coupling times the exact
    propagation phase, one elementwise expression. The response kernel's
    blocks call it on their own lanes (``response_batch``'s ``finish``). ``h``
    must be a named array, or numpy may swap the complex product's operands
    (see ``_kernels``).
    """
    return np.multiply(np.sqrt(pathloss(dist, lam) * gains) * h,
                       np.exp(-2j * math.pi * dist / lam), out=out)


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
) -> np.ndarray:
    """Channel matrices ``G`` of ``K`` drones carrying the array's antenna, at ``ground.f0``.

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
    lam, gains = geo.wavelength(ground.f0), ground.gain * ground.gain
    g = response_batch(
        pos.reshape(-1, 3),
        ground.elem,
        ground.rotations,
        np.reshape(uav_rotations, (-1, 3, 3)),
        ground.w,
        ground.w,
        ground.ratio,
        ground.ratio,
        finish=(np.complex128, lambda h, d, out: synthesize(h, d, lam, gains, out)),
    )
    return g.reshape(pos.shape[:-1] + (-1,)).swapaxes(-1, -2).copy()


def pilot_draws(rng: np.random.Generator, shape, p_p: float):
    """The standard normals of the pilot noise of a ``(..., M, K)`` stack of ``shape``.

    Each matrix draws all its real parts, then all its imaginary parts, so the
    result is ``(..., 2, M, K)`` and a stack consumes the stream its matrices
    would in turn; a ``(rows, M)`` block of channel rows is one matrix. A
    caller that draws nothing else in between may walk one matrix's real parts
    in slices of rows, copying the generator at each, then draw each slice's
    real parts from its copy and its imaginary parts, in row order, from the
    stream (``montecarlo.estimate_ergodic_rate`` does).
    At an infinite pilot SNR the estimate is exact and nothing is drawn: the
    result is None.
    """
    if math.isinf(p_p):
        return None
    return rng.standard_normal(shape[:-2] + (2,) + shape[-2:])


def ml_estimate(g: np.ndarray, p_p: float, z) -> np.ndarray:
    """Maximum-likelihood channel estimate from orthogonal pilots.

    Equivalent to despreading the received pilot block: the estimate is the
    true matrix plus white complex Gaussian noise scaled by 1/sqrt(p_p). The
    noise is formed from ``z``, the draws :func:`pilot_draws` makes for ``g``'s
    shape (or a slice of them that matches ``g``), so a caller may draw them
    before it builds ``g``. At an infinite pilot SNR the estimate is ``g`` and
    ``z`` is not read.
    """
    if p_p <= 0:
        raise SwarmMimoError("pilot power must be positive")
    g = np.asarray(g)
    if math.isinf(p_p):
        return g.copy()
    w = z[..., 0, :, :] + 1j * z[..., 1, :, :]
    # in place, with the bits of g + w / sqrt(2 p_p): addition commutes
    w /= math.sqrt(2.0 * p_p)
    w += g
    return w


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


# largest condition number of a Gram matrix that zero-forcing inverts
_COND_LIMIT = 1e12


def sinr_zf(g: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Post-processing SINR of the zero-forcing receiver with perfect CSI.

    Takes ``(..., M, K)`` channel stacks and ``(..., K)`` powers, like
    :func:`instantaneous_sinr_mrc`; one matrix with a Gram condition number
    above 1e12 raises.
    """
    g = np.asarray(g)
    powers = np.asarray(powers, dtype=float)
    m, k = g.shape[-2:]
    if m < k:
        raise SingularChannelError(f"need at least as many elements as drones ({m} < {k})")
    gram = np.conj(g).swapaxes(-1, -2) @ g
    if np.any(np.linalg.cond(gram) > _COND_LIMIT):
        raise SingularChannelError("channel Gram matrix is ill conditioned")
    inv_diag = np.real(np.diagonal(np.linalg.inv(gram), axis1=-2, axis2=-1))
    return powers / inv_diag
