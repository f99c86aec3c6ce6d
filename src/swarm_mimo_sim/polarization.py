"""Cross-dipole antennas: field patterns, polarization projection, effective gain.

Each antenna is a pair of orthogonal half-wave dipoles (nominally along its
local z and y axes) fed by complex coefficients. The coupling between a
transmit and a receive antenna at an arbitrary relative position and with
arbitrary orientations is the scalar

    h = conj(E_tx)^T  T  E_rx,

where the entries of ``T`` are the projections of the transmit-side
polarization basis vectors onto the receive dipole axes and the field-pattern
factors inside ``E_tx``/``E_rx`` are evaluated at the elevation angles seen in
each antenna's own frame. The effective gain ``chi = G_t * G_r * |h|^2``
multiplies in the dipole gains because the patterns themselves have a unity
maximum. That holds for every element the package builds: the half-wave
dipole with gain :data:`HALF_WAVE_DIPOLE_GAIN`, and the flat unit pattern
(length ratio 0, gain 1) of ``montecarlo.ScenarioSpec``'s isotropic and unit
elements. Other lengths would need their own gain, so none is offered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from ._kernels import response_batch
from .errors import DegenerateExcitationError, SingularDirectionError, SwarmMimoError

#: Gain of a half-wave dipole relative to isotropic (approx. 2.15 dB).
HALF_WAVE_DIPOLE_GAIN = 1.643


@dataclass(frozen=True)
class DipoleExcitation:
    """Amplitudes and phases feeding the (theta, psi) dipoles of one antenna."""

    amp_theta: float = 1.0
    phase_theta: float = 0.0
    amp_psi: float = 0.0
    phase_psi: float = 0.0

    def __post_init__(self):
        if self.amp_theta < 0 or self.amp_psi < 0:
            raise SwarmMimoError("excitation amplitudes must be nonnegative")
        if not np.isfinite([self.amp_theta, self.amp_psi]).all():
            raise SwarmMimoError("excitation amplitudes must be finite")

    def weights(self) -> np.ndarray:
        "Complex feed coefficients (E_theta, E_psi)."
        return np.array(
            [
                self.amp_theta * np.exp(1j * self.phase_theta),
                self.amp_psi * np.exp(1j * self.phase_psi),
            ]
        )

    @staticmethod
    def linear() -> "DipoleExcitation":
        "Single fed dipole (theta branch only)."
        return DipoleExcitation(1.0, 0.0, 0.0, 0.0)

    @staticmethod
    def circular() -> "DipoleExcitation":
        "Equal-split feeds in phase quadrature."
        return DipoleExcitation(1 / math.sqrt(2), 0.0, 1 / math.sqrt(2), math.pi / 2)


@dataclass(frozen=True)
class AntennaConfig:
    """Excitation and orientation of one half-wave cross-dipole antenna."""

    excitation: DipoleExcitation
    orientation: geo.RotationAngles = field(default_factory=geo.RotationAngles)


@dataclass(frozen=True)
class PolarizationResult:
    """Coupling factor with antenna gains applied, its power, and the PLF."""

    h: complex
    plf: float
    chi: float


@dataclass(frozen=True, eq=False)
class GroundArray:
    """Ground-side setup of an array, built once by :meth:`build` or directly.

    Holds the element positions ``elem`` (``(m, 3)``, all at the origin when
    built without a geometry), the per-element rotations (``(m, 3, 3)``), the
    feed weights that every element shares, and the aperture. It keeps
    read-only copies of its arrays. The drones it serves carry the same
    antenna: feed ``w``, dipole length over wavelength ``ratio`` and gain
    ``gain``. These default to the half-wave dipole; ``(0.0, 1.0)`` gives
    the unit element of ``montecarlo.ScenarioSpec``.
    """

    f0: float
    elem: np.ndarray
    rotations: np.ndarray
    w: np.ndarray
    aperture: float
    ratio: float = 0.5
    gain: float = HALF_WAVE_DIPOLE_GAIN

    def __post_init__(self):
        for name in ("elem", "rotations", "w"):
            a = np.array(getattr(self, name))
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @classmethod
    def build(cls, gs_configs, f0: float, geometry: geo.ArrayGeometry | None = None):
        "Check that all elements share one feed, then fix the array for ``f0``."
        if len(gs_configs) < 1:
            raise SwarmMimoError("need at least one array element")
        weights = np.array([c.excitation.weights() for c in gs_configs])
        if not np.allclose(weights[1:], weights[0]):
            raise SwarmMimoError("array elements must share one excitation")
        if geometry is not None:
            if geometry.m != len(gs_configs):
                raise SwarmMimoError("geometry and gs_configs disagree on element count")
            elem, aperture = geo.element_positions(geometry), geometry.aperture()
        else:
            elem, aperture = np.zeros((len(gs_configs), 3)), 0.0
        ang = np.array([(c.orientation.roll, c.orientation.pitch, c.orientation.yaw)
                        for c in gs_configs])
        rotations = geo.rotation_matrices(ang[:, 0], ang[:, 1], ang[:, 2])
        return cls(f0, elem, rotations, weights[0], aperture)


def field_pattern(theta: float, ratio: float = 0.5) -> float:
    """Dipole field pattern at elevation ``theta`` from the axis.

    ``ratio`` is the dipole length over the wavelength; at the default half
    wave the pattern peaks at 1. The removable singularity at theta in
    {0, pi} returns the limit 0. Ratio 0 is the flat unit pattern of an
    isotropic element: 1.0 at every theta, the axes included.

    Oracle: the scalar form of the pattern that ``_kernels.response_batch``
    evaluates per lane; tests build the coupling from it and ``t_matrix`` and
    hold :func:`channel_factor` against that, and :func:`response_norms`
    builds on it.
    """
    if ratio == 0.0:
        return 1.0
    s = math.sin(theta)
    if abs(s) < 1e-12:
        return 0.0
    return (math.cos(math.pi * ratio * math.cos(theta)) - math.cos(math.pi * ratio)) / s


def polarization_basis(uav_rel: np.ndarray):
    """Electric-field basis vectors (theta_hat, psi_hat) and direction p_hat.

    ``theta_hat`` spans the plane of the z dipole and the propagation
    direction (oriented so its z component is nonnegative); ``psi_hat`` does
    the same for the y dipole. Both are orthogonal to ``p_hat``.

    Oracle: the scalar form of the basis that ``_kernels.response_batch``
    rotates per lane; :func:`t_matrix` and :func:`response_norms` build on it.
    """
    v = np.asarray(uav_rel, dtype=float)
    d = float(np.linalg.norm(v))
    if d == 0.0:
        raise SingularDirectionError("zero relative position")
    x, y, z = v
    rho_t = math.hypot(x, y)
    rho_p = math.hypot(x, z)
    if rho_t <= 1e-14 * d:
        raise SingularDirectionError("direction on the z axis: theta basis undefined")
    if rho_p <= 1e-14 * d:
        raise SingularDirectionError("direction on the y axis: psi basis undefined")
    theta_hat = np.array([-x * z, -y * z, x * x + y * y]) / (d * rho_t)
    psi_hat = np.array([-x * y, x * x + z * z, -y * z]) / (d * rho_p)
    return theta_hat, psi_hat, v / d


def t_matrix(
    uav_rel: np.ndarray,
    tx_rot: np.ndarray | None = None,
    rx_rot: np.ndarray | None = None,
) -> np.ndarray:
    """2x2 projection of the transmit polarization basis onto receive dipoles.

    With both rotations equal to the identity this reduces to the closed
    form ``[[rho_t, -yz/rho_t], [-yz/rho_p, rho_p]] / d``.

    Oracle: tests expand the coupling as ``conj(E_tx)^T T E_rx`` with it and
    hold the kernel's ``h`` (through :func:`channel_factor`) against that.
    """
    v = np.asarray(uav_rel, dtype=float)
    tx = np.eye(3) if tx_rot is None else np.asarray(tx_rot, dtype=float)
    rx = np.eye(3) if rx_rot is None else np.asarray(rx_rot, dtype=float)
    theta_hat, psi_hat, _ = polarization_basis(tx.T @ v)
    theta_ref = tx @ theta_hat
    psi_ref = tx @ psi_hat
    z_rx = rx[:, 2]
    y_rx = rx[:, 1]
    return np.array(
        [
            [theta_ref @ z_rx, theta_ref @ y_rx],
            [psi_ref @ z_rx, psi_ref @ y_rx],
        ]
    )


def response_norms(uav_rel, tx_rot, rx_rot, w_tx, w_rx, ratio_tx=0.5, ratio_rx=0.5):
    """Squared norms ``(n1, n2)`` of the two response vectors of one antenna pair.

    ``uav_rel`` points from the transmitter to the receiver; each side gives
    its rotation, feed weights and dipole length ratio. ``n1 = |conj(w_t0)
    F(theta) theta_hat + conj(w_t1) F(psi) psi_hat|^2`` in the transmit frame,
    ``n2 = |w_r0 F(theta')|^2 + |w_r1 F(psi')|^2`` at the receive frame's
    angles to the transmitter. ``|h|^2 <= n1 n2`` (Cauchy-Schwarz), and the
    ratio is the polarization loss factor. Raises
    :class:`SingularDirectionError` where the transmit basis is undefined.

    Oracle: tests hold it against recorded lanes of ``_kernels.response_batch``;
    :func:`channel_factor` reads it for the PLF.
    """
    v = np.asarray(uav_rel, dtype=float)
    theta_hat, psi_hat, p_hat = polarization_basis(tx_rot.T @ v)
    f_tx = [field_pattern(a, ratio_tx) for a in np.arccos(p_hat[[2, 1]])]
    e_tx = np.conj(w_tx[0]) * f_tx[0] * theta_hat + np.conj(w_tx[1]) * f_tx[1] * psi_hat
    # rotating the unit direction can carry a cosine just past 1
    back = np.clip(-(rx_rot.T @ v) / np.linalg.norm(v), -1.0, 1.0)
    e_rx = w_rx * [field_pattern(a, ratio_rx) for a in np.arccos(back[[2, 1]])]
    return float(np.vdot(e_tx, e_tx).real), float(np.vdot(e_rx, e_rx).real)


def channel_factor(
    tx: AntennaConfig,
    rx: AntennaConfig,
    uav_rel: np.ndarray,
) -> PolarizationResult:
    """Complex coupling, PLF, and effective gain for one antenna pair.

    ``h`` carries the sqrt of both dipole gains so that ``chi = |h|^2``; the
    PLF divides the bare ``|h|^2`` by the product of :func:`response_norms`.

    Oracle: a one-pair call of the kernel that :func:`chi_batch` and
    ``channel.channel_matrix`` run in batches; tests use it as the reference
    for their single-element gains and channel magnitudes.
    """
    wt = tx.excitation.weights()
    wr = rx.excitation.weights()
    if np.all(wt == 0) or np.all(wr == 0):
        raise DegenerateExcitationError("all-zero excitation")
    pos = np.asarray(uav_rel, dtype=float)
    tx_rot = geo.rotation_matrix(tx.orientation)
    rx_rot = geo.rotation_matrix(rx.orientation)
    h, _ = response_batch(pos[None, :], np.zeros((1, 3)), tx_rot[None], rx_rot[None], wt, wr)
    hval = complex(h[0, 0])
    n1, n2 = response_norms(pos, tx_rot, rx_rot, wt, wr)
    denom = n1 * n2
    plf = abs(hval) ** 2 / denom if denom > 1e-30 else 0.0
    hfull = HALF_WAVE_DIPOLE_GAIN * hval
    return PolarizationResult(h=hfull, plf=min(plf, 1.0), chi=abs(hfull) ** 2)


# ---------------------------------------------------------------------------
# array-level gains
# ---------------------------------------------------------------------------


def chi_batch(ground: GroundArray, positions: np.ndarray, gs_rots: np.ndarray,
              uav_rots: np.ndarray) -> np.ndarray:
    """Effective gains of drones carrying the array's antenna, shape ``(n, M)``.

    ``gs_rots`` stands in for ``ground.rotations``, so that a caller can
    rotate the whole array per sample. Used by :func:`worst_case_gain` and
    the Monte Carlo estimators; a singular direction raises in the kernel.
    """
    def finish(h, _, out):
        # each block forms its gains with the bits of gain * gain * |h| ** 2:
        # one square, then one product with the scalar
        a = np.abs(h)
        np.square(a, out=a)
        np.multiply(a, ground.gain * ground.gain, out=out)

    return response_batch(positions, ground.elem, gs_rots, uav_rots, ground.w, ground.w,
                          ground.ratio, ground.ratio, finish=(np.float64, finish))


# drone range of worst_case_gain and montecarlo.kappa_estimate; their elements
# all sit at the origin, so the gains depend on direction and attitude only
_FAR_M = 1.0e4


def worst_case_gain(
    gs_configs,
    f0: float,
    budget: int = 10_000,
    seed: int = 0,
    refine_top: int = 10,
) -> float:
    """Smallest mean effective gain found over directions and drone attitudes.

    Stochastic search: uniform candidates over (elevation, azimuth, roll,
    pitch, yaw) followed by local refinement of the best candidates. The
    result is deterministic for a fixed seed and is an upper bound on the
    true minimum; configurations with exact polarization nulls will keep
    producing smaller values as the budget grows. ``refine_top > 0`` imports
    ``scipy.optimize`` on first use; ``refine_top=0`` returns the best
    candidate and needs no scipy.
    """
    if budget < 1:
        raise SwarmMimoError("search budget must be positive")
    ground = GroundArray.build(gs_configs, f0)

    def mean_gain(x):
        theta = min(max(x[0], 1e-6), math.pi - 1e-6)
        pos = _FAR_M * np.array(
            [math.cos(x[1]) * math.sin(theta), math.sin(x[1]) * math.sin(theta), math.cos(theta)]
        )
        roll = min(max(x[2], -math.pi / 2), math.pi / 2)
        pitch = min(max(x[3], -math.pi / 2), math.pi / 2)
        rot = geo.rotation_matrices(roll, pitch, x[4])
        return float(chi_batch(ground, pos[None, :], ground.rotations, rot[None]).mean())

    rng = np.random.default_rng(seed)
    cands = np.column_stack(
        [
            np.arccos(1.0 - 2.0 * rng.uniform(size=budget)),
            rng.uniform(0.0, 2 * math.pi, budget),
            rng.uniform(-math.pi / 2, math.pi / 2, budget),
            rng.uniform(-math.pi / 2, math.pi / 2, budget),
            rng.uniform(0.0, 2 * math.pi, budget),
        ]
    )
    vals = np.array([mean_gain(x) for x in cands])
    order = np.argsort(vals)
    best = float(vals[order[0]])
    picks = order[:refine_top]
    if picks.size:
        from scipy.optimize import minimize
    for idx in picks:
        res = minimize(
            mean_gain,
            cands[idx],
            method="Nelder-Mead",
            options={"maxiter": 400, "xatol": 1e-5, "fatol": 1e-14},
        )
        best = min(best, float(res.fun))
    return best
