"""Seeded Monte Carlo estimators that validate and feed the closed forms.

Reproducibility contract: :func:`_chunks` cuts every estimator's samples into
fixed-size chunks and gives chunk ``i`` its own counter-based random
substream, ``substream(seed, i)``; :func:`_estimate` combines the chunks'
partial sums in chunk order. Results are therefore bit-identical for a fixed
seed no matter how the chunks are scheduled, and independent of the
parallelism inside the numeric kernels. Synthesis draws nothing. Within a
chunk an estimator draws its positions and rotations first; the interference
moment and the ergodic rate then build channels one group of whole kernel
blocks at a time (:func:`_in_groups`). With estimated CSI the
ergodic rate copies the chunk's generator once and walks the original past
the chunk's real pilot parts; each group then draws its real parts from the
copy and its imaginary parts from the original. Every real part precedes
every imaginary part in ``channel.pilot_draws``' layout, so the stream is the
one that drawing all the noise first would consume.
"""

from __future__ import annotations

import copy
import math
import threading
from dataclasses import dataclass

import numpy as np

from . import channel
from . import geometry as geo
from ._kernels import _BLOCK_LANES, _cores, _row_blocks, map_tasks
from .channel import instantaneous_sinr_mrc, pilot_snr, sinr_zf, synthesize
from .errors import SwarmMimoError
from .polarization import _FAR_M, DipoleExcitation, GroundArray, chi_batch
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
            rotations = geo.sample_rotations(substream(self.orientation_seed, 0xA11A), m,
                                             self.orientation_ranges)
        else:
            rotations = np.broadcast_to(np.eye(3), (m, 3, 3))
        circular = self.excitation == "circular"
        exc = DipoleExcitation.circular() if circular else DipoleExcitation.linear()
        # the isotropic and unit elements: a flat pattern (ratio 0) with unit gain
        element = () if self.pattern == "dipole" else (0.0, 1.0)
        return GroundArray(self.f_c, geo.element_positions(self.geometry), rotations,
                           exc.weights(), self.geometry.aperture(), *element)


def _gs_rotations(spec: ScenarioSpec, ground: GroundArray, rng, n: int) -> np.ndarray:
    "The array's own rotations, or one common ``(n, 1, 3, 3)`` draw per sample."
    if spec.gs_orientation != "identical":
        return ground.rotations
    return geo.sample_rotations(rng, n, spec.orientation_ranges)[:, None]


def _channel_for(spec: ScenarioSpec, ground: GroundArray, positions, gs_rots, uav_rots):
    """(n, M) complex channel rows, from exact distances."""
    from ._kernels import response_batch

    if spec.pattern == "unit":
        rel = positions[:, None, :] - ground.elem[None, :, :]
        dist = np.sqrt(np.sum(rel * rel, axis=-1))
        return synthesize(np.ones_like(dist, dtype=np.complex128), dist, spec.lam, 1.0)

    g = np.empty((len(positions), len(ground.elem)), dtype=np.complex128)

    def finish(h, d, rows):
        # the gain scales h, not synthesize's gains: moving it there changes last bits,
        # so it waits for a deliberate re-record of the seeded outputs; in place, it
        # keeps the operand order of h * ground.gain
        h *= ground.gain
        synthesize(h, d, spec.lam, 1.0, g[rows].T)

    response_batch(positions, ground.elem, gs_rots, uav_rots, ground.w, ground.w,
                   ground.ratio, ground.ratio, finish=finish)
    return g


def _in_groups(take: int, k: int, m: int, blocks: int, gs, group) -> np.ndarray:
    """One ``(take,)`` array of ``group(rows, gs_rows)`` over a chunk's groups of whole draws.

    Groups join the kernel's row blocks of the chunk's ``take * k`` channel
    rows (``_row_blocks``) until they hold ``blocks`` or more and end on a
    draw; the last takes the rest. So their calls keep the bits of one call on
    the whole chunk, and a group's arrays are freed before the next's are built.
    """
    values = np.empty(take)
    start, joined = 0, 0
    for block in _row_blocks(take * k, m):
        joined += 1
        if joined >= blocks and block.stop % k == 0 or block.stop == take * k:
            draws = slice(start, block.stop // k)
            gs_rows = gs  # the array's own (m, 3, 3) rotations
            if gs.ndim == 4:  # one common orientation per draw, shared by its k drones
                gs_rows = np.repeat(gs[draws], k, axis=0)
            values[draws] = group(draws, gs_rows)
            start, joined = block.stop // k, 0
    return values


#: Kernel row blocks per group of an interference-moment chunk, about 2**18 lanes.
#: A group's calls still spread over the pool, but wait for their slowest block: on
#: 2 cores at 50 elements, gain sums took about 4 % longer in groups of 16 blocks
#: than with one call per chunk, and about 20 % in groups of 4.
_MOMENT_GROUP_BLOCKS = 16


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def estimate_interference_moment(spec: ScenarioSpec, n: int, seed: int) -> EstimatorResult:
    """Mean of ``p_uj p_uk |g_k^H g_j|^2`` for two independent shell drones.

    Uses full channel synthesis (exact distances) and uncapped channel-inversion
    powers. A chunk's draws come first; then both drones' channels are built and
    reduced in groups of whole kernel blocks (:func:`_in_groups`).
    """
    ground = spec.ground()

    def sample(rng, take):
        pos_k = geo.sample_shell_positions(spec.region, rng, take)
        pos_j = geo.sample_shell_positions(spec.region, rng, take)
        rot_k = geo.sample_rotations(rng, take, spec.orientation_ranges)
        rot_j = geo.sample_rotations(rng, take, spec.orientation_ranges)
        gs = _gs_rotations(spec, ground, rng, take)

        def moment(rows, gs_rows):
            g_k = _channel_for(spec, ground, pos_k[rows], gs_rows, rot_k[rows])
            g_j = _channel_for(spec, ground, pos_j[rows], gs_rows, rot_j[rows])
            gain_k = np.mean(np.abs(g_k) ** 2, axis=1)
            gain_j = np.mean(np.abs(g_j) ** 2, axis=1)
            cross = np.abs(np.sum(np.conj(g_k) * g_j, axis=1)) ** 2
            return (spec.rho_u / gain_k) * (spec.rho_u / gain_j) * cross

        return _in_groups(take, 1, spec.geometry.m, _MOMENT_GROUP_BLOCKS, gs, moment)

    return _estimate(n, seed, CHUNK, sample)


def interference_moment_bytes(m: int) -> int:
    "Bytes a chunk of :func:`estimate_interference_moment` holds: 264 a draw, 50 a group lane."
    return 264 * CHUNK + 50 * _MOMENT_GROUP_BLOCKS * max(2, _BLOCK_LANES // m) * m


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
    if m < 2:
        raise SwarmMimoError(f"the zero-forcing moment needs two or more elements, got {m}")
    elem = geo.element_positions(spec.geometry)
    lam = spec.lam

    def sample(rng, take):
        pos_1 = geo.sample_shell_positions(spec.region, rng, take)
        pos_2 = geo.sample_shell_positions(spec.region, rng, take)
        d1 = np.sqrt(np.sum((pos_1[:, None, :] - elem[None, :, :]) ** 2, axis=-1))
        d2 = np.sqrt(np.sum((pos_2[:, None, :] - elem[None, :, :]) ** 2, axis=-1))
        s = np.sum(np.exp(2j * math.pi * (d1 - d2) / lam), axis=1)
        cross = np.abs(s) ** 2 - m
        return 1.0 / (m - 1.0 - cross / m)

    size = max(1, min(CHUNK, 4_194_304 // m))  # bound the (take, M) buffers
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
    reflects draw-to-draw variation. A chunk draws its placements and
    attitudes first, then synthesizes, estimates and combines one group of
    whole draws at a time (:func:`_in_groups`), drawing the group's pilot
    noise as it goes, so it holds one group's noise and channels, not the
    chunk's. The real parts come from one copy of the chunk's generator,
    taken before the generator skips them all, so they are drawn twice.
    """
    if receiver not in ("mrc", "zf"):
        raise SwarmMimoError(f"unknown receiver {receiver!r}")
    if csi not in ("perfect", "estimated"):
        raise SwarmMimoError(f"unknown csi mode {csi!r}")
    if receiver == "zf" and csi != "perfect":
        raise SwarmMimoError("zero-forcing here assumes perfect channel knowledge")
    k, m = spec.k, spec.geometry.m
    ground = spec.ground()
    p_p = pilot_snr(spec.rho_p, spec.region.r_max, spec.chi_wc, spec.lam)
    noisy = csi == "estimated" and not math.isinf(p_p)  # else no pilot noise is drawn

    def sample(rng, take):
        pos = geo.sample_shell_positions(spec.region, rng, take * k)
        rots = geo.sample_rotations(rng, take * k, spec.orientation_ranges)
        gs = _gs_rotations(spec, ground, rng, take)
        # pilot_draws' order puts the chunk's real parts first: the groups draw theirs
        # from a copy of rng, and rng skips them to the imaginary parts, drawn in turn
        if noisy:
            real = copy.deepcopy(rng)
            for block in _row_blocks(take * k, m):
                rng.standard_normal((block.stop - block.start, m))

        def group_rates(draws, gs_rows):
            rows = slice(draws.start * k, draws.stop * k)
            g_rows = _channel_for(spec, ground, pos[rows], gs_rows, rots[rows])
            g = g_rows.reshape(-1, k, m)  # (draws, K, M)
            powers = spec.rho_u / np.mean(np.abs(g) ** 2, axis=2)
            g_hat = g
            if noisy:  # the group's (draws * K, M) rows as one matrix
                z = np.empty((2,) + g_rows.shape)
                real.standard_normal(out=z[0])
                rng.standard_normal(out=z[1])
                g_hat = channel.ml_estimate(g_rows, p_p, z).reshape(g.shape)
                del z  # before the SINR's temporaries
            g = g.transpose(0, 2, 1)  # (draws, M, K), one matrix per draw
            if receiver == "mrc":
                sinr = instantaneous_sinr_mrc(g, g_hat.transpose(0, 2, 1), powers)
            else:
                sinr = sinr_zf(g, powers)
            return prelog * np.mean(np.log2(1.0 + sinr), axis=-1)

        return _in_groups(take, k, m, 1, gs, group_rates)

    return _estimate(n, seed, max(1, CHUNK // max(k, 1)), sample)


def kappa_estimate(gs_configs, f0: float, seed: int, n: int = 100_000):
    """Monte Carlo mean of the reciprocal mean gain over drone geometries.

    The drones carry the array's own antenna, sit on a far sphere and take
    attitudes from ``geo.DEFAULT_ORIENTATION_RANGES``. Samples whose mean
    gain falls below 1e-12 are excluded (counted) to guard the
    reciprocal against polarization nulls. Returns ``(kappa, stderr,
    n_excluded)``. ``stderr`` is the iid formula, which understates the
    spread between random streams: 1/gain is heavy-tailed near polarization
    nulls, and for 8 upright circular elements at n = 100k two streams gave
    14.94 +- 1.59 and 19.88 +- 5.44.
    """
    ground = GroundArray.build(gs_configs, f0)
    region = geo.ShellRegion(_FAR_M, _FAR_M)

    def sample(rng, take):
        pos = geo.sample_shell_positions(region, rng, take)
        rots = geo.sample_rotations(rng, take)
        mean = chi_batch(ground, pos, ground.rotations, rots) / len(gs_configs)
        return 1.0 / mean[mean >= 1e-12]

    res = _estimate(n, seed, CHUNK, sample)
    return res.mean, res.stderr, n - res.n


def gain_cdf_bytes(n: int) -> int:
    "Bytes of :func:`gain_cdf`'s one n-sized buffer, 8 a sample; a chunk holds no (rows, M) array."
    return 8 * n


def gain_cdf(spec: ScenarioSpec, n: int, seed: int, thresholds_db: np.ndarray):
    """Empirical CDF of the summed effective gain over the array.

    Returns ``(thresholds_db, cdf, stats)`` where ``stats`` carries the
    median in dB and the probability of falling below 10 dB. Each chunk's
    sums come from one ``chi_batch`` call, which holds no ``(CHUNK, M)`` array.
    """
    thresholds_db = np.asarray(thresholds_db, dtype=float)
    ground = spec.ground()
    if spec.pattern == "unit":  # each sum is exactly M, and nothing is drawn
        sums = np.full(n, float(spec.geometry.m))
    else:
        sums = np.empty(n)  # gain_cdf_bytes: the median needs every sample
        for index, (rng, take) in enumerate(_chunks(n, seed)):
            pos = geo.sample_shell_positions(spec.region, rng, take)
            rots = geo.sample_rotations(rng, take, spec.orientation_ranges)
            gs = _gs_rotations(spec, ground, rng, take)
            sums[index * CHUNK:index * CHUNK + take] = chi_batch(ground, pos, gs, rots)
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


_MAX_PAIRS = 64  # element pairs validate_expectations compares, at most


def validate_bytes(n: int) -> int:
    "Bytes :func:`validate_expectations` holds: 32 per draw shared, 24 per draw and thread."
    threads = min(_cores(), _MAX_PAIRS) if n >= _BLOCK_LANES else 1  # as map_tasks runs rows
    return (32 + 24 * threads) * n


def validate_expectations(spec: ScenarioSpec, n: int, seed: int):
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
    if count > _MAX_PAIRS:
        picks = sorted(substream(seed, 0xFA1).choice(count, size=_MAX_PAIRS, replace=False))
    rng = substream(seed, 1)
    d, theta, phi = geo._shell_draws(spec.region, rng, n)
    k_sin_theta = (2.0 * math.pi / lam) * np.sin(theta)
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    del theta, phi  # only their trig is read
    pairs = []
    for k in picks:
        row, col = divmod(int(k), m - 1)
        l, lp = row + 1, col + 1 + (col >= row)  # a row skips its own index
        q, p = divmod(l - 1, geometry.m_x)
        qp, pp = divmod(lp - 1, geometry.m_x)
        bval = (math.pi / lam) * ((p * p - pp * pp) * geometry.delta_x**2
                                  + (q * q - qp * qp) * geometry.delta_y**2)
        pairs.append((l, lp, p - pp, q - qp, bval))
    # one call for all pairs: each value is that of a call of its own
    cvals, dvals = cb_db([bval for *_, bval in pairs], spec.region)

    # n-sized buffers that live as long as the call, one set per thread (validate_bytes):
    # rows that allocated their own temporaries faulted the freed pages back in
    local = threading.local()

    def row(pair):
        (l, lp, dp, dq, bval), cval, dval = pair
        sincval = expected_phase_sinc(dp, dq, geometry, lam)
        closed = complex(cval, dval) * sincval
        if not hasattr(local, "bufs"):
            z = np.empty(n, dtype=np.complex128)
            # b is last read before z is written, so it lives in z's first half
            local.bufs = np.empty(n), z.view(np.float64)[:n], z
        a, b, z = local.bufs
        # phase = bval / d - (2 pi / lam) sin(theta) (dp dx cos(phi) + dq dy sin(phi)),
        # one operation at a time in the order of that expression
        np.multiply(dp * geometry.delta_x, cos_phi, out=a)
        np.multiply(dq * geometry.delta_y, sin_phi, out=b)
        np.add(a, b, out=a)
        np.multiply(k_sin_theta, a, out=a)
        np.divide(bval, d, out=b)
        np.subtract(b, a, out=a)
        np.multiply(1j, a, out=z)
        np.exp(z, out=z)
        mc = complex(z.mean())
        np.subtract(z, mc, out=z)
        np.abs(z, out=a)
        np.square(a, out=a)
        se = float(np.sqrt(a.mean() / n))
        dev = abs(mc - closed) / se if se > 0 else 0.0
        return dict(l=l, lp=lp, closed_re=closed.real, closed_im=closed.imag,
                    mc_re=mc.real, mc_im=mc.imag, stderr=se, dev_se=dev)

    # the rows only read the shared draws: on the kernel's pool once the draws
    # are as wide as one of its blocks, in pick order either way
    rows = map_tasks(row, zip(pairs, cvals.tolist(), dvals.tolist()), pooled=n >= _BLOCK_LANES)
    max_dev = max(r["dev_se"] for r in rows)
    return rows, max_dev
