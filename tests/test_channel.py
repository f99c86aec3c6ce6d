import contextlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from swarm_mimo_sim import _kernels
from swarm_mimo_sim import channel as ch
from swarm_mimo_sim import geometry as geo
from swarm_mimo_sim import montecarlo as mc
from swarm_mimo_sim import polarization as pol
from swarm_mimo_sim.errors import (
    InfeasibleFrameError,
    SingularChannelError,
    SwarmMimoError,
)

F0 = 2.4e9
LAM = geo.wavelength(F0)


def line_array(m, spacing=LAM / 2):
    return geo.ArrayGeometry(m, 1, spacing, 0.0)


def circular_configs(m, rng=None):
    exc = pol.DipoleExcitation.circular()
    if rng is None:
        return [pol.AntennaConfig(exc) for _ in range(m)]
    return [pol.AntennaConfig(exc, geo.sample_orientation(rng)) for _ in range(m)]


class TestPathloss:
    def test_unity_at_reference_distance(self):
        assert ch.pathloss(LAM / (4 * math.pi), LAM) == pytest.approx(1.0, rel=1e-14)

    def test_numeric_value(self):
        assert ch.pathloss(400.0, 0.125) == pytest.approx(6.1850e-10, rel=1e-3)

    def test_inverse_square(self):
        assert ch.pathloss(100.0, LAM) == pytest.approx(4 * ch.pathloss(200.0, LAM), rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(SwarmMimoError):
            ch.pathloss(0.0, LAM)
        with pytest.raises(SwarmMimoError):
            ch.pathloss(np.array([[100.0, 0.0]]), LAM)

    def test_elementwise_on_arrays(self):
        d = np.array([[100.0, 250.0], [31.5, 4000.0]])
        want = [[ch.pathloss(float(x), LAM) for x in row] for row in d]
        assert np.array_equal(ch.pathloss(d, LAM), want)


class TestChannelVector:
    # one drone's channel vector is the one column of a one-drone channel_matrix call
    def test_single_element_magnitude(self):
        g = ch.channel_matrix(
            pol.GroundArray.build(circular_configs(1), F0, line_array(1)),
            np.array([[70.0, 10.0, 40.0]]), np.eye(3)[None],
        )[:, 0]
        res = pol.channel_factor(
            pol.AntennaConfig(pol.DipoleExcitation.circular()),
            pol.AntennaConfig(pol.DipoleExcitation.circular()),
            np.array([70.0, 10.0, 40.0]),
        )
        d = np.linalg.norm([70.0, 10.0, 40.0])
        assert abs(g[0]) == pytest.approx(
            math.sqrt(ch.pathloss(d, LAM) * res.chi), rel=1e-12
        )

    def test_norm_identity(self):
        rng = np.random.default_rng(0)
        geometry = line_array(16)
        cfgs = circular_configs(16, rng)
        pos = geo.SphericalPosition(300.0, 1.2, 0.4).to_cartesian()
        ground = pol.GroundArray.build(cfgs, F0, geometry)
        rot = geo.rotation_matrix(geo.RotationAngles(0.1, 0.2, 0.3))[None]
        g = ch.channel_matrix(ground, pos[None], rot)[:, 0]
        h, _ = _kernels.response_batch(pos[None], ground.elem, ground.rotations, rot,
                                       ground.w, ground.w)
        chi = np.abs(h[0]) ** 2 * ground.gain**2  # each element's effective gain
        dists = np.linalg.norm(pos - geo.element_positions(geometry), axis=1)
        beta = np.array([ch.pathloss(d, LAM) for d in dists])
        assert np.linalg.norm(g) ** 2 == pytest.approx(float(np.sum(beta * chi)), rel=1e-10)

    def test_plane_wave_norm(self):
        geometry = line_array(32)
        cfgs = circular_configs(32)
        pos = geo.SphericalPosition(50_000.0, 1.1, 0.9).to_cartesian()
        g = ch.channel_matrix(pol.GroundArray.build(cfgs, F0, geometry), pos[None],
                              np.eye(3)[None])[:, 0]
        d = np.linalg.norm(pos)
        res = pol.channel_factor(cfgs[0], pol.AntennaConfig(cfgs[0].excitation), pos)
        expected = 32 * ch.pathloss(d, LAM) * res.chi
        assert np.linalg.norm(g) ** 2 == pytest.approx(expected, rel=1e-3)

    def test_same_bearing_signatures_fully_correlated(self):
        geometry = line_array(16)
        cfgs = circular_configs(16)
        rot = np.broadcast_to(np.eye(3), (2, 3, 3)).copy()
        pos = np.stack([
            geo.SphericalPosition(2_000.0, 1.0, 0.6).to_cartesian(),
            geo.SphericalPosition(3_000.0, 1.0, 0.6).to_cartesian(),
        ])
        g = ch.channel_matrix(pol.GroundArray.build(cfgs, F0, geometry), pos, rot)
        g1, g2 = g[:, 0], g[:, 1]
        corr = abs(np.vdot(g1, g2)) ** 2
        full = (np.linalg.norm(g1) * np.linalg.norm(g2)) ** 2
        assert corr == pytest.approx(full, rel=2e-3)

    def test_rejects_drone_inside_aperture(self):
        geometry = line_array(100)
        with pytest.raises(SwarmMimoError):
            ch.channel_matrix(
                pol.GroundArray.build(circular_configs(100), F0, geometry),
                np.array([[1.0, 0.5, 0.5]]), np.eye(3)[None],
            )


def _synthesize_reference(h, dist, lam, gains):
    "The one expression over the whole array that ``synthesize`` computes."
    beta = ch.pathloss(dist, lam)
    return np.sqrt(beta * gains) * h * np.exp(-2j * math.pi * dist / lam)


def _pool_modes(monkeypatch):
    """Yield once per way of running the kernel's blocks: pooled with 1 and 8 workers, then inline.

    The pooled runs switch threads every microsecond, with more workers than cores.
    """
    switch = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for workers in (1, 8):
            with ThreadPoolExecutor(workers) as pool, monkeypatch.context() as patch:
                patch.setattr(_kernels, "_pool", pool)
                yield workers
    finally:
        sys.setswitchinterval(switch)
    with monkeypatch.context() as patch:
        patch.setattr(_kernels, "_block_pool", lambda: None)  # one usable core
        yield "inline"


class TestSynthesize:
    """Kernel blocks that finish their own lanes keep every bit of the two-pass expressions.

    ``chi_batch``, ``channel_matrix`` and ``montecarlo._channel_for`` have each
    block square and sum, or synthesize, its lanes into the caller's array;
    each must equal that step taken over the raw ``response_batch`` coupling
    and distances of the whole call.
    """

    # one block, several blocks (8180 x 64 is the ergodic chunk, 16,384-lane
    # blocks), a one-row remainder merged into the block before it, and a few
    # very wide rows
    SHAPES = [(1, 1), (2, 3), (8180, 64), (8192, 50), (16385, 1), (3, 20000)]

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_bits_match_whole_array_expression(self, shape, monkeypatch):
        n, m = shape
        rng = np.random.default_rng(n * 7919 + m)
        pos = geo.sample_shell_positions(geo.ShellRegion(20.0, 500.0), rng, n)
        elem = rng.normal(size=(m, 3))
        uav = geo.sample_rotations(rng, n)
        spec = mc.ScenarioSpec(geometry=line_array(m), region=geo.ShellRegion(20.0, 500.0),
                               f_c=F0)
        for layout in ("per_sample", "per_element", "identity"):
            rots = geo.sample_rotations(rng, m) if layout == "per_element" else np.eye(3)[None]
            ground = pol.GroundArray(F0, elem, np.broadcast_to(rots, (m, 3, 3)),
                                     pol.DipoleExcitation.circular().weights(), 0.0)
            gs = geo.sample_rotations(rng, n)[:, None] if layout == "per_sample" else ground.rotations
            h, dist = _kernels.response_batch(pos, elem, gs, uav, ground.w, ground.w,
                                              ground.ratio, ground.ratio)
            gain = ground.gain
            chi = np.abs(h)
            np.square(chi, out=chi)
            chi *= gain * gain
            finished = {
                "chi_batch": (lambda: pol.chi_batch(ground, pos, gs, uav), chi.sum(axis=1)),
                "_channel_for": (lambda: mc._channel_for(spec, ground, pos, gs, uav),
                                 _synthesize_reference(h * gain, dist, LAM, 1.0)),
            }
            if layout != "per_sample":  # the matrix of n drones, (m, n)
                finished["channel_matrix"] = (lambda: ch.channel_matrix(ground, pos, uav),
                                              _synthesize_reference(h, dist, LAM, gain * gain).T)
            del h, dist
            # closed on a failure too, which restores the switch interval at once
            with contextlib.closing(_pool_modes(monkeypatch)) as modes:
                for how in modes:
                    for name, (call, want) in finished.items():
                        got = call()
                        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (
                            layout, how, name)

    def test_rejects_nonpositive_distance_in_any_block(self):
        dist = np.full((8192, 50), 100.0)
        dist[-1, -1] = 0.0
        with pytest.raises(SwarmMimoError, match="distance must be positive"):
            ch.synthesize(np.ones(dist.shape, complex), dist, LAM, 1.0)


class TestGroundArray:
    def test_rejects_mixed_excitations(self):
        cfgs = circular_configs(3) + [pol.AntennaConfig(pol.DipoleExcitation.linear())]
        with pytest.raises(SwarmMimoError, match="share one excitation"):
            pol.GroundArray.build(cfgs, F0, line_array(4))

    def test_rejects_element_count_mismatch(self):
        with pytest.raises(SwarmMimoError):
            pol.GroundArray.build(circular_configs(3), F0, line_array(4))

    def test_arrays_read_only(self):
        ground = pol.GroundArray.build(circular_configs(4, np.random.default_rng(1)), F0,
                                       line_array(4))
        exc = pol.DipoleExcitation.linear()
        given = (np.zeros((2, 3)), np.stack([np.eye(3)] * 2), exc.weights())
        direct = pol.GroundArray(F0, *given, 0.0)
        for arr in (ground.elem, ground.rotations, ground.w,
                    direct.elem, direct.rotations, direct.w):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert ground.elem.shape == (4, 3) and ground.rotations.shape == (4, 3, 3)
        assert all(a.flags.writeable for a in given)  # the caller's arrays stay writable


class TestCoherence:
    def test_interval_and_prelog(self):
        params = ch.CoherenceParams(f_c=2.4e9, bandwidth=20e6, b_c=3e6, v_max=20.0)
        t_len, lam = ch.coherence_prelog(params, 20)
        assert t_len == pytest.approx(9375.0)
        assert lam == pytest.approx(0.8728667, abs=1e-6)

    def test_speed_sensitivity(self):
        base = dict(f_c=5e9, bandwidth=20e6, b_c=2e6)
        _, lam0 = ch.coherence_prelog(ch.CoherenceParams(v_max=0.0, **base), 100)
        _, lam30 = ch.coherence_prelog(ch.CoherenceParams(v_max=30.0, **base), 100)
        assert lam0 == pytest.approx(0.875)
        assert lam30 == pytest.approx(0.825)
        assert lam0 - lam30 == pytest.approx(0.05, abs=1e-12)

    def test_coherence_time_two_ms(self):
        params = ch.CoherenceParams(f_c=2.4e9, bandwidth=20e6, b_c=3e6, v_max=30.0)
        t_coh = ch.coherence_interval(params) / params.b_c
        assert t_coh == pytest.approx(2.083e-3, rel=1e-3)

    def test_infeasible_frame(self):
        params = ch.CoherenceParams(f_c=2.4e9, bandwidth=20e6, b_c=1e4, v_max=50.0)
        with pytest.raises(InfeasibleFrameError):
            ch.coherence_prelog(params, 100)


class TestPilotPower:
    def test_reference_point(self):
        assert ch.pilot_snr(1.0, LAM / (4 * math.pi), 1.0, LAM) == pytest.approx(1.0, rel=1e-14)

    def test_numeric_value(self):
        assert ch.pilot_snr(10.0, 500.0, 1.0, 0.125) == pytest.approx(
            10 * (4 * math.pi * 500 / 0.125) ** 2, rel=1e-12)

    def test_gain_proportionality(self):
        assert ch.pilot_snr(10.0, 500.0, 0.5, 0.125) == pytest.approx(
            2 * ch.pilot_snr(10.0, 500.0, 1.0, 0.125))


class TestMlEstimate:
    def test_perfect_csi_limit(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
        assert ch.pilot_draws(rng, g.shape, math.inf) is None  # nothing drawn
        assert np.array_equal(ch.ml_estimate(g, math.inf, None), g)

    def test_error_variance(self):
        rng = np.random.default_rng(1)
        g = np.zeros((4, 5), dtype=complex)
        p_p = 3.7
        errs = []
        for _ in range(10_000):
            est = ch.ml_estimate(g, p_p, ch.pilot_draws(rng, g.shape, p_p))
            errs.append(np.sum(np.abs(est - g) ** 2))
        errs = np.asarray(errs)
        expected = g.size / p_p
        se = errs.std() / math.sqrt(errs.size)
        assert abs(errs.mean() - expected) < 3 * se

    def test_noise_uncorrelated_with_channel(self):
        rng = np.random.default_rng(2)
        g = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        acc = 0.0
        n = 5000
        for _ in range(n):
            est = ch.ml_estimate(g, 2.0, ch.pilot_draws(rng, g.shape, 2.0))
            acc += np.vdot(g, est - g)
        assert abs(acc) / n < 0.05 * np.linalg.norm(g) ** 2

    @pytest.mark.parametrize("shape", [(5, 3), (8180, 64)], ids=lambda s: f"{s[0]}x{s[1]}")
    def test_draw_order_and_bits(self, shape):
        # all real parts, then all imaginary parts; the estimate keeps the bits
        # of g + w / sqrt(2 p_p), also where numpy computes in place (8 MB here)
        rng = np.random.default_rng(4)
        g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        z = ch.pilot_draws(np.random.default_rng(5), shape, 2.5)
        assert z.shape == (2,) + shape
        assert np.array_equal(z.ravel(), np.random.default_rng(5).standard_normal(2 * g.size))
        want = g + (z[0] + 1j * z[1]) / math.sqrt(2.0 * 2.5)
        assert ch.ml_estimate(g, 2.5, z).tobytes() == want.tobytes()

    def test_rows_from_their_slice_of_the_draws(self):
        # a block of channel rows drawn at once and estimated a group of rows at
        # a time, as montecarlo's ergodic chunks do
        rng = np.random.default_rng(6)
        g = rng.normal(size=(40, 8)) + 1j * rng.normal(size=(40, 8))
        z = ch.pilot_draws(rng, g.shape, 7.0)
        whole = ch.ml_estimate(g, 7.0, z)
        for rows in (slice(0, 16), slice(16, 39), slice(39, 40)):
            assert ch.ml_estimate(g[rows], 7.0, z[:, rows]).tobytes() == whole[rows].tobytes()


class TestSinr:
    def test_single_drone_perfect_csi(self):
        rng = np.random.default_rng(0)
        g = (rng.normal(size=(16, 1)) + 1j * rng.normal(size=(16, 1))) / math.sqrt(2)
        sinr = ch.instantaneous_sinr_mrc(g, g, np.array([2.0]))
        assert sinr[0] == pytest.approx(2.0 * np.linalg.norm(g) ** 2, rel=1e-12)

    def test_orthogonal_signatures(self):
        g = np.zeros((8, 2), dtype=complex)
        g[0, 0] = 2.0
        g[3, 1] = 1.5
        sinr = ch.instantaneous_sinr_mrc(g, g, np.array([1.0, 3.0]))
        assert sinr[0] == pytest.approx(4.0, rel=1e-12)
        assert sinr[1] == pytest.approx(3 * 2.25, rel=1e-12)

    def test_matches_direct_quotient(self):
        rng = np.random.default_rng(1)
        m, k = 12, 3
        g = rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k))
        g_hat = g + 0.1 * (rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k)))
        p = rng.uniform(0.5, 2.0, k)
        sinr = ch.instantaneous_sinr_mrc(g, g_hat, p)
        for kk in range(k):
            num = p[kk] * abs(np.vdot(g_hat[:, kk], g[:, kk])) ** 2
            inter = sum(
                p[j] * abs(np.vdot(g_hat[:, kk], g[:, j])) ** 2
                for j in range(k) if j != kk
            )
            den = inter + np.linalg.norm(g_hat[:, kk]) ** 2
            assert sinr[kk] == pytest.approx(num / den, rel=1e-12)

    def test_common_phase_invariance(self):
        rng = np.random.default_rng(2)
        g = rng.normal(size=(10, 2)) + 1j * rng.normal(size=(10, 2))
        p = np.array([1.0, 2.0])
        base = ch.instantaneous_sinr_mrc(g, g, p)
        rotated = g * np.exp(1j * 0.7)
        assert np.allclose(ch.instantaneous_sinr_mrc(rotated, rotated, p), base, rtol=1e-12)


class TestZeroForcing:
    def test_single_drone_equals_mrc(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(8, 1)) + 1j * rng.normal(size=(8, 1))
        zf = ch.sinr_zf(g, np.array([1.5]))
        assert zf[0] == pytest.approx(1.5 * np.linalg.norm(g) ** 2, rel=1e-12)

    def test_orthogonal_columns(self):
        g = np.zeros((6, 2), dtype=complex)
        g[0, 0] = 1.0 + 1j
        g[2, 1] = 2.0
        zf = ch.sinr_zf(g, np.array([1.0, 1.0]))
        assert zf[0] == pytest.approx(2.0, rel=1e-12)
        assert zf[1] == pytest.approx(4.0, rel=1e-12)

    def test_adjugate_identity_two_drones(self):
        rng = np.random.default_rng(1)
        g = rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2))
        p = np.array([1.2, 0.7])
        gram = g.conj().T @ g
        det = np.linalg.det(gram).real
        adj00 = gram[1, 1].real  # adjugate diagonal for 2x2
        adj11 = gram[0, 0].real
        zf = ch.sinr_zf(g, p)
        assert zf[0] == pytest.approx(p[0] * det / adj00, rel=1e-9)
        assert zf[1] == pytest.approx(p[1] * det / adj11, rel=1e-9)

    def test_rank_deficiency_raises(self):
        g = np.ones((4, 2), dtype=complex)
        with pytest.raises(SingularChannelError):
            ch.sinr_zf(g, np.array([1.0, 1.0]))

    def test_needs_enough_elements(self):
        with pytest.raises(SingularChannelError):
            ch.sinr_zf(np.ones((1, 2), dtype=complex), np.array([1.0, 1.0]))


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestStacks:
    """A ``(S, M, K)`` stack gives each matrix the bits of its own call."""

    M = 24

    def ground(self):
        configs = circular_configs(self.M, np.random.default_rng(5))
        return pol.GroundArray.build(configs, F0, line_array(self.M))

    def drones(self, stack, k, seed=0):
        rng = np.random.default_rng(seed)
        pos = geo.sample_shell_positions(geo.ShellRegion(50.0, 400.0), rng, stack * k)
        ang = geo.sample_orientations(rng, stack * k)
        rots = geo.rotation_matrices(ang[:, 0], ang[:, 1], ang[:, 2])
        return pos.reshape(stack, k, 3), rots.reshape(stack, k, 3, 3)

    def channels(self, stack, k, seed=0):
        rng = np.random.default_rng(seed)
        shape = (stack, self.M, k)
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        g_hat = g + 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        return g, g_hat, rng.uniform(0.5, 2.0, (stack, k))

    @pytest.mark.parametrize("stack, k", [(5, 2), (3, 20), (1, 2), (1, 20)])
    def test_channel_matrix(self, stack, k):
        ground = self.ground()
        pos, rots = self.drones(stack, k)
        g = ch.channel_matrix(ground, pos, rots)
        assert g.shape == (stack, self.M, k) and g.flags.c_contiguous
        for s in range(stack):
            assert _same_bits(g[s], ch.channel_matrix(ground, pos[s], rots[s])), s

    @pytest.mark.parametrize("stack, k", [(5, 2), (3, 20), (1, 2), (1, 20)])
    def test_ml_estimate(self, stack, k):
        g, _, _ = self.channels(stack, k)
        rng = np.random.default_rng(9)
        g_hat = ch.ml_estimate(g, 40.0, ch.pilot_draws(np.random.default_rng(9), g.shape, 40.0))
        for s in range(stack):  # one matrix after another from the same stream
            z = ch.pilot_draws(rng, g[s].shape, 40.0)
            assert _same_bits(g_hat[s], ch.ml_estimate(g[s], 40.0, z)), s

    @pytest.mark.parametrize("stack, k", [(5, 2), (3, 20), (1, 2), (1, 20)])
    def test_sinr_mrc(self, stack, k):
        g, g_hat, p = self.channels(stack, k)
        sinr = ch.instantaneous_sinr_mrc(g, g_hat, p)
        assert sinr.shape == (stack, k)
        for s in range(stack):
            assert _same_bits(sinr[s], ch.instantaneous_sinr_mrc(g[s], g_hat[s], p[s])), s

    @pytest.mark.parametrize("stack, k", [(5, 2), (3, 20), (1, 2), (1, 20)])
    def test_sinr_zf(self, stack, k):
        g, _, p = self.channels(stack, k)
        sinr = ch.sinr_zf(g, p)
        assert sinr.shape == (stack, k)
        for s in range(stack):
            assert _same_bits(sinr[s], ch.sinr_zf(g[s], p[s])), s

    def test_one_singular_matrix_raises(self):
        g, _, p = self.channels(3, 2)
        g[1] = 1.0
        with pytest.raises(SingularChannelError):
            ch.sinr_zf(g, p)
