import math

import numpy as np
import pytest

from swarm_mimo_sim import channel as ch
from swarm_mimo_sim import geometry as geo
from swarm_mimo_sim import polarization as pol
from swarm_mimo_sim.errors import (
    InfeasibleBudgetError,
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


class TestChannelVector:
    def test_single_element_magnitude(self):
        g = ch.channel_vector(
            pol.GroundArray.build(circular_configs(1), F0, line_array(1)),
            np.array([70.0, 10.0, 40.0]), geo.RotationAngles(),
        )
        res = pol.channel_factor(
            pol.AntennaConfig(pol.DipoleExcitation.circular()),
            pol.AntennaConfig(pol.DipoleExcitation.circular()),
            np.array([70.0, 10.0, 40.0]), F0,
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
        g = ch.channel_vector(pol.GroundArray.build(cfgs, F0, geometry), pos,
                              geo.RotationAngles(0.1, 0.2, 0.3))
        chi, _ = pol.effective_gain_array(
            cfgs, pos, geo.RotationAngles(0.1, 0.2, 0.3), F0, geometry=geometry
        )
        dists = np.linalg.norm(pos - geo.element_positions(geometry), axis=1)
        beta = np.array([ch.pathloss(d, LAM) for d in dists])
        assert np.linalg.norm(g) ** 2 == pytest.approx(float(np.sum(beta * chi)), rel=1e-10)

    def test_plane_wave_norm(self):
        geometry = line_array(32)
        cfgs = circular_configs(32)
        pos = geo.SphericalPosition(50_000.0, 1.1, 0.9).to_cartesian()
        g = ch.channel_vector(pol.GroundArray.build(cfgs, F0, geometry), pos, geo.RotationAngles())
        d = np.linalg.norm(pos)
        res = pol.channel_factor(cfgs[0], pol.AntennaConfig(cfgs[0].excitation), pos, F0)
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
            ch.channel_vector(
                pol.GroundArray.build(circular_configs(100), F0, geometry),
                np.array([1.0, 0.5, 0.5]), geo.RotationAngles(),
            )


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
        for arr in (ground.elem, ground.rotations, ground.w):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert ground.elem.shape == (4, 3) and ground.rotations.shape == (4, 3, 3)


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
        cfg = ch.PowerControlConfig(rho_u=1.0, rho_p=1.0, d_wc=LAM / (4 * math.pi), chi_wc=1.0)
        assert ch.pilot_power(cfg, LAM) == pytest.approx(1.0, rel=1e-14)

    def test_numeric_value(self):
        cfg = ch.PowerControlConfig(rho_u=1.0, rho_p=10.0, d_wc=500.0, chi_wc=1.0)
        assert ch.pilot_power(cfg, 0.125) == pytest.approx(10 * (4 * math.pi * 500 / 0.125) ** 2, rel=1e-12)

    def test_gain_proportionality(self):
        lo = ch.PowerControlConfig(rho_u=1.0, rho_p=10.0, d_wc=500.0, chi_wc=0.5)
        hi = ch.PowerControlConfig(rho_u=1.0, rho_p=10.0, d_wc=500.0, chi_wc=1.0)
        assert ch.pilot_power(lo, 0.125) == pytest.approx(2 * ch.pilot_power(hi, 0.125))


class TestMlEstimate:
    def test_perfect_csi_limit(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
        est = ch.ml_estimate(g, math.inf, rng)
        assert np.array_equal(est.g_hat, g)

    def test_error_variance(self):
        rng = np.random.default_rng(1)
        g = np.zeros((4, 5), dtype=complex)
        p_p = 3.7
        errs = []
        for _ in range(10_000):
            est = ch.ml_estimate(g, p_p, rng)
            errs.append(np.sum(np.abs(est.g_hat - g) ** 2))
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
            est = ch.ml_estimate(g, 2.0, rng)
            acc += np.vdot(g, est.g_hat - g)
        assert abs(acc) / n < 0.05 * np.linalg.norm(g) ** 2


class TestPowerControl:
    def test_inversion_without_cap(self):
        cfg = ch.PowerControlConfig(rho_u=2.0, rho_p=10.0)
        p, out = ch.data_power(2.0, cfg)
        assert p == pytest.approx(1.0) and not out

    def test_cap_binds(self):
        cfg = ch.PowerControlConfig(rho_u=1.0, rho_p=10.0, p_u_max=5.0)
        p, out = ch.data_power(1e-9, cfg)
        assert p == 5.0 and out

    def test_budget_boundary(self):
        with pytest.raises(InfeasibleBudgetError):
            ch.max_data_power(10.0, 1.0, 10.0, 100.0)

    def test_budget_unit(self):
        assert ch.max_data_power(11.0, 1.0, 10.0, 1.0) == pytest.approx(1.0)

    def test_budget_linearity(self):
        base = ch.max_data_power(20.0, 1.0, 10.0, 5.0)
        assert ch.max_data_power(30.0, 1.0, 10.0, 5.0) == pytest.approx(2 * base)

    def test_outage_extremes(self):
        rng = np.random.default_rng(3)
        sampler = lambda r, n: r.uniform(0.5, 1.5, n)
        p, _ = ch.outage_probability(sampler, ch.PowerControlConfig(1.0, 1.0), 2000, rng)
        assert p == 0.0
        tight = ch.PowerControlConfig(1.0, 1.0, p_u_max=1e-9)
        p, _ = ch.outage_probability(sampler, tight, 2000, rng)
        assert p == 1.0

    def test_outage_median_self_consistency(self):
        rng = np.random.default_rng(4)
        sampler = lambda r, n: r.lognormal(0.0, 1.0, n)
        pilot = ch.PowerControlConfig(1.0, 1.0)
        gains = sampler(np.random.default_rng(5), 20_000)
        cap = float(np.median(1.0 / gains))
        cfg = ch.PowerControlConfig(1.0, 1.0, p_u_max=cap)
        p, se = ch.outage_probability(sampler, cfg, 20_000, rng)
        assert abs(p - 0.5) < 3 * max(se, 1e-3)


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
