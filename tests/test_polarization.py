import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from swarm_mimo_sim import channel as ch
from swarm_mimo_sim import geometry as geo
from swarm_mimo_sim import polarization as pol
from swarm_mimo_sim.errors import DegenerateExcitationError, SingularDirectionError

F0 = 2.4e9
LAM = geo.wavelength(F0)
HALF_WAVE = pol.DipoleGeometry.half_wave(F0)


def linear_cfg(orientation=geo.RotationAngles()):
    return pol.AntennaConfig(pol.DipoleExcitation.linear(), orientation)


def circular_cfg(orientation=geo.RotationAngles()):
    return pol.AntennaConfig(pol.DipoleExcitation.circular(), orientation)


class TestFieldPattern:
    def test_unity_maximum_broadside(self):
        assert pol.field_pattern(math.pi / 2, HALF_WAVE, F0) == pytest.approx(1.0)

    def test_axial_limit_zero(self):
        assert pol.field_pattern(0.0, HALF_WAVE, F0) == 0.0
        assert pol.field_pattern(math.pi, HALF_WAVE, F0) == 0.0
        assert pol.field_pattern(1e-13, HALF_WAVE, F0) == 0.0

    def test_quarter_angle_value(self):
        theta = math.pi / 4
        expected = (math.cos(math.pi / 2 * math.cos(theta)) - math.cos(math.pi / 2)) / math.sin(theta)
        assert pol.field_pattern(theta, HALF_WAVE, F0) == pytest.approx(expected, rel=1e-14)
        # short series around the point agrees to first order
        eps = 1e-6
        slope = (pol.field_pattern(theta + eps, HALF_WAVE, F0)
                 - pol.field_pattern(theta - eps, HALF_WAVE, F0)) / (2 * eps)
        num = lambda t: math.cos(math.pi / 2 * math.cos(t)) / math.sin(t)
        slope_ref = (num(theta + eps) - num(theta - eps)) / (2 * eps)
        assert slope == pytest.approx(slope_ref, rel=1e-6)

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(0)
        for theta in rng.uniform(0.05, math.pi - 0.05, 100):
            assert pol.field_pattern(theta, HALF_WAVE, F0) == pytest.approx(
                pol.field_pattern(math.pi - theta, HALF_WAVE, F0), abs=1e-12
            )


class TestPolarizationBasis:
    def test_boresight_along_x(self):
        th, ps, p = pol.polarization_basis(np.array([1.0, 0, 0]))
        assert np.allclose(th, [0, 0, 1])
        assert np.allclose(ps, [0, 1, 0])
        assert np.allclose(p, [1, 0, 0])

    def test_orthogonality_residuals(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            v = rng.normal(size=3) * 10
            if min(np.hypot(v[0], v[1]), np.hypot(v[0], v[2])) < 1e-3 * np.linalg.norm(v):
                continue
            th, ps, p = pol.polarization_basis(v)
            for u in (th, ps, p):
                assert abs(np.linalg.norm(u) - 1.0) < 1e-12
            assert abs(th @ p) < 1e-12
            assert abs(ps @ p) < 1e-12
            assert th[2] >= 0.0

    def test_singular_axes(self):
        with pytest.raises(SingularDirectionError):
            pol.polarization_basis(np.array([0.0, 0.0, 5.0]))
        with pytest.raises(SingularDirectionError):
            pol.polarization_basis(np.array([0.0, 5.0, 0.0]))


class TestTMatrix:
    def test_identity_on_boresight(self):
        t = pol.t_matrix(np.array([7.0, 0, 0]))
        assert np.allclose(t, np.eye(2), atol=1e-14)

    def test_unrotated_closed_form(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(10_000):
            v = rng.normal(size=3) * 20
            x, y, z = v
            d = np.linalg.norm(v)
            rt, rp = np.hypot(x, y), np.hypot(x, z)
            if min(rt, rp) < 1e-3 * d:
                continue
            expected = np.array([[rt, -y * z / rt], [-y * z / rp, rp]]) / d
            worst = max(worst, np.max(np.abs(pol.t_matrix(v) - expected)))
        assert worst < 1e-12

    def test_rotated_entries_are_basis_projections(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = rng.normal(size=3) * 15
            r_tx = geo.rotation_matrix(geo.RotationAngles(*_rand_angles(rng)))
            r_rx = geo.rotation_matrix(geo.RotationAngles(*_rand_angles(rng)))
            t = pol.t_matrix(v, r_tx, r_rx)
            assert np.all(np.abs(t) <= 1.0 + 1e-12)
            th_loc, ps_loc, _ = pol.polarization_basis(r_tx.T @ v)
            th_ref, ps_ref = r_tx @ th_loc, r_tx @ ps_loc
            z_rx, y_rx = r_rx[:, 2], r_rx[:, 1]
            expected = np.array(
                [[th_ref @ z_rx, th_ref @ y_rx], [ps_ref @ z_rx, ps_ref @ y_rx]]
            )
            assert np.allclose(t, expected, atol=1e-14)


def _rand_angles(rng):
    return (
        rng.uniform(-math.pi / 2, math.pi / 2),
        rng.uniform(-math.pi / 2, math.pi / 2),
        rng.uniform(0, 2 * math.pi),
    )


def _ctf_expansion(w_tx, w_rx, v, ratio=0.5):
    "Four-term expanded coupling for unrotated antennas."
    x, y, z = v
    d = np.linalg.norm(v)
    theta, psi = math.acos(z / d), math.acos(y / d)
    thetap, psip = math.pi - theta, math.pi - psi

    def fpat(t):
        return (math.cos(math.pi * ratio * math.cos(t)) - math.cos(math.pi * ratio)) / math.sin(t)

    rt, rp = math.hypot(x, y), math.hypot(x, z)
    t11, t12 = rt / d, -y * z / (d * rt)
    t21, t22 = -y * z / (d * rp), rp / d
    return (
        np.conj(w_tx[0]) * fpat(theta) * (t11 * w_rx[0] * fpat(thetap) + t12 * w_rx[1] * fpat(psip))
        + np.conj(w_tx[1]) * fpat(psi) * (t21 * w_rx[0] * fpat(thetap) + t22 * w_rx[1] * fpat(psip))
    )


class TestChannelFactor:
    def test_copolar_boresight_full_gain(self):
        res = pol.channel_factor(linear_cfg(), linear_cfg(), np.array([25.0, 0, 0]), F0)
        assert res.h == pytest.approx(pol.HALF_WAVE_DIPOLE_GAIN, rel=1e-12)
        assert res.plf == pytest.approx(1.0, abs=1e-12)
        assert res.chi == pytest.approx(abs(res.h) ** 2, rel=1e-14)

    def test_circular_to_linear_half_power(self):
        res = pol.channel_factor(circular_cfg(), linear_cfg(), np.array([25.0, 0, 0]), F0)
        assert res.plf == pytest.approx(0.5, abs=1e-12)

    def test_matches_expanded_form_unrotated(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            v = rng.normal(size=3) * 30
            if min(np.hypot(v[0], v[1]), np.hypot(v[0], v[2])) < 1e-3 * np.linalg.norm(v):
                continue
            exc_t = pol.DipoleExcitation(
                rng.uniform(0, 1), rng.uniform(0, 2 * math.pi),
                rng.uniform(0, 1), rng.uniform(0, 2 * math.pi),
            )
            exc_r = pol.DipoleExcitation(
                rng.uniform(0.1, 1), rng.uniform(0, 2 * math.pi),
                rng.uniform(0, 1), rng.uniform(0, 2 * math.pi),
            )
            res = pol.channel_factor(
                pol.AntennaConfig(exc_t), pol.AntennaConfig(exc_r), v, F0
            )
            expanded = _ctf_expansion(exc_t.weights(), exc_r.weights(), v)
            gains = math.sqrt(pol.HALF_WAVE_DIPOLE_GAIN**2)
            assert res.h == pytest.approx(gains * expanded, abs=1e-12)

    def test_global_frame_covariance(self):
        rng = np.random.default_rng(5)
        v = np.array([12.0, -7.0, 9.0])
        tx = circular_cfg(geo.RotationAngles(0.3, -0.2, 1.0))
        rx = circular_cfg(geo.RotationAngles(-0.5, 0.4, 2.0))
        base = pol.channel_factor(tx, rx, v, F0)
        for _ in range(20):
            q = geo.rotation_matrix(geo.RotationAngles(*_rand_angles(rng)))
            # rotate both antennas and the relative position by q
            r_tx = q @ geo.rotation_matrix(tx.orientation)
            r_rx = q @ geo.rotation_matrix(rx.orientation)
            t = pol.t_matrix(q @ v, r_tx, r_rx)
            w_t, w_r = tx.excitation.weights(), rx.excitation.weights()
            d = np.linalg.norm(v)
            loc = r_tx.T @ (q @ v)
            th = math.acos(loc[2] / d)
            psv = math.acos(loc[1] / d)
            loc_r = r_rx.T @ (q @ v)
            thp = math.acos(-loc_r[2] / d)
            psp = math.acos(-loc_r[1] / d)
            fp = lambda a: pol.field_pattern(a, HALF_WAVE, F0)
            e_t = np.array([w_t[0] * fp(th), w_t[1] * fp(psv)])
            e_r = np.array([w_r[0] * fp(thp), w_r[1] * fp(psp)])
            h_rot = np.conj(e_t) @ t @ e_r
            assert abs(h_rot) == pytest.approx(
                abs(base.h) / pol.HALF_WAVE_DIPOLE_GAIN, abs=1e-10
            )

    def test_plf_bounded_property(self):
        rng = np.random.default_rng(6)
        bad = 0
        for _ in range(2000):
            v = rng.normal(size=3) * 40
            if min(np.hypot(v[0], v[1]), np.hypot(v[0], v[2])) < 1e-3 * np.linalg.norm(v):
                continue
            exc = pol.DipoleExcitation(
                rng.uniform(0.05, 1), rng.uniform(0, 2 * math.pi),
                rng.uniform(0.05, 1), rng.uniform(0, 2 * math.pi),
            )
            res = pol.channel_factor(
                pol.AntennaConfig(exc, geo.RotationAngles(*_rand_angles(rng))),
                pol.AntennaConfig(exc, geo.RotationAngles(*_rand_angles(rng))),
                v, F0,
            )
            bad += not (0.0 <= res.plf <= 1.0)
        assert bad == 0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(angles=st.lists(st.floats(-math.pi / 2, math.pi / 2), min_size=4, max_size=4),
           yaws=st.lists(st.floats(0.0, 6.28), min_size=2, max_size=2),
           ratios=st.lists(st.floats(0.05, 1.5), min_size=2, max_size=2),
           v=st.lists(st.floats(-500.0, 500.0), min_size=3, max_size=3))
    def test_linear_reciprocity_up_to_receive_pattern(self, angles, yaws, ratios, v):
        # swapping transmitter and receiver does not keep chi: the transmit
        # basis carries 1/sin(theta) of its own z dipole, so with linear feeds
        # chi(a, b, v) sin^2(theta_a) = chi(b, a, -v) sin^2(theta_b), where
        # theta_x is the angle between x's z dipole and the line of sight
        v = np.array(v)
        d = np.linalg.norm(v)
        assume(d > 1.0)
        a, b = (
            pol.AntennaConfig(pol.DipoleExcitation.linear(),
                              geo.RotationAngles(angles[2 * i], angles[2 * i + 1], yaws[i]),
                              pol.DipoleGeometry(ratios[i] * LAM))
            for i in range(2)
        )
        # direction cosines in a's frame, then in b's; stay clear of the y and
        # z axes, where the transmit basis is undefined either way round
        cos = np.concatenate([geo.rotation_matrix(x.orientation).T @ v for x in (a, b)]) / d
        assume(np.all(1.0 - cos[[1, 2, 4, 5]] ** 2 > 1e-6))
        ab = pol.channel_factor(a, b, v, F0).chi * (1.0 - cos[2] ** 2)
        ba = pol.channel_factor(b, a, -v, F0).chi * (1.0 - cos[5] ** 2)
        assert ab == pytest.approx(ba, rel=1e-10, abs=1e-13)

    def test_singular_direction_raises(self):
        with pytest.raises(SingularDirectionError):
            pol.channel_factor(linear_cfg(), linear_cfg(), np.array([0.0, 0.0, 9.0]), F0)

    def test_degenerate_excitation(self):
        zero = pol.AntennaConfig(pol.DipoleExcitation(0.0, 0.0, 0.0, 0.0))
        with pytest.raises(DegenerateExcitationError):
            pol.channel_factor(zero, linear_cfg(), np.array([5.0, 1.0, 1.0]), F0)


def test_ground_array_rotations_match_per_element_matrices():
    rng = np.random.default_rng(8)
    cfgs = [circular_cfg(geo.sample_orientation(rng)) for _ in range(500)]
    want = np.stack([geo.rotation_matrix(c.orientation) for c in cfgs])
    assert pol.GroundArray.build(cfgs, F0).rotations.tobytes() == want.tobytes()


class TestEffectiveGainArray:
    # per-element effective gains of one drone: chi = |g|^2 / pathloss of its channel
    def test_single_element_reduces_to_channel_factor(self):
        cfgs = [circular_cfg()]
        v = np.array([30.0, 10.0, 20.0])
        g = ch.channel_matrix(pol.GroundArray.build(cfgs, F0), v[None], np.eye(3)[None])
        chi = np.abs(g[0, 0]) ** 2 / ch.pathloss(np.linalg.norm(v), LAM)
        ref = pol.channel_factor(cfgs[0], pol.AntennaConfig(cfgs[0].excitation), v, F0)
        assert chi == pytest.approx(ref.chi, rel=1e-12)

    def test_plane_wave_equal_gains(self):
        geometry = geo.ArrayGeometry(16, 1, LAM / 2, 0.0)
        ground = pol.GroundArray.build([circular_cfg() for _ in range(16)], F0, geometry)
        v = geo.SphericalPosition(5000.0, 1.0, 0.7).to_cartesian()
        rot = geo.rotation_matrix(geo.RotationAngles(0.2, 0.1, 0.3))
        g = ch.channel_matrix(ground, v[None], rot[None])[:, 0]
        chi = np.abs(g) ** 2 / ch.pathloss(np.linalg.norm(v - ground.elem, axis=1), LAM)
        assert np.max(np.abs(chi - chi.mean())) / chi.mean() < 0.01

    def test_randomly_oriented_line_mean_gain(self):
        # 100 elements, drone bearing fixed, element orientations random,
        # cross-handed quadrature feeds at the two ends
        rng = np.random.default_rng(123)
        geometry = geo.ArrayGeometry(100, 1, LAM / 2, 0.0)
        tx_exc = pol.DipoleExcitation(1 / math.sqrt(2), 0.0, 1 / math.sqrt(2), math.pi / 2)
        rx_exc = pol.DipoleExcitation(1 / math.sqrt(2), 0.0, 1 / math.sqrt(2), -math.pi / 2)
        uav = pol.AntennaConfig(rx_exc)
        means = []
        for trial in range(10):
            cfgs = [
                pol.AntennaConfig(tx_exc, geo.sample_orientation(rng))
                for _ in range(100)
            ]
            ground = pol.GroundArray.build(cfgs, F0, geometry)
            v = geo.SphericalPosition(100.0, math.pi / 3, math.pi).to_cartesian()
            rot = geo.rotation_matrix(geo.sample_orientation(rng))
            g = ch.channel_matrix(ground, v[None], rot[None], uav)[:, 0]
            chi = np.abs(g) ** 2 / ch.pathloss(np.linalg.norm(v - ground.elem, axis=1), LAM)
            means.append(chi.mean())
        level_db = 10 * math.log10(np.mean(means))
        assert -11.0 <= level_db <= -5.0  # near -8 dB

    def test_singular_element_surfaces(self):
        ground = pol.GroundArray.build([circular_cfg(), circular_cfg()], F0,
                                       geo.ArrayGeometry(2, 1, 1.0, 0.0))
        with pytest.raises(SingularDirectionError):
            ch.channel_matrix(ground, np.array([[0.0, 0.0, 50.0]]), np.eye(3)[None])


class TestWorstCaseGain:
    def test_deterministic_for_seed(self):
        cfgs = [circular_cfg(geo.RotationAngles(0.3, -0.4, 1.0)) for _ in range(4)]
        a = pol.worst_case_gain(cfgs, F0, budget=300, seed=9, refine_top=2)
        b = pol.worst_case_gain(cfgs, F0, budget=300, seed=9, refine_top=2)
        assert a == b

    def test_upper_bounds_sampled_minimum(self):
        rng = np.random.default_rng(8)
        cfgs = [circular_cfg(geo.sample_orientation(rng)) for _ in range(8)]
        wc = pol.worst_case_gain(cfgs, F0, budget=2000, seed=2, refine_top=4)
        # evaluate the mean gain at fresh random geometries; none may fall below
        elem = np.zeros((8, 3))
        gs = np.stack([geo.rotation_matrix(c.orientation) for c in cfgs])
        w = cfgs[0].excitation.weights()
        pos = geo.sample_shell_positions(geo.ShellRegion(1e4, 1e4), rng, 4000)
        ang = geo.sample_orientations(
            rng, 4000,
            ((-math.pi / 2, math.pi / 2), (-math.pi / 2, math.pi / 2), (0, 2 * math.pi)),
        )
        rots = geo.rotation_matrices(ang[:, 0], ang[:, 1], ang[:, 2])
        chi = pol.chi_batch(pos, elem, gs, rots, w, w, pol.HALF_WAVE_DIPOLE_GAIN**2)
        sampled_min = float(np.min(chi.mean(axis=1)))
        assert wc <= sampled_min + 1e-12

    @pytest.mark.slow
    @pytest.mark.xfail(
        strict=False,
        reason="the continuum model has polarization nulls, so the adversarial "
        "minimum keeps falling with search budget; the quoted anchor reflects "
        "a coarse search (see docs/discrepancies.md)",
    )
    def test_identical_orientation_anchor(self):
        cfgs = [circular_cfg() for _ in range(50)]
        wc = pol.worst_case_gain(cfgs, F0, budget=10_000, seed=3)
        assert 10 * math.log10(wc) == pytest.approx(-17.0, abs=2.0)

    @pytest.mark.slow
    @pytest.mark.xfail(
        strict=False,
        reason="refined search descends below the quoted coarse-search anchor "
        "(see docs/discrepancies.md)",
    )
    def test_random_orientation_anchor(self):
        rng = np.random.default_rng(77)
        cfgs = [circular_cfg(geo.sample_orientation(rng)) for _ in range(50)]
        wc = pol.worst_case_gain(cfgs, F0, budget=10_000, seed=4)
        assert 10 * math.log10(wc) == pytest.approx(-3.5, abs=1.5)


class TestKappa:
    def test_kappa_chi_wc_below_one(self):
        rng = np.random.default_rng(11)
        cfgs = [circular_cfg(geo.sample_orientation(rng)) for _ in range(12)]
        kappa, se, _ = pol.kappa_estimate(cfgs, F0, rng, n=20_000)
        wc = pol.worst_case_gain(cfgs, F0, budget=3000, seed=5, refine_top=3)
        assert kappa * wc <= 1.0 + 1e-9

    def test_reciprocal_of_constant_gain(self):
        # single linear dipole evaluated on its broadside ring: chi constant
        rng = np.random.default_rng(1)
        cfgs = [circular_cfg(geo.sample_orientation(rng)) for _ in range(6)]
        kappa, se, excluded = pol.kappa_estimate(cfgs, F0, rng, n=30_000)
        assert np.isfinite(kappa) and kappa > 0
        assert se < 0.2 * kappa
