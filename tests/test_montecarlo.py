import math
import tracemalloc

import numpy as np
import pytest

from swarm_mimo_sim import _kernels
from swarm_mimo_sim import channel as ch
from swarm_mimo_sim import geometry as geo
from swarm_mimo_sim import montecarlo as mc
from swarm_mimo_sim import rates
from swarm_mimo_sim.errors import SwarmMimoError
from swarm_mimo_sim.polarization import HALF_WAVE_DIPOLE_GAIN

LAM = geo.wavelength(2.4e9)


def spec_for(m=8, spacing=0.3 * LAM, r_min=100.0, r_max=500.0, **kw):
    return mc.ScenarioSpec(
        geometry=geo.ArrayGeometry(m, 1, spacing, 0.0),
        region=geo.ShellRegion(r_min, r_max),
        **kw,
    )


class TestDeterminism:
    def test_bit_identical_for_seed(self):
        spec = spec_for()
        a = mc.estimate_interference_moment(spec, 20_000, seed=5)
        b = mc.estimate_interference_moment(spec, 20_000, seed=5)
        assert a == b

    def test_seed_changes_draws(self):
        spec = spec_for()
        a = mc.estimate_interference_moment(spec, 5_000, seed=5)
        b = mc.estimate_interference_moment(spec, 5_000, seed=6)
        assert a.mean != b.mean

    def test_chunk_partials_order_independent(self):
        # chunks evaluated out of order, then combined in chunk order, must
        # match the estimator
        spec = spec_for()
        n = 3 * mc.CHUNK
        ref = mc.estimate_interference_moment(spec, n, seed=9)
        ground = spec.ground()
        chunks = list(mc._chunks(n, 9))
        parts = {}
        for index in (2, 0, 1):
            rng, take = chunks[index]
            pos_k = geo.sample_shell_positions(spec.region, rng, take)
            pos_j = geo.sample_shell_positions(spec.region, rng, take)
            rot_k = mc._rotations(spec, rng, take)
            rot_j = mc._rotations(spec, rng, take)
            gs = mc._gs_rotations(spec, ground, rng, take)
            g_k, _ = mc._channel_for(spec, ground, pos_k, gs, rot_k)
            g_j, _ = mc._channel_for(spec, ground, pos_j, gs, rot_j)
            parts[index] = (spec.rho_u / np.mean(np.abs(g_k) ** 2, axis=1)) * (
                spec.rho_u / np.mean(np.abs(g_j) ** 2, axis=1)
            ) * np.abs(np.sum(np.conj(g_k) * g_j, axis=1)) ** 2
        in_order = iter([parts[0], parts[1], parts[2]])
        got = mc._estimate(n, 9, mc.CHUNK, lambda rng, take: next(in_order))
        assert got == ref


class TestInterferenceMoment:
    def test_single_element_exact(self):
        spec = spec_for(m=1, spacing=0.0, rho_u=1.7)
        res = mc.estimate_interference_moment(spec, 2_000, seed=1)
        assert res.mean == pytest.approx(1.7**2, rel=1e-10)
        assert res.stderr == pytest.approx(0.0, abs=1e-10)

    def test_half_wave_line_matches_element_count(self):
        spec = spec_for(m=16, spacing=LAM / 2)
        res = mc.estimate_interference_moment(spec, 60_000, seed=2)
        assert abs(res.mean - 16.0) < 3 * res.stderr

    def test_off_lattice_matches_closed_form(self):
        spec = spec_for(m=8, spacing=0.3 * LAM)
        omega_value = rates.omega(spec.geometry, LAM, spec.region)
        res = mc.estimate_interference_moment(spec, 60_000, seed=3)
        assert abs(res.mean - (8.0 + omega_value)) < 3 * res.stderr


class TestZfInverseMoment:
    def test_large_array_bracket(self):
        # large arrays make near-collinear draws negligible at this sample
        # size, so the sample mean sits in the orthogonal-signature bracket
        m = 10_000
        spec = spec_for(m=m, spacing=LAM / 2, r_min=700.0, r_max=2000.0)
        res = mc.estimate_zf_inverse_moment(spec, 1_000, seed=4)
        assert 1.0 / m <= res.mean <= 1.0 / (m - 2)
        bound = rates.zf_bound_two(res.mean, 1.0, 1.0)
        assert math.log2(1 + (m - 2)) <= bound <= math.log2(1 + m)

    @pytest.mark.xfail(
        strict=False,
        reason="the exact inverse moment diverges (projected-bearing "
        "collisions are codimension one), so at moderate element counts the "
        "sample mean is dominated by rare near-singular draws; see docs/discrepancies.md",
    )
    def test_mid_size_bracket(self):
        m = 100
        spec = spec_for(m=m, spacing=LAM / 2, r_min=50.0)
        res = mc.estimate_zf_inverse_moment(spec, 40_000, seed=5)
        bound = rates.zf_bound_two(res.mean, 1.0, 1.0)
        assert math.log2(1 + (m - 2)) <= bound <= math.log2(1 + m)


class TestErgodicRate:
    def test_single_drone_perfect_csi_exact(self):
        spec = spec_for(m=8, spacing=LAM / 2, k=1)
        res = mc.estimate_ergodic_rate(spec, 200, seed=6, receiver="mrc", csi="perfect")
        assert res.mean == pytest.approx(math.log2(1 + 8.0), rel=1e-9)
        assert res.stderr < 1e-9

    def test_mrc_estimated_csi_above_bound(self):
        region = geo.ShellRegion(100.0, 500.0)
        geometry = geo.ArrayGeometry(8, 1, 0.3 * LAM, 0.0)
        spec = mc.ScenarioSpec(geometry=geometry, region=region, k=4, rho_u=1.0,
                               rho_p=10.0, chi_wc=0.1)
        rng = np.random.default_rng(0)
        from swarm_mimo_sim.polarization import AntennaConfig, DipoleExcitation, kappa_estimate

        cfgs = [AntennaConfig(DipoleExcitation.circular()) for _ in range(8)]
        kappa, _, _ = kappa_estimate(cfgs, 2.4e9, rng, n=40_000)
        chi_wc = min(spec.chi_wc, 1.0 / kappa)
        params = rates.RateParams(
            geometry=geometry, region=region, lam=LAM, k=4, rho_u=1.0, rho_p=10.0,
            prelog=1.0, kappa=kappa, chi_wc=chi_wc,
        )
        bound = rates.mrc_bound_shell(params)
        spec = mc.ScenarioSpec(geometry=geometry, region=region, k=4, rho_u=1.0,
                               rho_p=10.0, chi_wc=chi_wc)
        res = mc.estimate_ergodic_rate(spec, 3_000, seed=7, receiver="mrc", csi="estimated")
        assert res.mean >= bound - 2 * res.stderr

    def test_zf_requires_perfect(self):
        spec = spec_for(k=2)
        with pytest.raises(Exception):
            mc.estimate_ergodic_rate(spec, 100, seed=0, receiver="zf", csi="estimated")

    @pytest.mark.parametrize("receiver, csi, gs_orientation", [
        ("mrc", "estimated", "pseudo-random"),
        ("mrc", "perfect", "pseudo-random"),
        ("zf", "perfect", "pseudo-random"),
        ("mrc", "estimated", "identical"),
    ])
    def test_matches_per_draw_loop(self, receiver, csi, gs_orientation):
        # oracle: the estimator's draws, with one receiver call per draw
        spec = spec_for(m=24, spacing=LAM / 2, r_min=20.0, k=20, rho_p=50.0, chi_wc=0.2,
                        gs_orientation=gs_orientation, orientation_seed=3)
        n, seed, prelog = 500, 4, 0.8  # two chunks of 409 and 91 draws
        ground = spec.ground()
        p_p = ch.pilot_snr(spec.rho_p, spec.region.r_max, spec.chi_wc, spec.lam)

        def per_draw(rng, take):
            pos = geo.sample_shell_positions(spec.region, rng, take * spec.k)
            rots = mc._rotations(spec, rng, take * spec.k)
            gs = mc._gs_rotations(spec, ground, rng, take)
            if gs.ndim == 4:
                gs = np.repeat(gs, spec.k, axis=0)
            g_rows, _ = mc._channel_for(spec, ground, pos, gs, rots)
            g = g_rows.reshape(take, spec.k, -1)
            powers = spec.rho_u / np.mean(np.abs(g) ** 2, axis=2)
            g_hat = g
            if csi == "estimated":
                noise = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
                g_hat = g + noise / math.sqrt(2.0 * p_p)
            vals = np.empty(take)
            for i in range(take):
                if receiver == "mrc":
                    sinr = ch.instantaneous_sinr_mrc(g[i].T, g_hat[i].T, powers[i])
                else:
                    sinr = ch.sinr_zf(g[i].T, powers[i])
                vals[i] = prelog * float(np.mean(np.log2(1.0 + sinr)))
            return vals

        want = mc._estimate(n, seed, mc.CHUNK // spec.k, per_draw)
        got = mc.estimate_ergodic_rate(spec, n, seed, receiver=receiver, csi=csi, prelog=prelog)
        assert (got.mean, got.stderr, got.n) == (want.mean, want.stderr, want.n)
        assert got.mean.hex() == want.mean.hex()


class TestGainCdf:
    def test_monotone_and_median_shift(self):
        thr = np.arange(-30.0, 25.0, 0.5)
        spec1 = spec_for(m=1, spacing=0.0, r_min=20.0, gs_orientation="identical",
                         excitation="circular", pattern="dipole")
        spec50 = spec_for(m=50, spacing=LAM / 2, r_min=20.0, gs_orientation="identical",
                          excitation="circular", pattern="dipole")
        _, cdf1, stats1 = mc.gain_cdf(spec1, 20_000, 11, thr)
        _, cdf50, stats50 = mc.gain_cdf(spec50, 20_000, 11, thr)
        assert np.all(np.diff(cdf1) >= 0)
        assert np.all(np.diff(cdf50) >= 0)
        shift = stats50["median_db"] - stats1["median_db"]
        assert shift == pytest.approx(10 * math.log10(50.0), abs=1.0)

    def test_unit_pattern_is_step(self):
        thr = np.array([9.0, 10.0, 10.5])
        spec = spec_for(m=10, spacing=LAM / 2, pattern="unit")
        _, cdf, stats = mc.gain_cdf(spec, 1_000, 3, thr)
        assert np.array_equal(cdf, [0.0, 0.0, 1.0])
        assert stats["median_db"] == pytest.approx(10.0)


class TestValidateExpectations:
    def test_zero_offset_pair_trivial(self):
        # l and lp in the same position index never appear (l != lp), so use
        # a two-element line at half-wave: the sinc factor is exactly zero
        spec = spec_for(m=2, spacing=LAM / 2)
        rows, max_dev = mc.validate_expectations(spec, 20_000, seed=8)
        for r in rows:
            assert math.hypot(r["closed_re"], r["closed_im"]) < 1e-12

    def test_pairs_match_within_stderr(self):
        spec = spec_for(m=8, spacing=0.3 * LAM, r_min=20.0)
        rows, max_dev = mc.validate_expectations(spec, 100_000, seed=9)
        assert max_dev < 4.0

    def test_surface_magnitude(self):
        spec = spec_for(m=4, spacing=0.3 * LAM, r_min=500.0, r_max=500.0)
        rows, _ = mc.validate_expectations(spec, 50_000, seed=10)
        for r in rows:
            q, p = divmod(r["l"] - 1, 4)
            qp, pp = divmod(r["lp"] - 1, 4)
            sinc = rates.expected_phase_sinc(p - pp, q - qp, spec.geometry, LAM)
            assert math.hypot(r["closed_re"], r["closed_im"]) == pytest.approx(abs(sinc), abs=1e-12)

    def test_one_moment_call_with_per_pair_bits(self, monkeypatch):
        spec = mc.ScenarioSpec(
            geometry=geo.ArrayGeometry(4, 4, 0.3 * LAM, 0.45 * LAM),
            region=geo.ShellRegion(60.0, 500.0),
        )
        calls = []

        def counting(b, region, groups=None):
            calls.append(np.size(b))
            return rates.cb_db(b, region, groups)

        monkeypatch.setattr(mc, "cb_db", counting)
        rows, _ = mc.validate_expectations(spec, 4, seed=3, max_pairs=240)
        assert calls == [240]
        g = spec.geometry
        for r in rows:
            q, p = divmod(r["l"] - 1, 4)
            qp, pp = divmod(r["lp"] - 1, 4)
            b = (math.pi / LAM) * ((p * p - pp * pp) * g.delta_x**2
                                   + (q * q - qp * qp) * g.delta_y**2)
            closed = complex(*rates.cb_db(b, spec.region)) * rates.expected_phase_sinc(
                p - pp, q - qp, g, LAM)
            assert (r["closed_re"], r["closed_im"]) == (closed.real, closed.imag)

    def test_one_element_has_no_pairs(self):
        with pytest.raises(SwarmMimoError, match="no element pairs"):
            mc.validate_expectations(spec_for(m=1), 100, seed=3)

    @pytest.mark.parametrize("m", range(2, 13))
    def test_pairs_follow_listed_order(self, m):
        # the sampled pair indices map to (l, l') as they would index the list
        listed = [(l, lp) for l in range(1, m + 1) for lp in range(1, m + 1) if l != lp]
        for max_pairs in (1, 5, len(listed) + 1):  # below and above the pair count
            want = listed
            if len(listed) > max_pairs:
                keep = mc.substream(3, 0xFA1).choice(len(listed), size=max_pairs, replace=False)
                want = [listed[i] for i in sorted(keep)]
            rows, _ = mc.validate_expectations(spec_for(m=m), 4, seed=3, max_pairs=max_pairs)
            assert [(r["l"], r["lp"]) for r in rows] == want, max_pairs


class TestChunkLoop:
    @pytest.mark.parametrize("size", [4, 5, mc.CHUNK])
    def test_chunks_take_size_and_substream(self, size):
        chunks = list(mc._chunks(2 * size + 3, 7, size))
        assert [take for _, take in chunks] == [size, size, 3]
        for index, (rng, _) in enumerate(chunks):
            assert np.array_equal(rng.random(4), mc.substream(7, index).random(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_estimate_raises_on_non_finite_sample(self, bad):
        with pytest.raises(SwarmMimoError, match="non-finite"):
            mc._estimate(10, 0, 4, lambda rng, take: np.r_[np.ones(take - 1), bad])

    @pytest.mark.parametrize("n", [0, -3])
    def test_estimate_raises_on_zero_samples(self, n):
        with pytest.raises(SwarmMimoError, match="no samples"):
            mc._estimate(n, 0, 4, lambda rng, take: np.ones(take))


class TestResultInvariants:
    def test_stderr_definition(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        res = mc._estimate(4, 0, 4, lambda rng, take: vals)
        assert res.mean == vals.mean()
        assert res.stderr == pytest.approx(vals.std(ddof=0) / 2.0)
        assert res.n == 4

    def test_chunk_sums_combined_in_order(self):
        # each chunk's sum and sum of squares, added with math.fsum in chunk order
        parts = np.split(np.random.default_rng(1).normal(size=11) * 1e6, [4, 8])
        given = iter(parts)
        res = mc._estimate(11, 0, 4, lambda rng, take: next(given))
        mean = math.fsum(float(v.sum()) for v in parts) / 11
        square = math.fsum(float((v * v).sum()) for v in parts) / 11
        assert (res.mean, res.n) == (mean, 11)
        assert res.stderr == math.sqrt(max(square - mean * mean, 0.0) / 11)


class TestChunkMemory:
    """A chunk's temporaries are freed before the next chunk allocates its own."""

    @staticmethod
    def _ergodic(chunks):
        spec = spec_for(m=16, spacing=LAM / 2, r_min=20.0, k=20,
                        gs_orientation="pseudo-random", orientation_seed=3)
        mc.estimate_ergodic_rate(spec, chunks * (mc.CHUNK // spec.k), 1)

    @staticmethod
    def _gain_cdf(chunks):
        spec = spec_for(m=50, spacing=LAM / 2, r_min=20.0, gs_orientation="identical")
        mc.gain_cdf(spec, chunks * mc.CHUNK, 1, np.arange(-10.0, 20.0, 1.0))

    @pytest.mark.parametrize("run", ["_ergodic", "_gain_cdf"])
    def test_peak_does_not_grow_with_chunks(self, run, monkeypatch):
        # kernel blocks run inline, so the peak does not depend on thread timing
        monkeypatch.setattr(_kernels, "_block_pool", lambda: None)
        peaks = []
        for chunks in (1, 2):
            tracemalloc.start()
            try:
                getattr(self, run)(chunks)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks


class TestZfReceiverRate:
    def test_two_drone_zf_rate_below_isolated_ceiling(self):
        m = 64
        spec = spec_for(m=m, spacing=LAM / 2, k=2, r_min=50.0)
        res = mc.estimate_ergodic_rate(spec, 500, seed=12, receiver="zf", csi="perfect")
        ceiling = math.log2(1 + m * spec.rho_u)
        assert 0.5 * ceiling < res.mean <= ceiling + 3 * res.stderr

    def test_general_bound_from_mc_moments(self):
        # unit-gain scenario so the closed form's unit kappa/chi_wc apply
        spec = spec_for(m=8, spacing=0.3 * LAM, k=3, pattern="unit")
        moment = mc.estimate_interference_moment(spec, 40_000, seed=13)
        rng = mc.substream(14, 0)
        pos = geo.sample_shell_positions(spec.region, rng, 40_000)
        rots = mc._rotations(spec, rng, 40_000)
        ground = spec.ground()
        gs = mc._gs_rotations(spec, ground, rng, 40_000)
        g, beta = mc._channel_for(spec, ground, pos, gs, rots)
        e_inv = float(np.mean(1.0 / np.mean(np.abs(g) ** 2, axis=1)))
        params = rates.RateParams(
            geometry=spec.geometry, region=spec.region, lam=LAM, k=3,
            rho_u=1.0, rho_p=10.0, prelog=1.0, kappa=1.0, chi_wc=1.0,
        )
        from_mc = rates.mrc_bound_general(moment.mean, e_inv, params)
        closed = rates.mrc_bound_shell(params)
        assert from_mc == pytest.approx(closed, rel=0.01)


class TestIdenticalOrientationDraws:
    def test_rate_estimator_shares_array_orientation_within_draw(self):
        # reconstruct the estimator's draws and check both drones of a draw
        # see one common array orientation
        spec = mc.ScenarioSpec(
            geometry=geo.ArrayGeometry(4, 1, 0.0, 0.0),
            region=geo.ShellRegion(100.0, 500.0),
            k=2, gs_orientation="identical",
        )
        take = 50
        rng = mc.substream(3, 0)
        geo.sample_shell_positions(spec.region, rng, take * 2)
        mc._rotations(spec, rng, take * 2)
        gs = np.repeat(mc._gs_rotations(spec, spec.ground(), rng, take), 2, axis=0)
        assert gs.shape == (take * 2, 1, 3, 3)
        assert np.array_equal(gs[0], gs[1]) and np.array_equal(gs[2], gs[3])
        assert not np.array_equal(gs[1], gs[2])
        # and the estimator consumes exactly this stream shape without error
        res = mc.estimate_ergodic_rate(spec, take, seed=3, receiver="mrc", csi="perfect")
        assert np.isfinite(res.mean) and res.mean > 0


class TestScenarioGround:
    def test_pseudo_random_rotations_frozen_per_seed(self):
        spec = spec_for(m=6, gs_orientation="pseudo-random", orientation_seed=11)
        ang = geo.sample_orientations(mc.substream(11, 0xA11A), 6, spec.orientation_ranges)
        want = geo.rotation_matrices(ang[:, 0], ang[:, 1], ang[:, 2])
        assert np.array_equal(spec.ground().rotations, want)

    @pytest.mark.parametrize("orientation", ["fixed", "identical"])
    def test_upright_rotations(self, orientation):
        ground = spec_for(m=3, gs_orientation=orientation).ground()
        assert np.array_equal(ground.rotations, np.stack([np.eye(3)] * 3))

    @pytest.mark.parametrize("pattern, ratio, gain", [
        ("dipole", 0.5, HALF_WAVE_DIPOLE_GAIN),
        ("isotropic", 0.0, 1.0),
    ])
    def test_pattern(self, pattern, ratio, gain):
        ground = spec_for(m=4, pattern=pattern, excitation="linear").ground()
        assert (ground.ratio, ground.gain) == (ratio, gain)
        assert np.array_equal(ground.w, [1.0, 0.0])
        assert np.array_equal(ground.elem, geo.element_positions(spec_for(m=4).geometry))

    def test_isotropic_pattern_is_flat(self):
        # a flat unit pattern with unit gains: every element's gain is its
        # polarization loss factor, at most 1, so 8 elements sum to at most
        # 10 log10(8) = 9.03 dB and the 10 dB point of the CDF is 1 by physics
        spec = spec_for(m=8, pattern="isotropic")
        _, cdf, stats = mc.gain_cdf(spec, 2000, 1, np.array([0.0, 10.0]))
        assert 0.0 < 10.0 ** (stats["median_db"] / 10.0) <= 8.0
        assert cdf[0] < 1.0 and stats["p_below_10db"] == 1.0
        assert np.isfinite(mc.estimate_ergodic_rate(spec, 100, 1).mean)
        assert np.isfinite(mc.estimate_interference_moment(spec, 2000, 1).mean)
