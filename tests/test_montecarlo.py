import importlib
import math
import pkgutil
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import swarm_mimo_sim
from swarm_mimo_sim import _kernels
from swarm_mimo_sim import channel as ch
from swarm_mimo_sim import geometry as geo
from swarm_mimo_sim import montecarlo as mc
from swarm_mimo_sim import rates
from swarm_mimo_sim.errors import SingularDirectionError, SwarmMimoError
from swarm_mimo_sim.polarization import (
    HALF_WAVE_DIPOLE_GAIN, AntennaConfig, DipoleExcitation, GroundArray, chi_batch,
)

LAM = geo.wavelength(2.4e9)


def spec_for(m=8, spacing=0.3 * LAM, r_min=100.0, r_max=500.0, **kw):
    return mc.ScenarioSpec(
        geometry=geo.ArrayGeometry(m, 1, spacing, 0.0),
        region=geo.ShellRegion(r_min, r_max),
        **kw,
    )


def whole_chunk_moment(spec, ground, rng, take):
    "A chunk's interference-moment samples, both drones' channels built for the whole chunk."
    pos_k = geo.sample_shell_positions(spec.region, rng, take)
    pos_j = geo.sample_shell_positions(spec.region, rng, take)
    rot_k = geo.sample_rotations(rng, take, spec.orientation_ranges)
    rot_j = geo.sample_rotations(rng, take, spec.orientation_ranges)
    gs = mc._gs_rotations(spec, ground, rng, take)
    g_k = mc._channel_for(spec, ground, pos_k, gs, rot_k)
    g_j = mc._channel_for(spec, ground, pos_j, gs, rot_j)
    return (spec.rho_u / np.mean(np.abs(g_k) ** 2, axis=1)) * (
        spec.rho_u / np.mean(np.abs(g_j) ** 2, axis=1)
    ) * np.abs(np.sum(np.conj(g_k) * g_j, axis=1)) ** 2


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
            parts[index] = whole_chunk_moment(spec, ground, rng, take)
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
    def test_refuses_single_element(self):
        with pytest.raises(SwarmMimoError, match="two or more elements, got 1"):
            mc.estimate_zf_inverse_moment(spec_for(m=1, spacing=0.0), 100, seed=0)

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
        cfgs = [AntennaConfig(DipoleExcitation.circular()) for _ in range(8)]
        kappa, _, _ = mc.kappa_estimate(cfgs, 2.4e9, 0, n=40_000)
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
            rots = geo.sample_rotations(rng, take * spec.k, spec.orientation_ranges)
            gs = mc._gs_rotations(spec, ground, rng, take)
            if gs.ndim == 4:
                gs = np.repeat(gs, spec.k, axis=0)
            g_rows = mc._channel_for(spec, ground, pos, gs, rots)
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


class TestKappaEstimate:
    @staticmethod
    def configs():
        rng = np.random.default_rng(8)
        return [AntennaConfig(DipoleExcitation.circular(), geo.sample_orientation(rng))
                for _ in range(3)]

    def test_bit_identical_for_seed(self):
        a = mc.kappa_estimate(self.configs(), 2.4e9, 5, n=2_000)
        b = mc.kappa_estimate(self.configs(), 2.4e9, 5, n=2_000)
        assert a == b

    def test_matches_chunk_loop_reference(self):
        # two chunks, the second partial: each draws positions on the far
        # sphere, then attitudes, and keeps the reciprocals above the floor
        cfgs, n, seed = self.configs(), mc.CHUNK + 37, 6
        ground = GroundArray.build(cfgs, 2.4e9)
        sums, squares, kept = [], [], 0
        for rng, take in mc._chunks(n, seed):
            pos = geo.sample_shell_positions(geo.ShellRegion(1e4, 1e4), rng, take)
            ang = geo.sample_orientations(rng, take)
            rots = geo.rotation_matrices(ang[:, 0], ang[:, 1], ang[:, 2])
            mean = chi_batch(ground, pos, ground.rotations, rots).mean(axis=1)
            inv = 1.0 / mean[mean >= 1e-12]
            sums.append(float(inv.sum()))
            squares.append(float((inv * inv).sum()))
            kept += inv.size
        kappa = math.fsum(sums) / kept
        stderr = math.sqrt(max(math.fsum(squares) / kept - kappa * kappa, 0.0) / kept)
        assert mc.kappa_estimate(cfgs, 2.4e9, seed, n=n) == (kappa, stderr, n - kept)


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

        def counting(b, region):
            calls.append(np.size(b))
            return rates.cb_db(b, region)

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


class _CountingPool(ThreadPoolExecutor):
    "A thread pool that counts the claim loops ``map_tasks`` hands it."

    loops = 0

    def submit(self, fn, *args, **kw):
        self.loops += 1
        return super().submit(fn, *args, **kw)


def _row_bits(rows):
    return [[float(v).hex() for v in r.values()] for r in rows]


class TestValidatePool:
    """The pair rows run on the kernel's pool once the draws fill a block."""

    def test_rows_independent_of_worker_count(self, monkeypatch, inline_kernel):
        spec = spec_for(m=8, spacing=0.3 * LAM)
        n = _kernels._BLOCK_LANES + 5
        pooled = {}
        # one worker, and more workers than cores switching threads every microsecond
        switch = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for workers in (1, 8):
                with _CountingPool(workers) as pool:
                    monkeypatch.setattr(_kernels, "_pool", pool)
                    pooled[workers] = _row_bits(mc.validate_expectations(spec, n, seed=4)[0])
                    # one call's rows: the caller's loop and one per worker
                    assert pool.loops == min(workers, len(pooled[workers]) - 1), workers
        finally:
            sys.setswitchinterval(switch)
        inline_kernel()  # one usable core: inline
        inline = _row_bits(mc.validate_expectations(spec, n, seed=4)[0])
        assert pooled[1] == inline and pooled[8] == inline

    def test_narrow_draws_stay_inline(self, monkeypatch):
        # the benchmark's warm-up runs are this narrow, and must not build a pool
        with _CountingPool(2) as pool:
            monkeypatch.setattr(_kernels, "_pool", pool)
            mc.validate_expectations(spec_for(m=8), _kernels._BLOCK_LANES - 1, seed=4)
            assert pool.loops == 0


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

    @staticmethod
    def _interference(chunks):
        spec = spec_for(m=50, spacing=LAM / 2, r_min=20.0, gs_orientation="identical")
        mc.estimate_interference_moment(spec, chunks * mc.CHUNK, 1)

    @pytest.mark.parametrize("run", ["_ergodic", "_gain_cdf", "_interference"])
    def test_peak_does_not_grow_with_chunks(self, run, inline_kernel, traced_peak):
        # kernel blocks run inline, so the peak does not depend on thread timing
        inline_kernel()
        peaks = [traced_peak(lambda: getattr(self, run)(chunks))[1] for chunks in (1, 2)]
        assert peaks[1] <= 1.1 * peaks[0], peaks


def test_ergodic_chunk_peak_memory(inline_kernel, traced_peak):
    # one chunk of the benchmark's ergodic case: 409 draws of 20 drones on 64
    # elements, at most 3.6 times its complex (rows, M) array; whole-array
    # synthesis peaked at 5.1 times (test_grouped_chunk_peak_memory pins the
    # grouped chunk's tighter bounds)
    inline_kernel()
    spec = spec_for(m=64, spacing=LAM / 2, r_min=20.0, k=20,
                    gs_orientation="pseudo-random", orientation_seed=3)
    draws = mc.CHUNK // spec.k
    mc.estimate_ergodic_rate(spec, 2, 1)  # first-call allocations outside the trace
    _, peak = traced_peak(lambda: mc.estimate_ergodic_rate(spec, draws, 1))
    channel_bytes = draws * spec.k * spec.geometry.m * np.dtype(np.complex128).itemsize
    assert peak <= 3.6 * channel_bytes, peak / channel_bytes


# one ergodic chunk of the benchmark's case, cut into groups of whole draws:
# (csi, bound on the tracemalloc peak over the chunk's complex (rows, M) array).
# Each group draws its own real and imaginary pilot parts, and its arrays are
# freed before the next group's channels are built, so the peak is one group's
# working set and the chunk's positions and rotations. This measured 0.62 and 0.58;
# with the real parts drawn whole, 1.13 and 0.63; with the pilot draws made
# whole and the previous group still held, 1.95 and 0.79; the whole-chunk
# pipeline peaked at 3.42 and 2.69.
GROUPED_CHUNK_PEAKS = [("estimated", 1.24), ("perfect", 0.69)]


@pytest.mark.parametrize("csi, bound", GROUPED_CHUNK_PEAKS)
def test_grouped_chunk_peak_memory(csi, bound, inline_kernel, traced_peak):
    inline_kernel()
    spec = spec_for(m=64, spacing=LAM / 2, r_min=20.0, k=20,
                    gs_orientation="pseudo-random", orientation_seed=3)
    draws = mc.CHUNK // spec.k
    mc.estimate_ergodic_rate(spec, 2, 1, csi=csi)  # first-call allocations outside the trace
    _, peak = traced_peak(lambda: mc.estimate_ergodic_rate(spec, draws, 1, csi=csi))
    channel_bytes = draws * spec.k * spec.geometry.m * np.dtype(np.complex128).itemsize
    assert peak <= bound * channel_bytes, peak / channel_bytes


def test_ergodic_chunk_peak_does_not_grow_with_the_array(inline_kernel, traced_peak):
    # one ergodic chunk, 409 draws of 20 drones: a group holds about five kernel
    # blocks at either size, and the chunk holds no (rows, M) array of its own.
    # So the peak stays below the chunk's real pilot parts at 128 elements, a
    # float64 (rows, M) array; drawn whole, they made it 1.63 times that array.
    # This measured 0.59 times it, 0.19 MiB below the peak at 64 elements.
    inline_kernel()
    peaks = {}
    for m in (64, 128):
        spec = spec_for(m=m, spacing=LAM / 2, r_min=20.0, k=20,
                        gs_orientation="pseudo-random", orientation_seed=3)
        draws = mc.CHUNK // spec.k
        mc.estimate_ergodic_rate(spec, 2, 1)  # first-call allocations outside the trace
        peaks[m] = traced_peak(lambda: mc.estimate_ergodic_rate(spec, draws, 1))[1]
    assert peaks[128] <= peaks[64] + 0.5 * 2**20, peaks
    real_parts = draws * spec.k * 128 * np.dtype(np.float64).itemsize
    assert peaks[128] < real_parts, peaks[128] / real_parts


def test_gain_cdf_chunk_peak_memory(inline_kernel, traced_peak):
    # one chunk of the benchmark's gain-cdf case, 50 elements: its gains are
    # formed and summed in groups of whole kernel blocks, so the peak is at most
    # 1.75 times the chunk's complex (CHUNK, M) array. This measured 0.97 with
    # each block writing its gains into the group's array, and 1.59 with each
    # call building its complex h first; one call on the whole chunk peaked at
    # 2.12 times.
    inline_kernel()
    spec = spec_for(m=50, spacing=LAM / 2, r_min=20.0, excitation="circular",
                    gs_orientation="identical")
    thresholds = np.arange(-40.0, 25.0, 0.5)
    mc.gain_cdf(spec, 2, 1, thresholds)  # first-call allocations outside the trace
    _, peak = traced_peak(lambda: mc.gain_cdf(spec, mc.CHUNK, 1, thresholds))
    channel_bytes = mc.CHUNK * spec.geometry.m * np.dtype(np.complex128).itemsize
    assert peak <= 1.75 * channel_bytes, peak / channel_bytes


@pytest.mark.parametrize("m", [256, 512])
def test_interference_chunk_peak_memory(m, inline_kernel, traced_peak):
    # one interference-moment chunk, shell 600-900 m: both drones' channels are
    # built and reduced one group of 16 kernel blocks at a time, so the peak is
    # at most the m = 256 chunk's complex (CHUNK, M) array, at either size.
    # This measured 0.51 at both, 0.64 with each call building its coupling
    # first; whole-chunk channels peaked at 3.57 and 7.07.
    inline_kernel()
    spec = spec_for(m=m, spacing=LAM / 2, r_min=600.0, r_max=900.0)
    mc.estimate_interference_moment(spec, 2, 1)  # first-call allocations outside the trace
    _, peak = traced_peak(lambda: mc.estimate_interference_moment(spec, mc.CHUNK, 1))
    channel_bytes = mc.CHUNK * 256 * np.dtype(np.complex128).itemsize
    assert peak <= 1.0 * channel_bytes, peak / channel_bytes


def _blocks_of_groups(groups, take, k, m):
    """Each group's kernel blocks, after asserting that they are the chunk's own.

    ``groups`` must cover the chunk's ``take`` draws of ``k`` rows in order.
    """
    assert groups[0].start == 0 and groups[-1].stop == take
    assert all(a.stop == b.start and a.start < a.stop for a, b in zip(groups, groups[1:]))
    blocks = [(b.start, b.stop) for b in _kernels._row_blocks(take * k, m)]
    owns = []
    for g in groups:
        first, last = g.start * k, g.stop * k
        # the group's own kernel blocks are the chunk's blocks over its rows
        own = [(first + b.start, first + b.stop) for b in _kernels._row_blocks(last - first, m)]
        assert own == [b for b in blocks if first <= b[0] < last], g
        owns.append(own)
    return owns


class TestGainGroups:
    """A gain-CDF chunk is summed one group of whole kernel blocks at a time, with the bits of the whole chunk."""

    def test_benchmark_chunk_groups(self):
        # 50 elements: 25 blocks of 327 rows and one of 17
        groups = list(mc._draw_groups(mc.CHUNK, 1, 50, mc._GAIN_GROUP_BLOCKS))
        assert [(g.start, g.stop) for g in groups] == [(0, 5232), (5232, mc.CHUNK)]

    @pytest.mark.parametrize("blocks", [1, 4, 16])
    @pytest.mark.parametrize("take, m", [(mc.CHUNK, 50), (655, 50), (257, 64), (3, 10_000)])
    def test_groups_cut_on_block_bounds(self, take, m, blocks):
        owns = _blocks_of_groups(list(mc._draw_groups(take, 1, m, blocks)), take, 1, m)
        assert all(len(own) >= blocks for own in owns[:-1]), owns  # the last takes the rest

    @pytest.mark.parametrize("blocks", [1, "default"])
    @pytest.mark.parametrize("take", [mc.CHUNK, 655])  # 655 on 50 elements: a merged one-row remainder
    @pytest.mark.parametrize("orientation", ["identical", "pseudo-random", "fixed"])
    def test_summed_gains_match_whole_chunk(self, orientation, take, blocks, monkeypatch):
        if blocks != "default":
            monkeypatch.setattr(mc, "_GAIN_GROUP_BLOCKS", blocks)
        spec = spec_for(m=50, spacing=LAM / 2, r_min=20.0, excitation="circular",
                        gs_orientation=orientation, orientation_seed=3)
        ground = spec.ground()
        got = mc._summed_gains(spec, ground, mc.substream(1, 0), take)
        rng = mc.substream(1, 0)  # the same draws, in the same order
        pos = geo.sample_shell_positions(spec.region, rng, take)
        rots = geo.sample_rotations(rng, take, spec.orientation_ranges)
        gs = mc._gs_rotations(spec, ground, rng, take)
        want = chi_batch(ground, pos, gs, rots).sum(axis=1)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


@pytest.mark.parametrize("blocks", [1, "default"])
@pytest.mark.parametrize("take", [mc.CHUNK, 655])  # 655 on 50 elements: a merged one-row remainder
@pytest.mark.parametrize("orientation", ["identical", "pseudo-random", "fixed"])
def test_grouped_moment_matches_whole_chunk(orientation, take, blocks, monkeypatch):
    # the moment's chunk is synthesized and reduced one group of whole kernel
    # blocks at a time, with the bits of each sample of the whole-chunk pipeline
    if blocks != "default":
        monkeypatch.setattr(mc, "_GAIN_GROUP_BLOCKS", blocks)
    spec = spec_for(m=50, spacing=LAM / 2, r_min=20.0, gs_orientation=orientation,
                    orientation_seed=3)
    # the estimator's first chunk, as the samples it hands to _estimate
    monkeypatch.setattr(mc, "_estimate", lambda n, seed, size, sample: sample(
        mc.substream(seed, 0), n))
    got = mc.estimate_interference_moment(spec, take, 1)
    want = whole_chunk_moment(spec, spec.ground(), mc.substream(1, 0), take)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


def test_traced_layers_run_on_the_calling_thread(monkeypatch):
    # perfbench's tracer keeps one span stack for all threads, so the kernel's
    # pool runs numpy closures only: every call to chi_batch or response_batch,
    # in whichever module binds it, comes from the estimator's own thread
    callers = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            callers.append((fn.__name__, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapper

    modules = [swarm_mimo_sim] + [importlib.import_module(info.name) for info in
                                  pkgutil.walk_packages(swarm_mimo_sim.__path__, "swarm_mimo_sim.")]
    for fn in (chi_batch, _kernels.response_batch):
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, name, recording(fn))
    # more workers than a chunk has groups, so each call's blocks can reach
    # a worker thread as well as the calling one
    with _CountingPool(4) as pool:
        monkeypatch.setattr(_kernels, "_pool", pool)
        spec = spec_for(m=50, spacing=LAM / 2, r_min=20.0, k=4, gs_orientation="identical")
        mc.gain_cdf(spec, 6000, 1, np.arange(-10.0, 20.0, 1.0))  # two groups
        mc.estimate_ergodic_rate(spec, 600, 1)  # two groups
        mc.estimate_interference_moment(spec, 3000, 1)
    assert pool.loops > 0  # the blocks did run on the pool
    assert {name for name, _ in callers} == {"chi_batch", "response_batch"}
    assert {ident for _, ident in callers} == {threading.get_ident()}


@pytest.mark.parametrize("pooled", [True, False], ids=["pooled", "inline"])
@pytest.mark.parametrize("take, k", [(409, 20), (257, 1)])
def test_ergodic_draws_match_whole_chunk(take, k, pooled, monkeypatch, inline_kernel):
    # every draw, not only the chunk's sums: each group replays its real pilot
    # parts from its own copy of the generator, and each draw must get the
    # channel, estimate and rate of one whole-chunk pipeline (one pilot_draws
    # matrix, one _channel_for call). A rate can absorb a last-bit move of its
    # channel, so the channels and estimates are compared too.
    spec = spec_for(m=64, spacing=LAM / 2, r_min=20.0, k=k,
                    gs_orientation="pseudo-random", orientation_seed=3)
    ground, m = spec.ground(), spec.geometry.m
    p_p = ch.pilot_snr(spec.rho_p, spec.region.r_max, spec.chi_wc, spec.lam)
    rng = mc.substream(1, 0)  # the estimator's first chunk's draws, in the same order
    pos = geo.sample_shell_positions(spec.region, rng, take * k)
    rots = geo.sample_rotations(rng, take * k, spec.orientation_ranges)
    gs = mc._gs_rotations(spec, ground, rng, take)
    z = ch.pilot_draws(rng, (take * k, m), p_p)
    g_rows = mc._channel_for(spec, ground, pos, gs, rots)
    g_hat_rows = ch.ml_estimate(g_rows, p_p, z)
    g = g_rows.reshape(take, k, m)
    powers = spec.rho_u / np.mean(np.abs(g) ** 2, axis=2)
    g_hat = g_hat_rows.reshape(g.shape)
    sinr = ch.instantaneous_sinr_mrc(g.transpose(0, 2, 1), g_hat.transpose(0, 2, 1), powers)
    want = 1.0 * np.mean(np.log2(1.0 + sinr), axis=-1)

    seen = {"_channel_for": [], "ml_estimate": []}

    def recording(module, name):
        fn = getattr(module, name)

        def wrapper(*args):
            seen[name].append(fn(*args))
            return seen[name][-1]
        monkeypatch.setattr(module, name, wrapper)

    recording(mc, "_channel_for")
    recording(ch, "ml_estimate")
    # the estimator's first chunk, as the samples it hands to _estimate
    monkeypatch.setattr(mc, "_estimate", lambda n, seed, size, sample: sample(
        mc.substream(seed, 0), n))
    if pooled:
        with ThreadPoolExecutor(8) as pool:
            monkeypatch.setattr(_kernels, "_pool", pool)
            got = mc.estimate_ergodic_rate(spec, take, 1)
    else:
        inline_kernel()
        got = mc.estimate_ergodic_rate(spec, take, 1)
    assert np.concatenate(seen["_channel_for"]).tobytes() == g_rows.tobytes()
    assert np.concatenate(seen["ml_estimate"]).tobytes() == g_hat_rows.tobytes()
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


class TestErgodicGroups:
    """A chunk is estimated one group of whole draws at a time, with the bits of the whole chunk."""

    @pytest.mark.parametrize("take, k, m", [
        (409, 20, 64),  # the benchmark's chunk: six groups of 64 draws and one of 25
        (257, 1, 64),  # a one-row remainder joins the group before it
        (513, 1, 64),
        (91, 20, 24),
        (2730, 3, 50),
        (1, 1, 64),
        (3, 7, 10_000),  # two-row blocks
    ])
    def test_groups_cut_on_block_bounds(self, take, k, m):
        _blocks_of_groups(list(mc._draw_groups(take, k, m)), take, k, m)

    @pytest.mark.parametrize("take, k", [(257, 1), (409, 20)])
    def test_group_channels_match_whole_chunk(self, take, k):
        # a one-row kernel call would change last bits (gemv), so the groups
        # must not leave one row on its own
        spec = spec_for(m=64, spacing=LAM / 2, r_min=20.0, k=k,
                        gs_orientation="pseudo-random", orientation_seed=3)
        ground = spec.ground()
        rng = np.random.default_rng(take)
        pos = geo.sample_shell_positions(spec.region, rng, take * k)
        rots = geo.sample_rotations(rng, take * k)
        whole = mc._channel_for(spec, ground, pos, ground.rotations, rots)
        for g in mc._draw_groups(take, k, spec.geometry.m):
            rows = slice(g.start * k, g.stop * k)
            part = mc._channel_for(spec, ground, pos[rows], ground.rotations, rots[rows])
            assert part.tobytes() == whole[rows].tobytes(), g

    def test_benchmark_chunk_groups(self):
        sizes = [g.stop - g.start for g in mc._draw_groups(409, 20, 64)]
        assert sizes == [64] * 6 + [25]
        assert [g.stop - g.start for g in mc._draw_groups(257, 1, 64)] == [257]


# float.hex of estimate_ergodic_rate's (mean, stderr), recorded before the
# chunks were cut into groups: 64 elements at half a wavelength, shell
# 20-500 m, 20 drones, pseudo-random array orientations (seed 3), unless edited
ERGODIC_BITS = {
    "mrc-estimated": ({}, 409, 1, "mrc", "estimated",
                      "0x1.16e45b0c19f5bp+1", "0x1.33456a2f50558p-7"),
    "mrc-perfect": ({}, 409, 1, "mrc", "perfect",
                    "0x1.3205843484e27p+1", "0x1.564a44d7cf350p-7"),
    "zf-perfect": ({}, 409, 1, "zf", "perfect",
                   "0x1.57432bd431e63p+2", "0x1.8d6c114250b00p-7"),
    "k1-n257": ({"k": 1}, 257, 1, "mrc", "estimated",
                "0x1.747ccba7ec0abp+2", "0x1.127c44aa3435fp-7"),
    "fixed": ({"gs_orientation": "fixed"}, 409, 2, "mrc", "estimated",
              "0x1.57d549807344cp+1", "0x1.172741da2306ep-6"),
    "identical": ({"gs_orientation": "identical"}, 409, 2, "mrc", "estimated",
                  "0x1.5798cc4a07fa1p+1", "0x1.173eb2d21dedfp-6"),
    "m24-two-chunks": ({"m": 24}, 500, 4, "mrc", "estimated",
                       "0x1.2316b9b6408c9p+0", "0x1.3de8fe419768ep-8"),
    "m50-k3-zf": ({"m": 50, "k": 3}, 500, 5, "zf", "perfect",
                  "0x1.65e713d1c2794p+2", "0x1.4c94459633dcbp-7"),
}


def ergodic_case(case):
    "The estimate of ``ERGODIC_BITS[case]``, on all its draws."
    edits, n, seed, receiver, csi, *_ = ERGODIC_BITS[case]
    kw = {"m": 64, "k": 20, "gs_orientation": "pseudo-random", **edits}
    spec = spec_for(spacing=LAM / 2, r_min=20.0, orientation_seed=3, **kw)
    res = mc.estimate_ergodic_rate(spec, n, seed, receiver=receiver, csi=csi)
    assert res.n == n
    return res


def _ergodic_bits(case):
    res = ergodic_case(case)
    return res.mean.hex(), res.stderr.hex()


@pytest.mark.parametrize("case", ERGODIC_BITS)
def test_ergodic_rate_bits(case):
    assert _ergodic_bits(case) == tuple(ERGODIC_BITS[case][-2:])


@pytest.mark.parametrize("case", ["mrc-estimated", "zf-perfect", "identical"])  # 5-block groups
def test_ergodic_rate_bits_inline_and_pooled(case, monkeypatch, inline_kernel):
    with ThreadPoolExecutor(8) as pool:
        monkeypatch.setattr(_kernels, "_pool", pool)
        pooled = _ergodic_bits(case)
    inline_kernel()
    assert _ergodic_bits(case) == pooled == tuple(ERGODIC_BITS[case][-2:])


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
        rots = geo.sample_rotations(rng, 40_000, spec.orientation_ranges)
        ground = spec.ground()
        gs = mc._gs_rotations(spec, ground, rng, 40_000)
        g = mc._channel_for(spec, ground, pos, gs, rots)
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
        geo.sample_rotations(rng, take * 2, spec.orientation_ranges)
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


class TestSingularDirection:
    """A drone on the z axis of an upright element fails the whole run.

    No estimator redraws, skips or excludes it: the kernel raises, and the
    error passes through the chunk loop unchanged.
    """

    @pytest.fixture(autouse=True)
    def drones_above_element_zero(self, monkeypatch):
        # element 0 sits upright at the origin, so every drone is on its z axis
        def above(region, rng, n):
            return np.tile([0.0, 0.0, region.r_max], (n, 1))

        monkeypatch.setattr(geo, "sample_shell_positions", above)

    @pytest.mark.parametrize("run", [
        lambda spec: mc.gain_cdf(spec, 100, 1, np.array([0.0, 10.0])),
        lambda spec: mc.estimate_interference_moment(spec, 100, 1),
        lambda spec: mc.estimate_ergodic_rate(spec, 100, 1),
    ], ids=["gain_cdf", "interference_moment", "ergodic_rate"])
    def test_estimator_raises(self, run):
        with pytest.raises(SingularDirectionError):
            run(spec_for(gs_orientation="fixed"))

    def test_kappa_estimate_raises(self):
        with pytest.raises(SingularDirectionError):
            mc.kappa_estimate([AntennaConfig(DipoleExcitation.circular())], 2.4e9, 1, n=100)
