import math

import numpy as np
import pytest

from swarm_mimo_sim import channel as ch
from swarm_mimo_sim import geometry as geo
from swarm_mimo_sim import mission as msn
from swarm_mimo_sim.errors import SwarmMimoError
from swarm_mimo_sim.montecarlo import substream
from swarm_mimo_sim.polarization import GroundArray

CAMERA = msn.CameraModel(r_px=1496, r_py=2664)


def make_spec(**kw):
    defaults = dict(
        x1=-1000.0, x2=2000.0, y1=2000.0, y2=6000.0, k=20, speed=30.0, gsd=0.05,
        camera=CAMERA,
        geometry=geo.ArrayGeometry(100, 1, geo.wavelength(2.4e9) / 2, 0.0),
        altitude=100.0,
    )
    defaults.update(kw)
    return msn.MissionSpec(**defaults)


class TestCameraMath:
    def test_altitude_examples(self):
        assert msn.altitude_for_gsd(0.02, CAMERA) == pytest.approx(43.478, rel=1e-3)
        assert msn.altitude_for_gsd(1.0, CAMERA) == pytest.approx(2173.9, rel=1e-3)

    def test_altitude_round_trip(self):
        h = msn.altitude_for_gsd(0.05, CAMERA)
        assert h * CAMERA.pixel_size / CAMERA.focal_length == pytest.approx(0.05)

    def test_image_rate_values(self):
        assert msn.image_rate(CAMERA, 0.02, 20.0) == pytest.approx(119.68e6, rel=1e-12)
        assert msn.image_rate(CAMERA, 0.05, 30.0) == pytest.approx(71.808e6, rel=1e-12)
        assert msn.image_rate(CAMERA, 0.20, 30.0) == pytest.approx(17.952e6, rel=1e-12)

    def test_compression_halves_rate(self):
        cam = msn.CameraModel(r_px=1496, r_py=2664, compression=2.0)
        assert msn.image_rate(cam, 0.05, 30.0) == pytest.approx(71.808e6 / 2, rel=1e-12)

    def test_video_rate_values(self):
        uhd = msn.CameraModel(r_px=2160, r_py=4096, compression=200.0, fps=60.0)
        assert msn.video_rate(uhd) == pytest.approx(63.70e6, rel=1e-3)
        hd = msn.CameraModel(r_px=1496, r_py=2664, compression=200.0, fps=60.0)
        assert msn.video_rate(hd) == pytest.approx(28.69e6, rel=1e-3)

    def test_video_rate_zero_fps(self):
        cam = msn.CameraModel(r_px=1496, r_py=2664, fps=0.0)
        assert msn.video_rate(cam) == 0.0

    def test_image_period_identity(self):
        # bits per image divided by the inter-image period equals the rate
        gsd, v = 0.05, 30.0
        bits = CAMERA.r_px * CAMERA.r_py * CAMERA.bits_per_pixel / CAMERA.compression
        period = CAMERA.r_py * gsd * (1 - CAMERA.overlap_front) / v
        assert msn.image_rate(CAMERA, gsd, v) == pytest.approx(bits / period, rel=1e-12)


class TestMissionTime:
    def test_fleet_time(self):
        spec = make_spec()
        assert msn.mission_time(spec) == pytest.approx(375.4, abs=0.5)

    def test_single_drone(self):
        spec = make_spec(k=1)
        assert msn.mission_time(spec) > 2 * 3600

    def test_fleet_scaling(self):
        t20 = msn.mission_time(make_spec())
        t10 = msn.mission_time(make_spec(k=10))
        assert t10 == pytest.approx(2 * t20, rel=1e-12)

    def test_short_dimension_option(self):
        spec = make_spec()
        t_long = msn.mission_time(spec)
        t_short = msn.mission_time(spec, cross_track_pixels=CAMERA.r_px)
        assert t_short == pytest.approx(t_long * CAMERA.r_py / CAMERA.r_px, rel=1e-12)


class TestTrajectory:
    def test_start_positions(self):
        spec = make_spec()
        for k in range(1, 21):
            j, i = divmod(k - 1, 5)
            expected = np.array([-1000.0 + i * 600.0, 2000.0 + (j + 1) * 1000.0, 100.0])
            pos, done = msn.trajectory_position(spec, k, 0.0)
            assert np.allclose(pos, expected)
            assert not done

    def test_one_row_traversed(self):
        spec = make_spec()
        row_time = 1000.0 / spec.speed
        pos, _ = msn.trajectory_position(spec, 1, row_time)
        start, _ = msn.trajectory_position(spec, 1, 0.0)
        assert pos[1] == pytest.approx(start[1] - 1000.0)
        assert pos[0] == pytest.approx(start[0])

    def test_covers_assigned_cell(self):
        spec = make_spec()
        xs, ys = [], []
        t, done = 0.0, False
        while not done:
            pos, done = msn.trajectory_position(spec, 1, t)
            xs.append(pos[0])
            ys.append(pos[1])
            t += 1.0
        swath = spec.camera.r_py * spec.gsd * (1 - CAMERA.overlap_side)
        assert max(xs) - min(xs) >= 600.0 - swath - 1e-9
        assert max(ys) - min(ys) == pytest.approx(1000.0)
        # stays inside its cell
        assert min(xs) >= -1000.0 - 1e-9 and max(xs) <= -400.0 + 1e-9
        assert min(ys) >= 2000.0 - 1e-9 and max(ys) <= 3000.0 + 1e-9

    def test_constant_speed_between_samples(self):
        spec = make_spec()
        dt = 0.25
        prev, _ = msn.trajectory_position(spec, 7, 0.0)
        hits = 0
        for step in range(1, 200):
            cur, done = msn.trajectory_position(spec, 7, step * dt)
            if done:
                break
            dist = np.linalg.norm(cur - prev)
            # corner samples travel the same arc length along two legs
            assert dist <= spec.speed * dt + 1e-9
            hits += abs(dist - spec.speed * dt) < 1e-9
            prev = cur
        assert hits > 150  # almost every interval is a straight segment

    def test_clamps_after_completion(self):
        spec = make_spec()
        pos, done = msn.trajectory_position(spec, 3, 1e9)
        assert done
        pos2, _ = msn.trajectory_position(spec, 3, 2e9)
        assert np.array_equal(pos, pos2)

    def test_area_covered_by_path_length(self):
        spec = make_spec()
        pts = msn._cell_waypoints(spec, 5)
        length = np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1))
        swath = spec.camera.r_py * spec.gsd * (1 - CAMERA.overlap_side)
        assert length * swath >= 600.0 * 1000.0


class TestLinkBudget:
    def test_printed_coefficient_anchors(self):
        # arithmetic of the two-term budget at the quoted coefficient values
        p_bad = 9.2e-3 / 10 ** (-40 / 10) + 2.3e-5 / 10 ** (-50 / 10)
        assert p_bad == pytest.approx(94.3, rel=0.02)
        p_good = 9.2e-3 / 10 ** (-12 / 10) + 2.3e-5 / 10 ** (-20 / 10)
        assert p_good == pytest.approx(0.148, rel=0.02)

    def test_computed_coefficients_reported(self):
        spec = make_spec(k=20, speed=20.0, rho_u=10.0, rho_p=10.0)
        c_data, c_pilot = msn.link_budget_coefficients(spec, 400.0, d_wc=500.0)
        # formula-of-record values; the quoted 9.2e-3 is not reproduced by
        # the stated parameters (deviation documented, not asserted equal)
        assert c_data == pytest.approx(5.66e-3, rel=0.01)
        assert c_pilot == pytest.approx(2.17e-5, rel=0.01)

    def test_scaling_properties(self):
        spec = make_spec()
        c1, p1 = msn.link_budget_coefficients(spec, 200.0)
        c2, p2 = msn.link_budget_coefficients(spec, 400.0)
        assert c2 == pytest.approx(4 * c1)
        assert p2 == p1

    def test_power_monotone_in_distance_and_gain(self):
        spec = make_spec()
        base = msn.instantaneous_power(spec, 400.0, 0.1)
        assert msn.instantaneous_power(spec, 800.0, 0.1) > base
        assert msn.instantaneous_power(spec, 400.0, 0.05) > base

    def test_array_call_matches_scalar_calls(self):
        spec = make_spec()
        rng = np.random.default_rng(9)
        dist = rng.uniform(50.0, 7000.0, 5000)
        chi = rng.uniform(1e-4, 3.0, 5000)
        watts = msn.instantaneous_power(spec, dist, chi)
        for ds, cs in ((dist, chi), (dist.tolist(), chi.tolist())):  # numpy and Python floats
            scalar = [msn.instantaneous_power(spec, d, c) for d, c in zip(ds, cs)]
            assert watts.tobytes() == np.array(scalar).tobytes()
        with pytest.raises(SwarmMimoError, match="positive"):
            msn.instantaneous_power(spec, dist, np.where(np.arange(5000) == 7, 0.0, chi))

    def test_pilot_floor_at_zero_distance(self):
        spec = make_spec()
        _, c_pilot = msn.link_budget_coefficients(spec, 0.0)
        assert msn.instantaneous_power(spec, 1e-6, 1.0) == pytest.approx(
            c_pilot / spec.chi_wc, rel=1e-6
        )

    def test_noise_density_value(self):
        spec = make_spec()
        assert spec.noise_density == pytest.approx(2.0e-20, rel=0.01)

    def test_worst_case_distance(self):
        spec = make_spec()
        assert spec.d_wc == pytest.approx(math.sqrt(2000.0**2 + 6000.0**2 + 100.0**2))
        assert spec.d_wc == pytest.approx(6325.0, abs=1.0)


class TestRunMission:
    def test_record_fields_and_shape(self):
        spec = make_spec(geometry=geo.ArrayGeometry(16, 1, geo.wavelength(2.4e9) / 2, 0.0))
        rows = msn.run_mission(spec, step=5.0, seed=1, duration=20.0)
        assert rows.dtype.names == (
            "t_s", "drone_id", "x_m", "y_m", "z_m", "throughput_bps", "power_w"
        )
        assert rows.shape[0] == 5 * 20
        assert set(rows["drone_id"]) == set(range(1, 21))
        assert np.all(rows["throughput_bps"] > 0)
        assert np.all(rows["power_w"] > 0)

    def test_single_drone_constant_throughput(self):
        spec = make_spec(k=1,
                         geometry=geo.ArrayGeometry(16, 1, geo.wavelength(2.4e9) / 2, 0.0))
        rows = msn.run_mission(spec, step=10.0, seed=2, duration=60.0, csi="perfect")
        thr = rows["throughput_bps"]
        _, prelog = __import__("swarm_mimo_sim.channel", fromlist=["coherence_prelog"]).coherence_prelog(
            spec.coherence(), 1
        )
        expected = prelog * spec.bandwidth * math.log2(1 + 16 * spec.rho_u)
        assert np.allclose(thr, expected, rtol=1e-9)

    def test_deterministic_for_seed(self):
        spec = make_spec(geometry=geo.ArrayGeometry(8, 1, geo.wavelength(2.4e9) / 2, 0.0))
        a = msn.run_mission(spec, step=10.0, seed=3, duration=30.0)
        b = msn.run_mission(spec, step=10.0, seed=3, duration=30.0)
        assert np.array_equal(a, b)


    def test_matches_per_step_assembly(self):
        # steps run in groups; each step's records keep the bits of one call per step
        spec = make_spec()
        for csi in ("estimated", "perfect"):
            rows = msn.run_mission(spec, step=5.0, seed=4, duration=20.0, csi=csi)
            expected = per_step_records(spec, step=5.0, seed=4, duration=20.0, csi=csi)
            assert expected.size == 5 * spec.k  # more steps than one group holds
            assert rows.tobytes() == expected.tobytes(), csi

    def test_single_drone_matches_per_step_assembly(self):
        # one drone per step: the kernel's one-row (gemv) product becomes a
        # product over the group's rows, so the last bits may move
        spec = make_spec(k=1,
                         geometry=geo.ArrayGeometry(16, 1, geo.wavelength(2.4e9) / 2, 0.0))
        rows = msn.run_mission(spec, step=3.0, seed=5, duration=300.0)
        expected = per_step_records(spec, step=3.0, seed=5, duration=300.0, csi="estimated")
        assert rows.size == 101
        for name in msn.RECORD_DTYPE.names:
            np.testing.assert_allclose(rows[name], expected[name], rtol=1e-12, atol=0, err_msg=name)


def per_step_records(spec, step, seed, duration, csi):
    "Mission records from one call per step of the public functions, each step rebuilding everything."
    lam = geo.wavelength(spec.f_c)
    _, prelog = ch.coherence_prelog(spec.coherence(), spec.k)
    uav_rot = geo.rotation_matrix(geo.RotationAngles(yaw=math.pi / 2))
    uav_rots = np.broadcast_to(uav_rot, (spec.k, 3, 3)).copy()
    p_p = spec.rho_p * (4.0 * math.pi * spec.d_wc / lam) ** 2 / spec.chi_wc
    rng = substream(seed, 0x51)
    times = np.arange(0.0, duration + 0.5 * step, step)
    expected = np.zeros(times.size * spec.k, dtype=msn.RECORD_DTYPE)
    for n, t in enumerate(times):
        pos = np.stack([msn.trajectory_position(spec, k, t)[0] for k in range(1, spec.k + 1)])
        ground = GroundArray.build(msn._gs_configs(spec), spec.f_c, spec.geometry)
        g = ch.channel_matrix(ground, pos, uav_rots)
        mean_gain = np.mean(np.abs(g) ** 2, axis=0)
        powers = spec.rho_u / mean_gain
        g_hat = ch.ml_estimate(g, p_p, rng) if csi == "estimated" else g
        sinr = ch.instantaneous_sinr_mrc(g, g_hat, powers)
        throughput = prelog * spec.bandwidth * np.log2(1.0 + sinr)
        dist = np.linalg.norm(pos, axis=1)
        chi_mean = mean_gain / (lam / (4.0 * math.pi * dist)) ** 2
        for i in range(spec.k):
            expected[n * spec.k + i] = (
                t, i + 1, *pos[i], throughput[i],
                msn.instantaneous_power(spec, dist[i], chi_mean[i]),
            )
    return expected


class TestExtremaCounter:
    def test_monotone_series(self):
        assert msn.local_extrema_count(np.arange(10.0)) == 0

    def test_zigzag(self):
        assert msn.local_extrema_count(np.array([0.0, 1.0, 0.0, 1.0, 0.0])) == 3

    def test_plateau_ignored(self):
        assert msn.local_extrema_count(np.array([0.0, 1.0, 1.0, 2.0, 1.0])) == 1


class TestValidation:
    def test_bad_area(self):
        with pytest.raises(SwarmMimoError):
            make_spec(x2=-2000.0)

    def test_camera_validation(self):
        with pytest.raises(SwarmMimoError):
            msn.CameraModel(r_px=2664, r_py=1496)


@pytest.mark.slow
class TestArrayScalingTradeoff:
    def test_ten_times_elements_tenth_power(self):
        # growing the array by 10x while cutting the SNR targets by 10x keeps
        # the array-gain product fixed, drops the radiated power tenfold, and
        # never hurts throughput; the residual gain reflects interference
        # suppression by the narrower beams (bounded by the K-drone load)
        lam = geo.wavelength(2.4e9)
        base = make_spec(geometry=geo.ArrayGeometry(100, 1, lam / 2, 0.0),
                         rho_u=10.0, rho_p=100.0)
        big = make_spec(geometry=geo.ArrayGeometry(1000, 1, lam / 2, 0.0),
                        rho_u=1.0, rho_p=10.0)
        rows_a = msn.run_mission(base, step=2.0, seed=6, duration=60.0)
        rows_b = msn.run_mission(big, step=2.0, seed=6, duration=60.0)
        med_a = np.median(rows_a["throughput_bps"])
        med_b = np.median(rows_b["throughput_bps"])
        assert 1.0 <= med_b / med_a <= 2.5
        assert np.median(rows_b["power_w"]) == pytest.approx(
            np.median(rows_a["power_w"]) / 10.0, rel=0.05
        )
