import math

import numpy as np
import pytest

from swarm_mimo_sim import geometry as geo
from swarm_mimo_sim.errors import SwarmMimoError


class TestRotationMatrix:
    def test_zero_angles_identity(self):
        r = geo.rotation_matrix(geo.RotationAngles())
        assert np.allclose(r, np.eye(3), atol=1e-15)

    def test_pure_yaw_maps_x_to_y(self):
        r = geo.rotation_matrix(geo.RotationAngles(yaw=math.pi / 2))
        assert np.allclose(r @ [1, 0, 0], [0, 1, 0], atol=1e-15)

    def test_symbolic_product(self):
        # entries of Rx(pi/4) Ry(pi/6) Rz(pi/3), expanded by computer algebra
        s2, s3, s6 = math.sqrt(2), math.sqrt(3), math.sqrt(6)
        expected = np.array(
            [
                [s3 / 4, -0.75, 0.5],
                [s2 / 8 + s6 / 4, -s6 / 8 + s2 / 4, -s6 / 4],
                [-s2 / 8 + s6 / 4, s6 / 8 + s2 / 4, s6 / 4],
            ]
        )
        r = geo.rotation_matrix(geo.RotationAngles(math.pi / 4, math.pi / 6, math.pi / 3))
        assert np.allclose(r, expected, atol=1e-15)

    def test_orthonormal_right_handed_property(self):
        rng = np.random.default_rng(7)
        n = 10_000
        rs = geo.rotation_matrices(
            rng.uniform(-math.pi / 2, math.pi / 2, n),
            rng.uniform(-math.pi / 2, math.pi / 2, n),
            rng.uniform(0, 2 * math.pi, n),
        )
        eye = np.einsum("nij,nkj->nik", rs, rs)
        assert np.max(np.abs(eye - np.eye(3))) < 1e-12
        dets = np.linalg.det(rs)
        assert np.max(np.abs(dets - 1.0)) < 1e-12

    def test_angle_range_validation(self):
        with pytest.raises(SwarmMimoError):
            geo.RotationAngles(roll=2.0)
        with pytest.raises(SwarmMimoError):
            geo.RotationAngles(pitch=-2.0)
        with pytest.raises(SwarmMimoError):
            geo.RotationAngles(yaw=-0.1)


class TestElementPlacement:
    # element l (1-based) is row l - 1 of the positions table
    def test_first_element_at_origin(self):
        g = geo.ArrayGeometry(4, 1, 0.1, 0.0)
        assert np.allclose(geo.element_positions(g)[0], [0, 0, 0])

    def test_row_major_index(self):
        g = geo.ArrayGeometry(4, 2, 0.1, 0.2)
        assert np.allclose(geo.element_positions(g)[4], [0.0, 0.2, 0.0])

    def test_last_element_of_line(self):
        g = geo.ArrayGeometry(100, 1, 0.0625, 0.0)
        assert np.allclose(geo.element_positions(g)[99], [6.1875, 0.0, 0.0])

    def test_positions_table_matches_scalar(self):
        # every row against the index rule l = (q - 1) m_x + p of ArrayGeometry
        g = geo.ArrayGeometry(5, 3, 0.07, 0.11)
        table = geo.element_positions(g)
        assert table.shape == (g.m, 3)
        for l in range(1, g.m + 1):
            q, p = divmod(l - 1, g.m_x)
            assert np.allclose(table[l - 1], [p * g.delta_x, q * g.delta_y, 0.0])

    def test_index_out_of_range(self):
        # approx_distance is the one function left that takes an element index
        g = geo.ArrayGeometry(4, 2, 0.1, 0.1)
        sp = geo.SphericalPosition(10.0, 1.0, 1.0)
        with pytest.raises(SwarmMimoError, match="element index"):
            geo.approx_distance(sp, g, 0)
        with pytest.raises(SwarmMimoError, match="element index"):
            geo.approx_distance(sp, g, 9)


class TestApproxDistance:
    def test_single_element_is_exact(self):
        g = geo.ArrayGeometry(1, 1, 0.0, 0.0)
        sp = geo.SphericalPosition(42.0, 0.3, 0.4)
        assert geo.approx_distance(sp, g, 1) == pytest.approx(42.0, abs=1e-12)

    def test_second_order_term_helps_at_close_range(self):
        # 100-element line with the drone range comparable to the aperture;
        # the curvature term wins on ~4/5 of the sphere and cuts the typical
        # error by better than 5x (it over-corrects only when the drone sits
        # in line with and beyond the far end of the array)
        g = geo.ArrayGeometry(100, 1, 0.0625, 0.0)
        offs = np.arange(g.m_x) * g.delta_x
        d = 25.0
        wins = 0
        ratios = []
        total = 0
        for theta in np.linspace(0.05, math.pi - 0.05, 64):
            st, ct = math.sin(theta), math.cos(theta)
            for phi in np.linspace(0.0, 2 * math.pi, 64, endpoint=False):
                x, y, z = d * math.cos(phi) * st, d * math.sin(phi) * st, d * ct
                exact = np.sqrt((x - offs) ** 2 + y * y + z * z)
                first = d - st * math.cos(phi) * offs
                second = first + offs**2 / (2 * d)
                e_with = np.abs(second - exact).mean()
                e_without = np.abs(first - exact).mean()
                wins += e_with <= e_without + 1e-15
                ratios.append(e_with / max(e_without, 1e-300))
                total += 1
        assert wins / total >= 0.75
        assert np.median(ratios) < 0.2

    def test_error_equals_series_remainder(self):
        lam = 0.125
        g = geo.ArrayGeometry(4, 1, lam / 2, 0.0)
        sp = geo.SphericalPosition(10.0, math.pi / 2, 0.0)
        l = 2  # offset (p-1) dx = lam/2
        exact = np.linalg.norm(sp.to_cartesian() - geo.element_positions(g)[l - 1])
        approx = geo.approx_distance(sp, g, l)
        off = lam / 2
        t = (off / sp.d) ** 2 - 2 * off / sp.d  # theta=pi/2, phi=0
        remainder = sp.d * (math.sqrt(1 + t) - (1 + t / 2))
        assert approx - exact == pytest.approx(-remainder, rel=1e-9)

    def test_rejects_positions_inside_aperture(self):
        g = geo.ArrayGeometry(100, 1, 0.0625, 0.0)
        with pytest.raises(SwarmMimoError):
            geo.approx_distance(geo.SphericalPosition(5.0, 1.0, 1.0), g, 3)


class TestShellSampling:
    def test_degenerate_shell(self):
        rng = np.random.default_rng(0)
        region = geo.ShellRegion(77.0, 77.0)
        d = np.linalg.norm(geo.sample_shell_positions(region, rng, 10), axis=1)
        assert np.allclose(d, 77.0)

    def test_radial_mean(self):
        rng = np.random.default_rng(5)
        region = geo.ShellRegion(20.0, 500.0)
        pos = geo.sample_shell_positions(region, rng, 1_000_000)
        d = np.linalg.norm(pos, axis=1)
        analytic = 0.75 * (500.0**4 - 20.0**4) / (500.0**3 - 20.0**3)
        se = d.std() / math.sqrt(d.size)
        assert abs(d.mean() - analytic) < 3 * se

    def test_vertical_symmetry(self):
        rng = np.random.default_rng(6)
        pos = geo.sample_shell_positions(geo.ShellRegion(20.0, 500.0), rng, 200_000)
        c = pos[:, 2] / np.linalg.norm(pos, axis=1)
        assert abs(c.mean()) < 3 * c.std() / math.sqrt(c.size)

    def test_radial_cdf_ks(self):
        from scipy.stats import kstest

        rng = np.random.default_rng(11)
        r_min, r_max = 20.0, 500.0
        pos = geo.sample_shell_positions(geo.ShellRegion(r_min, r_max), rng, 100_000)
        d = np.linalg.norm(pos, axis=1)
        cdf = lambda r: (r**3 - r_min**3) / (r_max**3 - r_min**3)
        assert kstest(d, cdf).pvalue > 0.01

    def test_invalid_region(self):
        with pytest.raises(SwarmMimoError):
            geo.ShellRegion(0.0, 10.0)
        with pytest.raises(SwarmMimoError):
            geo.ShellRegion(11.0, 10.0)


class TestOrientationSampling:
    def test_degenerate_intervals(self):
        rng = np.random.default_rng(0)
        a = geo.sample_orientation(rng, ((0, 0), (0, 0), (0, 0)))
        assert (a.roll, a.pitch, a.yaw) == (0.0, 0.0, 0.0)

    def test_default_interval_bounds(self):
        rng = np.random.default_rng(1)
        draws = geo.sample_orientations(rng, 20_000)
        assert draws[:, 0].min() >= -math.pi / 2 and draws[:, 0].max() <= math.pi / 2
        assert draws[:, 1].min() >= -math.pi / 2 and draws[:, 1].max() <= math.pi / 2
        assert draws[:, 2].min() >= 0.0 and draws[:, 2].max() <= math.pi / 2

    def test_means_at_midpoints(self):
        rng = np.random.default_rng(2)
        draws = geo.sample_orientations(rng, 100_000)
        mids = [0.0, 0.0, math.pi / 4]
        for i, mid in enumerate(mids):
            se = draws[:, i].std() / math.sqrt(draws.shape[0])
            assert abs(draws[:, i].mean() - mid) < 3 * se

    def test_rejects_illegal_interval(self):
        rng = np.random.default_rng(3)
        with pytest.raises(SwarmMimoError):
            geo.sample_orientation(rng, ((-3.0, 3.0), (0, 0), (0, 0)))
