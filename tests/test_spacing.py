import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from swarm_mimo_sim import rates, spacing
from swarm_mimo_sim.errors import SwarmMimoError
from swarm_mimo_sim.geometry import ArrayGeometry, ShellRegion

LAM = 0.125


class TestOptimalSpacingUla:
    def test_fifty_elements(self):
        # 163 multiples fit the shell; the first 20 are returned
        out = spacing.optimal_spacing_ula(50, LAM, 500.0)
        assert len(out) == 20
        assert out[0] == pytest.approx(LAM / 2)
        assert out[-1] == pytest.approx(10 * LAM)

    def test_wide_shell_stops_at_twenty(self):
        # 16,000 multiples fit; the list stops at the ones that are reported
        assert len(spacing.optimal_spacing_ula(2, LAM, 1000.0)) == spacing.N_OPTIMAL == 20

    def test_two_elements_tight_shell(self):
        out = spacing.optimal_spacing_ula(2, LAM, LAM / 2)
        assert out == [pytest.approx(LAM / 2)]

    def test_infeasible_shell(self):
        assert spacing.optimal_spacing_ula(50, LAM, 0.5) == []

    def test_every_spacing_nulls_omega(self):
        region = ShellRegion(499.0, 500.0)
        for dx in spacing.optimal_spacing_ula(8, LAM, region.r_min)[:12]:
            geom = ArrayGeometry(8, 1, dx, 0.0)
            assert rates.omega(geom, LAM, region) <= 1e-9


class TestOptimalSpacingUra:
    def test_degenerate_single_element(self):
        out = spacing.optimal_spacing_ura(1, 1, LAM, 100.0)
        assert out.shape == (1, 2) and out.tolist() == [[LAM / 2, LAM / 2]]

    def test_five_by_five_contains_lattice_point(self):
        out = spacing.optimal_spacing_ura(5, 5, LAM, 500.0)
        assert out[0].tolist() == [pytest.approx(5 * LAM / 2), pytest.approx(5 * LAM / 2)]
        # aperture constraint holds for every candidate
        n, m = 2 * out.T / LAM
        assert np.all(16 * n * n + 16 * m * m < 4 * 500.0**2 / LAM**2)
        assert np.all(n >= 5) and np.all(m >= 5)

    def test_ordered_by_aperture(self):
        out = spacing.optimal_spacing_ura(5, 5, LAM, 500.0)
        n, m = np.rint(2 * out.T / LAM).astype(np.int64)
        assert np.array_equal(2 * out / LAM, np.column_stack([n, m]))
        # squared aperture in units of (lam/2)^2, exact in integers
        assert np.all(np.diff(16 * n * n + 16 * m * m) >= 0)

    def test_infeasible(self):
        assert spacing.optimal_spacing_ura(5, 5, LAM, 1.0).shape == (0, 2)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(m_x=st.integers(1, 8), m_y=st.integers(1, 8), r_min=st.floats(0.01, 40.0))
    def test_most_compact_of_every_feasible_pair(self, m_x, m_y, r_min):
        assume(m_x * m_y > 1)
        out = spacing.optimal_spacing_ura(m_x, m_y, LAM, r_min)
        assert out.shape[0] <= spacing.N_OPTIMAL
        # brute force: every multiplier pair whose aperture fits, sorted by
        # squared aperture in units of (lam/2)^2, then by n, then by m
        limit = 4.0 * r_min**2 / LAM**2
        top = math.isqrt(int(limit)) + 1
        n, m = (a.ravel() for a in np.meshgrid(
            np.arange(m_y, m_y + (top if m_x > 1 else 1)),
            np.arange(m_x, m_x + (top if m_y > 1 else 1)), indexing="ij"))
        key = (m_x - 1) ** 2 * n * n + (m_y - 1) ** 2 * m * m
        fits = key < limit
        order = np.lexsort((m[fits], n[fits], key[fits]))[:spacing.N_OPTIMAL]
        want = np.column_stack([n[fits][order], m[fits][order]]) * LAM / 2
        assert out.tolist() == want.tolist()


class TestOmegaSweep:
    def test_single_point_matches_direct_call(self):
        region = ShellRegion(499.0, 500.0)
        vals = spacing.omega_sweep(8, 1, LAM, region, np.array([0.37]))
        direct = rates.omega(ArrayGeometry(8, 1, 0.37 * LAM, 0.0), LAM, region)
        assert vals.shape == (1,) and vals[0] == direct

    def test_grid_shape_and_points(self):
        region = ShellRegion(20.0, 500.0)
        rx, ry = np.array([0.4, 0.6]), np.array([0.5, 0.7, 0.9])
        vals = spacing.omega_sweep(3, 2, LAM, region, rx, ry)
        assert vals.shape == (2, 3)
        direct = rates.omega(ArrayGeometry(3, 2, 0.6 * LAM, 0.9 * LAM), LAM, region)
        assert vals[1, 2] == direct

    def test_line_minima_at_half_multiples(self):
        region = ShellRegion(499.0, 500.0)
        ratios = np.linspace(0.1, 1.6, 31)  # includes 0.5, 1.0, 1.5
        vals = spacing.omega_sweep(50, 1, LAM, region, ratios)
        assert np.all(vals >= 0.0)
        for target in (0.5, 1.0, 1.5):
            idx = int(np.argmin(np.abs(ratios - target)))
            assert vals[idx] <= 1e-9
            # neighbors are strictly worse
            assert vals[idx - 1] > 1e-3
            assert vals[idx + 1 if idx + 1 < ratios.size else idx - 2] > 1e-3

    def test_rect_grid_local_minimum_near_lattice(self):
        region = ShellRegion(20.0, 500.0)
        ratios = np.array([2.3, 2.5, 2.7])
        vals = spacing.omega_sweep(5, 5, LAM, region, ratios, ratios)
        center = vals[1, 1]
        assert center < vals[0, 1]
        assert center < vals[2, 1]
        assert center < vals[1, 0]
        assert center < vals[1, 2]

    def test_deterministic(self):
        region = ShellRegion(499.0, 500.0)
        ratios = np.linspace(0.2, 0.9, 7)
        a = spacing.omega_sweep(6, 1, LAM, region, ratios)
        b = spacing.omega_sweep(6, 1, LAM, region, ratios)
        assert np.array_equal(a, b)

    def test_empty_grid_rejected(self):
        with pytest.raises(SwarmMimoError):
            spacing.omega_sweep(4, 1, LAM, ShellRegion(499.0, 500.0), np.array([]))

    def test_delta_x_sweep_of_rectangle_rejected(self):
        # at delta_y = 0 the rows of a 4 x 3 array would sit on top of each other
        with pytest.raises(SwarmMimoError, match="m_y = 3"):
            spacing.omega_sweep(4, 3, LAM, ShellRegion(499.0, 500.0), np.array([0.5, 3.0]))
