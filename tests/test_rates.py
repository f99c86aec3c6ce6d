import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import dblquad, quad

from swarm_mimo_sim import geometry as geo
from swarm_mimo_sim import rates
from swarm_mimo_sim.channel import CoherenceParams, coherence_prelog
from swarm_mimo_sim.errors import SwarmMimoError

LAM = 0.125


def shell(r_min=20.0, r_max=500.0):
    return geo.ShellRegion(r_min, r_max)


def make_params(m=50, k=20, rho_u=1.0, rho_p=10.0, prelog=0.8728667, spacing=LAM / 2,
                region=None, kappa=1.0, chi_wc=1.0, m_y=1, spacing_y=0.0):
    return rates.RateParams(
        geometry=geo.ArrayGeometry(m, m_y, spacing, spacing_y),
        region=region or shell(),
        lam=LAM,
        k=k,
        rho_u=rho_u,
        rho_p=rho_p,
        prelog=prelog,
        kappa=kappa,
        chi_wc=chi_wc,
    )


class TestShellMomentsCD:
    def test_zero_argument(self):
        c, d = rates.cb_db(0.0, shell())
        assert (c, d) == (1.0, 0.0)

    def test_surface_limit(self):
        region = geo.ShellRegion(500.0, 500.0)
        for b in (1.0, 77.7, 962.0):
            c, d = rates.cb_db(b, region)
            assert c == pytest.approx(math.cos(b / 500.0), abs=1e-12)
            assert d == pytest.approx(math.sin(b / 500.0), abs=1e-12)

    def test_against_quadrature(self):
        region = shell(20.0, 500.0)
        norm = region.r_max**3 - region.r_min**3
        for b in (962.0, 5.0, 78.5, 300.0, 1.3e4):
            c, d = rates.cb_db(b, region)
            cq = quad(lambda r: math.cos(b / r) * 3 * r * r / norm,
                      region.r_min, region.r_max, limit=800)[0]
            dq = quad(lambda r: math.sin(b / r) * 3 * r * r / norm,
                      region.r_min, region.r_max, limit=800)[0]
            assert c == pytest.approx(cq, abs=1e-8)
            assert d == pytest.approx(dq, abs=1e-8)

    def test_parity(self):
        region = shell()
        for b in (3.0, 41.5):
            cp, dp = rates.cb_db(b, region)
            cn, dn = rates.cb_db(-b, region)
            assert cn == cp and dn == -dp

    def test_power_bounded_and_tightens(self):
        region = shell(20.0, 500.0)
        b = np.linspace(0.0, 2000.0, 300)
        c, d = rates.cb_db(b, region)
        power = c**2 + d**2
        assert np.all(power <= 1.0 + 1e-12)
        near = geo.ShellRegion(499.5, 500.0)
        c2, d2 = rates.cb_db(b, near)
        assert np.all(c2**2 + d2**2 > 1.0 - 1e-3)


class TestExpectedPhaseSinc:
    def test_zero_offset(self):
        g = geo.ArrayGeometry(4, 4, LAM / 2, LAM / 2)
        assert rates.expected_phase_sinc(0, 0, g, LAM) == 1.0

    def test_half_wave_zero(self):
        g = geo.ArrayGeometry(4, 1, LAM / 2, 0.0)
        assert rates.expected_phase_sinc(1, 0, g, LAM) == pytest.approx(0.0, abs=1e-15)

    def test_against_direction_quadrature(self):
        g = geo.ArrayGeometry(3, 3, LAM / 2, LAM / 2)
        dp, dq = 1, 1

        def integrand(theta, phi):
            phase = (2 * math.pi / LAM) * math.sin(theta) * (
                dp * g.delta_x * math.cos(phi) + dq * g.delta_y * math.sin(phi)
            )
            return math.cos(phase) * math.sin(theta) / (4 * math.pi)

        val = dblquad(integrand, 0, 2 * math.pi, 0, math.pi, epsabs=1e-10)[0]
        closed = rates.expected_phase_sinc(dp, dq, g, LAM)
        assert closed == pytest.approx(np.sinc(math.sqrt(2.0)), rel=1e-12)
        assert closed == pytest.approx(val, abs=1e-6)


class TestOmega:
    def test_single_element(self):
        g = geo.ArrayGeometry(1, 1, 0.0, 0.0)
        assert rates.omega(g, LAM, shell()) == 0.0

    def test_line_half_wave_multiples_vanish(self):
        region = geo.ShellRegion(499.0, 500.0)
        for n in (1, 2, 5):
            g = geo.ArrayGeometry(50, 1, n * LAM / 2, 0.0)
            assert rates.omega(g, LAM, region) <= 1e-9

    def test_off_lattice_positive(self):
        g = geo.ArrayGeometry(50, 1, 0.3 * LAM, 0.0)
        assert rates.omega(g, LAM, geo.ShellRegion(499.0, 500.0)) > 0.1

    def test_rect_half_wave_lattice_value(self):
        g = geo.ArrayGeometry(5, 5, 5 * LAM / 2, 5 * LAM / 2)
        val = rates.omega(g, LAM, shell(20.0, 500.0))
        assert 0.045 <= val <= 0.06

    def test_aperture_precondition(self):
        g = geo.ArrayGeometry(100, 1, LAM / 2, 0.0)
        with pytest.raises(SwarmMimoError):
            rates.omega(g, LAM, geo.ShellRegion(2.0, 500.0))

    def test_matches_bruteforce_pair_sum(self):
        region = shell(50.0, 300.0)
        g = geo.ArrayGeometry(4, 3, 0.21 * LAM, 0.4 * LAM)
        total = 0.0
        for l in range(1, g.m + 1):
            for lp in range(1, g.m + 1):
                if l == lp:
                    continue
                q, p = divmod(l - 1, g.m_x)
                qp, pp = divmod(lp - 1, g.m_x)
                b = (math.pi / LAM) * (
                    (p * p - pp * pp) * g.delta_x**2 + (q * q - qp * qp) * g.delta_y**2
                )
                c, d = rates.cb_db(b, region)
                s = rates.expected_phase_sinc(p - pp, q - qp, g, LAM)
                total += s * s * (c * c + d * d)
        assert rates.omega(g, LAM, region) == pytest.approx(total, rel=1e-12)


class TestOmegaSurface:
    def test_line_half_wave_zero(self):
        g = geo.ArrayGeometry(8, 1, LAM / 2, 0.0)
        assert rates.omega_surface(g, LAM) <= 1e-12

    def test_two_element_quarter_wave(self):
        g = geo.ArrayGeometry(2, 1, LAM / 4, 0.0)
        assert rates.omega_surface(g, LAM) == pytest.approx(2 * (2 / math.pi) ** 2, rel=1e-12)

    def test_rect_lattice_near_zero(self):
        g = geo.ArrayGeometry(5, 5, 5 * LAM / 2, 5 * LAM / 2)
        assert rates.omega_surface(g, LAM) <= 0.1


class TestMrcBoundShell:
    def test_single_drone_perfect_pilots(self):
        p = make_params(m=64, k=1, rho_p=math.inf, prelog=1.0,
                        region=geo.ShellRegion(499.0, 500.0))
        assert rates.mrc_bound_shell(p) == pytest.approx(math.log2(1 + 64), rel=1e-12)

    def test_surface_limit_reduction(self):
        region = geo.ShellRegion(500.0 * (1 - 1e-9), 500.0)
        p = make_params(m=32, k=10, region=region, spacing=0.3 * LAM)
        omega_1 = rates.omega_surface(p.geometry, LAM)
        direct = rates.mrc_bound_shell(p)
        denom = p.rho_u * 9 * (1 + omega_1 / 32) + 1 + (1 + 10 * p.rho_u) / (p.rho_u * p.rho_p)
        expected = p.prelog * math.log2(1 + 32 * p.rho_u / denom)
        assert direct == pytest.approx(expected, rel=1e-6)

    def test_monotonicity(self):
        region = geo.ShellRegion(499.0, 500.0)
        base = rates.mrc_bound_shell(make_params(m=32, k=10, region=region))
        assert rates.mrc_bound_shell(make_params(m=64, k=10, region=region)) > base
        assert rates.mrc_bound_shell(make_params(m=32, k=10, rho_p=100.0, region=region)) >= base
        assert rates.mrc_bound_shell(make_params(m=32, k=20, region=region)) < base

    def test_kappa_chi_invariant(self):
        with pytest.raises(SwarmMimoError):
            make_params(kappa=2.0, chi_wc=0.6)


class TestMrcBoundGeneral:
    def test_reproduces_shell_bound(self):
        region = shell(100.0, 500.0)
        p = make_params(m=8, k=5, spacing=0.3 * LAM, region=region)
        omega_value = rates.omega(p.geometry, LAM, region)
        moment, e_inv = rates.shell_moments(p, omega_value)
        general = rates.mrc_bound_general(moment, e_inv, p)
        direct = rates.mrc_bound_shell(p, omega_value)
        assert general == pytest.approx(direct, rel=1e-12)

    def test_no_interference_perfect_pilots(self):
        p = make_params(m=128, k=7, rho_p=math.inf, prelog=1.0)
        val = rates.mrc_bound_general(0.0, 1.0, p)
        assert val == pytest.approx(math.log2(1 + 128 * (1.0) / (1.0)), rel=1e-12)


class TestMrcBoundOptimal:
    def test_throughput_anchor(self):
        p = make_params(m=27, k=20, rho_u=1.0, rho_p=10.0, prelog=0.8728667)
        q = rates.mrc_bound_optimal(p, "ula") * 20e6
        assert q == pytest.approx(20e6, rel=0.01)

    def test_sum_rate_symmetry(self):
        p = make_params(m=64, k=20)
        per = rates.mrc_bound_optimal(p, "ula")
        assert 20 * per == pytest.approx(sum(rates.mrc_bound_optimal(p, "ula") for _ in range(20)))

    def test_power_scaling_law(self):
        eps = 2.0
        prev = None
        for m in (100, 10_000, 1_000_000):
            p = make_params(m=m, k=20, rho_u=eps / m, rho_p=math.inf, prelog=0.9)
            val = rates.mrc_bound_optimal(p, "ula")
            limit = 0.9 * math.log2(1 + eps)
            if prev is not None:
                assert abs(val - limit) < abs(prev - limit)
            prev = val
        assert prev == pytest.approx(0.9 * math.log2(1 + eps), rel=0.01)

    def test_ura_branch_uses_residual(self):
        p = make_params(m=5, m_y=5, k=10, spacing=5 * LAM / 2, spacing_y=5 * LAM / 2)
        ura = rates.mrc_bound_optimal(p, "ura")
        ula = rates.mrc_bound_optimal(p, "ula")
        assert ura < ula

    def test_unknown_kind(self):
        with pytest.raises(SwarmMimoError):
            rates.mrc_bound_optimal(make_params(), "ring")


class TestZfBound:
    def test_orthogonal_degenerate(self):
        m = 64
        val = rates.zf_bound_two(1.0 / (m - 1), 0.9, 2.0)
        assert val == pytest.approx(0.9 * math.log2(1 + 2.0 * (m - 1)), rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(SwarmMimoError):
            rates.zf_bound_two(0.0, 0.9, 1.0)


class TestMRequired:
    def _params(self, k, v=20.0, rho_u=1.0, rho_p=10.0):
        coh = CoherenceParams(f_c=2.4e9, bandwidth=20e6, b_c=3e6, v_max=v)
        _, prelog = coherence_prelog(coh, k)
        return make_params(m=1, k=k, rho_u=rho_u, rho_p=rho_p, prelog=prelog, spacing=0.0)

    def test_curve_anchor_triple(self):
        for k, expected in ((20, 27), (50, 68), (100, 136)):
            assert rates.m_required(20e6, 20e6, self._params(k)) == expected

    def test_zero_target(self):
        assert rates.m_required(0.0, 20e6, self._params(20)) == 0

    def test_image_table_row(self):
        camera_rate = {0.02: (119.68e6, 20.0, 2195), 0.05: (71.808e6, 30.0, 313),
                       0.20: (17.952e6, 30.0, 20)}
        for gsd, (q, v, expected) in camera_rate.items():
            p = self._params(20, v=v, rho_u=10.0, rho_p=100.0)
            assert abs(rates.m_required(q, 20e6, p) - expected) <= 1


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=15, deadline=None, derandomize=True)
@given(m_x=st.integers(1, 6), m_y=st.integers(1, 6), dx=st.floats(0.05, 2.0),
       dy=st.floats(0.05, 2.0), r_min=st.floats(20.0, 400.0), width=st.floats(0.0, 300.0))
def test_omega_nonnegative(m_x, m_y, dx, dy, r_min, width):
    g = geo.ArrayGeometry(m_x, m_y, dx * LAM, dy * LAM)
    assert rates.omega(g, LAM, shell(r_min, r_min + width)) >= 0.0
    assert rates.omega_surface(g, LAM) >= 0.0


@settings(max_examples=15, deadline=None, derandomize=True)
@given(m=st.integers(2, 24), k=st.integers(1, 3), lam=st.floats(0.01, 1.0),
       r_min=st.floats(50.0, 400.0))
def test_omega_zero_at_half_wave_multiples(m, k, lam, r_min):
    # every pair's sinc weight vanishes, so the pair sum has no terms at all
    g = geo.ArrayGeometry(m, 1, k * lam / 2, 0.0)
    assert rates.omega(g, lam, shell(r_min, 500.0)) == 0.0
    assert rates.omega_surface(g, lam) == 0.0


@settings(max_examples=25, deadline=None, derandomize=True)
@given(r_max=st.floats(10.0, 1e4), thickness=st.floats(1.01e-6, 1e-2),
       b_over_r=st.floats(1e-6, 30.0))
def test_cb_db_continuous_at_surface_limit(r_max, thickness, b_over_r):
    # a thin shell just above the switch to the surface form stays within
    # |b/r - b/R| <= b delta / (r_min R) of the surface values; 1e-9 covers
    # the cancellation in the closed form
    delta = thickness * r_max
    r_min = r_max - delta
    c, d = rates.cb_db(b_over_r * r_max, shell(r_min, r_max))
    tol = b_over_r * delta / r_min + 1e-9
    assert abs(c - math.cos(b_over_r)) <= tol
    assert abs(d - math.sin(b_over_r)) <= tol


@settings(max_examples=30, deadline=None, derandomize=True)
@given(q=st.floats(0.0, 5e8), more=st.floats(0.0, 5e8), k=st.integers(1, 100),
       rho_u=st.floats(0.1, 100.0), rho_p=st.floats(0.1, 1000.0), prelog=st.floats(0.05, 1.0))
def test_m_required_monotone_in_target(q, more, k, rho_u, rho_p, prelog):
    p = make_params(m=1, k=k, rho_u=rho_u, rho_p=rho_p, prelog=prelog, spacing=0.0)
    assert rates.m_required(q, 20e6, p) <= rates.m_required(q + more, 20e6, p)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(m=st.integers(1, 64), k=st.integers(1, 50), spacing=st.floats(0.05, 2.0),
       rho_u=st.floats(0.01, 100.0), rho_p=st.one_of(st.just(math.inf), st.floats(0.1, 1e3)),
       prelog=st.floats(0.05, 1.0), kappa=st.floats(0.1, 1.0))
def test_mrc_bounds_below_single_drone_capacity(m, k, spacing, rho_u, rho_p, prelog, kappa):
    # interference, estimation error and the pre-log only lower the rate
    # below log2(1 + M rho) of one drone with perfect pilots
    p = make_params(m=m, k=k, rho_u=rho_u, rho_p=rho_p, prelog=prelog, spacing=spacing * LAM,
                    region=shell(100.0, 500.0), kappa=kappa)
    cap = math.log2(1.0 + m * rho_u)
    assert rates.mrc_bound_shell(p) <= cap
    assert rates.mrc_bound_optimal(p, "ula") <= cap
    assert rates.mrc_bound_general(*rates.shell_moments(p), p) <= cap


@settings(max_examples=40, deadline=None, derandomize=True)
@given(m_x=st.integers(1, 8), m_y=st.integers(1, 8), kind=st.sampled_from(["ula", "ura"]),
       dx=st.floats(0.05, 2.0), dy=st.floats(0.05, 2.0), k=st.integers(1, 50),
       rho_u=st.floats(0.01, 100.0), rho_p=st.one_of(st.just(math.inf), st.floats(0.1, 1e3)),
       prelog=st.floats(0.05, 1.0), kappa=st.floats(0.1, 1.0), chi_wc=st.floats(0.01, 1.0),
       r_min=st.floats(50.0, 500.0), width=st.floats(0.0, 1e4))
def test_mrc_bound_optimal_is_shell_bound_on_far_sphere(m_x, m_y, kind, dx, dy, k, rho_u,
                                                        rho_p, prelog, kappa, chi_wc, r_min,
                                                        width):
    # the definition: mrc_bound_shell on the sphere of radius r_max, bit for bit
    p = make_params(m=m_x, m_y=m_y, k=k, rho_u=rho_u, rho_p=rho_p, prelog=prelog,
                    spacing=dx * LAM, spacing_y=dy * LAM, region=shell(r_min, r_min + width),
                    kappa=kappa, chi_wc=min(chi_wc, 1.0 / kappa))
    r_max = p.region.r_max
    sphere = replace(p, region=shell(r_max, r_max))
    excess = 0.0 if kind == "ula" else rates.omega_surface(p.geometry, LAM)
    want = rates.mrc_bound_shell(sphere, excess)
    assert rates.mrc_bound_optimal(p, kind).hex() == want.hex()
