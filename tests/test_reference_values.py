"""Values recorded from an earlier commit, held to 1e-12 relative.

``tests/test_omega_golden.py`` and the benchmark's digests pin bits, which move
with the numpy build, the BLAS and any change in summation order. These checks
pin values instead: a change that may move last bits must still land within
1e-12 of each recorded value. The response kernel's lanes are those of
``tests/test_kernels.py``'s layouts, and the ergodic cases those of
``tests/test_montecarlo.py``'s ``ERGODIC_BITS``. The benchmark's scalar
operations are rebuilt here at seed 1 from the package alone.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from swarm_mimo_sim import geometry as geo
from swarm_mimo_sim import montecarlo as mc
from swarm_mimo_sim import polarization as pol
from swarm_mimo_sim import rates
from swarm_mimo_sim._kernels import response_batch
from test_kernels import kernel_layout
from test_montecarlo import ergodic_case

REF = json.loads(Path(__file__).with_name("reference_values.json").read_text())
BENCH = REF["benchmark_seed_1"]
F_C = 2.4e9
LAM = geo.wavelength(F_C)
REL = 1e-12


def assert_close(got: float, recorded: str):
    want = float.fromhex(recorded)
    assert abs(got - want) <= REL * abs(want), (float(got).hex(), recorded)


def _case_id(case):
    m_x, m_y, rx, ry, shell, _ = case
    return f"{m_x}x{m_y}-{rx}-{ry}-" + ("surface" if shell is None else "%g-%g" % tuple(shell))


@pytest.mark.parametrize("case", REF["omega"], ids=_case_id)
def test_omega(case):
    m_x, m_y, rx, ry, shell, recorded = case
    g = geo.ArrayGeometry(m_x, m_y, rx * LAM, ry * LAM)
    if shell is None:
        value = rates.omega_surface(g, LAM)
    else:
        value = rates.omega(g, LAM, geo.ShellRegion(*shell))
    assert_close(value, recorded)


@pytest.mark.parametrize("name", sorted(REF["kernel"]))
def test_response_kernel(name):
    pos, elem, gs, uav, *feeds = kernel_layout(name)
    if name == "singular":  # each finite lane from a call that leaves the singular one out
        h_e, d_e = response_batch(pos, elem[1:], gs[1:], uav, *feeds)
        h_d, d_d = response_batch(pos[1:], elem, gs, uav[1:], *feeds)
        got = {(0, 1): (h_e[0, 0], d_e[0, 0]), (1, 0): (h_d[0, 0], d_d[0, 0])}
    else:
        h, dist = response_batch(pos, elem, gs, uav, *feeds)
        got = {(i, l): (h[i, l], dist[i, l]) for (i, l), _ in REF["kernel"][name]}
    for (i, l), (re, im, recorded_dist) in REF["kernel"][name]:
        h, dist = got[(i, l)]
        want = complex(float.fromhex(re), float.fromhex(im))
        assert abs(h - want) <= REL * abs(want), (name, i, l, complex(h))
        assert_close(dist, recorded_dist)


@pytest.mark.parametrize("case", sorted(REF["ergodic"]))
def test_ergodic_rate(case):
    res = ergodic_case(case)
    mean, stderr = REF["ergodic"][case]
    assert_close(res.mean, mean)
    assert_close(res.stderr, stderr)


def test_benchmark_omega_ura():
    geom = geo.ArrayGeometry(16, 16, 0.3 * LAM, 0.4 * LAM)
    assert_close(rates.omega(geom, LAM, geo.ShellRegion(499.0, 500.0)), BENCH["omega_ura"])


def test_benchmark_ergodic_rate():
    spec = mc.ScenarioSpec(geometry=geo.ArrayGeometry(64, 1, LAM / 2, 0.0),
                           region=geo.ShellRegion(20.0, 500.0), k=20,
                           gs_orientation="pseudo-random", orientation_seed=3)
    res = mc.estimate_ergodic_rate(spec, 1000, 1, receiver="mrc", csi="estimated")
    assert_close(res.mean, BENCH["ergodic_rate_mean"])
    assert_close(res.stderr, BENCH["ergodic_rate_stderr"])


def test_benchmark_worst_case_gain():
    rng = np.random.default_rng(0)
    cfgs = [pol.AntennaConfig(pol.DipoleExcitation.circular(), geo.sample_orientation(rng))
            for _ in range(50)]
    value = pol.worst_case_gain(cfgs, F_C, budget=300, seed=1, refine_top=0)
    assert_close(value, BENCH["worst_case_gain"])


def test_benchmark_interference_moment():
    # the moment of the benchmark's validate run
    spec = mc.ScenarioSpec(geometry=geo.ArrayGeometry(8, 1, 0.3 * LAM, 0.0),
                           region=geo.ShellRegion(100.0, 500.0), k=2, f_c=F_C)
    res = mc.estimate_interference_moment(spec, 100_000, 1)
    assert_close(res.mean, BENCH["interference_moment_mean"])
    assert_close(res.stderr, BENCH["interference_moment_stderr"])
