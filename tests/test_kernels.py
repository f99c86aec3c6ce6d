"""Special-function accuracy and grouping, and backend agreement of the response kernel."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import sici

from swarm_mimo_sim._accel import USE_NUMBA
from swarm_mimo_sim._kernels import _resp_core_numpy, response_batch, si_ci_arrays
from swarm_mimo_sim.geometry import rotation_matrices


def test_si_ci_against_scipy():
    x = np.concatenate(
        [np.linspace(1e-8, 2.0, 400), np.linspace(2.0001, 60.0, 500), [150.0, 1e3, 1e5]]
    )
    si, ci = si_ci_arrays(x)
    si_ref, ci_ref = sici(x)
    assert np.max(np.abs(si - si_ref)) < 1e-12
    assert np.max(np.abs(ci - ci_ref)) < 1e-12


def test_si_ci_against_quadrature():
    euler = 0.5772156649015329
    for x in (0.5, 1.0, 3.7, 9.0):
        si, ci = si_ci_arrays(np.array([x]))
        si_q = quad(lambda t: np.sin(t) / t, 0.0, x, limit=200)[0]
        ci_q = euler + np.log(x) + quad(lambda t: (np.cos(t) - 1.0) / t, 0.0, x, limit=200)[0]
        assert si[0] == pytest.approx(si_q, abs=1e-10)
        assert ci[0] == pytest.approx(ci_q, abs=1e-10)
    si, ci = si_ci_arrays(np.array([1.0]))
    assert si[0] == pytest.approx(0.9460830703671830, abs=1e-12)
    assert ci[0] == pytest.approx(0.3374039229009681, abs=1e-12)


def test_si_ci_rejects_nonpositive():
    with pytest.raises(ValueError):
        si_ci_arrays(np.array([0.0]))
    with pytest.raises(ValueError):
        si_ci_arrays(np.array([-1.0]))


# one group per kind of lane set; the lone lane at 2.28... is one whose value
# changes if it is multiplied with a fused multiply-add
SI_CI_GROUPS = {
    "all_small": np.linspace(0.01, 2.0, 7),
    "all_big": np.array([3.5, 10.0, 47.3, 300.0, 2.5e4]),
    "mixed": np.array([0.5, 1.9, 2.4, 8.8, 120.0]),
    "just_above_2": 2.0 + np.array([1e-9, 1e-4, 3e-3, 2e-2]),
    "one_lane": np.array([float.fromhex("0x1.241045c4b1bddp+1")]),
    "one_small_lane": np.array([0.7]),
}


def _bits(*arrays):
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("names", [
    ("all_small", "all_big", "mixed", "just_above_2", "one_lane", "one_small_lane"),
    ("all_big", "one_lane"),
    ("just_above_2", "all_big"),
    ("one_lane", "mixed"),
])
def test_si_ci_groups_match_separate_calls(names):
    x = np.concatenate([SI_CI_GROUPS[n] for n in names])
    ids = np.repeat(np.arange(len(names)) * 7 - 3, [SI_CI_GROUPS[n].size for n in names])
    perm = np.random.default_rng(0).permutation(x.size)  # groups need not be runs
    x, ids = x[perm], ids[perm]
    si, ci = si_ci_arrays(x, ids)
    for g in np.unique(ids):
        lanes = ids == g
        assert _bits(si[lanes], ci[lanes]) == _bits(*si_ci_arrays(x[lanes]))


def test_si_ci_no_groups_is_one_group():
    for x in (np.concatenate(list(SI_CI_GROUPS.values())), SI_CI_GROUPS["one_lane"]):
        assert _bits(*si_ci_arrays(x)) == _bits(*si_ci_arrays(x, np.zeros(x.size, int)))


def test_si_ci_groups_shape_checked():
    with pytest.raises(ValueError):
        si_ci_arrays(np.array([1.0, 3.0]), np.array([0]))


@pytest.mark.skipif(not USE_NUMBA, reason="single-backend run")
def test_response_backends_agree():
    rng = np.random.default_rng(42)
    n, m = 400, 9
    pos = rng.normal(size=(n, 3)) * 80
    elem = rng.normal(size=(m, 3)) * 0.5
    gs = rotation_matrices(rng.uniform(-1, 1, m), rng.uniform(-1, 1, m), rng.uniform(0, 6, m))
    uav = rotation_matrices(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n), rng.uniform(0, 6, n))
    wt = np.array([0.6, 0.8j])
    wr = np.array([1 / np.sqrt(2), 1j / np.sqrt(2)])
    h1, d1, a1, b1 = response_batch(pos, elem, gs, uav, wt, wr)
    h2, d2, a2, b2 = _resp_core_numpy(
        pos, elem, gs, False, uav, True, wt[0], wt[1], wr[0], wr[1], 0.5, 0.5
    )
    assert np.nanmax(np.abs(h1 - h2)) < 1e-13
    assert np.nanmax(np.abs(d1 - d2)) == 0.0
    assert np.nanmax(np.abs(a1 - a2)) < 1e-13
    assert np.nanmax(np.abs(b1 - b2)) < 1e-13


def test_response_layout_flags():
    rng = np.random.default_rng(1)
    n = m = 4  # ambiguous without the explicit flag
    pos = rng.normal(size=(n, 3)) * 30
    elem = rng.normal(size=(m, 3))
    gs = rotation_matrices(rng.uniform(-1, 1, m), rng.uniform(-1, 1, m), rng.uniform(0, 6, m))
    uav = np.eye(3)
    wt = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        response_batch(pos, elem, gs, uav, wt, wt)
    h_el, _, _, _ = response_batch(pos, elem, gs, uav, wt, wt, gs_per_sample=False)
    h_ps, _, _, _ = response_batch(pos, elem, gs, uav, wt, wt, gs_per_sample=True)
    # per-element and per-sample readings differ off the diagonal
    assert np.allclose(np.diag(h_el), np.diag(h_ps))
    assert not np.allclose(h_el, h_ps)


def test_singular_direction_marks_nan():
    pos = np.array([[0.0, 0.0, 10.0]])  # on the z axis of an unrotated element
    elem = np.zeros((1, 3))
    eye = np.eye(3)[None, :, :]
    wt = np.array([1.0, 0.0])
    h, dist, n1, n2 = response_batch(pos, elem, eye, np.eye(3), wt, wt,
                                      gs_per_sample=False)
    assert np.isnan(h[0, 0].real)
    assert dist[0, 0] == 10.0
