"""Special-function accuracy and grouping, and the response kernel's pinned bits."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import sici

from swarm_mimo_sim._kernels import response_batch, si_ci_arrays
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


def _rots(rng, k):
    return rotation_matrices(rng.uniform(-1.5, 1.5, k), rng.uniform(-1.5, 1.5, k),
                             rng.uniform(0.0, 6.3, k))


CIRC = np.array([1 / np.sqrt(2), 1j / np.sqrt(2)])


def kernel_layout(name):
    """Arguments of one ``response_batch`` call per layout."""
    if name == "singular":
        # the first drone sits on the z axis of the unrotated element 0
        pos = np.array([[0.0, 0.0, 10.0], [3.0, 4.0, 12.0]])
        elem = np.array([[0.0, 0.0, 0.0], [0.25, 0.0, 0.0]])
        return (pos, elem, np.stack([np.eye(3)] * 2), np.eye(3), CIRC, CIRC), False
    rng = np.random.default_rng(
        {"mission": 20, "per_sample": 5000, "remainder": 257, "single": 1}[name])
    if name == "mission":  # per-element ground and per-sample drone rotations
        n, m, gs_per_sample, uav = 20, 100, False, _rots(rng, 20)
    elif name == "per_sample":  # n spans three lane blocks, the last one partly
        n, m, gs_per_sample, uav = 5000, 7, True, _rots(rng, 5000)
    elif name == "remainder":  # blocks of 256 rows and a one-row remainder
        n, m, gs_per_sample, uav = 257, 64, False, _rots(rng, 1)[0]
    else:  # one drone, one shared rotation
        n, m, gs_per_sample, uav = 1, 50, False, _rots(rng, 1)[0]
    pos = rng.normal(size=(n, 3)) * 400.0
    elem = rng.normal(size=(m, 3))
    gs = _rots(rng, n if gs_per_sample else m)
    w_tx = np.array([0.6, 0.8j])
    return (pos, elem, gs, uav, w_tx, CIRC, 0.5, 0.47), gs_per_sample


# float.hex of (h.real, h.imag, dist, n1sq, n2sq) at a few (sample, element)
# lanes of each layout, recorded from the per-element loop the blocked kernel
# replaced; the per_sample lanes sit on both sides of each block edge
KERNEL_GOLDEN = {
    "mission": [
        ((0, 0), ('0x1.36967383b427ap-2', '0x1.e2bc93e48c58fp-3', '0x1.c8b99b0ed97f4p+9', '0x1.a0be71c2ac284p-2', '0x1.54d79fad935d8p-1')),
        ((7, 42), ('-0x1.0ecd58a491a41p-2', '0x1.637e83e36357cp-4', '0x1.5758068d2bdb2p+8', '0x1.dfd2db83d9a02p-1', '0x1.5d94d116f70bdp-2')),
        ((19, 99), ('-0x1.4e91b73487016p-3', '0x1.78712a8579685p-4', '0x1.a0e4d02b9b16dp+9', '0x1.6366780f922e8p-1', '0x1.2a3ef4b5cd0dcp-1')),
        ((13, 5), ('0x1.abfdda515d93dp-3', '0x1.8d0f94cafc458p-7', '0x1.0ec6ca1075df9p+10', '0x1.da7130ad89717p-2', '0x1.f0b8b17d8b724p-2')),
    ],
    "per_sample": [
        ((0, 0), ('-0x1.68edc52aa8409p-1', '0x1.3da77a0d94084p-3', '0x1.70ff640c60b4dp+9', '0x1.f70eb16109c1cp-1', '0x1.47b3b96f67af8p-1')),
        ((2339, 6), ('0x1.4e5ec3298e62fp-2', '-0x1.d3f16aa520228p-5', '0x1.1a7a0e96eee32p+9', '0x1.85c254affcc90p-2', '0x1.19e377127bf62p-1')),
        ((2340, 3), ('-0x1.9f1a088c9de11p-2', '0x1.3a04c559c0a90p-4', '0x1.a5f05701ca436p+9', '0x1.83aee373d456ap-2', '0x1.4ca6092115182p-1')),
        ((4679, 1), ('-0x1.bc8235f44615fp-4', '-0x1.ccd2c0762e348p-4', '0x1.55aefb4d60c3dp+8', '0x1.7c407bba6d3f0p-2', '0x1.80a7a50a24d8ep-2')),
        ((4680, 2), ('-0x1.628e70174f8f0p-2', '0x1.4efaa60624d18p-2', '0x1.00cfa071ef432p+9', '0x1.e0983dc713e14p-1', '0x1.d77542ca342a4p-2')),
        ((4999, 6), ('-0x1.2781d5578b2a8p-3', '0x1.501bfd068a348p-3', '0x1.81602023e7090p+8', '0x1.e46af150aaf58p-2', '0x1.a26885ef365dcp-2')),
    ],
    "remainder": [
        ((0, 0), ('0x1.cc48856833580p-5', '-0x1.7349c1b813b3dp-4', '0x1.b200d064f13a0p+9', '0x1.56f9a0d2ae1e5p-1', '0x1.2619d4562faf5p-1')),
        ((255, 63), ('-0x1.2ed3d5090ff16p-1', '-0x1.215ad97ba93e1p-2', '0x1.b41dbd6372ec5p+8', '0x1.1ec8a9ad4b6c6p-1', '0x1.a24940fe1bf00p-1')),
        ((256, 1), ('0x1.464faa2c7b5d8p-1', '0x1.b787534776710p-7', '0x1.e25e42596309cp+8', '0x1.4901d86268e50p-1', '0x1.6f65a559b0edap-1')),
        ((256, 4), ('0x1.30c33154953e0p-4', '-0x1.bb01c2ba0412dp-2', '0x1.e427732e9a21cp+8', '0x1.01d3902183d6cp-1', '0x1.6d63d2d10b42ap-1')),
    ],
    "single": [
        ((0, 0), ('-0x1.582637d962867p-2', '0x1.35bd4822d00c0p-3', '0x1.4940f2e0235c7p+9', '0x1.e8528edec648ap-1', '0x1.643d5c117bb14p-2')),
        ((0, 17), ('-0x1.7d03096374662p-4', '0x1.7f7c05ca41892p-6', '0x1.4a0d846ff8a3bp+9', '0x1.2c6c17ebeb0aap-1', '0x1.6461c30edbd00p-2')),
        ((0, 49), ('0x1.3dc88d53ab704p-3', '-0x1.864937876a5d6p-3', '0x1.4934f736791e8p+9', '0x1.a90113f3c5a82p-1', '0x1.649e4d2325ed8p-2')),
    ],
    "singular": [
        ((0, 0), ('nan', '0x0.0p+0', '0x1.4000000000000p+3', 'nan', 'nan')),
        ((0, 1), ('0x1.0000a19a42ae5p-1', '0x0.0p+0', '0x1.4019989389b30p+3', '0x1.0019421f7766ap-1', '0x1.0019421f7766ap-1')),
        ((1, 0), ('0x1.b93bc175913dcp-2', '-0x1.06c856977067ap-4', '0x1.a000000000000p+3', '0x1.edb0c7802a630p-2', '0x1.edb0c7802a630p-2')),
    ],
}


@pytest.mark.parametrize("name", sorted(KERNEL_GOLDEN))
def test_response_golden_bits(name):
    args, gs_per_sample = kernel_layout(name)
    h, dist, n1, n2 = response_batch(*args, gs_per_sample=gs_per_sample)
    for (i, l), want in KERNEL_GOLDEN[name]:
        got = (h[i, l].real, h[i, l].imag, dist[i, l], n1[i, l], n2[i, l])
        assert tuple(float(v).hex() for v in got) == want, (i, l)


@pytest.mark.parametrize("name, rows", [
    ("mission", [slice(0, 2), slice(2, 20), slice(5, 17)]),
    ("per_sample", [slice(0, 2), slice(2338, 2343), slice(1, 4681), slice(4679, 5000)]),
])
def test_response_row_slices_match_whole_call(name, rows):
    (pos, elem, gs, uav, *rest), gs_per_sample = kernel_layout(name)
    whole = response_batch(pos, elem, gs, uav, *rest, gs_per_sample=gs_per_sample)
    for r in rows:
        part = response_batch(pos[r], elem, gs[r] if gs_per_sample else gs, uav[r], *rest,
                              gs_per_sample=gs_per_sample)
        assert _bits(*part) == _bits(*(a[r] for a in whole)), r


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
