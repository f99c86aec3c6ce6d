"""Special-function accuracy and lane independence, and the response kernel's pinned bits."""

import multiprocessing
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import sici

from swarm_mimo_sim import _kernels
from swarm_mimo_sim._kernels import _row_blocks, _sum3, response_batch, si_ci_arrays
from swarm_mimo_sim.errors import SingularDirectionError
from swarm_mimo_sim.geometry import (
    ArrayGeometry,
    ShellRegion,
    element_positions,
    rotation_matrices,
    sample_shell_positions,
)
from swarm_mimo_sim.polarization import field_pattern, polarization_basis, response_norms, t_matrix


def test_si_ci_against_scipy():
    x = np.concatenate(
        [np.linspace(1e-8, 2.0, 400), np.linspace(2.0001, 60.0, 500), [150.0, 1e3, 1e5, 1e8]]
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


# one group of lanes per kind; the lone lane at 2.28... is one whose value
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
    ids = np.repeat(np.arange(len(names)), [SI_CI_GROUPS[n].size for n in names])
    perm = np.random.default_rng(0).permutation(x.size)  # the groups interleave
    x, ids = x[perm], ids[perm]
    si, ci = si_ci_arrays(x)
    for g in range(len(names)):
        lanes = ids == g
        assert _bits(si[lanes], ci[lanes]) == _bits(*si_ci_arrays(x[lanes]))


def test_si_ci_large_grouped_call_matches_separate_calls():
    # over 16,384 lanes above 2, where numpy could compute a complex product
    # in place into a temporary, with its operands swapped; each group
    # repeats one value in 20 lanes spread over the call
    rng = np.random.default_rng(5)
    ids = rng.permutation(np.arange(20_480) % 1024)
    x = rng.uniform(2.5, 60.0, 1024)[ids]
    si, ci = si_ci_arrays(x)
    for g in range(1024):
        lanes = ids == g
        assert _bits(si[lanes], ci[lanes]) == _bits(*si_ci_arrays(x[lanes]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    x=st.lists(st.floats(1e-3, 1e6), min_size=1, max_size=300),
    data=st.data(),
)
def test_si_ci_lane_depends_only_on_its_argument(x, data):
    x = np.array(x)
    lanes = data.draw(st.lists(st.integers(0, x.size - 1), min_size=1, unique=True))
    si, ci = si_ci_arrays(x)
    assert _bits(*si_ci_arrays(x[lanes])) == _bits(si[lanes], ci[lanes])


# the Si/Ci as it was before its series stopped early and its continued fraction
# ran on split parts, verbatim: all 39 terms of each series up to x = 2, and
# lanes of the fraction stopped at |delta - 1| < 1e-16; si_ci_arrays keeps
# every bit of it


def _ref_cmul_unfused(p, q):
    "Complex product with every real operation rounded on its own."
    out = np.empty_like(p)
    out.real = p.real * q.real - p.imag * q.imag
    out.imag = p.real * q.imag + p.imag * q.real
    return out


def _ref_e1_lentz(x):
    lane = np.arange(x.size)
    b = 1.0 + 1j * x
    c = np.full_like(b, 1e308)
    d = 1.0 / b
    h = d.copy()
    out = np.empty_like(b)
    for i in range(1, 400):
        a = -float(i * i)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = _ref_cmul_unfused(c, d)
        h = _ref_cmul_unfused(h, delta)
        done = np.abs(delta - 1.0) < 1e-16
        if done.any():
            out[lane[done]] = h[done]
            keep = ~done
            lane, b, c, d, h = lane[keep], b[keep], c[keep], d[keep], h[keep]
            if lane.size == 0:
                break
    out[lane] = h
    return _ref_cmul_unfused(out, np.exp(-1j * x))


def _ref_si_ci(x):
    x = np.ascontiguousarray(x, dtype=np.float64)
    if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
        raise ValueError("si_ci_arrays requires finite x > 0")
    si = np.empty_like(x)
    ci = np.empty_like(x)
    small = x <= 2.0
    if np.any(small):
        xs = x[small]
        x2 = xs * xs
        term = xs.copy()
        acc = xs.copy()
        for k in range(1, 40):
            term *= -x2 * (2 * k - 1) / ((2 * k) * (2 * k + 1) * (2 * k + 1))
            acc += term
        si[small] = acc
        acc = np.euler_gamma + np.log(xs)
        t = np.ones_like(xs)
        for k in range(1, 40):
            t *= -x2 / ((2 * k - 1) * (2 * k))
            acc += t / (2 * k)
        ci[small] = acc
    big = ~small
    if np.any(big):
        e1 = _ref_e1_lentz(x[big])
        si[big] = np.pi / 2 + e1.imag
        ci[big] = -e1.real
    return si, ci


def _hex_mismatches(x):
    got, want = si_ci_arrays(x), _ref_si_ci(x)
    return [(float.hex(v), name, float.hex(a), float.hex(b))
            for name, g, w in zip(("si", "ci"), got, want)
            for v, a, b in zip(x, g, w) if float.hex(a) != float.hex(b)]


def _around(x0, ulps):
    "``x0`` and its ``ulps`` nearest floats on each side."
    up, down = [x0], [x0]
    for _ in range(ulps):
        up.append(np.nextafter(up[-1], np.inf))
        down.append(np.nextafter(down[-1], 0.0))
    return np.array(down[:0:-1] + up)


SI_CI_EXACT_POINTS = {
    "x2_underflows": np.array([5e-324, 1e-310, 1e-300, 1e-200, 1.5e-154]),
    "dense_to_2": np.linspace(1e-3, 2.0, 40_001),
    "around_2": _around(2.0, 64),
    "around_ci_zero": _around(0.6165054856207162, 64),
    "dense_2_to_5": np.linspace(2.0, 5.0, 40_001),
    "to_1e6": np.geomspace(5.0, 1e6, 20_001),
}


@pytest.mark.parametrize("name", list(SI_CI_EXACT_POINTS))
def test_si_ci_bits_match_reference(name):
    assert _hex_mismatches(SI_CI_EXACT_POINTS[name])[:5] == []


@settings(max_examples=60, deadline=None, derandomize=True)
@given(x=st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=200))
def test_si_ci_bits_match_reference_property(x):
    assert _hex_mismatches(np.array(x)) == []


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
        return pos, elem, np.stack([np.eye(3)] * 2), np.stack([np.eye(3)] * 2), CIRC, CIRC
    if name == "feeds":
        # unequal feeds out of phase quadrature on both sides, so the norms'
        # cross term and the pairing of each weight with its pattern both show
        rng = np.random.default_rng(77)
        pos = rng.normal(size=(40, 3)) * 400.0
        elem = rng.normal(size=(9, 3))
        w_tx = np.array([0.6, 0.8 * np.exp(0.7j)])
        w_rx = np.array([0.9, 0.3 * np.exp(-1.1j)])
        return pos, elem, _rots(rng, 9), _rots(rng, 40), w_tx, w_rx, 0.5, 0.62
    if name == "gain_cdf":
        # the gain-cdf preset's shape: 50-element half-wave line array, one
        # common ground rotation and one drone rotation per sample, 327-row blocks
        rng = np.random.default_rng(50)
        n, m = 700, 50
        elem = element_positions(ArrayGeometry(m, 1, 0.0625, 0.0))
        pos = sample_shell_positions(ShellRegion(20.0, 500.0), rng, n)
        return pos, elem, _rots(rng, n)[:, None], _rots(rng, n), CIRC, CIRC, 0.5, 0.5
    if name.startswith("elide_"):
        # per-sample ground rotations in two blocks of 16,384 lanes (at), 16,383
        # (below) and 18,000 (above): about numpy's 256 KiB temporary elision,
        # with complex feeds on both sides, so that the operand order of the
        # complex products shows in the bits
        n, m = {"elide_at": (4096, 8), "elide_below": (258, 127), "elide_above": (4, 9000)}[name]
        rng = np.random.default_rng(n + m)
        pos = rng.normal(size=(n, 3)) * 400.0
        elem = rng.normal(size=(m, 3))
        w_tx = np.array([0.6, 0.8 * np.exp(0.7j)])
        w_rx = np.array([0.9, 0.3 * np.exp(-1.1j)])
        return pos, elem, _rots(rng, n)[:, None], _rots(rng, n), w_tx, w_rx, 0.5, 0.5
    rng = np.random.default_rng(
        {"mission": 20, "per_sample": 5000, "remainder": 257, "single": 1, "merged": 513}[name])
    if name == "mission":  # per-element ground and per-sample drone rotations
        n, m, per_sample, uav = 20, 100, False, _rots(rng, 20)
    elif name == "merged":  # two blocks of 256 rows, the second with the one-row remainder
        n, m, per_sample, uav = 513, 64, False, _rots(rng, 513)
    elif name == "per_sample":  # n spans three lane blocks, the last one partly
        n, m, per_sample, uav = 5000, 7, True, _rots(rng, 5000)
    elif name == "remainder":  # blocks of 256 rows and a one-row remainder, one drone attitude
        n, m, per_sample, uav = 257, 64, False, np.repeat(_rots(rng, 1), 257, axis=0)
    else:  # one drone
        n, m, per_sample, uav = 1, 50, False, _rots(rng, 1)
    pos = rng.normal(size=(n, 3)) * 400.0
    elem = rng.normal(size=(m, 3))
    gs = _rots(rng, n)[:, None] if per_sample else _rots(rng, m)
    w_tx = np.array([0.6, 0.8j])
    return pos, elem, gs, uav, w_tx, CIRC, 0.5, 0.47


# float.hex of (h.real, h.imag, dist, n1sq, n2sq) at a few (sample, element)
# lanes of each layout, recorded from the per-element loop the blocked kernel
# replaced (gain_cdf: from the kernel whose per-sample rotation was an einsum;
# feeds: from the blocked kernel, the last one to return the norms); the
# per_sample and gain_cdf lanes sit on both sides of each block edge. The
# singular, remainder and single lanes were recorded with one (3, 3) drone
# rotation shared by all samples, which the kernel no longer takes; its
# per-sample repeat keeps their bits. The elide_* lanes were recorded from
# the kernel that built every step per component, before its steps were
# stacked, and their norms from ``response_norms``.
# n1sq and n2sq are the squared response norms those kernels returned; they
# are the reference for ``response_norms`` on the same lanes.
KERNEL_GOLDEN = {
    "elide_above": [
        ((0, 0), ('0x1.2bf9bf71170acp-3', '0x1.6264d30faed36p-3', '0x1.82719164a106bp+9', '0x1.2c60614491969p-3', '0x1.427d1469023d9p-1')),
        ((1, 4), ('-0x1.5f7fa551e52abp-2', '0x1.1fb19dab624d4p-2', '0x1.dbf1ca3c3e5d0p+7', '0x1.88396c90bf3a2p-1', '0x1.8c2f519f784e1p-1')),
        ((1, 8999), ('-0x1.5cfa3dbfdec64p-2', '0x1.200f20f2fe8b0p-2', '0x1.d737ba6dae36ap+7', '0x1.8783c313e717ap-1', '0x1.8b317d313f9f0p-1')),
        ((2, 0), ('0x1.94aacba94f95ep-3', '0x1.3038fe1fbab89p-5', '0x1.382dfaeca145fp+7', '0x1.f35363c2badb1p-2', '0x1.7c4ad846a78d6p-2')),
        ((2, 8996), ('0x1.920ab091ff633p-3', '0x1.329e33e7f93b2p-5', '0x1.2e6269e0fd710p+7', '0x1.f4bc95a47e8c9p-2', '0x1.7a65be3393426p-2')),
        ((3, 8999), ('0x1.1942b94323f42p-4', '0x1.b0fc8921b6a22p-3', '0x1.1553a9429ed5ap+10', '0x1.6d13849cf9cb3p-1', '0x1.609ab2b359dfdp-1')),
    ],
    "elide_at": [
        ((0, 0), ('0x1.5abf88732ad58p-3', '-0x1.47d986126e6e7p-3', '0x1.369399be83052p+9', '0x1.808f7d22f5dfep-1', '0x1.5b63d086216ebp-2')),
        ((1000, 3), ('0x1.de33bea71fd74p-2', '-0x1.970f755ab918cp-4', '0x1.687fc5690ed0dp+8', '0x1.3ecb3c4f7a7f9p-1', '0x1.bbbc3e85fee2ep-1')),
        ((2047, 1), ('-0x1.6a8d9fcf014d8p-2', '0x1.5e2e98192e474p-2', '0x1.0031b5d47d8f3p+10', '0x1.aaae67bd1d3ccp-2', '0x1.82e61a4f179d7p-1')),
        ((2047, 7), ('-0x1.6a097889e37c8p-2', '0x1.5eced50fc58bep-2', '0x1.0055660bed4e4p+10', '0x1.a9297ec7c2400p-2', '0x1.832cd49a838a4p-1')),
        ((2048, 0), ('0x1.2d88825620764p-2', '0x1.16ffb06dfac68p-9', '0x1.4b4956e891099p+9', '0x1.d1c92d2a27af4p-3', '0x1.68d04850e71eap-1')),
        ((2048, 5), ('0x1.2e2b6b548241fp-2', '0x1.0629e8b333450p-9', '0x1.4ba9875a75ac2p+9', '0x1.d2f96b40b20d5p-3', '0x1.68f59194cde0cp-1')),
        ((4095, 1), ('-0x1.0f78e9f45fa65p-4', '-0x1.74195460a3813p-4', '0x1.a2d0685f7109ap+9', '0x1.7f88860b689b1p-1', '0x1.9ed927c534e83p-1')),
    ],
    "elide_below": [
        ((0, 0), ('-0x1.f7d6a158e6980p-8', '0x1.9ce2fbce7ae67p-3', '0x1.7bcc109882a2dp+8', '0x1.0074fdc52a94ep-2', '0x1.b16090d088d27p-1')),
        ((128, 9), ('0x1.8621cdfde784ep-4', '-0x1.db3838ea726fbp-4', '0x1.9118e545f30e9p+9', '0x1.4b0fa03ae3c04p-2', '0x1.aae945687b192p-3')),
        ((128, 126), ('0x1.8416213a46483p-4', '-0x1.d88de3798a32ap-4', '0x1.91c7628154204p+9', '0x1.49cfc57d313cep-2', '0x1.a9c1653c07837p-3')),
        ((129, 0), ('-0x1.3ea361ab85a20p-1', '0x1.e0fa2a862ae12p-3', '0x1.6db7eceeb8abfp+7', '0x1.91455a2865e86p-1', '0x1.9cc70f2ab4904p-1')),
        ((129, 125), ('-0x1.3d6f320dbc2f4p-1', '0x1.d863a1e4d2d03p-3', '0x1.6e715ad1c467fp+7', '0x1.9261e124ea51cp-1', '0x1.98c7f53db80b6p-1')),
        ((257, 126), ('-0x1.9359ca08e6ab5p-3', '0x1.4639f8e47f6b2p-3', '0x1.5369147915450p+9', '0x1.6c5ddf8be9fadp-1', '0x1.11f1d354c89d7p-1')),
    ],
    "feeds": [
        ((0, 0), ('-0x1.4c5ced5168ac4p-3', '0x1.e6b21a6153b9bp-3', '0x1.1292aa664f52bp+10', '0x1.ac55c3d21ee65p-2', '0x1.569ea2c88a1f2p-2')),
        ((17, 4), ('-0x1.1eba62cfdc5f4p-4', '0x1.6cbbdd31d0fc4p-2', '0x1.8f50c107689fap+8', '0x1.125beefdee564p-2', '0x1.2554934edc7c3p+0')),
        ((25, 2), ('0x1.bfc5501fd577ep-7', '-0x1.c1332e43c2546p-5', '0x1.5231f5a82964bp+9', '0x1.107d0b8408328p-1', '0x1.17c753133cbccp-2')),
        ((39, 8), ('-0x1.8244a15b6a372p-4', '0x1.e4de798ae2766p-4', '0x1.e7ea951621c1cp+8', '0x1.70e7feafaf3dbp-1', '0x1.0a554e8569e17p+0')),
    ],
    "gain_cdf": [
        ((0, 0), ('0x1.c253d0a2e48f6p-4', '0x1.545a7362a3c0cp-3', '0x1.cdb75b504418cp+8', '0x1.0220f94bdee6dp-1', '0x1.ddc594b476d90p-2')),
        ((326, 49), ('0x1.ae30ca5404be4p-4', '-0x1.fed318acb6386p-4', '0x1.47e268ede04d8p+8', '0x1.2872173197f31p-1', '0x1.96cdf5716772cp-1')),
        ((327, 0), ('-0x1.a07ef01491d0ep-3', '0x1.42c72dd25d265p-2', '0x1.f5ef2338d4738p+7', '0x1.eb7a725886a01p-2', '0x1.65e8805ca9371p-1')),
        ((327, 31), ('-0x1.a748b02d2bafap-3', '0x1.3d0406cecf358p-2', '0x1.f67d7edbf7e53p+7', '0x1.ea0337481054cp-2', '0x1.657001938c4bcp-1')),
        ((653, 17), ('0x1.4cccd944be380p-2', '0x1.690f4e11cc356p-2', '0x1.e409b5f0c7521p+8', '0x1.54ba0d31a2b14p-1', '0x1.2051f4c9f3ae6p-1')),
        ((654, 48), ('-0x1.b61492f4c63cep-4', '-0x1.020c7accf14c0p-3', '0x1.6dc89866b31a0p+8', '0x1.0171e5238dabfp-1', '0x1.1e24ee7b4ff9ep-1')),
        ((699, 49), ('-0x1.27ed5dd0dcd33p-3', '-0x1.52c2d609b437ap-2', '0x1.e11b83e07e949p+7', '0x1.ec56cbb8e13d8p-2', '0x1.5a8edd0cfd6c2p-1')),
    ],
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
    args = kernel_layout(name)
    if name == "singular":
        # lane (0, 0) sits on the z axis of its element, so the whole call
        # raises; lanes (0, 1) and (1, 0) keep their bits in calls that leave
        # it out: element 1 for both drones, and drone 1 alone
        with pytest.raises(SingularDirectionError):
            response_batch(*args)
        pos, elem, gs, uav, *feeds = args
        h_e1, d_e1 = response_batch(pos, elem[1:], gs[1:], uav, *feeds)
        h_d1, d_d1 = response_batch(pos[1:], elem, gs, uav[1:], *feeds)
        got = {(0, 1): (h_e1[0, 0], d_e1[0, 0]), (1, 0): (h_d1[0, 0], d_d1[0, 0])}
    else:
        h, dist = response_batch(*args)
        got = {lane: (h[lane], dist[lane]) for lane, _ in KERNEL_GOLDEN[name]}
    want = dict(KERNEL_GOLDEN[name])
    for lane, (hv, dv) in got.items():
        assert tuple(float(v).hex() for v in (hv.real, hv.imag, dv)) == want[lane][:3], lane


def _lane_norms(args, i, l):
    "``response_norms`` of lane (i, l) of the ``response_batch`` call ``args``."
    pos, elem, gs, uav, w_tx, w_rx, *ratios = args
    return response_norms(pos[i] - elem[l], gs[i, 0] if gs.ndim == 4 else gs[l],
                          uav[i], w_tx, w_rx, *ratios)


@pytest.mark.parametrize("name", sorted(KERNEL_GOLDEN))
def test_response_norms_match_recorded_lanes(name):
    args = kernel_layout(name)
    for (i, l), (*_, n1_hex, n2_hex) in KERNEL_GOLDEN[name]:
        if n1_hex == "nan":  # the lane on the z axis of its element
            with pytest.raises(SingularDirectionError):
                _lane_norms(args, i, l)
            continue
        n1, n2 = _lane_norms(args, i, l)
        assert n1 == pytest.approx(float.fromhex(n1_hex), rel=1e-12, abs=0.0), (i, l)
        assert n2 == pytest.approx(float.fromhex(n2_hex), rel=1e-12, abs=0.0), (i, l)


@pytest.mark.parametrize("name, rows", [
    ("mission", [slice(0, 2), slice(2, 20), slice(5, 17)]),
    ("per_sample", [slice(0, 2), slice(2338, 2343), slice(1, 4681), slice(4679, 5000)]),
])
def test_response_row_slices_match_whole_call(name, rows):
    pos, elem, gs, uav, *rest = kernel_layout(name)
    whole = response_batch(pos, elem, gs, uav, *rest)
    for r in rows:
        part = response_batch(pos[r], elem, gs[r] if gs.ndim == 4 else gs, uav[r], *rest)
        assert _bits(*part) == _bits(*(a[r] for a in whole)), r


# layouts of several row blocks: per sample, per element, and per element with
# a one-row remainder merged into the block before it
MULTI_BLOCK = ["per_sample", "gain_cdf", "merged"]


@pytest.mark.parametrize("name", MULTI_BLOCK)
def test_response_independent_of_worker_count(name, monkeypatch, inline_kernel):
    args = kernel_layout(name)
    assert len(_row_blocks(args[0].shape[0], args[1].shape[0])) > 1
    pooled = _bits(*response_batch(*args))
    # one worker, and more workers than cores switching threads every microsecond
    switch = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for workers in (1, 8):
            with ThreadPoolExecutor(workers) as pool:
                monkeypatch.setattr(_kernels, "_pool", pool)
                assert _bits(*response_batch(*args)) == pooled, workers
    finally:
        sys.setswitchinterval(switch)
    inline_kernel()  # one usable core: inline
    assert _bits(*response_batch(*args)) == pooled


def test_block_exception_reaches_caller(monkeypatch):
    def fail(out, tmp, terms):
        raise RuntimeError("block failed")

    monkeypatch.setattr(_kernels, "_sum3", fail)
    with pytest.raises(RuntimeError, match="block failed"):
        response_batch(*kernel_layout("per_sample"))


def _send_response(conn, args):
    conn.send(response_batch(*args))
    conn.close()


def test_forked_child_builds_its_own_pool(monkeypatch):
    # the parent's pool threads do not survive a fork; without the fork hook
    # the child would queue its blocks on a pool that never runs them
    args = kernel_layout("per_sample")
    with ThreadPoolExecutor(2) as pool:
        monkeypatch.setattr(_kernels, "_pool", pool)
        want = response_batch(*args)  # starts the parent's pool threads
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_send_response, args=(send, args))
        child.start()
        send.close()
        try:
            assert recv.poll(60), "forked child did not answer within 60 s"
            got = recv.recv()
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
                child.join(10)
    assert child.exitcode == 0
    assert _bits(*got) == _bits(*want)


class _RecordingPool(ThreadPoolExecutor):
    "A thread pool that keeps the futures of the claim loops ``map_tasks`` hands it."

    def __init__(self, workers):
        super().__init__(workers)
        self.loops = []

    def submit(self, fn, *args, **kw):
        future = super().submit(fn, *args, **kw)
        self.loops.append(future)
        return future


class TestMapTasks:
    """The calling thread works its tasks with the pool's help, and never waits behind other work."""

    @pytest.mark.parametrize("cores, workers", [(1, None), (2, 1), (4, 3)])
    def test_pool_leaves_a_core_to_the_caller(self, cores, workers, monkeypatch):
        monkeypatch.setattr(_kernels, "_pool", None)
        monkeypatch.setattr(_kernels.os, "sched_getaffinity", lambda pid: set(range(cores)),
                            raising=False)
        pool = _kernels._block_pool()  # no thread starts before a task is submitted
        try:
            assert (pool and pool._max_workers) == workers
        finally:
            if pool is not None:
                pool.shutdown()

    def test_results_in_item_order_and_caller_works(self, monkeypatch):
        threads = set()

        def task(i):
            threads.add(threading.get_ident())
            time.sleep(0.002)
            return i * i

        with _RecordingPool(2) as pool:
            monkeypatch.setattr(_kernels, "_pool", pool)
            assert _kernels.map_tasks(task, range(20)) == [i * i for i in range(20)]
            assert len(pool.loops) == 2  # min(workers, tasks - 1)
        assert threading.get_ident() in threads

    def test_each_task_runs_once_under_thread_switching(self, monkeypatch):
        # more workers than cores, switching threads every microsecond: a claim
        # that two loops shared, or one that no loop made, shows in ``ran``
        ran = []
        switch = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            with ThreadPoolExecutor(8) as pool:
                monkeypatch.setattr(_kernels, "_pool", pool)
                got = _kernels.map_tasks(lambda i: ran.append(i) or 3 * i, range(2000))
        finally:
            sys.setswitchinterval(switch)
        assert got == [3 * i for i in range(2000)]
        assert sorted(ran) == list(range(2000))

    @pytest.mark.parametrize("pooled", [True, False])
    def test_first_exception_in_item_order(self, pooled, monkeypatch):
        def task(i):
            if i == 2:
                time.sleep(0.05)  # item 5 raises first in time
            if i in (2, 5):
                raise ValueError(f"item {i}")
            return i

        with ThreadPoolExecutor(8) as pool:
            monkeypatch.setattr(_kernels, "_pool", pool)
            with pytest.raises(ValueError, match="item 2"):
                _kernels.map_tasks(task, range(8), pooled=pooled)

    def test_loops_not_started_are_cancelled(self, monkeypatch):
        # the one worker is busy with other work, so the caller runs every
        # task itself and cancels the loop it handed the pool
        release = threading.Event()
        with _RecordingPool(1) as pool:
            busy = pool.submit(release.wait, 10)
            monkeypatch.setattr(_kernels, "_pool", pool)
            try:
                got = _kernels.map_tasks(lambda i: (i, threading.get_ident()), range(3))
                assert len(pool.loops) == 2 and pool.loops[1].cancelled()
            finally:
                release.set()
            assert busy.result(10)
        assert got == [(i, threading.get_ident()) for i in range(3)]

    def test_concurrent_callers_on_one_worker_both_finish(self, monkeypatch):
        # caller A's loop holds the one worker until released; caller B's loop
        # queues behind it, so B must finish its tasks itself, while A waits
        release, on_worker = threading.Event(), threading.Event()
        results = {}

        def held(i):
            if threading.current_thread() is caller_a:
                on_worker.wait(10)  # until A's loop holds the worker
            else:
                on_worker.set()
                release.wait(10)
            return i

        def call(name, task, items):
            results[name] = _kernels.map_tasks(task, items)

        caller_a = threading.Thread(target=call, args=("a", held, range(2)))
        caller_b = threading.Thread(target=call, args=("b", lambda i: i + 1, range(5)))
        with ThreadPoolExecutor(1) as pool:
            monkeypatch.setattr(_kernels, "_pool", pool)
            caller_a.start()
            try:
                assert on_worker.wait(10)
                caller_b.start()
                caller_b.join(10)
                assert not caller_b.is_alive() and results["b"] == [1, 2, 3, 4, 5]
                assert "a" not in results  # B did not wait for A's work to end
            finally:
                release.set()
                caller_a.join(10)
        assert results["a"] == [0, 1]


def test_response_layout_shapes():
    rng = np.random.default_rng(1)
    n = m = 4  # the rank of gs_r, not its length, selects the layout
    pos = rng.normal(size=(n, 3)) * 30
    elem = rng.normal(size=(m, 3))
    gs = rotation_matrices(rng.uniform(-1, 1, m), rng.uniform(-1, 1, m), rng.uniform(0, 6, m))
    uav = np.stack([np.eye(3)] * n)
    wt = np.array([1.0, 0.0])
    h_el, _ = response_batch(pos, elem, gs, uav, wt, wt)
    h_ps, _ = response_batch(pos, elem, gs[:, None], uav, wt, wt)
    # per-element and per-sample readings differ off the diagonal
    assert np.allclose(np.diag(h_el), np.diag(h_ps))
    assert not np.allclose(h_el, h_ps)
    with pytest.raises(ValueError):  # (n, 3, 3) with n != m is neither layout
        response_batch(pos[:3], elem, gs[:3], uav[:3], wt, wt)
    with pytest.raises(ValueError):
        response_batch(pos, elem, gs[:3, None], uav, wt, wt)
    # the drone takes one rotation per sample: neither a shared one nor a short stack
    for shared in (np.eye(3), uav[:1], uav[:3]):
        with pytest.raises(ValueError, match="uav_r"):
            response_batch(pos, elem, gs, shared, wt, wt)


@pytest.mark.parametrize("n, m", [(1, 1), (4, 4), (5, 3), (700, 50), (3, 9000)])
def test_common_rotation_agrees_across_layouts(n, m):
    # one rotation given per sample and the same one given per element run
    # through separate code (three-term sums and one dgemm per element)
    rng = np.random.default_rng(n * 7919 + m)
    pos = rng.normal(size=(n, 3)) * 300.0
    elem = rng.normal(size=(m, 3))
    r = _rots(rng, 1)[0]
    args = (_rots(rng, n), np.array([0.6, 0.8j]), CIRC, 0.5, 0.47)
    h_ps, d_ps = response_batch(pos, elem, np.broadcast_to(r, (n, 1, 3, 3)), *args)
    h_el, d_el = response_batch(pos, elem, np.broadcast_to(r, (m, 3, 3)), *args)
    scale = np.max(np.abs(h_el))
    assert np.max(np.abs(h_ps - h_el)) <= 1e-12 * scale
    assert np.array_equal(d_ps, d_el)


def test_singular_direction_raises():
    pos = np.array([[0.0, 0.0, 10.0]])  # on the z axis of an unrotated element
    elem = np.zeros((1, 3))
    eye = np.eye(3)[None, :, :]
    wt = np.array([1.0, 0.0])
    with pytest.raises(SingularDirectionError):
        response_batch(pos, elem, eye, eye, wt, wt)


@pytest.mark.parametrize("name", ["per_sample", "merged"])
@pytest.mark.parametrize("row", [0, -1])
def test_singular_lane_in_pooled_call_raises(name, row, monkeypatch):
    # one drone of a multi-block call moved onto the rotated z axis of an
    # element, in the first or the last block; the block's raise reaches the caller
    pos, elem, gs, *rest = kernel_layout(name)
    assert len(_row_blocks(pos.shape[0], elem.shape[0])) > 1
    l = 3
    axis = gs[row, 0, :, 2] if gs.ndim == 4 else gs[l, :, 2]
    pos = pos.copy()
    pos[row] = elem[l] + 250.0 * axis
    with ThreadPoolExecutor(2) as pool:
        monkeypatch.setattr(_kernels, "_pool", pool)
        with pytest.raises(SingularDirectionError):
            response_batch(pos, elem, gs, *rest)


def test_lane_on_drone_dipole_axis(monkeypatch, inline_kernel):
    # a drone whose rotated z axis points at an element, in the second block of
    # a multi-block call: its receive theta pattern takes its limit 0 there,
    # with no division by zero, pooled and inline
    pos, elem, gs, uav, w_tx, w_rx, ratio_tx, ratio_rx = kernel_layout("per_sample")
    assert len(_row_blocks(pos.shape[0], elem.shape[0])) > 1
    i, l = 2340, 3
    pos, elem, uav = pos.copy(), elem.copy(), uav.copy()
    uav[i] = [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]  # its z axis is the reference x
    elem[l] = [0.25, -0.5, 1.0]
    pos[i] = elem[l] - [250.0, 0.0, 0.0]  # exact, so the cosine is exactly 1
    args = (pos, elem, gs, uav, w_tx, w_rx, ratio_tx, ratio_rx)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # as pyproject sets it for every test
        with ThreadPoolExecutor(2) as pool:
            monkeypatch.setattr(_kernels, "_pool", pool)
            pooled = response_batch(*args)
        inline_kernel()
        inline = response_batch(*args)
    assert _bits(*pooled) == _bits(*inline)
    rel = pos[i] - elem[l]
    _, _, p_hat = polarization_basis(gs[i, 0].T @ rel)
    f_tx = [field_pattern(a, ratio_tx) for a in np.arccos(p_hat[[2, 1]])]
    back = -(uav[i].T @ rel) / np.linalg.norm(rel)
    f_rx = [field_pattern(a, ratio_rx) for a in np.arccos(back[[2, 1]])]
    assert back[2] == 1.0 and f_rx[0] == 0.0
    want = np.conj(w_tx) * f_tx @ t_matrix(rel, gs[i, 0], uav[i]) @ (w_rx * f_rx)
    assert abs(want) > 0.1
    assert pooled[0][i, l] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n, m, per_sample", [(327, 50, True), (256, 64, False), (2048, 8, False)])
def test_block_peak_memory(n, m, per_sample, inline_kernel, traced_peak):
    # one block of the benchmark's shapes, inline, peaks at no more than 21
    # float64 (m, rows) planes. This read 19.6, 19.4 and 20.1 planes; the
    # kernel that built each step per component read 21.0, 20.2 and 20.2
    inline_kernel()
    rng = np.random.default_rng(n + m)
    pos = rng.normal(size=(n, 3)) * 400.0
    elem = rng.normal(size=(m, 3))
    gs = _rots(rng, n)[:, None] if per_sample else _rots(rng, m)
    args = (pos, elem, gs, _rots(rng, n), CIRC, CIRC)
    assert len(_row_blocks(n, m)) == 1

    def call():
        response_batch(*args, finish=lambda h, dist, rows: None)

    call()  # first-call allocations outside the trace
    _, peak = traced_peak(call)
    plane = n * m * np.dtype(np.float64).itemsize
    assert peak <= 21 * plane, peak / plane


@pytest.mark.parametrize("m, rows", [(1, 1), (1, 2), (2, 1), (3, 5), (7, 2340), (50, 327),
                                     (64, 256), (100, 163), (8192, 2), (16384, 1)])
def test_per_sample_rotation_matches_einsum(m, rows):
    # the kernel's per-sample ground rotation keeps the bits of this einsum
    rng = np.random.default_rng(m * 100003 + rows)
    g = rng.normal(size=(rows, 3, 3))
    v = rng.normal(size=(m, rows, 3))
    for a in (g, v):  # a fifth of the inputs are signed zeros
        zero = rng.uniform(size=a.shape) < 0.2
        a[zero] = np.copysign(0.0, rng.uniform(-1.0, 1.0, size=a.shape))[zero]
    want = np.einsum("nij,lnj->lni", g, v)
    # as the kernel's block sums it: (i, 1, rows) rotation columns times (m, rows)
    # component planes, over the three components i at once, in the order j = 0, 2, 1
    coef = g.transpose(1, 2, 0)[:, :, None]
    comps = np.ascontiguousarray(v.transpose(2, 0, 1))
    got, tmp = np.empty((3, m, rows)), np.empty((3, m, rows))
    _sum3(got, tmp, [(coef[:, j], comps[j]) for j in (0, 2, 1)])
    assert np.moveaxis(got, 0, -1).tobytes() == want.tobytes()


@pytest.mark.parametrize("rotations", ["identity", "random", "signed_zeros"])
@pytest.mark.parametrize("m", [1, 8, 64, 100])
@pytest.mark.parametrize("rows", [1, 2, 327, 2048])
def test_per_element_rotation_matches_stack_form(rows, m, rotations):
    # the kernel's per-element R @ basis, over (3, rows) matrices, keeps the bits of
    # the (rows, 3) stacks times R^T that it replaced
    rng = np.random.default_rng(rows * 1009 + m)
    gs = np.tile(np.eye(3), (m, 1, 1)) if rotations == "identity" else _rots(rng, m)
    basis = rng.normal(size=(2, 3, m, rows))
    if rotations == "signed_zeros":  # a fifth of the entries on both sides
        for a in (gs, basis):
            zero = rng.uniform(size=a.shape) < 0.2
            a[zero] = np.copysign(0.0, rng.uniform(-1.0, 1.0, size=a.shape))[zero]
    stack = np.ascontiguousarray(basis.transpose(0, 2, 3, 1))
    want = np.matmul(stack, gs.swapaxes(1, 2)).transpose(0, 3, 1, 2)
    got = np.matmul(gs, basis.transpose(0, 2, 1, 3), out=np.empty((2, m, 3, rows)))
    assert got.transpose(0, 2, 1, 3).tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), m=st.integers(1, 12),
       ratio=st.one_of(st.just(0.0), st.floats(0.05, 1.5)), amp=st.floats(0.0, 1.0),
       phase=st.floats(-3.2, 3.2))
def test_polarization_loss_factor_at_most_one(seed, n, m, ratio, amp, phase):
    # |h|^2 <= n1 * n2 (Cauchy-Schwarz): the PLF never exceeds 1, before
    # channel_factor clamps it
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=(n, 3)) * rng.uniform(1.0, 500.0)
    elem = rng.normal(size=(m, 3))
    w_tx = np.array([np.sqrt(1.0 - amp * amp), amp * np.exp(1j * phase)])
    args = (pos, elem, _rots(rng, n)[:, None], _rots(rng, n), w_tx, CIRC, ratio, 0.5)
    h, _ = response_batch(*args)
    for i, l in np.ndindex(h.shape):
        n1, n2 = _lane_norms(args, i, l)
        assert abs(h[i, l]) ** 2 <= n1 * n2 * (1.0 + 1e-12), (i, l)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), m=st.integers(1, 12),
       per_sample=st.booleans(), ratio=st.floats(0.05, 1.5))
def test_coupling_power_invariant_under_scene_rotation(seed, n, m, per_sample, ratio):
    # rotating positions, elements and every antenna by one Q leaves each
    # antenna's view of the other unchanged, so |h|^2 keeps its value
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=(n, 3)) * rng.uniform(1.0, 500.0)
    elem = rng.normal(size=(m, 3))
    gs = _rots(rng, n)[:, None] if per_sample else _rots(rng, m)
    uav = _rots(rng, n)
    q = _rots(rng, 1)[0]
    args = (np.array([0.6, 0.8j]), CIRC, ratio, 0.5)
    h, _ = response_batch(pos, elem, gs, uav, *args)
    h_q, _ = response_batch(pos @ q.T, elem @ q.T, q @ gs, q @ uav, *args)
    p, p_q = np.abs(h) ** 2, np.abs(h_q) ** 2
    assert np.all(np.abs(p_q - p) <= 1e-12 * np.max(p))
