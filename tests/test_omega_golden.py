"""``omega`` pinned to the last bit.

Two checks: fixed values for shapes the experiments use, and equality with a
reference loop that makes one ``cd_of_b`` call per (dp, dq) offset. A change
to the pair sum, the shell moments or the sine and cosine integrals that
moves any of their bits fails here. The fixed values are ``float.hex`` of
``omega``; five of the line-array values (ratios 1.1, 1.37, 2.05, 2.2 and
2.6) were re-recorded when each Si/Ci lane came to stop its continued
fraction on its own, which moved them by at most 1.2e-13 relative.
"""

import math

import numpy as np
import pytest

from swarm_mimo_sim import geometry as geo
from swarm_mimo_sim import rates

LAM = geo.wavelength(2.4e9)

# (m_x, m_y, delta_x / lambda, delta_y / lambda, shell or None for the surface limit)
GOLDEN = [
    *(
        ((50, 1, ratio, 0.0, (499.0, 500.0)), value)
        for ratio, value in (
            (0.05, "0x1.8f44a6d64c733p+8"),
            (0.3, "0x1.f9b828191fad6p+4"),
            (0.5, "0x0.0p+0"),
            (0.77, "0x1.3e48a4148a5cap+2"),
            (1.0, "0x0.0p+0"),
            (1.1, "0x1.88db7f8d68719p+0"),
            (1.37, "0x1.33c365d8045e5p+0"),
            (1.5, "0x0.0p+0"),
            (2.05, "0x1.e66fece79aa2ap-3"),
            (2.2, "0x1.2cec82e324d00p-1"),
            (2.6, "0x1.1946c7e16e2a7p-2"),
            (3.0, "0x0.0p+0"),
        )
    ),
    ((50, 1, 0.3, 0.0, (20.0, 500.0)), "0x1.f9ab991199968p+4"),
    ((16, 16, 0.3, 0.4, (499.0, 500.0)), "0x1.7e0ba9c13932dp+8"),
    ((8, 1, 0.3, 0.0, (100.0, 500.0)), "0x1.07e42b0a3e41bp+2"),
    ((4, 3, 0.21, 0.4, (50.0, 300.0)), "0x1.99af7ba737c31p+3"),
    ((16, 16, 0.3, 0.4, None), "0x1.7e0ba9c151c26p+8"),
    ((5, 5, 2.5, 2.5, None), "0x1.affb5a9ed4999p-5"),
    ((50, 1, 0.3, 0.0, None), "0x1.f9b82819918e2p+4"),
]


def _case_id(case):
    m_x, m_y, rx, ry, shell = case
    return f"{m_x}x{m_y}-{rx}-{ry}-" + ("surface" if shell is None else "%g-%g" % shell)


@pytest.mark.parametrize("case, expected", GOLDEN, ids=[_case_id(c) for c, _ in GOLDEN])
def test_omega_bits(case, expected):
    m_x, m_y, rx, ry, shell = case
    g = geo.ArrayGeometry(m_x, m_y, rx * LAM, ry * LAM)
    if shell is None:
        value = rates.omega_surface(g, LAM)
    else:
        value = rates.omega(g, LAM, geo.ShellRegion(*shell))
    assert float(value).hex() == expected


def _omega_per_offset(geometry, lam, cd_of_b):
    "Reference pair sum: one cd_of_b call per (dp, dq) offset, summed with sum()."
    mx, my = geometry.m_x, geometry.m_y
    dx2, dy2 = geometry.delta_x**2, geometry.delta_y**2
    scale = math.pi / lam
    cache = {}
    total = 0.0
    for dp in range(-(mx - 1), mx):
        px = rates._offset_products(mx, dp)
        for dq in range(-(my - 1), my):
            w = rates.expected_phase_sinc(dp, dq, geometry, lam) ** 2
            if (dp == 0 and dq == 0) or w < 1e-30:
                continue
            keys = [(int(p), int(q)) for p in px for q in rates._offset_products(my, dq)]
            missing = sorted({k for k in keys if k not in cache})
            if missing:
                b = np.array([scale * (p * dx2 + q * dy2) for p, q in missing])
                cache.update(zip(missing, cd_of_b(b)))
            total += w * sum(cache[k] for k in keys)
    return total


def _check_against_reference(m_x, m_y, rx, ry, shell):
    g = geo.ArrayGeometry(m_x, m_y, rx * LAM, ry * LAM)
    region = geo.ShellRegion(*shell)

    def cd_of_b(b):
        c, d = rates.cb_db(b, region)
        return c**2 + d**2

    assert rates.omega(g, LAM, region).hex() == _omega_per_offset(g, LAM, cd_of_b).hex()
    assert rates.omega_surface(g, LAM).hex() == _omega_per_offset(g, LAM, np.ones_like).hex()


@pytest.mark.parametrize("m_x, m_y, rx, ry, shell", [
    (50, 1, 1.1, 0.0, (499.0, 500.0)),
    (8, 4, 0.37, 0.61, (30.0, 400.0)),
    (12, 7, 1.13, 0.29, (50.0, 60.0)),
    (3, 9, 0.8, 0.45, (10.0, 11.0)),
    # the benchmark's spacing sweep; at ratio 3.0 every weight is cut off
    *((50, 1, rx, 0.0, (499.0, 500.0)) for rx in np.linspace(0.05, 3.0, 20).tolist()),
])
def test_omega_matches_per_offset_reference(m_x, m_y, rx, ry, shell):
    _check_against_reference(m_x, m_y, rx, ry, shell)


def _distinct_products(m_x, m_y, rx, ry):
    "Distinct index products (p, q) of the element pairs that omega keeps."
    g = geo.ArrayGeometry(m_x, m_y, rx * LAM, ry * LAM)
    offsets, _ = rates._kept_offsets(g, LAM)
    return len({
        (p, q)
        for a, b in offsets
        for p in rates._offset_products(m_x, a).tolist()
        for q in rates._offset_products(m_y, b).tolist()
    })


@pytest.mark.parametrize("m_x, m_y, rx, ry, shell", [
    (16, 16, 0.3, 0.4, (499.0, 500.0)),  # nine cb_db calls
    (12, 12, 0.37, 0.61, (500.0 - 1e-5, 500.0)),  # thin enough for the surface-limit moments
])
def test_omega_over_several_cb_db_chunks(m_x, m_y, rx, ry, shell):
    assert _distinct_products(m_x, m_y, rx, ry) > rates._CHUNK_LANES
    _check_against_reference(m_x, m_y, rx, ry, shell)


def test_merged_endpoints_match_separate_calls():
    "_cd_shell's one Si/Ci call gives each endpoint, and each lane, the bits of its own call."
    from swarm_mimo_sim._kernels import si_ci_arrays

    rng = np.random.default_rng(11)
    r_min, r_max = 30.0, 400.0
    b = np.concatenate([rng.uniform(1.0, 5e3, 40), [0.5, 900.0, 7321.25]])

    def endpoint(r):
        s, c_int = si_ci_arrays(b / r)
        cosv, sinv = np.cos(b / r), np.sin(b / r)
        f = (2.0 * r * r - b * b) * r * cosv - b * r * r * sinv - b**3 * s
        g = (2.0 * r * r - b * b) * r * sinv + b * r * r * cosv + b**3 * c_int
        return f, g

    (f_hi, g_hi), (f_lo, g_lo) = endpoint(r_max), endpoint(r_min)
    norm = 2.0 * (r_max**3 - r_min**3)
    want = ((f_hi - f_lo) / norm, (g_hi - g_lo) / norm)
    got = rates._cd_shell(b, r_min, r_max)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    # random lane sets, and the last three lanes each on its own
    ids = np.concatenate([rng.integers(0, 4, 40), [7, 8, 9]])
    for g in np.unique(ids):
        lanes = ids == g
        alone = rates._cd_shell(b[lanes], r_min, r_max)
        assert [a.tobytes() for a in alone] == [a[lanes].tobytes() for a in got]


# tracemalloc peak of one 16x16 omega (shell 499-500 m), recorded with numpy 2.4
# before the offset passes were built from arrays: omega's pair codes, their
# distinct products and the per-offset sums must not raise it by more than 256 KiB
OMEGA_16X16_PEAK_BYTES = 3_259_227


def test_omega_16x16_peak_memory(traced_peak):
    g = geo.ArrayGeometry(16, 16, 0.3 * LAM, 0.4 * LAM)
    region = geo.ShellRegion(499.0, 500.0)
    rates.omega(g, LAM, region)  # warm up caches and imports
    _, peak = traced_peak(lambda: rates.omega(g, LAM, region))
    assert peak <= OMEGA_16X16_PEAK_BYTES + 256 * 1024


def test_omega_surface_40x40_counts_pairs(traced_peak):
    # the far-sphere limit weighs each offset's pair count, with no per-pair
    # array: a sum over per-pair terms needs about 120 MiB here
    g = geo.ArrayGeometry(40, 40, 0.3 * LAM, 0.4 * LAM)
    value, peak = traced_peak(lambda: rates.omega_surface(g, LAM))
    assert float(value).hex() == "0x1.9f81a4e2074e3p+11"
    assert peak < 4 * 2**20


@pytest.mark.parametrize("m_x, m_y", [(500, 1), (24, 24)])
def test_omega_bytes_match_the_traced_peak(m_x, m_y, traced_peak):
    # the config guard prices omega with omega_bytes; this read 50.1 and 49.6 bytes
    # an ordered pair
    g = geo.ArrayGeometry(m_x, m_y, 0.3 * LAM, 0.4 * LAM)
    region = geo.ShellRegion(600.0, 900.0)
    rates.omega(geo.ArrayGeometry(4, 1, 0.3 * LAM, 0.0), LAM, region)  # warm up
    _, peak = traced_peak(lambda: rates.omega(g, LAM, region))
    assert 0.9 <= peak / rates.omega_bytes(g.m) <= 1.1, peak / (g.m * (g.m - 1))
