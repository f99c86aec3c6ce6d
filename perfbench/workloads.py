"""The benchmark's workloads: which package calls each one makes, on what inputs.

A workload is an ordered list of operations. An operation is one CLI
experiment (``cli.run_experiment`` on a generated INI config) or one library
call. It builds its inputs from the workload seed and returns its outputs as
named byte strings ("artifacts"), so that the runner can digest them and
compare iterations byte for byte. ``small=True`` runs the same call on a tiny
input; the runner uses it to warm every code path up before timing.

Configs are kept here rather than read from the package presets, so that an
edit to a preset does not silently change what the benchmark measures. Sizes
are chosen so that one iteration of each workload takes a few seconds at the
commit that added the benchmark (2 cores, numpy backend): a run then holds
several iterations, and their median is steady on a shared machine.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from swarm_mimo_sim import cli
from swarm_mimo_sim import geometry as geo
from swarm_mimo_sim import montecarlo as mc
from swarm_mimo_sim import polarization as pol
from swarm_mimo_sim import rates

F_C = 2.4e9
LAM = geo.wavelength(F_C)

# The package presets, except that the spacing sweep has 20 ratios, not 60.
CONFIGS = {
    "spacing-sweep": {
        "array": {"m_x": 50, "m_y": 1},
        "shell": {"r_min_m": 499.0, "r_max_m": 500.0},
        "sweep": {"ratio_start": 0.05, "ratio_stop": 3.0, "ratio_points": 20,
                  "two_dimensional": "false"},
        "rf": {"f_c_hz": F_C},
    },
    "rate-curve": {
        "array": {"m_values": "1:256"},
        "rate": {"k_values": "20,50,100", "rho_u_db": 0.0, "rho_p_db": 10.0,
                 "kappa_chi_wc": 1.0, "q_target_mbps": 20.0},
        "coherence": {"f_c_hz": F_C, "bandwidth_hz": 20e6, "b_c_hz": 3e6,
                      "v_max_mps": 20.0, "tau_dl_frac": 0.125},
    },
    "tables": {
        "tables": {"rho_u_db": 10.0, "rho_p_db": 20.0, "kappa_chi_wc": 1.0,
                   "bandwidth_hz": 20e6, "b_c_hz": 3e6, "f_c_hz": F_C, "k": 20},
    },
    "mission-sim": {
        "area": {"x1_m": -1000.0, "x2_m": 2000.0, "y1_m": 2000.0, "y2_m": 6000.0},
        "fleet": {"k": 20, "speed_mps": 30.0, "gsd_m": 0.05, "altitude_m": 100.0},
        "camera": {"r_px": 1496, "r_py": 2664, "bits_per_pixel": 24,
                   "overlap_front": 0.7, "overlap_side": 0.6, "compression": 1.0},
        "array": {"m_x": 100, "spacing_x_wavelengths": 0.5},
        "rf": {"rho_u_db": 10.0, "rho_p_db": 20.0, "chi_wc_db": -10.0, "f_c_hz": F_C,
               "bandwidth_hz": 20e6, "b_c_hz": 3e6, "tau_dl_frac": 0.125},
        "sim": {"step_s": 1.0, "duration_s": 100.0, "csi": "estimated"},
    },
    "gain-cdf": {
        "array": {"m_x": 50, "m_y": 1, "spacing_x_wavelengths": 0.5},
        "shell": {"r_min_m": 20.0, "r_max_m": 500.0},
        "antenna": {"excitation": "circular", "gs_orientation": "identical",
                    "pattern": "dipole"},
        "mc": {"n": 100_000, "threshold_db_min": -40.0, "threshold_db_max": 25.0,
               "threshold_db_step": 0.5},
        "rf": {"f_c_hz": F_C},
    },
    "validate": {
        "array": {"m_x": 8, "m_y": 1, "spacing_x_wavelengths": 0.3,
                  "spacing_y_wavelengths": 0.0},
        "shell": {"r_min_m": 100.0, "r_max_m": 500.0},
        "mc": {"n_pairs": 100_000, "n_moment": 100_000},
        "rf": {"f_c_hz": F_C, "rho_u_db": 0.0},
    },
}

# Overrides that shrink each config to a warm-up run of a few milliseconds.
SMALL = {
    "spacing-sweep": {"sweep": {"ratio_points": 2}},
    "rate-curve": {"array": {"m_values": "1:4"}},
    "tables": {},
    "mission-sim": {"sim": {"duration_s": 2.0}},
    "gain-cdf": {"mc": {"n": 100}},
    "validate": {"mc": {"n_pairs": 1000, "n_moment": 1000}},
}


def config_text(kind: str, small: bool = False) -> str:
    "INI text for experiment ``kind``, optionally shrunk for warm-up."
    sections = {name: dict(keys) for name, keys in CONFIGS[kind].items()}
    if small:
        for name, keys in SMALL[kind].items():
            sections[name].update(keys)
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
        for name, keys in sections.items()
    )


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    ``run(out_dir, small)`` returns the artifacts; ``check(artifacts)`` returns
    the invariant violations found in them (empty when the output is sound).
    ``metric`` names the end-to-end time reported for this operation, if any.
    """

    name: str
    run: Callable[[Path, bool], dict[str, bytes]]
    check: Callable[[dict[str, bytes]], list[str]]
    metric: str | None = None
    config: str | None = None


# ---------------------------------------------------------------------------
# invariant checks
# ---------------------------------------------------------------------------


def csv_table(data: bytes) -> tuple[list[str], np.ndarray]:
    "Header and float rows of a package CSV (the leading comment line skipped)."
    lines = data.decode().splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in body[1:]])
    return header, rows.reshape(len(body) - 1, len(header))


def _finite_csvs(arts: dict[str, bytes]) -> list[str]:
    return [
        f"{name}: non-finite value"
        for name, data in arts.items()
        if name.endswith(".csv") and not np.all(np.isfinite(csv_table(data)[1]))
    ]


def _check_gain_cdf(arts: dict[str, bytes]) -> list[str]:
    problems = _finite_csvs(arts)
    header, rows = csv_table(arts["gain_cdf.csv"])
    cdf = rows[:, header.index("cdf")]
    if np.any(np.diff(cdf) < 0):
        problems.append("gain_cdf.csv: cdf decreases")
    if cdf.size and (cdf.min() < 0.0 or cdf.max() > 1.0):
        problems.append("gain_cdf.csv: cdf outside [0, 1]")
    return problems


def _check_mission(arts: dict[str, bytes]) -> list[str]:
    problems = _finite_csvs(arts)
    header, rows = csv_table(arts["mission.csv"])
    if rows.shape[0] == 0:
        problems.append("mission.csv: no rows")
    elif not np.all(rows[:, header.index("power_w")] > 0.0):
        problems.append("mission.csv: power_w not > 0")
    return problems


def _check_scalars(arts: dict[str, bytes]) -> list[str]:
    values = [float.fromhex(v) for data in arts.values()
              for v in data.decode().split(",")]
    return [] if all(math.isfinite(v) for v in values) else ["non-finite result"]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _read_artifacts(out_dir: Path, written: list[str]) -> dict[str, bytes]:
    arts = {}
    for name in written:
        data = (out_dir / name).read_bytes()
        if name.endswith("_summary.json"):
            # the summary records its own wall clock; everything else is output
            payload = json.loads(data)
            payload.pop("wall_clock_s", None)
            data = json.dumps(payload, sort_keys=True).encode()
        arts[name] = data
    return arts


def _experiment(kind: str, seed: int, check, metric=None) -> Op:
    name = kind.replace("-", "_")

    def run(out_dir: Path, small: bool = False) -> dict[str, bytes]:
        target = out_dir / name
        written = cli.run_experiment(kind, config_text(kind, small), seed, target)
        return _read_artifacts(target, written)

    return Op(name, run, check, metric, kind)


def _hex(*values: float) -> bytes:
    return ",".join(float(v).hex() for v in values).encode()


def _omega_ura(seed: int) -> Op:
    def run(out_dir: Path, small: bool = False) -> dict[str, bytes]:
        m = 2 if small else 16
        geom = geo.ArrayGeometry(m, m, 0.3 * LAM, 0.4 * LAM)
        return {"omega": _hex(rates.omega(geom, LAM, geo.ShellRegion(499.0, 500.0)))}

    return Op("omega_ura", run, _check_scalars)


def _ergodic_rate(seed: int) -> Op:
    spec = mc.ScenarioSpec(
        geometry=geo.ArrayGeometry(64, 1, LAM / 2, 0.0),
        region=geo.ShellRegion(20.0, 500.0),
        k=20,
        gs_orientation="pseudo-random",
        orientation_seed=3,
    )

    def run(out_dir: Path, small: bool = False) -> dict[str, bytes]:
        res = mc.estimate_ergodic_rate(spec, 2 if small else 1000, seed,
                                       receiver="mrc", csi="estimated")
        return {"rate": _hex(res.mean, res.stderr, res.n)}

    return Op("ergodic_rate", run, _check_scalars, "ergodic_rate_s")


def _worst_case_gain(seed: int) -> Op:
    rng = np.random.default_rng(0)
    cfgs = [pol.AntennaConfig(pol.DipoleExcitation.circular(), geo.sample_orientation(rng))
            for _ in range(50)]

    def run(out_dir: Path, small: bool = False) -> dict[str, bytes]:
        # No Nelder-Mead refinement: its number of objective calls depends on
        # the seed, which would make this operation's work differ by seed.
        value = pol.worst_case_gain(cfgs, F_C, budget=4 if small else 300, seed=seed,
                                    refine_top=0)
        return {"chi": _hex(value)}

    return Op("worst_case_gain", run, _check_scalars, "worst_case_gain_s")


def build(workload: str, seed: int) -> list[Op]:
    "The operations of ``workload``, in the order they run, for ``seed``."
    if workload == "design":
        return [
            _experiment("spacing-sweep", seed, _finite_csvs, "spacing_sweep_s"),
            _experiment("rate-curve", seed, _finite_csvs),
            _experiment("tables", seed, _finite_csvs),
            _omega_ura(seed),
        ]
    if workload == "mission":
        return [_experiment("mission-sim", seed, _check_mission, "mission_sim_s")]
    if workload == "montecarlo":
        return [
            _experiment("gain-cdf", seed, _check_gain_cdf, "gain_cdf_s"),
            _experiment("validate", seed, _finite_csvs, "validate_s"),
            _ergodic_rate(seed),
            _worst_case_gain(seed),
        ]
    raise ValueError(f"unknown workload {workload!r}")
