"""Config-driven experiment harness.

``swarm-mimo-sim <experiment> --config file.ini [--seed N] [--out DIR]``
parses an INI config against the experiment's schema, runs the simulation,
and writes a CSV artifact plus a JSON summary. All dB-valued keys are
converted to linear units here, at the boundary; every module below works in
linear units. Outputs are deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import geometry as geo
from . import mission as msn
from . import montecarlo as mc
from . import rates
from . import spacing
from .channel import CoherenceParams, coherence_prelog
from .errors import ConfigError, SwarmMimoError

_DB_RANGE = (-60.0, 80.0)


@dataclass(frozen=True)
class Key:
    """One config key: type, default (None = required), constraint, help."""

    typ: type
    default: object = None
    lo: float | None = None
    hi: float | None = None
    choices: tuple | None = None
    help: str = ""


def _db(help_text: str, default=None) -> Key:
    return Key(float, default, _DB_RANGE[0], _DB_RANGE[1], None, help_text + " (dB)")


_COHERENCE_KEYS = {
    "f_c_hz": Key(float, 2.4e9, 1e6, 1e12, help="carrier frequency"),
    "bandwidth_hz": Key(float, 20e6, 1e3, 1e10, help="system bandwidth"),
    "b_c_hz": Key(float, 3e6, 1e3, 1e10, help="coherence bandwidth"),
    "v_max_mps": Key(float, 20.0, 0.0, 500.0, help="maximum drone speed"),
    "tau_dl_frac": Key(float, 0.125, 0.0, 0.99, help="downlink share of the interval"),
}

SCHEMAS: dict[str, dict[str, dict[str, Key]]] = {
    "rate-curve": {
        "array": {
            "m_values": Key(str, "1:512", help="element counts, comma list or start:stop"),
        },
        "rate": {
            "k_values": Key(str, "20,50,100", help="drone counts, comma list"),
            "rho_u_db": _db("data SNR target", 0.0),
            "rho_p_db": _db("pilot SNR target", 10.0),
            "kappa_chi_wc": Key(float, 1.0, 0.0, 1.0, help="kappa times chi_wc"),
            "q_target_mbps": Key(float, 20.0, 0.0, 1e5, help="per-drone target throughput"),
        },
        "coherence": dict(_COHERENCE_KEYS),
    },
    "spacing-sweep": {
        "array": {
            "m_x": Key(int, 50, 1, 10_000, help="elements along x"),
            "m_y": Key(int, 1, 1, 10_000, help="elements along y"),
        },
        "shell": {
            "r_min_m": Key(float, 499.0, 0.1, 1e6, help="shell inner radius"),
            "r_max_m": Key(float, 500.0, 0.1, 1e6, help="shell outer radius"),
        },
        "sweep": {
            "ratio_start": Key(float, 0.05, 1e-3, 1e3, help="first spacing/wavelength"),
            "ratio_stop": Key(float, 3.0, 1e-3, 1e3, help="last spacing/wavelength"),
            "ratio_points": Key(int, 60, 1, 100_000, help="grid points"),
            "two_dimensional": Key(bool, False, help="sweep delta_y as well"),
        },
        "rf": {"f_c_hz": Key(float, 2.4e9, 1e6, 1e12, help="carrier frequency")},
    },
    "gain-cdf": {
        "array": {
            "m_x": Key(int, 50, 1, 10_000, help="elements along x"),
            "m_y": Key(int, 1, 1, 10_000, help="elements along y"),
            "spacing_x_wavelengths": Key(float, 0.5, 0.01, 100.0, help="x spacing over wavelength"),
        },
        "shell": {
            "r_min_m": Key(float, 20.0, 0.1, 1e6, help="shell inner radius"),
            "r_max_m": Key(float, 500.0, 0.1, 1e6, help="shell outer radius"),
        },
        "antenna": {
            "excitation": Key(str, "circular", choices=("circular", "linear"), help="feed type"),
            "gs_orientation": Key(
                str, "identical", choices=("fixed", "identical", "pseudo-random"),
                help="array element orientations",
            ),
            "pattern": Key(str, "dipole", choices=("dipole", "isotropic", "unit"), help="element pattern"),
        },
        "mc": {
            "n": Key(int, 100_000, 100, 100_000_000, help="sample count"),
            "threshold_db_min": Key(float, -40.0, -100.0, 100.0, help="lowest CDF threshold"),
            "threshold_db_max": Key(float, 25.0, -100.0, 100.0, help="highest CDF threshold"),
            "threshold_db_step": Key(float, 0.5, 0.01, 10.0, help="threshold spacing"),
        },
        "rf": {"f_c_hz": Key(float, 2.4e9, 1e6, 1e12, help="carrier frequency")},
    },
    "mission-sim": {
        "area": {
            "x1_m": Key(float, -1000.0, -1e6, 1e6, help="west bound"),
            "x2_m": Key(float, 2000.0, -1e6, 1e6, help="east bound"),
            "y1_m": Key(float, 2000.0, -1e6, 1e6, help="south bound"),
            "y2_m": Key(float, 6000.0, -1e6, 1e6, help="north bound"),
        },
        "fleet": {
            "k": Key(int, 20, 1, 1000, help="drone count"),
            "speed_mps": Key(float, 30.0, 0.1, 200.0, help="cruise speed"),
            "gsd_m": Key(float, 0.05, 1e-3, 10.0, help="ground sampling distance"),
            "altitude_m": Key(float, 100.0, 1.0, 10_000.0, help="flight altitude"),
        },
        "camera": {
            "r_px": Key(int, 1496, 1, 100_000, help="short sensor dimension"),
            "r_py": Key(int, 2664, 2, 100_000, help="long sensor dimension"),
            "bits_per_pixel": Key(int, 24, 1, 64, help="bits per pixel"),
            "overlap_front": Key(float, 0.7, 0.0, 0.99, help="front overlap fraction"),
            "overlap_side": Key(float, 0.6, 0.0, 0.99, help="side overlap fraction"),
            "compression": Key(float, 1.0, 1.0, 10_000.0, help="compression ratio"),
        },
        "array": {
            "m_x": Key(int, 100, 1, 10_000, help="elements along x"),
            "spacing_x_wavelengths": Key(float, 0.5, 0.01, 100.0, help="x spacing over wavelength"),
        },
        "rf": {
            "rho_u_db": _db("data SNR target", 10.0),
            "rho_p_db": _db("pilot SNR target", 20.0),
            "chi_wc_db": _db("worst-case mean gain", -10.0),
            "f_c_hz": Key(float, 2.4e9, 1e6, 1e12, help="carrier frequency"),
            "bandwidth_hz": Key(float, 20e6, 1e3, 1e10, help="system bandwidth"),
            "b_c_hz": Key(float, 3e6, 1e3, 1e10, help="coherence bandwidth"),
            "tau_dl_frac": Key(float, 0.125, 0.0, 0.99, help="downlink share"),
        },
        "sim": {
            "step_s": Key(float, 1.0, 1e-3, 3600.0, help="sampling interval"),
            "duration_s": Key(float, 0.0, 0.0, 1e6, help="0 = full mission"),
            "csi": Key(str, "estimated", choices=("estimated", "perfect"), help="receiver knowledge"),
        },
    },
    "validate": {
        "array": {
            "m_x": Key(int, 8, 1, 256, help="elements along x"),
            "m_y": Key(int, 1, 1, 256, help="elements along y"),
            "spacing_x_wavelengths": Key(float, 0.3, 0.01, 100.0, help="x spacing over wavelength"),
            "spacing_y_wavelengths": Key(float, 0.0, 0.0, 100.0, help="y spacing over wavelength"),
        },
        "shell": {
            "r_min_m": Key(float, 100.0, 0.1, 1e6, help="shell inner radius"),
            "r_max_m": Key(float, 500.0, 0.1, 1e6, help="shell outer radius"),
        },
        "mc": {
            "n_pairs": Key(int, 100_000, 1000, 10_000_000, help="phase-moment samples"),
            "n_moment": Key(int, 100_000, 1000, 10_000_000, help="interference-moment samples"),
        },
        "rf": {
            "f_c_hz": Key(float, 2.4e9, 1e6, 1e12, help="carrier frequency"),
            "rho_u_db": _db("data SNR target", 0.0),
        },
    },
    "tables": {
        "tables": {
            "rho_u_db": _db("data SNR target", 10.0),
            "rho_p_db": _db("pilot SNR target", 20.0),
            "kappa_chi_wc": Key(float, 1.0, 0.0, 1.0, help="kappa times chi_wc"),
            "bandwidth_hz": Key(float, 20e6, 1e3, 1e10, help="system bandwidth"),
            "b_c_hz": Key(float, 3e6, 1e3, 1e10, help="coherence bandwidth"),
            "f_c_hz": Key(float, 2.4e9, 1e6, 1e12, help="carrier frequency"),
            "k": Key(int, 20, 1, 1000, help="drone count"),
        },
    },
}


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _coerce(raw: str, key: Key, name: str):
    try:
        if key.typ is bool:
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return key.typ(raw)
    except ValueError as exc:
        raise ConfigError(f"{name}: cannot parse {raw!r} as {key.typ.__name__}") from exc


def _check(value, key: Key, name: str):
    if key.choices is not None and value not in key.choices:
        raise ConfigError(f"{name}: {value!r} not one of {key.choices}")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if not math.isfinite(value):
            raise ConfigError(f"{name}: value must be finite")
        if key.lo is not None and value < key.lo or key.hi is not None and value > key.hi:
            raise ConfigError(f"{name}: {value} outside legal range [{key.lo}, {key.hi}]")
    return value


# Cost guards, checked after the per-key ranges: keys that are each in range
# can still ask together for more work or memory than a run can have.
_MAX_BUFFER_BYTES = 256 * 2**20  # the largest single array an experiment may allocate
# omega evaluations times ordered element pairs in one spacing sweep; a pair
# term costs about 1-10 us (16x16 and line arrays of 50-1000 elements)
_MAX_PAIR_TERMS = 10**9
# (k, m) rows of one rate curve; the shipped preset makes 768
_MAX_RATE_ROWS = 10**6


def _check_buffer(name: str, what: str, nbytes: int):
    if nbytes > _MAX_BUFFER_BYTES:
        raise ConfigError(
            f"{name}: {what} needs a {nbytes / 2**20:.0f} MiB array; "
            f"the limit is {_MAX_BUFFER_BYTES / 2**20:.0f} MiB"
        )


def _check_cost(cfg: dict, kind: str):
    "Reject a parsed config whose work or largest array is out of reach."
    if kind == "rate-curve":
        rows = (len(_parse_int_list(str(cfg["array.m_values"]), "array.m_values"))
                * len(_parse_int_list(str(cfg["rate.k_values"]), "rate.k_values")))
        if rows > _MAX_RATE_ROWS:
            raise ConfigError(
                f"array.m_values * rate.k_values: {rows} rate-curve rows; "
                f"the limit is {_MAX_RATE_ROWS:.0e}"
            )
        return
    if kind == "mission-sim":
        # run_mission fills one record per drone and time step up front
        step = cfg["sim.step_s"]
        duration = cfg["sim.duration_s"] or msn.mission_time(_mission_spec(cfg))
        rows = math.ceil((duration + 0.5 * step) / step) * cfg["fleet.k"]
        _check_buffer("sim.duration_s / sim.step_s * fleet.k", f"{rows} mission records",
                      rows * msn.RECORD_DTYPE.itemsize)
        return
    if kind not in ("spacing-sweep", "gain-cdf", "validate"):
        return
    m = cfg["array.m_x"] * cfg["array.m_y"]
    if kind == "validate" and m < 2:
        raise ConfigError(f"array.m_x * array.m_y: validate compares element pairs, "
                          f"which {m} element does not have")
    if kind == "spacing-sweep":
        # omega holds one integer code per ordered element pair
        _check_buffer("array.m_x * array.m_y", f"omega over {m} elements", 8 * m * m)
        points = cfg["sweep.ratio_points"] ** (2 if cfg["sweep.two_dimensional"] else 1)
        terms = points * m * m
        if terms > _MAX_PAIR_TERMS:
            raise ConfigError(
                f"sweep.ratio_points: {points} omega evaluations over {m} elements "
                f"make {terms:.3g} pair terms; the limit is {_MAX_PAIR_TERMS:.0e}"
            )
        return
    # the estimators hold one complex channel entry per element and sample of a chunk
    _check_buffer("array.m_x * array.m_y", f"a {mc.CHUNK}-sample chunk of {m} elements",
                  16 * mc.CHUNK * m)
    if kind == "gain-cdf":  # the median needs every sample's summed gain
        _check_buffer("mc.n", f"{cfg['mc.n']} samples", 8 * cfg["mc.n"])
        if cfg["array.m_y"] > 1:  # the scenario has no y spacing: rows would stack
            raise ConfigError("array.m_y: gain-cdf takes a line array, m_y = 1")
        if cfg["mc.threshold_db_min"] >= cfg["mc.threshold_db_max"]:
            raise ConfigError("mc.threshold_db_min: must lie below mc.threshold_db_max, "
                              "or the CDF has no thresholds")
    # the channel and omega refuse drones inside the array, but only after sampling
    aperture = _array_geometry(cfg).aperture()
    if cfg["shell.r_min_m"] <= aperture:
        raise ConfigError(f"shell.r_min_m: {cfg['shell.r_min_m']} m does not exceed "
                          f"the array aperture, {aperture:.3f} m")


def parse_config(text: str, kind: str) -> dict:
    """Validate INI ``text`` against the schema of experiment ``kind``.

    Returns a flat ``{section.key: value}`` mapping with defaults applied.
    Unknown sections or keys, type mismatches, range violations, and configs
    whose work or largest array is out of reach raise :class:`ConfigError`
    naming the offending key.
    """
    if kind not in SCHEMAS:
        raise ConfigError(f"unknown experiment kind {kind!r}; choose from {sorted(SCHEMAS)}")
    schema = SCHEMAS[kind]
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    out: dict[str, object] = {}
    for section in parser.sections():
        if section not in schema:
            raise ConfigError(
                f"unknown section [{section}] for {kind}; expected {sorted(schema)}"
            )
        for key_name, raw in parser.items(section):
            if key_name not in schema[section]:
                raise ConfigError(
                    f"unknown key {section}.{key_name}; "
                    f"legal keys: {sorted(schema[section])}"
                )
            spec = schema[section][key_name]
            name = f"{section}.{key_name}"
            out[name] = _check(_coerce(raw, spec, name), spec, name)
    for section, keys in schema.items():
        for key_name, spec in keys.items():
            name = f"{section}.{key_name}"
            if name not in out:
                if spec.default is None:
                    raise ConfigError(f"missing required key {name}")
                out[name] = spec.default
    _check_cost(out, kind)
    return out


def _parse_int_list(raw: str, name: str) -> range | list[int]:
    """Comma list or inclusive ``start:stop`` of counts >= 1, at least one.

    A range comes back as a ``range``, whose length costs nothing.
    """
    raw = raw.strip()
    try:
        if ":" in raw:
            start, stop = raw.split(":")
            values = range(int(start), int(stop) + 1)
            lowest = values.start
        else:
            values = [int(tok) for tok in raw.split(",") if tok.strip()]
            lowest = min(values, default=0)
    except ValueError as exc:
        raise ConfigError(f"{name}: expected comma list or start:stop, got {raw!r}") from exc
    if not values or lowest < 1:
        raise ConfigError(f"{name}: expected one or more counts >= 1, got {raw!r}")
    return values


def _linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header: list[str], rows, seed: int, cfg_hash: str):
    lines = [f"# schema=v1 seed={seed} config_sha256={cfg_hash}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def _write_summary(path: Path, kind: str, cfg: dict, seed: int, extra: dict, started: float):
    payload = {
        "experiment": kind,
        "version": f"swarm-mimo-sim-{__version__}",
        "seed": seed,
        "parameters": {k: cfg[k] for k in sorted(cfg)},
        "wall_clock_s": round(time.monotonic() - started, 3),
    }
    payload.update(extra)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _run_rate_curve(cfg, seed, out_dir, cfg_hash, started):
    m_values = _parse_int_list(str(cfg["array.m_values"]), "array.m_values")
    k_values = _parse_int_list(str(cfg["rate.k_values"]), "rate.k_values")
    rho_u = _linear(cfg["rate.rho_u_db"])
    rho_p = _linear(cfg["rate.rho_p_db"])
    kcw = cfg["rate.kappa_chi_wc"]
    band = cfg["coherence.bandwidth_hz"]
    coh = CoherenceParams(
        f_c=cfg["coherence.f_c_hz"],
        bandwidth=band,
        b_c=cfg["coherence.b_c_hz"],
        v_max=cfg["coherence.v_max_mps"],
        tau_dl_frac=cfg["coherence.tau_dl_frac"],
    )
    lam_carrier = geo.wavelength(cfg["coherence.f_c_hz"])
    rows = []
    m_req = {}
    for k in k_values:
        _, prelog = coherence_prelog(coh, k)
        params = rates.RateParams(
            geometry=geo.ArrayGeometry(1, 1, 0.0, 0.0),
            region=geo.ShellRegion(1.0, 1.0),
            lam=lam_carrier,
            k=k,
            rho_u=rho_u,
            rho_p=rho_p,
            prelog=prelog,
            kappa=kcw,
            chi_wc=1.0,
        )
        for m in m_values:
            geom = geo.ArrayGeometry(m, 1, lam_carrier / 2.0, 0.0)
            p = rates.RateParams(
                geometry=geom, region=params.region, lam=lam_carrier, k=k,
                rho_u=rho_u, rho_p=rho_p, prelog=prelog, kappa=kcw, chi_wc=1.0,
            )
            rate = rates.mrc_bound_optimal(p, "ula")
            rows.append((k, m, rate, rate * band))
        m_req[str(k)] = rates.m_required(cfg["rate.q_target_mbps"] * 1e6, band, params)
    _write_csv(out_dir / "rate_curve.csv", ["k", "m", "rate_bps_per_hz", "throughput_bps"],
               rows, seed, cfg_hash)
    _write_summary(out_dir / "rate_curve_summary.json", "rate-curve", cfg, seed,
                   {"m_required": m_req}, started)
    return ["rate_curve.csv", "rate_curve_summary.json"]


def _run_spacing_sweep(cfg, seed, out_dir, cfg_hash, started):
    lam = geo.wavelength(cfg["rf.f_c_hz"])
    region = geo.ShellRegion(cfg["shell.r_min_m"], cfg["shell.r_max_m"])
    ratios = np.linspace(cfg["sweep.ratio_start"], cfg["sweep.ratio_stop"],
                         cfg["sweep.ratio_points"])
    if cfg["sweep.two_dimensional"]:
        grid = spacing.omega_sweep(cfg["array.m_x"], cfg["array.m_y"], lam, region,
                                   ratios, ratios)
        rows = [
            (grid.delta_x_over_lam[i], grid.delta_y_over_lam[j], grid.omega_values[i, j])
            for i in range(ratios.size)
            for j in range(ratios.size)
        ]
        header = ["delta_x_over_lambda", "delta_y_over_lambda", "omega"]
    else:
        grid = spacing.omega_sweep(cfg["array.m_x"], cfg["array.m_y"], lam, region, ratios)
        rows = [(grid.delta_x_over_lam[i], grid.omega_values[i]) for i in range(ratios.size)]
        header = ["delta_x_over_lambda", "omega"]
    optimal = spacing.optimal_spacing_ula(cfg["array.m_x"] * cfg["array.m_y"], lam,
                                          region.r_min)
    _write_csv(out_dir / "spacing_sweep.csv", header, rows, seed, cfg_hash)
    _write_summary(out_dir / "spacing_sweep_summary.json", "spacing-sweep", cfg, seed,
                   {"optimal_spacings_m": optimal[:20]}, started)
    return ["spacing_sweep.csv", "spacing_sweep_summary.json"]


def _array_geometry(cfg) -> geo.ArrayGeometry:
    "The ``gain-cdf`` or ``validate`` array; ``gain-cdf`` has no y spacing."
    lam = geo.wavelength(cfg["rf.f_c_hz"])
    return geo.ArrayGeometry(cfg["array.m_x"], cfg["array.m_y"],
                             cfg["array.spacing_x_wavelengths"] * lam,
                             cfg.get("array.spacing_y_wavelengths", 0.0) * lam)


def _gain_cdf_spec(cfg, seed) -> mc.ScenarioSpec:
    return mc.ScenarioSpec(
        geometry=_array_geometry(cfg),
        region=geo.ShellRegion(cfg["shell.r_min_m"], cfg["shell.r_max_m"]),
        k=1,
        f_c=cfg["rf.f_c_hz"],
        excitation=cfg["antenna.excitation"],
        gs_orientation=cfg["antenna.gs_orientation"],
        pattern=cfg["antenna.pattern"],
        orientation_seed=seed,
    )


def _run_gain_cdf(cfg, seed, out_dir, cfg_hash, started):
    spec = _gain_cdf_spec(cfg, seed)
    thresholds = np.arange(cfg["mc.threshold_db_min"], cfg["mc.threshold_db_max"],
                           cfg["mc.threshold_db_step"])
    thr, cdf, stats = mc.gain_cdf(spec, cfg["mc.n"], seed, thresholds)
    rows = [(thr[i], cdf[i]) for i in range(thr.size)]
    _write_csv(out_dir / "gain_cdf.csv", ["threshold_db", "cdf"], rows, seed, cfg_hash)
    _write_summary(out_dir / "gain_cdf_summary.json", "gain-cdf", cfg, seed, {"stats": stats},
                   started)
    return ["gain_cdf.csv", "gain_cdf_summary.json"]


def _mission_spec(cfg, seed: int = 0) -> msn.MissionSpec:
    lam = geo.wavelength(cfg["rf.f_c_hz"])
    camera = msn.CameraModel(
        r_px=cfg["camera.r_px"],
        r_py=cfg["camera.r_py"],
        bits_per_pixel=cfg["camera.bits_per_pixel"],
        overlap_front=cfg["camera.overlap_front"],
        overlap_side=cfg["camera.overlap_side"],
        compression=cfg["camera.compression"],
    )
    return msn.MissionSpec(
        x1=cfg["area.x1_m"], x2=cfg["area.x2_m"], y1=cfg["area.y1_m"], y2=cfg["area.y2_m"],
        k=cfg["fleet.k"], speed=cfg["fleet.speed_mps"], gsd=cfg["fleet.gsd_m"],
        camera=camera,
        geometry=geo.ArrayGeometry(cfg["array.m_x"], 1,
                                   cfg["array.spacing_x_wavelengths"] * lam, 0.0),
        f_c=cfg["rf.f_c_hz"], bandwidth=cfg["rf.bandwidth_hz"], b_c=cfg["rf.b_c_hz"],
        rho_u=_linear(cfg["rf.rho_u_db"]), rho_p=_linear(cfg["rf.rho_p_db"]),
        tau_dl_frac=cfg["rf.tau_dl_frac"], chi_wc=_linear(cfg["rf.chi_wc_db"]),
        altitude=cfg["fleet.altitude_m"], orientation_seed=seed,
    )


def _run_mission(cfg, seed, out_dir, cfg_hash, started):
    spec = _mission_spec(cfg, seed)
    duration = cfg["sim.duration_s"] or None
    records = msn.run_mission(spec, cfg["sim.step_s"], seed, duration=duration,
                              csi=cfg["sim.csi"])
    rows = records.tolist()
    _write_csv(out_dir / "mission.csv", list(msn.RECORD_DTYPE.names), rows, seed, cfg_hash)
    c_data, c_pilot = msn.link_budget_coefficients(spec, 400.0)
    _write_summary(out_dir / "mission_summary.json", "mission-sim", cfg, seed, {
        "mission_time_s": msn.mission_time(spec),
        "altitude_m": spec.flight_altitude,
        "d_wc_m": spec.d_wc,
        "image_rate_bps": msn.image_rate(spec.camera, spec.gsd, spec.speed),
        "link_budget_coefficients_at_400m": {"data_w": c_data, "pilot_w": c_pilot},
    }, started)
    return ["mission.csv", "mission_summary.json"]


def _run_validate(cfg, seed, out_dir, cfg_hash, started):
    lam = geo.wavelength(cfg["rf.f_c_hz"])
    geom = _array_geometry(cfg)
    region = geo.ShellRegion(cfg["shell.r_min_m"], cfg["shell.r_max_m"])
    spec = mc.ScenarioSpec(geometry=geom, region=region, k=2,
                           rho_u=_linear(cfg["rf.rho_u_db"]), f_c=cfg["rf.f_c_hz"])
    rows_raw, max_dev = mc.validate_expectations(spec, cfg["mc.n_pairs"], seed)
    rows = [
        (r["l"], r["lp"], r["closed_re"], r["closed_im"], r["mc_re"], r["mc_im"],
         r["stderr"], r["dev_se"])
        for r in rows_raw
    ]
    header = ["l", "lp", "closed_re", "closed_im", "mc_re", "mc_im", "stderr", "dev_se"]
    moment = mc.estimate_interference_moment(spec, cfg["mc.n_moment"], seed)
    omega_value = rates.omega(geom, lam, region)
    target = spec.rho_u**2 * (geom.m + omega_value)
    _write_csv(out_dir / "validate.csv", header, rows, seed, cfg_hash)
    _write_summary(out_dir / "validate_summary.json", "validate", cfg, seed, {
        "phase_moment_max_dev_se": max_dev,
        "interference_moment": {"mc": moment.mean, "stderr": moment.stderr,
                                "closed_form": target,
                                "dev_se": abs(moment.mean - target) / moment.stderr},
    }, started)
    return ["validate.csv", "validate_summary.json"]


def _run_tables(cfg, seed, out_dir, cfg_hash, started):
    rho_u = _linear(cfg["tables.rho_u_db"])
    rho_p = _linear(cfg["tables.rho_p_db"])
    band = cfg["tables.bandwidth_hz"]
    k = cfg["tables.k"]
    kcw = cfg["tables.kappa_chi_wc"]

    def params_for(v):
        coh = CoherenceParams(f_c=cfg["tables.f_c_hz"], bandwidth=band,
                              b_c=cfg["tables.b_c_hz"], v_max=v)
        _, prelog = coherence_prelog(coh, k)
        return rates.RateParams(
            geometry=geo.ArrayGeometry(1), region=geo.ShellRegion(1.0, 1.0),
            lam=geo.wavelength(cfg["tables.f_c_hz"]), k=k, rho_u=rho_u, rho_p=rho_p,
            prelog=prelog, kappa=kcw, chi_wc=1.0,
        )

    camera = msn.CameraModel(r_px=1496, r_py=2664)
    image_rows = []
    for gsd, v in ((0.02, 20.0), (0.05, 30.0), (0.20, 30.0)):
        q = msn.image_rate(camera, gsd, v)
        p = params_for(v)
        image_rows.append((
            gsd, v, q, k * q,
            rates.m_required(q, band, p),
            rates.m_required(q / 2.0, band, p),
        ))
    video_rows = []
    for r_py, r_px in ((4096, 2160), (2664, 1496)):
        cam = msn.CameraModel(r_px=r_px, r_py=r_py, compression=200.0, fps=60.0)
        p = params_for(30.0)
        q60 = msn.video_rate(cam)
        q30 = q60 / 2.0
        video_rows.append((
            r_py, r_px, q60, k * q60,
            rates.m_required(q60, band, p),
            rates.m_required(q30, band, p),
        ))
    _write_csv(out_dir / "table_image.csv",
               ["gsd_m", "speed_mps", "q_image_bps", "q_image_sum_bps",
                "m_required", "m_required_cr2"],
               image_rows, seed, cfg_hash)
    _write_csv(out_dir / "table_video.csv",
               ["r_py", "r_px", "q_video_bps", "q_video_sum_bps",
                "m_required_60fps", "m_required_30fps"],
               video_rows, seed, cfg_hash)
    _write_summary(out_dir / "tables_summary.json", "tables", cfg, seed, {}, started)
    return ["table_image.csv", "table_video.csv", "tables_summary.json"]


_RUNNERS = {
    "rate-curve": _run_rate_curve,
    "spacing-sweep": _run_spacing_sweep,
    "gain-cdf": _run_gain_cdf,
    "mission-sim": _run_mission,
    "validate": _run_validate,
    "tables": _run_tables,
}


def run_experiment(kind: str, config_text: str, seed: int, out_dir: Path) -> list[str]:
    """Parse, run, and write artifacts; returns the list of files written."""
    started = time.monotonic()
    cfg = parse_config(config_text, kind)
    cfg_hash = hashlib.sha256(
        json.dumps({k: str(v) for k, v in sorted(cfg.items())}).encode()
    ).hexdigest()[:16]
    out_dir.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[kind](cfg, seed, out_dir, cfg_hash, started)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="swarm-mimo-sim",
        description="Line-of-sight massive MIMO drone-swarm uplink experiments.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for kind, schema in SCHEMAS.items():
        keys = "; ".join(
            f"[{section}] " + ", ".join(
                f"{name}={spec.default!r}" for name, spec in items.items()
            )
            for section, items in schema.items()
        )
        p = sub.add_parser(kind, help=f"defaults: {keys}", description=f"Config keys and defaults: {keys}")
        p.add_argument("--config", required=True, help="INI config path")
        p.add_argument("--seed", type=int, default=1, help="experiment seed")
        p.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 4
    try:
        written = run_experiment(args.experiment, text, args.seed, Path(args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SwarmMimoError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    for name in written:
        print(Path(args.out) / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
