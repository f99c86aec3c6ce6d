"""Config-driven experiment harness.

``swarm-mimo-sim <experiment> --config file.ini [--seed N] [--out DIR]``
parses an INI config against the experiment's schema, runs the simulation,
and writes its CSV tables plus a JSON summary. All dB-valued keys are
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
from dataclasses import dataclass, replace
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
    """One config key: type, default, constraint and help text."""

    typ: type
    default: object
    lo: float | None = None
    hi: float | None = None
    choices: tuple | None = None
    help: str = ""


def _db(help_text: str, default: float) -> Key:
    return Key(float, default, _DB_RANGE[0], _DB_RANGE[1], None, help_text + " in dB")


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
            # at most the m_x * m_y of the other experiments
            "m_values": Key(str, "1:512", 1, 10**8,
                            help="element counts, comma list or start:stop"),
        },
        "rate": {
            "k_values": Key(str, "20,50,100", 1, 1000, help="drone counts, comma list"),
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
            return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
        return key.typ(raw)
    except (KeyError, ValueError) as exc:
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
_MAX_BUFFER_BYTES = 256 * 2**20  # the working set of any one stage, as its owner states it
# omega evaluations times ordered element pairs in one spacing sweep. Untraced on 2
# x86 cores, a term costs about 0.45 us (16x16: about 30 ms a call), and a call at
# least _MIN_CALL_TERMS terms' time (1x2: 0.44 ms; a 50-element line: 2.1-2.5 ms)
_MAX_PAIR_TERMS = 10**9
_MIN_CALL_TERMS = 1000
# (k, m) rows of one rate curve, each computed as it is written: a bound on work, about
# 9 us and 37 bytes of CSV a row untraced on 2 x86 cores; the shipped preset makes 768
_MAX_RATE_ROWS = 10**6


def _check_limit(name: str, what: str, amount: float, limit: float, unit: str = ""):
    if amount > limit:
        raise ConfigError(f"{name}: {what}: {amount:.4g}{unit}, over the limit of "
                          f"{limit:.4g}{unit}")


def _check_buffer(name: str, what: str, nbytes: int):
    "Refuse a stage whose working set, as its owner states it, exceeds the limit."
    _check_limit(name, what, nbytes / 2**20, _MAX_BUFFER_BYTES / 2**20, " MiB")


def _check_cost(cfg: dict, kind: str):
    "Reject a parsed config whose work or largest array is out of reach."
    if kind == "rate-curve":
        rows = (len(_parse_int_list(cfg, "array.m_values"))
                * len(_parse_int_list(cfg, "rate.k_values")))
        return _check_limit("array.m_values * rate.k_values", "(k, m) rows", rows, _MAX_RATE_ROWS)
    if kind == "mission-sim":
        duration = cfg["sim.duration_s"] or msn.mission_time(_mission_spec(cfg))
        return _check_buffer("sim.duration_s / sim.step_s * fleet.k", "the mission's records",
                             msn.record_bytes(duration, cfg["sim.step_s"], cfg["fleet.k"]))
    if kind not in ("spacing-sweep", "gain-cdf", "validate"):
        return
    m = cfg["array.m_x"] * cfg["array.m_y"]
    if kind == "validate" and m < 2:
        raise ConfigError(f"array.m_x * array.m_y: validate compares element pairs, "
                          f"which {m} element does not have")
    if cfg["shell.r_min_m"] > cfg["shell.r_max_m"]:
        raise ConfigError(f"shell.r_min_m: {cfg['shell.r_min_m']} m exceeds "
                          f"shell.r_max_m, {cfg['shell.r_max_m']} m")
    if kind == "gain-cdf":
        _check_buffer("mc.n", f"{cfg['mc.n']} samples", mc.gain_cdf_bytes(cfg["mc.n"]))
        if cfg["mc.threshold_db_min"] >= cfg["mc.threshold_db_max"]:
            raise ConfigError("mc.threshold_db_min: must lie below mc.threshold_db_max, "
                              "or the CDF has no thresholds")
    else:  # validate runs omega too, after its draws and its interference moment
        _check_buffer("array.m_x * array.m_y", f"omega over {m} elements", rates.omega_bytes(m))
    if kind == "validate":  # its stages run one after another, so each is checked alone
        n = cfg["mc.n_pairs"]
        _check_buffer("mc.n_pairs", f"the buffers of {n} draws", mc.validate_bytes(n))
        _check_buffer("array.m_x * array.m_y", "the interference moment's chunk",
                      mc.interference_moment_bytes(m))
    if kind == "spacing-sweep":
        points = cfg["sweep.ratio_points"] ** (2 if cfg["sweep.two_dimensional"] else 1)
        _check_limit("sweep.ratio_points", f"the pair terms of {points} omegas over {m} elements",
                     points * max(m * m, _MIN_CALL_TERMS), _MAX_PAIR_TERMS)
        if cfg["array.m_y"] == 1 and cfg["sweep.two_dimensional"]:
            # one row spans nothing along y: every delta_y column repeats the first
            raise ConfigError("sweep.two_dimensional: a line array, m_y = 1, has no y "
                              "spacing to sweep; set array.m_y > 1 or leave it false")
        # the widest spacing swept spans the most; a sweep over delta_x alone has no y spacing
        ratio = cfg["sweep.ratio_start"]
        if cfg["sweep.ratio_points"] > 1:
            ratio = max(ratio, cfg["sweep.ratio_stop"])
        delta = ratio * geo.wavelength(cfg["rf.f_c_hz"])
        geometry = geo.ArrayGeometry(cfg["array.m_x"], cfg["array.m_y"], delta,
                                     delta if cfg["sweep.two_dimensional"] else 0.0)
    else:
        geometry = _array_geometry(cfg)
    if geometry.m_y > 1 and geometry.delta_y == 0.0:  # a second row would sit on the first
        key = "array.spacing_y_wavelengths" if kind == "validate" else "array.m_y"
        raise ConfigError(f"{key}: {geometry.m_y} rows with no y spacing stack on the first")
    # omega and the channel refuse drones inside the array, but only after starting
    aperture = geometry.aperture()
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
            out.setdefault(f"{section}.{key_name}", spec.default)
    _check_cost(out, kind)
    return out


def _parse_int_list(cfg: dict, name: str) -> range | list[int]:
    """Rate-curve key ``name``: comma list or inclusive ``start:stop`` of counts, at least one.

    Each count lies in the key's range. A range comes back as a ``range``,
    whose length costs nothing.
    """
    section, key_name = name.split(".")
    key = SCHEMAS["rate-curve"][section][key_name]
    raw = str(cfg[name]).strip()
    try:
        if ":" in raw:
            start, stop = raw.split(":")
            values = range(int(start), int(stop) + 1)
            lowest, highest = values.start, values.stop - 1
        else:
            values = [int(tok) for tok in raw.split(",") if tok.strip()]
            lowest, highest = min(values, default=0), max(values, default=0)
    except ValueError as exc:
        raise ConfigError(f"{name}: expected comma list or start:stop, got {raw!r}") from exc
    if not values or lowest < key.lo or highest > key.hi:
        raise ConfigError(f"{name}: expected one or more counts in [{key.lo}, {key.hi}], "
                          f"got {raw!r}")
    return values


def _linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


# ---------------------------------------------------------------------------
# experiments
#
# Each runner takes the parsed config and the seed and returns its CSV tables,
# ``{file name: (header, rows)}`` in file order, and the summary entries beyond
# the parameters; run_experiment writes them all. ``rows``, any iterable, is read once
# after the output directory is made, so a row built lazily reads only inputs checked
# before: rate-curve's frames, m_required, RateParams (_far_sphere), counts (_parse_int_list).
# ---------------------------------------------------------------------------


def _far_sphere(cfg, section: str, coh: CoherenceParams, k: int):
    "Rate parameters of ``k`` drones on a far sphere around one element."
    _, prelog = coherence_prelog(coh, k)
    return rates.RateParams(
        geometry=geo.ArrayGeometry(1), region=geo.ShellRegion(1.0, 1.0),
        lam=geo.wavelength(coh.f_c), k=k, rho_u=_linear(cfg[f"{section}.rho_u_db"]),
        rho_p=_linear(cfg[f"{section}.rho_p_db"]), prelog=prelog,
        kappa=cfg[f"{section}.kappa_chi_wc"], chi_wc=1.0,
    )


def _run_rate_curve(cfg, seed):
    m_values = _parse_int_list(cfg, "array.m_values")
    band = cfg["coherence.bandwidth_hz"]
    coh = CoherenceParams(
        f_c=cfg["coherence.f_c_hz"],
        bandwidth=band,
        b_c=cfg["coherence.b_c_hz"],
        v_max=cfg["coherence.v_max_mps"],
        tau_dl_frac=cfg["coherence.tau_dl_frac"],
    )
    k_params = [(k, _far_sphere(cfg, "rate", coh, k))
                for k in _parse_int_list(cfg, "rate.k_values")]
    m_req = {str(k): rates.m_required(cfg["rate.q_target_mbps"] * 1e6, band, params)
             for k, params in k_params}
    half_wave = geo.wavelength(coh.f_c) / 2.0  # every k's params.lam / 2

    def rows():  # k by k, each computed as it is written
        for k, params in k_params:
            for m in m_values:
                geom = geo.ArrayGeometry(m, 1, half_wave, 0.0)
                rate = rates.mrc_bound_optimal(replace(params, geometry=geom), "ula")
                yield k, m, rate, rate * band

    header = ["k", "m", "rate_bps_per_hz", "throughput_bps"]
    return {"rate_curve.csv": (header, rows())}, {"m_required": m_req}


def _run_spacing_sweep(cfg, seed):
    m_x, m_y = cfg["array.m_x"], cfg["array.m_y"]
    lam = geo.wavelength(cfg["rf.f_c_hz"])
    region = geo.ShellRegion(cfg["shell.r_min_m"], cfg["shell.r_max_m"])
    ratios = np.linspace(cfg["sweep.ratio_start"], cfg["sweep.ratio_stop"],
                         cfg["sweep.ratio_points"])
    if cfg["sweep.two_dimensional"]:
        vals = spacing.omega_sweep(m_x, m_y, lam, region, ratios, ratios)
        rows = ((rx, ry, vals[i, j]) for i, rx in enumerate(ratios) for j, ry in enumerate(ratios))
        header = ["delta_x_over_lambda", "delta_y_over_lambda", "omega"]
        optimal = spacing.optimal_spacing_ura(m_x, m_y, lam, region.r_min).tolist()
    else:
        vals = spacing.omega_sweep(m_x, m_y, lam, region, ratios)
        rows = zip(ratios, vals)
        header = ["delta_x_over_lambda", "omega"]
        optimal = spacing.optimal_spacing_ula(m_x, lam, region.r_min)
    return {"spacing_sweep.csv": (header, rows)}, {"optimal_spacings_m": optimal}


def _array_geometry(cfg) -> geo.ArrayGeometry:
    "The ``gain-cdf`` or ``validate`` array; ``gain-cdf`` has no y spacing."
    lam = geo.wavelength(cfg["rf.f_c_hz"])
    return geo.ArrayGeometry(cfg["array.m_x"], cfg["array.m_y"],
                             cfg["array.spacing_x_wavelengths"] * lam,
                             cfg.get("array.spacing_y_wavelengths", 0.0) * lam)


def _run_gain_cdf(cfg, seed):
    spec = mc.ScenarioSpec(
        geometry=_array_geometry(cfg),
        region=geo.ShellRegion(cfg["shell.r_min_m"], cfg["shell.r_max_m"]),
        k=1,
        f_c=cfg["rf.f_c_hz"],
        excitation=cfg["antenna.excitation"],
        gs_orientation=cfg["antenna.gs_orientation"],
        pattern=cfg["antenna.pattern"],
        orientation_seed=seed,
    )
    thresholds = np.arange(cfg["mc.threshold_db_min"], cfg["mc.threshold_db_max"],
                           cfg["mc.threshold_db_step"])
    thr, cdf, stats = mc.gain_cdf(spec, cfg["mc.n"], seed, thresholds)
    return {"gain_cdf.csv": (["threshold_db", "cdf"], zip(thr, cdf))}, {"stats": stats}


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


def _run_mission(cfg, seed):
    spec = _mission_spec(cfg, seed)
    duration = cfg["sim.duration_s"] or None
    records = msn.run_mission(spec, cfg["sim.step_s"], seed, duration=duration,
                              csi=cfg["sim.csi"])
    c_data, c_pilot = msn.link_budget_coefficients(spec, 400.0)
    # a few thousand rows at a time as Python values; tolist beats row-by-row reads
    rows = (row for lo in range(0, records.size, 2048) for row in records[lo:lo + 2048].tolist())
    return {"mission.csv": (list(msn.RECORD_DTYPE.names), rows)}, {
        "mission_time_s": msn.mission_time(spec),
        "altitude_m": spec.flight_altitude,
        "d_wc_m": spec.d_wc,
        "image_rate_bps": msn.image_rate(spec.camera, spec.gsd, spec.speed),
        "link_budget_coefficients_at_400m": {"data_w": c_data, "pilot_w": c_pilot},
    }


def _run_validate(cfg, seed):
    geom = _array_geometry(cfg)
    region = geo.ShellRegion(cfg["shell.r_min_m"], cfg["shell.r_max_m"])
    spec = mc.ScenarioSpec(geometry=geom, region=region, k=2,
                           rho_u=_linear(cfg["rf.rho_u_db"]), f_c=cfg["rf.f_c_hz"])
    rows_raw, max_dev = mc.validate_expectations(spec, cfg["mc.n_pairs"], seed)
    header = ["l", "lp", "closed_re", "closed_im", "mc_re", "mc_im", "stderr", "dev_se"]
    rows = (tuple(r[name] for name in header) for r in rows_raw)
    moment = mc.estimate_interference_moment(spec, cfg["mc.n_moment"], seed)
    omega_value = rates.omega(geom, spec.lam, region)
    target = spec.rho_u**2 * (geom.m + omega_value)
    return {"validate.csv": (header, rows)}, {
        "phase_moment_max_dev_se": max_dev,
        "interference_moment": {"mc": moment.mean, "stderr": moment.stderr,
                                "closed_form": target,
                                "dev_se": abs(moment.mean - target) / moment.stderr},
    }


def _run_tables(cfg, seed):
    band = cfg["tables.bandwidth_hz"]
    k = cfg["tables.k"]

    def row(a, b, q, v):  # a drone's rate q at speed v, the fleet's, the elements for q and q / 2
        coh = CoherenceParams(f_c=cfg["tables.f_c_hz"], bandwidth=band,
                              b_c=cfg["tables.b_c_hz"], v_max=v)
        p = _far_sphere(cfg, "tables", coh, k)
        return a, b, q, k * q, rates.m_required(q, band, p), rates.m_required(q / 2.0, band, p)

    camera = msn.CameraModel(r_px=1496, r_py=2664)
    image_rows = [row(gsd, v, msn.image_rate(camera, gsd, v), v)
                  for gsd, v in ((0.02, 20.0), (0.05, 30.0), (0.20, 30.0))]
    video_rows = [row(r_py, r_px, msn.video_rate(msn.CameraModel(
        r_px=r_px, r_py=r_py, compression=200.0, fps=60.0)), 30.0)
        for r_py, r_px in ((4096, 2160), (2664, 1496))]
    return {
        "table_image.csv": (["gsd_m", "speed_mps", "q_image_bps", "q_image_sum_bps",
                             "m_required", "m_required_cr2"], image_rows),
        "table_video.csv": (["r_py", "r_px", "q_video_bps", "q_video_sum_bps",
                             "m_required_60fps", "m_required_30fps"], video_rows),
    }, {}


# each experiment's runner and the stem of its summary file
_RUNNERS = {
    "rate-curve": (_run_rate_curve, "rate_curve"),
    "spacing-sweep": (_run_spacing_sweep, "spacing_sweep"),
    "gain-cdf": (_run_gain_cdf, "gain_cdf"),
    "mission-sim": (_run_mission, "mission"),
    "validate": (_run_validate, "validate"),
    "tables": (_run_tables, "tables"),
}


def _fmt(v) -> str:
    return format(v, ".12g") if isinstance(v, float) else str(v)


def run_experiment(kind: str, config_text: str, seed: int, out_dir: Path) -> list[str]:
    """Parse, run, and write artifacts; returns the list of files written.

    The only writer of artifacts: each CSV table of the runner, then the JSON
    summary. The output directory is made once the runner has returned, so a
    run that fails leaves none behind.
    """
    started = time.monotonic()
    if seed < 0:  # numpy's generators refuse one, so every experiment does, seeded or not
        raise ConfigError(f"seed: {seed} is negative; a seed is an integer >= 0")
    cfg = parse_config(config_text, kind)
    runner, stem = _RUNNERS[kind]
    tables, extra = runner(cfg, seed)
    cfg_hash = hashlib.sha256(
        json.dumps({k: str(v) for k, v in sorted(cfg.items())}).encode()
    ).hexdigest()[:16]
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():  # each row written as it is formatted
        with open(out_dir / name, "w") as f:
            f.write(f"# schema=v1 seed={seed} config_sha256={cfg_hash}\n{','.join(header)}\n")
            f.writelines(",".join(_fmt(v) for v in row) + "\n" for row in rows)
    summary = f"{stem}_summary.json"
    payload = {
        "experiment": kind,
        "version": f"swarm-mimo-sim-{__version__}",
        "seed": seed,
        "parameters": {k: cfg[k] for k in sorted(cfg)},
        "wall_clock_s": round(time.monotonic() - started, 3),
        **extra,
    }
    (out_dir / summary).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return [*tables, summary]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="swarm-mimo-sim",
        description="Line-of-sight massive MIMO drone-swarm uplink experiments.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for kind, schema in SCHEMAS.items():
        keys = "; ".join(
            f"[{section}] " + ", ".join(
                f"{name}={spec.default!r} ({spec.help})" for name, spec in items.items()
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
