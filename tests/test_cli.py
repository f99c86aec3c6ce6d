import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from swarm_mimo_sim import cli
from swarm_mimo_sim.errors import ConfigError

# every experiment at a small size: (kind, preset, text edits)
SMALL_RUNS = (
    ("tables", "tables.ini", {}),
    ("rate-curve", "rate_curve.ini", {"1:256": "16,32"}),
    ("spacing-sweep", "spacing_sweep_ula.ini", {"ratio_points = 60": "ratio_points = 2"}),
    ("gain-cdf", "gain_cdf_circular_identical.ini", {"n = 100000": "n = 500"}),
    ("validate", "validate.ini", {"100000": "1000"}),
    ("mission-sim", "mission.ini", {"duration_s = 100.0": "duration_s = 3.0"}),
)


def preset(name: str) -> str:
    return (resources.files("swarm_mimo_sim") / "presets" / name).read_text()


def small_config(name: str, edits: dict) -> str:
    text = preset(name)
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    return text


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = cli.parse_config("[rate]\nrho_u_db = 3.0\n", "rate-curve")
        assert cfg["rate.rho_u_db"] == 3.0
        assert cfg["rate.rho_p_db"] == 10.0  # default applied
        assert cfg["coherence.f_c_hz"] == 2.4e9

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="rate.bogus"):
            cli.parse_config("[rate]\nbogus = 1\n", "rate-curve")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="mystery"):
            cli.parse_config("[mystery]\nx = 1\n", "rate-curve")

    def test_constraint_error_names_key(self):
        with pytest.raises(ConfigError, match=r"rate\.rho_u_db.*legal range"):
            cli.parse_config("[rate]\nrho_u_db = -200\n", "rate-curve")

    def test_type_error_names_key(self):
        with pytest.raises(ConfigError, match=r"array\.m_x"):
            cli.parse_config("[array]\nm_x = fifty\n", "spacing-sweep")

    def test_choice_error(self):
        with pytest.raises(ConfigError, match="antenna.excitation"):
            cli.parse_config("[antenna]\nexcitation = elliptic\n", "gain-cdf")

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            cli.parse_config("", "make-coffee")

    @pytest.mark.parametrize("kind, text, key", [
        ("spacing-sweep", "[sweep]\nratio_points = 100000\ntwo_dimensional = true\n",
         "sweep.ratio_points"),
        ("gain-cdf", "[array]\nm_x = 10000\nm_y = 10000\n", r"array.m_x \* array.m_y"),
        ("spacing-sweep", "[array]\nm_x = 10000\nm_y = 10000\n", r"array.m_x \* array.m_y"),
        ("gain-cdf", "[mc]\nn = 100000000\n", "mc.n"),
        ("mission-sim", "[sim]\nstep_s = 0.001\nduration_s = 1e6\n[fleet]\nk = 1000\n",
         r"sim.duration_s / sim.step_s \* fleet.k"),
        # duration_s = 0 runs the whole mission: 375 s of 20 drones at 1 ms steps
        ("mission-sim", "[sim]\nstep_s = 0.001\n", r"sim.duration_s / sim.step_s \* fleet.k"),
        ("rate-curve", "[array]\nm_values = 1:100000000\n", r"array.m_values \* rate.k_values"),
        # one element has no pairs to validate
        ("validate", "[array]\nm_x = 1\nm_y = 1\n", r"array.m_x \* array.m_y"),
        # no output rows: a header-only CSV
        ("gain-cdf", "[mc]\nthreshold_db_min = 10\nthreshold_db_max = 10\n",
         "mc.threshold_db_min"),
        ("gain-cdf", "[mc]\nthreshold_db_min = 20\nthreshold_db_max = 10\n",
         "mc.threshold_db_min"),
        ("rate-curve", "[rate]\nk_values =\n", "rate.k_values"),
        ("rate-curve", "[array]\nm_values = 5:1\n", "array.m_values"),
        # a zero count is no array and no fleet
        ("rate-curve", "[array]\nm_values = 0:3\n", "array.m_values"),
        ("rate-curve", "[rate]\nk_values = 0,5\n", "rate.k_values"),
        # gain-cdf spaces rows by 0, so a second row would sit on the first
        ("gain-cdf", "[array]\nm_y = 2\n", "array.m_y"),
        # drones inside the array: 50 half-wave elements span 3.06 m, 100 at 0.3 span 3.71 m
        ("gain-cdf", "[shell]\nr_min_m = 0.5\n", "shell.r_min_m"),
        ("validate", "[array]\nm_x = 100\n[shell]\nr_min_m = 1.0\n", "shell.r_min_m"),
    ])
    def test_cost_guard(self, kind, text, key, tmp_path):
        # each key is within its range, but together they ask for too much work
        # or memory, for a run without output rows, or for drones inside the array
        with pytest.raises(ConfigError, match=key):
            cli.parse_config(text, kind)
        path = tmp_path / "big.ini"
        path.write_text(text)
        assert cli.main([kind, "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_presets_round_trip(self):
        for name, kind in (
            ("rate_curve.ini", "rate-curve"),
            ("spacing_sweep_ula.ini", "spacing-sweep"),
            ("gain_cdf_circular_identical.ini", "gain-cdf"),
            ("mission.ini", "mission-sim"),
            ("tables.ini", "tables"),
            ("validate.ini", "validate"),
        ):
            cfg = cli.parse_config(preset(name), kind)
            assert set(cfg) == {f"{section}.{key}"
                                for section, keys in cli.SCHEMAS[kind].items() for key in keys}


class TestRunExperiments:
    def test_tables(self, tmp_path):
        files = cli.run_experiment("tables", preset("tables.ini"), 1, tmp_path)
        assert "table_image.csv" in files
        rows = [
            line.split(",")
            for line in (tmp_path / "table_image.csv").read_text().splitlines()
            if not line.startswith("#")
        ][1:]
        m_req = [int(r[4]) for r in rows]
        m_req_cr2 = [int(r[5]) for r in rows]
        assert [abs(a - b) <= 1 for a, b in zip(m_req, (2195, 313, 20))] == [True] * 3
        assert [abs(a - b) <= 1 for a, b in zip(m_req_cr2, (187, 61, 9))] == [True] * 3
        vrows = [
            line.split(",")
            for line in (tmp_path / "table_video.csv").read_text().splitlines()
            if not line.startswith("#")
        ][1:]
        assert abs(int(vrows[0][4]) - 221) <= 1
        assert abs(int(vrows[0][5]) - 49) <= 1
        assert abs(int(vrows[1][4]) - 41) <= 1
        assert abs(int(vrows[1][5]) - 15) <= 1

    def test_rate_curve_summary(self, tmp_path):
        text = preset("rate_curve.ini").replace("1:256", "16,32")
        cli.run_experiment("rate-curve", text, 1, tmp_path)
        summary = json.loads((tmp_path / "rate_curve_summary.json").read_text())
        assert summary["m_required"] == {"20": 27, "50": 68, "100": 136}
        assert summary["version"].startswith("swarm-mimo-sim-")
        assert "wall_clock_s" in summary

    def test_spacing_sweep_minima(self, tmp_path):
        text = """
[array]
m_x = 50
[shell]
r_min_m = 499.0
r_max_m = 500.0
[sweep]
ratio_start = 0.25
ratio_stop = 1.0
ratio_points = 4
"""
        cli.run_experiment("spacing-sweep", text, 1, tmp_path)
        lines = [
            l for l in (tmp_path / "spacing_sweep.csv").read_text().splitlines()
            if not l.startswith("#")
        ]
        header, *rows = lines
        assert header == "delta_x_over_lambda,omega"
        vals = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
        assert vals[0.5] <= 1e-9
        assert vals[1.0] <= 1e-9
        assert vals[0.25] > 1e-3 and vals[0.75] > 1e-3

    def test_gain_cdf_runs_small(self, tmp_path):
        text = preset("gain_cdf_circular_identical.ini").replace("n = 100000", "n = 2000")
        cli.run_experiment("gain-cdf", text, 3, tmp_path)
        summary = json.loads((tmp_path / "gain_cdf_summary.json").read_text())
        assert 0.0 <= summary["stats"]["p_below_10db"] <= 1.0
        lines = (tmp_path / "gain_cdf.csv").read_text().splitlines()
        cdf = [float(l.split(",")[1]) for l in lines[2:]]
        assert all(b >= a for a, b in zip(cdf, cdf[1:]))

    def test_mission_sim_short(self, tmp_path):
        text = preset("mission.ini").replace("duration_s = 100.0", "duration_s = 10.0")
        text = text.replace("m_x = 100", "m_x = 8")
        cli.run_experiment("mission-sim", text, 5, tmp_path)
        lines = (tmp_path / "mission.csv").read_text().splitlines()
        assert lines[1] == "t_s,drone_id,x_m,y_m,z_m,throughput_bps,power_w"
        assert len(lines) == 2 + 11 * 20
        summary = json.loads((tmp_path / "mission_summary.json").read_text())
        assert summary["mission_time_s"] == pytest.approx(375.4, abs=0.5)

    def test_validate_small(self, tmp_path):
        text = preset("validate.ini").replace("100000", "20000")
        cli.run_experiment("validate", text, 7, tmp_path)
        summary = json.loads((tmp_path / "validate_summary.json").read_text())
        assert summary["phase_moment_max_dev_se"] < 5.0
        assert summary["interference_moment"]["dev_se"] < 5.0

    def test_byte_identical_reruns(self, tmp_path):
        # every experiment, at a small size, twice with one seed
        for kind, name, edits in SMALL_RUNS:
            text = small_config(name, edits)
            a = tmp_path / kind / "a"
            b = tmp_path / kind / "b"
            files = cli.run_experiment(kind, text, 9, a)
            assert cli.run_experiment(kind, text, 9, b) == files
            for f in files:
                if f.endswith(".json"):  # identical apart from the run's own wall time
                    ja, jb = (json.loads((d / f).read_text()) for d in (a, b))
                    assert ja.pop("wall_clock_s") >= 0.0 and jb.pop("wall_clock_s") >= 0.0
                    assert ja == jb, f
                else:
                    assert (a / f).read_bytes() == (b / f).read_bytes(), f

    def test_csv_metadata_line(self, tmp_path):
        cli.run_experiment("tables", preset("tables.ini"), 4, tmp_path)
        first = (tmp_path / "table_image.csv").read_text().splitlines()[0]
        assert first.startswith("# schema=v1 seed=4 config_sha256=")


_COLD_START = """
import sys
from pathlib import Path

from swarm_mimo_sim import cli
from swarm_mimo_sim import polarization as pol

out = Path(sys.argv[1])
for kind, text in zip(sys.argv[2::2], sys.argv[3::2]):
    cli.run_experiment(kind, text, 9, out / kind)
cfgs = [pol.AntennaConfig(pol.DipoleExcitation.circular()) for _ in range(4)]
coarse = pol.worst_case_gain(cfgs, 2.4e9, budget=50, seed=3, refine_top=0)
assert "scipy.optimize" not in sys.modules, "scipy.optimize loaded without a refinement"
refined = pol.worst_case_gain(cfgs, 2.4e9, budget=50, seed=3, refine_top=1)
assert refined <= coarse, (refined, coarse)
"""


def test_cold_start_skips_optimizer(tmp_path):
    # a fresh interpreter: this one has long imported scipy for other tests
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    args = [sys.executable, "-c", _COLD_START, str(tmp_path)]
    for kind, name, edits in SMALL_RUNS:
        args += [kind, small_config(name, edits)]
    proc = subprocess.run(args, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


class TestMainEntry:
    def test_exit_codes(self, tmp_path):
        cfg = tmp_path / "t.ini"
        cfg.write_text(preset("tables.ini"))
        assert cli.main(["tables", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        bad = tmp_path / "bad.ini"
        bad.write_text("[tables]\nrho_u_db = nonsense\n")
        assert cli.main(["tables", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert cli.main(["tables", "--config", str(tmp_path / "missing.ini")]) == 4

    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        out = capsys.readouterr().out
        assert "rate-curve" in out and "mission-sim" in out


class TestDomainErrorExit:
    def test_exit_code_three(self, tmp_path):
        # valid config whose array aperture violates the shell inner radius
        cfg = tmp_path / "d.ini"
        cfg.write_text(
            "[array]\nm_x = 200\n[shell]\nr_min_m = 1.0\nr_max_m = 2.0\n"
            "[sweep]\nratio_start = 0.5\nratio_stop = 0.5\nratio_points = 1\n"
        )
        assert cli.main(["spacing-sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 3
