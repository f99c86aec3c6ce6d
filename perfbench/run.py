#!/usr/bin/env python3
"""Benchmark of swarm-mimo-sim: three workloads, end to end and per layer.

Usage::

    python3 perfbench/run.py --workload design|mission|montecarlo|all \
        [--seed 1] [--seconds 25] [--trace 0|1]

Runs from the root of a source checkout and imports the package from
``src/``. Closed loop: one process, one operation at a time, each started
after the previous one returns, with BLAS/OpenMP capped at the core count.

``--trace 0`` reports the end-to-end metrics: the median wall time of one
workload iteration (at least two iterations, and at least ``--seconds`` of
them), the median set-up time over several fresh interpreters, and the peak
RSS. ``--trace 1`` runs untraced iterations for ``--seconds``, then one
iteration with every layer of :data:`tracer.LAYERS` wrapped, and reports the
per-layer metrics. Every output is checked (invariants, byte-identical
repeats, and digests at seed 1); the last stdout line is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Full records go to
``perfbench/out/``. ``--record-digests`` rewrites ``perfbench/digests.json``
from a seed-1 run, for a change that is meant to alter outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
PACKAGE = "swarm_mimo_sim"
DIGEST_SEED = 1
MIN_ITERATIONS = 2  # the byte-identical repeat check needs two
SETUP_SAMPLES = 5  # this process plus four fresh interpreters
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
WORKLOADS = ("design", "mission", "montecarlo")
OP_METRICS = ("spacing_sweep_s", "mission_sim_s", "gain_cdf_s", "validate_s",
              "ergodic_rate_s", "worst_case_gain_s")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def import_package():
    """Import the package from this checkout's ``src/``, never another copy."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import swarm_mimo_sim

    if not Path(swarm_mimo_sim.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"{PACKAGE} imported from {swarm_mimo_sim.__file__}, not {SRC}")
    return swarm_mimo_sim


def environment() -> dict:
    "What a result depends on besides the code: cores, versions, backend."
    import numpy as np
    import scipy

    from swarm_mimo_sim import _accel

    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    src_digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".ini"):
            src_digest.update(path.relative_to(SRC).as_posix().encode())
            src_digest.update(path.read_bytes())
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_imports": numba_imports,
        "use_numba": bool(_accel.USE_NUMBA),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_commit": commit,
        "src_sha256": src_digest.hexdigest()[:16],
    }


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def set_up(workload: str, seed: int) -> list:
    """Import, parse the workload's configs and warm every operation up.

    Returns the operations. Run in a fresh interpreter, its duration is one
    ``setup_s`` sample.
    """
    import workloads
    from swarm_mimo_sim import cli

    ops = workloads.build(workload, seed)
    for op in ops:
        if op.config:
            cli.parse_config(workloads.config_text(op.config), op.config)
    for op in ops:
        op.run(OUT / "warmup", True)
    return ops


def setup_probe(workload: str, seed: int) -> float:
    "Seconds a fresh interpreter takes for :func:`set_up`, package import included."
    started = time.perf_counter()
    import_package()
    set_up(workload, seed)
    return time.perf_counter() - started


def fresh_setup(workload: str, seed: int) -> float:
    "One :func:`setup_probe` in a new interpreter."
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def recorded_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


class Runner:
    """Runs a workload's operations and checks every output.

    An operation fails when it raises, breaks an invariant, differs from its
    own first output in this run, or, at seed 1, differs from the recorded
    digest. ``expected`` maps operation to artifact to sha256, or is None
    when no digest applies.
    """

    def __init__(self, ops, expected: dict | None, out_dir: Path = OUT / "run"):
        self.ops = ops
        self.expected = expected
        self.out_dir = out_dir
        self.first: dict[str, dict[str, str]] = {}
        self.times: dict[str, list[float]] = {op.name: [] for op in ops}
        self.walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def iteration(self, tracer=None) -> float:
        """Run every operation once; returns the iteration's wall seconds.

        With a tracer, each operation runs inside a top-level ``op.<name>``
        span. Outputs are checked after the clock stops.
        """
        outputs, errors = {}, {}
        started = time.perf_counter()
        for op in self.ops:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    outputs[op.name] = op.run(self.out_dir)
                else:
                    with tracer.span(f"op.{op.name}"):
                        outputs[op.name] = op.run(self.out_dir)
            except Exception:  # counted as a failed operation, run continues
                errors[op.name] = traceback.format_exc()
            self.times[op.name].append(time.perf_counter() - t0)
        wall = time.perf_counter() - started
        self.walls.append(wall)
        for op in self.ops:
            self.attempted += 1
            if op.name in errors:
                problems = [errors[op.name]]
            else:
                problems = self._check(op, outputs[op.name])
            self.failed += bool(problems)
            self.failures += [f"iteration {len(self.walls)} {op.name}: {p}" for p in problems]
        return wall

    def _check(self, op, arts) -> list[str]:
        try:
            problems = op.check(arts)
        except Exception:  # output the check cannot parse is a failure too
            problems = [traceback.format_exc()]
        digests = {name: sha(data) for name, data in sorted(arts.items())}
        first = self.first.setdefault(op.name, digests)
        if digests != first:
            problems.append("output differs from this run's first iteration")
        if self.expected is not None:
            if op.name not in self.expected:
                problems.append(f"no digest recorded for seed {DIGEST_SEED}")
            elif digests != self.expected[op.name]:
                problems.append(f"output differs from the digest recorded for seed {DIGEST_SEED}")
        return problems

    def op_times(self) -> dict[str, float]:
        "Median seconds of each operation that reports its own time."
        return {op.metric: statistics.median(self.times[op.name])
                for op in self.ops if op.metric and self.times[op.name]}


def run_workload(args) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    import_package()
    ops = set_up(args.workload, args.seed)
    setup_samples = [time.perf_counter() - started]
    expected = None
    if args.seed == DIGEST_SEED and not args.record_digests:
        expected = recorded_digests().get(args.workload, {})
    runner = Runner(ops, expected)
    if args.trace:
        import tracer as tr

        tr.check_layer_map(PACKAGE)  # fail before measuring, not after

    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup_samples.append(fresh_setup(args.workload, args.seed))
    began = time.perf_counter()
    floor = 1 if args.trace else MIN_ITERATIONS
    while len(runner.walls) < floor or time.perf_counter() - began < args.seconds:
        runner.iteration()
    untraced = statistics.median(runner.walls)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": environment()}
    if args.trace:
        tracer = tr.Tracer()
        with tracer.installed(PACKAGE):
            traced = runner.iteration(tracer)
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = traced - untraced
        metrics.update({m: runner.op_times().get(m, 0.0) for m in OP_METRICS})
        units = {**tr.metric_units(), "trace.overhead_s": "s",
                 **{m: "s" for m in OP_METRICS}}
        record["trace_coverage"] = tracer.top_level_s() / traced
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.spans))
    else:
        metrics = {
            "wall_s": untraced,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END_UNITS)
        record["setup_samples_s"] = setup_samples
        record["op_times_s"] = runner.op_times()
    record.update(
        iterations_s=runner.walls,
        error_rate=runner.failed / runner.attempted,
        failures=runner.failures,
        result={
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    )
    if args.record_digests and runner.failed == 0:
        recorded = recorded_digests()
        recorded[args.workload] = runner.first
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    return record


def report(record: dict) -> None:
    "Human-readable lines; the JSON result line follows them."
    res = record["result"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}"
          f"  iterations {len(record['iterations_s'])}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for name, m in res["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    for name, value in record.get("op_times_s", {}).items():
        print(f"  {name:<44} {value:>14.6g} s")
    print(f"  {'error_rate':<44} {record['error_rate']:>14.6g} "
          f"({res['failed']}/{res['attempted']} operations)")
    for failure in record["failures"]:
        print("FAILED " + failure.rstrip(), file=sys.stderr)


def run_all(args) -> int:
    "Each workload in its own process, one after another."
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from this run (seed 1 only)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record_digests and (args.seed != DIGEST_SEED or args.workload == "all"):
        parser.error(f"--record-digests needs one workload and --seed {DIGEST_SEED}")

    cores = str(nproc())
    for var in THREAD_VARS:  # must be set before numpy loads its BLAS
        os.environ[var] = cores
    if args.workload == "all":
        return run_all(args)
    try:
        if args.setup_probe:
            print(repr(setup_probe(args.workload, args.seed)))
            return 0
        record = run_workload(args)
    except ImportError as exc:
        print(f"error: cannot run the benchmark here: {exc}", file=sys.stderr)
        return 2
    report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
