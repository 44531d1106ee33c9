"""uavbsc benchmark: one workload, timed end to end or traced layer by layer.

Run from the repository root:

    python3 benchmarks/run.py --workload campaign --seed 0 --seconds 55 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` prints the per-layer metrics of a traced run.  The inputs
come from ``--seed`` alone (seed 0 is the default; seed 20261017 is held
out for checking a claim).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, each
metric with its unit.  The lines before it give the machine facts, the
workload inputs and a SHA-256 digest of the untimed run results.

This script uses the standard library only: it times set-up by starting
fresh interpreters, then runs the workload in ``work.py`` in one more
child process so that memory is measured for that process alone.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("campaign", "sweep")
REQUIRED = ("src/uavbsc/__init__.py", "configs/reference.json")
DEFAULT_SEED = 0
HELD_OUT_SEED = 20261017
# Set-up is timed in fresh interpreters, half before and half after the
# workload, so that a slow spell of a shared machine weighs on fewer of
# them.  One discarded warm-up comes first, so that the file cache (and
# __pycache__, where bytecode is written) is filled.
SETUP_PROBES = 10
TIME_LIMIT_S = 170.0
NOTES = ("nothing was pinned to a CPU, no cache was dropped and no machine "
         "setting was changed; the machine may be shared, so timings are "
         "medians over repeated passes")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "evals_per_s": "1/s",
    "peak_rss_mb": "MB",
    "rate_mbps": "Mbit/s",
    "feasible_frac": "ratio",
    "ok_frac": "ratio",
}


def unit_of(name: str) -> str:
    """Unit of a metric, from its name."""
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith((".calls", ".genomes", ".generations", ".spans")):
        return "count"
    if name.endswith(("_us_p50", "_us_p99", ".us_per_genome")):
        return "us"
    if name.endswith("_s"):
        return "s"
    if ".rate_mbps." in name:
        return "Mbit/s"
    if name.endswith(".batch_mean"):
        return "genomes"
    return "ratio"


def machine_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_before": list(os.getloadavg()),
    }
    try:
        facts["cgroup_cpu_max"] = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        facts["cgroup_cpu_max"] = None
    return facts


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def stop(proc: subprocess.Popen) -> None:
    """Kill a child and everything it started, then reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def setup_seconds(workload: str, env: dict) -> float:
    """Time from starting a fresh interpreter to uavbsc being ready."""
    started = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "work.py"), "--workload", workload,
         "--setup-only"],
        stdout=subprocess.PIPE, text=True, env=env, start_new_session=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - started
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    finally:
        if proc.poll() is None:
            stop(proc)
        proc.stdout.close()
    return elapsed


def run_workload(args, env: dict, deadline: float) -> dict:
    """Run work.py for the measured part and return its result object."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "work.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True, env=env, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("workload did not finish in time") from None
    finally:
        if proc.poll() is None:
            stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"workload exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is "
             "held out for confirming a claim)")
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write(f"benchmark: missing {', '.join(missing)}; run it "
                         "from a checkout of the repository\n")
        return 2

    deadline = monotonic() + TIME_LIMIT_S
    facts = machine_facts()
    env = child_env()
    probes = 0 if args.trace else SETUP_PROBES // 2
    try:
        setup = [setup_seconds(args.workload, env)
                 for _ in range(probes + 1)][1:] if probes else []
        result = run_workload(args, env, deadline)
        setup += [setup_seconds(args.workload, env) for _ in range(probes)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark: {exc}\n")
        return 1

    facts["numpy"] = result["numpy"]
    facts["loadavg_after"] = list(os.getloadavg())
    metrics = dict(result["metrics"])
    if setup:
        metrics["setup_s"] = statistics.median(setup)
    print("machine " + json.dumps(facts, sort_keys=True))
    print("notes " + NOTES)
    print("inputs " + json.dumps(result["inputs"], sort_keys=True))
    print(f"digest {result['workload']} sha256={result['digest']} "
          f"passes={result['passes']} "
          f"evaluations_per_pass={result['evaluations_per_pass']}")
    print("rates_mbps " + json.dumps(result["rates_mbps"], sort_keys=True))
    print("pass_wall_s " + json.dumps(result["pass_wall_s"]))
    if setup:
        print("setup_s " + json.dumps(setup))
    if "spans_file" in result:
        print(f"spans {result['spans_file']} count={result['spans']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
