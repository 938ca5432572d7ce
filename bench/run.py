"""Benchmark entry point for bellmp.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (BENCHMARK.json names the workloads and
metrics).  Each run starts the workload in a fresh interpreter
(bench/workload.py) with the checkout's ``src`` on PYTHONPATH and
BELL_THREADS removed, so the optimizer never uses its thread pool.

--trace 0 launches the workload SETUP_LAUNCHES times; setup_s is the
median time from launch to the first timed solve, and the last launch
goes on to measure the end-to-end metrics.  Every time metric is given
at the reference machine speed of speed.py.  A launch's set-up time
leaves out the workload's speed probes and is scaled by the speed they
measured while it built its inputs and warmed up.  --trace 1 launches it once
for the per-layer metrics and also times the command line
(``python -m bellmp``) in fresh interpreters.

Before the result, stdout carries one ``bench-env`` line (processor
count, Python and numpy versions, BLAS thread variables) and one
``bench-info`` line (sample counts, trace flags).  The last line is the
result: {"correct", "attempted", "failed", "metrics"}.  Any failure to
run exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_LAUNCHES = 7
CLI_LAUNCHES = 3
DEADLINE_S = 170.0
THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("BELL_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def launch(cmd: list[str], deadline: float) -> tuple[float, str, str]:
    """Start cmd; return (seconds until its first output line, that
    line, the rest of its output).  The process is killed at the
    deadline and always waited for."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE)
    timer = threading.Timer(max(0.0, deadline - time.perf_counter()), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"{' '.join(cmd[1:])} exited with code {code}")
    return elapsed, first.strip(), rest


def run_workload(args, mode: str, deadline: float) -> tuple[float, float, dict | None]:
    """Launch the workload; return its set-up time in raw seconds and
    at reference speed, and its result."""
    cmd = [sys.executable, str(BENCH / "workload.py"), args.workload,
           str(args.seed), str(args.seconds), mode]
    setup_s, first, rest = launch(cmd, deadline)
    words = first.split()
    if len(words) != 3 or words[0] != "ready":
        raise BenchError(f"workload did not get ready: {first!r}")
    factor, probes_s = float(words[1]), float(words[2])
    result = json.loads(rest) if mode != "setup" else None
    return setup_s, (setup_s - probes_s) * factor, result


def measure_cli(deadline: float) -> tuple[dict[str, float], int, int]:
    """Median import time of bellmp.cli and cold-start time of
    ``python -m bellmp eval --state 1,1,1,1``; an evaluation that exits
    non-zero or does not print I = 2 counts as failed."""
    importing = [sys.executable, "-c",
                 "import time; t = time.perf_counter(); import bellmp.cli; "
                 "print(time.perf_counter() - t)"]
    evaluating = [sys.executable, "-m", "bellmp", "eval", "--state", "1,1,1,1"]
    imports, colds, failed = [], [], 0
    for _ in range(CLI_LAUNCHES):
        imports.append(float(launch(importing, deadline)[1]))
        start = time.perf_counter()
        try:
            _, first, rest = launch(evaluating, deadline)
            failed += abs(json.loads(first + rest)["I"] - 2.0) > 1e-9
        except (BenchError, ValueError, KeyError):
            failed += 1
        colds.append(time.perf_counter() - start)
    metrics = {"cli.import_s": statistics.median(imports),
               "cli.cold_start_s": statistics.median(colds)}
    return metrics, 2 * CLI_LAUNCHES, failed


def environment(numpy_version: str) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": {k: os.environ[k] for k in THREAD_VARIABLES if k in os.environ},
        "BELL_THREADS": "removed" if "BELL_THREADS" in os.environ else "unset",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected one of {names}")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "bellmp" / "__init__.py").is_file():
        print(f"bench: no bellmp package under {ROOT / 'src'}", file=sys.stderr)
        return 1
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.perf_counter() + DEADLINE_S
    try:
        if args.trace:
            _, _, result = run_workload(args, "trace", deadline)
            cli, attempted, failed = measure_cli(deadline)
            result["metrics"].update(cli)
            result["attempted"] += attempted
            result["failed"] += failed
        else:
            launches = [run_workload(args, "setup", deadline)
                        for _ in range(SETUP_LAUNCHES - 1)]
            launches.append(run_workload(args, "run", deadline))
            result = launches[-1][2]
            result["metrics"]["setup_s"] = statistics.median(s for _, s, _ in launches)
            result["info"]["raw_setup_launches_s"] = [s for s, _, _ in launches]
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    measured = result["metrics"]
    if sorted(measured) != sorted(m["name"] for m in wanted):
        print(f"bench: measured {sorted(measured)}, BENCHMARK.json names "
              f"{sorted(m['name'] for m in wanted)}", file=sys.stderr)
        return 1
    info = result.pop("info")
    print("bench-env " + json.dumps(environment(info.pop("numpy"))))
    print("bench-info " + json.dumps(info))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
