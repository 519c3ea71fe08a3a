"""sfcl benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Writes the workload's inputs from
the seed (``gen.py``, its own process), then measures the workload in a
fresh process (``workloads.py``) with single-threaded BLAS. ``--trace 1``
measures once untraced and once traced, and reports the per-layer metrics
plus the tracing overhead between the two. The last line of standard output
is the JSON result; earlier lines are for people. Scratch files go under
``.perfbench_work/`` and traced spans under ``.perfbench_out/``, both inside
the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from spans import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train-desk", "eval-screen", "sida-large")
DEADLINE_S = 170   # every child must be done by then; the whole run may take 180


class BenchError(Exception):
    pass


def _child(argv, env, deadline: float) -> None:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left to start {os.path.basename(argv[1])}")
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, timeout=remaining)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise BenchError(f"{os.path.basename(argv[1])} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{os.path.basename(argv[1])} exited with {proc.returncode}")


def _measure(args, data: str, trace: int, env, deadline: float) -> dict:
    result_path = os.path.join(data, f"result-trace{trace}.json")
    argv = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", args.workload,
            "--data", data, "--seconds", str(args.seconds), "--trace", str(trace),
            "--result", result_path]
    _child(argv, env, deadline)
    with open(result_path) as fh:
        return json.load(fh)


def _terminate(signum, frame):
    # An exception, unlike the default action, lets subprocess.run kill and
    # reap the running child and lets main() remove the scratch directory.
    raise SystemExit(128 + signum)


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    signal.signal(signal.SIGTERM, _terminate)

    needed = [os.path.join(ROOT, "src", "sfcl", "__init__.py"),
              os.path.join(ROOT, "tests", "oracles.py")]
    missing = [path for path in needed if not os.path.isfile(path)]
    if missing:
        sys.stderr.write(f"perfbench: run from an sfcl source checkout; missing {missing}\n")
        return 2

    env = dict(os.environ,
               PYTHONPATH=os.path.join(ROOT, "src"),
               OPENBLAS_NUM_THREADS="1",
               SFCL_THREADS=str(len(os.sched_getaffinity(0)) if args.workload == "sida-large" else 1))
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    data = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        _child([sys.executable, os.path.join(HERE, "gen.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--out", data], env, deadline)
        runs = [_measure(args, data, 0, env, deadline)]
        if args.trace:
            runs.append(_measure(args, data, 1, env, deadline))
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(data, ignore_errors=True)

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit in _per_layer(runs[1], runs[0])}
    else:
        metrics = runs[0]["end_to_end"]
    print("env " + json.dumps(runs[0]["env"]))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _per_layer(traced: dict, untraced: dict):
    """Per-layer metrics of the traced run, plus its throughput loss against
    the untraced run of the same inputs."""
    base = untraced["end_to_end"]["throughput_per_s"]["value"]
    with_tracing = traced["end_to_end"]["throughput_per_s"]["value"]
    values = dict(traced["per_layer"],
                  **{"trace.overhead_share": 1.0 - with_tracing / base if base else 0.0})
    return [(name, values[name], unit) for name, unit in PER_LAYER]


if __name__ == "__main__":
    sys.exit(main())
