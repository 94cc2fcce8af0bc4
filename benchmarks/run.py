"""Benchmark for ibodylab: end-to-end and per-layer figures on four workloads.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is one of the workloads listed in
BENCHMARK.json, or `all` (the default) for every workload in turn.  Each
workload runs in fresh child processes with BLAS and OpenMP pinned to one
thread: with `--trace 0`, SETUP_REPEATS - 1 processes that only set up,
then one that sets up and measures whole rounds for S seconds.  With
`--trace 1` one traced process reports the per-layer figures instead.

`setup_s` is the least of the SETUP_REPEATS set-up times: the host's CPU
speed changes for stretches of seconds, and a set-up is short.

Every figure is printed by name with its unit, then the environment and
the digest of the first round's outputs, and last one JSON line:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 when
the workload ran; a failed operation does not change it, a crash does.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
# beyond --seconds, for the set-up processes, the measuring process's own
# set-up and its once-per-run checks
OVERHEAD_S = 120
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class ChildError(RuntimeError):
    pass


def load_spec() -> dict:
    """BENCHMARK.json: the workload names and every metric's unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_child(workload: str, seed: int, seconds: float, trace: int, mode: str,
              deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--mode", mode]
    env = {**os.environ, **PINNED_ENV}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{workload} ({mode}) did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{workload} ({mode}) exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(setup_times: list[float], res: dict) -> dict:
    ops = res["op_times"]
    return {
        "setup_s": min(setup_times),
        "wall_s": statistics.median(res["round_wall_s"]),
        "op_s_p50": statistics.median(ops),
        "op_s_p90": statistics.quantiles(ops, n=10)[-1] if len(ops) > 1 else ops[0],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def with_units(values: dict, specs: list[dict]) -> dict:
    units = {m["name"]: m["unit"] for m in specs}
    if list(values) != list(units):
        raise RuntimeError("measured figures and BENCHMARK.json's metrics disagree")
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + seconds + OVERHEAD_S
    setup_times = []
    if not trace:
        setup_times = [run_child(workload, seed, seconds, 0, "setup", deadline)["setup_s"]
                       for _ in range(SETUP_REPEATS - 1)]
    res = run_child(workload, seed, seconds, trace, "measure", deadline)
    setup_times.append(res["setup_s"])
    if trace:
        metrics = with_units(res["layers"], spec["per_layer"])
    else:
        metrics = with_units(end_to_end(setup_times, res), spec["end_to_end"])
    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {trace}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']!r} {m['unit']}")
    ops = res["op_times"]
    above = sum(t > metrics["op_s_p90"]["value"] for t in ops) if not trace else None
    print(f"  round walls {res['round_wall_s']}")
    print(f"  rounds {res['rounds']}  operations timed {len(ops)}"
          + (f"  above op_s_p90 {above}" if above is not None else ""))
    print(f"  attempted {res['attempted']}  failed {res['failed']}")
    for msg in res["messages"] + res["run_errors"]:
        print(f"  FAILED {msg.strip()}")
    print(f"  env {json.dumps(res['env'], sort_keys=True)}")
    print(f"  setup_s samples {setup_times}")
    print(f"  digest {res['digest']}")
    return {
        "correct": not res["run_errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    if not (ROOT / "src" / "ibodylab" / "__init__.py").is_file():
        print(f"run.py: no ibodylab sources under {ROOT / 'src'}; "
              "run from the root of an ibodylab checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    workloads = tuple(w["name"] for w in spec["workloads"])
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=("all",) + workloads)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    names = workloads if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(spec, name, args.seed, args.seconds, args.trace)
    except ChildError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
