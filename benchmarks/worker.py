"""One workload in one fresh process; started by run.py, not by hand.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S
                                 --trace 0|1 --mode setup|measure

`--mode setup` imports ibodylab from this checkout's `src/`, builds the
workload's inputs, rules, grids and tables, and prints the elapsed time.
`--mode measure` does the same, then repeats whole rounds of the workload
until the next round would end after S seconds (at least one round), runs
the once-per-run checks, and prints one JSON object with the raw timings,
counts, peak RSS and an output digest.  With `--trace 1` every ibodylab
public function is wrapped in a span first, the per-layer figures are
added to the JSON, and all spans are written to `benchmarks/out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import struct
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class Round:
    """Operations of one round: their times, failures and an output digest."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times: list[float] = []
        self.failed: list[bool] = []
        self.messages: list[str] = []
        self.digest = hashlib.sha256()

    @property
    def last(self) -> int:
        return len(self.failed) - 1

    def op(self, fn, *args):
        """Run and time one operation; returns None if it raised."""
        if self.tracer is not None:
            self.tracer.begin_op()
        ctx = self.tracer.span("bench.op") if self.tracer is not None else nullcontext()
        error = None
        with ctx:
            t0 = time.perf_counter()
            try:
                out = fn(*args)
            except Exception:  # a raising operation is counted as failed
                error = traceback.format_exc(limit=3)
            t1 = time.perf_counter()
        self.times.append(t1 - t0)
        self.failed.append(error is not None)
        if error is not None:
            self.messages.append(f"op {self.last} ({fn.__name__}) raised: {error}")
            return None
        return out

    def skip(self, n: int) -> None:
        """Count n operations that could not start after a failed one."""
        for _ in range(n):
            self.failed.append(True)
            self.messages.append(f"op {self.last} skipped after a failure")

    def check(self, ok: bool, index: int, message: str) -> None:
        if not ok and not self.failed[index]:
            self.failed[index] = True
            self.messages.append(f"op {index}: {message}")

    def feed(self, *values) -> None:
        import numpy as np  # imported late: set-up timing includes numpy's import

        for v in values:
            if v is None:
                self.digest.update(b"none")
            elif isinstance(v, np.ndarray):
                self.digest.update(repr(v.shape).encode())
                self.digest.update(np.ascontiguousarray(v, dtype=float).tobytes())
            else:
                self.digest.update(struct.pack("<d", float(v)))


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        **{v: os.environ.get(v) for v in THREAD_VARS},
    }


def import_program():
    """Import ibodylab from this checkout's src/, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ibodylab

    where = Path(ibodylab.__file__).resolve().parent
    if where != (src / "ibodylab").resolve():
        raise ImportError(f"ibodylab was imported from {where}, not from {src}")
    return ibodylab


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    args = ap.parse_args(argv)

    t_start = time.perf_counter()
    import_program()
    import_s = time.perf_counter() - t_start

    import workloads

    setup, round_fn = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    t_setup = time.perf_counter()
    with span("bench.setup"):
        state = setup(args.seed)
    setup_s = import_s + (time.perf_counter() - t_setup)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workloads.PREPARE.get(args.workload, lambda s: None)(state)
    rounds: list[Round] = []
    t_loop = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        rnd = Round(tracer)
        with span("bench.round"):
            round_fn(state, rnd)
        rounds.append(rnd)
        now = time.perf_counter()
        if now - t_loop + (now - r0) > args.seconds:
            break
    try:
        errors = workloads.RUN_CHECKS.get(args.workload, lambda s: [])(state)
    except Exception:  # a raising check is a failed property, not a crash
        errors = [f"once-per-run check raised: {traceback.format_exc(limit=3)}"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    op_times = [t for r in rounds for t in r.times]
    digests = {r.digest.hexdigest() for r in rounds}
    if len(digests) != 1:
        errors.append(f"rounds on the same inputs gave {len(digests)} different outputs")
    result = {
        "setup_s": setup_s,
        "import_s": import_s,
        "rounds": len(rounds),
        "round_wall_s": [sum(r.times) for r in rounds],
        "op_times": op_times,
        "attempted": sum(len(r.failed) for r in rounds),
        "failed": sum(sum(r.failed) for r in rounds),
        "messages": [m for r in rounds for m in r.messages][:20],
        "run_errors": errors,
        "peak_rss_mb": peak_rss_mb,
        "digest": rounds[0].digest.hexdigest(),
        "env": environment(),
    }
    if tracer is not None:
        from layers import layer_metrics

        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.save(out / f"{args.workload}-seed{args.seed}.npz")
        result["layers"] = layer_metrics(tracer, import_s,
                                         statistics.median(result["round_wall_s"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
