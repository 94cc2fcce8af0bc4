"""Regenerate the reference figures in benchmarks/README.md.

    python3 benchmarks/reference.py --seeds 1-10 --traced 3

For every workload in BENCHMARK.json, runs run.py once per seed untraced
and, for the first `--traced` seeds, once more traced, each run as long as
BENCHMARK.json's `run_seconds`.  Prints Markdown tables: the median
and quartiles of every end-to-end metric with its spread (quartile range
over median), the traced per-layer medians, and the tracing overhead
(traced minus untraced wall_s on the same seed).  It also checks that each
traced run's output digest equals the untraced run's on the same seed, and
that the share of failed operations is the same in every run.  The raw
results go to benchmarks/out/reference.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    res["digest"] = next(ln.split()[-1] for ln in lines if ln.strip().startswith("digest"))
    return res


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    ap.add_argument("--traced", type=int, default=3, help="traced runs per workload")
    args = ap.parse_args(argv)
    seeds = seed_list(args.seeds)
    raw = {}
    problems = []
    for wl in WORKLOADS:
        plain = [run(wl, s, 0) for s in seeds]
        traced = [run(wl, s, 1) for s in seeds[:args.traced]]
        raw[wl] = {"seeds": seeds, "untraced": plain, "traced": traced}
        shares = {r["failed"] / r["attempted"] for r in plain + traced}
        if len(shares) != 1:
            problems.append(f"{wl}: failed shares differ between runs: {sorted(shares)}")
        for p, t in zip(plain, traced):
            if p["digest"] != t["digest"]:
                problems.append(f"{wl}: traced outputs differ from untraced ones")
        if not all(r["correct"] for r in plain + traced):
            problems.append(f"{wl}: a run reported correct = false")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "reference.json").write_text(json.dumps(raw, indent=1))

    print(f"End-to-end, {len(seeds)} seeds ({args.seeds}), {SPEC['run_seconds']} s runs\n")
    print("| workload | metric | median | Q1 | Q3 | spread |")
    print("|---|---|---|---|---|---|")
    for wl, r in raw.items():
        for name in r["untraced"][0]["metrics"]:
            vals = [x["metrics"][name]["value"] for x in r["untraced"]]
            q1, med, q3 = quartiles(vals)
            unit = r["untraced"][0]["metrics"][name]["unit"]
            print(f"| {wl} | {name} ({unit}) | {med:.4g} | {q1:.4g} | {q3:.4g} "
                  f"| {(q3 - q1) / med:.1%} |")
        att = r["untraced"][0]
        print(f"| {wl} | attempted / failed (seed {seeds[0]}) | {att['attempted']} "
              f"| | | {att['failed']} failed |")
    print("\nPer layer, traced, median over the traced seeds (per round)\n")
    names = list(next(iter(raw.values()))["traced"][0]["metrics"]) if args.traced else []
    print("| metric | unit | " + " | ".join(raw) + " |")
    print("|---|---|" + "---|" * len(raw))
    for name in names:
        unit = next(iter(raw.values()))["traced"][0]["metrics"][name]["unit"]
        cells = [f"{statistics.median(x['metrics'][name]['value'] for x in r['traced']):.4g}"
                 for r in raw.values()]
        print(f"| {name} | {unit} | " + " | ".join(cells) + " |")
    print("\nTracing overhead: traced minus untraced wall_s, same seed\n")
    print("| workload | untraced wall_s | traced wall_s | overhead |")
    print("|---|---|---|---|")
    for wl, r in raw.items():
        pairs = [(p["metrics"]["wall_s"]["value"], t["metrics"]["traced.wall_s"]["value"])
                 for p, t in zip(r["untraced"], r["traced"])]
        if pairs:
            u = statistics.median(p for p, _ in pairs)
            t = statistics.median(t for _, t in pairs)
            d = statistics.median(t - p for p, t in pairs)
            print(f"| {wl} | {u:.4g} s | {t:.4g} s | {d:+.3g} s ({d / u:+.1%}) |")
    for p in problems:
        print(f"PROBLEM {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
