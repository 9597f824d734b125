#!/usr/bin/env python3
"""Run every workload at several seeds and print each end-to-end metric's spread.

The spread is the distance between the first and third quartile of the runs'
values as a share of their median, which is how the driver judges whether the
benchmark is steady: every spread except setup_s must stay within the metric's
bound, and should stay below a third of it.

    python3 bench/spread.py [--runs 10] [--first-seed 1] [--out DIR] [workload ...]

Run from the checkout root. With --out, each run's full output is kept.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

root = pathlib.Path(__file__).resolve().parent.parent
spec = json.loads((root / "BENCHMARK.json").read_text())

ap = argparse.ArgumentParser()
ap.add_argument("--runs", type=int, default=10)
ap.add_argument("--first-seed", type=int, default=1)
ap.add_argument("--out")
ap.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
args = ap.parse_args()

worst = 0.0
for w in args.workloads:
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        p = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        if args.out:
            out = pathlib.Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{w}.seed{seed}.txt").write_text(p.stdout)
        if p.returncode != 0:
            sys.exit(f"{w} seed {seed}: exit {p.returncode}\n{p.stdout}\n{p.stderr}")
        res = json.loads(p.stdout.splitlines()[-1])
        if not res["correct"]:
            sys.exit(f"{w} seed {seed}: {res['failed']} of {res['attempted']} checks failed")
        for name, mv in res["metrics"].items():
            values.setdefault(name, []).append(mv["value"])
    print(f"{w}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        note = ""
        if m["name"] != "setup_s":
            worst = max(worst, spread / m["bound"])
            if spread > m["bound"]:
                note = "  ABOVE THE BOUND"
            elif spread > m["bound"] / 3:
                note = "  above a third of the bound"
        print(f"  {m['name']:<14} median {med:<12.6g} {m['unit']:<4} spread {spread:7.2%}  bound {m['bound']:.0%}{note}")
        print("    values " + " ".join(f"{x:.6g}" for x in v))
print(f"widest spread is {worst:.2f} of its bound")
