#!/usr/bin/env python3
"""Collects repeated benchmark runs and compares two sets of them.

    # run seeds 1..10 of a workload, one JSON line per run
    python3 perfbench/compare.py collect --workload serve_point \
        --seeds 1-10 --out base.jsonl
    # steadiness of one set: IQR / median of every end-to-end metric
    python3 perfbench/compare.py spread base.jsonl
    # two sets (e.g. parent vs change): medians, quartiles and a verdict
    python3 perfbench/compare.py diff base.jsonl change.jsonl

Quartiles are Python's statistics.quantiles(values, n=4). Bounds and the
better direction come from BENCHMARK.json. `spread` marks a metric STEADY
when its IQR is below a third of its bound (setup_s is exempt from the
spread rule). `diff` gives, per workload x end-to-end metric:
  worse       the change's median is worse than the base's by more than
              the bound;
  better      the change's median is better by more than the IQR share of
              both sides;
  unresolved  either side spreads wider than the bound and the two sets do
              not separate (not every change run beats, or loses to, every
              base run);
  same        otherwise.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def collect(a):
    s = spec()
    with open(a.out, "a") as out:
        for seed in seeds(a.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", a.workload, "--seed", str(seed),
                   "--seconds", str(a.seconds or s["run_seconds"]),
                   "--trace", str(a.trace)]
            r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True)
            last = r.stdout.rstrip("\n").split("\n")[-1]
            try:
                result = json.loads(last)
            except json.JSONDecodeError:
                result = None
            row = {"workload": a.workload, "seed": seed, "trace": a.trace,
                   "exit": r.returncode, "result": result}
            out.write(json.dumps(row) + "\n")
            out.flush()
            print(f"{a.workload} seed {seed}: exit {r.returncode}",
                  file=sys.stderr)
    return 0


def load(paths):
    """{workload: {metric: [values]}} over the trace-0 rows of `paths`."""
    out = {}
    for path in paths:
        with open(path) as f:
            for line in f:
                row = json.loads(line)
                if row.get("trace") or not row.get("result"):
                    continue
                w = out.setdefault(row["workload"], {})
                for name, m in row["result"]["metrics"].items():
                    w.setdefault(name, []).append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_share(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def spread(a):
    s = spec()
    data = load(a.files)
    ok = True
    print(f"{'workload':<12} {'metric':<16} {'n':>3} {'median':>14} "
          f"{'q1':>14} {'q3':>14} {'iqr/med':>8} {'bound':>6}  verdict")
    for w, metrics in sorted(data.items()):
        for m in s["end_to_end"]:
            vals = metrics.get(m["name"], [])
            if not vals:
                continue
            q1, q2, q3 = quartiles(vals)
            share = iqr_share(vals)
            if m["name"] == "setup_s":
                verdict = "exempt"
            elif share < m["bound"] / 3:
                verdict = "STEADY"
            elif share < m["bound"]:
                verdict = "within-bound"
                ok = False
            else:
                verdict = "TOO-WIDE"
                ok = False
            print(f"{w:<12} {m['name']:<16} {len(vals):>3} {q2:>14.6g} "
                  f"{q1:>14.6g} {q3:>14.6g} {share:>8.4f} {m['bound']:>6}  "
                  f"{verdict}")
    return 0 if ok else 1


def verdict(base, new, bound, better):
    sign = 1 if better == "lower" else -1
    b, n = statistics.median(base), statistics.median(new)
    worse_by = sign * (n - b) / abs(b) if b else 0.0
    if worse_by > bound:
        return "worse", worse_by
    wide = max(iqr_share(base), iqr_share(new)) > bound
    beats = all(sign * (x - y) < 0 for x in new for y in base)
    loses = all(sign * (x - y) > 0 for x in new for y in base)
    if wide and not (beats or loses):
        return "unresolved", worse_by
    if -worse_by > max(iqr_share(base), iqr_share(new)):
        return "better", worse_by
    return "same", worse_by


def fmt(q):
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def diff(a):
    s = spec()
    base, new = load([a.base]), load([a.change])
    print(f"{'workload':<12} {'metric':<16} {'base median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'worse by':>9}  verdict")
    worst = 0
    for w in sorted(set(base) & set(new)):
        for m in s["end_to_end"]:
            bv, nv = base[w].get(m["name"]), new[w].get(m["name"])
            if not bv or not nv:
                continue
            v, by = verdict(bv, nv, m["bound"], m["better"])
            print(f"{w:<12} {m['name']:<16} {fmt(quartiles(bv)):>36} "
                  f"{fmt(quartiles(nv)):>36} {by:>+9.2%}  {v}")
            worst = max(worst, v == "worse")
    return 1 if worst else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run seeds, append JSON lines")
    c.add_argument("--workload", required=True)
    c.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    c.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds of BENCHMARK.json")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c.add_argument("--out", required=True)
    sp = sub.add_parser("spread", help="IQR/median of one set of runs")
    sp.add_argument("files", nargs="+")
    d = sub.add_parser("diff", help="compare two sets of runs")
    d.add_argument("base")
    d.add_argument("change")
    a = ap.parse_args()
    return {"collect": collect, "spread": spread, "diff": diff}[a.cmd](a)


if __name__ == "__main__":
    sys.exit(main())
