"""Compare two sets of benchmark results (or summarize one).

    python3 perfbench/run.py compare parent.jsonl change.jsonl
    python3 perfbench/run.py compare results.jsonl

The files are the JSONL records `run.py --out` appends; only untraced
runs count. Per workload and end-to-end metric this prints each side's
median and quartiles (Python's `statistics.quantiles(n=4)`), the
spread (quartile distance over the median), the fraction of pairs the
second side wins (runs paired by seed, ties counting for neither), and
a verdict against the metric's bound in BENCHMARK.json:

* better     -- the change wins at least 9 in 10 pairs and its median
                differs from the parent's by more than the parent's
                quartile distance;
* worse      -- the change's median is worse by more than the bound;
* unresolved -- the parent's spread is wider than the bound, unless
                every change run beats every parent run;
* same       -- otherwise: no regression beyond the bound.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def load(path):
    """{workload: {seed: {metric: value}}} of the untraced runs."""
    runs = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("trace"):
                continue
            values = {k: v["value"] for k, v in record["result"]["metrics"].items()}
            runs.setdefault(record["workload"], {})[record["seed"]] = values
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def verdict(parent, change, bound, higher):
    sign = 1 if higher else -1
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    gain = sign * (cm - pm) / pm
    pairs = list(zip(parent, change))
    won = sum(sign * (c - p) > 0 for p, c in pairs) / len(pairs)
    if won >= 0.9 and gain > 0 and abs(cm - pm) > p3 - p1:
        return won, "better"
    if -gain > bound:
        return won, "worse"
    dominates = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread(parent) > bound and not dominates:
        return won, "unresolved"
    return won, "same"


def row(values):
    q1, med, q3 = quartiles(values)
    return "%12.6g [%10.6g, %10.6g] %6.3f" % (med, q1, q3, spread(values))


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    metrics = load_bench()["end_to_end"]
    sides = [load(path) for path in argv]
    header = "%-12s %-18s %-5s | %-41s" % ("workload", "metric", "unit", "median [q1, q3] spread")
    if len(sides) == 2:
        header += " | %-41s | %5s | %s" % ("change median [q1, q3] spread", "won", "verdict")
    else:
        header += " | bound/3  steady"
    print(header)
    for workload in sorted(sides[0]):
        for m in metrics:
            name = m["name"]
            per_seed = [side.get(workload, {}) for side in sides]
            seeds = sorted(set(per_seed[0]).intersection(*per_seed[1:]))
            if not seeds:
                continue
            columns = [[s[seed][name] for seed in seeds] for s in per_seed]
            line = "%-12s %-18s %-5s | %s" % (workload, name, m["unit"], row(columns[0]))
            if len(sides) == 2:
                won, v = verdict(columns[0], columns[1], m["bound"], m["better"] == "higher")
                line += " | %s | %5.2f | %s" % (row(columns[1]), won, v)
            else:
                third = m["bound"] / 3
                line += " | %7.3f  %s" % (third, "yes" if spread(columns[0]) < third else "NO")
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
