#!/usr/bin/env python3
"""Compares two sets of perfbench runs.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds one file per run: the standard output of
`perfbench/run.py ... --trace 0`. Runs are matched into pairs by
(workload, seed); run the two sides of each pair one after the other,
alternating which goes first (perfbench/README.md). For every (workload,
end-to-end metric) the table gives each side's median, quartiles and
spread (the distance between the quartiles over the median), the pairs the
change won (ties count for neither) and a verdict, decided in this order:

  improved    the change wins at least 9 in 10 pairs, the medians differ
              by more than the base's own quartile distance, and the
              change failed no more requests;
  unresolved  either side's spread is wider than the metric's bound in
              BENCHMARK.json, and not every run of the change reads better
              than every run of the base;
  worse       the change's median is worse than the base's by more than
              the bound;
  unchanged   otherwise.

The failed share (failed / attempted) has no bound: it is worse when the
change failed more requests in total, improved when fewer, and unchanged
otherwise.

Then each pair is listed with the host-noise readings of both runs (steal
and idle share over the timed section, and the fixed compute loop before
and after it), so that pairs run during a slow-host episode stand out.
The readings never adjust a metric.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(directory):
    """{(workload, seed): run} from the run files of one directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*"))):
        details, result = None, None
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                obj = json.loads(line)
                if "perfbench" in obj:
                    details = obj["perfbench"]
                elif "metrics" in obj:
                    result = obj
        if details is None or result is None or details.get("trace"):
            continue
        values = {k: m["value"] for k, m in result["metrics"].items()}
        runs[(details["workload"], int(details["seed"]))] = {
            "values": values,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "host": details.get("host", {}),
        }
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(q):
    """Quartile distance over the median."""
    return (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0


def verdict(base, change, pairs, better, bound, more_failures):
    sign = 1 if better == "higher" else -1
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    qa, qb = quartiles(base), quartiles(change)
    ma, mb = qa[1], qb[1]
    if (pairs and wins >= 0.9 * len(pairs) and abs(mb - ma) > qa[2] - qa[0]
            and sign * (mb - ma) > 0 and not more_failures):
        return wins, "improved"
    all_better = all(sign * (b - a) > 0 for a in base for b in change)
    if max(spread(qa), spread(qb)) > bound and not all_better:
        return wins, "unresolved"
    if sign * (ma - mb) > bound * abs(ma):
        return wins, "worse"
    return wins, "unchanged"


def fmt(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {spread(q):.2f}"


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def host_text(run):
    h = run["host"]
    return (f"steal {h.get('steal_share', 0):.3f} "
            f"idle {h.get('idle_share', 0):.2f} "
            f"loop {h.get('compute_before_ms', 0):.1f}/"
            f"{h.get('compute_after_ms', 0):.1f} ms")


def compare(base, change, metrics):
    print(f"{'workload':15} {'metric':15} "
          f"{'base median [q1, q3] spread':38} "
          f"{'change median [q1, q3] spread':38} {'won':>7}  verdict")
    workloads = sorted({w for w, _ in base} | {w for w, _ in change})
    for w in workloads:
        keys = sorted(k for k in set(base) & set(change) if k[0] == w)
        a_runs = [r for k, r in sorted(base.items()) if k[0] == w]
        b_runs = [r for k, r in sorted(change.items()) if k[0] == w]
        if not a_runs or not b_runs:
            continue
        fa, fb = failed_share(a_runs), failed_share(b_runs)
        for name, better, bound in metrics:
            a = [r["values"][name] for r in a_runs if name in r["values"]]
            b = [r["values"][name] for r in b_runs if name in r["values"]]
            if not a or not b:
                continue
            pairs = [(base[k]["values"][name], change[k]["values"][name])
                     for k in keys if name in base[k]["values"] and
                     name in change[k]["values"]]
            wins, v = verdict(a, b, pairs, better, bound, fb > fa)
            print(f"{w:15} {name:15} {fmt(quartiles(a)):38} "
                  f"{fmt(quartiles(b)):38} {wins:>3}/{len(pairs):<3}  {v}")
        v = "worse" if fb > fa else ("improved" if fb < fa else "unchanged")
        print(f"{w:15} {'failed_share':15} {fa:<38.4g} {fb:<38.4g} "
              f"{'':>7}  {v}")
    print()
    print("pairs (host noise: base | change)")
    for k in sorted(set(base) & set(change)):
        print(f"  {k[0]:15} seed {k[1]:<6} {host_text(base[k])} | "
              f"{host_text(change[k])}")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = [(m["name"], m["better"], m["bound"])
               for m in bench["end_to_end"]]
    compare(load_runs(sys.argv[1]), load_runs(sys.argv[2]), metrics)


if __name__ == "__main__":
    main()
