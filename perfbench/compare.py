#!/usr/bin/env python3
"""Parent-vs-change comparison for the repository benchmark.

Two steps:

  compare.py run --parent DIR --change DIR --workload NAME [...]
                 [--pairs 10] [--seed0 1000] [--trace 0] --out FILE
      Runs perfbench/run.py in two checkouts as alternating pairs: pair i
      uses seed seed0+i on both sides, and the side that runs first
      alternates (parent first on even pairs). Each result line is
      appended to FILE as one JSON record.

  compare.py report FILE [--benchmark BENCHMARK.json]
      Prints one row per (workload, metric) and exits 1 when any
      end-to-end metric regressed or any run was incorrect.

The rules are those of the choosing-metrics method (section 8):
  * a gain is claimed only when the change wins at least 9/10 of the
    pairs (ties count for neither side) and the medians differ by more
    than the parent's own interquartile range;
  * a metric regressed when the change's median is worse than the
    parent's by more than the metric's bound in BENCHMARK.json;
  * when the parent's spread (IQR / median) exceeds the bound the metric
    is "unresolved", unless every change run beats every parent run; that
    lifts only "unresolved", and a gain still needs the rule above;
  * a gain does not count on a workload where the change's failed share
    (failed / attempted) is above the parent's.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    """True when value a is strictly better than b."""
    return a < b if direction == "lower" else a > b


def classify(parent, change, direction, bound=None, parent_fail=0.0,
             change_fail=0.0):
    """Verdict for one (workload, metric) from paired run values.

    parent[i] and change[i] come from pair i. Returns a dict with the
    summary numbers and a verdict: improved, regressed, unchanged,
    unresolved, worse (per-layer metrics, which have no bound), or
    no-gain-more-failures.
    """
    if not parent or len(parent) != len(change):
        raise ValueError("need the same, non-zero number of runs per side")
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    losses = sum(better(p, c, direction) for p, c in zip(parent, change))
    iqr = pq3 - pq1
    spread = iqr / abs(pmed) if pmed else float("inf")
    # Signed relative change, positive = worse.
    if pmed:
        worse = (cmed - pmed) / abs(pmed)
        if direction == "higher":
            worse = -worse
    else:
        worse = 0.0 if cmed == pmed else float("inf")
    all_better = all(better(c, p, direction) for c in change for p in parent)
    gain = (wins >= WIN_SHARE * len(parent) and abs(cmed - pmed) > iqr
            and better(cmed, pmed, direction))
    loss = (losses >= WIN_SHARE * len(parent) and abs(cmed - pmed) > iqr
            and better(pmed, cmed, direction))

    if bound is None:
        verdict = "improved" if gain else "worse" if loss else "unchanged"
    elif worse > bound:
        verdict = "regressed"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif gain:
        verdict = "improved"
    else:
        verdict = "unchanged"
    if verdict == "improved" and change_fail > parent_fail:
        verdict = "no-gain-more-failures"
    return {
        "parent": (pq1, pmed, pq3),
        "change": (cq1, cmed, cq3),
        "wins": wins,
        "pairs": len(parent),
        "spread": spread,
        "worse": worse,
        "verdict": verdict,
    }


def load_spec(path):
    spec = json.loads(Path(path).read_text())
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = (m["unit"], m["better"], m["bound"])
    for m in spec["per_layer"]:
        metrics[m["name"]] = (m["unit"], m["better"], None)
    return metrics


def report(records, metrics, out=sys.stdout):
    """Print one row per (workload, metric); return the exit status."""
    by = {}
    for r in records:
        by.setdefault(r["workload"], {}).setdefault(r["pair"], {})[
            r["side"]] = r
    status = 0
    header = ("%-12s %-24s %-6s %28s %28s %8s %6s  %s" %
              ("workload", "metric", "unit", "parent q1/med/q3",
               "change q1/med/q3", "worse", "wins", "verdict"))
    print(header, file=out)
    for wl in sorted(by):
        pairs = [by[wl][k] for k in sorted(by[wl])
                 if "parent" in by[wl][k] and "change" in by[wl][k]]
        if not pairs:
            continue
        fails = {}
        for side in ("parent", "change"):
            att = sum(p[side]["result"]["attempted"] for p in pairs)
            bad = sum(p[side]["result"]["failed"] for p in pairs)
            fails[side] = bad / att if att else 0.0
        incorrect = [p[s]["seed"] for p in pairs for s in ("parent", "change")
                     if not p[s]["result"]["correct"]]
        if incorrect:
            print("%-12s incorrect runs at seeds %s" % (wl, incorrect),
                  file=out)
            status = 1
        names = [n for n in metrics
                 if all(n in p[s]["result"]["metrics"]
                        for p in pairs for s in ("parent", "change"))]
        for name in names:
            unit, direction, bound = metrics[name]
            pv = [p["parent"]["result"]["metrics"][name]["value"]
                  for p in pairs]
            cv = [p["change"]["result"]["metrics"][name]["value"]
                  for p in pairs]
            c = classify(pv, cv, direction, bound, fails["parent"],
                         fails["change"])
            if c["verdict"] == "regressed":
                status = 1
            fmt = lambda q: "%.4g/%.4g/%.4g" % q
            print("%-12s %-24s %-6s %28s %28s %+7.1f%% %3d/%-2d  %s" %
                  (wl, name, unit, fmt(c["parent"]), fmt(c["change"]),
                   100 * c["worse"], c["wins"], c["pairs"], c["verdict"]),
                  file=out)
        print("%-12s failed share: parent %.4f change %.4f" %
              (wl, fails["parent"], fails["change"]), file=out)
    return status


def run_order(pairs):
    """Side order per pair: parent first on even pairs."""
    return [("parent", "change") if i % 2 == 0 else ("change", "parent")
            for i in range(pairs)]


def run_one(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    p = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 1, "failed": 1,
                  "metrics": {}}
    if p.returncode:
        result["correct"] = False
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--parent", required=True)
    r.add_argument("--change", required=True)
    r.add_argument("--workload", action="append", required=True)
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--seed0", type=int, default=1000)
    r.add_argument("--trace", type=int, default=0, choices=(0, 1))
    r.add_argument("--out", required=True)
    p = sub.add_parser("report")
    p.add_argument("results")
    p.add_argument("--benchmark", default=str(
        Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    args = ap.parse_args()

    if args.cmd == "report":
        records = [json.loads(l) for l in Path(args.results).read_text()
                   .splitlines() if l.strip()]
        sys.exit(report(records, load_spec(args.benchmark)))

    seconds = json.loads(
        (Path(args.parent) / "BENCHMARK.json").read_text())["run_seconds"]
    dirs = {"parent": args.parent, "change": args.change}
    with open(args.out, "a") as out:
        for wl in args.workload:
            for i, order in enumerate(run_order(args.pairs)):
                for side in order:
                    res = run_one(dirs[side], wl, args.seed0 + i, seconds,
                                  args.trace)
                    rec = {"workload": wl, "pair": i, "side": side,
                           "seed": args.seed0 + i, "result": res}
                    out.write(json.dumps(rec) + "\n")
                    out.flush()
                    print("%s pair %d %s: correct=%s" %
                          (wl, i, side, res["correct"]), file=sys.stderr)


if __name__ == "__main__":
    main()
