#!/usr/bin/env python3
"""Pair the repo benchmark (cmd/pardperf) between a base ref and the working tree.

    python3 scripts/ab.py --base <ref> [--workloads colocate,observe] [--pairs 10] [--seed 42]

`make ab BASE=<ref>` is the usual entry point. The base tree is extracted
with `git archive` under .bench_build/ab/<commit>/, and each tree builds its
own pardperf with its own cmd/pardperf/run.sh. Every pair then runs both
binaries at once, each from its own tree's root, for the benchmark's
run_seconds; which binary launches first alternates between pairs.

The run stops at the first `digest` or `exact` line that differs between
the two sides of a pair, and prints it: the two trees simulate differently,
so their speeds do not compare. Otherwise it prints, per workload and
end-to-end metric, each side's median [q1-q3], the change of the medians,
how many pairs the change won ("better k/N"), whether the change's median
lies outside the base's quartile range, whether the gain is claimable and
whether the change is worse than the base by more than the metric's
BENCHMARK.json bound (see report). The `host` row is the wall-clock
sim-us/s each run prints beside the reference-second one.
"""

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def sh(cmd, cwd=ROOT, **kw):
    return subprocess.run(cmd, cwd=cwd, check=True, **kw)


def base_tree(ref):
    """Extracts ref under .bench_build/ab/<commit>/ once and returns its root."""
    sha = sh(["git", "rev-parse", "--verify", ref + "^{commit}"],
             capture_output=True, text=True).stdout.strip()
    tree = os.path.join(ROOT, ".bench_build", "ab", sha)
    if not os.path.exists(os.path.join(tree, "BENCHMARK.json")):
        os.makedirs(tree, exist_ok=True)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
        sh(["tar", "-x", "-C", tree], stdin=archive.stdout)
        if archive.wait() != 0:
            sys.exit("ab: git archive %s failed" % ref)
    return sha[:12], tree


def build(tree):
    """Builds tree's pardperf with its own run.sh and returns the binary.

    run.sh always runs what it built, so it is asked for the usage text,
    which builds the binary and exits at once."""
    sh(["bash", "cmd/pardperf/run.sh", "-h"], cwd=tree,
       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return os.path.join(tree, ".bench_build", "pardperf")


def parse(out):
    """Splits one run's stdout into its identity lines and its metrics."""
    ident, metrics, status = [], {}, None
    for line in out.splitlines():
        f = line.split()
        if line.startswith("{"):
            status = json.loads(line)
        elif line.startswith("host wall sim_us_per_s"):
            metrics["host"] = float(f[3].rstrip(","))
        elif f and f[0] in ("digest", "exact"):
            ident.append(line)
        elif len(f) == 3:
            try:
                metrics[f[0]] = float(f[1])
            except ValueError:
                pass
    if status is None or not status.get("correct") or status.get("failed"):
        sys.exit("ab: a run reported a failure:\n" + out)
    return ident, metrics


def run_pair(sides, args, seconds, first):
    """Runs both binaries at once, sides[first] launched first."""
    procs = {}
    for name in (first, 1 - first):
        binary, tree = sides[name]
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(seconds)]
        procs[name] = subprocess.Popen(cmd, cwd=tree, stdout=subprocess.PIPE,
                                       stderr=subprocess.STDOUT, text=True)
    outs = {}
    for name, p in procs.items():
        out, _ = p.communicate()
        if p.returncode != 0:
            sys.exit("ab: %s exited %d:\n%s" % (sides[name][1], p.returncode, out))
        outs[name] = parse(out)
    return outs[0], outs[1]


def num(x):
    return "%.0f" % x if abs(x) >= 1000 else "%.4g" % x


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def report(workload, metrics, base, change, label):
    """Prints one row per metric: medians [q1-q3], the change of the
    medians, pairs the change won, where its median lies against the
    base's quartiles, the claim verdict and the bound verdict.

    A gain is claimable when the change won at least nine tenths of the
    pairs and its median is better by more than the base's q3-q1. A
    metric is unresolved when the base's own q3-q1 is wider than the
    bound, unless every change run beats every base run."""
    pairs = len(base)
    print("== %s: %d pairs, seed %d, %s" % (workload, pairs, label["seed"], label["sides"]))
    print("%-19s %-27s %-27s %8s %7s  %-15s %-6s %s" % ("metric", "base median [q1-q3]",
          "change median [q1-q3]", "change", "better", "vs base q1-q3", "claim", "bound"))
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        b = [r[name] for r in base]
        c = [r[name] for r in change]
        bq1, bmed, bq3 = quartiles(b)
        cq1, cmed, cq3 = quartiles(c)
        gain = (cmed - bmed) if higher else (bmed - cmed)  # > 0: the change is better
        wins = sum(1 for x, y in zip(b, c) if (y > x if higher else y < x))
        if bq1 <= cmed <= bq3:
            where = "inside"
        else:
            where = "outside, " + ("better" if gain > 0 else "worse")
        claim = "gain" if wins >= 0.9 * pairs and gain > bq3 - bq1 else "-"
        bound = m.get("bound")
        if bound is None:
            verdict = "-"
        elif -gain > bound * bmed:
            verdict = "EXCEEDED %g%%" % (100 * bound)
        elif bq3 - bq1 > bound * bmed and not (min(c) > max(b) if higher else max(c) < min(b)):
            verdict = "unresolved"
        else:
            verdict = "ok"
        print("%-19s %-27s %-27s %+7.1f%% %3d/%-3d  %-15s %-6s %s" % (
            name, "%s [%s-%s]" % (num(bmed), num(bq1), num(bq3)), "%s [%s-%s]" % (num(cmed), num(cq1), num(cq3)),
            100 * (cmed - bmed) / bmed if bmed else 0.0, wins, pairs, where, claim, verdict))
    sys.stdout.flush()


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="git ref of the base side")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]),
                    help="comma- or space-separated workloads (default: all)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    sha, tree = base_tree(args.base)
    sides = [(build(tree), tree), (build(ROOT), ROOT)]
    metrics = list(spec["end_to_end"]) + [{"name": "host", "better": "higher"}]
    label = {"seed": args.seed, "sides": "base %s (%s) vs the working tree" % (args.base, sha)}
    for workload in args.workloads.replace(",", " ").split():
        args.workload = workload
        base, change = [], []
        for i in range(args.pairs):
            (bi, bm), (ci, cm) = run_pair(sides, args, spec["run_seconds"], first=i % 2)
            for bl, cl in itertools.zip_longest(bi, ci, fillvalue=""):
                if bl != cl:
                    print("ab: %s pair %d: the two sides simulate differently" % (workload, i + 1))
                    print("  base:   %s\n  change: %s" % (bl or "(missing)", cl or "(missing)"))
                    sys.exit(1)
            base.append(bm)
            change.append(cm)
            print("%s pair %d/%d: sim_us_per_s base %.5g change %.5g (%s first)" % (
                workload, i + 1, args.pairs, bm["sim_us_per_s"], cm["sim_us_per_s"],
                "base" if i % 2 == 0 else "change"), flush=True)
        report(workload, metrics, base, change, label)


if __name__ == "__main__":
    main()
