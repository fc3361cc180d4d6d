"""Alternating parent/change benchmark pairs, written to one BENCH_*.json.

Copies the parent commit (``git archive``) and the working tree's tracked
and untracked, not ignored, files into two sibling directories whose names
have equal length (``parent`` and ``change``), since the peak RSS that
``bench/run.py`` reports moves with the length of the checkout path.  Each
pair runs ``python3 bench/run.py --trace 0`` once per side, back to back,
alternating which side runs first, and compares the sides' canonical report
digests.  An optional traced run per side records per-layer counters.

    python3 tools/bench_pairs.py --parent HEAD --workdir /tmp/pairs \\
        --pairs solve=5,closure=3,pointwise=3 --seconds 8 --seed 2501 \\
        --what "solve run_s against the parent" --out BENCH_25.json

Standard library only; run from the repository root.
"""
import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile

SIDES = ("parent", "change")
END_TO_END = ("setup_s", "cold_run_s", "run_s", "peak_rss_mb")


def _git(*args):
    return subprocess.run(("git",) + args, check=True, capture_output=True).stdout


def _checkout(parent, workdir):
    """Fresh copies of both sides under ``workdir``; returns their paths."""
    roots = {side: os.path.join(workdir, side) for side in SIDES}
    for root in roots.values():
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root)
    with tarfile.open(fileobj=io.BytesIO(_git("archive", parent))) as tar:
        tar.extractall(roots["parent"])
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        if os.path.isfile(name):
            target = os.path.join(roots["change"], name)
            os.makedirs(os.path.dirname(target), exist_ok=True)
            shutil.copy2(name, target)
    return roots


def _bench(root, workload, seed, seconds, trace):
    """(last-line result, summary.json) of one bench/run.py call in ``root``."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench/run.py failed in {root}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(root, ".bench_out",
                        f"{workload}-seed{seed}-trace{trace}", "summary.json")
    with open(path, encoding="utf-8") as fh:
        return result, json.load(fh)


def _pair(roots, workload, seed, seconds, first):
    order = SIDES if first == "parent" else SIDES[::-1]
    runs = {side: _bench(roots[side], workload, seed, seconds, 0)
            for side in order}
    record = {"seed": seed, "first": first}
    for side in SIDES:
        metrics = runs[side][0]["metrics"]
        record[side] = {k: metrics[k]["value"] for k in END_TO_END}
    record["correct"] = all(runs[s][0]["correct"] for s in SIDES)
    record["failed"] = [runs[s][0]["failed"] for s in SIDES]
    record["attempted"] = [runs[s][0]["attempted"] for s in SIDES]
    record["report_sha256_equal"] = (runs["parent"][1]["report_sha256"]
                                     == runs["change"][1]["report_sha256"])
    print(f"# {workload} seed {seed}: run_s {record['parent']['run_s']:.3f} -> "
          f"{record['change']['run_s']:.3f}, rss "
          f"{record['parent']['peak_rss_mb']:.2f} -> "
          f"{record['change']['peak_rss_mb']:.2f}, reports equal "
          f"{record['report_sha256_equal']}", flush=True)
    return record, runs


def _summary(pairs):
    out = {}
    for key in END_TO_END:
        values = {side: [p[side][key] for p in pairs] for side in SIDES}
        lower = sum(c < p for p, c in zip(values["parent"], values["change"]))
        entry = {"parent_median": statistics.median(values["parent"]),
                 "change_median": statistics.median(values["change"]),
                 "change_lower_in": f"{lower} of {len(pairs)}"}
        if len(pairs) >= 5:
            for side in SIDES:
                q1, _, q3 = statistics.quantiles(values[side], n=4,
                                                 method="inclusive")
                entry[f"{side}_quartiles"] = [q1, q3]
        out[key] = entry
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent commit")
    parser.add_argument("--workdir", required=True,
                        help="scratch directory for the two copies")
    parser.add_argument("--pairs", default="solve=5,closure=3,pointwise=3",
                        help="workload=count list, run in this order")
    parser.add_argument("--seconds", type=float, default=8)
    parser.add_argument("--seed", type=int, default=1,
                        help="first seed; each pair takes the next one")
    parser.add_argument("--trace-workload", default="solve")
    parser.add_argument("--trace-prefix", default="crsolve.",
                        help="record traced counters whose names start with "
                             "one of these comma-separated prefixes")
    parser.add_argument("--what", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    parent = _git("rev-parse", args.parent).decode().strip()
    roots = _checkout(parent, os.path.abspath(args.workdir))
    doc = {"what": args.what, "parent_commit": parent,
           "change_commit": "the commit that adds this file",
           "source_sha256": {},
           "command": (f"python3 bench/run.py --workload W --seed S --seconds "
                       f"{args.seconds:g} --trace 0, run from a fresh copy of "
                       f"each commit's files in sibling directories 'parent' "
                       f"and 'change'; per pair the two sides run back to "
                       f"back, alternating which runs first"),
           "metrics_from": "the last line of bench/run.py's standard output",
           "environment": None, "traced_counts": None, "workloads": {}}
    seed = args.seed
    for item in args.pairs.split(","):
        workload, count = item.split("=")
        pairs = []
        for k in range(int(count)):
            first = SIDES[k % 2]
            record, runs = _pair(roots, workload, seed, args.seconds, first)
            pairs.append(record)
            seed += 1
        for side in SIDES:
            env = runs[side][1]["environment"]
            doc["source_sha256"][side] = env["source_sha256"]
        doc["environment"] = {k: env[k] for k in
                              ("nproc", "cpu_count", "python", "numpy", "blas",
                               "threads")}
        doc["workloads"][workload] = {"pairs": pairs, "summary": _summary(pairs)}
    if args.trace_workload:
        traced = {side: _bench(roots[side], args.trace_workload, seed, 4, 1)[0]
                  for side in SIDES}
        names = sorted(k for k in traced["parent"]["metrics"]
                       if k.startswith(tuple(args.trace_prefix.split(","))))
        doc["traced_counts"] = {
            "command": (f"python3 bench/run.py --workload {args.trace_workload} "
                        f"--seed {seed} --seconds 4 --trace 1"),
            "counts": {k: {side: traced[side]["metrics"][k]["value"]
                           for side in SIDES} for k in names}}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
