"""Alternating parent/change benchmark pairs, written to one BENCH_*.json.

Copies the parent commit (``git archive``) and the working tree's tracked
and untracked, not ignored, files into two sibling directories whose names
have equal length (``parent`` and ``change``), since the peak RSS that
``bench/run.py`` reports moves with the length of the checkout path.  Each
pair runs ``python3 bench/run.py --trace 0`` once per side, back to back,
alternating which side runs first, and compares the sides' canonical report
digests.  An optional traced run per side records per-layer counters.  A
child process per side runs the packaged scenarios and every scenario of
the paired workloads at the first seed in-process, and ``report_changes``
lists each report field whose value differs between the sides.  The same
child records each scenario's ``tracemalloc`` peak as ``memory_peaks``,
and ``memory_peak_scenarios`` names the scenario with the highest peak of
each workload on each side: the one that likely sets its ``peak_rss_mb``;
``memory_peak_tasks`` names, per scenario and side, the task whose run
reached the scenario's peak.
It then runs every scenario once more, warm and untraced, and records
the minor page faults (``ru_minflt``) of that pass per workload as
``minor_faults``: a change that frees memory the allocator then returns
to the system can show a compute saving as no ``run_s`` gain, and the
faults show that churn.

    python3 tools/bench_pairs.py --parent HEAD --workdir /tmp/pairs \\
        --pairs solve=5,closure=3,pointwise=3 --seconds 8 --seed 2501 \\
        --what "solve run_s against the parent" --out BENCH_25.json

Standard library only; run from the repository root.
"""
import argparse
import glob
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
# Child of ``_scenario_runs``: argv is ROOT SEED WORKLOAD...; prints a JSON
# object {"reports": {label: canonical report}, "memory_peaks": {label:
# tracemalloc peak in MB}, "memory_peak_tasks": {label: the label of the
# task whose run set that peak, or None}, "minor_faults": {workload:
# ru_minflt of a second, warm pass}} over the scenarios, with ROOT's src/
# and bench/ first on sys.path; the packaged scenarios are the workload
# "builtin".
REPORTS = """\
import json, os, resource, sys, tracemalloc
root, seed, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
import scenarios
import spencerkit.scenario
from spencerkit.scenario import (builtin_scenarios, emit_json, parse_scenario,
                                 run_scenario)
builtins = builtin_scenarios()
named = [(f"builtin/{name}", data) for name, data in builtins.items()]
for workload in workloads:
    built = scenarios.build(workload, seed, "full", builtins)
    named += [(f"{workload}/{k:02d}-{data['name']}", data)
              for k, data in enumerate(built)]
# Each task's run is its own stretch of the trace: the peak is read and
# reset at its start and end, and the scenario's peak is the highest
# stretch's, set by that stretch's task (None outside every task).
one_task, stretches = spencerkit.scenario._run_one_task, []

def close_stretch(task):
    stretches.append((tracemalloc.get_traced_memory()[1], task))
    tracemalloc.reset_peak()

def traced_task(scen, spec, run):
    close_stretch(None)
    try:
        return one_task(scen, spec, run)
    finally:
        close_stretch(spec.get("label", spec["task"]))

spencerkit.scenario._run_one_task = traced_task
reports, peaks, peak_tasks = {}, {}, {}
for label, data in named:
    stretches.clear()
    tracemalloc.start()
    reports[label] = emit_json(run_scenario(parse_scenario(data)))
    close_stretch(None)
    tracemalloc.stop()
    peak, peak_tasks[label] = max(stretches, key=lambda s: s[0])
    peaks[label] = peak / 2 ** 20
spencerkit.scenario._run_one_task = one_task
faults = {}
for label, data in named:
    workload = label.split("/")[0]
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    emit_json(run_scenario(parse_scenario(data)))
    faults[workload] = (faults.get(workload, 0) - before
                        + resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
json.dump({"reports": reports, "memory_peaks": peaks,
           "memory_peak_tasks": peak_tasks, "minor_faults": faults}, sys.stdout)
"""


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


def _src_lines(root):
    """Lines of the package's modules, ``src/spencerkit/*.py``, in ``root``."""
    total = 0
    for path in glob.glob(os.path.join(root, "src", "spencerkit", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def _zero_division(stderr):
    """The last ``ZeroDivisionError`` line of a failed run's error output,
    or None."""
    lines = [line.strip() for line in stderr.splitlines()
             if line.strip().startswith("ZeroDivisionError")]
    return lines[-1] if lines else None


def _bench(root, workload, seed, seconds, trace):
    """(last-line result, summary.json, retried) of one bench/run.py call in
    ``root``.  The CPU-speed probe of ``bench/speed.py`` divides by a thread
    time that can read 0; a call that dies of that ``ZeroDivisionError`` is
    run once more, and ``retried`` is the error's line (else None).  Any
    other failure, or a second one, aborts."""
    retried = None
    while True:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            cwd=root, capture_output=True, text=True)
        if proc.returncode == 0:
            break
        error = _zero_division(proc.stderr)
        if error is None or retried is not None:
            raise SystemExit(f"bench/run.py failed in {root}:\n{proc.stderr}")
        print(f"# {workload} seed {seed} in {root}: retrying after {error}",
              flush=True)
        retried = error
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(root, ".bench_out",
                        f"{workload}-seed{seed}-trace{trace}", "summary.json")
    with open(path, encoding="utf-8") as fh:
        return result, json.load(fh), retried


def _scenario_runs(root, seed, workloads):
    """The JSON object of ``REPORTS`` over the scenarios, from the code in
    ``root``."""
    proc = subprocess.run(
        [sys.executable, "-c", REPORTS, root, str(seed), *workloads],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"reports failed in {root}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _reports(root, seed, workloads):
    """(label -> canonical JSON report, label -> tracemalloc peak in MB,
    workload -> minor page faults of one warm pass) of ``_scenario_runs``."""
    doc = _scenario_runs(root, seed, workloads)
    return doc["reports"], doc["memory_peaks"], doc["minor_faults"]


def _peak_scenarios(peaks):
    """Workload -> side -> the label of its scenario with the highest
    tracemalloc peak, from side -> label -> peak; a label's workload is
    the part before its first '/'."""
    out = {}
    for side, by_label in peaks.items():
        for label, peak in by_label.items():
            top = out.setdefault(label.split("/")[0], {})
            if side not in top or peak > by_label[top[side]]:
                top[side] = label
    return out


def _leaves(doc, prefix=""):
    """Dotted path -> value of every field of a JSON object that is not an
    object itself."""
    out = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            out.update(_leaves(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def _report_fields(text):
    """(task position, task label, field) -> value over one report; the
    report's own fields have position -1 and label None."""
    doc = json.loads(text)
    tasks = doc.pop("tasks")
    fields = {(-1, None, f): v for f, v in _leaves(doc).items()}
    for k, task in enumerate(tasks):
        fields.update({(k, task["task"], f): v for f, v in _leaves(task).items()})
    return fields


def _report_changes(parent, change):
    """Every field whose JSON text differs between the sides' reports, as
    {scenario, task, field, parent, change}; a side without the field reads
    None.  Empty exactly when the reports have the same bytes."""
    changes = []
    for scenario in dict.fromkeys([*parent, *change]):
        sides = [_report_fields(reports[scenario]) if scenario in reports
                 else {} for reports in (parent, change)]
        for key in dict.fromkeys([*sides[0], *sides[1]]):
            values = [side.get(key) for side in sides]
            if json.dumps(values[0]) != json.dumps(values[1]):
                changes.append({"scenario": scenario, "task": key[1],
                                "field": key[2], "parent": values[0],
                                "change": values[1]})
    return changes


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
    record["retried"] = {side: runs[side][2] for side in SIDES if runs[side][2]}
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
           "src_lines": {side: _src_lines(roots[side]) for side in SIDES},
           "command": (f"python3 bench/run.py --workload W --seed S --seconds "
                       f"{args.seconds:g} --trace 0, run from a fresh copy of "
                       f"each commit's files in sibling directories 'parent' "
                       f"and 'change'; per pair the two sides run back to "
                       f"back, alternating which runs first"),
           "metrics_from": "the last line of bench/run.py's standard output",
           "environment": None, "traced_counts": None, "workloads": {}}
    workloads = [item.split("=")[0] for item in args.pairs.split(",")]
    scenario_runs = {side: _scenario_runs(roots[side], args.seed, workloads)
                     for side in SIDES}
    reports, peaks, peak_tasks, faults = (
        {side: scenario_runs[side][key] for side in SIDES}
        for key in ("reports", "memory_peaks", "memory_peak_tasks",
                    "minor_faults"))
    doc["report_changes_from"] = (
        f"run_scenario and emit_json in one process per side, over the "
        f"packaged scenarios and every scenario of {', '.join(workloads)} "
        f"at seed {args.seed}")
    doc["report_changes"] = _report_changes(reports["parent"],
                                            reports["change"])
    doc["memory_peaks"] = {label: {side: round(peaks[side][label], 3)
                                   for side in SIDES if label in peaks[side]}
                           for label in dict.fromkeys([*peaks["parent"],
                                                       *peaks["change"]])}
    doc["memory_peaks_from"] = (
        "the tracemalloc peak, in MB of 2**20 bytes, of each scenario's "
        "run_scenario and emit_json in the same processes")
    doc["memory_peak_scenarios"] = _peak_scenarios(peaks)
    doc["memory_peak_tasks"] = {
        label: {side: peak_tasks[side][label] for side in SIDES
                if label in peak_tasks[side]} for label in doc["memory_peaks"]}
    doc["memory_peak_tasks_from"] = (
        "the label of the task during whose run each scenario's tracemalloc "
        "peak was reached, the peak being read and reset around each task; "
        "null where it was reached outside every task")
    doc["minor_faults"] = {workload: {side: faults[side][workload]
                                      for side in SIDES}
                           for workload in faults["parent"]}
    doc["minor_faults_from"] = (
        "ru_minflt over a second, untraced pass of each workload's "
        "scenarios in the same processes, after the traced one")
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
