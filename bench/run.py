"""spencerkit benchmark: seeded workloads through the CLI, end to end and by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload closure --seed 1 --seconds 20 --trace 0

Every workload runs in fresh processes with SPENCERKIT_THREADS=1 and BLAS
limited to one thread, each pinned to one CPU whose speed ``speed.py``
samples.  Times are rescaled to that probe's nominal speed; the raw wall
times are kept in the summary.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of one traced pass.  Details of the run (environment,
per-process times, the sha256 of every scenario's canonical JSON report and
any failure) go to ``.bench_out/<workload>-seed<seed>-trace<t>/summary.json``.

End-to-end metrics (medians over the run's processes and passes):
  setup_s      import spencerkit, generate the inputs, write the scenario
               files, in a fresh process (median over several processes)
  cold_run_s   the first pass over the workload's scenarios in a process
  run_s        a later pass; every pass re-parses its scenario files
  peak_rss_mb  peak resident memory of a workload process
Failures (a verdict other than the expected one, a wrong exit code, or
report bytes that differ from the first pass) are counted in ``failed``.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))

# Measuring processes per workload.  Each runs a cold pass and then warm
# passes for its share of --seconds.  A closure pass takes 7-10 s on a
# 2-core machine, a solve pass about 4 s and a pointwise pass about 3 s;
# these counts keep one run of any workload between 25 and 50 s.
PROCESSES = {"closure": 2, "pointwise": 3, "solve": 3}
SETUP_ONLY = 3          # extra processes that only set up, for setup_s
DEADLINE_S = 170        # the whole run, including set-up, must end by then
THREAD_ENV = {"SPENCERKIT_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END = {"setup_s": "s", "cold_run_s": "s", "run_s": "s",
              "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _environment(root, seed):
    import numpy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    package = os.path.join(root, "src", "spencerkit")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "threads": THREAD_ENV, "seed": seed, "commit": _commit(root),
            "source_sha256": digest.hexdigest()}


def _commit(root):
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.exists(head):
        return "unknown (not a git checkout)"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    path = os.path.join(root, ".git", ref)
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return f"unknown ({ref})"


class Runner:
    """Spawns worker processes one at a time and collects their results."""

    def __init__(self, root, out_dir, args, deadline):
        self.root, self.out_dir, self.args = root, out_dir, args
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        self.env.update(THREAD_ENV, PYTHONHASHSEED="0",
                        PYTHONPYCACHEPREFIX=os.path.join(root, ".bench_out",
                                                         "pycache"))

    def spawn(self, tag, mode, window=0.0):
        work_dir = os.path.join(self.out_dir, tag)
        os.makedirs(work_dir)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), self.root,
               work_dir, self.args.workload, str(self.args.seed),
               self.args.size, mode, repr(float(window))]
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        try:
            _, err = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{tag}: worker passed the {DEADLINE_S} s deadline")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0:
            raise BenchError(f"{tag}: worker exited {proc.returncode}:\n"
                             f"{err[-2000:]}")
        with open(os.path.join(work_dir, "result.json"), encoding="utf-8") as fh:
            return json.load(fh)


def _agreeing_digests(results):
    digests = [r["digests"] for r in results]
    return all(d == digests[0] for d in digests), digests[0]


def measure(runner, args):
    count = PROCESSES[args.workload]
    setup_only = [runner.spawn(f"setup{i}", "setup") for i in range(SETUP_ONLY)]
    results = [runner.spawn(f"proc{i}", "measure", args.seconds / count)
               for i in range(count)]
    setups = [r["setup_s"] for r in setup_only + results]
    values = {
        "setup_s": statistics.median(setups),
        "cold_run_s": statistics.median(r["cold_s"] for r in results),
        "run_s": statistics.median(t for r in results for t in r["warm_s"]),
        "peak_rss_mb": statistics.median(r["max_rss_kb"] / 1024.0
                                         for r in results),
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    wall = {
        "setup_s": statistics.median(r["setup_wall_s"]
                                     for r in setup_only + results),
        "cold_run_s": statistics.median(r["cold_wall_s"] for r in results),
        "run_s": statistics.median(t for r in results for t in r["warm_wall_s"]),
    }
    return metrics, results, {"setup_samples": setups, "wall_medians": wall}


def trace(runner, args):
    result = runner.spawn("traced", "trace", args.seconds / 2)
    units = tracer.metric_units()
    metrics = {k: {"value": result["layers"][k], "unit": u}
               for k, u in units.items()}
    pass_s = result["traced_wall_s"]
    shares = {name: t / pass_s for name, t in result["inclusive_s"].items()
              if name != tracer.Tracer.ROOT}
    return metrics, [result], {"inclusive_share": shares,
                               "bindings": result["bound"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PROCESSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs seconds-long inputs for the self-check")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spencerkit", "__init__.py")):
        print("error: run from the root of a spencerkit checkout "
              "(src/spencerkit not found)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    out_dir = os.path.join(root, ".bench_out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    runner = Runner(root, out_dir, args, deadline)
    try:
        runner.spawn("warmup", "setup")     # fills the bytecode cache
        metrics, results, details = (trace if args.trace else measure)(runner, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    agree, digests = _agreeing_digests(results)
    problems = [p for r in results for p in r["problems"]]
    if not agree:
        problems.append("canonical reports differ between processes")
    summary = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace, "size": args.size,
               "environment": _environment(root, args.seed),
               "fail_ratio": failed / attempted, "problems": problems,
               "report_sha256": digests, "metrics": metrics,
               "processes": results, **details}
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)

    env = summary["environment"]
    reports = hashlib.sha256("".join(digests.values()).encode()).hexdigest()
    print(f"# {args.workload} seed {args.seed}: {len(digests)} scenarios, "
          f"fail_ratio {failed}/{attempted}, reports sha256 {reports[:16]}; "
          f"python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"nproc {env['nproc']}, commit {env['commit'][:12]}")
    for problem in problems[:10]:
        print(f"# problem: {problem}")
    print(json.dumps({"correct": failed == 0 and agree, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
