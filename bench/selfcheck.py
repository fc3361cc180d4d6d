"""Fast self-check of the benchmark on tiny inputs (about two minutes).

Run from the root of a checkout:  python3 bench/selfcheck.py

It runs every workload at ``--size tiny`` with and without tracing and
checks that
  * the result line has exactly the keys correct, attempted, failed and
    metrics, every output is correct, and its metric names and units are
    the ones BENCHMARK.json lists (end-to-end untraced, per-layer traced);
  * the tracer rebound every binding it must (``tracer.REQUIRED_BINDINGS``);
  * the layer predictions hold: pseudogroup closure does no work on
    ``pointwise`` and ``solve``, and every counter a workload is meant to
    exercise is nonzero on it;
  * the per-layer counts repeat exactly when a traced run is repeated;
  * in a directory holding only BENCHMARK.json and the benchmark's files
    the benchmark fails without printing a result.
Exit code 0 when every check passes, 1 otherwise.
"""
import json
import os
import shutil
import subprocess
import sys

import tracer

BYPASSED = {"pointwise": ("pseudogroup.compose.calls", "pseudogroup.covers.calls",
                          "pseudogroup.generate.calls"),
            "solve": ("pseudogroup.compose.calls", "pseudogroup.covers.calls",
                      "pseudogroup.generate.calls")}
EXERCISED = {
    "closure": ("pseudogroup.generate.calls", "pseudogroup.generate.members",
                "pseudogroup.compose.calls", "pseudogroup.covers.calls",
                "pseudogroup.invert.calls", "pseudogroup.check_ah_map.calls",
                "pseudogroup.try_evaluate.newton_points", "poly.map_compose.calls",
                "poly.evaluate.points", "linalg.solve.calls"),
    "pointwise": ("jfield.split_type.points", "jfield.eval_j.points",
                  "jfield.nijenhuis.calls", "crsolve.cr_residual.calls",
                  "poly.evaluate.points", "linalg.svd.flops"),
    "solve": ("crsolve.solve_ah.system_entries", "crsolve.independence_rank.calls",
              "charts.build_chart.calls", "charts.transition_map.calls",
              "linalg.svd.flops", "linalg.lstsq.flops", "linalg.det.calls",
              "scenario.emit_json.bytes"),
}
COUNT_UNITS = ("count", "flop", "B")


def run(args, cwd):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (lines[-1] if lines else ""), proc.stderr


def check_result(line, expected, errors, where):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} "
                      f"failed={result['failed']} attempted={result['attempted']}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(expected) - set(got))}, "
                      f"extra {sorted(set(got) - set(expected))}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if per_layer != tracer.metric_units():
        print("FAIL: per_layer in BENCHMARK.json differs from tracer.metric_units()")
        return 1
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        base = ["--workload", workload, "--seconds", "1", "--size", "tiny"]
        code, line, err = run(base + ["--seed", "1", "--trace", "0"], root)
        if code:
            errors.append(f"{workload}: untraced run exited {code}: {err[-500:]}")
            continue
        check_result(line, end_to_end, errors, f"{workload} untraced")
        layers = []
        for _ in range(2):
            code, line, err = run(base + ["--seed", "1", "--trace", "1"], root)
            if code:
                errors.append(f"{workload}: traced run exited {code}: {err[-500:]}")
                break
            layers.append(check_result(line, per_layer, errors, f"{workload} traced"))
        if len(layers) < 2:
            continue
        counts = {k for k, unit in per_layer.items() if unit in COUNT_UNITS}
        moved = sorted(k for k in counts if layers[0][k] != layers[1][k])
        if moved:
            errors.append(f"{workload}: counts differ between identical runs: {moved}")
        for name in BYPASSED.get(workload, ()):
            if layers[0][name] != 0:
                errors.append(f"{workload}: {name} = {layers[0][name]}, expected 0")
        for name in EXERCISED[workload]:
            if not layers[0][name] > 0:
                errors.append(f"{workload}: {name} = {layers[0][name]}, expected > 0")
        print(f"{workload}: checked", flush=True)

    bare = os.path.join(root, ".bench_out", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(root, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, line, _ = run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
                         "--seconds", "1", "--trace", "0"], bare)
    if code == 0 or line.startswith("{"):
        errors.append(f"bare directory: exit {code}, last line {line[:80]!r}")
    shutil.rmtree(bare, ignore_errors=True)

    for error in errors:
        print("FAIL:", error)
    print("selfcheck:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
