"""One fresh benchmark process: set up, then run passes over a workload.

Set-up imports spencerkit from ``src/`` of the checkout, generates the seeded
scenarios and writes them as files.  A pass runs every scenario file through
``spencerkit.cli.main(["run", file])`` and checks the outcome: the exit code
must be 0, every task must report the verdict the generator expects, and
each pass's canonical JSON must match the first pass byte for byte.  Every
pass re-parses its files, so no package object carries over between passes.

Usage: python3 bench/worker.py ROOT OUT_DIR WORKLOAD SEED SIZE MODE WINDOW
where MODE is ``setup`` (set up only), ``measure`` (a cold pass, then warm
passes until WINDOW seconds have passed) or ``trace`` (like measure, then
one traced pass).  The result is written to OUT_DIR/result.json.

The process runs on one CPU with a ``speed.SpeedProbe`` sampling it; every
time is reported both as wall time (``*_wall_s``) and rescaled to the
probe's nominal speed.  Only the standard library is imported before the
timed set-up starts.
"""
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

import speed


def setup(root, out_dir, workload, seed, size):
    """Import the package, generate the workload and write its files."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import spencerkit.cli
    import spencerkit.scenario
    origin = os.path.abspath(spencerkit.__file__)
    if not origin.startswith(os.path.join(src, "")):
        raise RuntimeError(f"spencerkit imported from {origin}, not {src}")
    import scenarios
    scens = scenarios.build(workload, seed, size,
                            spencerkit.scenario.builtin_scenarios())
    files = []
    os.makedirs(os.path.join(out_dir, "scenarios"), exist_ok=True)
    for k, scen in enumerate(scens):
        path = os.path.join(out_dir, "scenarios", f"{k:02d}-{scen['name']}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scen, fh, indent=1)
        files.append((path, scen))
    return spencerkit.cli, files


def check_report(scen, code, out, err):
    """(failed tasks, problems) of one CLI run against the expectations.

    Every scenario is expected to exit 0.  A wrong exit code fails all of
    its tasks; otherwise each task whose verdict differs from the expected
    one fails.
    """
    everything = len(scen["tasks"])
    problems = [] if code == 0 else [
        f"{scen['name']}: exit code {code}: {err.strip()[:200]}"]
    try:
        tasks = json.loads(out)["tasks"]
    except (json.JSONDecodeError, KeyError) as exc:
        return everything, problems + [f"{scen['name']}: unreadable report: {exc!r}"]
    expected = [(str(t.get("label", t["task"])), t.get("expect", "pass"))
                for t in scen["tasks"]]
    if [t["task"] for t in tasks] != [label for label, _ in expected]:
        return everything, problems + [f"{scen['name']}: task list differs"]
    for task, (label, expect) in zip(tasks, expected):
        observed = task["status"] == "pass" and (
            expect == "pass" or "expected failure observed" in task["notes"])
        if not observed:
            problems.append(f"{scen['name']}/{label}: expected {expect}, "
                            f"report {task['status']} {task['notes'][:2]}")
    return (everything if code != 0 else len(problems)), problems


class Passes:
    """Runs passes and keeps the first pass's report bytes as reference."""

    def __init__(self, cli, files, probe):
        self.cli = cli
        self.files = files
        self.probe = probe
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.times = []             # (rescaled, wall) seconds per pass

    def run(self, tracer=None):
        """One pass over every file; returns its rescaled time."""
        outputs = []
        started = time.perf_counter()
        self.probe.sample()
        for k, (path, _) in enumerate(self.files):
            out, err = io.StringIO(), io.StringIO()
            span = tracer.root(k) if tracer else contextlib.nullcontext()
            with span, contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = self.cli.main(["run", path])
            outputs.append((code, out.getvalue(), err.getvalue()))
        self.probe.sample()
        ended = time.perf_counter()
        if self.reference is None:
            self.reference = [out for _, out, _ in outputs]
        for (_, scen), (code, out, err), ref in zip(
                self.files, outputs, self.reference):
            failed, problems = check_report(scen, code, out, err)
            if out != ref:
                failed = len(scen["tasks"])
                problems.append(f"{scen['name']}: report bytes differ from the first pass")
            self.attempted += len(scen["tasks"])
            self.failed += failed
            self.problems.extend(problems)
        self.times.append((self.probe.normalize(started, ended), ended - started))
        return self.times[-1][0]

    def digests(self):
        return {os.path.basename(path): hashlib.sha256(ref.encode()).hexdigest()
                for (path, _), ref in zip(self.files, self.reference)}


def main(argv):
    root, out_dir, workload, seed, size, mode, window = argv
    speed.pin_to_one_cpu()
    with speed.SpeedProbe() as probe:
        started = time.perf_counter()
        probe.sample()
        cli, files = setup(root, out_dir, workload, int(seed), size)
        probe.sample()
        ended = time.perf_counter()
        result = {"setup_s": probe.normalize(started, ended),
                  "setup_wall_s": ended - started}
        if mode != "setup":
            probe.use_numpy()
            result.update(run_passes(Passes(cli, files, probe), mode,
                                     float(window), out_dir))
    result["max_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)


def run_passes(passes, mode, window, out_dir):
    """A cold pass, warm passes until ``window`` seconds, then in trace
    mode one traced pass."""
    window_start = time.perf_counter()
    passes.run()
    while True:
        passes.run()
        if time.perf_counter() - window_start >= window:
            break
    result = {"cold_s": passes.times[0][0], "cold_wall_s": passes.times[0][1],
              "warm_s": [t for t, _ in passes.times[1:]],
              "warm_wall_s": [w for _, w in passes.times[1:]]}
    if mode == "trace":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_s = passes.run(tracer)
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(out_dir, "spans.npz"))
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = traced_s - statistics.median(result["warm_s"])
        _, inclusive = tracer.self_times()
        result.update(layers=metrics, traced_s=traced_s,
                      traced_wall_s=passes.times[-1][1], inclusive_s=inclusive,
                      bound=sorted(tracer.bound))
    result.update(attempted=passes.attempted, failed=passes.failed,
                  problems=passes.problems[:20], digests=passes.digests())
    return result


if __name__ == "__main__":
    main(sys.argv[1:])
