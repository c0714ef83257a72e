"""Benchmark shardcalc's CLI end to end, or with every layer traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`, so
nothing is built.  Each CLI call runs in a fresh interpreter, one at a
time, in a closed loop: the next call starts when the last one exits.

--trace 0 calls the workload on successive inputs of a stream seeded by N
while the next call is predicted to end within S seconds (at least once).
It reports medians over the calls of wall time, CPU time and peak RSS of
each child (from os.wait4 on that child, since RUSAGE_CHILDREN keeps a
running maximum), plus the median set-up time of a fresh interpreter that
imports shardcalc and builds the CLI parser.

--trace 1 makes one untraced call and two traced ones (perfbench/traced.py)
on the stream's first input, whose seed is N, and reports the per-layer
metrics.  It checks that the traced calls give the same stdout bytes as
the untraced one and the same count metrics as each other, and reports
the tracing overhead as traced minus untraced wall time.

Every call's output is checked; a failed call counts in `failed` and is
never dropped.  The last stdout line is the JSON result; the full record,
with the environment and every sample, goes to perfbench/results/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from workloads import WORKLOADS, call_seed

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")
SETUP_CODE = "import shardcalc; shardcalc.cli.build_parser()"
SETUP_SAMPLES = 7
# Every child is killed at this many seconds after start, so that the
# benchmark exits within its 180 s limit even if the program hangs.
HARD_LIMIT_S = 170.0
ENV_CODE = (
    "import json, platform, shardcalc; print(json.dumps({"
    "'python': platform.python_version(), 'backend': shardcalc.BACKEND, "
    "'rational': shardcalc.Rational.__name__}))")


class Runner:
    """Spawns children against the checkout's `src/` and times them."""

    def __init__(self, root, deadline):
        self.deadline = deadline
        # inherited SHARDCALC_* settings (backend, rational type, output
        # directory) would change what is measured; the benchmark sets none
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("SHARDCALC_")}
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        self.env = env
        os.makedirs(RESULTS, exist_ok=True)
        self.out_path = os.path.join(RESULTS, "child.stdout")
        self.err_path = os.path.join(RESULTS, "child.stderr")

    def spawn(self, argv):
        """Run argv to exit: (wall_s, rusage, exit code, stdout bytes, error)."""
        with open(self.out_path, "wb") as out, \
                open(self.err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    env=self.env)
            killer = threading.Timer(
                max(self.deadline - t0, 0.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
        with open(self.out_path, "rb") as fh:
            stdout = fh.read()
        error = None
        if time.perf_counter() >= self.deadline:
            error = "killed at the time limit"
        elif proc.returncode not in (0, 1):
            with open(self.err_path, "rb") as fh:
                tail = fh.read()[-400:].decode("utf-8", "replace")
            error = "exit %d: %s" % (proc.returncode, tail.strip())
        return wall, usage, proc.returncode, stdout, error

    def python(self, *args):
        return self.spawn([sys.executable] + list(args))

    def environment(self):
        _, _, rc, out, error = self.python("-c", ENV_CODE)
        if rc != 0 or error:
            raise RuntimeError("cannot import shardcalc: %s" % error)
        info = json.loads(out)
        info["nproc"] = len(os.sched_getaffinity(0))
        return info

    def setup_times(self):
        """Spawn-to-exit of fresh interpreters that import and build the parser."""
        times = []
        for i in range(SETUP_SAMPLES + 1):
            wall, _, rc, _, error = self.python("-c", SETUP_CODE)
            if rc != 0 or error:
                raise RuntimeError("set-up failed: %s" % error)
            if i:  # the first call compiles bytecode and is not timed
                times.append(wall)
        return times

    def call(self, workload, seed, traced_to=None):
        """One checked CLI call of the workload, untraced or traced."""
        cli = workload.argv(seed)
        if traced_to is None:
            argv = ["-m", "shardcalc"] + cli
        else:
            argv = [os.path.join(HERE, "traced.py"), traced_to, "--"] + cli
        wall, usage, rc, stdout, error = self.python(*argv)
        if error is None:
            try:
                error = workload.check(seed, rc, stdout)
            except (ValueError, KeyError, TypeError) as exc:  # malformed
                error = "output check: %s" % exc
        return {
            "seed": seed,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "rc": rc,
            "stdout": stdout,
            "error": error,
        }


def checkout_root():
    """The current directory if it holds shardcalc's sources, else None."""
    root = os.getcwd()
    if os.path.isfile(os.path.join(root, "src", "shardcalc", "__init__.py")):
        return root
    print("error: run from the root of a shardcalc checkout "
          "(no src/shardcalc here)", file=sys.stderr)
    return None


def _stat(name, field):
    return lambda t: t["stats"].get(name, {}).get(field, 0)


def _count(name):
    return lambda t: t["counts"][name]


def _ratio(num, den):
    return lambda t: num(t) / den(t) if den(t) else 0.0


def _screen_passes(t):
    return (_stat("kernel.quick_check", "calls")(t)
            - t["counts"]["kernel.quick_check.rejects"])


def _probe_hits(t):
    return _screen_passes(t) - _stat("exactla.strictly_feasible", "calls")(t)


# (wrapped function, its per-call statistics that are metrics)
TIMED = (
    ("kernel.pivot_step", ("calls", "self_s")),
    ("kernel.quick_check", ("calls", "self_s")),
    ("kernel.sign_eval", ("calls", "self_s")),
    ("exactla.strictly_feasible", ("calls", "self_s")),
    ("exactla.rank", ("self_s",)),
    ("exactla.rowspace_reducer", ("self_s",)),
    ("exactla.kernel_basis", ("calls", "self_s")),
    ("arrangement.enumerate_shards", ("calls", "self_s")),
    ("arrangement.shard_from_signs", ("calls", "self_s")),
    ("arrangement.Shard.id", ("calls", "self_s")),
    ("calculus.arrow", ("calls", "self_s")),
    ("calculus.dual_forest_derivative", ("calls", "self_s", "incl_s")),
    ("calculus.forest_derivative", ("calls", "incl_s")),
    ("steinmann.steinmann_relations", ("incl_s", "self_s")),
    ("steinmann.RelationSet.rank", ("incl_s",)),
    ("steinmann.QuotientSpace.reduce", ("calls", "self_s")),
    ("forests.antisymmetrize", ("calls", "self_s")),
    ("audit.full_audit", ("self_s",)),
    ("audit.verify_lie_axioms", ("incl_s",)),
    ("audit.verify_module_axioms", ("incl_s",)),
    ("audit.verify_kernel_theorem", ("incl_s",)),
    ("audit.verify_factorization", ("incl_s",)),
    ("cli.main", ("self_s",)),
)


def _layer_metrics():
    """Per-layer metric name -> (unit, its value in one trace record)."""
    metrics = {}
    for name, fields in TIMED:
        for field in fields:
            metrics["%s.%s" % (name, field)] = (
                "count" if field == "calls" else "s", _stat(name, field))
    for name in ("kernel.quick_check.rejects",
                 "exactla.strictly_feasible.infeasible",
                 "steinmann.relations", "audit.instances"):
        metrics[name] = ("count", _count(name))
    metrics["kernel.quick_check.reject_ratio"] = ("ratio", _ratio(
        _count("kernel.quick_check.rejects"),
        _stat("kernel.quick_check", "calls")))
    metrics["arrangement.probe_hit_ratio"] = (
        "ratio", _ratio(_probe_hits, _screen_passes))
    metrics["cli.output_bytes"] = ("bytes", lambda t: t["output_bytes"])
    return metrics


LAYER_METRICS = _layer_metrics()


def _count_metrics(trace):
    """Everything a traced call counts; two calls with one seed must agree."""
    out = {name: s["calls"] for name, s in trace["stats"].items()}
    out.update(trace["counts"])
    out["output_bytes"] = trace["output_bytes"]
    return out


def measure(runner, workload, seed, seconds):
    """Untraced closed loop: end-to-end metrics."""
    setup = runner.setup_times()
    calls = []
    t0 = time.perf_counter()
    while True:
        calls.append(runner.call(workload, call_seed(seed, len(calls))))
        elapsed = time.perf_counter() - t0
        last = calls[-1]
        if (elapsed + last["wall_s"] > seconds
                or last["error"] and last["error"].startswith("killed")):
            break
    metrics = {
        key: (statistics.median(c[key] for c in calls), unit)
        for key, unit in (("wall_s", "s"), ("cpu_s", "s"),
                          ("peak_rss_mb", "MB"))
    }
    metrics["setup_s"] = (statistics.median(setup), "s")
    return calls, metrics, {"setup_s": setup}


def trace(runner, workload, seed):
    """One untraced and two traced calls: per-layer metrics."""
    stem = os.path.join(RESULTS, "%s-seed%d" % (workload.name, seed))
    calls = [runner.call(workload, seed)]
    traces = []
    for i in range(2):
        path = "%s.trace%d.json" % (stem, i)
        if os.path.exists(path):
            os.remove(path)
        call = runner.call(workload, seed, traced_to=path)
        calls.append(call)
        if call["error"] is None and call["stdout"] != calls[0]["stdout"]:
            call["error"] = "traced stdout differs from the untraced call"
        if not os.path.exists(path):
            call["error"] = call["error"] or "no trace written"
            continue
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        record["output_bytes"] = len(call["stdout"])
        record["wall_s"] = call["wall_s"]
        traces.append(record)
        if i:
            os.remove(path)  # the first trace, with its spans, is kept
    if len(traces) == 2 and (_count_metrics(traces[0])
                             != _count_metrics(traces[1])):
        calls[-1]["error"] = calls[-1]["error"] or (
            "count metrics differ between two traced calls")
    metrics = {}
    if traces:
        for name, (unit, value) in LAYER_METRICS.items():
            values = [value(t) for t in traces]
            # counts repeat exactly (checked above); times vary per call
            metrics[name] = (statistics.median(values) if unit == "s"
                             else values[0], unit)
        metrics["trace.overhead_s"] = (statistics.median(
            t["wall_s"] for t in traces) - calls[0]["wall_s"], "s")
    failed = sum(1 for c in calls if c["error"])
    metrics["fail_ratio"] = (failed / len(calls), "ratio")
    return calls, metrics, {}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = checkout_root()
    if root is None:
        return 2
    runner = Runner(root, started + HARD_LIMIT_S)
    workload = WORKLOADS[args.workload]
    try:
        env = runner.environment()
        if args.trace:
            calls, metrics, extra = trace(runner, workload, args.seed)
        else:
            calls, metrics, extra = measure(runner, workload, args.seed,
                                            args.seconds)
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    env["seed"] = args.seed
    failed = [c["error"] for c in calls if c["error"]]
    for error in failed:
        print("FAILED %s: %s" % (workload.name, error), file=sys.stderr)

    print("%s seed %d trace %d: %d call(s), %d failed; %s" % (
        workload.name, args.seed, args.trace, len(calls), len(failed),
        ", ".join("%s=%s" % kv for kv in sorted(env.items()))))
    for name, (value, unit) in sorted(metrics.items()):
        print("  %-44s %14.6g %s" % (name, value, unit))
    result = {
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=workload.name, trace=args.trace,
                  environment=env, samples=extra, calls=[
                      {k: v for k, v in c.items() if k != "stdout"}
                      for c in calls])
    path = os.path.join(RESULTS, "%s-seed%d-trace%d.json" % (
        workload.name, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
