"""Print the rows of the ROADMAP baseline table from one command.

    python3 perfbench/baseline.py

Run from the root of a checkout.  At seed 0 it makes three checked calls,
one at a time: `verify --n 5` untraced (CLI wall time), `stein-rank --n 6`
untraced (peak RSS of enumeration, relations and rank at n=6), and
`stein-rank --n 6` traced, whose spans give the library time of the
one-block enumeration, of `steinmann_relations` and of the relation rank.
It takes about five minutes on a 2-core machine and writes the rows to
perfbench/results/baseline.json as well.
"""

import json
import os
import sys
import time

from run import RESULTS, Runner, checkout_root
from workloads import WORKLOADS

# A stein-rank call at n=6 takes about two minutes; allow five minutes.
CALL_LIMIT_S = 300.0


def _runner(root):
    return Runner(root, time.perf_counter() + CALL_LIMIT_S)


def _call(root, name, traced_to=None):
    """One checked call of a workload at seed 0."""
    call = _runner(root).call(WORKLOADS[name], 0, traced_to=traced_to)
    if call["error"]:
        raise RuntimeError("%s: %s" % (name, call["error"]))
    return call


def main():
    root = checkout_root()
    if root is None:
        return 2
    trace_path = os.path.join(RESULTS, "baseline-relations6.trace.json")
    try:
        env = _runner(root).environment()
        v5 = _call(root, "verify5")
        r6 = _call(root, "relations6")
        _call(root, "relations6", traced_to=trace_path)
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    with open(trace_path, encoding="utf-8") as fh:
        trace = json.load(fh)
    stats = trace["stats"]
    main_span = next(s for s in trace["spans"] if s[2] == "cli.main")
    # stein-rank enumerates the one-block support first, straight from main
    one_block = next(s for s in trace["spans"]
                     if s[2] == "arrangement.enumerate_shards"
                     and s[1] == main_span[0])

    rows = [
        ("`verify --n 5` (CLI, end to end)", "%.1f s" % v5["wall_s"]),
        ("`enumerate_shards` one-block n=6",
         "%.1f s" % (one_block[4] - one_block[3])),
        ("`steinmann_relations` n=6", "%.1f s (%d relations)" % (
            stats["steinmann.steinmann_relations"]["incl_s"],
            trace["counts"]["steinmann.relations"])),
        ("relation rank n=6 (quotient dim 1082 = oracle)",
         "%.1f s" % stats["steinmann.RelationSet.rank"]["incl_s"]),
        ("peak RSS, enumerate + relations + rank at n=6",
         "%.0f MB" % r6["peak_rss_mb"]),
    ]
    print("Conditions: %d cores, CPython %s, %s, %s kernel; single runs, "
          "library rows from the traced call." % (
              env["nproc"], env["python"], env["rational"], env["backend"]))
    print()
    print("| workload | now |")
    print("|---|---|")
    for name, value in rows:
        print("| %s | %s |" % (name, value))
    with open(os.path.join(RESULTS, "baseline.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"environment": env, "rows": rows}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
