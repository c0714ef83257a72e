"""The benchmark's workloads: the CLI argv a seed generates, and the check
that each call's output is correct.

The seed reaches shardcalc only through argv.  A run's calls take
successive inputs of a stream seeded by the run's seed (`call_seed`), so a
run's median averages over inputs.  `verify5` passes the input seed as the
audit's sampling seed.  The other workloads permute the ground labels by
it, which moves the chamber walk's start point and so the order and
number of LP solves; input seed 0 keeps the labels 1..n.
"""

import hashlib
import json
import random

DEFAULT_SEED = 0

# Claim -> [size checked, instance count] of `verify --n 5`.  Sampled
# claims draw a fixed number of instances, so this holds for every seed,
# except for delayering.separation: it stops at the first of the 24
# layering pairs at n=4 that its seeded functional tells apart.
SEPARATION_PAIRS = 24
VERIFY5_CLAIMS = {
    "calculus.functoriality": [5, 200],
    "counts.maximal_shards": [5, 5],
    "delayering.annihilator": [4, 624],
    "delayering.separation": [4, None],
    "dims.series": [5, 5],
    "duality.relations": [5, 9],
    "factorization.diagram": [4, 268],
    "factorization.dimension": [5, 4],
    "kernel.span": [5, 358],
    "kernel.surjective": [4, 60],
    "lie.antisymmetry": [5, 500],
    "lie.jacobi": [5, 500],
    "maintheorem.annihilator": [5, 265650],
    "maintheorem.converse": [5, 1],
    "module.action": [4, 533],
    "module.coset_kernel": [4, 30],
    "module.layering": [4, 24],
    "module.unit": [4, 93],
}


def call_seed(seed, call):
    """Input seed of a run's call-th call: the run's seed, then derived ones."""
    if call == 0:
        return seed
    return random.Random("%d/%d" % (seed, call)).getrandbits(63)


def labels_for(n, seed):
    """Ground labels 1..n, shuffled by seed unless it is the default."""
    labels = [str(i) for i in range(1, n + 1)]
    if seed != DEFAULT_SEED:
        random.Random(seed).shuffle(labels)
    return labels


class Workload:
    """One CLI call: `argv(seed)` builds it from an input seed and
    `check(seed, rc, stdout)` returns None or what is wrong with its output.
    """

    def __init__(self, name, why, argv, check):
        self.name = name
        self.why = why
        self.argv = argv
        self.check = check


def _verify_argv(seed):
    return ["verify", "--n", "5", "--seed", str(seed % (1 << 64))]


def _check_verify(seed, rc, out):
    payload = json.loads(out)
    if rc != 0 or payload.get("passed") is not True:
        return "verify reported a failed claim (exit %d)" % rc
    failed = [e["claim"] for e in payload["entries"] if not e["passed"]]
    if failed:
        return "claims failed: %s" % ", ".join(failed)
    got = {e["claim"]: [e["n"], e["instances"]] for e in payload["entries"]}
    separation = got.get("delayering.separation", [4, 0])
    if not 1 <= separation[1] <= SEPARATION_PAIRS:
        return "delayering.separation checked %d pairs" % separation[1]
    separation[1] = None
    if got != VERIFY5_CLAIMS:
        return "claim names or instance counts differ from the reference"
    return None


def _enumerate(n, cut, shards, sha256):
    """`enumerate` of the two-block support (first cut labels | the rest).

    Checks the shard count, that no line repeats and, at seed 0, the
    sha256 of stdout.
    """
    def argv(seed):
        labels = labels_for(n, seed)
        support = "(%s|%s)" % ("".join(labels[:cut]), "".join(labels[cut:]))
        return ["enumerate", "--partition", support,
                "--labels", ",".join(labels), "--allow-large"]

    def check(seed, rc, out):
        if rc != 0:
            return "exit %d" % rc
        lines = out.splitlines()
        if len(lines) != shards or len(set(lines)) != shards:
            return "%d lines (%d distinct), want %d distinct" % (
                len(lines), len(set(lines)), shards)
        if seed == DEFAULT_SEED and hashlib.sha256(out).hexdigest() != sha256:
            return "stdout differs from the pinned sha256"
        return None

    return argv, check


def _stein_rank6():
    """`stein-rank` at n=6 against the README's reference values."""
    def argv(seed):
        return ["stein-rank", "--labels", ",".join(labels_for(6, seed)),
                "--allow-large"]

    def check(seed, rc, out):
        if rc != 0:
            return "exit %d" % rc
        payload = json.loads(out)
        want = {"ground": labels_for(6, seed), "shards": 11292,
                "relation_rank": 10210, "quotient_dim": 1082,
                "oracle_dim": 1082, "agree": True}
        got = {key: payload.get(key) for key in want}
        if got != want:
            return "stein-rank payload %r, want %r" % (got, want)
        return None

    return argv, check


WORKLOADS = {w.name: w for w in (
    Workload("verify5",
             "all 18 audit claims at n=5: derivatives, Shard.id and the "
             "audit do the work; the LP is almost idle",
             _verify_argv, _check_verify),
    Workload("twoblock33",
             "chamber walk of the support (123|456) at n=6: small flats "
             "where most LPs are infeasible, as in stein-rank's relation pass",
             *_enumerate(6, 3, 1296, "ff3f64454d6133f0a628edaea3096682dcef"
                                     "7fac139173be2c0b2b9fc891e152")),
    # Not timed by BENCHMARK.json: one call takes about two minutes and
    # 306 MB.  perfbench/baseline.py runs it for the baseline table.
    Workload("relations6",
             "stein-rank at n=6: enumeration, relations and rank",
             *_stein_rank6()),
)}
