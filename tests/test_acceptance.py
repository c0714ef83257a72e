"""Acceptance gate: the ten contract criteria, one test each.

Every check uses exact equality; the two runtime criteria assert their
stated wall-clock bounds.  A summary line per criterion is printed at
the end of the session (see conftest.py).
"""

import functools
import json
import subprocess
import sys
import time

from shardcalc.arrangement import enumerate_shards, steinmann_classes
from shardcalc.audit import (
    CHAMBER_COUNTS,
    SAMPLE_SEED,
    full_audit,
    run_suite,
    zie_dimension,
)
from shardcalc.calculus import (
    ShardVector,
    dual_forest_derivative,
    forest_derivative,
    random_functional,
)
from shardcalc.exactla import rank
from shardcalc.forests import iter_forests, parse_forest
from shardcalc.ground import GroundSet, Partition
from shardcalc.steinmann import (
    is_semisimple,
    quotient_dim,
    steinmann_relations,
)

RESULTS = {}

G4 = GroundSet.of_size(4)
G5 = GroundSet.of_size(5)


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                RESULTS[num] = (label, "FAIL", time.perf_counter() - t0)
                raise
            RESULTS[num] = (label, "PASS", time.perf_counter() - t0)
        return wrapper
    return deco


def _cli(args):
    r = subprocess.run([sys.executable, "-m", "shardcalc", *args],
                       capture_output=True)
    assert r.returncode == 0, (args, r.stderr)
    return r.stdout


def _audit_entries(report):
    return {(e.claim, e.n): e for e in report.entries}


# cached heavyweight reports, shared across criteria
_FULL = {}


def _full(n):
    if n not in _FULL:
        _FULL[n] = full_audit(n)
    return _FULL[n]


@criterion(1, "chamber counts 2,6,32,370 via CLI, LP-cross-checked to n=4,"
              " under 60s")
def test_criterion_01_chamber_counts(lp_chambers):
    t0 = time.perf_counter()
    want = {2: 2, 3: 6, 4: 32, 5: 370}
    for n, count in want.items():
        out = _cli(["enumerate", "--n", str(n)])
        lines = out.decode().strip().split("\n")
        assert len(lines) == count, n
        ids = [
            "".join(json.loads(t)["signs"].values()) for t in lines]
        assert ids == sorted(ids)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, "enumeration took %.1fs" % elapsed
    # independent oracle: every sign pattern tried by exact-LP feasibility
    for n in (2, 3, 4):
        one = Partition.one_block(GroundSet.of_size(n))
        fast = [X.bits for X in enumerate_shards(one)]
        assert fast == lp_chambers(one), n
    assert CHAMBER_COUNTS[6] == 11292  # documented, behind --allow-large


@criterion(2, "Steinmann quotient dims 2,6,26,150 equal the series oracle,"
              " under 5min")
def test_criterion_02_quotient_dimensions():
    t0 = time.perf_counter()
    want = {2: 2, 3: 6, 4: 26, 5: 150}
    for n, dim in want.items():
        obj = json.loads(_cli(["stein-rank", "--n", str(n)]))
        assert obj["quotient_dim"] == dim, n
        assert obj["oracle_dim"] == zie_dimension(n) == dim, n
        assert obj["agree"] is True, n
        assert quotient_dim(GroundSet.of_size(n)) == dim, n
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, "quotients took %.1fs" % elapsed


@criterion(3, "Lie axioms exhaustive to n=4, 1000 fixed-seed instances"
              " at n=5")
def test_criterion_03_lie_axioms():
    for n in (2, 3, 4):
        report = run_suite("lie", n)
        assert report.passed, n
        for e in report.entries:
            assert e.notes is None or "seed" not in (e.notes or {}), (
                "size %d must be exhaustive" % n)
    report = run_suite("lie", 5, seed=SAMPLE_SEED)
    assert report.passed
    total = sum(e.instances for e in report.entries)
    assert total == 1000
    again = run_suite("lie", 5, seed=SAMPLE_SEED)
    assert [e.instances for e in again.entries] == \
        [e.instances for e in report.entries]


@criterion(4, "kernel theorem: relation span equals ker of the class"
              " projection, all (P,R) to n=5")
def test_criterion_04_kernel_theorem():
    for n in (2, 3, 4, 5):
        report = run_suite("kernel", n)
        assert report.passed, n
        entry = _audit_entries(report)[("kernel.span", n)]
        assert entry.passed and entry.instances > 0


@criterion(5, "projection surjectivity onto the class tensor basis,"
              " all (P,R) to n=4")
def test_criterion_05_projection_surjectivity():
    for n in (2, 3, 4):
        report = run_suite("kernel", n)
        entry = _audit_entries(report)[("kernel.surjective", n)]
        assert entry.passed, n
        assert entry.counterexample is None


@criterion(6, "factorization square commutes for every forest with <= 3"
              " cuts, every P, to n=4")
def test_criterion_06_factorization_diagram():
    for n in (2, 3, 4):
        report = run_suite("factorization", n)
        assert report.passed, n
        entry = _audit_entries(report)[("factorization.diagram", min(n, 4))]
        assert entry.passed
    entry = _audit_entries(run_suite("factorization", 4))[
        ("factorization.diagram", 4)]
    assert entry.instances >= 268


@criterion(7, "main theorem: annihilator derivatives semisimple at n=4,5;"
              " converse on a seeded outsider")
def test_criterion_07_main_theorem():
    # direct exhaustive route at n=4: every <=3-cut forest derivative of
    # every annihilator basis functional is semisimple
    one = Partition.one_block(G4)
    basis = steinmann_relations(G4).annihilator_basis()
    assert len(basis) == 26
    checked = 0
    for F in iter_forests(one, 3):
        for f in basis:
            assert is_semisimple(forest_derivative(F, f)), (
                "non-semisimple derivative of an annihilator functional")
            checked += 1
    assert checked > 0
    # audited route at n=5 plus both converses
    for n in (4, 5):
        entries = _audit_entries(_full(n))
        assert entries[("maintheorem.annihilator", n)].passed, n
        assert entries[("maintheorem.converse", n)].passed, n
    # the converse witness is honest: the seeded functional really does
    # violate some relation, and then some first derivative must fail
    f = random_functional(one, SAMPLE_SEED)
    rels = steinmann_relations(G4)
    assert any(f.evaluate_vector(v) != 0 for v in rels.relations)
    broken = []
    for F in iter_forests(one, 1):
        if len(F.cuts) == 1 and not is_semisimple(forest_derivative(F, f)):
            broken.append(F)
    assert broken, "outsider functional had only semisimple derivatives"


@criterion(8, "the two layerings of one 2-cut forest differ, and their"
              " gap lies in the relation span")
def test_criterion_08_layering_sensitivity():
    zero_dim = enumerate_shards(Partition.singletons(G4))[0]
    v1 = dual_forest_derivative(
        parse_forest(G4, "[[1,2],[3,4]]@012"), ShardVector.basis(zero_dim))
    v2 = dual_forest_derivative(
        parse_forest(G4, "[[1,2],[3,4]]@021"), ShardVector.basis(zero_dim))
    assert v1 != v2
    diff = v1 - v2
    assert not diff.is_zero()
    rels = steinmann_relations(G4)
    base_rank = rels.rank()
    rows = [{X.id(): c for X, c in v.items()} for v in rels.relations]
    rows.append({X.id(): c for X, c in diff.items()})
    assert rank(rows) == base_rank, "layering gap escapes the relation span"
    for f in rels.annihilator_basis():
        assert f.evaluate_vector(v1) == f.evaluate_vector(v2)


@criterion(9, "module axioms: unit and composition action hold to n=4")
def test_criterion_09_module_axioms():
    for n in (2, 3, 4):
        report = run_suite("module", n)
        assert report.passed, n
        entries = _audit_entries(report)
        assert entries[("module.unit", n)].passed
        assert entries[("module.action", n)].passed


@criterion(10, "fixed inputs reproduce the golden bytes exactly")
def test_criterion_10_determinism(tmp_path):
    from test_golden import CASES, _golden
    from shardcalc.cli import main
    for args, name in CASES:
        out = tmp_path / ("a_" + name)
        out2 = tmp_path / ("b_" + name)
        assert main(args + ["--out", str(out)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        data = out.read_bytes()
        assert data == out2.read_bytes(), name
        assert data == _golden(name), name
