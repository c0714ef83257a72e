import collections
import itertools
import json
import types
from fractions import Fraction

import pytest

from shardcalc import audit, calculus, forests, steinmann
from shardcalc.arrangement import enumerate_shards
from shardcalc.audit import (
    CHAMBER_COUNTS,
    SAMPLE_SEED,
    AuditEntry,
    AuditReport,
    _shard_ref,
    _vector_ref,
    full_audit,
    replay_counterexample,
    run_suite,
    zie_dimension,
)
from shardcalc.calculus import (
    Functional,
    InvariantViolation,
    ShardVector,
    _functional_index,
    dual_forest_derivative,
    dual_rows,
    random_functional,
)
from shardcalc.exactla import rank
from shardcalc.forests import (
    Cut,
    LayeredForest,
    compose,
    cut_forest,
    format_forest,
    identity_forest,
    iter_forests,
    parse_forest,
)
from shardcalc.ground import GroundSet, Partition, all_partitions
from shardcalc.steinmann import steinmann_classes, steinmann_relations

G3 = GroundSet.of_size(3)
G4 = GroundSet.of_size(4)


def series_oracle(upto):
    # -log(2 - e^x) recomputed with Fraction arithmetic only
    fact = [1]
    for k in range(1, upto + 1):
        fact.append(fact[-1] * k)
    u = [Fraction(0)] + [Fraction(1, fact[k]) for k in range(1, upto + 1)]
    total = [Fraction(0)] * (upto + 1)
    power = [Fraction(1)] + [Fraction(0)] * upto
    for m in range(1, upto + 1):
        nxt = [Fraction(0)] * (upto + 1)
        for a in range(upto + 1):
            for b in range(1, upto + 1 - a):
                nxt[a + b] += power[a] * u[b]
        power = nxt
        for d in range(upto + 1):
            total[d] += power[d] / m
    dims = []
    for nn in range(1, upto + 1):
        c = total[nn] * fact[nn]
        assert c.denominator == 1
        dims.append(int(c))
    return dims


def bell(n):
    # Bell numbers by the triangle recurrence
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def test_zie_series_matches_fraction_oracle():
    want = series_oracle(12)
    got = [zie_dimension(k) for k in range(1, 13)]
    assert got == want
    assert got[:6] == [1, 2, 6, 26, 150, 1082]
    with pytest.raises(ValueError):
        zie_dimension(0)
    with pytest.raises(ValueError):
        zie_dimension(13)


def test_run_suite_rejects_unknown_suite():
    # the CLI's "all" is run_suite's "full"
    for name in ("all", "nope"):
        with pytest.raises(ValueError, match="factorization or \"full\"") as exc:
            run_suite(name, 3)
        assert repr(name) in str(exc.value)


def test_lie_axioms_counts_small():
    # n=2: the single bipartition of (1|2), one tree each side
    r = run_suite("lie", 2)
    assert r.passed
    assert r.entry("lie.antisymmetry").instances == 1
    assert r.entry("lie.jacobi").instances == 0
    # n=3: 6 bipartitions of the blocks of (1|2|3), doubletons carry two
    # trees, so 3*1 + 3*2 over singletons plus one pair for each of the
    # three two-block partitions
    r = run_suite("lie", 3)
    assert r.passed
    assert r.entry("lie.antisymmetry").instances == 12
    assert r.entry("lie.jacobi").instances == 1


def test_lie_axioms_exhaustive_n4():
    r = run_suite("lie", 4)
    assert r.passed
    assert r.entry("lie.antisymmetry").instances > 100
    assert r.entry("lie.jacobi").instances > 10


def test_lie_axioms_bounds():
    with pytest.raises(ValueError):
        run_suite("lie", 1)
    with pytest.raises(ValueError):
        run_suite("lie", 6)


def test_module_axioms_small():
    r = run_suite("module", 3)
    assert r.passed
    assert r.entry("module.unit").instances == 13
    assert r.entry("module.action").instances == 49
    with pytest.raises(ValueError):
        run_suite("module", 5)


def test_module_axioms_n4():
    r = run_suite("module", 4)
    assert r.passed
    # the relation span itself must ride through the identity tree
    assert r.entry("module.coset_kernel").instances >= len(
        steinmann_relations(G4).relations)
    assert r.entry("module.layering").instances > 0


def test_kernel_theorem_pair_counts():
    # pairs (P, R) with P finer than R number sum over R of the product
    # of Bell numbers of the block sizes
    for n, want in ((2, 3), (3, 12), (4, 60)):
        r = run_suite("kernel", n)
        assert r.passed
        assert r.entry("kernel.span").instances == want
        assert r.entry("kernel.surjective").instances == want
    assert bell(4) == 15 and bell(5) == 52


def test_factorization_suite():
    r = run_suite("factorization", 3)
    assert r.passed
    assert r.entry("factorization.dimension").instances == bell(3)
    r = run_suite("factorization", 4)
    assert r.passed
    assert r.entry("factorization.dimension").instances == bell(4)


def test_full_audit_small_and_json():
    r = full_audit(2)
    assert r.passed
    claims = [e.claim for e in r.entries]
    assert claims == sorted(claims)
    assert "lie.antisymmetry" in claims
    assert "maintheorem.converse" not in claims  # no relations below four
    assert "delayering.separation" not in claims
    obj = r.to_json_obj()
    text = json.dumps(obj, sort_keys=True)
    assert '"passed": true' in text
    assert r.format_text().startswith("suite full at n=2: PASS")


def test_full_audit_n3_claim_set():
    r = full_audit(3)
    assert r.passed
    got = {e.claim for e in r.entries}
    assert got == {
        "calculus.functoriality",
        "counts.maximal_shards",
        "dims.series",
        "duality.relations",
        "factorization.diagram",
        "factorization.dimension",
        "kernel.span",
        "kernel.surjective",
        "lie.antisymmetry",
        "lie.jacobi",
        "maintheorem.annihilator",
        "module.action",
        "module.coset_kernel",
        "module.layering",
        "module.unit",
    }
    for e in r.entries:
        assert e.statement
        assert e.counterexample is None


def test_audit_entry_json_shape():
    e = AuditEntry("x.y", "statement", 3, 7, False,
                   counterexample={"claim": "x.y"}, notes={"seed": 1})
    obj = e.to_json_obj()
    assert obj["passed"] is False
    assert obj["counterexample"] == {"claim": "x.y"}
    assert obj["notes"] == {"seed": 1}
    ok = AuditEntry("x.y", "statement", 3, 7, True)
    assert "counterexample" not in ok.to_json_obj()


def test_audit_report_merge_sorts_and_verdicts():
    # run_suite keeps the table's order; the full audit sorts by claim
    table = [e.claim for e in audit.run_suite("full", 2).entries]
    assert table != sorted(table)
    assert [e.claim for e in full_audit(2).entries] == sorted(table)
    report = AuditReport("full", 2, [AuditEntry("b.claim", "s", 2, 1, True),
                                     AuditEntry("a.claim", "s", 2, 1, False)])
    assert not report.passed
    assert "FAIL" in report.format_text()
    with pytest.raises(KeyError):
        report.entry("missing")


def _antisym_instance():
    split = Partition(G4, [0b0011, 0b1100])
    merged = Partition(G4, [0b1111])
    inner = LayeredForest(
        split, [Cut(G4, 0b0011, 0b0001), Cut(G4, 0b1100, 0b0100)])
    A = compose(cut_forest(merged, 0b1111, 0b0011), inner)
    B = compose(cut_forest(merged, 0b1111, 0b1100), inner)
    X = enumerate_shards(A.target)[0]
    return {
        "claim": "lie.antisymmetry",
        "ground": list(G4.labels),
        "forests": [format_forest(A), format_forest(B)],
        "shard": _shard_ref(X),
    }


def test_replay_antisymmetry_true_and_false():
    ce = _antisym_instance()
    assert replay_counterexample(ce) is True
    bad = dict(ce, forests=[ce["forests"][0], ce["forests"][0]])
    assert replay_counterexample(bad) is False


def test_replay_jacobi():
    merged = Partition(G4, [0b1111])
    split = Partition(G4, [0b0011, 0b0100, 0b1000])
    inner = LayeredForest(split, [Cut(G4, 0b0011, 0b0001)])
    B1, B2, B3 = 0b0011, 0b0100, 0b1000
    terms = []
    for Ba, Bb in ((B1, B2), (B3, B1), (B2, B3)):
        skel = LayeredForest(
            merged, [Cut(G4, 0b1111, Ba | Bb), Cut(G4, Ba | Bb, Ba)])
        terms.append(compose(skel, inner))
    X = enumerate_shards(terms[0].target)[0]
    ce = {
        "claim": "lie.jacobi",
        "ground": list(G4.labels),
        "forests": [format_forest(F) for F in terms],
        "shard": _shard_ref(X),
    }
    assert replay_counterexample(ce) is True
    assert replay_counterexample(dict(ce, forests=ce["forests"][:2])) is False


def test_replay_module_claims():
    one = Partition.one_block(G4)
    X = enumerate_shards(one)[0]
    ce = {
        "claim": "module.unit",
        "ground": list(G4.labels),
        "forests": [format_forest(identity_forest(one))],
        "shard": _shard_ref(X),
    }
    assert replay_counterexample(ce) is True

    T = parse_forest(G4, "[12,34]")
    F = parse_forest(G4, "[1,2]|34")
    Y = enumerate_shards(F.target)[0]
    ce = {
        "claim": "module.action",
        "ground": list(G4.labels),
        "forests": [format_forest(T), format_forest(F)],
        "shard": _shard_ref(Y),
    }
    assert replay_counterexample(ce) is True

    rel = steinmann_relations(G4).relations[0]
    ce = {
        "claim": "module.coset_kernel",
        "ground": list(G4.labels),
        "forests": [format_forest(identity_forest(one))],
        "vector": _vector_ref(one, rel.entries),
    }
    assert replay_counterexample(ce) is True
    bad = dict(ce, vector=_vector_ref(one, {X: 1}))
    assert replay_counterexample(bad) is False

    FL = parse_forest(G4, "[[1,2],[3,4]]@L")
    FR = parse_forest(G4, "[[1,2],[3,4]]@R")
    Z = enumerate_shards(FL.target)[0]
    ce = {
        "claim": "module.layering",
        "ground": list(G4.labels),
        "forests": [format_forest(FL), format_forest(FR)],
        "shard": _shard_ref(Z),
    }
    assert replay_counterexample(ce) is True


def test_replay_kernel_and_factorization_claims():
    base = {"ground": list(G4.labels), "fine": "(1|2|34)", "coarse": "(12|34)"}
    assert replay_counterexample(dict(base, claim="kernel.span")) is True
    assert replay_counterexample(dict(base, claim="kernel.surjective")) is True

    P = Partition.parse(G4, "(12|34)")
    F = parse_forest(G4, "[1,2]|34")
    X = enumerate_shards(F.target)[0]
    ce = {
        "claim": "factorization.diagram",
        "ground": list(G4.labels),
        "support": P.format(),
        "forests": [format_forest(F)],
        "shard": _shard_ref(X),
    }
    assert replay_counterexample(ce) is True

    from shardcalc.steinmann import simple_flat

    factors = [random_functional(simple_flat(P, T), 11 + j)
               for j, T in enumerate(P.blocks)]
    ce = {
        "claim": "factorization.diagram",
        "ground": list(G4.labels),
        "support": P.format(),
        "forests": [format_forest(F)],
        "functionals": [f.to_json_obj() for f in factors],
    }
    assert replay_counterexample(ce) is True

    ce = {
        "claim": "factorization.dimension",
        "ground": list(G4.labels),
        "support": "(12|34)",
    }
    assert replay_counterexample(ce) is True


def test_replay_maintheorem_and_global_claims():
    one = Partition.one_block(G4)
    basis = steinmann_relations(G4).annihilator_basis()
    F = parse_forest(G4, "[12,34]")
    cls = [c for c in steinmann_classes(F.target, F.target) if len(c) > 1][0]
    ce = {
        "claim": "maintheorem.annihilator",
        "ground": list(G4.labels),
        "forests": [format_forest(F)],
        "functional": basis[0].to_json_obj(),
        "shards": [_shard_ref(cls[0]), _shard_ref(cls[1])],
    }
    assert replay_counterexample(ce) is True

    f = random_functional(one, SAMPLE_SEED)
    ce = {
        "claim": "maintheorem.converse",
        "ground": list(G4.labels),
        "functional": f.to_json_obj(),
    }
    assert replay_counterexample(ce) is True
    assert replay_counterexample(dict(ce, functional=None)) is False

    ce = {
        "claim": "delayering.annihilator",
        "ground": list(G4.labels),
        "forests": ["[[1,2],[3,4]]@L", "[[1,2],[3,4]]@R"],
        "functional": basis[0].to_json_obj(),
        "shard": _shard_ref(enumerate_shards(
            parse_forest(G4, "[[1,2],[3,4]]@L").target)[0]),
    }
    assert replay_counterexample(ce) is True

    assert replay_counterexample({
        "claim": "delayering.separation",
        "ground": list(G4.labels),
        "seed": SAMPLE_SEED,
    }) is True
    assert replay_counterexample({
        "claim": "duality.relations",
        "ground": list(G4.labels),
        "functional": basis[0].to_json_obj(),
    }) is True
    assert replay_counterexample({
        "claim": "counts.maximal_shards",
        "ground": list(G4.labels),
    }) is True
    assert replay_counterexample({
        "claim": "dims.series",
        "ground": list(G4.labels),
    }) is True
    for malformed in ({"claim": "no.such", "ground": ["1"]}, ["dims.series"],
                      {"ground": ["1"]}, {"claim": "dims.series"},
                      {"claim": "dims.series", "ground": 5},
                      {"claim": "kernel.span", "ground": ["1", "2"]}):
        with pytest.raises(ValueError):
            replay_counterexample(malformed)


@pytest.mark.parametrize("case", ["zero-denominator", "bool", "float",
                                  "non-face", "oversized"])
def test_replay_refuses_what_the_cli_refuses(case, monkeypatch):
    # exact values only, shards that are faces of their support, and no
    # ground above its claim's sizes: seven labels are refused before the
    # one-block walk over 1,066,044 chambers could start
    def never(P):
        raise AssertionError("enumerated the shards of %s" % P.format())

    if case == "oversized":
        monkeypatch.setattr(audit, "enumerate_shards", never)
        ce = {"claim": "counts.maximal_shards", "ground": list("1234567")}
    elif case == "non-face":
        # over (123) the pattern ++- asks lambda_1, lambda_2 > 0 > lambda_12
        ce = {"claim": "module.unit", "ground": ["1", "2", "3"],
              "forests": ["123"], "shard": {"support": "(123)", "id": "++-"}}
    else:
        f = random_functional(Partition.one_block(G4), SAMPLE_SEED)
        obj = f.to_json_obj()
        key = next(iter(obj["values"]))
        obj["values"][key] = {"zero-denominator": "1/0", "bool": True,
                              "float": 0.5}[case]
        ce = {"claim": "maintheorem.converse", "ground": list(G4.labels),
              "functional": obj}
    with pytest.raises(ValueError):
        replay_counterexample(ce)


def test_replay_lets_a_witness_failure_through(monkeypatch):
    # malformed input turns into ValueError; a broken check must not
    def broken(g):
        raise InvariantViolation("dims.series broke")
    monkeypatch.setattr(audit, "_dims_witness", broken)
    with pytest.raises(InvariantViolation):
        replay_counterexample({"claim": "dims.series", "ground": ["1", "2"]})


def test_chamber_counts_table():
    assert CHAMBER_COUNTS == {1: 1, 2: 2, 3: 6, 4: 32, 5: 370, 6: 11292}


def test_replay_uses_the_recorded_seed(monkeypatch):
    real = audit.random_functional
    monkeypatch.setattr(
        audit, "random_functional",
        lambda P, seed: Functional.zero(P) if seed == 1 else real(P, seed))
    ce = {"claim": "delayering.separation", "ground": list(G4.labels)}
    assert replay_counterexample(dict(ce, seed=SAMPLE_SEED)) is True
    assert replay_counterexample(dict(ce, seed=1)) is False


# the functional drawn from this seed separates none of the 24 layering
# pairs at n=4, while the one drawn from the next seed does
_MISSING_SEED = 3340989531831394862


def test_separation_tries_the_next_seed_when_a_functional_misses():
    assert audit._separation_witness(G4, _MISSING_SEED) == (24, {
        "claim": "delayering.separation", "ground": list(G4.labels),
        "seed": _MISSING_SEED})
    instances, ce, notes = audit._check_delayering_separation(
        G4, _MISSING_SEED)
    assert ce is None and 1 <= instances <= 24
    assert notes == {"seed": _MISSING_SEED + 1}
    assert audit._check_delayering_separation(G4, SAMPLE_SEED) == (
        audit._separation_witness(G4, SAMPLE_SEED) + ({"seed": SAMPLE_SEED},))


def test_separation_fails_when_every_functional_misses(monkeypatch):
    monkeypatch.setattr(
        audit, "random_functional", lambda P, seed: Functional.zero(P))
    instances, ce, notes = audit._check_delayering_separation(G4, 5)
    assert (instances, notes) == (24, {"seed": 36})
    assert ce == {"claim": "delayering.separation",
                  "ground": list(G4.labels), "seed": 36}
    assert replay_counterexample(ce) is False


def _counting_rows(monkeypatch):
    # counts the (forest, shard) pairs the sweeps derive through dual_rows,
    # each input being the unit map of one shard
    calls = collections.Counter()
    real = audit.dual_rows

    def counting(F, vectors):
        vectors = list(vectors)
        for v in vectors:
            (X,) = v
            assert v[X] == 1
            calls[format_forest(F), X.id()] += 1
        return real(F, vectors)
    monkeypatch.setattr(audit, "dual_rows", counting)
    return calls


def _main_sweep(max_cuts):
    # the maintheorem.annihilator sweep at n=4 over forests of up to
    # max_cuts cuts (the audit's row takes 3)
    return audit._basis_sweep(audit._annihilator_witness, G4, (
        (F, enumerate_shards(F.target), steinmann_classes(F.target, F.target))
        for F in iter_forests(Partition.one_block(G4), max_cuts)))


def _delayering_sweep():
    # (instances, counterexample) of the audit's delayering.annihilator row
    (row,) = [r for r in audit._CLAIMS if "delayering.annihilator" in r.claims]
    (got,) = row.run(G4, SAMPLE_SEED)
    return got


def test_maintheorem_sweep_derives_every_shard(monkeypatch):
    # every derivation runs the derivative's own cut-by-cut cross-check,
    # so shards in singleton Steinmann classes are derived too
    calls = _counting_rows(monkeypatch)
    assert _main_sweep(2)[1] is None
    assert calls == collections.Counter(
        (format_forest(F), X.id())
        for F in iter_forests(Partition.one_block(G4), 2)
        for X in enumerate_shards(F.target))


def test_delayering_sweep_derives_each_layering_once(monkeypatch):
    # every delayered forest of up to 3 cuts at n=4 with more than one
    # layering has exactly two, so one pair per forest derives each once
    groups = collections.defaultdict(list)
    for F in iter_forests(Partition.one_block(G4), 3):
        groups[frozenset(F.cuts)].append(F)
    layered = [members for members in groups.values() if len(members) > 1]
    assert len(layered) == 24 and {len(m) for m in layered} == {2}
    calls = _counting_rows(monkeypatch)
    assert _delayering_sweep()[1] is None
    assert calls == collections.Counter(
        (format_forest(F), X.id())
        for members in layered
        for F in members
        for X in enumerate_shards(F.target))


def test_maintheorem_sweep_antisymmetrizes_once_per_forest(monkeypatch):
    # one dual_rows call per forest: a per-shard antisymmetrize would count
    # once per shard of the forest's target
    calls = collections.Counter()

    def counted(F):
        calls[format_forest(F)] += 1
        return forests.antisymmetrize(F)
    monkeypatch.setattr(calculus, "antisymmetrize", counted)
    assert _main_sweep(2)[1] is None
    assert calls == collections.Counter(
        format_forest(F) for F in iter_forests(Partition.one_block(G4), 2))


def test_maintheorem_sweep_raises_on_a_flipped_switch_sign(monkeypatch):
    # the rows the sweep compares are cross-checked against the
    # antisymmetrized sum; one flipped sign there is a broken invariant,
    # not a counterexample
    def one_sign_flipped(F):
        terms = forests.antisymmetrize(F)
        sign, G = terms[-1]
        return terms[:-1] + [(-sign, G)]
    monkeypatch.setattr(calculus, "antisymmetrize", one_sign_flipped)
    with pytest.raises(InvariantViolation, match="disagree"):
        _main_sweep(2)


def _with_extra_functionals(monkeypatch):
    # the n=4 annihilator basis with two functionals that do not annihilate
    # put among it: the indicator of a shard that only the last class pair
    # of [12,34] tells apart, and later in the list a random functional
    # that already fails on the first pair; functional-major order must
    # report the indicator
    one = Partition.one_block(G4)
    F = parse_forest(G4, "[12,34]")
    duals = {X: dual_forest_derivative(F, X)
             for X in enumerate_shards(F.target)}
    diffs = [duals[X] - duals[c[0]]
             for c in steinmann_classes(F.target, F.target) for X in c[1:]]
    late = next(Y for Y, _ in diffs[-1] if diffs[0].coefficient(Y) == 0)
    basis = list(steinmann_relations(G4).annihilator_basis())
    functionals = (basis[:3] + [Functional.indicator(late)] + basis[3:7]
                   + [random_functional(one, 11)] + basis[7:])
    _fake_basis(monkeypatch, functionals)
    return functionals


def _fake_basis(monkeypatch, functionals):
    # the audit reads the annihilator basis only through the relation
    # set's index
    index = _functional_index(functionals, Partition.one_block(G4))
    monkeypatch.setattr(audit, "steinmann_relations", lambda g: (
        types.SimpleNamespace(annihilator_index=lambda: index)))


def _reference_annihilator(g, max_cuts, functionals,
                           derive=dual_forest_derivative):
    # functional-major evaluation, one evaluate_vector per class member
    instances = 0
    for F in iter_forests(Partition.one_block(g), max_cuts):
        classes = [c for c in steinmann_classes(F.target, F.target)
                   if len(c) > 1]
        duals = {X: derive(F, X) for X in enumerate_shards(F.target)}
        for f in functionals:
            instances += 1
            for cls in classes:
                v0 = f.evaluate_vector(duals[cls[0]])
                for X in cls[1:]:
                    if f.evaluate_vector(duals[X]) != v0:
                        return instances, {
                            "claim": "maintheorem.annihilator",
                            "ground": list(g.labels),
                            "forests": [format_forest(F)],
                            "functional": f.to_json_obj(),
                            "shards": [_shard_ref(cls[0]), _shard_ref(X)]}
    return instances, None


def _reference_delayering(g, max_cuts, functionals,
                          derive=dual_forest_derivative):
    instances = 0
    for F0, Fi, shards in audit._layering_pairs(g, max_cuts):
        for f in functionals:
            instances += 1
            for X in shards:
                if (f.evaluate_vector(derive(F0, X))
                        != f.evaluate_vector(derive(Fi, X))):
                    return instances, {
                        "claim": "delayering.annihilator",
                        "ground": list(g.labels),
                        "forests": [format_forest(F0), format_forest(Fi)],
                        "functional": f.to_json_obj(),
                        "shard": _shard_ref(X)}
    return instances, None


def test_maintheorem_sparse_sweep_matches_functional_major_loop(monkeypatch):
    functionals = _with_extra_functionals(monkeypatch)
    got = _main_sweep(3)
    assert got[1]["forests"] == ["[12,34]"]
    assert got[1]["functional"] == functionals[3].to_json_obj()
    assert got == _reference_annihilator(G4, 3, functionals)


def test_delayering_sparse_sweep_matches_functional_major_loop(monkeypatch):
    functionals = _with_extra_functionals(monkeypatch)
    got = _delayering_sweep()
    assert got[1] is not None
    assert got == _reference_delayering(G4, 3, functionals)


def _fractional(shift):
    # row k, one k per (forest, shard), comes out divided by k, or shifted
    # by 1/k times a Steinmann relation, which no annihilator functional
    # sees; either way the sides of a comparison carry different
    # denominators
    rels = steinmann_relations(G4).relations
    ks = {}

    def rows(F, vectors):
        vectors = list(vectors)
        out = []
        for (X,), row in zip(vectors, dual_rows(F, vectors)):
            k = ks.setdefault((format_forest(F), X.id()), len(ks) + 1)
            d = ShardVector(F.source, row)
            if shift:
                d = d + rels[k % len(rels)].scale(Fraction(1, k))
            else:
                d = d.scale(Fraction(1, k))
            out.append(d.entries)
        return out
    return rows, ks


def _one_row(rows):
    # a derive(F, X) for the reference loops over a dual_rows stand-in
    return lambda F, X: ShardVector(F.source, rows(F, [{X: 1}])[0])


@pytest.mark.parametrize("shift", [False, True], ids=["scaled", "shifted"])
def test_annihilator_sweeps_compare_fractional_derivatives_exactly(
        monkeypatch, shift):
    # annihilators with mixed denominators: f_j / 2 + f_(j+1) / 3 over the
    # basis, whose values are 0 and +-1
    real = steinmann_relations(G4).annihilator_basis()
    basis = [Functional(f.support, {X: c / 2 + h(X) / 3 for X, c in f.items()})
             for f, h in zip(real, real[1:] + real[:1])]
    _fake_basis(monkeypatch, basis)
    rows, ks = _fractional(shift)
    derive = _one_row(rows)
    monkeypatch.setattr(audit, "dual_rows", rows)
    main = _main_sweep(3)
    delayering = _delayering_sweep()
    # the sweeps derive through the stand-in: every shard of every forest
    # when nothing fails, else up to the first failure
    derived = set(ks)
    if shift:
        assert derived == {(format_forest(F), X.id())
                           for F in iter_forests(Partition.one_block(G4), 3)
                           for X in enumerate_shards(F.target)}
    else:
        assert derived and main[1] is not None and delayering[1] is not None
    assert main == _reference_annihilator(G4, 3, basis, derive)
    assert delayering == _reference_delayering(G4, 3, basis, derive)
    if shift:
        # the values are those of the true derivatives: nothing fails
        monkeypatch.setattr(audit, "dual_rows", dual_rows)
        assert main == _main_sweep(3)
        assert delayering == _delayering_sweep()
        assert main[1] is None and delayering[1] is None


def _solvable_dim_by_elimination(P):
    # factorization.dimension's elimination before steinmann kept the
    # smoothness rows: every single-cut forest derived here
    rows = [{X.bits: 1, X0.bits: -1}
            for X0, *rest in steinmann_classes(P, P) for X in rest]
    for F in steinmann._single_cut_forests(P):
        fine = enumerate_shards(F.target)
        duals = dict(zip(fine, dual_rows(F, [{X: 1} for X in fine])))
        for cls in steinmann_classes(F.target, F.target):
            X0 = cls[0]
            for X in cls[1:]:
                row = collections.Counter(duals[X])
                row.subtract(duals[X0])
                rows.append({Y.bits: c for Y, c in row.items() if c})
    return len(enumerate_shards(P)) - rank(rows)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_solvable_dim_equals_the_elimination_by_hand(n):
    g = GroundSet.of_size(n)
    supports = (all_partitions(g) if n < 5 else
                [Partition.parse(g, t) for t in audit._DIMENSION_SAMPLE])
    for P in supports:
        assert audit._solvable_dim(P) == _solvable_dim_by_elimination(P)


def _distinct_scales(real):
    # each row comes out scaled by a new factor, so no two agree
    counter = itertools.count(1)
    return lambda F, vectors: [{Y: c * k for Y, c in row.items()}
                               for row, k in zip(real(F, vectors), counter)]


def _doubled(real):
    # every row comes out doubled: a direct derivative twice the true one,
    # a staged one four times
    return lambda F, vectors: [{Y: 2 * c for Y, c in row.items()}
                               for row in real(F, vectors)]


# claim -> (ground size, patches that make the first instance its row's
# run checks at that size fail)
_FIRST_FAILS = {
    "counts.maximal_shards": (
        4, [(audit, "CHAMBER_COUNTS", dict.fromkeys(range(1, 7), -1))]),
    "dims.series": (4, [(audit, "zie_dimension", lambda n: -1)]),
    "duality.relations": (
        4, [(audit, "is_semisimply_differentiable", lambda f: None)]),
    "lie.antisymmetry": (
        3, [(audit, "dual_rows", _distinct_scales(audit.dual_rows))]),
    "lie.jacobi": (
        3, [(audit, "dual_rows", _distinct_scales(audit.dual_rows))]),
    "module.unit": (3, [(audit, "dual_rows", _doubled(audit.dual_rows))]),
    "module.action": (3, [(audit, "dual_rows", _doubled(audit.dual_rows))]),
    # every derived row reads as outside the relation span
    "module.coset_kernel": (
        4, [(audit, "_totals", lambda by_shard, row: {0: 1})]),
    "module.layering": (
        4, [(audit, "dual_rows", _distinct_scales(audit.dual_rows))]),
    "kernel.span": (3, [(audit, "rank", lambda M: -1)]),
    "kernel.surjective": (
        3, [(audit, "enumerate_shards",
             lambda P, real=audit.enumerate_shards: real(P) * 2)]),
    "factorization.diagram": (
        3, [(audit, "_component_key", lambda P, Y: ())]),
    "factorization.dimension": (3, [(audit, "quotient_dim", lambda g: 0)]),
    "maintheorem.annihilator": (
        4, [(audit, "dual_rows", _distinct_scales(audit.dual_rows))]),
    "maintheorem.converse": (
        4, [(audit, "_rough_cut", lambda f: None)]),
    "delayering.annihilator": (
        4, [(audit, "dual_rows", _distinct_scales(audit.dual_rows))]),
    # every one of the 32 seeds the row tries misses, so the last one fails
    "delayering.separation": (
        4, [(audit, "dual_rows", lambda F, vectors: [{} for _ in vectors])]),
    "calculus.functoriality": (
        3, [(audit, "dual_rows", _doubled(audit.dual_rows))]),
}


def test_every_claim_has_a_replay_entry():
    claims = [c for row in audit._CLAIMS for c in row.claims]
    assert len(claims) == len(set(claims)) == len(_FIRST_FAILS)
    assert set(claims) == set(_FIRST_FAILS)
    for row in audit._CLAIMS:
        assert 2 <= row.smallest <= row.largest <= 5
        assert all(statement and callable(replay)
                   for statement, replay in row.claims.values())


@pytest.mark.parametrize("claim", sorted(_FIRST_FAILS))
def test_first_swept_instance_replays(claim, monkeypatch):
    size, patches = _FIRST_FAILS[claim]
    row = next(row for row in audit._CLAIMS if claim in row.claims)
    with monkeypatch.context() as m:
        for target, name, value in patches:
            m.setattr(target, name, value)
        results = row.run(GroundSet.of_size(size), SAMPLE_SEED)
    ce = results[list(row.claims).index(claim)][1]
    assert ce is not None and ce["claim"] == claim
    assert replay_counterexample(json.loads(json.dumps(ce))) is True


@pytest.mark.parametrize("ground", [[1, 2, True], [1.5, None]],
                         ids=["int-and-bool", "float-and-null"])
def test_replay_refuses_non_string_labels(ground):
    # str() would read these as the labels "1", "2", "True", ...
    with pytest.raises(ValueError, match="label strings"):
        replay_counterexample({"claim": "dims.series", "ground": ground})


def test_report_text_prints_the_counterexample():
    ce = {"claim": "x.y", "ground": ["1", "2"], "shard": {"id": "+"}}
    report = AuditReport("full", 2, [AuditEntry("x.y", "s", 2, 1, False, ce)])
    assert report.format_text().splitlines()[2] == (
        '       counterexample: {"claim": "x.y", "ground": ["1", "2"], '
        '"shard": {"id": "+"}}')


def test_diagram_functional_square_counterexample_replays(monkeypatch):
    # derivatives come out doubled: one doubling on the product's side, one
    # per factor on the other, so the square of functionals fails while
    # every shard-level square still holds
    real = audit.forest_derivative

    def doubled(F, f):
        d = real(F, f)
        return Functional._trusted(d.ctx, {X: 2 * c for X, c in d.values.items()})

    row = next(row for row in audit._CLAIMS
               if "factorization.diagram" in row.claims)
    with monkeypatch.context() as m:
        m.setattr(audit, "forest_derivative", doubled)
        [(_, ce)] = row.run(G3, SAMPLE_SEED)
        assert ce is not None and "functionals" in ce and "shard" not in ce
        assert replay_counterexample(json.loads(json.dumps(ce))) is False
    assert replay_counterexample(json.loads(json.dumps(ce))) is True


def test_annihilator_replay_refuses_a_functional_over_another_support(
        monkeypatch):
    size, patches = _FIRST_FAILS["maintheorem.annihilator"]
    row = next(row for row in audit._CLAIMS
               if "maintheorem.annihilator" in row.claims)
    with monkeypatch.context() as m:
        for target, name, value in patches:
            m.setattr(target, name, value)
        [(_, ce)] = row.run(GroundSet.of_size(size), SAMPLE_SEED)
    ce = json.loads(json.dumps(ce))
    assert replay_counterexample(ce) is True
    ce["functional"] = Functional.zero(
        Partition.parse(G4, "(12|34)")).to_json_obj()
    with pytest.raises(forests.BoundaryMismatchError, match="different support"):
        replay_counterexample(ce)
