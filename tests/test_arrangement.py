import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shardcalc.ground import (
    GroundMismatchError,
    GroundSet,
    NotFinerError,
    Partition,
    all_partitions,
    coarser_partitions,
    is_r_semisimple,
    iter_bits,
    popcount,
    reduction_mask,
)
from shardcalc._backend import kernel
from shardcalc import arrangement
from shardcalc.arrangement import (
    Shard,
    context_for,
    enumerate_shards,
    project,
    shard_from_signs,
    steinmann_classes,
)


def g(n):
    return GroundSet.of_size(n)


def part(G, text):
    return Partition.parse(G, text)


def one_block(n):
    return Partition.one_block(g(n))


def test_canonical_key_counts_match_product_formula():
    for G, text in [
        (g(4), "(1234)"),
        (g(4), "(12|34)"),
        (g(4), "(12|3|4)"),
        (g(4), "(1|2|3|4)"),
        (g(5), "(12345)"),
        (g(5), "(12|345)"),
    ]:
        P = part(G, text)
        prod = 1
        for b in P.blocks:
            prod *= (1 << popcount(b)) - 1
        assert len(context_for(P).keys) == (prod - 1) // 2


def test_canonical_keys_are_reduced_class_minima():
    P = part(g(4), "(12|34)")
    assert context_for(P).keys == [0b0001, 0b0100, 0b0101, 0b0110]  # {1},{3},{13},{23}


def test_enumerate_counts_small():
    assert len(enumerate_shards(one_block(2))) == 2
    assert len(enumerate_shards(one_block(3))) == 6
    assert len(enumerate_shards(one_block(4))) == 32


def test_enumerate_agrees_with_naive_oracle_all_partitions_n_le_4(
        lp_chambers):
    for n in (2, 3, 4):
        for P in all_partitions(g(n)):
            bfs = [X.bits for X in enumerate_shards(P)]
            assert bfs == lp_chambers(P), P.format()


def test_enumerate_agrees_with_naive_oracle_n5(lp_chambers):
    # every partition of five labels within the oracle's 12-key limit: all
    # but the one-block support, which has 15 keys
    checked = 0
    for P in all_partitions(g(5)):
        if context_for(P).K > 12:
            assert len(P.blocks) == 1
            continue
        bfs = [X.bits for X in enumerate_shards(P)]
        assert bfs == lp_chambers(P), P.format()
        checked += 1
    assert checked == 51


def test_flipped_key_screen_matches_full_screen():
    # a one-flip neighbour of a chamber differs from it only at key k, so
    # screening the quads of k must give the verdict of the whole table
    supports = [P for n in range(2, 6) for P in all_partitions(g(n))]
    supports.append(part(g(6), "(123|456)"))
    candidates = rejected = 0
    for P in supports:
        ctx = context_for(P)
        quads = ctx.quads()
        per_key = ctx.key_quads()
        for k in range(ctx.K):
            assert per_key[k] == [q for q in quads if q[0] & ctx.bit(k)]
        for X in enumerate_shards(P):
            for k in range(ctx.K):
                cand = X.bits ^ ctx.bit(k)
                verdict = kernel.quick_check(cand, per_key[k])
                full = kernel.quick_check(cand, quads)
                assert verdict == full, (P.format(), X.id(), k)
                candidates += 1
                rejected += not verdict
    assert candidates > 31104 and 0 < rejected < candidates


def _reference_quads(ctx):
    # the screen as 8-tuples (ia, oa, ib, ob, iu, ou, iv, ov): keys of A, B,
    # their union U and intersection V with orientations, -1 and 0 where
    # the functional is zero on the flat
    oriented = [(m, k, o) for k, r in enumerate(ctx.keys)
                for m, o in ((r, 1), (ctx.full ^ r, -1))]
    quads = []
    for (ma, ia, oa), (mb, ib, ob) in itertools.combinations(oriented, 2):
        inter, union = ma & mb, ma | mb
        if inter in (ma, mb) or (inter == 0 and union == ctx.full):
            continue
        quads.append((ia, oa, ib, ob) + ctx.lookup(union) + ctx.lookup(inter))
    return quads


def _reference_screen(signs, quads):
    # rejects lambda_A, lambda_B > 0 with lambda_U, lambda_V <= 0
    for ia, oa, ib, ob, iu, ou, iv, ov in quads:
        if oa * signs[ia] > 0 and ob * signs[ib] > 0:
            if (iu < 0 or ou * signs[iu] < 0) and (iv < 0 or ov * signs[iv] < 0):
                return False
    return True


def test_bitmask_screen_matches_reference_screen():
    supports = [P for n in range(2, 6) for P in all_partitions(g(n))]
    supports.append(part(g(6), "(123|456)"))
    rejected = 0
    for P in supports:
        ctx = context_for(P)
        reference = _reference_quads(ctx)
        for X in enumerate_shards(P):
            signs = [X.sign_of(r) for r in ctx.keys]
            for k in range(ctx.K):
                flipped = signs[:k] + [-signs[k]] + signs[k + 1:]
                verdict = kernel.quick_check(X.bits ^ ctx.bit(k), ctx.quads())
                assert verdict == _reference_screen(flipped, reference), (
                    P.format(), X.id(), k)
                rejected += not verdict
    assert rejected > 0


def test_bits_order_is_sign_string_order():
    supports = [P for n in range(1, 6) for P in all_partitions(g(n))]
    supports.append(part(g(6), "(123|456)"))
    for P in supports:
        ctx = context_for(P)
        shards = enumerate_shards(P)
        assert [X.bits for X in shards] == sorted({X.bits for X in shards})
        assert sorted(shards, key=Shard.id) == shards, P.format()
        for X in shards:
            assert X.id() == "".join(
                "+" if X.sign_of(r) > 0 else "-" for r in ctx.keys)


def test_memo_keeps_only_lp_verdicts_and_probe_hits(monkeypatch):
    # a screen reject is cheap to repeat, so it is not memoized; every None
    # left in the memo is a pattern the LP certified infeasible, and no
    # pattern goes to the LP twice
    monkeypatch.setattr(arrangement, "_context_cache", {})
    lp_calls, infeasible = [], set()
    solve = arrangement._lp_witness

    def recording(ctx, bits):
        lp_calls.append(bits)
        w = solve(ctx, bits)
        if w is None:
            infeasible.add(bits)
        return w

    monkeypatch.setattr(arrangement, "_lp_witness", recording)
    P = part(g(6), "(123|456)")
    shards = enumerate_shards(P)
    memo = context_for(P)._memo
    assert len(lp_calls) == len(set(lp_calls)) > 0
    assert infeasible and {s for s, w in memo.items() if w is None} == infeasible
    assert {X.bits for X in shards} == {s for s, w in memo.items() if w is not None}


def test_certify_on_a_cold_memo_goes_to_the_lp(monkeypatch):
    # with no walk behind it, certify has no hint to probe from: a feasible
    # pattern is memoized with its LP witness, and an empty one that the
    # superadditivity screen passes is refused by the LP
    feasible = enumerate_shards(one_block(4))[0].id()
    monkeypatch.setattr(arrangement, "_context_cache", {})
    lp_calls = []
    solve = arrangement._lp_witness
    monkeypatch.setattr(arrangement, "_lp_witness", lambda ctx, bits: (
        lp_calls.append(bits) or solve(ctx, bits)))
    X = shard_from_signs(one_block(4), feasible, certify=True)
    ctx = context_for(one_block(4))
    assert list(ctx._memo) == [X.bits]
    assert kernel.sign_eval(ctx.keys, ctx._memo[X.bits]) == X.bits
    P = part(g(6), "(123|456)")
    empty = "+++++++-++++++-++++++-++"
    bits = shard_from_signs(P, empty).bits
    assert kernel.quick_check(bits, context_for(P).quads())
    with pytest.raises(ValueError):
        shard_from_signs(P, empty, certify=True)
    assert context_for(P)._memo == {bits: None}
    assert lp_calls == [X.bits, bits]


def test_memoized_walk_points_have_content_one(monkeypatch):
    # probe hits are memoized divided by their content; kept as found, the
    # walk's points grow along chains of probes (to 223 bits on this one)
    monkeypatch.setattr(arrangement, "_context_cache", {})
    P = part(g(6), "(123|456)")
    assert len(enumerate_shards(P)) == 1296
    points = [w for w in context_for(P)._memo.values() if w is not None]
    assert len(points) == 1296
    assert all(math.gcd(*w) == 1 for w in points)


def test_enumerate_sorted_and_deterministic():
    P = one_block(4)
    ids = [s.id() for s in enumerate_shards(P)]
    assert ids == sorted(ids)
    assert ids == [s.id() for s in enumerate_shards(P)]
    assert len(set(ids)) == len(ids)


def test_enumerated_witnesses_realize_their_signs():
    # the context's memo is the one store of witness points
    for P in all_partitions(g(4)):
        ctx = context_for(P)
        for X in enumerate_shards(P):
            witness = ctx._memo[X.bits]
            assert all(type(x) is int for x in witness)
            for b in P.blocks:
                assert sum(witness[i] for i in iter_bits(b)) == 0
            assert kernel.sign_eval(ctx.keys, witness) == X.bits
            assert "".join("+" if X.sign_of(r) > 0 else "-"
                           for r in ctx.keys) == X.id()


def _is_positive_multiple(v, ref):
    t = next(Fraction(x) / q for x, q in zip(v, ref) if q)
    return t > 0 and all(x == t * q for x, q in zip(v, ref))


def _rational_start(ctx):
    # the seeded point projected onto the flat, in rationals
    rnd = random.Random("%s|%s|0" % (ctx.ground.labels, ctx.P.blocks))
    span = 9
    while True:
        raw = [rnd.randint(-span, span) for _ in range(ctx.n)]
        x = []
        for i in range(ctx.n):
            b = ctx.P.block_of(i)
            total = sum(raw[j] for j in iter_bits(b))
            x.append(Fraction(raw[i] * popcount(b) - total, popcount(b)))
        if all(sum(x[i] for i in iter_bits(r)) for r in ctx.keys):
            return x
        span *= 2


def _rational_normal(ctx, r):
    # the indicator of key r projected onto the flat
    return [Fraction((r >> i & 1) * popcount(ctx.P.block_of(i))
                     - popcount(r & ctx.P.block_of(i)),
                     popcount(ctx.P.block_of(i))) for i in range(ctx.n)]


def test_integer_walk_points_are_positive_multiples_of_rational_ones(monkeypatch):
    # every point the walk handles is an integer vector; on a support with
    # two non-singleton blocks of unequal size, as (12|345), a point not
    # scaled by block_lcm / |b| per block points elsewhere
    monkeypatch.setattr(arrangement, "_context_cache", {})
    probes = []
    probe = arrangement._probe_candidates

    def recording(ctx, hint):
        for j, cand in enumerate(probe(ctx, hint)):
            probes.append((ctx, hint, j, cand))
            yield cand

    monkeypatch.setattr(arrangement, "_probe_candidates", recording)
    supports = [P for n in range(2, 6) for P in all_partitions(g(n))]
    for P in supports + [part(g(6), "(123|456)")]:
        ctx = context_for(P)
        enumerate_shards(P)
        if not ctx.K:
            continue
        start = arrangement._generic_flat_point(ctx)
        assert all(type(x) is int for x in start)
        assert _is_positive_multiple(start, _rational_start(ctx))
        for r, (gk, gg) in zip(ctx.keys, ctx.normals()):
            assert all(type(x) is int for x in gk) and gg == sum(x * x for x in gk)
            assert _is_positive_multiple(gk, _rational_normal(ctx, r))
    thetas = (Fraction(2), Fraction(3, 2), Fraction(9, 8), Fraction(17, 16))
    for ctx, (x, k), j, cand in probes:
        ref = _rational_normal(ctx, ctx.keys[k])
        step = sum(x[i] for i in iter_bits(ctx.keys[k])) / sum(q * q for q in ref)
        assert all(type(c) is int for c in cand)
        assert _is_positive_multiple(
            cand, [x[i] - thetas[j] * step * ref[i] for i in range(ctx.n)])
    assert len(probes) > 1000


def test_complement_and_reduction_sign_consistency():
    for P in [one_block(4), part(g(4), "(12|34)"), part(g(4), "(123|4)")]:
        full = P.ground.full_mask
        for X in enumerate_shards(P):
            for e in range(1, full):
                s = X.sign_of(e)
                assert s == -X.sign_of(full ^ e)
                red = reduction_mask(P, e)
                if red == 0:
                    assert s == 0
                else:
                    assert s == X.sign_of(red) != 0


def test_shard_from_signs_roundtrip():
    P = one_block(4)
    for X in enumerate_shards(P):
        assert shard_from_signs(P, X.id()) is X  # interned
        keys = context_for(P).keys
        assert shard_from_signs(P, {r: X.sign_of(r) for r in keys}) is X
        assert shard_from_signs(P, X.to_json_obj()["signs"]) is X


def test_json_labels_match_a_fresh_rendering_on_multi_character_labels(
        monkeypatch):
    # the context renders its support text and key labels once; every shard
    # reads them, and each call still returns a dict of its own
    monkeypatch.setattr(arrangement, "_context_cache", {})
    G = GroundSet(["a1", "b", "c", "d"])

    def reference(X):
        return {"support": X.support.format(),
                "signs": dict(zip(map(G.mask_labels, X.ctx.keys), X.id()))}

    for P in all_partitions(G):
        shards = enumerate_shards(P)
        assert context_for(P)._labels is None  # the walk renders nothing
        for X in shards:
            assert json.dumps(X.to_json_obj()) == json.dumps(reference(X))
        obj = shards[-1].to_json_obj()
        obj["support"] = None
        obj["signs"].clear()
        assert shards[-1].to_json_obj() == reference(shards[-1])
    P = Partition.one_block(G)
    keys = context_for(P).keys
    feasible = {X.id() for X in enumerate_shards(P)}
    bad = next(s for s in map("".join, itertools.product("+-", repeat=len(keys)))
               if s not in feasible)
    with pytest.raises(ValueError) as err:
        shard_from_signs(P, bad, certify=True)
    named = " ".join("%s:%s" % kv for kv in zip(map(G.mask_labels, keys), bad))
    assert str(err.value) == "sign pattern %s is not realizable over %s" % (
        named, P.format())
    assert "a1,b:" in named


def test_lp_answers_are_pinned_n_le_4():
    # sha256 of (support, pattern, LP point or None) over every sign
    # pattern of every support up to n=4 (240 LPs): a change to the
    # tableau, the pivot rule or the point's scaling that moves any answer
    # moves the digest
    h = hashlib.sha256()
    for n in range(1, 5):
        for P in all_partitions(g(n)):
            ctx = context_for(P)
            for bits in range(1 << ctx.K):
                h.update(("%s %d %s\n" % (
                    P.format(), bits, arrangement._lp_witness(ctx, bits))).encode())
    assert h.hexdigest() == (
        "faada77ed3940ba2928d78b1b3dffc62d839209414774f5c964595b6ebd5ba3a")


def test_shard_from_signs_certify_rejects_empty_pattern():
    # all-positive fails: singleton sums positive contradict their union's
    # complement, e.g. lambda_123 = -lambda_4 at n=4
    P = one_block(4)
    feasible = {X.id() for X in enumerate_shards(P)}
    some_bad = next(
        "".join(c) for c in itertools.product("+-", repeat=7)
        if "".join(c) not in feasible
    )
    with pytest.raises(ValueError):
        shard_from_signs(P, some_bad, certify=True)
    got = shard_from_signs(P, some_bad)  # uncertified construction is allowed
    assert got.id() == some_bad


@pytest.mark.parametrize("signs", [
    {"1": "+", "2": "+"}, {"1": "+", "2": "-"}, {"1": True}, {"1": 1.0},
    {"1": "+", 0b001: "+"}], ids=["contradicting", "repeated", "bool",
                                 "float", "label-and-mask"])
def test_shard_from_signs_refuses_malformed_maps(signs):
    # over (12|3) the subsets 1 and 2 name the one key, with opposite signs
    P = part(g(3), "(12|3)")
    assert shard_from_signs(P, {"1": 1}) is shard_from_signs(P, {"2": "-"})
    with pytest.raises(ValueError):
        shard_from_signs(P, signs)


def test_project_identity_for_one_block_r():
    P = part(g(4), "(12|34)")
    R = one_block(4)
    for X in enumerate_shards(P):
        assert project(R, X) == [X]


def test_project_zero_dim_components():
    G = g(4)
    X = enumerate_shards(part(G, "(1|2|3|4)"))[0]
    comps = project(part(G, "(12|34)"), X)
    assert len(comps) == 2
    assert all(c.bits == 0 and c.id() == "" for c in comps)
    assert all(c.support == part(G, "(1|2|3|4)") for c in comps)


def test_project_restriction_example():
    G = g(4)
    P = part(G, "(12|34)")
    R = part(G, "(12|34)")
    X = next(
        X for X in enumerate_shards(P) if X.sign_of(G.parse_block("3")) == 1
    )
    comps = project(R, X)
    right = comps[1]
    assert right.support == part(G, "(1|2|34)")
    assert right.ctx.K == 1
    assert right.sign_of(G.parse_block("3")) == 1


def test_project_memoizes_components_per_support_and_r(monkeypatch):
    G = g(4)
    P, R = part(G, "(1|2|34)"), part(G, "(12|34)")
    ctx = context_for(P)
    monkeypatch.setattr(ctx, "_components", {})
    for X in enumerate_shards(P):
        for _ in range(2):
            comps = project(part(G, "(34|12)"), X)
            assert [Y.support for Y in comps] == [
                part(G, "(1|2|3|4)"), part(G, "(1|2|34)")]
            for Y in comps:
                assert all(Y.sign_of(r) == X.sign_of(r) for r in Y.ctx.keys)
    assert list(ctx._components) == [R]
    # a miss checks R: same blocks over another ground, or not coarser
    with pytest.raises(GroundMismatchError):
        project(Partition(GroundSet("abcd"), R.blocks), X)
    with pytest.raises(NotFinerError):
        project(part(G, "(13|24)"), X)
    assert list(ctx._components) == [R]


def test_project_requires_finer_support():
    G = g(4)
    X = enumerate_shards(part(G, "(12|34)"))[0]
    with pytest.raises(NotFinerError):
        project(part(G, "(13|24)"), X)


def test_projection_surjective_n4():
    G = g(4)
    for P in all_partitions(G):
        for R in coarser_partitions(G, P):
            comps_per_block = []
            for T in R.blocks:
                blocks = [b for b in P.blocks if b & T]
                blocks += [1 << i for i in range(G.n) if not (T >> i & 1)]
                Pj = Partition(G, blocks)
                comps_per_block.append(enumerate_shards(Pj))
            target = set(itertools.product(*comps_per_block))
            image = {tuple(project(R, X)) for X in enumerate_shards(P)}
            assert image == target, (P.format(), R.format())


def test_steinmann_adjacent_witness_meets_two_blocks():
    # members of one Steinmann class differ only on keys that meet both
    # blocks of R; a class of two is one Steinmann-adjacent pair
    G = g(4)
    P = part(G, "(12|34)")
    keys = context_for(P).keys
    found = 0
    for cls in steinmann_classes(P, P):
        for X1, X2 in itertools.combinations(cls, 2):
            diff = [r for r in keys if X1.sign_of(r) != X2.sign_of(r)]
            found += len(diff) == 1
            for r in diff:
                red = reduction_mask(P, r)
                assert red & 0b0011 and red & 0b1100
    assert found > 0


def test_steinmann_classes_n3_all_singletons():
    P = one_block(3)
    classes = steinmann_classes(P, P)
    assert len(classes) == 6
    assert all(len(c) == 1 for c in classes)


def test_steinmann_classes_fig_pairs():
    G = g(4)
    P = part(G, "(12|34)")
    classes = steinmann_classes(P, P)
    assert len(classes) == 4
    assert all(len(c) == 2 for c in classes)
    # each pair shares its semisimple signs and differs on the rest
    for a, b in classes:
        assert a.sign_of(G.parse_block("1")) == b.sign_of(G.parse_block("1"))
        assert a.sign_of(G.parse_block("3")) == b.sign_of(G.parse_block("3"))


def test_steinmann_classes_are_memoized_per_support_and_r(monkeypatch):
    G = g(4)
    P = part(G, "(12|34)")
    # each class computation reads the shard list once; a memo hit does not
    sweeps = []
    real = arrangement.enumerate_shards

    def counted(P):
        sweeps.append(P.blocks)
        return real(P)

    monkeypatch.setattr(arrangement, "enumerate_shards", counted)
    monkeypatch.setattr(context_for(P), "_classes", {})
    first = steinmann_classes(P, P)
    # tuples of tuples: the caller cannot change the memo
    with pytest.raises(TypeError):
        first[0] = ()
    with pytest.raises(AttributeError):
        first[0].append(first[1][0])
    second = steinmann_classes(part(G, "(12|34)"), part(G, "(12|34)"))
    assert second is first and len(sweeps) == 1
    assert steinmann_classes(P, one_block(4)) is not first
    assert len(sweeps) == 2
    # the memo is keyed by R, which is checked on every call
    with pytest.raises(NotFinerError):
        steinmann_classes(P, part(G, "(13|24)"))
    with pytest.raises(GroundMismatchError):
        steinmann_classes(P, Partition(GroundSet(["a", "b", "c", "d"]), P.blocks))


def _union_find_classes(P, R):
    """Steinmann classes by union-find over the pairs of shards that
    differ on one key that is not R-semisimple."""
    ctx = context_for(P)
    shards = enumerate_shards(P)
    index = {X.bits: i for i, X in enumerate(shards)}
    parent = list(range(len(shards)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for k, r in enumerate(ctx.keys):
        if is_r_semisimple(P, R, r):
            continue
        for X in shards:
            j = index.get(X.bits ^ ctx.bit(k))
            if j is not None:
                a, b = find(index[X.bits]), find(j)
                parent[max(a, b)] = min(a, b)
    groups = {}
    for i, X in enumerate(shards):
        groups.setdefault(find(i), []).append(X)
    return tuple(tuple(grp) for grp in groups.values())


def test_steinmann_classes_equal_union_find_over_flip_pairs():
    checked = 0
    for n in range(1, 5):
        G = g(n)
        for P in all_partitions(G):
            for R in coarser_partitions(G, P):
                assert steinmann_classes(P, R) == _union_find_classes(P, R), \
                    (P.format(), R.format())
                checked += 1
    assert checked == 1 + 3 + 12 + 60


def test_steinmann_classes_one_block_r_are_singletons():
    G = g(4)
    P = part(G, "(12|34)")
    classes = steinmann_classes(P, one_block(4))
    assert all(len(c) == 1 for c in classes)
    assert len(classes) == len(enumerate_shards(P))


@st.composite
def partitions_n_le_4(draw):
    n = draw(st.integers(2, 4))
    G = GroundSet.of_size(n)
    assign = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks = {}
    for i, a in enumerate(assign):
        blocks.setdefault(a, 0)
        blocks[a] |= 1 << i
    return Partition(G, blocks.values())


@given(partitions_n_le_4())
@settings(max_examples=25, deadline=None)
def test_projection_of_enumerated_shard_components_feasible(P):
    G = P.ground
    for R in coarser_partitions(G, P):
        for X in enumerate_shards(P):
            for comp in project(R, X):
                assert comp in enumerate_shards(comp.support)


def test_project_equals_key_by_key_reads():
    # each component's sign at each of its keys is X's sign there
    checked = 0
    for n in range(1, 5):
        G = g(n)
        for P in all_partitions(G):
            for R in coarser_partitions(G, P):
                for X in enumerate_shards(P):
                    for Y in project(R, X):
                        assert Y.bits == Y.ctx.encode(
                            X.sign_of(r) for r in Y.ctx.keys)
                        checked += 1
    assert checked > 0


def test_table_from_fixes_or_refuses_vanishing_keys():
    G = g(3)
    fine = context_for(part(G, "(1|23)"))
    coarse = context_for(Partition.one_block(G))
    with pytest.raises(AssertionError, match=r"^key 1 vanishes on \(1\|23\)$"):
        coarse.table_from(fine)
    # keys 1, 2 and 12 of (123): lambda_1 vanishes on (1|23) and takes its
    # fixed sign; lambda_2 and lambda_12 both read lambda_2 there
    table = coarse.table_from(fine, fixed={0b001: -1})
    assert table == [(0, -1), (fine.bit(0), 1), (fine.bit(0), 1)]
    for X in enumerate_shards(fine.P):
        Y = coarse.intern(coarse.read(X.bits, table))
        assert Y.sign_of(0b001) == -1
        assert all(Y.sign_of(r) == X.sign_of(r) for r in coarse.keys[1:])
