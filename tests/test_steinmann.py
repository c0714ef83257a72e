import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shardcalc.exactla import ZERO, ONE, _echelon, kernel_basis, rank, rat
from shardcalc.ground import (
    GroundSet,
    NotFinerError,
    Partition,
    all_partitions,
    is_r_semisimple,
)
from shardcalc.forests import Cut, cut_forest, iter_forests, parse_forest
from shardcalc import arrangement
from shardcalc import steinmann
from shardcalc.arrangement import (
    SupportMismatchError,
    context_for,
    enumerate_shards,
    steinmann_classes,
)
from shardcalc.calculus import (
    Functional,
    InvariantViolation,
    ShardVector,
    arrow,
    dual_forest_derivative,
    forest_derivative,
    random_functional,
)
from shardcalc.steinmann import (
    Factorization,
    NotSemisimpleError,
    QuotientSpace,
    RelationSet,
    factorize,
    is_semisimple,
    is_semisimply_differentiable,
    product,
    quotient_dim,
    quotient_space,
    steinmann_relations,
    flat_annihilator_basis,
    simple_flat,
)

G2 = GroundSet.of_size(2)
G3 = GroundSet.of_size(3)
G4 = GroundSet.of_size(4)
G5 = GroundSet.of_size(5)


def series_dims(upto):
    # independent route: n! [x^n] of -log(2 - e^x) by exact series arithmetic
    N = upto + 1
    u = [Fraction(0)] * N  # e^x - 1
    fact = 1
    for k in range(1, N):
        fact *= k
        u[k] = Fraction(1, fact)
    # -log(1 - u) = sum u^m / m
    total = [Fraction(0)] * N
    power = [Fraction(1)] + [Fraction(0)] * (N - 1)
    for m in range(1, N):
        nxt = [Fraction(0)] * N
        for i, a in enumerate(power):
            if a:
                for j in range(1, N - i):
                    nxt[i + j] += a * u[j]
        power = nxt
        for i in range(N):
            total[i] += power[i] / m
    out = []
    fact = 1
    for n in range(1, N):
        fact *= n
        d = total[n] * fact
        assert d.denominator == 1
        out.append(int(d))
    return out


def test_halves_order_matches_combinations():
    # |S| >= 2 sets holding label 1, from itertools.combinations, sorted
    for n in range(1, 8):
        G = GroundSet.of_size(n)
        want = []
        for size in range(2, n - 1):
            for rest in itertools.combinations(range(1, n), size - 1):
                S = 1 | sum(1 << i for i in rest)
                want.append((S, G.full_mask ^ S))
        assert steinmann._halves(G) == sorted(want), n


def test_no_relations_below_four():
    for g in (G2, G3):
        R = steinmann_relations(g)
        assert len(R) == 0
        assert R.rank() == 0
        assert quotient_dim(g) == len(enumerate_shards(Partition.one_block(g)))


def test_relation_shape_n4():
    R = steinmann_relations(G4)
    assert len(R) == 6
    full = G4.full_mask
    for vec, (V, (X1, X2)) in zip(R.relations, R.provenance):
        items = vec.items()
        assert len(items) == 4
        assert sorted(str(c) for _, c in items) == ["-1", "-1", "1", "1"]
        S, T = V.left, V.right
        assert bin(S).count("1") >= 2 and bin(T).count("1") >= 2
        assert X1.support == Partition(G4, [S, T]) == X2.support
        W = V.reversed()
        expected = (
            ShardVector.basis(arrow(X1, V))
            - ShardVector.basis(arrow(X1, W))
            + ShardVector.basis(arrow(X2, W))
            - ShardVector.basis(arrow(X2, V))
        )
        assert vec == expected or vec == -expected


def test_relations_equal_the_validated_four_term_vectors_n5():
    # each relation is its provenance's four-term vector, built through the
    # validating constructors and made positive at its id-least shard
    R = steinmann_relations(GroundSet.of_size(5))
    assert len(R) == 300
    for vec, (V, (X1, X2)) in zip(R.relations, R.provenance):
        W = V.reversed()
        expected = (
            ShardVector.basis(arrow(X1, V))
            - ShardVector.basis(arrow(X1, W))
            + ShardVector.basis(arrow(X2, W))
            - ShardVector.basis(arrow(X2, V))
        )
        if expected.items()[0][1] < ZERO:
            expected = -expected
        assert vec == expected
        assert all(type(c) is Fraction for _, c in vec.items())


def _pair_walk_relations(ground):
    """The relations by walking each two-block support (S|T): pair its
    shards that differ on one key that is not semisimple, and lift each
    pair through arrow along V = (S|T) and its reverse."""
    n = ground.n
    halves = sorted((S, ground.full_mask ^ S) for S in range(1, 1 << n, 2)
                    if 2 <= bin(S).count("1") <= n - 2)
    rows, provenance = [], []
    for S, T in halves:
        Q = Partition(ground, [S, T])
        ctxQ = context_for(Q)
        shards = {X.bits: X for X in enumerate_shards(Q)}
        movable = [ctxQ.bit(k) for k, r in enumerate(ctxQ.keys)
                   if not is_r_semisimple(Q, Q, r)]
        pairs = sorted((q, q | b) for q in shards for b in movable
                       if not q & b and q | b in shards)
        V = Cut(ground, ground.full_mask, S)
        W = V.reversed()
        for q1, q2 in pairs:
            X1, X2 = shards[q1], shards[q2]
            vec = (ShardVector.basis(arrow(X1, V))
                   - ShardVector.basis(arrow(X1, W))
                   + ShardVector.basis(arrow(X2, W))
                   - ShardVector.basis(arrow(X2, V)))
            if vec.items()[0][1] < ZERO:
                vec = -vec
            if vec not in rows:
                rows.append(vec)
                provenance.append((V, (X1, X2)))
    return rows, provenance


@pytest.mark.parametrize("n", [3, 4, 5])
def test_relations_equal_the_two_block_pair_walk(n):
    # relations read off one-block chambers equal, row for row and with
    # the same provenance, those built from walked two-block shards
    ground = GroundSet.of_size(n)
    rows, provenance = _pair_walk_relations(ground)
    R = steinmann_relations(ground)
    assert list(R.relations) == rows
    assert list(R.provenance) == provenance


def test_relations_walk_no_multi_block_support():
    # labels no other test uses, so no other test has walked these supports
    ground = GroundSet(["v", "w", "x", "y", "z"])
    assert len(steinmann_relations(ground)) == 300
    two_block = [P for P in all_partitions(ground) if len(P.blocks) == 2]
    assert len(two_block) == 15
    assert all(context_for(P)._enumerated is None for P in two_block)
    small = GroundSet(["v", "w", "x"])
    assert len(steinmann_relations(small)) == 0
    assert context_for(Partition.one_block(small))._enumerated is None


def test_relations_pair_differs_on_one_movable_key():
    R = steinmann_relations(G4)
    for V, (X1, X2) in R.provenance:
        assert bin(X1.bits ^ X2.bits).count("1") == 1
        assert X1.id() < X2.id()


def test_rank_and_quotient_n4():
    R = steinmann_relations(G4)
    assert R.rank() == 6
    assert quotient_dim(G4) == 32 - 6 == 26


def test_relations_and_quotient_live_on_the_one_block_context(monkeypatch):
    steinmann_relations(G4)
    quotient_space(G4)
    # a fresh context cache drops every per-support cache with it
    monkeypatch.setattr(arrangement, "_context_cache", {})
    ctx = context_for(Partition.one_block(G4))
    assert steinmann_relations(G4).relations[0].ctx is ctx
    assert quotient_space(G4).shards[0].ctx is ctx
    assert ctx.relations is steinmann_relations(G4)


def test_quotient_dims_match_series_oracle():
    dims = series_dims(5)
    assert dims == [1, 2, 6, 26, 150]
    for n in (2, 3, 4, 5):
        g = GroundSet.of_size(n)
        assert quotient_dim(g) == dims[n - 1]


def test_annihilator_basis_n4():
    R = steinmann_relations(G4)
    basis = R.annihilator_basis()
    assert len(basis) == 26
    for f in basis:
        for vec in R:
            assert f.evaluate_vector(vec) == ZERO
    assert rank({X.id(): c for X, c in f.values.items()} for f in basis) == 26


def test_annihilator_basis_solves_the_kernel_once(monkeypatch):
    calls = []
    solve = steinmann.kernel_basis

    def counting(pivots, columns):
        calls.append(pivots)
        return solve(pivots, columns)

    monkeypatch.setattr(steinmann, "kernel_basis", counting)
    R = steinmann_relations(G4)
    fresh = RelationSet(R.ground, R.relations, R.provenance)
    first = fresh.annihilator_basis()
    first.clear()  # the caller's list is its own
    assert fresh.annihilator_basis() == fresh.annihilator_basis() != []
    assert len(calls) == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_annihilator_functionals_are_reducer_coefficients(n):
    # functional j is 1 at the j-th free shard and 0 at the other free
    # shards, so the coefficients f_j(X) that reduce reads off the
    # functionals give a member of X's coset supported on the free shards
    g = GroundSet.of_size(n)
    Q = quotient_space(g)
    pivots = Q.relation_set.pivots()
    free = [X for X in Q.shards if X.bits not in pivots]
    basis = Q.relation_set.annihilator_basis()
    assert list(Q.free) == free
    assert len(free) == len(basis) == Q.dim
    for j, f in enumerate(basis):
        assert [f(Y) for Y in free] == [ONE if k == j else ZERO
                                        for k in range(len(free))]
    for X in Q.shards:
        rep = dict(Q.reduce(X).items())
        assert [f(X) for f in basis] == [rep.get(Y, ZERO) for Y in free]


@pytest.mark.parametrize("n", [4, 5])
def test_annihilator_duality_double_enumeration(n):
    # kills every relation <=> every single-cut derivative is semisimple
    g = GroundSet.of_size(n)
    P = Partition.one_block(g)
    R = steinmann_relations(g)
    sample = R.annihilator_basis()[:3]
    sample += [random_functional(P, seed) for seed in range(7)]
    X0 = R.relations[0].items()[0][0]
    sample.append(Functional.indicator(X0))
    cuts = []
    full = g.full_mask
    A = (full - 1) & full
    while A:
        cuts.append(cut_forest(P, full, A))
        A = (A - 1) & full
    for f in sample:
        kills = all(f.evaluate_vector(vec) == ZERO for vec in R)
        derivs = all(is_semisimple(forest_derivative(F, f)) for F in cuts)
        assert kills == derivs


def test_is_semisimple_examples():
    P3 = Partition.one_block(G3)
    assert is_semisimple(random_functional(P3, 11))
    Q = Partition.parse(G4, "(12|34)")
    cls = [c for c in steinmann_classes(Q, Q) if len(c) == 2][0]
    half = Functional.indicator(cls[0])
    assert not is_semisimple(half)
    total = Functional(Q, {X: (1 if X in cls else 0) for X in enumerate_shards(Q)})
    assert is_semisimple(total)


def test_is_semisimple_not_finer():
    Q = Partition.parse(G4, "(12|34)")
    f = random_functional(Q, 0)
    with pytest.raises(NotFinerError):
        is_semisimple(f, Partition.parse(G4, "(13|24)"))


def _differentiable_by_both_routes(f):
    # the single-cut answer must equal the definition: every forest
    # derivative from f's support, the identity forest included, is semisimple
    P = f.support
    depth = P.ground.n - len(P.blocks)
    fast = is_semisimply_differentiable(f)
    slow = all(is_semisimple(forest_derivative(F, f)) for F in iter_forests(P, depth))
    assert fast is slow
    return fast


def test_semisimply_differentiable_routes_agree_n4():
    P = Partition.one_block(G4)
    R = steinmann_relations(G4)
    sample = R.annihilator_basis()[:2]
    sample += [random_functional(P, seed) for seed in (0, 1, 2)]
    X0 = R.relations[0].items()[0][0]
    sample.append(Functional.indicator(X0))
    results = [_differentiable_by_both_routes(f) for f in sample]
    assert results[0] and results[1]
    assert results[-1] is False


def test_semisimply_differentiable_trivial_small():
    for g in (G2, G3):
        P = Partition.one_block(g)
        for seed in range(3):
            assert _differentiable_by_both_routes(random_functional(P, seed))


def test_main_theorem_annihilator_closed_under_derivatives_n4():
    # every forest derivative of an annihilator functional is semisimple
    P = Partition.one_block(G4)
    basis = steinmann_relations(G4).annihilator_basis()
    for F in iter_forests(P, 3):
        ctx_classes = steinmann_classes(F.target, F.target)
        duals = {X: dual_forest_derivative(F, X) for X in enumerate_shards(F.target)}
        for f in basis:
            for cls in ctx_classes:
                v0 = f.evaluate_vector(duals[cls[0]])
                assert all(f.evaluate_vector(duals[X]) == v0 for X in cls[1:])


def test_main_theorem_converse_n4():
    # a functional with a nonzero relation pairing has a bad first derivative
    P = Partition.one_block(G4)
    R = steinmann_relations(G4)
    f = random_functional(P, 2026)
    vec = next(v for v in R if f.evaluate_vector(v) != ZERO)
    assert not is_semisimply_differentiable(f)
    V, (X1, X2) = R.provenance[R.relations.index(vec)]
    F = cut_forest(P, V.parent, V.left)
    assert not is_semisimple(forest_derivative(F, f))


def test_sd_over_general_support():
    Q = Partition.parse(G4, "(12|34)")
    fb = [flat_annihilator_basis(Q, T) for T in Q.blocks]
    mu = product(Q, [fb[0][0], fb[1][1]])
    assert _differentiable_by_both_routes(mu)
    cls = [c for c in steinmann_classes(Q, Q) if len(c) == 2][0]
    half = Functional.indicator(cls[0])
    assert not _differentiable_by_both_routes(half)


def test_quotient_reduce_properties():
    qs = quotient_space(G4)
    assert qs.dim == 26
    P = Partition.one_block(G4)
    R = qs.relation_set
    for vec in R:
        assert qs.contains(vec)
        assert qs.reduce(vec).is_zero()
    items = R.relations[0].items()
    a = qs.reduce(items[0][0])
    b = qs.reduce(items[1][0]).scale(items[1][1])
    # linearity: reduce of the full relation is the signed sum of the parts
    parts = ShardVector.zero(P)
    for X, c in items:
        parts = parts + qs.reduce(X).scale(c)
    assert parts.is_zero()
    X0 = enumerate_shards(P)[0]
    r = qs.reduce(X0)
    assert qs.reduce(r) == r
    assert not qs.contains(ShardVector.basis(X0))


def test_quotient_reduce_equals_construction_from_sign_strings():
    # the coset member supported on the free shards is unique: a difference
    # of two such members in the relation span would be a relation row
    # combination with no pivot column, hence zero.  The reference keys
    # the relation rows by sign string, so reduce's representative is
    # pinned by an echelon it never sees.
    for g in (G2, G3, G4, G5):
        qs = quotient_space(g)
        P = Partition.one_block(g)
        ids = [X.id() for X in qs.shards]
        rows = [{X.id(): c for X, c in v.items()} for v in qs.relation_set]
        pivots = _echelon(rows)
        base = len(pivots)
        free = {k for k in ids if k not in pivots}
        assert len(free) == qs.dim
        vectors = [ShardVector.basis(X) for X in qs.shards]
        for seed in range(3):
            f = random_functional(P, seed)
            vectors.append(ShardVector(P, dict(f.items())))
        for v in vectors:
            got = qs.reduce(v)
            assert all(X.id() in free for X, _ in got.items())
            assert all(type(c) is Fraction and c != 0 for _, c in got.items())
            gap = {X.id(): c for X, c in (v - got).items()}
            assert rank(rows + [gap]) == base


def test_delayering_difference_lies_in_relation_span():
    qs = quotient_space(G4)
    FL = parse_forest(G4, "[[1,2],[3,4]]@L")
    FR = parse_forest(G4, "[[1,2],[3,4]]@R")
    X = enumerate_shards(Partition.singletons(G4))[0]
    dL = dual_forest_derivative(FL, X)
    dR = dual_forest_derivative(FR, X)
    diff = dL - dR
    assert not diff.is_zero()
    assert qs.contains(diff)
    for f in steinmann_relations(G4).annihilator_basis():
        assert f.evaluate_vector(dL) == f.evaluate_vector(dR)
    # a generic functional separates the layerings
    P = Partition.one_block(G4)
    f = random_functional(P, 0x5EED5EED5EED5EED)
    assert f.evaluate_vector(diff) != ZERO


def test_product_identity_and_ones():
    P = Partition.one_block(G3)
    f = random_functional(P, 5)
    assert product(P, [f]) == f
    Q = Partition.parse(G4, "(12|34)")
    ones = [
        Functional.from_callable(simple_flat(Q, T), lambda X: ONE) for T in Q.blocks
    ]
    mu = product(Q, ones)
    assert mu.support == Q
    assert all(mu(X) == ONE for X in enumerate_shards(Q))


def test_product_values_multiply_components():
    from shardcalc.arrangement import project

    Q = Partition.parse(G4, "(12|34)")
    fb = [flat_annihilator_basis(Q, T) for T in Q.blocks]
    f1, f2 = fb[0][0], fb[1][1]
    mu = product(Q, [f1, f2])
    for X in enumerate_shards(Q):
        c1, c2 = project(Q, X)
        assert mu(X) == f1(c1) * f2(c2)


def test_product_refined_factor_support():
    Q = Partition.parse(G4, "(12|34)")
    left = Partition.parse(G4, "(1|2|3|4)")
    f1 = random_functional(left, 3)
    f2 = random_functional(simple_flat(Q, 0b1100), 4)
    mu = product(Q, [f1, f2])
    assert mu.support == Partition.parse(G4, "(1|2|34)")


def test_product_errors():
    Q = Partition.parse(G4, "(12|34)")
    f = random_functional(simple_flat(Q, 0b0011), 0)
    with pytest.raises(ValueError):
        product(Q, [f])
    g = random_functional(simple_flat(Q, 0b0011), 1)
    with pytest.raises(SupportMismatchError):
        product(Q, [f, g])  # second factor sits on the wrong block
    h = random_functional(Partition.parse(G4, "(13|2|4)"), 2)
    with pytest.raises(SupportMismatchError):
        product(Q, [h, g])


def test_factorize_round_trip():
    Q = Partition.parse(G4, "(12|34)")
    fb = [flat_annihilator_basis(Q, T) for T in Q.blocks]
    mu = product(Q, [fb[0][0], fb[1][1]])
    fac = factorize(Q, mu)
    assert fac.coefficients == {(0, 1): ONE}
    assert fac.factors is not None
    assert product(Q, fac.factors) == mu
    assert fac.expand() == mu


def test_factorize_scaled_product_recovers_scale():
    Q = Partition.parse(G4, "(12|34)")
    fb = [flat_annihilator_basis(Q, T) for T in Q.blocks]
    f1 = Functional(
        fb[0][0].support,
        {X: rat("3/2") * fb[0][0](X) - fb[0][1](X) for X in enumerate_shards(fb[0][0].support)},
    )
    f2 = Functional(
        fb[1][0].support,
        {X: fb[1][0](X) + rat(7) * fb[1][1](X) for X in enumerate_shards(fb[1][0].support)},
    )
    mu = product(Q, [f1, f2])
    fac = factorize(Q, mu)
    assert fac.factors is not None
    assert product(Q, fac.factors) == mu


def test_factorize_sum_of_products_has_no_factors():
    Q = Partition.parse(G4, "(12|34)")
    fb = [flat_annihilator_basis(Q, T) for T in Q.blocks]
    a = product(Q, [fb[0][0], fb[1][0]])
    b = product(Q, [fb[0][1], fb[1][1]])
    mix = Functional(Q, {X: a(X) + b(X) for X in enumerate_shards(Q)})
    fac = factorize(Q, mix)
    assert fac.factors is None
    assert fac.coefficients == {(0, 0): ONE, (1, 1): ONE}
    assert fac.expand() == mix


def test_factorize_rejects_non_semisimple():
    Q = Partition.parse(G4, "(12|34)")
    cls = [c for c in steinmann_classes(Q, Q) if len(c) == 2][0]
    with pytest.raises(NotSemisimpleError):
        factorize(Q, Functional.indicator(cls[0]))


def test_factorize_zero():
    Q = Partition.parse(G4, "(12|34)")
    fac = factorize(Q, Functional.zero(Q))
    assert fac.coefficients == {}
    assert fac.factors is None
    assert fac.expand() == Functional.zero(Q)


def test_factorize_one_block_is_expansion_in_annihilator_basis():
    P = Partition.one_block(G4)
    f = steinmann_relations(G4).annihilator_basis()[3]
    fac = factorize(P, f)
    assert fac.factors is not None
    assert fac.factors[0] == f


def _augmented_solve(P, f):
    # reference: f as the one kernel vector of an augmented system over
    # the index tuples and a right-hand side, solved by elimination
    bases = [flat_annihilator_basis(P, T) for T in P.blocks]
    alphas = list(itertools.product(*[range(len(b)) for b in bases]))
    rhs = len(alphas)  # columns: the positions of alphas, then rhs
    rows = []
    for X in enumerate_shards(P):
        comps = arrangement.project(P, X)
        row = {rhs: f(X)}
        for k, alpha in enumerate(alphas):
            row[k] = math.prod(bases[j][i](comps[j])
                               for j, i in enumerate(alpha))
        rows.append(row)
    (sol,) = kernel_basis(_echelon(rows), range(rhs + 1))
    return {alpha: -sol[k] / sol[rhs] for k, alpha in enumerate(alphas) if k in sol}


def _sum_of_products(P, rng):
    # one to three products of random rational combinations of each
    # block's basis functionals
    bases = [flat_annihilator_basis(P, T) for T in P.blocks]
    total = dict.fromkeys(enumerate_shards(P), ZERO)
    for _ in range(rng.randint(1, 3)):
        factors = []
        for basis in bases:
            ws = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in basis]
            flat = basis[0].support
            factors.append(Functional(flat, {
                X: sum((w * g(X) for w, g in zip(ws, basis)), ZERO)
                for X in enumerate_shards(flat)}))
        term = product(P, factors)
        for X in total:
            total[X] += term(X)
    return Functional(P, total)


def test_factorize_reads_the_augmented_solve():
    rng = random.Random(5)
    supports = list(all_partitions(G4)) + [
        P for P in all_partitions(G5) if len(P.blocks) in (2, 3)]
    for P in supports:
        bases = [flat_annihilator_basis(P, T) for T in P.blocks]
        dims = [len(b) for b in bases]
        for _ in range(2):
            f = _sum_of_products(P, rng)
            fac = factorize(P, f)
            ref = _augmented_solve(P, f)
            assert fac.coefficients == ref
            assert list(fac.coefficients) == list(ref)
            assert fac.factors == steinmann._rank_one_factors(bases, ref, dims)
            assert fac.expand() == f


@pytest.mark.parametrize("text", ["(12|34)", "(1234)", "(123|4)"])
def test_factorize_refuses_a_basis_that_is_not_1_at_its_own_shard(
        monkeypatch, text):
    # the sum of the first two functionals is still a basis, but no longer
    # 1 at one free shard and 0 at the others
    P = Partition.parse(G4, text)
    f = _sum_of_products(P, random.Random(1))
    factorize(P, f)
    real = steinmann.flat_annihilator_basis

    def broken(P, T):
        basis = real(P, T)
        if len(basis) < 2:
            return basis
        head = Functional(basis[0].support,
                          {X: c + basis[1](X) for X, c in basis[0].items()})
        return [head] + basis[1:]

    monkeypatch.setattr(steinmann, "flat_annihilator_basis", broken)
    with pytest.raises(InvariantViolation):
        factorize(P, f)


def test_tensor_dimension_matches_class_count():
    # the blockwise product map is a bijection onto the semisimple span
    for text in ("(12|34)", "(123|4)", "(12|3|4)", "(1|2|3|4)"):
        Q = Partition.parse(G4, text)
        dims = 1
        for T in Q.blocks:
            dims *= len(flat_annihilator_basis(Q, T))
        assert dims == len(steinmann_classes(Q, Q))


def test_tensor_dimension_matches_class_count_n5():
    for text in ("(12|345)", "(123|45)", "(12|34|5)"):
        Q = Partition.parse(G5, text)
        dims = 1
        for T in Q.blocks:
            dims *= len(flat_annihilator_basis(Q, T))
        assert dims == len(steinmann_classes(Q, Q))


def testflat_annihilator_basis_transport():
    Q = Partition.parse(G4, "(123|4)")
    fb = flat_annihilator_basis(Q, 0b0111)
    assert len(fb) == 6
    flat = simple_flat(Q, 0b0111)
    sub = GroundSet.of_size(3)
    sub_basis = steinmann_relations(sub).annihilator_basis()
    sub_shards = enumerate_shards(Partition.one_block(sub))
    for f, g in zip(fb, sub_basis):
        table = {X.id(): f(X) for X in enumerate_shards(flat)}
        for Y in sub_shards:
            assert table[Y.id()] == g(Y)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_duality_property_random(seed):
    P = Partition.one_block(G4)
    f = random_functional(P, seed)
    R = steinmann_relations(G4)
    kills = all(f.evaluate_vector(vec) == ZERO for vec in R)
    assert kills == is_semisimply_differentiable(f)
