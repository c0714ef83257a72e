import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shardcalc import calculus, forests
from shardcalc.exactla import ZERO, ONE, _echelon, kernel_basis, rat, rat_str
from shardcalc.ground import GroundSet, Partition, GroundMismatchError, all_partitions
from shardcalc.forests import (
    BoundaryMismatchError,
    Cut,
    LayeredForest,
    compose,
    cut_forest,
    identity_forest,
    iter_forests,
    parse_forest,
)
from shardcalc.arrangement import context_for, enumerate_shards, shard_from_signs
from shardcalc.calculus import (
    Functional,
    InvariantViolation,
    ShardVector,
    arrow,
    dual_forest_derivative,
    dual_rows,
    forest_derivative,
    random_functional,
)
from shardcalc.steinmann import steinmann_relations

G2 = GroundSet.of_size(2)
G3 = GroundSet.of_size(3)
G4 = GroundSet.of_size(4)


def zero_dim_shard(g):
    return enumerate_shards(Partition(g, [1 << i for i in range(len(g.labels))]))[0]


def test_arrow_two_element_ground():
    X = zero_dim_shard(G2)
    V = Cut(G2, 0b11, 0b01)
    up = arrow(X, V)
    down = arrow(X, V.reversed())
    assert up in enumerate_shards(up.support)
    assert down in enumerate_shards(down.support)
    assert up.sign_of(0b01) == 1
    assert down.sign_of(0b01) == -1
    assert up != down


def test_arrow_inherits_codim_one_signs():
    # raising a wall shard of (12|34) to full support keeps every sign that
    # was already carried, and settles the new wall key to +
    Q = Partition(G4, [0b0011, 0b1100])
    P = Partition(G4, [0b1111])
    V = Cut(G4, 0b1111, 0b0011)
    ctxP = context_for(P)
    for X in enumerate_shards(Q):
        up = arrow(X, V)
        down = arrow(X, V.reversed())
        # independent route: full-support shards agreeing with X wherever X
        # carries a sign are exactly the two sides of the wall
        nbrs = [
            Y
            for Y in enumerate_shards(P)
            if all(
                Y.sign_of(rep) == X.sign_of(rep)
                for rep in ctxP.keys
                if X.sign_of(rep) != 0
            )
        ]
        assert len(nbrs) == 2
        assert {up, down} == set(nbrs)
        assert up.sign_of(0b0011) == 1
        assert down.sign_of(0b0011) == -1


def test_arrow_boundary_errors():
    Q = Partition(G3, [0b011, 0b100])
    X2 = enumerate_shards(Q)[0]
    with pytest.raises(BoundaryMismatchError):
        arrow(X2, Cut(G3, 0b011, 0b001))  # {1},{2} are not blocks of (12|3)
    with pytest.raises(GroundMismatchError):
        arrow(X2, Cut(G4, 0b0011, 0b0001))


def test_dual_identity_forest():
    P = Partition(G3, [0b111])
    for X in enumerate_shards(P):
        v = ShardVector.basis(X)
        assert dual_forest_derivative(identity_forest(P), v) == v


def test_arrow_memo_matches_fresh_computation():
    # every shard and every cut merging two of its blocks, up to n = 4
    checked = 0
    for g in (G2, G3, G4):
        for Q in all_partitions(g):
            cuts = [Cut(g, a | b, left)
                    for i, a in enumerate(Q.blocks) for b in Q.blocks[i + 1:]
                    for left in (a, b)]
            for X in enumerate_shards(Q):
                for V in cuts:
                    Y = arrow(X, V)
                    assert Y == calculus._arrow(X, V)
                    assert arrow(X, V) is Y
                    checked += 1
    assert checked == 200


def test_dual_derivative_cross_check_catches_a_wrong_sign(monkeypatch):
    # the antisymmetrized route runs on every call; one flipped sign in it
    # must surface as InvariantViolation, not as a silently wrong vector
    def one_sign_flipped(F):
        terms = list(forests.antisymmetrize(F))
        sign, G = terms[-1]
        return terms[:-1] + [(-sign, G)]

    F = parse_forest(G3, "[[1,2],3]")
    X = zero_dim_shard(G3)
    f = random_functional(F.source, 1)
    dual_forest_derivative(F, X)
    forest_derivative(F, f)
    monkeypatch.setattr(calculus, "antisymmetrize", one_sign_flipped)
    with pytest.raises(InvariantViolation, match=r"\[\[1,2\],3\]"):
        dual_forest_derivative(F, X)
    with pytest.raises(InvariantViolation, match=r"\[\[1,2\],3\]"):
        forest_derivative(F, f)


def test_dual_rows_equal_one_row_derivatives():
    # every forest with <= 3 cuts from every support at n=4, all shards of
    # its target in one call: the rows are the one-row derivatives, as ints
    forests_checked = 0
    for P in all_partitions(G4):
        for F in iter_forests(P, 3):
            shards = enumerate_shards(F.target)
            rows = dual_rows(F, [{X: 1} for X in shards])
            assert len(rows) == len(shards)
            for X, row in zip(shards, rows):
                assert row == dual_forest_derivative(F, X).entries
                assert all(type(c) is int and c != 0 for c in row.values())
            forests_checked += 1
    assert forests_checked == 365
    # mixed Fraction and int coefficients, a zero among them, give the
    # derivative of the ShardVector they make
    F = parse_forest(G4, "[123,4]")
    X, Y, Z = enumerate_shards(F.target)[:3]
    v = {X: Fraction(1, 3), Y: -2, Z: Fraction(0)}
    (row,) = dual_rows(F, [v])
    assert row == dual_forest_derivative(F, ShardVector(F.target, v)).entries
    assert row and all(c != 0 for c in row.values())


def test_dual_rows_antisymmetrize_once_and_refuse_other_supports(monkeypatch):
    F = parse_forest(G4, "[[12,3],4]")
    calls = []

    def counted(G):
        calls.append(G)
        return forests.antisymmetrize(G)
    monkeypatch.setattr(calculus, "antisymmetrize", counted)
    shards = enumerate_shards(F.target)
    assert len(dual_rows(F, [{X: 1} for X in shards])) == len(shards)
    assert calls == [F]
    with pytest.raises(BoundaryMismatchError):
        dual_rows(F, [{enumerate_shards(F.source)[0]: 1}])


def test_trusted_results_equal_validated_construction():
    # every forest from every support to n = 4: the derivatives built without
    # the validating constructors are what those constructors would build,
    # with nonzero Fraction coefficients only
    forests_checked = 0
    for g in (G2, G3, G4):
        for P in all_partitions(g):
            f = random_functional(P, forests_checked)
            for F in iter_forests(P, g.n - len(P.blocks)):
                for X in enumerate_shards(F.target):
                    d = dual_forest_derivative(F, X)
                    assert all(type(c) is Fraction and c != 0 for _, c in d.items())
                    assert d == ShardVector(F.source, dict(d.items()))
                df = forest_derivative(F, f)
                assert all(type(c) is Fraction for _, c in df.items())
                assert df == Functional(F.target, dict(df.items()))
                forests_checked += 1
    assert forests_checked == 398


def test_dual_derivative_is_linear_over_fractions():
    P = Partition(G4, [0b1111])
    F = parse_forest(G4, "[[12,3],4]")
    a, b = Fraction(1, 3), Fraction(-2, 5)
    shards = enumerate_shards(F.target)
    for X in shards:
        for Y in shards:
            v = ShardVector.basis(X, a) + ShardVector.basis(Y, b)
            d = dual_forest_derivative(F, v)
            dX, dY = dual_forest_derivative(F, X), dual_forest_derivative(F, Y)
            assert d == dX.scale(a) + dY.scale(b)
            assert d.support == P
            assert all(type(c) is Fraction and c != 0 for _, c in d.items())


def test_annihilator_basis_equals_construction_from_sign_strings():
    # the relation echelon is keyed by shard bits, whose ascending order is
    # id order; the reference keys the same rows by sign string and maps
    # kernel vectors back
    for g in (G2, G3, G4, GroundSet.of_size(5)):
        R = steinmann_relations(g)
        P = Partition.one_block(g)
        ids = [X.id() for X in R.shard_basis()]
        assert ids == sorted(ids)
        assert set(R.pivots()) <= {X.bits for X in R.shard_basis()}
        rows = [{X.id(): c for X, c in v.items()} for v in R]
        expected = []
        for vec in kernel_basis(_echelon(rows), ids):
            values = {X.id(): ZERO for X in enumerate_shards(P)}
            values.update(vec)
            expected.append(Functional(P, values))
        basis = R.annihilator_basis()
        assert basis == expected
        assert all(type(c) is Fraction for f in basis for _, c in f.items())


def test_dual_single_wall_sum_is_zero():
    X = zero_dim_shard(G2)
    d1 = dual_forest_derivative(parse_forest(G2, "[1,2]"), X)
    d2 = dual_forest_derivative(parse_forest(G2, "[2,1]"), X)
    assert (d1 + d2).is_zero()
    assert len(d1) == 2
    plus = shard_from_signs(Partition(G2, [0b11]), "+")
    assert d1.coefficient(plus) == ONE


def test_dual_three_cyclic_sum_is_zero():
    X = zero_dim_shard(G3)
    total = None
    for text in ("[[1,2],3]", "[[3,1],2]", "[[2,3],1]"):
        d = dual_forest_derivative(parse_forest(G3, text), X)
        total = d if total is None else total + d
    assert total.is_zero()


def test_dual_functoriality_exhaustive():
    # all composable pairs with <= 3 total cuts, every ground size 2..4
    for g in (G2, G3, G4):
        n = len(g.labels)
        from shardcalc.ground import all_partitions

        for P in all_partitions(g):
            for F1 in iter_forests(P, 2):
                for F2 in iter_forests(F1.target, 3 - len(F1.cuts)):
                    C = compose(F1, F2)
                    for X in enumerate_shards(C.target):
                        lhs = dual_forest_derivative(C, X)
                        rhs = dual_forest_derivative(
                            F1, dual_forest_derivative(F2, X)
                        )
                        assert lhs == rhs


def test_functional_functoriality():
    P = Partition(G4, [0b1111])
    f = random_functional(P, 7)
    F1 = cut_forest(P, 0b1111, 0b0011)
    F2 = cut_forest(F1.target, 0b0011, 0b0001)
    assert forest_derivative(compose(F1, F2), f) == forest_derivative(
        F2, forest_derivative(F1, f)
    )


def test_forest_derivative_identity_and_indicator():
    P2 = Partition(G2, [0b11])
    f = random_functional(P2, 3)
    assert forest_derivative(identity_forest(P2), f) == f
    plus = shard_from_signs(P2, "+")
    df = forest_derivative(parse_forest(G2, "[1,2]"), Functional.indicator(plus))
    (pair,) = df.items()
    assert pair[1] == ONE


def test_single_cut_is_a_finite_difference():
    P = Partition(G4, [0b1111])
    f = random_functional(P, 11)
    V = Cut(G4, 0b1111, 0b0101)
    F = LayeredForest(P, [V])
    df = forest_derivative(F, f)
    for X in enumerate_shards(F.target):
        assert df(X) == f(arrow(X, V)) - f(arrow(X, V.reversed()))


LAYERING_SEED = 0x5EED5EED5EED5EED


def test_derivative_depends_on_layering():
    P = Partition(G4, [0b1111])
    f = random_functional(P, LAYERING_SEED)
    left = forest_derivative(parse_forest(G4, "[[1,2],[3,4]]@L"), f)
    right = forest_derivative(parse_forest(G4, "[[1,2],[3,4]]@R"), f)
    assert left != right


def test_bracket_antisymmetry_small():
    # [T1,T2] and [T2,T1] share the layering of the inner forest; only the
    # root cut flips, and the derivatives cancel
    P2 = Partition(G4, [0b0111, 0b1000])
    sk12 = LayeredForest(P2, [Cut(G4, 0b0111, 0b0011)])
    sk21 = LayeredForest(P2, [Cut(G4, 0b0111, 0b0100)])
    inner = LayeredForest(sk12.target, [Cut(G4, 0b0011, 0b0001)])
    A = compose(sk12, inner)
    B = compose(sk21, inner)
    for X in enumerate_shards(A.target):
        s = dual_forest_derivative(A, X) + dual_forest_derivative(B, X)
        assert s.is_zero()


def test_bracket_jacobi_small():
    # [[Ta,Tb],Tc] skeletons over the same inner forest, cyclic sum vanishes
    P = Partition(G4, [0b1111])
    B1, B2, B3 = 0b0011, 0b0100, 0b1000
    inner = LayeredForest(
        Partition(G4, [B1, B2, B3]), [Cut(G4, B1, 0b0001)]
    )
    terms = []
    for Ba, Bb in ((B1, B2), (B3, B1), (B2, B3)):
        skel = LayeredForest(
            P, [Cut(G4, 0b1111, Ba | Bb), Cut(G4, Ba | Bb, Ba)]
        )
        terms.append(compose(skel, inner))
    for X in enumerate_shards(terms[0].target):
        total = None
        for F in terms:
            d = dual_forest_derivative(F, X)
            total = d if total is None else total + d
        assert total.is_zero()


def test_shard_vector_arithmetic():
    P = Partition(G3, [0b111])
    a, b = enumerate_shards(P)[:2]
    v = ShardVector.basis(a) + ShardVector.basis(b).scale(rat("3/2"))
    assert v.coefficient(a) == ONE
    assert v.coefficient(b) == rat("3/2")
    assert (v - v).is_zero()
    assert (-v).coefficient(b) == rat("-3/2")
    assert len(v) == 2
    w = ShardVector(P, {a: 1, b: rat("3/2")})
    assert v == w
    z = ShardVector.zero(P)
    assert v + z == v
    with pytest.raises(BoundaryMismatchError):
        v + ShardVector.zero(Partition(G3, [0b011, 0b100]))
    with pytest.raises(BoundaryMismatchError):
        ShardVector(Partition(G3, [0b011, 0b100]), {a: 1})
    assert all(type(x) is Fraction and x != 0 for x in v.entries.values())


def test_functional_totality_and_errors():
    P = Partition(G3, [0b111])
    shards = enumerate_shards(P)
    with pytest.raises(ValueError):
        Functional(P, {shards[0]: 1})
    f = Functional.zero(P)
    assert all(c == ZERO for _, c in f.items())
    g = Functional.from_callable(P, lambda X: rat(1) if X.id()[0] == "+" else ZERO)
    assert sum(c for _, c in g.items()) == rat(3)
    with pytest.raises(BoundaryMismatchError):
        f(zero_dim_shard(G3))


def test_functional_stores_nonzero_values_only():
    P = Partition(G4, [0b0011, 0b1100])
    shards = enumerate_shards(P)
    raw = {X: (rat(i % 3 - 1) / 2 if i % 4 else ZERO) for i, X in enumerate(shards)}
    f = Functional(P, raw)
    nonzero = {X: c for X, c in raw.items() if c}
    assert 0 < len(nonzero) < len(shards)
    assert f.values == nonzero
    assert all(f(X) == c for X, c in raw.items())
    assert f == Functional._trusted(f.ctx, nonzero)
    assert f == Functional._trusted(f.ctx, raw)
    assert f.items() == [(X, raw[X]) for X in shards]
    assert f.to_json_obj()["values"] == {
        X.id(): rat_str(raw[X]) for X in shards}
    assert Functional.zero(P).values == {}
    assert Functional.indicator(shards[2]).values == {shards[2]: ONE}
    assert repr(f) == "Functional((12|34), %d shards)" % len(shards)


def test_annihilator_basis_stores_only_its_nonzero_values():
    # 150 functionals over 370 shards at n=5, 919 of the 55,500 values nonzero
    basis = steinmann_relations(GroundSet.of_size(5)).annihilator_basis()
    assert len(basis) == 150
    assert sum(len(f.values) for f in basis) == 919
    assert all(type(c) is Fraction and c != 0
               for f in basis for c in f.values.values())


def _mixed_functional(P, seed):
    # values over several denominators, a quarter of them zero
    rng = random.Random(seed)
    return Functional.from_callable(P, lambda X: Fraction(
        rng.randint(-9, 9) * (rng.random() > 0.25), rng.choice((1, 2, 3, 5, 7))))


@pytest.mark.parametrize("fractional", [False, True], ids=["integral", "fractional"])
def test_forest_derivative_matches_fractional_evaluation(monkeypatch, fractional):
    # the integer sums over scaled values give what Fraction arithmetic
    # over the dual derivative gives, for every forest with <= 2 cuts at
    # n=4; a shard's row has integer coefficients, so the fractional case
    # divides the k-th one by k to reach its scaling too
    rows = dual_rows
    if fractional:
        ks = {}

        def rows(F, vectors):
            vectors = list(vectors)
            return [{Y: Fraction(c, ks.setdefault((id(F), X), len(ks) + 1))
                     for Y, c in row.items()}
                    for (X,), row in zip(vectors, dual_rows(F, vectors))]
        monkeypatch.setattr(calculus, "dual_rows", rows)
    forests_checked = 0
    for P in all_partitions(G4):
        f = _mixed_functional(P, forests_checked)
        for F in iter_forests(P, 2):
            expected = {}
            for X in enumerate_shards(F.target):
                total = Fraction(0)
                for Y, c in rows(F, [{X: 1}])[0].items():
                    total += c * f(Y)
                expected[X] = total
            df = forest_derivative(F, f)
            assert df == Functional(F.target, expected)
            assert all(type(c) is Fraction and c != 0 for c in df.values.values())
            forests_checked += 1
    assert forests_checked == 221


def test_shards_of_another_support_are_refused_not_reinterned():
    # (12|3) and (13|2) have equally many keys, so their sign patterns line
    # up; a shard of one is still not a shard of the other
    P = Partition.parse(G3, "(12|3)")
    Q = Partition.parse(G3, "(13|2)")
    foreign = enumerate_shards(Q)
    with pytest.raises(ValueError):
        Functional(P, {Y: 1 for Y in foreign})
    with pytest.raises(BoundaryMismatchError):
        ShardVector(P, {foreign[0]: 1})
    f = Functional.zero(P)
    with pytest.raises(BoundaryMismatchError):
        f(foreign[0])
    with pytest.raises(BoundaryMismatchError):
        f.evaluate_vector(ShardVector.basis(foreign[0]))
    assert f != Functional.zero(Q)
    assert ShardVector.zero(P) != ShardVector.zero(Q)


def test_functional_json_roundtrip():
    P = Partition(G4, [0b0011, 0b1100])
    f = random_functional(P, 99)
    obj = f.to_json_obj()
    assert obj["kind"] == "functional"
    assert obj["support"] == "(12|34)"
    assert Functional(P, obj["values"]) == f
    v = dual_forest_derivative(
        parse_forest(G4, "[12,34]"), ShardVector.basis(enumerate_shards(P)[0])
    )
    ov = v.to_json_obj()
    back = ShardVector(
        Partition(G4, [0b1111]),
        {
            shard_from_signs(Partition(G4, [0b1111]), k): c
            for k, c in ov["values"].items()
        },
    )
    assert back == v


def test_evaluate_vector_is_linear():
    P = Partition(G4, [0b1111])
    f = random_functional(P, 5)
    a, b = enumerate_shards(P)[3], enumerate_shards(P)[17]
    v = ShardVector(P, {a: rat(2), b: rat("-1/3")})
    assert f.evaluate_vector(v) == rat(2) * f(a) + rat("-1/3") * f(b)


_Q4 = Partition(G4, [0b0011, 0b1100])
_SH4 = enumerate_shards(_Q4)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(_SH4), st.integers(-3, 3)),
        min_size=0,
        max_size=4,
    )
)
def test_dual_derivative_is_linear(pairs):
    F = parse_forest(G4, "[12,34]")
    v = ShardVector.zero(_Q4)
    expected = ShardVector.zero(Partition(G4, [0b1111]))
    for X, c in pairs:
        v = v + ShardVector.basis(X).scale(c)
        expected = expected + dual_forest_derivative(F, X).scale(c)
    assert dual_forest_derivative(F, v) == expected
