import hashlib

import pytest
from hypothesis import given, strategies as st

from shardcalc.ground import GroundSet, Partition, GroundMismatchError, all_partitions
from shardcalc.forests import (
    AmbiguousLayeringError,
    BoundaryMismatchError,
    Cut,
    ForestSyntaxError,
    LayeredForest,
    all_trees,
    antisymmetrize,
    compose,
    cut_forest,
    format_forest,
    identity_forest,
    iter_forests,
    parse_forest,
)

G3 = GroundSet.of_size(3)
G4 = GroundSet.of_size(4)


def serials(F):
    return [(c.parent, c.left) for c in F.cuts]


def test_parse_single_cut():
    F = parse_forest(G3, "[1,23]")
    assert F.source == Partition(G3, [0b111])
    assert F.target == Partition(G3, [0b001, 0b110])
    assert serials(F) == [(0b111, 0b001)]


def test_parse_nested_chain():
    g = GroundSet(["2", "3", "5"])
    F = parse_forest(g, "[[2,3],5]")
    assert F.source.format() == "(235)"
    assert F.target.format() == "(2|3|5)"
    # root cut first, then the inner cut of {2,3}
    assert serials(F) == [(0b111, 0b011), (0b011, 0b001)]


def test_parse_layering_sugar():
    FL = parse_forest(G4, "[[1,2],[3,4]]@L")
    FR = parse_forest(G4, "[[1,2],[3,4]]@R")
    assert serials(FL) == [(0b1111, 0b0011), (0b0011, 0b0001), (0b1100, 0b0100)]
    assert serials(FR) == [(0b1111, 0b0011), (0b1100, 0b0100), (0b0011, 0b0001)]
    # sugar and explicit permutations agree
    assert FL == parse_forest(G4, "[[1,2],[3,4]]@012")
    assert FR == parse_forest(G4, "[[1,2],[3,4]]@021")
    assert FL == parse_forest(G4, "[[1,2],[3,4]]@0,1,2")


def test_parse_requires_annotation_when_ambiguous():
    with pytest.raises(AmbiguousLayeringError):
        parse_forest(G4, "[[1,2],[3,4]]")
    with pytest.raises(AmbiguousLayeringError):
        parse_forest(G4, "[1,2]|[3,4]")


def test_layering_sugar_needs_exactly_two():
    # a chain has a unique layering
    with pytest.raises(AmbiguousLayeringError):
        parse_forest(G3, "[[1,2],3]@L")
    # three one-cut trees admit six layerings
    g6 = GroundSet.of_size(6)
    with pytest.raises(AmbiguousLayeringError):
        parse_forest(g6, "[1,2]|[3,4]|[5,6]@L")


def test_parse_rejects_bad_permutations():
    with pytest.raises(ForestSyntaxError):
        parse_forest(G4, "[[1,2],[3,4]]@011")
    with pytest.raises(ForestSyntaxError):
        parse_forest(G4, "[[1,2],[3,4]]@120")  # inner cut before the root
    with pytest.raises(ForestSyntaxError):
        parse_forest(G4, "[[1,2],[3,4]]@xy")


def test_parse_syntax_errors_carry_position():
    with pytest.raises(ForestSyntaxError) as e:
        parse_forest(G3, "[1,23")
    assert e.value.pos == 5
    with pytest.raises(ForestSyntaxError):
        parse_forest(G3, "[1;23]")
    with pytest.raises(ForestSyntaxError):
        parse_forest(G3, "[1,4]")
    with pytest.raises(ForestSyntaxError):
        parse_forest(G3, "[1,[2,1]]")


def test_parse_refuses_nesting_deeper_than_a_tree_allows():
    # a tree on n labels nests at most n - 1 brackets
    assert len(parse_forest(G4, "[[[1,2],3],4]").cuts) == 3
    with pytest.raises(ForestSyntaxError) as e:
        parse_forest(G4, "[[[[1,2],3],4],1]")
    assert e.value.pos == 3
    with pytest.raises(ForestSyntaxError):
        parse_forest(G3, "[" * 3000)


def test_parse_leaves_and_braces():
    g = GroundSet(["a1", "b", "c"])
    F = parse_forest(g, "[{a1,c},b]")
    assert serials(F) == [(0b111, 0b101)]
    assert format_forest(F) == "[{a1,c},b]"
    # single multi-char label needs no braces
    assert format_forest(parse_forest(g, "[a1,{b,c}]")) == "[a1,{b,c}]"
    # a leaf reads as a partition block does, so {12} over single-character
    # labels is the leaf {1,2}, and a bad label is reported at its leaf
    assert parse_forest(G3, "[{12},3]") == parse_forest(G3, "[12,3]")
    with pytest.raises(ForestSyntaxError) as e:
        parse_forest(G3, "[1,{24}]")
    assert e.value.pos == 3


def test_identity_and_leaf_only_forests():
    P = Partition(G4, [0b0011, 0b1100])
    F = parse_forest(G4, "12|34")
    assert F == identity_forest(P)
    assert not F.cuts
    assert format_forest(F) == "12|34"


def test_cut_validation():
    with pytest.raises(ValueError):
        Cut(G3, 0b011, 0b100)  # left outside parent
    with pytest.raises(ValueError):
        Cut(G3, 0b011, 0)
    with pytest.raises(ValueError):
        Cut(G3, 0b011, 0b011)  # left must be proper
    with pytest.raises(ValueError):
        Cut(G3, 0b1011, 0b001)  # parent outside the ground
    P = Partition(G3, [0b111])
    with pytest.raises(ValueError):
        LayeredForest(P, [Cut(G3, 0b011, 0b001)])  # splits an absent block


def test_cuts_are_interned_by_labels_parent_left():
    V = Cut(G3, 0b111, 0b1)
    assert V is Cut(GroundSet.of_size(3), 0b111, 0b1)
    assert V.reversed() is Cut(G3, 0b111, 0b110)
    assert V.reversed().reversed() is V
    assert V is not Cut(GroundSet(["1", "2", "x"]), 0b111, 0b1)


def test_compose_unital_and_boundary():
    P = Partition(G4, [0b1111])
    F1 = cut_forest(P, 0b1111, 0b0011)
    assert compose(identity_forest(P), F1) == F1
    assert compose(F1, identity_forest(F1.target)) == F1
    F2 = cut_forest(F1.target, 0b0011, 0b0001)
    with pytest.raises(BoundaryMismatchError):
        compose(F2, F1)
    with pytest.raises(GroundMismatchError):
        compose(F1, cut_forest(Partition(G3, [0b111]), 0b111, 0b001))


def test_compose_associative_exhaustive():
    P = Partition(G4, [0b1111])
    for F1 in iter_forests(P, 1):
        for F2 in iter_forests(F1.target, 1):
            for F3 in iter_forests(F2.target, 1):
                assert compose(compose(F1, F2), F3) == compose(
                    F1, compose(F2, F3)
                )


def test_compose_keeps_outer_cuts_first():
    P = Partition(G4, [0b1111])
    F1 = cut_forest(P, 0b1111, 0b0011)
    F2 = cut_forest(F1.target, 0b1100, 0b0100)
    F3 = cut_forest(F2.target, 0b0011, 0b0001)
    c = compose(compose(F1, F2), F3)
    assert serials(c) == [(0b1111, 0b0011), (0b1100, 0b0100), (0b0011, 0b0001)]
    assert format_forest(c) == "[[1,2],[3,4]]@021"


def test_antisymmetrize_single_cut():
    F = parse_forest(G3, "[12,3]")
    terms = list(antisymmetrize(F))
    assert terms[0] == (1, F)
    assert terms[1] == (-1, parse_forest(G3, "[3,12]"))
    assert len(terms) == 2


def test_antisymmetrize_two_cuts():
    F = parse_forest(G3, "[[1,2],3]")
    got = {(s, format_forest(f)) for s, f in antisymmetrize(F)}
    assert got == {
        (1, "[[1,2],3]"),
        (-1, "[3,[1,2]]"),
        (-1, "[[2,1],3]"),
        (1, "[3,[2,1]]"),
    }


def test_antisymmetrize_signs_cancel():
    for text in ("[1,23]", "[[1,2],3]", "[[1,2],[3,4]]@L"):
        g = G4 if "4" in text else G3
        total = sum(s for s, _ in antisymmetrize(parse_forest(g, text)))
        assert total == 0


def test_all_trees_examples():
    P = Partition(G3, [0b111])
    sticks = all_trees(P, 0b111, [0b111])
    assert sticks == [identity_forest(P)]
    two = all_trees(P, 0b111, [0b001, 0b110])
    assert [format_forest(t) for t in two] == ["[1,23]", "[23,1]"]
    singles = [1 << i for i in range(3)]
    twelve = all_trees(P, 0b111, singles)
    assert len(twelve) == 12
    assert len({format_forest(t) for t in twelve}) == 12
    for t in twelve:
        assert t.source == P
        assert t.target == Partition(G3, [1, 2, 4])


def test_all_trees_against_merge_sequences():
    # independent construction: reverse every layered tree into an ordered
    # merge sequence; build all such sequences directly and compare
    P = Partition(G4, [0b1111])
    singles = [1 << i for i in range(4)]
    built = {t.serial() for t in all_trees(P, 0b1111, singles)}

    seqs = set()

    def rec(blocks, cuts):
        if len(blocks) == 1:
            seqs.add(tuple(reversed(cuts)))
            return
        for i, a in enumerate(blocks):
            for j, b in enumerate(blocks):
                if i == j:
                    continue
                rest = [blocks[k] for k in range(len(blocks)) if k not in (i, j)]
                rec(rest + [a | b], cuts + [(a | b, a)])

    rec([1, 2, 4, 8], [])
    assert built == seqs
    assert len(built) == 144


def _pick_mask_lefts(atoms):
    # the split loop as first written: bit t of pick takes atoms[t]; the
    # empty and the full pick are skipped
    for pick in range(1, 1 << len(atoms)):
        if pick == (1 << len(atoms)) - 1:
            continue
        left = 0
        for t in range(len(atoms)):
            if pick >> t & 1:
                left |= atoms[t]
        yield left


def _pick_mask_forests(P, max_cuts):
    out = []

    def rec(blocks, cuts):
        out.append(tuple(cuts))
        if len(cuts) == max_cuts:
            return
        for m in sorted(blocks):
            bits = [1 << i for i in range(P.ground.n) if m >> i & 1]
            if len(bits) < 2:
                continue
            for left in _pick_mask_lefts(bits):
                cuts.append(Cut(P.ground, m, left))
                rec([b for b in blocks if b != m] + [m ^ left, left], cuts)
                cuts.pop()

    rec(list(P.blocks), [])
    return out


def _pick_mask_trees(P, block, leaves):
    results = []

    def rec(blocks, cuts):
        splittable = [m for m in blocks if m not in leaves]
        if not splittable:
            results.append(tuple(cuts))
            return
        for m in splittable:
            for left in _pick_mask_lefts([a for a in leaves if a & m]):
                cuts.append(Cut(P.ground, m, left))
                rec([b for b in blocks if b != m] + [m & ~left, left], cuts)
                cuts.pop()

    rec([block], [])
    return sorted(set(results), key=lambda cs: tuple(c.serial() for c in cs))


def test_iter_forests_order_matches_pick_mask_loop():
    for n in range(1, 5):
        for P in all_partitions(GroundSet.of_size(n)):
            for max_cuts in range(4):
                got = [tuple(F.cuts) for F in iter_forests(P, max_cuts)]
                assert got == _pick_mask_forests(P, max_cuts), (P, max_cuts)


def test_all_trees_order_matches_pick_mask_loop():
    G5 = GroundSet.of_size(5)
    P = Partition.one_block(G5)
    for text in ("(1|2|3|4|5)", "(13|2|4|5)", "(124|35)"):
        leaves = list(Partition.parse(G5, text).blocks)
        got = [tuple(F.cuts) for F in all_trees(P, G5.full_mask, leaves)]
        assert got == _pick_mask_trees(P, G5.full_mask, leaves), text


def test_all_trees_validation():
    P = Partition(G4, [0b0011, 0b1100])
    with pytest.raises(ValueError):
        all_trees(P, 0b0111, [0b0111])
    with pytest.raises(ValueError):
        all_trees(P, 0b0011, [0b0001])
    with pytest.raises(ValueError):
        all_trees(P, 0b0011, [0b0011, 0b0001])


def test_roundtrip_exhaustive_small():
    P = Partition(G4, [0b1111])
    pool = iter_forests(P, 3)
    assert len(pool) == 231
    for F in pool:
        assert parse_forest(G4, format_forest(F)) == F
    P2 = Partition(G4, [0b0101, 0b1010])
    for F in iter_forests(P2, 2):
        assert parse_forest(G4, format_forest(F)) == F


def test_format_omits_annotation_only_when_unique():
    assert format_forest(parse_forest(G3, "[[1,2],3]")) == "[[1,2],3]"
    F = parse_forest(G4, "[[1,2],[3,4]]@L")
    assert format_forest(F).endswith("@012")


@pytest.mark.parametrize("layering", [
    "0,1,2,3,4,5,6,7,8,9,10", "0,4,6,8,10,9,7,5,1,3,2"])
def test_format_separates_layerings_of_more_than_ten_cuts(layering):
    g = GroundSet.of_size(12)
    text = "[[[1,2],[3,4]],[[5,6],[[7,8],[[9,10],[11,12]]]]]@" + layering
    F = parse_forest(g, text)
    assert len(F.cuts) == 11
    assert format_forest(F) == text
    assert parse_forest(g, format_forest(F)) == F


_POOL = iter_forests(Partition(G4, [0b1111]), 3) + iter_forests(
    Partition(G4, [0b0011, 0b1100]), 3
)


@given(st.sampled_from(_POOL))
def test_roundtrip_property(F):
    assert parse_forest(G4, format_forest(F)) == F


@given(st.sampled_from([F for F in _POOL if F.cuts]))
def test_antisymmetrize_shape(F):
    terms = list(antisymmetrize(F))
    assert len(terms) == 1 << len(F.cuts)
    assert terms[0] == (1, F)
    seen = {f.serial() for _, f in terms}
    assert len(seen) == len(terms)
    for s, f in terms:
        assert f.source == F.source
        assert f.target == F.target
        assert s in (1, -1)


def _serial_digest(forests):
    h = hashlib.sha256()
    count = 0
    for F in forests:
        h.update(repr(F.serial()).encode())
        count += 1
    return count, h.hexdigest()


def _leaf_choices(P):
    # (block, leaves) for every block of P and every partition of it into
    # at least two leaves, read off the partitions of a ground of its size
    for block in P.blocks:
        positions = [i for i in range(P.ground.n) if block >> i & 1]
        for S in all_partitions(GroundSet.of_size(len(positions))):
            if len(S.blocks) >= 2:
                yield block, [sum(1 << positions[i] for i in range(len(positions))
                                  if b >> i & 1) for b in S.blocks]


def test_forest_orders_are_pinned_by_digest():
    # both enumerations come from one depth-first walk in serial order;
    # the digests were taken from the separate walks it replaced
    partitions = [P for n in range(1, 6)
                  for P in all_partitions(GroundSet.of_size(n))]
    assert _serial_digest(F for P in partitions for F in iter_forests(P, 3)) == (
        4911, "f2f9bf061856bd7d0de1de946a9bf77d5116eb6c1efeeb2f66c6ae64d5393863")
    trees = (F for P in partitions for block, leaves in _leaf_choices(P)
             for F in all_trees(P, block, leaves))
    assert _serial_digest(trees) == (
        6612, "dbd71223414a06c19841dc762cea689e00592122d91c822f4f72079f207c7a6b")


def test_all_trees_ignores_leaf_order_and_refuses_bad_leaves():
    P = Partition.one_block(G4)
    leaves = [0b0001, 0b0110, 0b1000]
    assert all_trees(P, 0b1111, leaves) == all_trees(P, 0b1111, leaves[::-1])
    # an empty leaf, a repeated leaf, and overlapping leaves whose masks
    # still add up to the block
    for bad in ([0, 0b1111], [0b0011, 0b0011, 0b1100],
                [0b0001, 0b0001, 0b0001, 0b1100]):
        with pytest.raises(ValueError):
            all_trees(P, 0b1111, bad)


@pytest.mark.parametrize("text, message, pos", [
    ("{12", "unclosed '{'", 0),
    ("[,3]", "expected a leaf", 1),
    ("[1|2]", "expected ','", 2),
    ("[1,2]3", "expected '|' between trees", 5),
    ("[[1,2],[3,4]]@0,1,x", "bad layering annotation", 13),
])
def test_parse_errors_name_their_position(text, message, pos):
    with pytest.raises(ForestSyntaxError, match=message) as e:
        parse_forest(G4, text)
    assert e.value.pos == pos
