import pytest
from hypothesis import given, strategies as st

from shardcalc import ground
from shardcalc.ground import (
    EmptyReductionError,
    GroundMismatchError,
    GroundSet,
    NotFinerError,
    Partition,
    all_partitions,
    coarser_partitions,
    is_finer,
    is_r_semisimple,
    reduction_mask,
)


def g(n):
    return GroundSet.of_size(n)


def part(ground, text):
    return Partition.parse(ground, text)


@st.composite
def ground_and_partition(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    ground = GroundSet.of_size(n)
    assign = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks = {}
    for i, a in enumerate(assign):
        blocks.setdefault(a, 0)
        blocks[a] |= 1 << i
    return ground, Partition(ground, blocks.values())


def test_ground_set_basics():
    G = g(4)
    assert G.labels == ("1", "2", "3", "4")
    assert G.full_mask == 0b1111
    assert G.parse_block("13") == 0b101
    assert G.parse_block("1,3") == 0b101
    assert G.mask_labels(0b101) == "13"


def test_ground_set_multichar_labels():
    G = GroundSet(["a1", "a2", "b"])
    assert not G.single_char
    assert G.mask_labels(0b011) == "a1,a2"
    P = Partition.parse(G, "(a1,a2|b)")
    assert P.format() == "(a1,a2|b)"


def test_ground_set_rejects_bad_labels():
    with pytest.raises(ValueError):
        GroundSet(["1", "1"])
    with pytest.raises(ValueError):
        GroundSet([])
    with pytest.raises(ValueError):
        GroundSet(["a|b"])


def test_partition_parse_format_roundtrip():
    G = g(5)
    for text in ["(12|34|5)", "(1|2|3|4|5)", "(12345)", "(135|24)"]:
        assert part(G, text).format() == text


def test_partition_blocks_sorted_by_smallest_element():
    G = g(3)
    P = Partition(G, [0b010, 0b101])  # {2} and {1,3}
    assert P.format() == "(13|2)"


def test_partition_rejects_bad_blocks():
    G = g(3)
    with pytest.raises(ValueError):
        Partition(G, [0b011, 0b110])  # overlap
    with pytest.raises(ValueError):
        Partition(G, [0b011])  # does not cover
    with pytest.raises(ValueError):
        Partition(G, [0b011, 0b100, 0])  # empty block


def test_partitions_are_interned():
    G = g(4)
    P = part(G, "(12|34)")
    assert Partition(G, [0b1100, 0b0011]) is P
    assert Partition(g(4), (b for b in (0b0011, 0b1100))) is P
    assert part(g(4), "(43|21)") is P
    assert Partition(GroundSet("abcd"), P.blocks) is not P
    # invalid blocks raise on every call, also when their set is the block
    # set of a partition already built
    for _ in range(2):
        for blocks in ([0b0011, 0b0011, 0b1100], [0b0011, 0b1100, 0],
                       [0b0111, 0b1110], [0b0011]):
            with pytest.raises(ValueError):
                Partition(G, blocks)
    with pytest.raises(ValueError):
        part(G, "(12|34|2)")


def test_partition_intern_table_is_bounded_by_bell_numbers():
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
        G = g(n)
        all_partitions(G)
        Partition(G, [1 << i for i in reversed(range(n))])
        coarser_partitions(G, Partition.singletons(G))
        held = [P for (labels, _), P in ground._partitions.items()
                if labels == G.labels]
        assert len(held) == len(set(held)) == bell


def test_is_finer_examples():
    G = g(4)
    assert is_finer(part(G, "(1|2|3|4)"), part(G, "(12|34)"))
    assert is_finer(part(G, "(12|34)"), part(G, "(12|34)"))
    assert not is_finer(part(G, "(12|34)"), part(G, "(13|24)"))
    assert not is_finer(part(G, "(123|4)"), part(G, "(12|34)"))


def test_reduction_worked_examples():
    G = g(9)
    P = part(G, "(12|34|56|78|9)")
    assert reduction_mask(P, G.parse_block("3578")) == G.parse_block("35")
    assert reduction_mask(P, G.parse_block("135")) == G.parse_block("135")
    assert reduction_mask(P, G.parse_block("1278")) == 0
    assert reduction_mask(P, G.parse_block("789")) == 0


def test_is_r_semisimple_worked_examples():
    G = g(9)
    P = part(G, "(12|34|56|78|9)")
    R1 = part(G, "(12|3456|789)")
    assert is_r_semisimple(P, R1, G.parse_block("3578")) is True
    assert is_r_semisimple(P, R1, G.parse_block("135")) is False


def test_is_r_semisimple_trivial_cases():
    G = g(4)
    P = part(G, "(12|34)")
    top = Partition.one_block(G)
    # one-block R makes every admissible subset semisimple
    for m in range(1, G.full_mask):
        if reduction_mask(P, m) == 0:
            continue
        assert is_r_semisimple(P, top, m) is True


def test_is_r_semisimple_errors_are_distinct():
    G = g(4)
    P = part(G, "(12|34)")
    with pytest.raises(NotFinerError):
        is_r_semisimple(P, part(G, "(13|24)"), G.parse_block("1"))
    with pytest.raises(EmptyReductionError):
        is_r_semisimple(P, Partition.one_block(G), G.parse_block("12"))
    H = g(5)
    with pytest.raises(GroundMismatchError):
        is_r_semisimple(P, Partition.one_block(H), G.parse_block("1"))


def test_all_partitions_bell_counts():
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
        assert len(all_partitions(g(n))) == bell


def test_all_partitions_unique_and_deterministic():
    G = g(4)
    ps = all_partitions(G)
    assert len(set(p.blocks for p in ps)) == len(ps)
    assert ps == all_partitions(G)


def test_all_partitions_order_matches_restricted_growth():
    # element i joins one of the blocks opened so far or opens a new one;
    # the result is sorted by (block count, blocks)
    for n in range(1, 7):
        grown = [[]]
        for i in range(n):
            grown = [bs[:j] + [(bs + [0])[j] | 1 << i] + bs[j + 1:]
                     for bs in grown for j in range(len(bs) + 1)]
        want = sorted((len(bs), tuple(bs)) for bs in grown)
        got = [(len(P.blocks), P.blocks) for P in all_partitions(g(n))]
        assert got == want, n


def test_coarser_partitions():
    G = g(4)
    P = part(G, "(12|34)")
    cs = coarser_partitions(G, P)
    assert [c.format() for c in cs] == ["(1234)", "(12|34)"]
    Q = Partition.singletons(G)
    assert len(coarser_partitions(G, Q)) == 15


@given(ground_and_partition())
def test_reduction_idempotent_and_contained(gp):
    ground, P = gp
    for m in range(ground.full_mask + 1):
        r = reduction_mask(P, m)
        assert r & ~m == 0
        assert reduction_mask(P, r) == r


@given(ground_and_partition(max_n=5), ground_and_partition(max_n=5))
def test_is_finer_is_a_partial_order(gp1, gp2):
    ground, P = gp1
    _, Q = gp2
    assert is_finer(P, P)
    if Q.ground == ground:
        if is_finer(P, Q) and is_finer(Q, P):
            assert P == Q


@given(ground_and_partition(max_n=5))
def test_finer_than_own_coarsenings(gp):
    ground, P = gp
    for R in coarser_partitions(ground, P):
        assert is_finer(P, R)


@given(ground_and_partition(max_n=5))
def test_semisimple_wrt_self_means_inside_one_block(gp):
    ground, P = gp
    for m in range(1, ground.full_mask + 1):
        r = reduction_mask(P, m)
        if r == 0:
            continue
        expect = any(r & ~b == 0 for b in P.blocks)
        assert is_r_semisimple(P, P, m) is expect
