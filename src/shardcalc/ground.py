"""Ground sets, bitmask subsets, partitions, reduction, semisimplicity.

Everything downstream runs on integer bitmasks over a fixed ground set of
labeled elements.  A partition is a sorted tuple of disjoint block masks.
The reduction of a subset E modulo a partition P removes from E every block
of P that E fully contains; two subset hyperplanes coincide under the flat
of P exactly when their reductions agree or are complementary mod P, which
is why reduced representatives are the canonical storage for sign data.
"""


class GroundMismatchError(ValueError):
    """Operands were built over different ground sets."""


class NotFinerError(ValueError):
    """A partition was required to refine another and does not."""


class EmptyReductionError(ValueError):
    """The subset is a union of blocks (E = 0 mod P), so no hyperplane exists."""


def popcount(mask):
    return bin(mask).count("1")


def iter_bits(mask):
    """Yield set bit positions of mask in increasing order."""
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


class GroundSet:
    """An ordered finite set of distinct labels, indexed 0..n-1."""

    def __init__(self, labels):
        labels = tuple(str(x) for x in labels)
        if not labels:
            raise ValueError("ground set must be nonempty")
        if "" in labels:
            raise ValueError("labels must be nonempty")
        if len(set(labels)) != len(labels):
            raise ValueError("ground set labels must be distinct")
        bad = set("|,(){}[]@ \t\n")
        if any(set(x) & bad for x in labels):
            raise ValueError("labels may not contain syntax characters or spaces")
        self.labels = labels
        self.n = len(labels)
        self.index = {x: i for i, x in enumerate(labels)}
        self.full_mask = (1 << self.n) - 1
        self.single_char = all(len(x) == 1 for x in labels)

    @classmethod
    def of_size(cls, n):
        """Default ground set with labels "1", "2", ..., str(n)."""
        return cls(str(i + 1) for i in range(n))

    def mask_labels(self, mask):
        """Render a mask as its sorted label string, e.g. 13 or a1,b."""
        parts = [self.labels[i] for i in iter_bits(mask)]
        return "".join(parts) if self.single_char else ",".join(parts)

    def parse_block(self, text):
        """Parse one block of partition text into a mask."""
        if text.startswith("{") and text.endswith("}"):
            text = text[1:-1]
        parts = text.split(",") if ("," in text or not self.single_char) else list(text)
        m = 0
        for p in parts:
            p = p.strip()
            if p not in self.index:
                raise ValueError("unknown label %r" % p)
            m |= 1 << self.index[p]
        return m

    def __eq__(self, other):
        return isinstance(other, GroundSet) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return "GroundSet(%s)" % (",".join(self.labels))


_partitions = {}  # (ground labels, frozenset of blocks) -> the one Partition


class Partition:
    """Blocks as disjoint nonempty masks covering the ground set.

    Blocks are stored sorted by smallest element, which fixes serialization
    and every enumeration order downstream.  Partitions are interned by
    (ground labels, block set), as forests.Cut is, so building one twice
    returns the same object and equality and hashing are by identity; the
    table holds at most Bell(n) partitions per ground of n labels.
    """

    __slots__ = ("ground", "blocks")

    def __new__(cls, ground, blocks):
        blocks = tuple(blocks)
        key = frozenset(blocks)
        P = _partitions.get((ground.labels, key))
        # a repeated block collapses in the set; such input is invalid
        if P is not None and len(key) == len(blocks):
            return P
        # sort by lowest set bit = smallest element; disjointness below
        # guarantees the key is strict
        blocks = tuple(sorted((int(b) for b in blocks), key=lambda b: b & -b))
        if not blocks or any(b == 0 for b in blocks):
            raise ValueError("blocks must be nonempty")
        union = 0
        for b in blocks:
            if union & b:
                raise ValueError("blocks must be disjoint")
            union |= b
        if union != ground.full_mask:
            raise ValueError("blocks must cover the ground set")
        P = object.__new__(cls)
        P.ground = ground
        P.blocks = blocks
        return _partitions.setdefault((ground.labels, frozenset(blocks)), P)

    @classmethod
    def parse(cls, ground, text):
        """Parse partition text like (12|34|5) or (a1,a2|b)."""
        text = text.strip()
        if not (text.startswith("(") and text.endswith(")")):
            raise ValueError("partition text must be parenthesized: %r" % text)
        body = text[1:-1]
        if not body:
            raise ValueError("empty partition text")
        return cls(ground, [ground.parse_block(p) for p in body.split("|")])

    @classmethod
    def one_block(cls, ground):
        return cls(ground, [ground.full_mask])

    @classmethod
    def singletons(cls, ground):
        return cls(ground, [1 << i for i in range(ground.n)])

    def format(self):
        return "(%s)" % "|".join(self.ground.mask_labels(b) for b in self.blocks)

    def block_of(self, i):
        """The block mask containing element index i."""
        bit = 1 << i
        for b in self.blocks:
            if b & bit:
                return b
        raise ValueError("element index out of range")

    def __repr__(self):
        return self.format()


def is_finer(Q, P):
    """True iff every block of Q is contained in some block of P. Reflexive."""
    if Q.ground != P.ground:
        raise GroundMismatchError("operands use different ground sets")
    for q in Q.blocks:
        i = q & -q  # lowest bit picks the containing block candidate
        for p in P.blocks:
            if p & i:
                if q & ~p:
                    return False
                break
    return True


def reduction_mask(P, emask):
    """Mask of E minus all blocks of P fully contained in E."""
    m = emask
    for b in P.blocks:
        if (b & ~emask) == 0:
            m &= ~b
    return m


def is_r_semisimple(P, R, emask):
    """True iff the reduction of subset mask emask mod P lies in one block of R.

    P must be finer than R and emask must not be a union of blocks of P;
    the two precondition failures raise distinct errors.
    """
    if not is_finer(P, R):
        raise NotFinerError("%s is not finer than %s" % (P.format(), R.format()))
    red = reduction_mask(P, emask)
    if red == 0:
        raise EmptyReductionError("subset {%s} is a union of blocks of %s"
                                  % (P.ground.mask_labels(emask), P.format()))
    for b in R.blocks:
        if red & b:
            return (red & ~b) == 0
    raise AssertionError("unreachable: reduction not covered by blocks")


def all_partitions(ground):
    """All partitions of the ground set: those coarser than the singletons,
    sorted by (block count, block masks)."""
    return coarser_partitions(ground, Partition.singletons(ground))


def coarser_partitions(ground, P):
    """All partitions R with P finer than R, deterministic order."""
    blocks = P.blocks
    out = []

    def rec(i, groups):
        if i == len(blocks):
            out.append(Partition(ground, groups))
            return
        b = blocks[i]
        for j in range(len(groups)):
            groups[j] |= b
            rec(i + 1, groups)
            groups[j] &= ~b
        groups.append(b)
        rec(i + 1, groups)
        groups.pop()

    rec(0, [])
    return sorted(set(out), key=lambda p: (len(p.blocks), p.blocks))
