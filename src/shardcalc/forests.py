"""Layered binary trees and forests between partitions.

A forest F : P <- Q refines the coarse partition P into Q by an ordered
list of cuts; each cut splits one currently present block into a favored
left part and a right part.  The ordered cut list is the forest's unique
normal form: composition is concatenation, and the layering (the global
order of nodes) is exactly the list order, outermost first.

Text notation nests brackets, e.g. "[[2,3],5]" over {2,3,5}; several trees
join with "|"; "@" fixes the layering by listing preorder node indices in
layer order when more than one layering exists (with "@L"/"@R" sugar when
there are exactly two).
"""

from .ground import (
    GroundMismatchError,
    Partition,
    iter_bits,
    popcount,
)


class ForestSyntaxError(ValueError):
    """Malformed forest text; carries the position."""

    def __init__(self, message, pos):
        self.pos = pos
        super().__init__("%s (at position %d)" % (message, pos))


class AmbiguousLayeringError(ValueError):
    """The bracket term admits several layerings and none was annotated."""


class BoundaryMismatchError(ValueError):
    """Forest endpoints do not line up for the requested operation."""


_cuts = {}  # (ground labels, parent, left) -> the one Cut


class Cut:
    """One refinement step: parent block split into favored left and right.

    parent and left are bitmasks.  Cuts are interned by (ground labels,
    parent, left), so building one twice returns the same object and
    equality and hashing are by identity; reversed() is the cached twin.
    Each label of a ground of n labels lies in left, in right or outside
    parent, so the table holds at most 3^n cuts per ground.
    """

    __slots__ = ("ground", "parent", "left", "right", "_twin")

    def __new__(cls, ground, parent, left):
        key = (ground.labels, parent, left)
        cut = _cuts.get(key)
        if cut is None:
            if left == 0 or left & ~parent or left == parent:
                raise ValueError("left part must be nonempty and proper in parent")
            if parent & ~ground.full_mask:
                raise ValueError("parent has bits outside the ground set")
            cut = _cuts[key] = object.__new__(cls)
            cut.ground = ground
            cut.parent = parent
            cut.left = left
            cut.right = parent ^ left
            cut._twin = None
        return cut

    def reversed(self):
        if self._twin is None:
            self._twin = Cut(self.ground, self.parent, self.right)
        return self._twin

    def serial(self):
        return (self.parent, self.left)

    def __repr__(self):
        g = self.ground
        return "[%s,%s]" % (g.mask_labels(self.left), g.mask_labels(self.right))


class LayeredForest:
    """Ordered cut list from a source partition; target is the replay result."""

    __slots__ = ("ground", "source", "target", "cuts")

    def __init__(self, source, cuts):
        cuts = tuple(cuts)
        blocks = set(source.blocks)
        for cut in cuts:
            if cut.ground != source.ground:
                raise GroundMismatchError("cut over a different ground set")
            if cut.parent not in blocks:
                raise ValueError(
                    "cut %r splits a block not present at its layer" % (cut,)
                )
            blocks.remove(cut.parent)
            blocks.add(cut.left)
            blocks.add(cut.right)
        self.ground = source.ground
        self.source = source
        self.target = Partition(source.ground, blocks)
        self.cuts = cuts

    def serial(self):
        return tuple(c.serial() for c in self.cuts)

    def __eq__(self, other):
        return (
            isinstance(other, LayeredForest)
            and self.source is other.source
            and self.cuts == other.cuts
        )

    def __hash__(self):
        return hash((self.source, self.cuts))

    def __repr__(self):
        return "LayeredForest(%s <- %s, %s)" % (
            self.source.format(),
            self.target.format(),
            format_forest(self),
        )


def identity_forest(P):
    return LayeredForest(P, ())


def cut_forest(P, parent, left):
    """The single-cut forest splitting `parent` (a block of P) at `left`."""
    if parent not in P.blocks:
        raise ValueError("parent is not a block of the source partition")
    return LayeredForest(P, [Cut(P.ground, parent, left)])


def compose(F1, F2):
    """F1 then F2: source(F1) <- target(F2), every F1 node before every F2 node."""
    if F1.ground != F2.ground:
        raise GroundMismatchError("forests over different ground sets")
    if F1.target != F2.source:
        raise BoundaryMismatchError(
            "target %s of the outer forest differs from source %s"
            % (F1.target.format(), F2.source.format())
        )
    return LayeredForest(F1.source, F1.cuts + F2.cuts)


def antisymmetrize(F):
    """(sign, forest) pairs over all left/right switches; original first, +1.

    Switch s reverses cut i when bit i of s is set, and its sign is -1 to
    the number of reversed cuts; the switched cut tuples are built by
    doubling, one cut at a time.
    """
    signed = [(1, ())]
    for c in F.cuts:
        r = c.reversed()
        signed = ([(s, cuts + (c,)) for s, cuts in signed]
                  + [(-s, cuts + (r,)) for s, cuts in signed])
    # a switch keeps each cut's parent and the set {left, right}, so every
    # switched forest is valid with F's source and target; none is re-checked
    terms = []
    for s, cuts in signed:
        G = LayeredForest.__new__(LayeredForest)
        G.ground, G.source, G.target, G.cuts = F.ground, F.source, F.target, cuts
        terms.append((s, G))
    return terms


# ---- text notation ----


class _Node:
    __slots__ = ("mask", "left", "right")

    def __init__(self, mask, left=None, right=None):
        self.mask = mask
        self.left = left
        self.right = right


def _parse_leaf(ground, text, i):
    """A braced block, or the run of text up to the next bracket, comma,
    bar or "@", read as partition text reads a block."""
    if text.startswith("{", i):
        j = text.find("}", i) + 1
        if not j:
            raise ForestSyntaxError("unclosed '{'", i)
    else:
        j = i
        while j < len(text) and text[j] not in "[],|{}@":
            j += 1
    try:
        mask = ground.parse_block(text[i:j])
    except ValueError as exc:
        raise ForestSyntaxError(str(exc), i) from None
    if not mask:
        raise ForestSyntaxError("expected a leaf", i)
    return _Node(mask), j


def _parse_tree(ground, text, i, depth=0):
    # depth: brackets open around position i; a tree on n labels nests at
    # most n - 1, so deeper text is refused before it can exhaust the stack
    if i < len(text) and text[i] == "[":
        if depth >= ground.n - 1:
            raise ForestSyntaxError(
                "brackets nested deeper than %d" % (ground.n - 1), i)
        left, i = _parse_tree(ground, text, i + 1, depth + 1)
        if i >= len(text) or text[i] != ",":
            raise ForestSyntaxError("expected ',' in bracket", i)
        right, i = _parse_tree(ground, text, i + 1, depth + 1)
        if i >= len(text) or text[i] != "]":
            raise ForestSyntaxError("expected ']'", i)
        node = _Node(left.mask | right.mask, left, right)
        if left.mask & right.mask:
            raise ForestSyntaxError("branches overlap", i)
        return node, i + 1
    return _parse_leaf(ground, text, i)


def _preorder(roots):
    """The internal nodes of the trees in preorder, the numbering that "@"
    layerings use, and the pairs (i, j) meaning node i must come before
    node j."""
    nodes, pairs = [], []

    def walk(nd, anc):
        if nd.left is not None:
            k = len(nodes)
            nodes.append(nd)
            pairs.extend((a, k) for a in anc)
            walk(nd.left, anc + [k])
            walk(nd.right, anc + [k])

    for r in roots:
        walk(r, [])
    return nodes, pairs


def _linear_extensions(count, pairs, limit=None):
    before = {k: set() for k in range(count)}
    for a, b in pairs:
        before[b].add(a)
    out = []

    def rec(prefix, placed):
        if limit is not None and len(out) >= limit:
            return
        if len(prefix) == count:
            out.append(tuple(prefix))
            return
        for k in range(count):
            if k not in placed and before[k] <= placed:
                prefix.append(k)
                placed.add(k)
                rec(prefix, placed)
                placed.remove(k)
                prefix.pop()

    rec([], set())
    return out


def parse_forest(ground, text):
    """Parse forest text into a LayeredForest; see the module docstring."""
    text = text.strip()
    at = text.find("@")
    layer_text = None
    if at >= 0:
        layer_text = text[at + 1 :].strip()
        text = text[:at].strip()
    roots = []
    i = 0
    while True:
        node, i = _parse_tree(ground, text, i)
        roots.append(node)
        if i >= len(text):
            break
        if text[i] != "|":
            raise ForestSyntaxError("expected '|' between trees", i)
        i += 1
    source = Partition(ground, [r.mask for r in roots])
    nodes, pairs = _preorder(roots)
    count = len(nodes)

    if layer_text is None:
        exts = _linear_extensions(count, pairs, limit=2)
        if len(exts) > 1:
            raise AmbiguousLayeringError(
                "term admits several layerings; annotate with @"
            )
        order = exts[0] if exts else ()
    elif layer_text in ("L", "R"):
        exts = _linear_extensions(count, pairs, limit=3)
        if len(exts) != 2:
            raise AmbiguousLayeringError(
                "@L/@R requires exactly two layerings, found %d" % len(exts)
            )
        exts.sort()
        order = exts[0] if layer_text == "L" else exts[1]
    else:
        if "," in layer_text:
            try:
                order = tuple(int(p) for p in layer_text.split(","))
            except ValueError:
                raise ForestSyntaxError("bad layering annotation", at)
        else:
            if not layer_text.isdigit():
                raise ForestSyntaxError("bad layering annotation", at)
            order = tuple(int(ch) for ch in layer_text)
        if sorted(order) != list(range(count)):
            raise ForestSyntaxError(
                "layering is not a permutation of 0..%d" % (count - 1), at
            )
        placed = set()
        for k in order:
            if any(a not in placed for a, b in pairs if b == k):
                raise ForestSyntaxError("layering puts a node before its parent", at)
            placed.add(k)
    cuts = [Cut(ground, nodes[k].mask, nodes[k].left.mask) for k in order]
    return LayeredForest(source, cuts)


def _leaf_text(ground, mask):
    labels = [ground.labels[i] for i in iter_bits(mask)]
    if ground.single_char:
        return "".join(labels)
    if len(labels) == 1:
        return labels[0]
    return "{%s}" % ",".join(labels)


def format_forest(F):
    """Bracket text with an explicit @layering whenever several exist."""
    children = {c.parent: c for c in F.cuts}  # a block is split at most once

    def grow(mask):
        c = children.get(mask)
        return _Node(mask) if c is None else _Node(mask, grow(c.left), grow(c.right))

    def render(nd):
        if nd.left is None:
            return _leaf_text(F.ground, nd.mask)
        return "[%s,%s]" % (render(nd.left), render(nd.right))

    roots = [grow(b) for b in F.source.blocks]
    body = "|".join(render(r) for r in roots)
    nodes, pairs = _preorder(roots)
    if len(_linear_extensions(len(nodes), pairs, limit=2)) <= 1:
        return body
    pre_index = {nd.mask: k for k, nd in enumerate(nodes)}
    perm = [str(pre_index[c.parent]) for c in F.cuts]
    return body + "@" + ("" if len(perm) <= 10 else ",").join(perm)


def _cut_tuples(ground, blocks, atoms, max_cuts):
    """Cut tuples of at most max_cuts cuts from `blocks`, each splitting a
    present block into two unions of the disjoint masks `atoms`, depth
    first with blocks and then left parts ascending: serial order."""
    atoms = sorted(atoms)  # bit t of pick picks inside[t]: ascending unions
    out = []

    def rec(blocks, cuts):
        out.append(tuple(cuts))
        if len(cuts) == max_cuts:
            return
        for m in sorted(blocks):
            inside = [a for a in atoms if a & m]
            for pick in range(1, (1 << len(inside)) - 1):
                left = sum(a for t, a in enumerate(inside) if pick >> t & 1)
                cuts.append(Cut(ground, m, left))
                rec([b for b in blocks if b != m] + [m ^ left, left], cuts)
                cuts.pop()

    rec(list(blocks), [])
    return out


def all_trees(P, block, leaves):
    """All layered binary trees over `block` with the given leaf blocks.

    block must be a block of P and leaves bitmasks partitioning it.  Each
    result is a forest P <- (P with block replaced by leaves); sticks
    elsewhere.  A tree on k leaves has k - 1 cuts.  Deterministic order:
    lexicographic on serialized cut lists.
    """
    if block not in P.blocks:
        raise ValueError("block is not a block of the partition")
    leaves = list(leaves)
    # a carry-free sum equal to the block: disjoint leaves covering it
    if (0 in leaves or sum(leaves) != block
            or sum(map(popcount, leaves)) != popcount(block)):
        raise ValueError("leaves must partition the block")
    k = len(leaves) - 1
    return [LayeredForest(P, cs) for cs in _cut_tuples(P.ground, [block], leaves, k)
            if len(cs) == k]


def iter_forests(P, max_cuts):
    """Every layered forest with source P and at most max_cuts cuts.

    Deterministic: depth-first over ordered splits in serialized order.
    """
    singletons = [1 << i for i in range(P.ground.n)]
    return [LayeredForest(P, cs)
            for cs in _cut_tuples(P.ground, P.blocks, singletons, max_cuts)]
