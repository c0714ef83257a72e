"""Shards of the adjoint braid arrangement.

Fix a partition P of the ground set; its flat is the space of points whose
coordinates sum to zero on every block.  The subset sums lambda_E
cut the flat into relatively open faces; a face spanning the whole flat is
a shard with support P, stored as one sign per canonical key.

A canonical key is the numerically smaller bitmask of the pair
{reduction(P, E), reduction(P, I-E)}; every subset E that is not a union
of blocks maps to exactly one key with an orientation, and lambda_E on the
flat equals the orientation times the key's functional.

A sign pattern is one int: key k, of the context's K keys, is negative
where bit K-1-k is set.  Numeric order is then the order of sign strings
('+' before '-'), and flipping key k is an xor with SupportContext.bit(k).
Patterns are built only by bit, SupportContext.encode and .read (off
another support's pattern) and, at a point, kernel.sign_eval.  Witness
points of feasible patterns live in the context's memo, keyed by pattern,
and nowhere else.  A pattern does not change when its point is multiplied
by a positive number, so witness points are integer vectors, exact up to
a positive scale.

Enumeration walks the chamber graph: flip one key sign at a time, screen
candidates by the superadditivity test, try cheap exactly-verified probe
points, and fall back to the exact strict-feasibility LP, posed in the
flat's own coordinates, which is the sole authority on infeasibility and
backs each "no" with a checked Farkas certificate.
"""

import random
from math import gcd, lcm

from ._backend import kernel
from .exactla import strictly_feasible
from .ground import (
    NotFinerError,
    Partition,
    is_finer,
    is_r_semisimple,
    iter_bits,
    popcount,
    reduction_mask,
)


class SupportMismatchError(ValueError):
    """Shards were expected to share a support partition."""


class SupportContext:
    """Cached per-support data: keys, lookup tables, LP scaffold, memos.

    context_for keeps one context per support, which makes this the root
    of every per-support cache, steinmann's relations and rows included.
    """

    def __init__(self, P):
        self.P = P
        self.ground = P.ground
        self.full = P.ground.full_mask
        self.n = P.ground.n
        keys = set()
        for e in range(1, self.full):
            a = reduction_mask(P, e)
            if a == 0:
                continue
            b = reduction_mask(P, self.full ^ e)
            keys.add(min(a, b))
        self.keys = sorted(keys)
        self.K = len(self.keys)
        self.key_index = {r: k for k, r in enumerate(self.keys)}
        self._quads = None
        self._key_quads = None
        self._normals = None
        self._flat_rows = None
        self._labels = None
        self._memo = {}  # pattern -> witness coords, or None when the LP says no
        self._interned = {}
        self._enumerated = None
        self._classes = {}  # R -> steinmann_classes(P, R)
        self._components = {}  # R -> project's (context, key table) per block
        self._arrow_tables = {}  # cut -> arrow's (context, key table, memo)
        self.relations = None  # steinmann.RelationSet, one-block only
        self.smoothness = None  # steinmann._smoothness_rows
        self._block_of = [P.block_of(i) for i in range(self.n)]
        self.block_lcm = lcm(*map(popcount, P.blocks))

    def lookup(self, mask):
        """Map a subset mask to (key index, orientation); (-1, 0) if zero."""
        a = reduction_mask(self.P, mask)
        if a == 0:
            return -1, 0
        b = reduction_mask(self.P, self.full ^ mask)
        if a <= b:
            return self.key_index[a], 1
        return self.key_index[b], -1

    def bit(self, k):
        """The bit of key k in a sign pattern, set where the key is -."""
        return 1 << (self.K - 1 - k)

    def encode(self, signs):
        """The sign pattern of +-1 signs given in key order."""
        bits = 0
        for s in signs:
            bits = bits << 1 | (s < 0)
        return bits

    def table_from(self, source, masks=None, fixed=()):
        """Per key, its (bit, orientation) in source, or that of masks[k];
        a key that vanishes on source takes the entry (0, fixed[key]), or
        raises AssertionError if fixed has no sign for it."""
        table = []
        for r, m in zip(self.keys, masks or self.keys):
            k, o = source.lookup(m)
            if k < 0 and r not in fixed:
                raise AssertionError("key %s vanishes on %s" % (
                    self.labels()[1][self.key_index[r]], source.labels()[0]))
            table.append((source.bit(k), o) if k >= 0 else (0, fixed[r]))
        return table

    def read(self, bits, table):
        """This context's pattern of a source pattern, via table_from."""
        out = 0
        for b, o in table:
            out = out << 1 | (o > 0 if bits & b else o < 0)
        return out

    def intern(self, bits):
        shard = self._interned.get(bits)
        if shard is None:
            shard = Shard(self, bits)
            self._interned[bits] = shard
        return shard

    def labels(self):
        """(support text, key labels in key order), rendered once for
        output and error messages."""
        if self._labels is None:
            self._labels = (self.P.format(),
                            tuple(map(self.ground.mask_labels, self.keys)))
        return self._labels

    # ---- geometry helpers ----

    def quads(self):
        """Superadditivity screen table of (mask, want) pairs.

        Subsets A, B with union U and intersection V satisfy lambda_A +
        lambda_B = lambda_U + lambda_V, so no point has lambda_A, lambda_B
        positive and lambda_U, lambda_V negative (or zero on the flat).
        mask holds the keys of A, B and of U, V when nonzero; want holds
        those keys' bits in that forbidden pattern.  No quad names one key
        with both signs (none does on any support up to n=7), so or-ing
        the four bits loses nothing.  See kernel.quick_check.
        """
        if self._quads is not None:
            return self._quads
        oriented = []
        for k, r in enumerate(self.keys):
            oriented.append((r, self.bit(k), 0))
            oriented.append((self.full ^ r, self.bit(k), self.bit(k)))
        quads = set()
        for i in range(len(oriented)):
            ma, ba, na = oriented[i]
            for j in range(i + 1, len(oriented)):
                mb, bb, nb = oriented[j]
                inter = ma & mb
                union = ma | mb
                if inter == ma or inter == mb:
                    continue  # containment carries no pruning power
                if inter == 0 and union == self.full:
                    continue  # complementary pair, identity is 0 = 0
                mask, want = ba | bb, na | nb
                for m in (union, inter):
                    k, o = self.lookup(m)
                    if k >= 0:  # lambda_m <= 0 means key k has sign -o
                        mask |= self.bit(k)
                        want |= self.bit(k) if o > 0 else 0
                quads.add((mask, want))
        self._quads = sorted(quads)
        return self._quads

    def key_quads(self):
        """Per key index, the quads whose mask holds that key."""
        if self._key_quads is None:
            self._key_quads = [[q for q in self.quads() if q[0] & self.bit(k)]
                               for k in range(self.K)]
        return self._key_quads

    def normals(self):
        """Per key: its flat-projected normal times block_lcm, an integer
        vector g, and the squared norm of g."""
        if self._normals is not None:
            return self._normals
        out = []
        for r in self.keys:
            g = []
            for i in range(self.n):
                b = self._block_of[i]
                size = popcount(b)
                inside = popcount(r & b)
                g.append(((r >> i & 1) * size - inside) * (self.block_lcm // size))
            out.append((g, sum(q * q for q in g)))
        self._normals = out
        return out

    def flat_rows(self):
        """Key functionals in the flat's own coordinates, for the LP:
        (free labels, one {free position: int} row per key).

        Every label but the last of its block is free; the last is minus
        the sum of the block's others.  So key r reads +1 on r's labels in
        a block whose last label is outside r, else -1 on the labels of
        the block outside r.
        """
        if self._flat_rows is not None:
            return self._flat_rows
        lasts = 0
        for b in self.P.blocks:
            lasts |= 1 << (b.bit_length() - 1)
        free = [i for i in range(self.n) if not lasts >> i & 1]
        position = {i: j for j, i in enumerate(free)}
        rows = []
        for r in self.keys:
            row = {}
            for b in self.P.blocks:
                if r >> (b.bit_length() - 1) & 1:
                    row.update((position[i], -1) for i in iter_bits(b & ~r))
                else:
                    row.update((position[i], 1) for i in iter_bits(b & r))
            rows.append(row)
        self._flat_rows = free, rows
        return self._flat_rows


_context_cache = {}


def context_for(P):
    ctx = _context_cache.get(P)
    if ctx is None:
        ctx = _context_cache[P] = SupportContext(P)
    return ctx


class Shard:
    """A face of the arrangement spanning the flat of its support partition.

    SupportContext.intern builds each shard once per sign pattern, and
    context_for keeps one context per support, so equality and hashing are
    by identity.  bits is the sign pattern (see the module docstring).
    """

    __slots__ = ("ctx", "bits")

    def __init__(self, ctx, bits):
        if not 0 <= bits < 1 << ctx.K:
            raise ValueError("need one sign bit per canonical key")
        self.ctx = ctx
        self.bits = bits

    @property
    def support(self):
        return self.ctx.P

    @property
    def ground(self):
        return self.ctx.ground

    def sign_of(self, mask):
        """Sign of lambda_E, E a subset mask: +1, -1, or 0 when E = 0 mod P."""
        idx, orient = self.ctx.lookup(mask)
        if idx < 0:
            return 0
        return -orient if self.bits & self.ctx.bit(idx) else orient

    def id(self):
        """Sign string over the canonical keys, e.g. '++-+'."""
        return _sign_text(self.ctx.K, self.bits)

    def to_json_obj(self):
        support, labels = self.ctx.labels()
        return {"support": support,
                "signs": dict(zip(labels, _sign_text(self.ctx.K, self.bits)))}

    def __repr__(self):
        return "Shard(%s, %s)" % (self.ctx.P.format(), self.id() or "<point>")


_PLUS_MINUS = str.maketrans("01", "+-")


def _sign_text(K, bits):
    return format(bits | 1 << K, "b")[1:].translate(_PLUS_MINUS)


def shard_from_signs(P, signs, certify=False):
    """Build a shard from sign data without enumeration.

    signs: dict mapping canonical keys, as bitmasks or label strings, to
    +-1 or '+'/'-', or a '+-' string over the storage order.  The result
    is the interned shard of P's context.  certify=True runs the
    feasibility cascade and raises if the sign pattern is empty.
    """
    ctx = context_for(P)
    if isinstance(signs, str):
        if len(signs) != ctx.K or any(c not in "+-" for c in signs):
            raise ValueError("bad sign string %r" % signs)
        bits = ctx.encode(1 if c == "+" else -1 for c in signs)
    else:
        by_key = {}
        for k, v in signs.items():
            mask = ctx.ground.parse_block(k) if isinstance(k, str) else int(k)
            idx, orient = ctx.lookup(mask)
            if idx < 0:
                raise ValueError("subset is a union of blocks, carries no sign")
            if type(v) not in (int, str) or v not in (1, -1, "+", "-"):
                raise ValueError("sign of key %r must be +1, -1, '+' or '-'" % (k,))
            if idx in by_key:
                raise ValueError("key %r is named twice" % (k,))
            by_key[idx] = orient * (1 if v in (1, "+") else -1)
        if len(by_key) != ctx.K:
            raise ValueError("signs must cover every canonical key exactly once")
        bits = ctx.encode(by_key[k] for k in range(ctx.K))
    if certify and _feasible(ctx, bits) is None:
        support, labels = ctx.labels()
        named = zip(labels, _sign_text(ctx.K, bits))
        raise ValueError("sign pattern %s is not realizable over %s" % (
            " ".join("%s:%s" % kv for kv in named), support))
    return ctx.intern(bits)


def _lp_witness(ctx, bits):
    """Exact LP: an integer point realizing a sign pattern inside the flat."""
    free, rows = ctx.flat_rows()
    rows = [{j: -v for j, v in row.items()} if bits & ctx.bit(k) else row
            for k, row in enumerate(rows)]
    x = strictly_feasible(rows, len(free))
    if x is None:
        return None
    coords = [0] * ctx.n
    for i, v in zip(free, x):
        coords[i] = v
    for b in ctx.P.blocks:
        coords[b.bit_length() - 1] = -sum(coords[i] for i in iter_bits(b))
    return coords


def _probe_candidates(ctx, hint):
    """Cheap integer points likely to realize a flipped sign pattern.

    Moving x along the flipped key's normal g by theta = a/b times the way
    to its wall gives x - theta * (<x, g> / |g|^2) * g; each candidate is
    that point times b * |g|^2.
    """
    if hint is None:
        return
    coords, flipped = hint
    g, gg = ctx.normals()[flipped]
    lam = sum(x * y for x, y in zip(coords, g))
    if lam == 0 or gg == 0:
        return
    for a, b in ((2, 1), (3, 2), (9, 8), (17, 16)):
        u, v = b * gg, a * lam
        yield [u * x - v * y for x, y in zip(coords, g)]


def _feasible(ctx, bits, hint=None):
    """Witness coordinates for a sign pattern, or None; exact.

    Order: memo, superadditivity screen, probe points (each verified by
    exact sign evaluation), then the LP as the final authority.  Probe
    hits and LP verdicts are memoized; screen rejects are not, since
    re-screening is cheap and they would outnumber every other entry
    (most sign patterns are empty).  A probe hit is divided by its
    content first, so points do not grow along chains of probes.  A hint
    (coords, k) is a feasible chamber, which passes every quad; bits
    flips its key k, so only the quads naming k can reject it.
    """
    if bits in ctx._memo:
        return ctx._memo[bits]
    quads = ctx.quads() if hint is None else ctx.key_quads()[hint[1]]
    if ctx.K and not kernel.quick_check(bits, quads):
        return None
    for coords in _probe_candidates(ctx, hint):
        if kernel.sign_eval(ctx.keys, coords) == bits:
            content = gcd(*coords)
            coords = ctx._memo[bits] = [x // content for x in coords]
            return coords
    coords = ctx._memo[bits] = _lp_witness(ctx, bits)
    return coords


def _generic_flat_point(ctx):
    """Fixed-seed integer point of the flat avoiding all key hyperplanes:
    a seeded point projected onto the flat, times block_lcm."""
    rnd = random.Random("%s|%s|0" % (ctx.ground.labels, ctx.P.blocks))
    span = 9
    for _ in range(200):
        raw = [rnd.randint(-span, span) for _ in range(ctx.n)]
        coords = []
        for i in range(ctx.n):
            b = ctx._block_of[i]
            size = popcount(b)
            total = sum(raw[j] for j in iter_bits(b))
            coords.append((raw[i] * size - total) * (ctx.block_lcm // size))
        if kernel.sign_eval(ctx.keys, coords) is not None:
            return coords
        span *= 2
    raise AssertionError("could not sample a generic point of the flat")


def enumerate_shards(P):
    """All shards with support exactly P, sorted by sign string, found by
    walking the chamber graph from a generic seed point."""
    ctx = context_for(P)
    if ctx.K == 0:
        ctx._memo.setdefault(0, [0] * ctx.n)
        return [ctx.intern(0)]
    if ctx._enumerated is not None:
        return list(ctx._enumerated)

    start = _generic_flat_point(ctx)
    first = kernel.sign_eval(ctx.keys, start)
    ctx._memo[first] = start
    frontier = [first]
    seen = {first}
    while frontier:
        bits = frontier.pop()
        coords = ctx._memo[bits]
        for k in range(ctx.K):
            cand = bits ^ ctx.bit(k)
            if cand in seen:
                continue
            if _feasible(ctx, cand, hint=(coords, k)) is not None:
                seen.add(cand)
                frontier.append(cand)
    ctx._enumerated = tuple(map(ctx.intern, sorted(seen)))
    return list(ctx._enumerated)


def project(R, X):
    """Components of X over the blocks of R: one shard per block.

    Block T_j yields the shard over P restricted to T_j (completed with
    singletons elsewhere) whose sign at a subset S is X's sign at S; keys
    of the component reduce into T_j, so this is total.  Per support and
    R, each component's context and the (bit, orientation) in P of its
    keys are memoized on P's context.
    """
    ctx = X.ctx
    components = ctx._components.get(R)
    if components is None:
        components = ctx._components[R] = _components(ctx, R)
    return [ctx_j.intern(ctx_j.read(X.bits, table)) for ctx_j, table in components]


def _components(ctx, R):
    P = ctx.P
    if not is_finer(P, R):
        raise NotFinerError("support %s is not finer than %s" % (P.format(), R.format()))
    out = []
    for T in R.blocks:
        blocks = [b for b in P.blocks if b & T]
        blocks += [1 << i for i in iter_bits(R.ground.full_mask ^ T)]
        ctx_j = context_for(Partition(R.ground, blocks))
        out.append((ctx_j, ctx_j.table_from(ctx)))
    return out


def steinmann_classes(P, R):
    """Steinmann R-equivalence classes of enumerate_shards(P).

    Two shards are joined when they differ on exactly one key that is not
    R-semisimple; a class is the set reached by such flips from its least
    member.  Classes are id-sorted tuples in order of their least members,
    memoized on P's context.
    """
    if not is_finer(P, R):
        raise NotFinerError("%s is not finer than %s" % (P.format(), R.format()))
    ctx = context_for(P)
    classes = ctx._classes.get(R)
    if classes is None:
        movable = [ctx.bit(k) for k, r in enumerate(ctx.keys)
                   if not is_r_semisimple(P, R, r)]
        shards = enumerate_shards(P)
        unseen = {X.bits for X in shards}
        classes = []
        for X in shards:
            if X.bits not in unseen:
                continue
            unseen.remove(X.bits)
            found = [X.bits]
            for bits in found:  # the loop also visits what it appends
                for b in movable:
                    if bits ^ b in unseen:
                        unseen.remove(bits ^ b)
                        found.append(bits ^ b)
            classes.append(tuple(map(ctx.intern, sorted(found))))
        classes = ctx._classes[R] = tuple(classes)
    return classes
