"""Command-line front end and exact SVG rendering of the small arrangements.

Subcommands
-----------
enumerate   shards of a support partition, one JSON object per line
derive      forest derivative of a functional, or dual derivative of a
            shard vector, read from a JSON file
stein-rank  shard count, relation rank, quotient dimension, series oracle
verify      run an audit suite; exit 0 iff every claim passes
oracle      the independent reference values (series dimension, chamber
            count) without touching the arrangement code
render      static SVG of the n=3 plane or the n=4 stereographic sphere

Conventions shared by every subcommand: `--format json|text` selects the
output encoding (JSON is the default), `--out FILE` writes to a file
instead of stdout (bare file names land in $SHARDCALC_OUTDIR when set),
and single-object JSON payloads carry a "schema": 1 version field.  All
output is byte-deterministic for fixed inputs and seed.  Exit codes:
0 success, 1 failed verification, 2 usage or input error, 3 internal
invariant violation (a replay bundle is written and its path printed to
stderr).

Rendering keeps every coordinate exact (rational, or rational multiples
of a single square root) and rounds only when emitting decimal strings,
via integer square roots, so the SVG bytes are reproducible across
platforms.  The n=3 scene is the arrangement of
three concurrent lines with its six chambers labeled by sign vectors.
The n=4 scene is the stereographic image of the trace of the seven walls
on the unit sphere of the sum-zero space: seven circles bounding the 32
chambers, with walls that carry four-term relations drawn heavier.  An
optional highlight vector over the one-block partition shades chambers
by coefficient sign (positive red, negative blue) and magnitude.
"""

import argparse
import hashlib
import json
import os
import sys
from math import gcd, isqrt

from .arrangement import (
    canonical_keys,
    context_for,
    enumerate_shards,
    shard_from_signs,
)
from .audit import (
    CHAMBER_COUNTS,
    SAMPLE_SEED,
    full_audit,
    verify_factorization,
    verify_kernel_theorem,
    verify_lie_axioms,
    verify_module_axioms,
    zie_dimension,
)
from .calculus import (
    Functional,
    InvariantViolation,
    ShardVector,
    dual_forest_derivative,
    forest_derivative,
)
from .exactla import ONE, ZERO, rat, rat_str
from .forests import parse_forest
from .ground import GroundSet, Partition
from .steinmann import quotient_dim, steinmann_relations

OUTDIR_ENV = "SHARDCALC_OUTDIR"

# Ground sets above this size are refused without --allow-large; the
# shard count grows like the resonance sequence (11292 at six).
LARGE_GROUND = 5


# ------------------------------------------------------- exact emission

_PLACES = 4
_SCALE = 10 ** _PLACES


def _digits(q, r=1):
    """q*sqrt(r) scaled by 10^4 and rounded half-up, as an exact integer.

    Everything runs through integer square roots: for u = |q|*sqrt(r),
    floor(2*10^4*u) = isqrt(4*10^8*q^2*r expressed over one denominator),
    and (t+1)//2 is then floor(10^4*u + 1/2) whether or not 2*10^4*u is
    an integer.
    """
    q = rat(q)
    r = rat(r)
    if r < 0:
        raise ValueError("negative radicand")
    if q == 0 or r == 0:
        return 0
    q2r = q * q * r
    num = int(q2r.numerator) * 4 * _SCALE * _SCALE
    den = int(q2r.denominator)
    t = isqrt(num * den) // den
    d = (t + 1) // 2
    return -d if q < 0 else d


def _fmt(digits):
    sign = "-" if digits < 0 else ""
    d = abs(digits)
    return "%s%d.%04d" % (sign, d // _SCALE, d % _SCALE)


class Exact:
    """A scene coordinate q*sqrt(r) with q, r rational and r >= 0."""

    __slots__ = ("q", "r")

    def __init__(self, q, r=1):
        self.q = rat(q)
        self.r = rat(r)
        if self.r < 0:
            raise ValueError("negative radicand")

    def scale(self, c):
        return Exact(self.q * rat(c), self.r)

    def __neg__(self):
        return Exact(-self.q, self.r)

    def digits(self):
        return _digits(self.q, self.r)

    def __repr__(self):
        return "Exact(%s, %s)" % (rat_str(self.q), rat_str(self.r))


def _e(v):
    return v if isinstance(v, Exact) else Exact(v)


# --------------------------------------------------------- scene model

_SVG_STYLE = """\
.wall{fill:none;stroke:#6e6e6e;stroke-width:%(plain)s}
.wall.steinmann{stroke:#1a1a1a;stroke-width:%(heavy)s}
.region-fill{stroke:none}
.region-fill.pos{fill:#c23616}
.region-fill.neg{fill:#1d5fa8}
.region-fill.zero{fill:none}
text{font-family:'DejaVu Sans Mono',monospace;fill:#222;text-anchor:middle}"""


class RenderScene:
    """Exact 2-D scene data for one arrangement picture.

    walls are line segments (n=3) or circles (n=4) tagged with their key
    subset and whether the wall carries four-term relations; regions are
    chambers with their sign string, highlight coefficient, and either a
    polygon or a chain of circle-side clips; labels are text anchors.
    Coordinates stay Exact until to_svg emits rounded decimals.
    """

    def __init__(self, n, half, font_px):
        self.n = n
        self.half = half
        self.font_px = font_px
        self.walls = []
        self.regions = []
        self.labels = []

    def add_line(self, key, steinmann, x1, y1, x2, y2):
        self.walls.append({
            "kind": "line", "key": key, "steinmann": steinmann,
            "x1": _e(x1), "y1": _e(y1), "x2": _e(x2), "y2": _e(y2),
        })

    def add_circle(self, key, steinmann, cx, cy, radius):
        self.walls.append({
            "kind": "circle", "key": key, "steinmann": steinmann,
            "cx": _e(cx), "cy": _e(cy), "r": _e(radius),
        })

    def add_polygon_region(self, signs, coeff, points):
        self.regions.append({
            "signs": signs, "coeff": coeff,
            "points": [(_e(x), _e(y)) for x, y in points],
        })

    def add_clipped_region(self, signs, coeff, sides):
        # sides: per storage-order wall index, True to keep the disk
        # interior, False the exterior
        self.regions.append({"signs": signs, "coeff": coeff,
                             "sides": tuple(sides)})

    def add_label(self, x, y, lines):
        self.labels.append({"x": _e(x), "y": _e(y), "lines": list(lines)})

    # emission; SVG y grows downward, so flip the second coordinate here

    def _fill_attrs(self, coeff):
        if coeff > ZERO:
            cls, mag = "pos", coeff
        elif coeff < ZERO:
            cls, mag = "neg", -coeff
        else:
            return "zero", None
        if mag > ONE:
            mag = ONE
        return cls, _fmt(_digits(mag / rat(2)))

    def _rect(self, extra=""):
        h = self.half
        return '<rect%s x="-%d" y="-%d" width="%d" height="%d"/>' % (
            extra, h, h, 2 * h, 2 * h)

    def to_svg(self):
        h = self.half
        style = _SVG_STYLE % {
            "plain": _fmt(h * _SCALE // 300),
            "heavy": _fmt(h * _SCALE // 170),
        }
        out = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            '<svg xmlns="http://www.w3.org/2000/svg" '
            'viewBox="-%d -%d %d %d" width="560" height="560">'
            % (h, h, 2 * h, 2 * h),
            "<title>adjoint braid arrangement on %d labels</title>" % self.n,
            "<style>", style,
            "text{font-size:%dpx}" % self.font_px,
            "</style>",
        ]

        clipped = [r for r in self.regions if "sides" in r]
        if clipped:
            out.append("<defs>")
            for k, w in enumerate(self.walls):
                cd = w["cx"].digits()
                fd = (-w["cy"]).digits()
                rd = w["r"].digits()
                circle = '<circle cx="%s" cy="%s" r="%s"/>' % (
                    _fmt(cd), _fmt(fd), _fmt(rd))
                out.append('<clipPath id="in%d">%s</clipPath>' % (k, circle))
                ring = (
                    'M -%d -%d H %d V %d H -%d Z '
                    "M %s %s a %s %s 0 1 0 %s 0 a %s %s 0 1 0 -%s 0 Z"
                    % (h, h, h, h, h,
                       _fmt(cd - rd), _fmt(fd), _fmt(rd), _fmt(rd),
                       _fmt(2 * rd), _fmt(rd), _fmt(rd), _fmt(2 * rd)))
                out.append(
                    '<clipPath id="out%d">'
                    '<path clip-rule="evenodd" d="%s"/></clipPath>' % (k, ring))
            out.append("</defs>")

        out.append('<g id="regions">')
        for r in self.regions:
            cls, opacity = self._fill_attrs(r["coeff"])
            out.append('<g class="region" data-signs="%s" data-coeff="%s">'
                       % (r["signs"], rat_str(r["coeff"])))
            if "points" in r:
                pts = []
                for x, y in r["points"]:
                    pair = (x.digits(), (-y).digits())
                    if not pts or pts[-1] != pair:
                        pts.append(pair)
                if len(pts) > 1 and pts[0] == pts[-1]:
                    pts.pop()
                body = '<polygon class="region-fill %s"%s points="%s"/>' % (
                    cls,
                    '' if opacity is None else ' fill-opacity="%s"' % opacity,
                    " ".join("%s,%s" % (_fmt(a), _fmt(b)) for a, b in pts))
                out.append(body)
            else:
                depth = 0
                for k, inside in enumerate(r["sides"]):
                    out.append('<g clip-path="url(#%s%d)">'
                               % ("in" if inside else "out", k))
                    depth += 1
                out.append(self._rect(
                    ' class="region-fill %s"' % cls
                    + ('' if opacity is None
                       else ' fill-opacity="%s"' % opacity)))
                out.extend(["</g>"] * depth)
            out.append("</g>")
        out.append("</g>")

        out.append('<g id="walls">')
        for w in self.walls:
            cls = "wall steinmann" if w["steinmann"] else "wall"
            if w["kind"] == "line":
                out.append(
                    '<line class="%s" data-key="%s" x1="%s" y1="%s" '
                    'x2="%s" y2="%s"/>'
                    % (cls, w["key"],
                       _fmt(w["x1"].digits()), _fmt((-w["y1"]).digits()),
                       _fmt(w["x2"].digits()), _fmt((-w["y2"]).digits())))
            else:
                out.append(
                    '<circle class="%s" data-key="%s" cx="%s" cy="%s" r="%s"/>'
                    % (cls, w["key"],
                       _fmt(w["cx"].digits()), _fmt((-w["cy"]).digits()),
                       _fmt(w["r"].digits())))
        out.append("</g>")

        if self.labels:
            out.append('<g id="labels">')
            for lab in self.labels:
                x = _fmt(lab["x"].digits())
                y = _fmt((-lab["y"]).digits())
                if len(lab["lines"]) == 1:
                    out.append('<text x="%s" y="%s">%s</text>'
                               % (x, y, lab["lines"][0]))
                else:
                    spans = ['<tspan x="%s" dy="%s">%s</tspan>'
                             % (x, "0" if i == 0 else "1.15em", t)
                             for i, t in enumerate(lab["lines"])]
                    out.append('<text x="%s" y="%s">%s</text>'
                               % (x, y, "".join(spans)))
            out.append("</g>")

        out.append("</svg>")
        return "\n".join(out) + "\n"


# ------------------------------------------------- small vector algebra

def _dot(a, b):
    return sum((x * y for x, y in zip(a, b)), ZERO)


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _primitive(vec):
    """Scale a rational vector to coprime integers, keeping direction."""
    den = 1
    for x in vec:
        den = den * int(rat(x).denominator)
    ints = [int(rat(x) * den) for x in vec]
    g = gcd(*ints)
    if g > 1:
        ints = [t // g for t in ints]
    return tuple(ints)


def _carries_relations(ground, mask):
    # four-term relations need at least two labels on both sides of the
    # wall's two-block partition
    k = bin(mask).count("1")
    return k >= 2 and ground.n - k >= 2


# ---------------------------------------------------------- n=3 scene

# plane embedding of the sum-zero triples: x1 = X, x2 = -X/2 + t*Y,
# x3 = -X/2 - t*Y with t = 13/15, a rational stand-in for sqrt(3)/2, so
# the three lines meet at very nearly sixty degrees while every chamber
# test stays rational
_TILT = rat(13) / rat(15)
_BOX3 = 100

_LABEL_ANCHORS3 = (
    (52, 0), (26, 45), (-26, 45), (-52, 0), (-26, -45), (26, -45),
)


def _forms3(ground, keys):
    half = rat(1) / rat(2)
    per_label = ((ONE, ZERO), (-half, _TILT), (-half, -_TILT))
    forms = []
    for mask in keys:
        cx = cy = ZERO
        for i in range(3):
            if mask >> i & 1:
                cx += per_label[i][0]
                cy += per_label[i][1]
        forms.append((cx, cy))
    return forms


def _clip_halfplane(poly, a, b):
    """Keep the part of a convex polygon with a*x + b*y >= 0."""
    out = []
    m = len(poly)
    for i in range(m):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % m]
        v1 = a * x1 + b * y1
        v2 = a * x2 + b * y2
        if v1 >= 0:
            out.append((x1, y1))
        if (v1 > 0 > v2) or (v1 < 0 < v2):
            t = v1 / (v1 - v2)
            out.append((x1 + t * (x2 - x1), y1 + t * (y2 - y1)))
    return out


def _scene3(highlight):
    g = GroundSet.of_size(3)
    one = Partition.one_block(g)
    ctx = context_for(one)
    forms = _forms3(g, ctx.keys)
    coeffs = {X.id(): c for X, c in highlight.items()} if highlight else {}

    scene = RenderScene(3, _BOX3 + 10, 9)
    L = rat(_BOX3)
    for mask, (a, b) in zip(ctx.keys, forms):
        # the wall a*X + b*Y = 0 runs along (-b, a); clip to the box
        dx, dy = -b, a
        tmax = min(L / abs(d) for d in (dx, dy) if d != 0)
        scene.add_line(g.mask_labels(mask), _carries_relations(g, mask),
                       tmax * dx, tmax * dy, -tmax * dx, -tmax * dy)

    box = [(-L, -L), (L, -L), (L, L), (-L, L)]
    anchors = {}
    for ax, ay in _LABEL_ANCHORS3:
        sig = "".join(
            "+" if a * ax + b * ay > 0 else "-" for a, b in forms)
        anchors[sig] = (ax, ay)

    for X in enumerate_shards(one):
        poly = box
        for s, (a, b) in zip(X.signs, forms):
            poly = _clip_halfplane(poly, s * a, s * b)
        if len(poly) < 3:
            raise InvariantViolation("chamber %s clipped away" % X.id())
        coeff = rat(coeffs.get(X.id(), 0))
        scene.add_polygon_region(X.id(), coeff, poly)
        ax, ay = anchors.pop(X.id())
        lines = [X.id()]
        if coeff != ZERO:
            c = rat_str(coeff)
            lines.append(c if c.startswith("-") else "+" + c)
        scene.add_label(ax, ay, lines)
    if anchors:
        raise InvariantViolation("label anchors missed chambers %s"
                                 % sorted(anchors))
    return scene


# ---------------------------------------------------------- n=4 scene

# orthonormal basis of the sum-zero subspace of R^4 (each row over 2),
# mapping lambda_S evaluation to a rational inner product in R^3
_ISO4 = ((1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1))

# the pole is fixed by this probe point: it sits on exactly one wall,
# ties resolve to the plus side, and the pole is the antipode of the
# barycenter (extreme ray sum) of the resulting chamber
_PROBE4 = (3, 1, -1, -3)

_SPHERE_SCALE = 40


def _iso3(vec4):
    half = rat(1) / rat(2)
    return tuple(
        sum((rat(row[i]) * rat(vec4[i]) for i in range(4)), ZERO) * half
        for row in _ISO4)


def _key_normals4(ctx):
    normals = []
    for mask in ctx.keys:
        e = tuple(1 if mask >> i & 1 else 0 for i in range(4))
        normals.append(_iso3(e))
    return normals


def _pole_frame(ctx, normals):
    """Chamber of the probe, its barycentric ray sum d0, and a rational
    orthogonal frame (a0, b0) of the plane perpendicular to d0.

    The pole itself is -d0/sqrt(d0.d0); only d0 is needed because every
    emitted quantity is a rational multiple of a single square root.
    """
    y = _iso3(_PROBE4)
    eps = tuple(1 if _dot(n, y) >= 0 else -1 for n in normals)

    rays = set()
    for i in range(len(normals)):
        for j in range(i + 1, len(normals)):
            c = _cross(normals[i], normals[j])
            if not any(c):
                continue
            for s in (1, -1):
                d = tuple(rat(s) * x for x in c)
                if all(e * _dot(n, d) >= 0
                       for e, n in zip(eps, normals)):
                    rays.add(_primitive(d))
    d0 = tuple(sum(r[i] for r in rays) for i in range(3))
    if not all(e * _dot(n, tuple(map(rat, d0))) > 0
               for e, n in zip(eps, normals)):
        raise InvariantViolation("pole direction is not interior")

    d0 = tuple(map(rat, _primitive(d0)))
    D = _dot(d0, d0)
    for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        e = tuple(map(rat, e))
        if any(_cross(e, d0)):
            break
    a0 = tuple(map(rat, _primitive(
        tuple(e[i] - _dot(e, d0) / D * d0[i] for i in range(3)))))
    b0 = tuple(map(rat, _primitive(_cross(d0, a0))))
    return eps, d0, D, a0, b0


def _vertex_extent(normals, d0, D, a0, A, b0, B, S):
    """Tight bound on the sup-norm of every arrangement vertex image.

    Vertices are the pairwise wall intersections on the sphere.  Each
    image coordinate splits into a difference of two single-radical
    terms, so two exact digit roundings bound it to within two units.
    """
    rays = set()
    for i in range(len(normals)):
        for j in range(i + 1, len(normals)):
            c = _cross(normals[i], normals[j])
            if any(c):
                p = _primitive(c)
                rays.add(p)
                rays.add(tuple(-t for t in p))
    ext = 0
    for w in sorted(rays):
        wr = tuple(map(rat, w))
        W = _dot(wr, wr)
        c1 = _dot(wr, d0)
        gap = W * D - c1 * c1
        if gap == 0:
            raise InvariantViolation("pole direction parallel to a vertex")
        for frame, Fn in ((a0, A), (b0, B)):
            wa = _dot(wr, frame)
            d1 = _digits(S * wa * D / gap, W / Fn)
            d2 = _digits(S * wa * c1 / gap, D / Fn)
            ext = max(ext, abs(d1 - d2) + 2)
    return ext


def _window4(normals, d0, D, a0, A, b0, B, S, circles):
    """Smallest square window showing every region.

    Every region but the pole chamber is an arc polygon whose corners
    are vertex images, so covering the vertices covers them; the pole
    chamber is the area outside all seven circles, so grow the window
    until some boundary point clears every circle.  All tests run on
    exact digit integers.
    """
    ext = _vertex_extent(normals, d0, D, a0, A, b0, B, S)
    half = -(-ext // _SCALE) + 6
    digits = [(cx.digits(), cy.digits(), r.digits())
              for cx, cy, r in circles]

    def edge_clears(h):
        hc = h * _SCALE
        slack = _SCALE
        for t in range(-h, h + 1, 2):
            tc = t * _SCALE
            for px, py in ((tc, hc), (tc, -hc), (hc, tc), (-hc, tc)):
                if all((px - cx) ** 2 + (py - cy) ** 2 > (r + slack) ** 2
                       for cx, cy, r in digits):
                    return True
        return False

    while not edge_clears(half):
        half += 4
    return half


def _scene4(highlight):
    g = GroundSet.of_size(4)
    one = Partition.one_block(g)
    ctx = context_for(one)
    normals = _key_normals4(ctx)
    _, d0, D, a0, b0 = _pole_frame(ctx, normals)
    A = _dot(a0, a0)
    B = _dot(b0, b0)
    S = rat(_SPHERE_SCALE)

    # stereographic image of the great circle n.y = 0 from the pole
    # -d0/sqrt(D), in the frame (a0/sqrt(A), b0/sqrt(B)): center
    # ((n.a0)/(n.d0)*sqrt(D/A), (n.b0)/(n.d0)*sqrt(D/B)), squared radius
    # 1 + ((n.a0)^2/A + (n.b0)^2/B) * D/(n.d0)^2; the cap where the
    # chamber sign of the wall agrees with sign(n.d0) lands inside
    circles = []
    inside_sign = []
    for n in normals:
        nd = _dot(n, d0)
        if nd == 0:
            raise InvariantViolation("pole lies on a wall circle")
        na = _dot(n, a0)
        nb = _dot(n, b0)
        cx = Exact(na / nd * S, D / A)
        cy = Exact(nb / nd * S, D / B)
        rho2 = ONE + (na * na / A + nb * nb / B) * D / (nd * nd)
        circles.append((cx, cy, Exact(S, rho2)))
        inside_sign.append(1 if nd > 0 else -1)

    half = _window4(normals, d0, D, a0, A, b0, B, S, circles)
    scene = RenderScene(4, half, 9)
    for mask, (cx, cy, radius) in zip(ctx.keys, circles):
        scene.add_circle(g.mask_labels(mask),
                         _carries_relations(g, mask), cx, cy, radius)

    coeffs = {X.id(): c for X, c in highlight.items()} if highlight else {}
    for X in enumerate_shards(one):
        sides = [s == w for s, w in zip(X.signs, inside_sign)]
        scene.add_clipped_region(X.id(), rat(coeffs.get(X.id(), 0)), sides)
    return scene


# ------------------------------------------------------------- render

def render(n, highlight=None):
    """SVG text for the size-3 or size-4 picture.

    highlight, when given, is a ShardVector over the one-block partition
    of the default ground set of that size; chambers are shaded red for
    positive coefficients and blue for negative, opacity scaled by
    magnitude (capped at one).  Output bytes are deterministic.
    """
    if n not in (3, 4):
        raise ValueError("rendering supports sizes 3 and 4 only")
    if highlight is not None:
        if not isinstance(highlight, ShardVector):
            raise ValueError("highlight must be a ShardVector")
        g = GroundSet.of_size(n)
        if (highlight.ground != g
                or highlight.support != Partition.one_block(g)):
            raise ValueError(
                "highlight must live over the one-block partition of %s"
                % ",".join(g.labels))
    scene = _scene3(highlight) if n == 3 else _scene4(highlight)
    return scene.to_svg()


def forest_highlight(ground, text):
    """Dual derivative of the zero-dimensional shard along a forest.

    The forest must run from the one-block partition down to singletons
    (a full binary tree), which is where the zero-dimensional shard
    lives; the result is the chamber vector the render subcommand shades.
    """
    F = parse_forest(ground, text)
    if F.source != Partition.one_block(ground):
        raise ValueError("highlight forest must start at the one-block "
                         "partition")
    if F.target != Partition.singletons(ground):
        raise ValueError("highlight forest must cut down to singletons")
    X = enumerate_shards(F.target)[0]
    return dual_forest_derivative(F, X)


# --------------------------------------------------------- IO plumbing

def _outdir():
    return os.environ.get(OUTDIR_ENV) or os.getcwd()


def _resolve_out(path):
    if os.path.isabs(path) or os.path.dirname(path):
        return path
    return os.path.join(_outdir(), path)


def _emit(text, args):
    path = getattr(args, "out", None)
    if path:
        with open(_resolve_out(path), "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(obj):
    return json.dumps(obj, indent=2) + "\n"


def _ground_from_partition_text(text):
    """Infer the ground set from the labels a partition names."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError("partition text must be parenthesized: %r" % text)
    body = text[1:-1]
    if "," in body:
        labels = set()
        for block in body.split("|"):
            labels.update(p.strip() for p in block.split(","))
    else:
        labels = set(body.replace("|", ""))
    labels.discard("")
    if not labels:
        raise ValueError("empty partition text")
    return GroundSet(sorted(labels))


def _parse_labels_csv(text):
    labels = [p.strip() for p in text.split(",")]
    return GroundSet(labels)


def _ground_guard(ground, allow_large):
    if ground.n > LARGE_GROUND and not allow_large:
        raise ValueError(
            "ground sets above %d labels are slow; pass --allow-large"
            % LARGE_GROUND)


def _seed_arg(text):
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def _load_json_file(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _input_support(obj, args):
    """The support text of a JSON payload, cross-checked with --support."""
    stated = obj.get("support") if isinstance(obj, dict) else None
    if stated is None and args.support is None:
        raise ValueError(
            "input file carries no support; pass --support")
    if stated is not None and args.support is not None:
        g = _ground_from_partition_text(stated)
        if (Partition.parse(g, stated)
                != Partition.parse(g, args.support)):
            raise ValueError("--support %s does not match the file's %s"
                             % (args.support, stated))
    return stated if stated is not None else args.support


def _values_of(obj):
    if isinstance(obj, dict) and "values" in obj:
        values = obj["values"]
    elif isinstance(obj, dict) and "signs" not in obj:
        values = {k: v for k, v in obj.items()
                  if k not in ("kind", "support", "schema")}
    else:
        values = None
    if not isinstance(values, dict):
        raise ValueError("expected a JSON map of shard id to rational")
    for key, val in values.items():
        # JSON true/false are ints to Python, and floats are inexact
        if isinstance(val, bool) or not isinstance(val, (int, str)):
            raise ValueError(
                "value of shard %r must be an integer or a rational "
                "string, got %s" % (key, json.dumps(val)))
    return values


def _load_vector(P, obj):
    if isinstance(obj, dict) and "signs" in obj:
        return ShardVector.basis(shard_from_signs(P, obj["signs"]))
    entries = {}
    for key, val in _values_of(obj).items():
        entries[shard_from_signs(P, key)] = rat(val)
    return ShardVector(P, entries)


def _load_functional(P, obj):
    return Functional(P, _values_of(obj))


# --------------------------------------------------------- subcommands

def _cmd_enumerate(args):
    if args.n is not None:
        ground = GroundSet.of_size(args.n)
        P = Partition.one_block(ground)
    else:
        ground = (_parse_labels_csv(args.labels) if args.labels
                  else _ground_from_partition_text(args.partition))
        P = Partition.parse(ground, args.partition)
    _ground_guard(ground, args.allow_large)
    shards = enumerate_shards(P)
    if args.format == "json":
        lines = [json.dumps(X.to_json_obj()) for X in shards]
    else:
        lines = [("%s %s" % (P.format(), X.id())).rstrip() for X in shards]
    _emit("\n".join(lines) + "\n", args)
    return 0


def _cmd_derive(args):
    obj = _load_json_file(args.input)
    support_text = _input_support(obj, args)
    ground = _ground_from_partition_text(support_text)
    P = Partition.parse(ground, support_text)
    F = parse_forest(ground, args.forest)
    if args.dual:
        if P != F.target:
            raise ValueError(
                "a shard vector input must live over the forest target %s"
                % F.target.format())
        result = dual_forest_derivative(F, _load_vector(P, obj))
    else:
        if P != F.source:
            raise ValueError(
                "a functional input must live over the forest source %s"
                % F.source.format())
        result = forest_derivative(F, _load_functional(P, obj))
    if args.format == "json":
        payload = {"schema": 1}
        payload.update(result.to_json_obj())
        _emit(_dump(payload), args)
    else:
        lines = ["%s %s" % (result.to_json_obj()["kind"],
                            result.support.format())]
        for X, c in result.items():
            lines.append(("%s %s" % (X.id(), rat_str(c))).lstrip())
        _emit("\n".join(lines) + "\n", args)
    return 0


def _stein_rank_payload(ground):
    one = Partition.one_block(ground)
    shards = len(enumerate_shards(one))
    rank = steinmann_relations(ground).rank()
    qdim = quotient_dim(ground)
    oracle = zie_dimension(ground.n) if ground.n <= 12 else None
    return {
        "schema": 1,
        "ground": list(ground.labels),
        "shards": shards,
        "relation_rank": rank,
        "quotient_dim": qdim,
        "oracle_dim": oracle,
        "agree": (qdim == oracle) if oracle is not None else None,
    }


def _cmd_stein_rank(args):
    ground = (GroundSet.of_size(args.n) if args.n is not None
              else _parse_labels_csv(args.labels))
    _ground_guard(ground, args.allow_large)
    payload = _stein_rank_payload(ground)
    if args.format == "json":
        _emit(_dump(payload), args)
    else:
        lines = ["ground: %s" % ",".join(ground.labels)]
        for key in ("shards", "relation_rank", "quotient_dim", "oracle_dim"):
            lines.append("%s: %s" % (key.replace("_", " "), payload[key]))
        agree = payload["agree"]
        lines.append("agree: %s"
                     % ("n/a" if agree is None else ("yes" if agree else "NO")))
        _emit("\n".join(lines) + "\n", args)
    return 0 if payload["agree"] in (True, None) else 1


def _run_suite(suite, n, seed):
    if suite == "lie":
        return verify_lie_axioms(n, seed=seed)
    if suite == "module":
        return verify_module_axioms(n)
    if suite == "kernel":
        return verify_kernel_theorem(n)
    if suite == "factorization":
        return verify_factorization(n, seed=seed)
    return full_audit(n, seed=seed)


def _cmd_verify(args):
    seed = SAMPLE_SEED if args.seed is None else args.seed
    report = _run_suite(args.suite, args.n, seed)
    payload = {"schema": 1}
    payload.update(report.to_json_obj())
    if args.json:
        with open(_resolve_out(args.json), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if args.format == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args)
    else:
        _emit(report.format_text() + "\n", args)
    return 0 if report.passed else 1


def _cmd_oracle(args):
    n = args.n
    if not 1 <= n <= 12:
        raise ValueError("the series oracle covers sizes 1..12")
    payload = {
        "schema": 1,
        "n": n,
        "zie_dimension": zie_dimension(n),
        "chamber_count": CHAMBER_COUNTS.get(n),
    }
    if args.format == "json":
        _emit(_dump(payload), args)
    else:
        lines = ["n: %d" % n,
                 "zie dimension: %d" % payload["zie_dimension"],
                 "chamber count: %s"
                 % ("unknown" if payload["chamber_count"] is None
                    else payload["chamber_count"])]
        _emit("\n".join(lines) + "\n", args)
    return 0


def _cmd_render(args):
    highlight = None
    if args.forest and args.vector:
        raise ValueError("pass either --forest or --vector, not both")
    if args.forest:
        highlight = forest_highlight(GroundSet.of_size(args.n), args.forest)
    elif args.vector:
        obj = _load_json_file(args.vector)
        ground = GroundSet.of_size(args.n)
        one = Partition.one_block(ground)
        stated = obj.get("support") if isinstance(obj, dict) else None
        if stated is not None and Partition.parse(
                _ground_from_partition_text(stated), stated) != one:
            raise ValueError("highlight support must be the one-block "
                             "partition %s" % one.format())
        highlight = _load_vector(one, obj)
    _emit(render(args.n, highlight), args)
    return 0


# ------------------------------------------------------------- parser

def _add_common(sub, fmt=True):
    if fmt:
        sub.add_argument("--format", choices=("json", "text"),
                         default="json", help="output encoding")
    sub.add_argument("--out", metavar="FILE",
                     help="write output to FILE (bare names land in "
                          "$%s when set)" % OUTDIR_ENV)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shardcalc",
        description="exact shard calculus for the adjoint braid "
                    "arrangement")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate",
                       help="list the shards of a support partition")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--partition", metavar="TEXT",
                       help='support partition, e.g. "(12|34)"')
    group.add_argument("--n", type=int, metavar="N",
                       help="one-block partition on labels 1..N")
    p.add_argument("--labels", metavar="CSV",
                   help="explicit ground labels for --partition")
    p.add_argument("--allow-large", action="store_true",
                   help="permit ground sets above %d labels" % LARGE_GROUND)
    _add_common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("derive",
                       help="forest derivative of a functional or dual "
                            "derivative of a shard vector")
    p.add_argument("--forest", required=True, metavar="TEXT",
                   help='forest text, e.g. "[[1,2],3]" or '
                        '"[[1,2],[3,4]]@L"')
    p.add_argument("--support", metavar="TEXT",
                   help="support partition of the input (cross-checked "
                        "against the file)")
    p.add_argument("--dual", action="store_true",
                   help="input is a shard vector over the forest target; "
                        "default input is a functional over the source")
    p.add_argument("input", metavar="FILE",
                   help="JSON file (- for stdin): a functional or shard "
                        "vector, or a bare map of shard id to rational")
    _add_common(p)
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("stein-rank",
                       help="relation rank and quotient dimension against "
                            "the series oracle")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, metavar="N",
                       help="ground labels 1..N")
    group.add_argument("--labels", metavar="CSV",
                       help="explicit ground labels, comma separated")
    p.add_argument("--allow-large", action="store_true",
                   help="permit ground sets above %d labels" % LARGE_GROUND)
    _add_common(p)
    p.set_defaults(func=_cmd_stein_rank)

    p = sub.add_parser("verify", help="run an audit suite")
    p.add_argument("--n", type=int, required=True, metavar="N")
    p.add_argument("--suite", default="all",
                   choices=("lie", "module", "kernel", "factorization",
                            "all"))
    p.add_argument("--json", metavar="FILE",
                   help="also write the JSON report to FILE")
    p.add_argument("--seed", type=_seed_arg, metavar="U64",
                   help="seed for the sampled checks (default %d)"
                        % SAMPLE_SEED)
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle",
                       help="independent reference values for one size")
    p.add_argument("--n", type=int, required=True, metavar="N")
    _add_common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("render",
                       help="SVG picture of the size-3 or size-4 "
                            "arrangement")
    p.add_argument("--n", type=int, required=True, choices=(3, 4))
    p.add_argument("--forest", metavar="TEXT",
                   help="highlight the dual derivative of the "
                        "zero-dimensional shard along this forest")
    p.add_argument("--vector", metavar="FILE",
                   help="highlight an explicit shard vector (JSON)")
    _add_common(p, fmt=False)
    p.set_defaults(func=_cmd_render)

    return parser


def _write_replay_bundle(exc, argv):
    bundle = {
        "schema": 1,
        "kind": "replay",
        "error": str(exc),
        "argv": list(argv),
        "counterexample": getattr(exc, "counterexample", None),
    }
    text = json.dumps(bundle, indent=2, sort_keys=True) + "\n"
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
    path = os.path.join(_outdir(), "replay-%s.json" % digest)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    try:
        return args.func(args)
    except InvariantViolation as exc:
        path = _write_replay_bundle(exc, argv)
        print("invariant violation: %s" % exc, file=sys.stderr)
        print("replay bundle: %s" % path, file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
