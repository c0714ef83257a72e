"""Exact SVG rendering of the n=3 plane and the n=4 stereographic sphere.

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

from math import gcd, isqrt

from .arrangement import context_for, enumerate_shards
from .calculus import ShardVector, dual_forest_derivative
from .exactla import ONE, ZERO, rat, rat_str
from .forests import parse_forest
from .ground import GroundSet, Partition


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
