"""Exact SVG rendering of the n=3 plane and the n=4 stereographic sphere.

Every coordinate stays exact (rational, or a rational multiple of a
single square root) until it is emitted: each scene writes its SVG
elements directly, rounding through integer square roots to four
decimal places, so the bytes are reproducible across platforms.  The
n=3 scene is the arrangement of three concurrent lines with its six
chambers labeled by sign vectors.  The n=4 scene is the stereographic
image of the trace of the seven walls on the unit sphere of the
sum-zero space: seven circles bounding the 32 chambers, with walls that
carry four-term relations drawn heavier.  An optional highlight vector
over the one-block partition shades chambers by coefficient sign
(positive red, negative blue) and magnitude.
"""
from math import gcd, isqrt

from .arrangement import context_for, enumerate_shards
from .calculus import InvariantViolation, ShardVector, dual_forest_derivative
from .exactla import ONE, ZERO, integer_coefficients, rat, rat_str
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


_SVG_STYLE = """\
.wall{fill:none;stroke:#6e6e6e;stroke-width:%(plain)s}
.wall.steinmann{stroke:#1a1a1a;stroke-width:%(heavy)s}
.region-fill{stroke:none}
.region-fill.pos{fill:#c23616}
.region-fill.neg{fill:#1d5fa8}
.region-fill.zero{fill:none}
text{font-family:'DejaVu Sans Mono',monospace;fill:#222;text-anchor:middle}
text{font-size:9px}"""


def _document(n, half, defs, regions, walls, labels):
    """The SVG text of a square window of the given half width around
    each group's element lines; empty defs and labels are left out.

    SVG y grows downward, so the scenes negate every second coordinate.
    """
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" '
        'viewBox="-%d -%d %d %d" width="560" height="560">'
        % (half, half, 2 * half, 2 * half),
        "<title>adjoint braid arrangement on %d labels</title>" % n,
        "<style>",
        _SVG_STYLE % {"plain": _fmt(half * _SCALE // 300),
                      "heavy": _fmt(half * _SCALE // 170)},
        "</style>",
    ]
    if defs:
        out += ["<defs>", *defs, "</defs>"]
    out += ['<g id="regions">', *regions, "</g>",
            '<g id="walls">', *walls, "</g>"]
    if labels:
        out += ['<g id="labels">', *labels, "</g>"]
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _region(signs, coeff):
    """Opening tag of a chamber's group and the attributes of its fill:
    red for a positive coefficient, blue for a negative one, at opacity
    |coeff|/2 capped at one half."""
    head = '<g class="region" data-signs="%s" data-coeff="%s">' % (
        signs, rat_str(coeff))
    if coeff == ZERO:
        return head, ' class="region-fill zero"'
    return head, ' class="region-fill %s" fill-opacity="%s"' % (
        "pos" if coeff > ZERO else "neg",
        _fmt(_digits(min(abs(coeff), ONE) / 2)))


def _wall_class(ground, mask):
    # four-term relations need at least two labels on both sides of the
    # wall's two-block partition
    k = bin(mask).count("1")
    return "wall steinmann" if k >= 2 and ground.n - k >= 2 else "wall"


# ------------------------------------------------- small vector algebra

def _dot(a, b):
    return sum((x * y for x, y in zip(a, b)), ZERO)


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _primitive(vec):
    """Scale a nonzero rational vector to coprime integers, keeping direction."""
    ints = integer_coefficients(dict(enumerate(vec)))[0]
    g = gcd(*ints.values())
    return tuple(ints.get(i, 0) // g for i in range(len(vec)))


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


def _forms3(keys):
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
    forms = _forms3(ctx.keys)
    coeffs = {X.id(): c for X, c in highlight.items()} if highlight else {}

    L = rat(_BOX3)
    walls = []
    for mask, (a, b) in zip(ctx.keys, forms):
        # the wall a*X + b*Y = 0 runs along (-b, a); clip to the box
        dx, dy = -b, a
        tmax = min(L / abs(d) for d in (dx, dy) if d != 0)
        x, y = _digits(tmax * dx), _digits(tmax * dy)
        walls.append('<line class="%s" data-key="%s" x1="%s" y1="%s" '
                     'x2="%s" y2="%s"/>'
                     % (_wall_class(g, mask), g.mask_labels(mask),
                        _fmt(x), _fmt(-y), _fmt(-x), _fmt(y)))

    box = [(-L, -L), (L, -L), (L, L), (-L, L)]
    anchors = {}
    for ax, ay in _LABEL_ANCHORS3:
        sig = "".join(
            "+" if a * ax + b * ay > 0 else "-" for a, b in forms)
        anchors[sig] = (ax, ay)

    regions, labels = [], []
    for X in enumerate_shards(one):
        poly = box
        for mask, (a, b) in zip(ctx.keys, forms):
            s = X.sign_of(mask)
            poly = _clip_halfplane(poly, s * a, s * b)
        if len(poly) < 3:
            raise InvariantViolation("chamber %s clipped away" % X.id())
        pts = []
        for x, y in poly:
            pair = (_digits(x), -_digits(y))
            if not pts or pts[-1] != pair:
                pts.append(pair)
        if len(pts) > 1 and pts[0] == pts[-1]:
            pts.pop()
        coeff = rat(coeffs.get(X.id(), 0))
        head, fill = _region(X.id(), coeff)
        regions += [head, '<polygon%s points="%s"/>' % (
            fill, " ".join("%s,%s" % (_fmt(u), _fmt(v)) for u, v in pts)),
            "</g>"]
        ax, ay = anchors.pop(X.id())
        x = _fmt(ax * _SCALE)
        text = X.id()
        if coeff != ZERO:
            # the signed coefficient goes on a second line
            text = ('<tspan x="%s" dy="0">%s</tspan>'
                    '<tspan x="%s" dy="1.15em">%s%s</tspan>'
                    % (x, text, x, "+" if coeff > ZERO else "",
                       rat_str(coeff)))
        labels.append('<text x="%s" y="%s">%s</text>'
                      % (x, _fmt(-ay * _SCALE), text))
    if anchors:
        raise InvariantViolation("label anchors missed chambers %s"
                                 % sorted(anchors))
    return _document(3, _BOX3 + 10, [], regions, walls, labels)


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


def _vertex_rays(normals):
    """Both primitive directions of every pairwise wall intersection,
    sorted."""
    rays = set()
    for i in range(len(normals)):
        for j in range(i + 1, len(normals)):
            c = _cross(normals[i], normals[j])
            if any(c):
                p = _primitive(c)
                rays.update((p, tuple(-t for t in p)))
    return sorted(rays)


def _pole_frame(ctx, normals):
    """Chamber of the probe, its barycentric ray sum d0, and a rational
    orthogonal frame (a0, b0) of the plane perpendicular to d0.

    The pole itself is -d0/sqrt(d0.d0); only d0 is needed because every
    emitted quantity is a rational multiple of a single square root.
    """
    y = _iso3(_PROBE4)
    eps = tuple(1 if _dot(n, y) >= 0 else -1 for n in normals)

    rays = [d for d in _vertex_rays(normals)
            if all(e * _dot(n, d) >= 0 for e, n in zip(eps, normals))]
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
    ext = 0
    for w in _vertex_rays(normals):
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
    the circles' exact digit integers.
    """
    ext = _vertex_extent(normals, d0, D, a0, A, b0, B, S)
    half = -(-ext // _SCALE) + 6

    def edge_clears(h):
        hc = h * _SCALE
        slack = _SCALE
        for t in range(-h, h + 1, 2):
            tc = t * _SCALE
            for px, py in ((tc, hc), (tc, -hc), (hc, tc), (-hc, tc)):
                if all((px - cx) ** 2 + (py - cy) ** 2 > (r + slack) ** 2
                       for cx, cy, r in circles):
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
    # chamber sign of the wall agrees with sign(n.d0) lands inside;
    # each circle is kept as the digits of (cx, cy, r)
    circles = []
    inside_sign = []
    for n in normals:
        nd = _dot(n, d0)
        if nd == 0:
            raise InvariantViolation("pole lies on a wall circle")
        na = _dot(n, a0)
        nb = _dot(n, b0)
        rho2 = ONE + (na * na / A + nb * nb / B) * D / (nd * nd)
        circles.append((_digits(na / nd * S, D / A),
                        _digits(nb / nd * S, D / B), _digits(S, rho2)))
        inside_sign.append(1 if nd > 0 else -1)

    half = _window4(normals, d0, D, a0, A, b0, B, S, circles)
    defs, walls = [], []
    for k, (mask, (cx, cy, rd)) in enumerate(zip(ctx.keys, circles)):
        x, y, r = _fmt(cx), _fmt(-cy), _fmt(rd)
        defs.append('<clipPath id="in%d"><circle cx="%s" cy="%s" r="%s"/>'
                    '</clipPath>' % (k, x, y, r))
        # the window with the disk cut out, as one even-odd path
        defs.append(
            '<clipPath id="out%d"><path clip-rule="evenodd" d="'
            'M -%d -%d H %d V %d H -%d Z '
            'M %s %s a %s %s 0 1 0 %s 0 a %s %s 0 1 0 -%s 0 Z"/></clipPath>'
            % (k, half, half, half, half, half,
               _fmt(cx - rd), y, r, r, _fmt(2 * rd), r, r, _fmt(2 * rd)))
        walls.append('<circle class="%s" data-key="%s" cx="%s" cy="%s" '
                     'r="%s"/>' % (_wall_class(g, mask), g.mask_labels(mask),
                                   x, y, r))

    coeffs = {X.id(): c for X, c in highlight.items()} if highlight else {}
    regions = []
    for X in enumerate_shards(one):
        head, fill = _region(X.id(), rat(coeffs.get(X.id(), 0)))
        regions.append(head)
        # keep the disk's inside or outside of each wall, in key order
        regions += ['<g clip-path="url(#%s%d)">'
                    % ("in" if X.sign_of(mask) == w else "out", k)
                    for k, (mask, w) in enumerate(zip(ctx.keys, inside_sign))]
        regions.append('<rect%s x="-%d" y="-%d" width="%d" height="%d"/>'
                       % (fill, half, half, 2 * half, 2 * half))
        regions += ["</g>"] * (len(inside_sign) + 1)
    return _document(4, half, defs, regions, walls, [])


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
    return _scene3(highlight) if n == 3 else _scene4(highlight)


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
