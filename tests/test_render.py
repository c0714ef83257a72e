"""Rendering checks: exact emission, scene structure, and an
independent symbolic rebuild of the stereographic geometry."""

import re
from fractions import Fraction

import pytest
import sympy

from shardcalc.svg import (
    _digits,
    _fmt,
    forest_highlight,
    render,
)
from shardcalc.ground import GroundSet, Partition
from shardcalc.arrangement import context_for, enumerate_shards
from shardcalc.calculus import ShardVector, dual_forest_derivative
from shardcalc.forests import parse_forest

G3 = GroundSet.of_size(3)
G4 = GroundSet.of_size(4)

WALL_RE = re.compile(
    r'<circle class="(wall[^"]*)" data-key="([^"]*)" '
    r'cx="([-0-9.]+)" cy="([-0-9.]+)" r="([0-9.]+)"/>')
LINE_RE = re.compile(
    r'<line class="(wall[^"]*)" data-key="([^"]*)" x1="([-0-9.]+)" '
    r'y1="([-0-9.]+)" x2="([-0-9.]+)" y2="([-0-9.]+)"/>')
REGION_RE = re.compile(r'data-signs="([^"]*)" data-coeff="([^"]*)"')


# ------------------------------------------------------------ emission

def test_digits_rounds_rationals_half_up():
    assert _digits(Fraction(1, 2)) == 5000
    assert _digits(Fraction(-1, 2)) == -5000
    # 0.00005 is a tie and rounds away from zero at four places
    assert _digits(Fraction(1, 20000)) == 1
    assert _digits(Fraction(-1, 20000)) == -1
    assert _digits(Fraction(12345, 10000)) == 12345
    assert _digits(0) == 0


def test_digits_matches_high_precision_roots():
    import mpmath
    mpmath.mp.dps = 60
    for q, r in ((1, 2), (-3, 5), (7, 11), (40, 22), (-9, 7)):
        want = int(mpmath.floor(abs(Fraction(q)) * mpmath.sqrt(r) * 10**4
                                + Fraction(1, 2)))
        got = _digits(Fraction(q), Fraction(r))
        assert abs(got) == want
        assert (got < 0) == (q < 0)


def test_fmt_four_places():
    assert _fmt(0) == "0.0000"
    assert _fmt(12345) == "1.2345"
    assert _fmt(-50) == "-0.0050"
    assert _fmt(1000000) == "100.0000"


def test_exact_negation_and_scale():
    # the scenes flip the y axis by negating digits, which needs the
    # rounding to be odd in q
    for q, r in ((Fraction(3, 2), 2), (Fraction(1, 20000), 1),
                 (Fraction(-7, 3), Fraction(5, 11))):
        assert _digits(-q, r) == -_digits(q, r)
    with pytest.raises(ValueError):
        _digits(1, -1)


# ------------------------------------------------------------- shared

def _svg(n, forest=None):
    highlight = None
    if forest is not None:
        highlight = forest_highlight(GroundSet.of_size(n), forest)
    return render(n, highlight)


def test_render_rejects_bad_sizes():
    for n in (2, 5, 0):
        with pytest.raises(ValueError):
            render(n)


def test_render_rejects_foreign_highlight():
    one3 = Partition.one_block(G3)
    v3 = ShardVector.basis(enumerate_shards(one3)[0])
    with pytest.raises(ValueError):
        render(4, v3)
    fine = Partition.singletons(G3)
    v_fine = ShardVector.basis(enumerate_shards(fine)[0])
    with pytest.raises(ValueError):
        render(3, v_fine)
    with pytest.raises(ValueError):
        render(3, {"+++": 1})


def test_forest_highlight_demands_full_tree():
    with pytest.raises(ValueError):
        forest_highlight(G3, "[1,2]")  # source is not the one-block partition
    with pytest.raises(ValueError):
        forest_highlight(G4, "[12,34]")  # target stops above singletons
    forest_highlight(G4, "[[1,2],[3,4]]@012")
    forest_highlight(G4, "[[[1,2],3],4]")


def test_render_is_deterministic_per_call():
    assert _svg(3) == _svg(3)
    assert _svg(4) == _svg(4)
    assert _svg(4, "[[[1,2],3],4]") == _svg(4, "[[[1,2],3],4]")


def test_highlight_changes_bytes_and_plain_does_not():
    assert _svg(4) != _svg(4, "[[[1,2],3],4]")
    assert _svg(3) != _svg(3, "[[1,2],3]")


# --------------------------------------------------------------- n=3

def test_n3_structure():
    svg = _svg(3)
    lines = LINE_RE.findall(svg)
    assert len(lines) == 3
    assert sorted(key for _, key, *_ in lines) == ["1", "12", "2"]
    # no wall at size 3 has two labels on both sides
    assert all(cls == "wall" for cls, *_ in lines)
    regions = REGION_RE.findall(svg)
    assert len(regions) == 6
    ids = {X.id() for X in enumerate_shards(Partition.one_block(G3))}
    assert {sig for sig, _ in regions} == ids
    # every chamber label appears as text
    for sig in ids:
        assert ">%s</text>" % sig in svg


def _n3_forms():
    t = Fraction(13, 15)
    per = ((Fraction(1), Fraction(0)), (Fraction(-1, 2), t),
           (Fraction(-1, 2), -t))
    ctx = context_for(Partition.one_block(G3))
    forms = []
    for mask in ctx.keys:
        cx = cy = Fraction(0)
        for i in range(3):
            if mask >> i & 1:
                cx += per[i][0]
                cy += per[i][1]
        forms.append((mask, cx, cy))
    return forms


def test_n3_chamber_polygons_lie_on_their_side():
    # rebuild each polygon's claimed chamber from the printed vertices:
    # every vertex must satisfy sign * form >= 0 for each wall, within
    # one emission unit, and some interior point strictly so
    svg = _svg(3)
    forms = _n3_forms()
    ctx = context_for(Partition.one_block(G3))
    poly_re = re.compile(
        r'data-signs="([^"]*)" data-coeff="[^"]*">\s*'
        r'<polygon[^/]*points="([^"]*)"')
    seen = set()
    for sig, points in poly_re.findall(svg):
        seen.add(sig)
        pts = []
        for pair in points.split():
            xs, ys = pair.split(",")
            # undo the emission flip of the y axis
            pts.append((Fraction(xs), -Fraction(ys)))
        assert len(pts) >= 3
        cx = sum(p[0] for p in pts) / len(pts)
        cy = sum(p[1] for p in pts) / len(pts)
        for (mask, a, b), s in zip(forms, _signs_of(sig)):
            assert s * (a * cx + b * cy) > 0, (sig, mask)
            for x, y in pts:
                # vertices sit on the closed side, up to rounding
                assert s * (a * x + b * y) >= -Fraction(3, 10**4)
    assert len(seen) == 6
    del ctx


def _signs_of(sig):
    return [1 if ch == "+" else -1 for ch in sig]


def test_n3_highlight_coefficients_match_calculus():
    g = G3
    F = parse_forest(g, "[[1,2],3]")
    fine = Partition.singletons(g)
    v = dual_forest_derivative(F, ShardVector.basis(enumerate_shards(fine)[0]))
    expected = {X.id(): c for X, c in v.items()}
    svg = _svg(3, "[[1,2],3]")
    shaded = {sig: coeff for sig, coeff in REGION_RE.findall(svg)
              if coeff != "0"}
    assert {s: str(c) for s, c in expected.items()} == shaded
    assert len(shaded) == 4
    # signed labels are printed under the chamber name
    assert svg.count(">+1</tspan>") == 2
    assert svg.count(">-1</tspan>") == 2


def test_n3_zero_coefficient_regions_stay_unfilled():
    svg = _svg(3, "[[1,2],3]")
    assert svg.count('class="region-fill zero"') == 2
    assert svg.count('class="region-fill pos"') == 2
    assert svg.count('class="region-fill neg"') == 2
    assert svg.count('fill-opacity="0.5000"') == 4


# --------------------------------------------------------------- n=4

def _n4_exact_frame():
    """Rebuild the projection frame symbolically from first principles."""
    ctx = context_for(Partition.one_block(G4))
    rows = [sympy.Matrix([1, 1, -1, -1]) / 2,
            sympy.Matrix([1, -1, 1, -1]) / 2,
            sympy.Matrix([1, -1, -1, 1]) / 2]
    normals = []
    for mask in ctx.keys:
        e = sympy.Matrix([1 if mask >> i & 1 else 0 for i in range(4)])
        normals.append(sympy.Matrix([r.dot(e) for r in rows]))
    d0 = sympy.Matrix([3, 1, -1])
    pole = -d0 / sympy.sqrt(d0.dot(d0))
    a0 = sympy.Matrix([2, -3, 3])
    b0 = sympy.Matrix([0, -1, -1])
    ahat = a0 / sympy.sqrt(a0.dot(a0))
    bhat = b0 / sympy.sqrt(b0.dot(b0))
    assert a0.dot(d0) == 0 and b0.dot(d0) == 0 and a0.dot(b0) == 0
    return ctx, normals, pole, ahat, bhat


def _stereo(pole, ahat, bhat, y):
    w = pole.dot(y)
    return (y.dot(ahat) / (1 - w), y.dot(bhat) / (1 - w))


def test_n4_circles_match_symbolic_projection():
    # project three points of each great circle through an
    # independently written stereographic map and fit the circle
    # through the images; centers and radii must agree with the SVG
    # at emission precision
    svg = _svg(4)
    walls = {key: (Fraction(cx), Fraction(cy), Fraction(r))
             for _, key, cx, cy, r in WALL_RE.findall(svg)}
    assert len(walls) == 7
    ctx, normals, pole, ahat, bhat = _n4_exact_frame()
    scale = 40
    for mask, n in zip(ctx.keys, normals):
        key = G4.mask_labels(mask)
        # an orthonormal basis of the wall plane gives three circle points
        u = n.cross(sympy.Matrix([1, 0, 0]))
        if u.norm() == 0:
            u = n.cross(sympy.Matrix([0, 1, 0]))
        u = u / u.norm()
        v = n.cross(u) / n.norm()
        pts = [u, v, -u]
        imgs = [_stereo(pole, ahat, bhat, p) for p in pts]
        (x1, y1), (x2, y2), (x3, y3) = imgs
        # circumcenter of the three images
        d = 2 * (x1 * (y2 - y3) + x2 * (y3 - y1) + x3 * (y1 - y2))
        sq1 = x1**2 + y1**2
        sq2 = x2**2 + y2**2
        sq3 = x3**2 + y3**2
        cx = (sq1 * (y2 - y3) + sq2 * (y3 - y1) + sq3 * (y1 - y2)) / d
        cy = (sq1 * (x3 - x2) + sq2 * (x1 - x3) + sq3 * (x2 - x1)) / d
        rho = sympy.sqrt((x1 - cx) ** 2 + (y1 - cy) ** 2)
        got_cx, got_cy, got_r = walls[key]
        prec = Fraction(1, 10**4)
        for want, got, flip in ((cx, got_cx, 1), (cy, got_cy, -1),
                                (rho, got_r, 1)):
            want = sympy.nsimplify(want * scale * flip)
            err = sympy.Abs(want - sympy.Rational(got.numerator,
                                                  got.denominator))
            assert sympy.simplify(err <= prec) in (True, sympy.true), key


def test_n4_steinmann_walls_are_exactly_the_balanced_keys():
    svg = _svg(4)
    heavy = {key for cls, key, *_ in WALL_RE.findall(svg)
             if "steinmann" in cls}
    assert heavy == {"12", "13", "23"}


def test_n4_has_32_regions_with_distinct_signs():
    svg = _svg(4)
    regions = REGION_RE.findall(svg)
    assert len(regions) == 32
    ids = {X.id() for X in enumerate_shards(Partition.one_block(G4))}
    assert {sig for sig, _ in regions} == ids


def test_n4_region_clip_sides_match_high_precision_projection():
    # every chamber has an exact rational interior direction (the sum
    # of its extreme rays); its image must land inside circle k exactly
    # when the region's clip chain keeps the in-disk side
    import mpmath
    mpmath.mp.dps = 50
    svg = _svg(4)
    ctx, normals, pole, ahat, bhat = _n4_exact_frame()
    walls = {key: tuple(map(Fraction, (cx, cy, r)))
             for _, key, cx, cy, r in WALL_RE.findall(svg)}
    order = [G4.mask_labels(mask) for mask in ctx.keys]

    chain_re = re.compile(
        r'data-signs="([^"]*)" data-coeff="[^"]*">\s*((?:<g clip-path='
        r'"url\(#(?:in|out)\d+\)">\s*)+)')
    chains = {}
    for sig, blob in chain_re.findall(svg):
        sides = re.findall(r"url\(#(in|out)(\d+)\)", blob)
        assert [int(k) for _, k in sides] == list(range(7))
        chains[sig] = [mode == "in" for mode, _ in sides]
    assert len(chains) == 32

    for X in enumerate_shards(Partition.one_block(G4)):
        rays = _chamber_rays(normals, X.id())
        # a plain ray sum of the chamber antipodal to the probe is the
        # pole itself, where the projection blows up; uneven positive
        # weights keep the witness interior and off the pole
        w = sum((sympy.Integer(2 ** k) * r for k, r in enumerate(rays)),
                sympy.zeros(3, 1))
        assert (1 - pole.dot(w / w.norm())) != 0
        y = w / w.norm()
        zx, zy = _stereo(pole, ahat, bhat, y)
        zx = mpmath.mpf(sympy.N(zx * 40, 40).__str__())
        zy = -mpmath.mpf(sympy.N(zy * 40, 40).__str__())
        for key, inside in zip(order, chains[X.id()]):
            cx, cy, r = walls[key]
            lhs = (zx - mpmath.mpf(str(cx))) ** 2 \
                + (zy - mpmath.mpf(str(cy))) ** 2
            gap = lhs - mpmath.mpf(str(r)) ** 2
            assert abs(gap) > mpmath.mpf("1e-3"), (X.id(), key)
            assert (gap < 0) == inside, (X.id(), key)


def _chamber_rays(normals, sig):
    eps = _signs_of(sig)
    rays = set()
    m = len(normals)
    for i in range(m):
        for j in range(i + 1, m):
            c = normals[i].cross(normals[j])
            if c.norm() == 0:
                continue
            for s in (1, -1):
                d = s * c
                vals = [e * n.dot(d) for e, n in zip(eps, normals)]
                if all(v >= 0 for v in vals):
                    den = sympy.lcm([sympy.fraction(x)[1] for x in d])
                    di = sympy.Matrix([sympy.Integer(x * den) for x in d])
                    g = sympy.gcd(list(di))
                    rays.add(tuple(x / g for x in di))
    assert rays, sig
    return [sympy.Matrix(r) for r in rays]


def test_n4_highlight_shades_match_calculus():
    forest = "[[1,2],[3,4]]@021"
    v = forest_highlight(G4, forest)
    svg = _svg(4, forest)
    shaded = {sig: coeff for sig, coeff in REGION_RE.findall(svg)
              if coeff != "0"}
    assert shaded == {X.id(): str(c) for X, c in v.items()}
    assert len(shaded) == 8


def test_n4_viewbox_square_and_covers_walls_partially():
    svg = _svg(4)
    m = re.search(r'viewBox="(-?\d+) (-?\d+) (\d+) (\d+)"', svg)
    x, y, w, h = map(int, m.groups())
    assert w == h == -2 * x == -2 * y
    # the window is chosen to show every region, not every circle
    walls = WALL_RE.findall(svg)
    assert any(Fraction(cx) + Fraction(r) > w // 2
               for _, _, cx, cy, r in walls)
