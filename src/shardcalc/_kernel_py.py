"""Compute kernels, reached as shardcalc._backend.kernel.

Three hot loops live here: the fraction-free integer simplex pivot,
exact sign evaluation of subset sums at a rational point, and the
superadditivity quick-rejection test used to prune sign patterns before
they reach the LP.
"""


def pivot_step(tab, r, c, det):
    """Fraction-free pivot on row r, column c of an integer tableau.

    tab is a list of equal-length lists of integers: det times the
    rational tableau, det being the previous pivot (1 at the start).
    Every row i other than r becomes (row_i * p - row_i[c] * row_r) / det
    with p = tab[r][c]; the division is exact because each entry is a
    minor of the starting tableau (Bareiss).  Row r is unchanged.
    Returns p, the new common denominator.
    """
    prow = tab[r]
    p = prow[c]
    if not p:
        raise ZeroDivisionError("pivot on zero entry")
    for i, row in enumerate(tab):
        if i == r:
            continue
        f = row[c]
        if f:
            tab[i] = [(x * p - f * y) // det for x, y in zip(row, prow)]
        elif p != det:
            tab[i] = [x * p // det for x in row]
    return p


def sign_eval(masks, nums):
    """Signs of subset sums: for each bitmask, sign(sum of nums over set bits).

    nums are integer numerators over a shared positive denominator, so the
    denominator never matters.  Returns a list of -1 / 0 / +1.
    """
    out = []
    for mask in masks:
        s = 0
        m = mask
        while m:
            low = m & -m
            s += nums[low.bit_length() - 1]
            m ^= low
        out.append(0 if s == 0 else (1 if s > 0 else -1))
    return out


def quick_check(signs, quads):
    """Superadditivity screen for a candidate chamber sign pattern.

    signs: +-1 per canonical key class.  quads: precomputed 8-tuples
    (ia, oa, ib, ob, iu, ou, iv, ov) encoding pairs of subset masks A, B
    with their union U and intersection V as (class index, orientation);
    index -1 with orientation 0 marks a mask whose functional is zero on
    the flat.  Since lambda_A + lambda_B = lambda_U + lambda_V pointwise,
    a pattern with lambda_A, lambda_B both positive but lambda_U and
    lambda_V both nonpositive is infeasible.  Returns False on any
    violation, True if the pattern survives (it may still be infeasible).
    """
    for ia, oa, ib, ob, iu, ou, iv, ov in quads:
        if oa * signs[ia] > 0 and ob * signs[ib] > 0:
            vu = ou * signs[iu] if iu >= 0 else 0
            vv = ov * signs[iv] if iv >= 0 else 0
            if vu <= 0 and vv <= 0:
                return False
    return True
