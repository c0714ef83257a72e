"""Compute kernels, reached as shardcalc._backend.kernel.

Three hot loops live here: the fraction-free integer simplex pivot,
exact sign evaluation of subset sums at an integer point, and the
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
    """Sign pattern of subset sums: bit i from the top of the result, of
    len(masks) bits, is set when the sum of nums over the set bits of
    masks[i] is negative.  Returns None if a sum is zero.

    nums are integer numerators over a shared positive denominator, so the
    denominator never matters.
    """
    bits = 0
    for mask in masks:
        s = 0
        m = mask
        while m:
            low = m & -m
            s += nums[low.bit_length() - 1]
            m ^= low
        if s == 0:
            return None
        bits = bits << 1 | (s < 0)
    return bits


def quick_check(bits, quads):
    """Superadditivity screen for a candidate chamber sign pattern.

    bits: the pattern as a bitmask.  quads: (mask, want) pairs, each a
    set of keys with a sign per key that no point of the flat realizes
    (see SupportContext.quads).  Returns False when bits agrees with some
    want on its mask, True if the pattern survives (it may still be
    infeasible).
    """
    for mask, want in quads:
        if bits & mask == want:
            return False
    return True
