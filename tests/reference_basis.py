"""Pure-Python oracle of the square-free basis, each monomial as its support mask.

x_i is bit n - i of an n-bit mask, so x1 is the most significant. A
monomial is 1 at a vertex exactly when its support is within the vertex's
mask. Nothing here is shared with `boxapprox.core`.
"""

from itertools import combinations


def descending_supports(n, k):
    """The supports of degree <= k: degree k down to 0, and x1 first within a degree."""
    return [
        sum(1 << (n - i) for i in chosen)
        for d in range(k, -1, -1)
        for chosen in combinations(range(1, n + 1), d)
    ]


def evaluation_rows(supports, masks):
    """One 0/1 row per vertex mask: 1 where the support is within it."""
    return [[int(s & b == s) for s in supports] for b in masks]
