"""Littlewood-Richardson coefficients one at a time: the slow reference for
`characters.tensor_expansion`.

The library walks the LR tableaux of content gamma on nu letter by letter,
a horizontal strip per letter, and counts the shapes where the walks end.
The function here fills the cells of one skew shape lam/gamma instead, in
reverse reading order, and checks the lattice-word condition on every
prefix; the tests sum it over the candidate partitions and hold the walk
to it.
"""

from __future__ import annotations

from dethodge.characters import LR_SIZE_CAP, _as_partition
from dethodge.weights import partitions_of


def lr_coefficient(gamma, beta, lam) -> int:
    """Littlewood-Richardson coefficient: the multiplicity of the irrep of
    highest weight lam inside the tensor product indexed by gamma and
    beta, computed by counting LR skew tableaux of shape lam/gamma and
    content beta. Symmetric in gamma and beta; zero when the sizes do not
    add up. Inputs are capped at |lam| <= 20."""
    g = _as_partition(gamma)
    b = _as_partition(beta)
    l = _as_partition(lam)
    if sum(l) > LR_SIZE_CAP:
        raise ValueError(f"|lam| = {sum(l)} exceeds the desk-scale cap {LR_SIZE_CAP}")
    if sum(g) + sum(b) != sum(l):
        return 0
    if len(g) > len(l) or any(g[i] > l[i] for i in range(len(g))):
        return 0
    if not b:
        return 1 if g == l else 0

    # Cells of the skew shape in reverse reading order (each row right to
    # left); filling in this order lets the lattice-word condition be
    # enforced on prefixes as we go.
    inner = g + (0,) * (len(l) - len(g))
    cells = []
    for r in range(len(l)):
        cells.extend((r, c) for c in range(l[r] - 1, inner[r] - 1, -1))

    nvals = len(b)
    counts = [0] * (nvals + 1)
    filled: dict[tuple[int, int], int] = {}

    def place(idx: int) -> int:
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        above = filled.get((r - 1, c))
        right = filled.get((r, c + 1))
        lo = 1 if above is None else above + 1
        hi = nvals if right is None else right
        total = 0
        for v in range(lo, hi + 1):
            if counts[v] >= b[v - 1]:
                continue
            if v > 1 and counts[v] + 1 > counts[v - 1]:
                continue
            counts[v] += 1
            filled[(r, c)] = v
            total += place(idx + 1)
            counts[v] -= 1
            del filled[(r, c)]
        return total

    return place(0)


def expansion_by_coefficients(nu, gamma, max_parts: int) -> dict[tuple[int, ...], int]:
    """The tensor expansion one candidate at a time: `lr_coefficient` for
    every partition of |nu| + |gamma| into at most max_parts parts, in the
    order `partitions_of` gives them, the nonzero ones kept."""
    total = sum(_as_partition(nu)) + sum(_as_partition(gamma))
    out = {}
    for lam in partitions_of(total, max_parts):
        c = lr_coefficient(nu, gamma, lam)
        if c:
            out[lam] = c
    return out
