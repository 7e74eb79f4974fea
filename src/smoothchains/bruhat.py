"""Strong Bruhat order on the symmetric group.

Comparison is by dominance of rank matrices: x <= y iff for all i, j the
count #{a <= i : x(a) >= j} is at most the same count for y.  Covering
relations use the step-cover rule stated in the orders module docstring:
swap_covers decides it for one step x -> x * T(i, j), and is_cover
applies it to the two positions where x and y differ.
"""

from __future__ import annotations

from typing import Sequence

from .permutations import Window, format_window, inverse, mu


def rank_matrix(w: Window) -> tuple[tuple[int, ...], ...]:
    """Row i gives #{a <= i : w(a) >= j} for j = 1..n (1-based i, j)."""
    n = len(w)
    rows = []
    prev = (0,) * n
    for i in range(n):
        row = tuple(prev[j] + (1 if w[i] >= j + 1 else 0) for j in range(n))
        rows.append(row)
        prev = row
    return tuple(rows)


def leq(x: Window, y: Window) -> bool:
    """x <= y in strong Bruhat order (degrees must agree)."""
    if len(x) != len(y):
        raise ValueError("degree mismatch in Bruhat comparison")
    for row_x, row_y in zip(rank_matrix(x), rank_matrix(y)):
        for a, b in zip(row_x, row_y):
            if a > b:
                return False
    return True


def is_cover(x: Window, y: Window) -> bool:
    """Does y cover x (x < y with no element strictly between)?"""
    if len(x) != len(y):
        raise ValueError("degree mismatch in cover test")
    diff = [p for p in range(len(x)) if x[p] != y[p]]
    if len(diff) != 2:
        return False
    a, b = diff
    return x[a] == y[b] and x[b] == y[a] and swap_covers(x, a + 1, b + 1)


def swap_covers(x: Sequence[int], i: int, j: int) -> bool:
    """Is x covered by x * T(i, j)?  1-based i < j; x may be a list."""
    lo, hi = x[i - 1], x[j - 1]
    if not lo < hi:
        return False
    for v in x[i : j - 1]:
        if lo < v < hi:
            return False
    return True


def reflection_bounds(w: Window) -> tuple[int, ...]:
    """Which reflections lie below w, for every i at once.

    T(i, j) <= w iff max w(1..i) >= j and max w^{-1}(1..i) >= j.  Entry
    i (1-based) is min(max w(1..i), max w^{-1}(1..i)), so T(i, j) <= w
    iff i < j <= entry i.  Every entry is at least i.

    >>> reflection_bounds((3, 1, 2))
    (2, 3, 3)
    """
    return bounds_from_maxima(mu(w), mu(inverse(w)))


def bounds_from_maxima(m: Sequence[int], mi: Sequence[int]) -> tuple[int, ...]:
    """reflection_bounds(w) from m = mu(w) and mi = mu(w^{-1})."""
    return tuple(map(min, m, mi))


def _validate_chain(chain: Sequence[Window]) -> None:
    if not chain:
        raise ValueError("empty chain")
    n = len(chain[0])
    if any(len(w) != n for w in chain):
        raise ValueError("chain mixes degrees")


def chain_text(chain: Sequence[Window]) -> list[str]:
    """One-line notations of the chain, in order."""
    _validate_chain(chain)
    return [format_window(w) for w in chain]


def chain_to_dot(chain: Sequence[Window]) -> str:
    """DOT source for the chain drawn as a directed path."""
    _validate_chain(chain)
    lines = ["digraph chain {", "  rankdir=LR;"]
    for w in chain:
        lines.append(f'  "{format_window(w)}";')
    for x, y in zip(chain, chain[1:]):
        lines.append(f'  "{format_window(x)}" -> "{format_window(y)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
