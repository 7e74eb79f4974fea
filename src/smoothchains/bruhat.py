"""Strong Bruhat order on the symmetric group.

Comparison is by dominance of rank matrices: x <= y iff for all i, j the
count #{a <= i : x(a) >= j} is at most the same count for y.  Covering
relations use the transposition test: x is covered by y iff y = x * T(a, b)
with x(a) < x(b) and no position strictly between a and b carrying a value
strictly between x(a) and x(b).
"""

from __future__ import annotations

from typing import Sequence

from .permutations import (
    Transposition,
    Window,
    all_transpositions,
    format_window,
    inverse,
    length,
    mu,
    times_transposition,
)


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
    if x[a] != y[b] or x[b] != y[a] or x[a] >= x[b]:
        return False
    lo, hi = x[a], x[b]
    return not any(lo < x[c] < hi for c in range(a + 1, b))


def reflection_leq(
    t: Transposition,
    w: Window,
    mu_w: Sequence[int] | None = None,
    mu_winv: Sequence[int] | None = None,
) -> bool:
    """T(i, j) <= w, decided from running maxima of w and of w^{-1}.

    T(i, j) <= w iff max(w(1..i)) >= j and max(w^{-1}(1..i)) >= j.
    Precomputed maxima tables can be passed in for sweep loops.
    """
    i, j = t
    if not 1 <= i < j <= len(w):
        raise ValueError(f"T{t} does not fit in degree {len(w)}")
    if mu_w is None:
        mu_w = mu(w)
    if mu_winv is None:
        mu_winv = mu(inverse(w))
    return mu_w[i - 1] >= j and mu_winv[i - 1] >= j


def is_saturated_chain(chain: Sequence[Window]) -> bool:
    """Is every consecutive step of the chain a covering relation?"""
    _validate_chain(chain)
    return all(is_cover(x, y) for x, y in zip(chain, chain[1:]))


def first_noncover(chain: Sequence[Window]) -> int | None:
    """1-based index of the first step that is not a cover, or None."""
    _validate_chain(chain)
    for step, (x, y) in enumerate(zip(chain, chain[1:]), start=1):
        if not is_cover(x, y):
            return step
    return None


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


def chain_to_dot(chain: Sequence[Window], name: str = "chain") -> str:
    """DOT source for the chain drawn as a directed path."""
    _validate_chain(chain)
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for w in chain:
        lines.append(f'  "{format_window(w)}";')
    for x, y in zip(chain, chain[1:]):
        lines.append(f'  "{format_window(x)}" -> "{format_window(y)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def interval_rank_counts(w: Window) -> tuple[int, ...]:
    """Sizes of the length-graded pieces of the interval [e, w].

    Index d counts the elements x <= w with length d.  Used by tests to
    decide rational smoothness by palindromicity.
    """
    # Grow the interval downward from w: every element below w is
    # reachable through length-decreasing reflection moves, so this
    # closure is the definitional one and needs no cover bookkeeping.
    n = len(w)
    lw = length(w)
    counts = [0] * (lw + 1)
    seen = {w}
    frontier = [w]
    counts[lw] = 1
    trans = all_transpositions(n)
    while frontier:
        nxt = []
        for x in frontier:
            lx = length(x)
            for t in trans:
                y = times_transposition(x, t)
                if length(y) < lx and y not in seen:
                    seen.add(y)
                    counts[length(y)] += 1
                    nxt.append(y)
        frontier = nxt
    return tuple(counts)
