"""Compatible reflection orders and saturated-chain verification.

A reflection order for a set A of ground elements is an arrangement of
the transposition members of A.  It is compatible with A when it obeys
the pair rule of ordering_engine on the pairs T(i, j), T(j, k) with
i < j < k, both members, whose sum is T(i, k) and whose products are
R(i, j, k) and L(i, j, k):

  * if T(i, k) is a member, it sits strictly between T(i, j) and
    T(j, k) in the arrangement (either orientation);
  * otherwise exactly one of R(i, j, k), L(i, j, k) is a member, and
    T(i, j) precedes T(j, k) iff it is R(i, j, k).

The pairs are listed by admissible.reflection_pairs.

For smooth w, multiplying the arrangement of the full set below w gives
w back, and both the prefix products and the reversed-word prefix
products walk saturated chains in Bruhat order.  This module constructs
such an arrangement wedge by wedge, verifies arbitrary arrangements,
enumerates all compatible arrangements, and explores the elementary-move
graph on them.

Every chain step is a right product x -> x * T(i, j) with i < j, which
swaps positions i and j of the window.  The step-cover rule: x is
covered by x * T(i, j) iff x(i) < x(j) and no position strictly
between i and j holds a value strictly between x(i) and x(j)
(Bjorner-Brenti, Combinatorics of Coxeter Groups, Lemma 2.1.4).  So a
step is decided from positions i..j of x, without comparing windows.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bruhat
from .admissible import (
    AdmissibleSet,
    _wedges,
    c23,
    c_t,
    is_smooth_pattern,
    reflection_pairs,
    smoothness_witness,
)
from .ordering_engine import capped_orders, is_compatible_order
from .permutations import (
    Transposition,
    Window,
    format_window,
    length,
)

ReflectionOrder = tuple[Transposition, ...]

DEFAULT_MAX_REFLECTIONS = 10


class NotSmoothError(ValueError):
    """Raised when an operation requires a smooth permutation."""


def order_text(order: ReflectionOrder) -> str:
    return " ".join(f"T({i},{j})" for i, j in order)


def is_compatible(order: ReflectionOrder, A: AdmissibleSet) -> bool:
    """Check the pair rule; the arrangement must use exactly A's reflections."""
    return is_compatible_order(order, A.reflections, reflection_pairs(A))


def enumerate_compatible_orders(
    A: AdmissibleSet, max_reflections: int | None = DEFAULT_MAX_REFLECTIONS
) -> list[ReflectionOrder]:
    """All compatible arrangements; refused over max_reflections (None lifts it)."""
    return capped_orders(A.reflections, reflection_pairs(A), max_reflections)


def construct_for_set(A: AdmissibleSet) -> ReflectionOrder:
    """A compatible arrangement for an admissible set: the wedge recursion.

    With first wedge (i, j), an arrangement for the set restricted at
    (i, j) is followed by T(i, j), T(i, j-1), ..., T(i, i+1).  A set
    without a wedge takes the reverse of its inverse set's arrangement.
    No set is built: a level is A or its inverse under a first-index mask.
    """
    firsts = sum({1 << e[1] for e in A.members})  # mask of first indices
    return _construct(A, sorted(A.reflections), firsts, 0, "R")


def _construct(A, refls, firsts, dropped, side) -> ReflectionOrder:
    if not firsts & ~dropped:  # every member dropped
        return ()
    wedge = next(_wedges(A, refls, dropped, side), None)
    if wedge is not None:
        i, j = wedge
        block = tuple((i, r) for r in range(j, i, -1))
        return _construct(A, refls, firsts, dropped | 1 << i, side) + block
    flipped = "L" if side == "R" else "R"
    if next(_wedges(A, refls, dropped, flipped), None) is None:
        raise ValueError("no wedge on either side; set is not admissible")
    return _construct(A, refls, firsts, dropped, flipped)[::-1]


def construct_compatible_order(w: Window) -> ReflectionOrder:
    """A compatible arrangement of the reflections below smooth w."""
    if not is_smooth_pattern(w):
        witness = smoothness_witness(w)
        raise NotSmoothError(
            f"{format_window(w)} is not smooth (contains {witness[0]} at "
            f"positions {witness[1]}); no compatible arrangement exists"
        )
    return construct_for_set(c23(w))


@dataclass(frozen=True)
class VerificationReport:
    """Product and chain checks for one arrangement against one window."""

    window: Window
    order: ReflectionOrder
    product: Window
    prefix_chain: tuple[Window, ...]
    suffix_chain: tuple[Window, ...]
    product_ok: bool
    prefix_saturated: bool
    suffix_saturated: bool
    prefix_first_break: int | None
    suffix_first_break: int | None

    @property
    def all_ok(self) -> bool:
        return self.product_ok and self.prefix_saturated and self.suffix_saturated

    def to_dict(self) -> dict:
        return {
            "window": format_window(self.window),
            "order": [f"T({i},{j})" for i, j in self.order],
            "product": format_window(self.product),
            "prefix_chain": [format_window(x) for x in self.prefix_chain],
            "suffix_chain": [format_window(x) for x in self.suffix_chain],
            "product_ok": self.product_ok,
            "prefix_saturated": self.prefix_saturated,
            "suffix_saturated": self.suffix_saturated,
            "prefix_first_break": self.prefix_first_break,
            "suffix_first_break": self.suffix_first_break,
        }


def verify_order(w: Window, order: ReflectionOrder) -> VerificationReport:
    """Check the product identity and both saturated chains.

    The arrangement must use exactly the reflections below w, each once;
    membership is read off bruhat.reflection_bounds, so c_t(w) is not
    built.  The prefix chain multiplies the arrangement left to right
    from the identity; the suffix chain does the same on the reversed
    word, so it ends at w^{-1} whenever the product comes out to w.
    Each step is decided by the step-cover rule of the module
    docstring.
    """
    n = len(w)
    bounds = bruhat.reflection_bounds(w)
    if (
        len(set(order)) != len(order)
        # |c_t(w)|: entry i of bounds admits j = i+1..entry
        or len(order) != sum(bounds) - n * (n + 1) // 2
        or not all(1 <= i < j <= n and j <= bounds[i - 1] for i, j in order)
    ):
        raise ValueError("arrangement does not match the reflections below w")
    prefix, prefix_break = _chain(n, order)
    suffix, suffix_break = _chain(n, reversed(order))
    product = prefix[-1]
    return VerificationReport(
        window=w,
        order=tuple(order),
        product=product,
        prefix_chain=prefix,
        suffix_chain=suffix,
        product_ok=product == w,
        prefix_saturated=prefix_break is None,
        suffix_saturated=suffix_break is None,
        prefix_first_break=prefix_break,
        suffix_first_break=suffix_break,
    )


def _chain(n: int, steps) -> tuple[tuple[Window, ...], int | None]:
    """The chain e, e * t1, e * t1 * t2, ... and its first non-cover step.

    The step index is 1-based, None when every step is a cover.
    """
    x = list(range(1, n + 1))
    chain = [tuple(x)]
    first_break = None
    for step, (i, j) in enumerate(steps, start=1):
        if first_break is None and not bruhat.swap_covers(x, i, j):
            first_break = step
        x[i - 1], x[j - 1] = x[j - 1], x[i - 1]
        chain.append(tuple(x))
    return tuple(chain), first_break


def _moves(order: ReflectionOrder):
    """Every arrangement one elementary move away, compatible or not.

    Moves: swap two adjacent disjoint reflections T(i, j), T(k, l);
    reverse three consecutive reflections T(x, y), T(x, z), T(y, z) or
    T(y, z), T(x, z), T(x, y), the long one in the middle.  Distinct
    moves change different positions, so none repeats.
    """
    for p in range(len(order) - 1):
        (i, j), (k, l) = order[p], order[p + 1]
        if i != k and i != l and j != k and j != l:
            yield order[:p] + (order[p + 1], order[p]) + order[p + 2 :]
    for p in range(len(order) - 2):
        a, (x, z), b = order[p : p + 3]
        if (a[0] == x and b[1] == z and a[1] == b[0]) or (
            b[0] == x and a[1] == z and b[1] == a[0]
        ):
            yield order[:p] + (b, (x, z), a) + order[p + 3 :]


def elementary_neighbors(
    order: ReflectionOrder, A: AdmissibleSet
) -> list[ReflectionOrder]:
    """Arrangements one elementary move away that stay compatible."""
    return [cand for cand in _moves(order) if is_compatible(cand, A)]


def order_graph(
    A: AdmissibleSet, max_reflections: int | None = DEFAULT_MAX_REFLECTIONS
) -> tuple[list[ReflectionOrder], list[tuple[int, int]]]:
    """Vertices (all compatible arrangements) and elementary-move edges.

    A move landing on a vertex is compatible, so no pair rule is re-run.
    """
    vertices = enumerate_compatible_orders(A, max_reflections)
    index = {v: i for i, v in enumerate(vertices)}
    edges = []
    for i, v in enumerate(vertices):
        for u in _moves(v):
            j = index.get(u, -1)
            if i < j:
                edges.append((i, j))
    return vertices, edges


def order_graph_dot(
    vertices: list[ReflectionOrder], edges: list[tuple[int, int]]
) -> str:
    """DOT source for an order_graph, with arrangements as labels."""
    lines = ["graph orders {"]
    for v in vertices:
        lines.append(f'  "{order_text(v)}";')
    for i, j in edges:
        lines.append(f'  "{order_text(vertices[i])}" -- "{order_text(vertices[j])}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_connected(
    A: AdmissibleSet, max_reflections: int | None = DEFAULT_MAX_REFLECTIONS
) -> bool:
    """Is the elementary-move graph on compatible arrangements connected?"""
    vertices, edges = order_graph(A, max_reflections)
    return _connected(len(vertices), edges)


def _connected(count: int, edges: list[tuple[int, int]]) -> bool:
    """Do the edges connect vertices 0..count-1?

    Merges the edges in a union-find forest and counts roots.
    """
    root = list(range(count))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for i, j in edges:
        root[find(i)] = find(j)
    return len({find(v) for v in range(len(root))}) <= 1


@dataclass(frozen=True)
class SmoothnessReport:
    """Smoothness verdict for one window with a certificate either way."""

    window: Window
    smooth: bool
    length: int
    reflections_below: int
    pattern_name: str | None
    pattern_positions: tuple[int, ...] | None
    order: ReflectionOrder | None
    verification: VerificationReport | None

    def to_dict(self) -> dict:
        return {
            "window": format_window(self.window),
            "smooth": self.smooth,
            "length": self.length,
            "reflections_below": self.reflections_below,
            "pattern_name": self.pattern_name,
            "pattern_positions": (
                list(self.pattern_positions) if self.pattern_positions else None
            ),
            "order": [f"T({i},{j})" for i, j in self.order] if self.order else None,
            "verification": self.verification.to_dict() if self.verification else None,
        }


def smoothness_report(w: Window) -> SmoothnessReport:
    """Decide smoothness and attach the certificate.

    Smooth windows get a constructed arrangement plus its verification;
    non-smooth ones get a forbidden-pattern occurrence and the strict
    excess of reflections below w over the length.
    """
    smooth = is_smooth_pattern(w)
    refl_count = len(c_t(w))
    lw = length(w)
    if smooth:
        order = construct_compatible_order(w)
        return SmoothnessReport(
            window=w,
            smooth=True,
            length=lw,
            reflections_below=refl_count,
            pattern_name=None,
            pattern_positions=None,
            order=order,
            verification=verify_order(w, order),
        )
    name, positions = smoothness_witness(w)
    return SmoothnessReport(
        window=w,
        smooth=False,
        length=lw,
        reflections_below=refl_count,
        pattern_name=name,
        pattern_positions=positions,
        order=None,
        verification=None,
    )
