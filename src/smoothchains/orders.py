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
and enumerates all compatible arrangements.  order_verdicts checks
every compatible arrangement without listing any, by folding both
chains over the sets of placed reflections.  The elementary-move graph
on them is ordering_engine's move graph: this module supplies only the
pairs and the commute rule, disjoint reflections (_disjoint), which is
orthogonality of their roots.

Every chain step is a right product x -> x * T(i, j) with i < j, which
swaps positions i and j of the window.  The step-cover rule: x is
covered by x * T(i, j) iff x(i) < x(j) and no position strictly
between i and j holds a value strictly between x(i) and x(j)
(Bjorner-Brenti, Combinatorics of Coxeter Groups, Lemma 2.1.4).  So a
step is decided from positions i..j of x, without comparing windows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from . import bruhat, ordering_engine
from .admissible import (
    AdmissibleSet,
    _wedges,
    c23,
    c_t,
    is_smooth_pattern,
    reflection_pairs,
    smoothness_witness,
)
from .ordering_engine import (
    capped_orders,
    fold_orders,
    is_compatible_order,
    move_edges,
    moves,
)
from .permutations import (
    Transposition,
    Window,
    format_window,
    identity,
    inverse,
    length,
    times_transposition,
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


class Verdict(NamedTuple):
    """The three checks of one arrangement against one window."""

    product_ok: bool
    prefix_saturated: bool
    suffix_saturated: bool


@dataclass(frozen=True)
class VerificationReport:
    """Product and chain checks for one arrangement against one window.

    The chains are built from the order when first read.
    """

    window: Window
    order: ReflectionOrder
    product: Window
    product_ok: bool
    prefix_saturated: bool
    suffix_saturated: bool
    prefix_first_break: int | None
    suffix_first_break: int | None

    @cached_property
    def prefix_chain(self) -> tuple[Window, ...]:
        """e, e * t1, e * t1 * t2, ... along the order."""
        return _chain(len(self.window), self.order)

    @cached_property
    def suffix_chain(self) -> tuple[Window, ...]:
        """The prefix chain of the reversed order."""
        return _chain(len(self.window), self.order[::-1])

    @property
    def verdict(self) -> Verdict:
        return Verdict(self.product_ok, self.prefix_saturated, self.suffix_saturated)

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


_MISMATCH = "arrangement does not match the reflections below w"


def verify_order(w: Window, order: ReflectionOrder) -> VerificationReport:
    """Check the product identity and both saturated chains.

    The arrangement must use exactly the reflections below w, each once;
    membership is read off bruhat.reflection_bounds, so c_t(w) is not
    built.  The prefix chain multiplies the arrangement left to right
    from the identity; the suffix chain does the same on the reversed
    word, so it ends at w^{-1} whenever the product comes out to w.
    Each step is decided by the step-cover rule of the module
    docstring.  Each chain is walked in place on one list, keeping
    only its end and first break; the report builds the chains
    themselves when they are read.
    """
    n = len(w)
    bounds = bruhat.reflection_bounds(w)
    order = tuple(order)
    # |c_t(w)|: entry i of bounds admits j = i+1..entry
    if len(set(order)) != len(order) or len(order) != sum(bounds) - n * (n + 1) // 2:
        raise ValueError(_MISMATCH)
    for i, j in order:
        if not 1 <= i < j <= n or j > bounds[i - 1]:
            raise ValueError(_MISMATCH)
    covers = bruhat.swap_covers
    product, prefix_break = _walk(n, order, covers)
    _, suffix_break = _walk(n, order[::-1], covers)
    return VerificationReport(
        window=w,
        order=order,
        product=product,
        product_ok=product == w,
        prefix_saturated=prefix_break is None,
        suffix_saturated=suffix_break is None,
        prefix_first_break=prefix_break,
        suffix_first_break=suffix_break,
    )


def order_verdicts(
    w: Window, max_reflections: int | None = DEFAULT_MAX_REFLECTIONS
) -> Counter[Verdict]:
    """How many compatible arrangements of c23(w) get each Verdict.

    No arrangement is listed: fold_orders carries (x, z, prefix_ok,
    suffix_ok) from (e, w^{-1}, True, True), with x the prefix product
    and z = w^{-1} x.  A step by T(i, j) checks x * T(i, j) covers x,
    swaps positions i and j of both x and z, then checks z * T(i, j)
    covers the new z: that is the suffix chain's step, read from its
    far end.  So the verdicts are verify_order's whenever the product
    is w; when it is not, suffix_saturated is read along w^{-1} x.
    Refused over max_reflections as enumerate_compatible_orders is.
    """

    def step(state, t):
        x, z, prefix_ok, suffix_ok = state
        prefix_ok = prefix_ok and bruhat.swap_covers(x, *t)
        x, z = times_transposition(x, t), times_transposition(z, t)
        return x, z, prefix_ok, suffix_ok and bruhat.swap_covers(z, *t)

    A = c23(w)
    start = (identity(len(w)), inverse(w), True, True)
    folded = fold_orders(A.reflections, reflection_pairs(A), max_reflections, step, start)
    verdicts: Counter[Verdict] = Counter()
    for (x, _, prefix_ok, suffix_ok), count in folded.items():
        verdicts[Verdict(x == w, prefix_ok, suffix_ok)] += count
    return verdicts


def _walk(n: int, steps: ReflectionOrder, covers) -> tuple[Window, int | None]:
    """The end e * t1 * t2 * ... of the chain and its first non-cover step.

    covers decides one step as bruhat.swap_covers does.  The step
    index is 1-based, None when every step is a cover.
    """
    x = list(range(1, n + 1))
    first_break = None
    for step, (i, j) in enumerate(steps, start=1):
        if first_break is None and not covers(x, i, j):
            first_break = step
        x[i - 1], x[j - 1] = x[j - 1], x[i - 1]
    return tuple(x), first_break


def _chain(n: int, steps: ReflectionOrder) -> tuple[Window, ...]:
    """The chain e, e * t1, e * t1 * t2, ... as windows."""
    x = list(range(1, n + 1))
    chain = [tuple(x)]
    for i, j in steps:
        x[i - 1], x[j - 1] = x[j - 1], x[i - 1]
        chain.append(tuple(x))
    return tuple(chain)


def elementary_neighbors(order: ReflectionOrder, A: AdmissibleSet) -> list[ReflectionOrder]:
    """Arrangements one elementary move away that stay compatible.

    The order, compatible or not, must arrange exactly A's reflections:
    the first is_compatible_order call raises ValueError otherwise.
    """
    pairs = list(reflection_pairs(A))
    is_compatible_order(order, A.reflections, pairs)
    return [
        u for u in moves(order, pairs, _disjoint)
        if is_compatible_order(u, A.reflections, pairs)
    ]


def order_graph(
    A: AdmissibleSet, max_reflections: int | None = DEFAULT_MAX_REFLECTIONS
) -> tuple[list[ReflectionOrder], list[tuple[int, int]]]:
    """Vertices (all compatible arrangements) and elementary-move edges.

    Only the DOT export needs the edges; connectivity stores none.
    """
    pairs = list(reflection_pairs(A))
    vertices = capped_orders(A.reflections, pairs, max_reflections)
    return vertices, move_edges(vertices, pairs, _disjoint)


def order_graph_dot(vertices: list[ReflectionOrder], edges: list[tuple[int, int]]) -> str:
    """DOT source for an order_graph, with arrangements as labels."""
    lines = ["graph orders {"]
    for v in vertices:
        lines.append(f'  "{order_text(v)}";')
    for i, j in edges:
        lines.append(f'  "{order_text(vertices[i])}" -- "{order_text(vertices[j])}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def connectivity(
    A: AdmissibleSet, max_reflections: int | None = DEFAULT_MAX_REFLECTIONS
) -> tuple[int, bool]:
    """How many compatible arrangements, and does the move graph join them?

    ordering_engine.connectivity on A's pairs, disjoint reflections
    commuting.  Refused over max_reflections as listing is.
    """
    return ordering_engine.connectivity(
        A.reflections, reflection_pairs(A), max_reflections, _disjoint
    )


def graph_connected(
    A: AdmissibleSet, max_reflections: int | None = DEFAULT_MAX_REFLECTIONS
) -> bool:
    """Is the elementary-move graph on compatible arrangements connected?

    The connectivity verdict alone, certified or searched as there.
    """
    return connectivity(A, max_reflections)[1]


def _disjoint(s: Transposition, t: Transposition) -> bool:
    """Do T(i, j) and T(k, l) move disjoint positions, so commute?"""
    return not set(s) & set(t)


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
            "order": None if self.order is None else [f"T({i},{j})" for i, j in self.order],
            "verification": self.verification.to_dict() if self.verification else None,
        }


def smoothness_report(w: Window) -> SmoothnessReport:
    """Decide smoothness and attach the certificate.

    Smooth windows get a constructed arrangement plus its verification;
    non-smooth ones get a forbidden-pattern occurrence and the strict
    excess of reflections below w over the length.
    """
    smooth = is_smooth_pattern(w)
    order = construct_compatible_order(w) if smooth else None
    name, positions = (None, None) if smooth else smoothness_witness(w)
    return SmoothnessReport(
        window=w,
        smooth=smooth,
        length=length(w),
        reflections_below=len(c_t(w)),
        pattern_name=name,
        pattern_positions=positions,
        order=order,
        verification=None if order is None else verify_order(w, order),
    )
