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
every compatible arrangement without listing any, through the chain
fold of ordering_engine (chain_verdicts).  verify_order reads both
chains of one arrangement in one forward walk on x and z = w^{-1} x,
which gives the suffix chain's verdict when the product is w, and
resumes from the arrangement it verified last when that was for the
same w: consecutive arrangements of a listing share most of their
prefix, so a caller that verifies a listing in order walks only the
steps past each shared prefix.  The elementary-move graph on the
compatible arrangements is ordering_engine's move graph: this module
supplies only the pairs and the commute rule, disjoint reflections
(_disjoint), which is orthogonality of their roots.

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
    Verdict,
    capped_orders,
    chain_verdicts,
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

# The last walk verify_order completed, one tuple of immutable parts:
# (w, swap_covers, reflection_bounds(w), order, x, z, prefix break,
# forward steps whose z test failed), with x and z the windows after the
# whole order.  It is read once and replaced whole, so threads may share
# it: a call resumes from some completed walk on the same key.
_last_walk = None


def verify_order(w: Window, order: ReflectionOrder) -> VerificationReport:
    """Check the product identity and both saturated chains.

    The arrangement must use exactly the reflections below w, each once;
    membership is read off bruhat.reflection_bounds, so c_t(w) is not
    built.  The prefix chain multiplies the arrangement left to right
    from the identity; the suffix chain does the same on the reversed
    word, so it ends at w^{-1} whenever the product comes out to w.
    Each step is decided by the step-cover rule of the module
    docstring, through bruhat.swap_covers as read once at the call.

    Both chains are read in one forward walk on x and z = w^{-1} x, as
    order_verdicts does: step k tests x covered by x * t_k, swaps
    positions of both, then tests z covered by z * t_k.  When the
    product is w, that z test is the suffix chain's step m + 1 - k, so
    the suffix's first break is m + 1 - (the last step whose z test
    failed); when it is not, the suffix is walked on the reversed word.

    _last_walk keeps the last completed walk, keyed by (w, the
    swap_covers object).  A call on the same key undoes the old
    order's swaps past the prefix the two orders share, keeps the
    verdicts inside that prefix, and walks only the new steps.  That
    helps only calls that follow each other on one window, such as a
    listing verified in order: 97.7% of the calls in the a6-orders
    benchmark, none in a8-theorem.  The input checks run on the whole
    arrangement every call, and _last_walk is replaced whole only once
    a walk completes, so a raising swap_covers leaves nothing stale.
    The report builds the chains themselves when they are read.
    """
    global _last_walk
    n = len(w)
    key = tuple(w)  # the slot keeps no list a caller may change
    order = tuple(order)
    covers = bruhat.swap_covers
    last = _last_walk
    if last is not None and last[0] == key and last[1] is covers:
        _, _, bounds, walked, x, z, prefix_break, z_breaks = last
        x, z, z_breaks = list(x), list(z), list(z_breaks)
    else:
        bounds = bruhat.reflection_bounds(w)
        walked, x, z, prefix_break, z_breaks = (), list(range(1, n + 1)), [0] * n, None, []
        for p, v in enumerate(key, start=1):  # z = w^{-1}, built as the list it is walked on
            z[v - 1] = p
    m = len(order)
    # |c_t(w)|: entry i of bounds admits j = i+1..entry
    if len(set(order)) != m or m != sum(bounds) - n * (n + 1) // 2:
        raise ValueError(_MISMATCH)
    for i, j in order:
        if not 1 <= i < j <= n or j > bounds[i - 1]:
            raise ValueError(_MISMATCH)
    shared = 0
    for s, t in zip(walked, order):
        if s != t:
            break
        shared += 1
    for i, j in reversed(walked[shared:]):  # each swap is its own inverse
        x[i - 1], x[j - 1] = x[j - 1], x[i - 1]
        z[i - 1], z[j - 1] = z[j - 1], z[i - 1]
    if prefix_break is not None and prefix_break > shared:
        prefix_break = None
    while z_breaks and z_breaks[-1] > shared:
        z_breaks.pop()
    for k, (i, j) in enumerate(order[shared:], start=shared + 1):
        if prefix_break is None and not covers(x, i, j):
            prefix_break = k
        x[i - 1], x[j - 1] = x[j - 1], x[i - 1]
        z[i - 1], z[j - 1] = z[j - 1], z[i - 1]
        if not covers(z, i, j):
            z_breaks.append(k)
    product = tuple(x)
    if product != w:
        _, suffix_break = _walk(n, order[::-1], covers)
    else:
        suffix_break = m + 1 - z_breaks[-1] if z_breaks else None
    _last_walk = (key, covers, bounds, order, product, tuple(z), prefix_break, tuple(z_breaks))
    return VerificationReport(
        w, order, product, product == w, prefix_break is None,
        suffix_break is None, prefix_break, suffix_break,
    )


def order_verdicts(
    w: Window, max_reflections: int | None = DEFAULT_MAX_REFLECTIONS
) -> Counter[Verdict]:
    """How many compatible arrangements of c23(w) get each Verdict.

    ordering_engine.chain_verdicts on windows, with bruhat.swap_covers
    as read at the call; verify_order's verdicts whenever the product
    is w.  Refused over max_reflections as enumerate_compatible_orders
    is.
    """
    covers = bruhat.swap_covers
    A = c23(w)
    return chain_verdicts(
        A.reflections, reflection_pairs(A), max_reflections, times_transposition,
        lambda x, t: covers(x, *t), identity(len(w)), inverse(w), w,
    )


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
    return s[0] not in t and s[1] not in t


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
