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
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bruhat
from .admissible import (
    AdmissibleSet,
    _drop_first_index,
    c23,
    c_t,
    find_wedges,
    invert_set,
    is_smooth_pattern,
    reflection_pairs,
    smoothness_witness,
)
from .ordering_engine import capped_orders, compile_pairs, is_compatible_order
from .permutations import (
    Transposition,
    Window,
    format_window,
    identity,
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


def compile_constraints(A: AdmissibleSet):
    """Precedence and betweenness constraints equivalent to is_compatible."""
    return compile_pairs(reflection_pairs(A))


def enumerate_compatible_orders(
    A: AdmissibleSet, max_reflections: int | None = DEFAULT_MAX_REFLECTIONS
) -> list[ReflectionOrder]:
    """All compatible arrangements; refused over max_reflections (None lifts it)."""
    return capped_orders(A.reflections, reflection_pairs(A), max_reflections)


def _wedge_walk(A: AdmissibleSet):
    """Yield (set, wedge, inverted) for each wedge step of the build.

    A set without a wedge is replaced by its inverse set, which has one;
    inverted says whether the current set is on the inverse side of A.
    """
    inverted = False
    while A.members:
        wedges = find_wedges(A)
        if not wedges:
            A = invert_set(A)
            inverted = not inverted
            wedges = find_wedges(A)
            if not wedges:
                raise ValueError("no wedge on either side; set is not admissible")
        i, j = wedges[0]
        yield A, (i, j), inverted
        A = _drop_first_index(A, i)


def construction_steps(A: AdmissibleSet):
    """Yield (set, wedge) for each wedge step of construct_for_set."""
    return ((B, wedge) for B, wedge, _ in _wedge_walk(A))


def construct_for_set(A: AdmissibleSet) -> ReflectionOrder:
    """A compatible arrangement for an admissible set, built wedge by wedge.

    With wedge (i, j) the block T(i, j), T(i, j-1), ..., T(i, i+1) comes
    after an arrangement for the restricted set.  A set without a wedge
    takes the reverse of its inverse set's arrangement, so a block found
    on the inverse side goes reversed, before the blocks found after it.
    """
    order: ReflectionOrder = ()
    for _, (i, j), inverted in reversed(list(_wedge_walk(A))):
        block = tuple((i, r) for r in range(j, i, -1))
        order = block[::-1] + order if inverted else order + block
    return order


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

    The arrangement must use exactly the reflections below w.  The
    prefix chain multiplies the arrangement left to right from the
    identity; the suffix chain does the same on the reversed word, so it
    ends at w^{-1} whenever the product comes out to w.
    """
    if frozenset(order) != c_t(w) or len(order) != len(set(order)):
        raise ValueError("arrangement does not match the reflections below w")
    prefix = [identity(len(w))]
    for t in order:
        prefix.append(times_transposition(prefix[-1], t))
    suffix = [identity(len(w))]
    for t in reversed(order):
        suffix.append(times_transposition(suffix[-1], t))
    product = prefix[-1]
    prefix_break = bruhat.first_noncover(prefix)
    suffix_break = bruhat.first_noncover(suffix)
    return VerificationReport(
        window=w,
        order=tuple(order),
        product=product,
        prefix_chain=tuple(prefix),
        suffix_chain=tuple(suffix),
        product_ok=product == w,
        prefix_saturated=prefix_break is None,
        suffix_saturated=suffix_break is None,
        prefix_first_break=prefix_break,
        suffix_first_break=suffix_break,
    )


def _disjoint(a: Transposition, b: Transposition) -> bool:
    return not set(a) & set(b)


def _triangle_middle(a: Transposition, m: Transposition, b: Transposition) -> bool:
    # True when {a, m, b} are the three reflections on three indices and
    # m is the one joining the smallest and largest.
    support = set(a) | set(m) | set(b)
    if len(support) != 3 or len({a, m, b}) != 3:
        return False
    return m == (min(support), max(support))


def _moves(order: ReflectionOrder):
    """Every arrangement one elementary move away, compatible or not.

    Moves: swap two adjacent disjoint reflections; reverse three
    consecutive reflections forming a triangle with the long one in the
    middle.  Distinct moves change different positions, so none repeats.
    """
    for p in range(len(order) - 1):
        if _disjoint(order[p], order[p + 1]):
            yield order[:p] + (order[p + 1], order[p]) + order[p + 2 :]
    for p in range(len(order) - 2):
        a, m, b = order[p : p + 3]
        if _triangle_middle(a, m, b):
            yield order[:p] + (b, m, a) + order[p + 3 :]


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
    A: AdmissibleSet, max_reflections: int | None = DEFAULT_MAX_REFLECTIONS
) -> str:
    """DOT source for the elementary-move graph with arrangements as labels."""
    vertices, edges = order_graph(A, max_reflections)
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
    """Is the elementary-move graph on compatible arrangements connected?

    Merges order_graph's edges in a union-find forest and counts roots.
    """
    vertices, edges = order_graph(A, max_reflections)
    root = list(range(len(vertices)))

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
