"""Reflections, 3-cycles, and admissible sets below a permutation.

The ground set of degree n collects the transpositions T(i, j) together
with the two families of 3-cycles on indices i < j < k:

    R(i, j, k) = T(i, j) * T(j, k)   (sends i -> j -> k -> i)
    L(i, j, k) = T(j, k) * T(i, j)   (sends i -> k -> j -> i)

An element is stored as a label tuple ("T", i, j), ("R", i, j, k) or
("L", i, j, k).  A set A of such labels is admissible when

  (a) it is downward closed under Bruhat order inside the ground set,
  (b) R(i, j, l) in A and L(i, k, l) in A force T(i, l) in A, and
  (c) T(i, j) in A and T(j, k) in A force R(i, j, k) or L(i, j, k) in A.

For smooth w the set of ground elements below w is admissible; the wedge
and restriction machinery here drives the recursive construction of a
compatible reflection order in the orders module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

from . import bruhat
from .permutations import (
    Transposition,
    Window,
    contains_pattern,
    inverse,
    length,
    mu,
    pattern_witness,
    transposition_window,
)

Element = tuple  # ("T", i, j) | ("R", i, j, k) | ("L", i, j, k)

_KINDS = ("T", "R", "L")


def validate_element(elem: Element, degree: int | None = None) -> Element:
    """Check label shape and index bounds; return the element."""
    if not isinstance(elem, tuple) or not elem or elem[0] not in _KINDS:
        raise ValueError(f"bad element label: {elem!r}")
    kind, *idx = elem
    want = 2 if kind == "T" else 3
    if len(idx) != want or any(not isinstance(v, int) for v in idx):
        raise ValueError(f"bad element label: {elem!r}")
    if not all(a < b for a, b in zip(idx, idx[1:])) or idx[0] < 1:
        raise ValueError(f"element indices must increase: {elem!r}")
    if degree is not None and idx[-1] > degree:
        raise ValueError(f"element {elem!r} does not fit in degree {degree}")
    return elem


def element_sort_key(elem: Element):
    """Reflections first by indices, then cycles by indices with R before L."""
    kind, *idx = elem
    if kind == "T":
        return (0, tuple(idx), 0)
    return (1, tuple(idx), 0 if kind == "R" else 1)


def format_element(elem: Element) -> str:
    """Text form, e.g. "T(1,3)" or "R(1,2,4)".

    >>> format_element(("R", 1, 2, 4))
    'R(1,2,4)'
    """
    kind, *idx = validate_element(elem)
    return f"{kind}({','.join(str(v) for v in idx)})"


def parse_element(text: str) -> Element:
    """Inverse of format_element.

    >>> parse_element("T(1,3)")
    ('T', 1, 3)
    """
    text = text.strip()
    if len(text) < 4 or text[0] not in _KINDS or text[1] != "(" or text[-1] != ")":
        raise ValueError(f"bad element text: {text!r}")
    try:
        idx = [int(part) for part in text[2:-1].split(",")]
    except ValueError:
        raise ValueError(f"bad element text: {text!r}") from None
    return validate_element((text[0], *idx))


_INVERSE_KIND = {"T": "T", "R": "L", "L": "R"}


def realize(elem: Element, n: int) -> Window:
    """The element as a window of degree n."""
    validate_element(elem, n)
    kind, *idx = elem
    if kind == "T":
        return transposition_window(n, *idx)
    i, j, k = idx
    out = list(range(1, n + 1))
    if kind == "R":
        out[i - 1], out[j - 1], out[k - 1] = j, k, i
    else:
        out[i - 1], out[j - 1], out[k - 1] = k, i, j
    return tuple(out)


@lru_cache(maxsize=None)
def all_elements23(n: int) -> tuple[Element, ...]:
    """The degree-n ground set, in display order."""
    elems: list[Element] = [("T", i, j) for i, j in itertools.combinations(range(1, n + 1), 2)]
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        elems.append(("R", i, j, k))
        elems.append(("L", i, j, k))
    return tuple(sorted(elems, key=element_sort_key))


@lru_cache(maxsize=None)
def _below_within_ground(n: int) -> dict[Element, frozenset[Element]]:
    # For each ground element, the ground elements weakly below it.
    return {e: c23(realize(e, n)).members for e in all_elements23(n)}


def element23_leq(elem: Element, w: Window) -> bool:
    """Is the realized element below w in Bruhat order?"""
    return validate_element(elem, len(w)) in c23(w).members


@dataclass(frozen=True)
class AdmissibleSet:
    """A set of ground elements of a fixed degree (admissibility not implied)."""

    degree: int
    members: frozenset

    def __contains__(self, elem: Element) -> bool:
        return elem in self.members

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def reflections(self) -> frozenset[Transposition]:
        """Index pairs (i, j) with T(i, j) a member."""
        return frozenset((e[1], e[2]) for e in self.members if e[0] == "T")

    def sorted_members(self) -> list[Element]:
        return sorted(self.members, key=element_sort_key)

    def member_texts(self) -> list[str]:
        return [format_element(e) for e in self.sorted_members()]


def make_set(degree: int, members: Iterable[Element]) -> AdmissibleSet:
    """Build an AdmissibleSet after validating every label against the degree."""
    mem = frozenset(members)
    for e in mem:
        validate_element(e, degree)
    return AdmissibleSet(degree=degree, members=mem)


def invert_set(A: AdmissibleSet) -> AdmissibleSet:
    """Member-wise inverse; the ground set below w^{-1} when A is the one below w."""
    # no re-validation: sets come from make_set (validated), c23, restrict, invert_set
    inverted = frozenset((_INVERSE_KIND[e[0]], *e[1:]) for e in A.members)
    return AdmissibleSet(A.degree, inverted)


def c_t(w: Window) -> frozenset[Transposition]:
    """Transpositions below w in Bruhat order, from running maxima.

    T(i, j) <= w iff j <= min(mu(w)[i], mu(w^{-1})[i]) (1-based), the
    bound bruhat.reflection_bounds gives, so each i contributes a range.
    """
    return frozenset(
        (i, j)
        for i, top in enumerate(bruhat.reflection_bounds(w), start=1)
        for j in range(i + 1, top + 1)
    )


def c23(w: Window) -> AdmissibleSet:
    """All ground elements below w in Bruhat order, from running maxima.

    Reflections are c_t(w).  R(i, j, k) exceeds the identity's rank matrix
    (rows p, columns q) by one exactly on [i, j-1] x (i, j] and
    [j, k-1] x (i, k] (Fulton, Duke Math. J. 1992; Bjorner-Brenti, Thm 2.1.5).
    A cell p < q there needs max w(1..p) >= q, a cell p >= q needs
    max w^{-1}(1..q-1) > p; both maxima grow with their index, so the
    corners decide: with (a, b) = (mu(w), mu(w^{-1})) and 1-based indices,
    R(i, j, k) <= w iff j <= a[i] and k <= min(a[j], b[i]): one range of k
    per j < b[i].  L(i, j, k) <= w iff R(i, j, k) <= w^{-1} (a, b swapped).
    """
    m, mi = mu(w), mu(inverse(w))
    members = [("T", i, j) for i, j in c_t(w)]
    for kind, a, b in (("R", m, mi), ("L", mi, m)):
        members += [
            (kind, i, j, k) for i in range(1, len(w) + 1)
            for j in range(i + 1, min(a[i - 1], b[i - 1] - 1) + 1)
            for k in range(j + 1, min(a[j - 1], b[i - 1]) + 1)
        ]
    return AdmissibleSet(len(w), frozenset(members))


def is_smooth_pattern(w: Window) -> bool:
    """Smoothness by pattern avoidance of 3412 and 4231."""
    return not contains_pattern(w, (3, 4, 1, 2)) and not contains_pattern(
        w, (4, 2, 3, 1)
    )


def is_smooth_length(w: Window) -> bool:
    """Smoothness by the count criterion: #reflections below w equals length."""
    return len(c_t(w)) == length(w)


def smoothness_witness(w: Window) -> tuple[str, tuple[int, ...]] | None:
    """A forbidden pattern occurrence for non-smooth w, else None.

    Returns ("3412" | "4231", positions), preferring a 3412 occurrence.
    """
    for name, pat in (("3412", (3, 4, 1, 2)), ("4231", (4, 2, 3, 1))):
        hit = pattern_witness(w, pat)
        if hit is not None:
            return (name, hit)
    return None


def reflection_pairs(A: AdmissibleSet):
    """The summable pairs of A for the pair rule in ordering_engine.

    Yields (T(i, j), T(j, k), T(i, k) or None, R(i, j, k) in A,
    L(i, j, k) in A) as index pairs, for i < j < k with T(i, j) and
    T(j, k) members, in lexicographic order of (i, j) and then k.
    """
    refls = A.reflections
    for (i, j) in sorted(refls):
        for k in range(j + 1, A.degree + 1):
            if (j, k) in refls:
                yield (
                    (i, j),
                    (j, k),
                    (i, k) if (i, k) in refls else None,
                    ("R", i, j, k) in A.members,
                    ("L", i, j, k) in A.members,
                )


@dataclass(frozen=True)
class AdmissibilityViolation:
    axiom: str  # "closure" | "cycle-pair" | "reflection-pair"
    witness: tuple

    def describe(self) -> str:
        parts = ", ".join(format_element(e) for e in self.witness)
        return f"axiom {self.axiom} fails at {parts}"


def admissibility_violation(A: AdmissibleSet) -> AdmissibilityViolation | None:
    """First failed admissibility axiom, or None when A is admissible."""
    below = _below_within_ground(A.degree)
    for e in A.sorted_members():
        missing = below[e] - A.members
        if missing:
            culprit = min(missing, key=element_sort_key)
            return AdmissibilityViolation("closure", (e, culprit))
    # (b): an R and an L sharing outer indices force the long reflection.
    r_outer = {}
    l_outer = {}
    for e in A.sorted_members():
        if e[0] == "R":
            r_outer.setdefault((e[1], e[3]), e)
        elif e[0] == "L":
            l_outer.setdefault((e[1], e[3]), e)
    for (i, l), r_elem in sorted(r_outer.items()):
        if (i, l) in l_outer and ("T", i, l) not in A.members:
            return AdmissibilityViolation(
                "cycle-pair", (r_elem, l_outer[(i, l)], ("T", i, l))
            )
    # (c): chained reflections force one of the two 3-cycles.
    for a, b, _, ab, ba in reflection_pairs(A):
        if not ab and not ba:
            return AdmissibilityViolation("reflection-pair", (("T", *a), ("T", *b)))
    return None


def is_admissible(A: AdmissibleSet) -> bool:
    return admissibility_violation(A) is None


def find_wedges(A: AdmissibleSet) -> tuple[Transposition, ...]:
    """Index pairs (i, j) that are wedges of A, lexicographically.

    (i, j) is a wedge when T(i, j) is a member, T(i-1, i) is not (vacuous
    for i = 1), and R(i, j, j+1) is not (vacuous for j = degree).
    """
    return tuple(_wedges(A, sorted(A.reflections), 0, "R"))


def _wedges(A: AdmissibleSet, refls, dropped: int, side: str):
    """Wedges, in order, of A less the members whose first index is a bit of
    dropped; on side "L" of its inverse set, whose R(i, j, j+1) is A's
    L(i, j, j+1).  refls is sorted(A.reflections)."""
    members = A.members
    for (i, j) in refls:
        if dropped >> i & 1:
            continue
        if i > 1 and not dropped >> (i - 1) & 1 and ("T", i - 1, i) in members:
            continue
        if j < A.degree and (side, i, j, j + 1) in members:
            continue
        yield (i, j)


def restrict(A: AdmissibleSet, wedge: Transposition) -> AdmissibleSet:
    """Drop every member whose first index is the wedge's lower index.

    This is the recursion step of the order construction: with wedge
    (i, j), all of T(i, r), R(i, r, l), L(i, r, l) leave the set.
    """
    if wedge not in find_wedges(A):
        raise ValueError(f"{wedge} is not a wedge of the set")
    return AdmissibleSet(A.degree, frozenset(e for e in A.members if e[1] != wedge[0]))


def wedge_window_test(w: Window, i: int, j: int) -> bool:
    """Window-level wedge test for the full set below w.

    (i, j) is a wedge of c23(w) iff w maps {1..i-1} onto itself,
    w(i) >= j, and w^{-1}(i) = j.
    """
    n = len(w)
    if not 1 <= i < j <= n:
        raise ValueError(f"bad wedge indices ({i}, {j}) for degree {n}")
    if set(w[: i - 1]) != set(range(1, i)):
        return False
    return w[i - 1] >= j and inverse(w)[i - 1] == j
