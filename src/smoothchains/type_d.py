"""Root system, signed permutations, and the order conjecture in type D.

Roots live in Z^n as coefficient tuples over e_1..e_n.  The positive
roots are e_j - e_i and e_j + e_i for j > i; the simple roots are the
consecutive differences together with e_2 + e_1.  Group elements are
signed windows: w = (w(1), ..., w(n)) with w(i) = +-k meaning that w
sends e_i to sign * e_k; an even number of entries are negative.

The conjecture under test: for smooth w (palindromic lower interval,
which in this simply laced type is smoothness), the set of reflections
and ordered two-reflection products below w is admissible, admits a
compatible arrangement of its reflections, and every compatible
arrangement multiplies back to w.  The summable root pairs of a set
(summable_pairs) are all this module hands ordering_engine, whose pair
rule is compatibility; the two pair axioms of admissibility are read
off the same pairs.  The product axiom is the same-decomposition rule:
t_a t_b and t_b t_a both in A force t_{a+b}.  (Type A's cycle-pair
axiom is the cross-decomposition rule; its type D analogue fails on
smooth elements of rank 4.)

check_element lists no arrangement: it folds the prefix products over
the sets of placed reflections (fold_orders).  Listing remains in
enumerate_compatible_orders_d, the reference for the fold.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .ordering_engine import capped_orders, fold_orders
from .permutations import compose, identity, length

Root = tuple[int, ...]
SignedWindow = tuple[int, ...]
Label = tuple  # ("t", alpha) | ("tt", alpha, beta)

MIN_RANK = 2  # type D starts at rank 2
RANK_LIMIT = 5  # fixed: no group past rank 5 is built, and no caller can raise it
CONJECTURE_MAX_REFLECTIONS = 12
# the product axiom admissibility_violation_d checks, named in reports
PRODUCT_PAIR_RULE = "same-decomposition orientations"


# ---------------------------------------------------------------- roots

def _root(n: int, i: int, j: int, sign: int) -> Root:
    """e_j + sign * e_i as a coefficient tuple over e_1..e_n (i < j)."""
    out = [0] * n
    out[j - 1], out[i - 1] = 1, sign
    return tuple(out)


def _check_rank(n: int) -> None:
    if n < MIN_RANK:
        raise ValueError(f"type D needs rank >= {MIN_RANK}, got {n}")


def _indices(alpha: Root) -> tuple[int, int, int]:
    """(i, j, sign) with alpha = e_j + sign * e_i and i < j; inverse of _root."""
    support = [(k, c) for k, c in enumerate(alpha, start=1) if c]
    if len(support) == 2 and support[0][1] in (1, -1) and support[1][1] == 1:
        (i, sign), (j, _) = support
        return i, j, sign
    raise ValueError(f"not a positive type D root: {alpha}")


@lru_cache(maxsize=None)
def positive_roots(n: int) -> tuple[Root, ...]:
    """e_j - e_i and e_j + e_i for j > i, sorted as coefficient tuples."""
    _check_rank(n)
    return tuple(sorted(
        _root(n, i, j, sign)
        for i, j in itertools.combinations(range(1, n + 1), 2)
        for sign in (-1, 1)
    ))


@lru_cache(maxsize=None)
def simple_roots(n: int) -> tuple[Root, ...]:
    """Consecutive differences plus e_2 + e_1, in that listing order."""
    _check_rank(n)
    return tuple(_root(n, j - 1, j, -1) for j in range(2, n + 1)) + (_root(n, 1, 2, 1),)


@lru_cache(maxsize=None)
def _positive_root_set(n: int) -> frozenset[Root]:
    return frozenset(positive_roots(n))


def tuple_add(a: Root, b: Root) -> Root:
    return tuple(x + y for x, y in zip(a, b))


def is_positive_root(alpha: Root) -> bool:
    return alpha in _positive_root_set(len(alpha))


def root_text(alpha: Root) -> str:
    """Symbolic form, e.g. "e3-e1" or "e2+e1".

    >>> root_text((-1, 0, 1))
    'e3-e1'
    """
    i, j, sign = _indices(alpha)
    return f"e{j}{'+' if sign == 1 else '-'}e{i}"


_ROOT_TEXT = re.compile(r"e(\d+)([+-])e(\d+)")


def parse_root(text: str, n: int) -> Root:
    """Inverse of root_text for degree n."""
    text = text.strip().replace(" ", "")
    match = _ROOT_TEXT.fullmatch(text)
    if match:
        j, i = int(match[1]), int(match[3])
        if 1 <= i < j <= n:
            return _root(n, i, j, 1 if match[2] == "+" else -1)
    raise ValueError(f"bad root text: {text!r}")


def root_poset_covers(n: int) -> tuple[tuple[Root, Root], ...]:
    """Pairs (alpha, alpha + s) with s simple and alpha + s positive, sorted."""
    pos = _positive_root_set(n)
    return tuple(sorted(
        (a, b)
        for a in positive_roots(n)
        for s in simple_roots(n)
        if (b := tuple_add(a, s)) in pos
    ))


def simple_rank(alpha: Root) -> int:
    """Comparison rank of a simple root: j for e_j - e_{j-1}, 2 for e_2 + e_1."""
    return _indices(alpha)[1]


# -------------------------------------------------------- signed windows

def validate_signed_window(w) -> SignedWindow:
    """Check the window is a signed permutation with evenly many sign flips."""
    win = tuple(int(v) for v in w)
    n = len(win)
    if sorted(abs(v) for v in win) != list(range(1, n + 1)) or 0 in win:
        raise ValueError(f"not a signed window: {win}")
    if sum(1 for v in win if v < 0) % 2:
        raise ValueError(f"odd number of sign flips: {win}")
    return win


def sp_parse(text: str) -> SignedWindow:
    """Comma-separated signed integers, e.g. "-2,-1,3"."""
    try:
        values = [int(part) for part in text.strip().split(",")]
    except ValueError:
        raise ValueError(f"bad signed window text: {text!r}") from None
    return validate_signed_window(values)


def sp_text(w: SignedWindow) -> str:
    return ",".join(str(v) for v in w)


def reflection_window(alpha: Root, n: int) -> SignedWindow:
    """t_alpha as a signed window.

    For e_j - e_i this swaps coordinates i and j; for e_j + e_i it swaps
    them and flips both signs.
    """
    i, j, sign = _indices(alpha)
    out = list(range(1, n + 1))
    out[i - 1], out[j - 1] = -sign * j, -sign * i
    return tuple(out)


# ------------------------------------------------------- the Weyl group

class WeylGroupD:
    """The full type D Weyl group with Bruhat order bitsets.

    The 2^(n-1) n! signed windows with evenly many sign flips are listed
    sorted by (length, window), lengths by permutations.length; ids
    index that listing.  Bruhat order is generated by the steps
    w * t < w with w * t shorter, over reflections t.  w * t never has
    w's length, so with ids in length order, w * t is shorter iff its
    id is smaller: the downset bitmask of w is its own bit OR those of
    its reflection neighbours with smaller ids, in one pass over ids.
    """

    def __init__(self, rank: int):
        _check_rank(rank)
        if rank > RANK_LIMIT:
            raise ValueError(
                f"rank {rank} exceeds the group-size limit {RANK_LIMIT}"
            )
        self.rank = rank
        windows = (
            tuple(s * v for s, v in zip(signs, perm))
            for perm in itertools.permutations(range(1, rank + 1))
            for signs in itertools.product((1, -1), repeat=rank)
            if signs.count(-1) % 2 == 0
        )
        ranked = sorted((length(w), w) for w in windows)
        self.lengths, self.windows = zip(*ranked)
        self.index: dict[SignedWindow, int] = {w: i for i, w in enumerate(self.windows)}
        self.max_length = max(self.lengths)

        self._reflections = [reflection_window(a, rank) for a in positive_roots(rank)]
        below = []
        for j, w in enumerate(self.windows):
            mask = 1 << j
            for t in self._reflections:
                i = self.index[compose(w, t)]
                if i < j:
                    mask |= below[i]
            below.append(mask)
        self.below: tuple[int, ...] = tuple(below)
        # ids are sorted by length, so length d owns the id range [start, end)
        starts = [bisect_left(self.lengths, d) for d in range(self.max_length + 2)]
        self._level_masks: tuple[int, ...] = tuple(
            (1 << end) - (1 << start) for start, end in zip(starts, starts[1:])
        )

    def __len__(self) -> int:
        return len(self.windows)

    @cached_property
    def label_ids(self) -> dict[Label, int]:
        """The element id realizing each label of c23_labels.

        Realization is checked injective, so ordered products are honest
        set members, not aliases of other labels.
        """
        ids: dict[Label, int] = {}
        label_at: dict[int, Label] = {}
        for lab in c23_labels(self.rank):
            i = ids[lab] = self.index[realize_label(lab, self.rank)]
            if label_at.setdefault(i, lab) != lab:
                raise AssertionError(f"realization collision between {label_at[i]} and {lab}")
        return ids

    def length_of(self, w: SignedWindow) -> int:
        return self.lengths[self.index[w]]

    def leq(self, x: SignedWindow, y: SignedWindow) -> bool:
        """x <= y in Bruhat order."""
        return bool(self.below[self.index[y]] >> self.index[x] & 1)

    def cover_pairs(self) -> list[tuple[SignedWindow, SignedWindow]]:
        """The Bruhat covers (w * t, w) with w * t one shorter than w."""
        return [
            (x, w)
            for w, lw in zip(self.windows, self.lengths)
            for t in self._reflections
            if self.length_of(x := compose(w, t)) == lw - 1
        ]

    def interval_rank_counts(self, w: SignedWindow) -> tuple[int, ...]:
        """Sizes of the length-graded pieces of [e, w]."""
        mask = self.below[self.index[w]]
        top = self.length_of(w)
        return tuple(
            (mask & self._level_masks[d]).bit_count() for d in range(top + 1)
        )

    def is_smooth(self, w: SignedWindow) -> bool:
        """Palindromic lower interval; smoothness in this simply laced type."""
        counts = self.interval_rank_counts(w)
        return counts == counts[::-1]


@lru_cache(maxsize=None)
def weyl_group(rank: int) -> WeylGroupD:
    return WeylGroupD(rank)


def smooth_elements(rank: int) -> list[SignedWindow]:
    """The smooth elements of the rank-n group, by group id."""
    group = weyl_group(rank)
    return [w for w in group.windows if group.is_smooth(w)]


# ------------------------------------------- ground set and admissibility

@lru_cache(maxsize=None)
def c23_labels(n: int) -> tuple[Label, ...]:
    """Reflections and ordered summable reflection products, sorted.

    Labels are ("t", alpha) and ("tt", alpha, beta) with alpha + beta a
    positive root.  WeylGroupD.label_ids checks that realization is
    injective.
    """
    pos = positive_roots(n)
    pos_set = _positive_root_set(n)
    labels: list[Label] = [("t", a) for a in pos]
    for a in pos:
        for b in pos:
            if a != b and tuple_add(a, b) in pos_set:
                labels.append(("tt", a, b))
    return tuple(sorted(labels))


def realize_label(label: Label, n: int) -> SignedWindow:
    kind = label[0]
    if kind == "t":
        return reflection_window(label[1], n)
    if kind == "tt":
        return compose(reflection_window(label[1], n), reflection_window(label[2], n))
    raise ValueError(f"bad label: {label!r}")


def label_text(label: Label) -> str:
    if label[0] == "t":
        return f"t[{root_text(label[1])}]"
    return f"t[{root_text(label[1])}]t[{root_text(label[2])}]"


def c23_below(group: WeylGroupD, w: SignedWindow) -> frozenset[Label]:
    """Labels whose realization lies below w in Bruhat order."""
    mask = group.below[group.index[w]]
    return frozenset(lab for lab, i in group.label_ids.items() if mask >> i & 1)


@dataclass(frozen=True)
class AdmissibilityViolationD:
    axiom: str  # "closure" | "product-pair" | "reflection-pair"
    witness: tuple

    def describe(self) -> str:
        parts = ", ".join(label_text(lab) for lab in self.witness)
        return f"axiom {self.axiom} fails at {parts}"


def admissibility_violation_d(
    group: WeylGroupD, A: frozenset[Label]
) -> AdmissibilityViolationD | None:
    """First failed axiom of the conjectured admissibility, or None.

    After closure, both pair axioms are read off summable_pairs: a pair
    with both orientations t_a t_b, t_b t_a in A but not t_{a+b} fails
    product-pair, and a pair with neither orientation fails
    reflection-pair.  Closure puts t_a and t_b in A whenever t_a t_b is
    there, so every product in A belongs to a listed pair.
    """
    ids = group.label_ids
    ground = sum(1 << i for i in ids.values())
    members = sum(1 << ids[lab] for lab in A)
    for lab in sorted(A):
        missing = group.below[ids[lab]] & ground & ~members
        if missing:
            culprit = min(x for x, i in ids.items() if missing >> i & 1)
            return AdmissibilityViolationD("closure", (lab, culprit))
    pairs = list(summable_pairs(A, group.rank))
    for a, b, mid, ab, ba in pairs:
        if ab and ba and mid is None:
            return AdmissibilityViolationD(
                "product-pair", (("tt", a, b), ("tt", b, a), ("t", tuple_add(a, b)))
            )
    for a, b, _, ab, ba in pairs:
        if not ab and not ba:
            return AdmissibilityViolationD("reflection-pair", (("t", a), ("t", b)))
    return None


# ------------------------------------------------- compatible arrangements

def reflection_roots(A: frozenset[Label]) -> tuple[Root, ...]:
    return tuple(sorted(lab[1] for lab in A if lab[0] == "t"))


def summable_pairs(A: frozenset[Label], n: int):
    """The summable pairs of A for the pair rule in ordering_engine.

    Yields (a, b, a + b or None, t_a t_b in A, t_b t_a in A) for each
    pair of reflection roots of A, in combinations order, whose sum is
    a positive root; the sum is given when its reflection is a member.
    """
    pos_set = _positive_root_set(n)
    for a, b in itertools.combinations(reflection_roots(A), 2):
        gamma = tuple_add(a, b)
        if gamma in pos_set:
            yield (
                a,
                b,
                gamma if ("t", gamma) in A else None,
                ("tt", a, b) in A,
                ("tt", b, a) in A,
            )


def enumerate_compatible_orders_d(
    A: frozenset[Label],
    n: int,
    max_reflections: int | None = CONJECTURE_MAX_REFLECTIONS,
) -> list[tuple[Root, ...]]:
    return capped_orders(reflection_roots(A), summable_pairs(A, n), max_reflections)


def product_of_root_order(order: tuple[Root, ...], n: int) -> SignedWindow:
    out = identity(n)
    for alpha in order:
        out = compose(out, reflection_window(alpha, n))
    return out


# ------------------------------------------------------- conjecture runs

@dataclass(frozen=True)
class ConjectureElementReport:
    window: SignedWindow
    length: int
    reflections: int
    admissible: bool
    admissibility_note: str | None
    orders_found: int
    products_ok: bool

    @property
    def ok(self) -> bool:
        return self.admissible and self.orders_found > 0 and self.products_ok

    def to_dict(self) -> dict:
        return {
            "window": sp_text(self.window),
            "length": self.length,
            "reflections": self.reflections,
            "admissible": self.admissible,
            "admissibility_note": self.admissibility_note,
            "orders_found": self.orders_found,
            "products_ok": self.products_ok,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class ConjectureReport:
    rank: int
    group_size: int
    smooth_count: int
    checked: int
    simple_order: tuple[str, ...]
    product_pair_rule: str
    elements: tuple[ConjectureElementReport, ...]
    counterexamples: tuple[SignedWindow, ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "group_size": self.group_size,
            "smooth_count": self.smooth_count,
            "checked": self.checked,
            "simple_order": list(self.simple_order),
            "product_pair_rule": self.product_pair_rule,
            "elements": [e.to_dict() for e in self.elements],
            "counterexamples": [sp_text(w) for w in self.counterexamples],
            "ok": self.ok,
        }


def simple_order_config(n: int) -> tuple[str, ...]:
    """Human-readable listing of the simple-root comparison ranks."""
    return tuple(
        f"{root_text(a)} rank {simple_rank(a)}" for a in simple_roots(n)
    )


def check_element(
    group: WeylGroupD,
    w: SignedWindow,
    max_reflections: int | None = CONJECTURE_MAX_REFLECTIONS,
) -> ConjectureElementReport:
    """Run the three conjecture checks for one smooth element.

    fold_orders gives the product of every compatible order without
    listing them; its cap and refusal are enumerate_compatible_orders_d's.
    """
    n = group.rank
    A = c23_below(group, w)
    violation = admissibility_violation_d(group, A)
    admissible = violation is None
    roots = reflection_roots(A)
    # t_alpha for each member root, built once per element
    t = {alpha: product_of_root_order((alpha,), n) for alpha in roots}
    products = fold_orders(
        roots,
        summable_pairs(A, n),
        max_reflections,
        lambda x, alpha: compose(x, t[alpha]),
        identity(n),
    )
    return ConjectureElementReport(
        window=w,
        length=group.length_of(w),
        reflections=len(roots),
        admissible=admissible,
        admissibility_note=None if admissible else violation.describe(),
        orders_found=sum(products.values()),
        products_ok=all(x == w for x in products),
    )


def verify_conjecture_d(
    rank: int,
    max_reflections: int | None = CONJECTURE_MAX_REFLECTIONS,
) -> ConjectureReport:
    """Check the conjecture on every smooth element of the rank-n group."""
    group = weyl_group(rank)
    smooth = smooth_elements(rank)
    elements = [check_element(group, w, max_reflections) for w in smooth]
    counterexamples = tuple(e.window for e in elements if not e.ok)
    return ConjectureReport(
        rank=rank,
        group_size=len(group),
        smooth_count=len(smooth),
        checked=len(elements),
        simple_order=simple_order_config(rank),
        product_pair_rule=PRODUCT_PAIR_RULE,
        elements=tuple(elements),
        counterexamples=counterexamples,
    )


# ------------------------------------------------------ type A embedding

def embed_window(w: tuple[int, ...]) -> SignedWindow:
    """A permutation window as a signed window with no sign flips."""
    return validate_signed_window(w)
