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
arrangement multiplies back to w while its prefixes walk a saturated
chain from e up to w and its suffixes one down from w, as in type A.
The summable root pairs of a set (columns_and_pairs, bit tests of its
id mask against a table built once per rank) are all this module hands
ordering_engine, whose pair rule is compatibility; the two pair axioms
of admissibility are read off the same pairs.  The product axiom is
the same-decomposition rule: t_a t_b and t_b t_a both in A force
t_{a+b}.  (Type A's cycle-pair axiom is the cross-decomposition rule;
its type D analogue fails on smooth elements of rank 4.)

check_element builds no label set and lists no arrangement: it reads
w's reflections, as columns of positive_roots, and their pairs off its
downset bitmask (columns_and_pairs), and gets the verdicts of every
compatible arrangement from ordering_engine.chain_verdicts on element
ids (times[x][column of alpha] is x * t_alpha).  A downset is closed,
so it tests only the pair axioms; admissibility_violation_d and
enumerate_compatible_orders_d read a label set, such as c23_below's,
through its id mask (label_mask), and roots_and_pairs names the
columns' roots for the listing.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .ordering_engine import Verdict, capped_orders, chain_verdicts
from .permutations import compose, identity, inverse, length

Root = tuple[int, ...]
SignedWindow = tuple[int, ...]
Label = tuple  # ("t", alpha) | ("tt", alpha, beta)

MIN_RANK = 2  # type D starts at rank 2
RANK_LIMIT = 6  # read by WeylGroupD per call; cli.SWEEP_MODES copies it at import
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


def tuple_add(a: Root, b: Root) -> Root:
    return tuple(x + y for x, y in zip(a, b))


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
    pos = positive_roots(n)
    return tuple(sorted(
        (a, b)
        for a in pos
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


def times_swap(x: SignedWindow, swap: tuple[int, int, bool]) -> SignedWindow:
    """x * t_alpha for swap = (i - 1, j - 1, flip), alpha = e_j + e_i if
    flip else e_j - e_i: positions i and j of x trade values, both
    negated when flip."""
    i, j, flip = swap
    out = list(x)
    out[i], out[j] = (-x[j], -x[i]) if flip else (x[j], x[i])
    return tuple(out)


# ------------------------------------------------------- the Weyl group

class WeylGroupD:
    """The full type D Weyl group with Bruhat order bitsets.

    The 2^(n-1) n! signed windows with evenly many sign flips are listed
    sorted by (length, window), lengths by permutations.length; ids
    index that listing.  Bruhat order is generated by the steps
    w * t < w with w * t shorter, over reflections t (times_swap).  w * t
    never has w's length, so with ids in length order, w * t is shorter
    iff its id is smaller: the downset bitmask of w is its own bit OR
    those of its reflection neighbours with smaller ids, in one pass.
    swaps (alpha -> times_swap's (i, j, flip) of t_alpha, read off
    _indices(alpha)) serves this build, which keeps each neighbour's id
    as times[id][k], k the column of alpha in positive_roots: the right
    multiplication table by reflections that check_element folds over.
    label_tables places the labels among the ids.
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

        indices = {a: _indices(a) for a in positive_roots(rank)}
        self.swaps = {a: (i - 1, j - 1, sign == 1) for a, (i, j, sign) in indices.items()}
        # times[x][k]: the id of x * t_alpha, alpha the k-th positive root.
        # t_alpha is an involution, so computing x * t_alpha = y also gives
        # y * t_alpha = x: row j arrives with its shorter neighbours, whose
        # downsets it takes, filled in, and swaps only for the longer ones.
        index, swaps = self.index, list(self.swaps.values())
        times = [[None] * len(swaps) for _ in self.windows]
        below = []
        for j, w in enumerate(self.windows):
            row = times[j]
            mask = 1 << j
            for k, i in enumerate(row):
                if i is None:
                    i = row[k] = index[times_swap(w, swaps[k])]
                    times[i][k] = j
                else:
                    mask |= below[i]
            below.append(mask)
        self.below: tuple[int, ...] = tuple(below)
        self.times: list[list[int]] = times
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

    @cached_property
    def ground_mask(self) -> int:
        """The ids of all labels, as one bitmask."""
        return self.label_mask(self.label_ids)

    def label_mask(self, A) -> int:
        """The ids of the labels in A, as one bitmask."""
        return sum(1 << self.label_ids[lab] for lab in A)

    @cached_property
    def label_tables(self) -> tuple[tuple, tuple, tuple]:
        """(reflections, pairs, labels), the ids check_element tests on a
        downset: the id of t_alpha for each column, alpha's position in
        positive_roots (times' column); each _summable_root_pairs row as
        the mask of the ids of t_a and t_b, the columns of a, b and a + b,
        and the ids of t_{a+b}, t_a t_b and t_b t_a; (label, id) sorted by
        label."""
        ids = self.label_ids
        pos = positive_roots(self.rank)
        column = {a: k for k, a in enumerate(pos)}
        pairs = tuple(
            ((1 << ids[ta]) | (1 << ids[tb]), column[a], column[b], column[gamma],
             ids[tg], ids[ab], ids[ba])
            for a, b, gamma, ta, tb, tg, ab, ba in _summable_root_pairs(self.rank)
        )
        return tuple(ids["t", a] for a in pos), pairs, tuple(sorted(ids.items()))

    def id_of(self, w: SignedWindow) -> int:
        """The id of w, refusing a window that is not an element of the group."""
        i = self.index.get(w)
        if i is None:
            raise ValueError(
                f"{w} is not an element of W(D{self.rank}): a rank {self.rank} "
                "signed window with evenly many sign flips"
            )
        return i

    def length_of(self, w: SignedWindow) -> int:
        return self.lengths[self.id_of(w)]

    def interval_rank_counts(self, w: SignedWindow) -> tuple[int, ...]:
        """Sizes of the length-graded pieces of [e, w]."""
        i = self.id_of(w)
        mask, top = self.below[i], self.lengths[i]
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
def _summable_root_pairs(n: int) -> tuple[tuple, ...]:
    """(a, b, a + b, t_a, t_b, t_{a+b}, t_a t_b, t_b t_a) for positive
    roots a < b whose sum is a positive root, in combinations order."""
    pos = positive_roots(n)
    return tuple(
        (a, b, gamma, ("t", a), ("t", b), ("t", gamma), ("tt", a, b), ("tt", b, a))
        for a, b in itertools.combinations(pos, 2)
        if (gamma := tuple_add(a, b)) in pos
    )


@lru_cache(maxsize=None)
def c23_labels(n: int) -> tuple[Label, ...]:
    """Reflections and ordered summable reflection products, sorted.

    Labels are ("t", alpha) and ("tt", alpha, beta) with alpha + beta a
    positive root.  WeylGroupD.label_ids checks that realization is
    injective.
    """
    products = [lab for *_, ab, ba in _summable_root_pairs(n) for lab in (ab, ba)]
    return tuple(sorted([("t", a) for a in positive_roots(n)] + products))


def realize_label(label: Label, n: int) -> SignedWindow:
    """t_alpha, or t_alpha t_beta, as a signed window."""
    if label[0] not in ("t", "tt"):
        raise ValueError(f"bad label: {label!r}")
    return product_of_root_order(label[1:], n)


def label_text(label: Label) -> str:
    if label[0] == "t":
        return f"t[{root_text(label[1])}]"
    return f"t[{root_text(label[1])}]t[{root_text(label[2])}]"


def c23_below(group: WeylGroupD, w: SignedWindow) -> frozenset[Label]:
    """Labels whose realization lies below w in Bruhat order."""
    mask = group.below[group.id_of(w)]
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

    Closure is checked first, member by member in label order, then the
    pair axioms on A's summable pairs (_pair_violation).
    """
    members = group.label_mask(A)
    below, labels = group.below, group.label_tables[2]
    outside = group.ground_mask & ~members
    for lab, i in labels:
        if members >> i & 1 and (missing := below[i] & outside):
            culprit = next(x for x, k in labels if missing >> k & 1)
            return AdmissibilityViolationD("closure", (lab, culprit))
    return _pair_violation(group.rank, columns_and_pairs(group, members)[1])


def _pair_violation(rank: int, pairs: list) -> AdmissibilityViolationD | None:
    """The first failed pair axiom over a closed set's summable pairs
    (columns_and_pairs), whose roots the witness names.

    A pair with both orientations t_a t_b, t_b t_a but not t_{a+b} fails
    product-pair, and a pair with neither fails reflection-pair.
    Closure puts t_a and t_b in the set whenever t_a t_b is there, so
    every product member belongs to one of pairs.
    """
    pos = positive_roots(rank)
    for ka, kb, mid, ab, ba in pairs:
        if ab and ba and mid is None:
            a, b = pos[ka], pos[kb]
            return AdmissibilityViolationD(
                "product-pair", (("tt", a, b), ("tt", b, a), ("t", tuple_add(a, b)))
            )
    for ka, kb, _, ab, ba in pairs:
        if not ab and not ba:
            return AdmissibilityViolationD("reflection-pair", (("t", pos[ka]), ("t", pos[kb])))
    return None


def columns_and_pairs(group: WeylGroupD, members: int) -> tuple[list[int], list]:
    """The member columns in root order and their summable pairs, as
    ordering_engine takes them with columns for roots, of the labels
    whose ids are set in members; the only filter of label_tables."""
    reflections, rows, _ = group.label_tables
    columns = [k for k, i in enumerate(reflections) if members >> i & 1]
    pairs = [
        (ka, kb, kg if members >> ig & 1 else None,
         members >> iab & 1 == 1, members >> iba & 1 == 1)
        for both, ka, kb, kg, ig, iab, iba in rows
        if members & both == both
    ]
    return columns, pairs


def roots_and_pairs(group: WeylGroupD, members: int) -> tuple[tuple[Root, ...], list]:
    """columns_and_pairs with each column read as its root."""
    pos = positive_roots(group.rank)
    columns, pairs = columns_and_pairs(group, members)
    return tuple(pos[k] for k in columns), [
        (pos[ka], pos[kb], None if kg is None else pos[kg], ab, ba)
        for ka, kb, kg, ab, ba in pairs
    ]


# ------------------------------------------------- compatible arrangements

def enumerate_compatible_orders_d(
    group: WeylGroupD,
    A: frozenset[Label],
    max_reflections: int | None = CONJECTURE_MAX_REFLECTIONS,
) -> list[tuple[Root, ...]]:
    return capped_orders(*roots_and_pairs(group, group.label_mask(A)), max_reflections)


def product_of_root_order(order: tuple[Root, ...], n: int) -> SignedWindow:
    out = identity(n)
    for alpha in order:
        out = compose(out, reflection_window(alpha, n))
    return out


# ------------------------------------------------------- conjecture runs

@dataclass(frozen=True)
class ConjectureElementReport:
    """One element's admissibility and the Verdicts of its arrangements."""

    window: SignedWindow
    length: int
    reflections: int
    admissibility_note: str | None  # the failed axiom, None when admissible
    verdicts: Counter[Verdict]

    @property
    def admissible(self) -> bool:
        return self.admissibility_note is None

    @property
    def orders_found(self) -> int:
        return sum(self.verdicts.values())

    @property
    def products_ok(self) -> bool:
        return all(v.product_ok for v in self.verdicts)

    @property
    def ok(self) -> bool:
        return self.admissible and bool(self.verdicts) and all(map(all, self.verdicts))

    def to_dict(self) -> dict:
        return {
            "window": sp_text(self.window),
            "length": self.length,
            "reflections": self.reflections,
            "admissible": self.admissible,
            "admissibility_note": self.admissibility_note,
            "orders_found": self.orders_found,
            "verdicts": [
                {"orders": count, **v._asdict()} for v, count in sorted(self.verdicts.items())
            ],
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
    """Run the conjecture checks for one element.

    One list of summable pairs over columns, read off w's downset
    bitmask, feeds both the pair axioms (a downset is closed) and
    ordering_engine.chain_verdicts, whose cap and refusal are
    enumerate_compatible_orders_d's.  The fold runs on element ids, from
    the identity's id 0 and the id of w^{-1}: a step x * t_alpha is
    times[x][column of alpha], a cover iff it adds one to the length.
    """
    i = group.id_of(w)
    columns, pairs = columns_and_pairs(group, group.below[i] & group.ground_mask)
    violation = _pair_violation(group.rank, pairs)
    times, lengths = group.times, group.lengths
    verdicts = chain_verdicts(
        columns, pairs, max_reflections,
        lambda x, k: times[x][k],
        lambda x, k: lengths[times[x][k]] == lengths[x] + 1,
        0, group.index[inverse(w)], i,
    )
    return ConjectureElementReport(
        window=w,
        length=lengths[i],
        reflections=len(columns),
        admissibility_note=violation and violation.describe(),
        verdicts=verdicts,
    )


# ------------------------------------------------------ type A embedding

def embed_window(w: tuple[int, ...]) -> SignedWindow:
    """A permutation window as a signed window with no sign flips."""
    return validate_signed_window(w)
