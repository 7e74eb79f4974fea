"""Independent reference implementations used only by the test suite.

Everything here is deliberately slow and definitional: reachability
closures instead of rank matrices, brute subsequence scans instead of
linear passes, full factorial enumeration instead of backtracking. The
library must agree with these on every domain small enough to sweep.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


# ------------------------------------------------------- permutations

def brute_length(w: tuple[int, ...]) -> int:
    n = len(w)
    return sum(
        1 for a in range(n) for b in range(a + 1, n) if w[a] > w[b]
    )


def swap_positions(w: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    # 1-based a < b
    out = list(w)
    out[a - 1], out[b - 1] = out[b - 1], out[a - 1]
    return tuple(out)


def all_transpositions(n: int) -> list[tuple[int, int]]:
    """All (i, j) with 1 <= i < j <= n, lexicographically."""
    return [(a, b) for a in range(1, n) for b in range(a + 1, n + 1)]


# ------------------------------------------------- Bruhat order, type A

@lru_cache(maxsize=None)
def bruhat_downsets(n: int) -> dict[tuple[int, ...], frozenset]:
    """Downset of every w in S_n under the definitional order.

    x <= w iff x is reachable from w by repeatedly multiplying by any
    transposition that decreases length (by any amount). No rank
    matrices, no cover lemma.
    """
    elements = sorted(
        (tuple(p) for p in itertools.permutations(range(1, n + 1))),
        key=brute_length,
    )
    down: dict[tuple[int, ...], frozenset] = {}
    for w in elements:
        acc = {w}
        lw = brute_length(w)
        for (a, b) in all_transpositions(n):
            x = swap_positions(w, a, b)
            if brute_length(x) < lw:
                acc |= down[x]
        down[w] = frozenset(acc)
    return down


def bruhat_leq_oracle(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    return x in bruhat_downsets(len(y))[y]


def cover_pairs_oracle(n: int) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    down = bruhat_downsets(n)
    pairs = set()
    for y, ds in down.items():
        ly = brute_length(y)
        for x in ds:
            if brute_length(x) == ly - 1:
                pairs.add((x, y))
    return pairs


def interval_rank_counts(w: tuple[int, ...]) -> tuple[int, ...]:
    """Sizes of the length-graded pieces of the interval [e, w].

    Index d counts the elements x <= w with length d.  The interval is
    grown downward from w through length-decreasing reflection moves,
    the definitional closure, with no cover bookkeeping.  Palindromic
    counts decide rational smoothness, which in type A is smoothness
    (Carrell-Peterson; Lakshmibai-Sandhya).
    """
    lw = brute_length(w)
    counts = [0] * (lw + 1)
    counts[lw] = 1
    seen = {w}
    frontier = [w]
    while frontier:
        nxt = []
        for x in frontier:
            lx = brute_length(x)
            for a, b in all_transpositions(len(w)):
                y = swap_positions(x, a, b)
                if brute_length(y) < lx and y not in seen:
                    seen.add(y)
                    counts[brute_length(y)] += 1
                    nxt.append(y)
        frontier = nxt
    return tuple(counts)


# ------------------------------------------------------------ patterns

def contains_pattern_brute(w: tuple[int, ...], p: tuple[int, ...]) -> bool:
    k = len(p)
    rank = sorted(range(k), key=lambda i: p[i])
    for combo in itertools.combinations(w, k):
        # order-isomorphic iff sorting positions by value matches p's
        if sorted(range(k), key=lambda i: combo[i]) == rank:
            return True
    return False


# ---------------------------------------------- order enumeration brute

def compatible_orders_brute(admissible_set, is_compatible) -> list[tuple]:
    """All arrangements of the reflection part that pass the predicate.

    Checks every factorial arrangement; only usable for small sets.
    """
    refls = sorted(admissible_set.reflections)
    out = []
    for arrangement in itertools.permutations(refls):
        if is_compatible(arrangement, admissible_set):
            out.append(arrangement)
    return sorted(out)


# ------------------------------------ generic chain verifier and moves

def reflection_leq(t: tuple[int, int], w: tuple[int, ...]) -> bool:
    """T(i, j) <= w, read off bruhat.reflection_bounds(w)."""
    from smoothchains.bruhat import reflection_bounds

    i, j = t
    if not 1 <= i < j <= len(w):
        raise ValueError(f"T{t} does not fit in degree {len(w)}")
    return j <= reflection_bounds(w)[i - 1]


def c_t_by_filter(w: tuple[int, ...]) -> frozenset[tuple[int, int]]:
    """Transpositions below w: every pair filtered through reflection_leq."""
    return frozenset(t for t in all_transpositions(len(w)) if reflection_leq(t, w))


def is_saturated_chain(chain) -> bool:
    """Is every consecutive step of the chain a covering relation?"""
    return first_noncover(chain) is None


def first_noncover(chain) -> int | None:
    """1-based index of the first step that is not a cover, or None."""
    from smoothchains.bruhat import _validate_chain, is_cover

    _validate_chain(chain)
    for step, (x, y) in enumerate(zip(chain, chain[1:]), start=1):
        if not is_cover(x, y):
            return step
    return None


def reference_verify_order(w: tuple[int, ...], order):
    """verify_order from whole windows: a set comparison against the
    filtered reflections, product chains, and is_cover on each step.

    Returns the report with the prefix and suffix chains beside it.
    """
    from smoothchains.orders import VerificationReport
    from smoothchains.permutations import identity, times_transposition

    if frozenset(order) != c_t_by_filter(w) or len(order) != len(set(order)):
        raise ValueError("arrangement does not match the reflections below w")
    prefix = [identity(len(w))]
    for t in order:
        prefix.append(times_transposition(prefix[-1], t))
    suffix = [identity(len(w))]
    for t in reversed(order):
        suffix.append(times_transposition(suffix[-1], t))
    prefix_break = first_noncover(prefix)
    suffix_break = first_noncover(suffix)
    report = VerificationReport(
        window=w,
        order=tuple(order),
        product=prefix[-1],
        product_ok=prefix[-1] == w,
        prefix_saturated=prefix_break is None,
        suffix_saturated=suffix_break is None,
        prefix_first_break=prefix_break,
        suffix_first_break=suffix_break,
    )
    return report, tuple(prefix), tuple(suffix)


def reference_moves(order) -> list[tuple]:
    """One-move neighbours of an arrangement, tested on index sets.

    Adjacent reflections with disjoint supports swap; three consecutive
    distinct reflections on three indices, the one joining the smallest
    and largest in the middle, reverse.
    """
    out = []
    for p in range(len(order) - 1):
        if not set(order[p]) & set(order[p + 1]):
            out.append(order[:p] + (order[p + 1], order[p]) + order[p + 2 :])
    for p in range(len(order) - 2):
        a, m, b = order[p : p + 3]
        support = set(a) | set(m) | set(b)
        if (
            len(support) == 3
            and len({a, m, b}) == 3
            and m == (min(support), max(support))
        ):
            out.append(order[:p] + (b, m, a) + order[p + 3 :])
    return out


def moves_by_rule(order, pairs, commute) -> list[tuple]:
    """One-move neighbours of an arrangement, read off the pairs.

    First the swaps of adjacent items that commute, then the reversals
    of a, mid, b for a pair with mid (either orientation), by position.
    """
    hexagons = set()
    for a, b, mid, _, _ in pairs:
        if mid is not None:
            hexagons |= {(a, mid, b), (b, mid, a)}
    swapped = [
        order[:p] + (order[p + 1], order[p]) + order[p + 2 :]
        for p in range(len(order) - 1)
        if commute(order[p], order[p + 1])
    ]
    return swapped + [
        order[:p] + order[p : p + 3][::-1] + order[p + 3 :]
        for p in range(len(order) - 2)
        if order[p : p + 3] in hexagons
    ]


# ------------------------------------------- ground set, wedges, ideals

def ground_labels(n: int) -> list[tuple]:
    """T(i, j), R(i, j, k) and L(i, j, k) labels of degree n, unsorted."""
    triples = itertools.combinations(range(1, n + 1), 3)
    return [("T", i, j) for i, j in all_transpositions(n)] + [
        (kind, i, j, k) for i, j, k in triples for kind in "RL"
    ]


def realize_label(label: tuple, n: int) -> tuple[int, ...]:
    """The label as a window: T(i, j) swaps i and j, R(i, j, k) sends
    i -> j -> k -> i and L(i, j, k) sends i -> k -> j -> i."""
    kind, *idx = label
    cycle = idx if kind != "L" else idx[::-1]
    out = list(range(1, n + 1))
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        out[a - 1] = b
    return tuple(out)


def ground_ideals(n: int) -> list[frozenset]:
    """Every down-closed subset of the degree-n ground set.

    Labels are compared through bruhat_downsets on their realizations.
    They are decided in order of length, so everything below a label is
    decided before it, and a label is taken only on top of all of those.
    """
    down = bruhat_downsets(n)
    window = {lab: realize_label(lab, n) for lab in ground_labels(n)}
    labels = sorted(window, key=lambda lab: brute_length(window[lab]))
    below = {
        lab: {x for x in labels if x != lab and window[x] in down[window[lab]]}
        for lab in labels
    }
    ideals = []

    def grow(pos: int, chosen: set) -> None:
        if pos == len(labels):
            ideals.append(frozenset(chosen))
            return
        grow(pos + 1, chosen)
        if below[labels[pos]] <= chosen:
            grow(pos + 1, chosen | {labels[pos]})

    grow(0, set())
    return ideals


def wedges_by_definition(members: frozenset) -> list[tuple[int, int]]:
    """Wedges (i, j) of a set of labels, lexicographically: T(i, j) is a
    member, T(i-1, i) is not, and R(i, j, j+1) is not."""
    return sorted(
        (e[1], e[2])
        for e in members
        if e[0] == "T"
        and ("T", e[1] - 1, e[1]) not in members
        and ("R", e[1], e[2], e[2] + 1) not in members
    )


def wedge_window_test(w: tuple[int, ...], i: int, j: int) -> bool:
    """Window-level wedge test for the full set below w.

    (i, j) is a wedge of c23(w) iff w maps {1..i-1} onto itself,
    w(i) >= j, and w^{-1}(i) = j.
    """
    n = len(w)
    if not 1 <= i < j <= n:
        raise ValueError(f"bad wedge indices ({i}, {j}) for degree {n}")
    if set(w[: i - 1]) != set(range(1, i)):
        return False
    return w[i - 1] >= j and w.index(i) + 1 == j


def invert_labels(members: frozenset) -> frozenset:
    """Each label replaced by its inverse's: R and L swap, T stays."""
    flip = {"T": "T", "R": "L", "L": "R"}
    return frozenset((flip[e[0]], *e[1:]) for e in members)


def element23_leq(elem: tuple, w: tuple[int, ...]) -> bool:
    """Is the realized element below w in Bruhat order?  Membership in c23(w)."""
    from smoothchains.admissible import c23, validate_element

    return validate_element(elem, len(w)) in c23(w).members


def member_texts(A) -> list[str]:
    """The members of an AdmissibleSet as text, in its sorted order."""
    from smoothchains.admissible import format_element

    return [format_element(e) for e in A.sorted_members()]


# ------------------------------------------------------------- type D

def d_negative_count_even(window: tuple[int, ...]) -> bool:
    return sum(1 for v in window if v < 0) % 2 == 0


def is_positive_root(alpha: tuple[int, ...]) -> bool:
    from smoothchains.type_d import positive_roots

    return alpha in positive_roots(len(alpha))


def d_reflections(group) -> list[tuple[int, ...]]:
    """The reflection windows of the group's rank, in positive root order."""
    from smoothchains.type_d import positive_roots, reflection_window

    return [reflection_window(a, group.rank) for a in positive_roots(group.rank)]


def d_leq(group, x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    """x <= y in Bruhat order, read off the group's downset bitmasks."""
    return bool(group.below[group.index[y]] >> group.index[x] & 1)


def d_cover_pairs(group) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The covers (w * t, w) with w * t one shorter than w, from the
    group's lengths; d_cover_pairs_oracle is the definitional version."""
    from smoothchains.permutations import compose

    refl = d_reflections(group)
    return [
        (x, w)
        for w, lw in zip(group.windows, group.lengths)
        for t in refl
        if group.length_of(x := compose(w, t)) == lw - 1
    ]


def all_roots(n: int) -> tuple[tuple[int, ...], ...]:
    """Every type D root of rank n, positive and negative, sorted."""
    from smoothchains.type_d import positive_roots

    pos = positive_roots(n)
    return tuple(sorted(pos + tuple(tuple(-c for c in a) for a in pos)))


def sp_inverse(w: tuple[int, ...]) -> tuple[int, ...]:
    """Group inverse of a signed window."""
    out = [0] * len(w)
    for pos, val in enumerate(w):
        out[abs(val) - 1] = (pos + 1) if val > 0 else -(pos + 1)
    return tuple(out)


def act_on_root(w: tuple[int, ...], alpha: tuple[int, ...]) -> tuple[int, ...]:
    """Image of a root: w sends e_a to sign(w(a)) * e_{|w(a)|}."""
    out = [0] * len(w)
    for a, c in enumerate(alpha, start=1):
        if c:
            img = w[a - 1]
            out[abs(img) - 1] += c * (1 if img > 0 else -1)
    return tuple(out)


def length_by_roots(w: tuple[int, ...]) -> int:
    """Number of positive roots sent negative; the Coxeter length."""
    from smoothchains.type_d import positive_roots

    return sum(
        1
        for alpha in positive_roots(len(w))
        if not is_positive_root(act_on_root(w, alpha))
    )


def d_member_roots(A) -> tuple[tuple[int, ...], ...]:
    """The roots of A's ("t", alpha) labels, sorted."""
    return tuple(sorted(lab[1] for lab in A if lab[0] == "t"))


def d_summable_pairs_by_combinations(A, n: int) -> list[tuple]:
    """The summable pairs (a, b, mid, ab, ba) of a label set, from every
    two-element combination of its member roots, summed coordinatewise,
    rather than from the rank table that type_d.roots_and_pairs filters."""
    from smoothchains.type_d import positive_roots

    out = []
    for a, b in itertools.combinations(d_member_roots(A), 2):
        gamma = tuple(x + y for x, y in zip(a, b))
        if gamma in positive_roots(n):
            mid = gamma if ("t", gamma) in A else None
            out.append((a, b, mid, ("tt", a, b) in A, ("tt", b, a) in A))
    return out


def d_downsets(group) -> dict[tuple[int, ...], frozenset]:
    """Definitional Bruhat downsets for a type-D Weyl group.

    Same recursion as the type-A oracle: walk down along any reflection
    multiplication that decreases the roots-sent-negative count.
    Independent of the group's graded cover construction.
    """
    from smoothchains.permutations import compose

    refl = d_reflections(group)
    elements = sorted(group.windows, key=length_by_roots)
    down: dict[tuple[int, ...], frozenset] = {}
    for w in elements:
        acc = {w}
        lw = length_by_roots(w)
        for t in refl:
            x = compose(w, t)
            if length_by_roots(x) < lw:
                acc |= down[x]
        down[w] = frozenset(acc)
    return down


def d_cover_pairs_oracle(group) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    down = d_downsets(group)
    pairs = set()
    for y, ds in down.items():
        ly = length_by_roots(y)
        for x in ds:
            if length_by_roots(x) == ly - 1:
                pairs.add((x, y))
    return pairs


def window_swap(t: tuple[int, ...]) -> tuple[int, int, bool]:
    """(i, j, flip) read off a reflection window: the 0-based positions
    i < j it moves, and whether it negates them."""
    i, j = (p for p, v in enumerate(t) if abs(v) != p + 1)
    return i, j, t[i] < 0


def root_reflection_image(alpha, beta):
    """Reflect beta in the hyperplane of alpha via the inner-product formula."""
    dot_ab = sum(a * b for a, b in zip(alpha, beta))
    dot_aa = sum(a * a for a in alpha)
    coeff = 2 * dot_ab // dot_aa
    return tuple(b - coeff * a for a, b in zip(alpha, beta))


def d_reduced_word_counts(group) -> dict[tuple[int, ...], int]:
    """Number of reduced words of every element of a type-D Weyl group.

    Descent recursion: rw(e) = 1 and rw(w) is the sum of rw(ws) over
    the simple reflections s with l(ws) = l(w) - 1, lengths counted as
    roots sent negative.  No reflection orders involved.
    """
    from smoothchains.permutations import compose
    from smoothchains.type_d import reflection_window, simple_roots

    n = group.rank
    simples = [reflection_window(a, n) for a in simple_roots(n)]
    lengths = {w: length_by_roots(w) for w in group.windows}
    counts: dict[tuple[int, ...], int] = {}
    for w in sorted(group.windows, key=lengths.__getitem__):
        if lengths[w] == 0:
            counts[w] = 1
            continue
        below = [compose(w, s) for s in simples]
        counts[w] = sum(counts[x] for x in below if lengths[x] == lengths[w] - 1)
    return counts


@lru_cache(maxsize=None)
def d_label_ideals(group) -> dict:
    """Each c23 label with the labels whose realization lies below its own."""
    from smoothchains.type_d import c23_labels, realize_label

    n = group.rank
    window = {lab: realize_label(lab, n) for lab in c23_labels(n)}
    return {
        lab: frozenset(x for x in window if d_leq(group, window[x], top))
        for lab, top in window.items()
    }


def leading_simple(alpha):
    """The simple root attached to a positive type D root by its top coordinate.

    e_j - e_i and e_j + e_i both map to e_j - e_{j-1}, except that
    e_2 + e_1 maps to itself.
    """
    if not is_positive_root(alpha):
        raise ValueError(f"not a positive type D root: {alpha}")
    i, j = (k + 1 for k, c in enumerate(alpha) if c)
    if (i, j) == (1, 2) and alpha[0] == 1:
        return alpha
    out = [0] * len(alpha)
    out[j - 2], out[j - 1] = -1, 1
    return tuple(out)


def simple_precedes(a, b) -> bool:
    """Strict comparison of simple roots by rank.

    Distinct simples of equal rank (e_2 - e_1 versus e_2 + e_1) are
    incomparable by design; asking about them raises, and the structure
    of the root system keeps such comparisons from ever being needed:
    summable positive roots have distinct leading simples.
    """
    from smoothchains.type_d import root_text, simple_rank

    ra, rb = simple_rank(a), simple_rank(b)
    if a != b and ra == rb:
        raise ValueError(
            f"incomparable simple roots {root_text(a)} and {root_text(b)}"
        )
    return ra < rb


def d_admissibility_violation_by_labels(group, A, cross_pair_products=False):
    """(axiom, witness) of the first failed type D axiom, or None.

    Scans labels rather than summable pairs: closure, then the product
    axiom over ("tt", a, b) members, then the reflection-pair axiom.
    The product axiom asks, by default, for t[a+b] when both
    orientations t_a t_b and t_b t_a are members.  With
    cross_pair_products it asks for it whenever two products with sum
    gamma have left factors on opposite sides of the leading-simple
    comparison, even when they decompose gamma differently; rank 4
    refutes that variant on smooth elements.
    """
    from smoothchains.type_d import tuple_add

    for lab in sorted(A):
        missing = d_label_ideals(group)[lab] - A
        if missing:
            return ("closure", (lab, min(missing)))
    products = [lab for lab in sorted(A) if lab[0] == "tt"]
    if cross_pair_products:
        desc, asc = {}, {}
        for lab in products:
            _, a, b = lab
            side = desc if simple_precedes(leading_simple(b), leading_simple(a)) else asc
            side.setdefault(tuple_add(a, b), lab)
        for gamma in sorted(set(desc) & set(asc)):
            if ("t", gamma) not in A:
                return ("product-pair", (desc[gamma], asc[gamma], ("t", gamma)))
    else:
        for lab in products:
            _, a, b = lab
            gamma = tuple_add(a, b)
            if a < b and ("tt", b, a) in A and ("t", gamma) not in A:
                return ("product-pair", (lab, ("tt", b, a), ("t", gamma)))
    for a, b, _, ab, ba in d_summable_pairs_by_combinations(A, group.rank):
        if not ab and not ba:
            return ("reflection-pair", (("t", a), ("t", b)))
    return None
