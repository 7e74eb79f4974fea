"""Compatible reflection orders: the pair rule and the walk behind it.

Both the type A and the type D compatibility conditions are one rule on
summable reflection pairs, the two-root condition of Dyer's reflection
orders.  A type only lists its pairs (a, b, mid, ab, ba): two reflections
whose roots sum to a root, mid the sum's reflection when it is a member
of the set (else None), ab and ba whether the products t_a t_b and
t_b t_a are members.  The pairs are the only input of this module.  An
arrangement is compatible when, for every pair,

  * if mid is given, it sits strictly between a and b (either
    orientation);
  * otherwise exactly one product is a member, and it fixes the order:
    a before b iff ab.

Neither or both products without mid make the rule unsatisfiable; on
admissible sets this never happens.  ``is_compatible_order`` checks the
rule on one arrangement.  ``_rules`` compiles the pairs once: each item
is placed once, needs the items of one mask placed before it, and keeps
(mask, pattern) entries over the bitmask of placed items; it may not be
placed while placed & mask == pattern for one of them.  With A, B, M
the bits of a, b and mid:

  * a pair without mid puts the other end in the mask that the end put
    second needs, and puts each end in the other's when it is
    unsatisfiable;
  * a pair with mid gives mid (A|B, 0), to wait for one end, and gives
    a (B|M, B) and b (A|M, A): an end waits while the other end is down
    and mid is not.  Both ends down without mid then cannot be reached,
    since the second end waits for mid, so mid needs no entry for it.

Every prefix built this way extends to the rule consistently, so a
completed arrangement is compatible with no final filter, and the
compatible arrangements are exactly the paths from the empty set of
placed items to the full one.  ``_steps`` reads a set's allowed steps
off the rules.  ``_reach`` gives each reachable set with its steps,
one layer after another, to the listing (``constrained_orders``, depth
first in sorted item order, so the output is deterministic;
``capped_orders`` refuses sets over a cap) and to ``moves_connected``.
``fold_orders`` walks the layers itself, each set handing its prefix
products with their counts to the next (linear-extension counting over
the lattice of ideals, De Loof, De Meyer and De Baets 2006).
``chain_verdicts`` folds both saturated chains on it, for
orders.order_verdicts and type_d.check_element.

The move graph joins two compatible arrangements one move apart
(``moves``): a swap of two adjacent items that commute, a rule the
caller gives, or the reversal of three consecutive items a, mid, b of
a pair with mid.  ``_move_rule`` reads both off (pairs, commute), once
per set for the certificate and the searches.  ``moves_connected``
counts the paths and certifies the
graph connected from squares and hexagons at each placed set, the
local confluence behind Tits' word property and the connectivity of
the higher Bruhat order B(n, 2) (Manin and Schechtman 1989); it may
leave a connected graph undecided, never a disconnected one certified.
``connectivity`` is exact: where the certificate is undecided it lists
under the same cap and searches (``connected_by_moves``).
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple

Item = Hashable
# (a, b, mid, ab, ba): see the module docstring.
Pair = tuple[Item, Item, Item | None, bool, bool]
Arrangement = tuple[Item, ...]
Commute = Callable[[Item, Item], bool]
Product = Hashable


class Verdict(NamedTuple):
    """The three checks of one arrangement against one element."""

    product_ok: bool
    prefix_saturated: bool
    suffix_saturated: bool


def is_compatible_order(order: Arrangement, items: Iterable[Item], pairs: Iterable[Pair]) -> bool:
    """Check the pair rule on one arrangement; the reference for the search.

    The arrangement must use exactly the given items.
    """
    pos = {x: p for p, x in enumerate(order)}
    if len(pos) != len(order) or pos.keys() != set(items):
        raise ValueError("arrangement does not match the reflection members")
    for a, b, mid, ab, ba in pairs:
        pa, pb = pos[a], pos[b]
        if mid is not None:
            if not min(pa, pb) < pos[mid] < max(pa, pb):
                return False
        elif ab == ba or ab != (pa < pb):
            return False
    return True


def _capped(items: Iterable[Item], max_items: int | None) -> list[Item]:
    """The distinct items sorted, or the cap refusal when there are more than max_items."""
    items = sorted(set(items))
    if max_items is not None and len(items) > max_items:
        raise ValueError(
            f"{len(items)} reflections exceed the enumeration cap "
            f"{max_items}; raise max_reflections to proceed"
        )
    return items


def capped_orders(
    items: Iterable[Item], pairs: Iterable[Pair], max_items: int | None
) -> list[Arrangement]:
    """All compatible arrangements, in the engine's deterministic order.

    Refuses more than max_items items (None lifts the cap) before the
    pairs are read, since the search space grows factorially.
    """
    # list(): perfbench/trace_layers.py wraps constrained_orders to return an iterator
    return list(constrained_orders(_capped(items, max_items), pairs))


def fold_orders(
    items: Iterable[Item],
    pairs: Iterable[Pair],
    max_items: int | None,
    step: Callable[[Product, Item], Product],
    start: Product,
) -> dict[Product, int]:
    """Products of all compatible arrangements, with how many give each.

    Folds step over every arrangement from start without listing them:
    each placed set of a layer hands every prefix product reaching it,
    with its number of prefixes, along its _steps to the next layer,
    whose keys are the only record of the sets reached.  A product is
    any hashable state.  Returns {} when no arrangement is compatible.
    The cap is that of capped_orders.
    """
    ordered = _capped(items, max_items)
    rules = _rules(ordered, pairs)
    full = (1 << len(ordered)) - 1
    layer: dict[int, dict[Product, int]] = {0: {start: 1}}
    while layer and full not in layer:
        reached: dict[int, dict[Product, int]] = {}
        for placed, products in layer.items():
            for bit, item in _steps(placed, rules):
                target = reached.setdefault(placed | bit, {})
                for x, count in products.items():
                    y = step(x, item)
                    target[y] = target.get(y, 0) + count
        layer = reached
    return layer.get(full, {})


def chain_verdicts(
    items: Iterable[Item],
    pairs: Iterable[Pair],
    max_items: int | None,
    step: Callable[[Product, Item], Product],
    covers: Callable[[Product, Item], bool],
    start: Product,
    start_z: Product,
    target: Product,
) -> Counter[Verdict]:
    """How many compatible arrangements get each Verdict against target.

    A type gives its right product step(x, t) = x * t and its cover test
    covers(x, t), x covered by x * t.  fold_orders carries (x, z,
    prefix_ok, suffix_ok) from (start, start_z, True, True), start the
    identity and z = target^{-1} x: a step by t tests covers(x, t),
    steps x and z, and tests covers of the new z, which is the suffix
    chain's step read from its far end when x ends at target (else the
    suffix verdict is read along target^{-1} x).  The cap is that of
    capped_orders.
    """

    def chain_step(state, t):
        x, z, prefix_ok, suffix_ok = state
        z = step(z, t)
        return step(x, t), z, prefix_ok and covers(x, t), suffix_ok and covers(z, t)

    folded = fold_orders(items, pairs, max_items, chain_step, (start, start_z, True, True))
    verdicts: Counter[Verdict] = Counter()
    for (x, _, prefix_ok, suffix_ok), count in folded.items():
        verdicts[Verdict(x == target, prefix_ok, suffix_ok)] += count
    return verdicts


def moves_connected(
    items: Iterable[Item], pairs: Iterable[Pair], max_items: int | None, commute: Commute
) -> tuple[int, bool]:
    """How many compatible arrangements, and a certificate that moves join them.

    True means the move graph is connected; False means undecided, as
    the local joins below did not suffice.  The count is exact either
    way, and no arrangement is listed.  The cap is that of capped_orders.

    A placed set is live when it extends to the full set.  One pass
    back from the full set keeps only the steps into live sets and
    counts the paths from each live set to the full one; the count is
    that of the empty set.  At each live set S, two first steps a and
    b are joined by a square, when a and b commute, a b and b a are
    both placed from S and S + a + b is live, or by a hexagon, for a
    pair (a, b, mid) with a mid b and b mid a both placed from S and
    S + a + b + mid live.  Either gives two completions of S one move
    apart, so if the joins connect the first steps at every live set,
    then by induction on the unplaced items every two completions of
    S are joined by moves, and at the empty set every two arrangements.
    """
    pairs = list(pairs)
    ordered = _capped(items, max_items)
    full = (1 << len(ordered)) - 1
    # steps[S]: mask of the steps allowed at each reachable S, layer by layer
    reach = _reach(ordered, pairs)
    steps = {placed: sum(bit for bit, _ in allowed) for placed, allowed in reach.items()}
    # paths[S]: number of paths from a live S to the full set; steps[S]
    # then keeps only the steps into live sets
    paths = {full: 1} if full in steps else {}
    for placed in reversed(steps):
        live = total = 0
        for bit in _bits_of(steps[placed]):
            if placed | bit in paths:
                live |= bit
                total += paths[placed | bit]
        steps[placed] = live
        if live:
            paths[placed] = total
    count = paths.get(0, 0)
    _, commuting, hexagons = _move_rule(ordered, pairs, commute)
    # every step kept leads to a live set, so the moves below end in live sets
    for placed in paths:
        first = steps[placed]
        if not first & (first - 1):  # at most one first step
            continue
        joins = []
        for a in _bits_of(first):
            for b in _bits_of(first & commuting[a] & ~(2 * a - 1)):
                if steps[placed | a] & b and steps[placed | b] & a:
                    joins.append(a | b)
        for ends, mid in hexagons:
            if first & ends != ends:
                continue
            a = ends & -ends
            b = ends ^ a
            if (
                steps[placed | a] & mid
                and steps[placed | a | mid] & b
                and steps[placed | b] & mid
                and steps[placed | b | mid] & a
            ):
                joins.append(ends)
        if not _joined(first, joins):
            return count, False
    return count, True


def connectivity(
    items: Iterable[Item], pairs: Iterable[Pair], max_items: int | None, commute: Commute
) -> tuple[int, bool]:
    """How many compatible arrangements, and do moves join them all?

    Exact: moves_connected counts and certifies without listing; where
    it is undecided, the arrangements are listed under the same cap,
    counted and searched by connected_by_moves.
    """
    items, pairs = list(items), list(pairs)
    count, certified = moves_connected(items, pairs, max_items, commute)
    if certified:
        return count, True
    listed = capped_orders(items, pairs, max_items)
    return len(listed), connected_by_moves(listed, pairs, commute)


def moves(order: Arrangement, pairs: Iterable[Pair], commute: Commute) -> Iterator[Arrangement]:
    """Every arrangement one move away from order, compatible or not.

    First the swaps of adjacent items that commute, then the reversals
    of a, mid, b for a pair with mid, each by position.  Distinct moves
    change different positions, so none repeats.
    """
    return _moves(order, _move_rule(order, pairs, commute))


def connected_by_moves(
    arrangements: Iterable[Arrangement], pairs: Iterable[Pair], commute: Commute
) -> bool:
    """Do moves inside the given arrangements of the same items join them?

    One search removes each arrangement it reaches from the set of the
    given ones, storing no edge; they are joined iff the set empties.
    """
    unreached = set(arrangements)
    stack = [unreached.pop()] if unreached else []
    rule = stack and _move_rule(stack[0], pairs, commute)
    while stack:
        for u in _moves(stack.pop(), rule):
            if u in unreached:
                unreached.remove(u)
                stack.append(u)
    return not unreached


def move_edges(
    arrangements: list[Arrangement], pairs: Iterable[Pair], commute: Commute
) -> list[tuple[int, int]]:
    """The edges (i, j), i < j, of moves between listed arrangements, by i then by move."""
    rule = arrangements and _move_rule(arrangements[0], pairs, commute)
    index = {v: i for i, v in enumerate(arrangements)}
    return [
        (i, j) for i, v in enumerate(arrangements) for u in _moves(v, rule)
        if i < (j := index.get(u, -1))
    ]


def _move_rule(items, pairs: Iterable[Pair], commute: Commute) -> tuple[dict, dict, set]:
    """The moves over distinct items, item p with bit 1 << p, read once.

    Returns the bits; for each bit, the mask of the items it commutes
    with; and for each pair with mid, the bits of a | b and of mid.
    The pairs must name the items.
    """
    bits = {item: 1 << p for p, item in enumerate(items)}
    commuting = {
        bit: sum(other for y, other in bits.items() if commute(x, y)) for x, bit in bits.items()
    }
    hexagons = {(bits[a] | bits[b], bits[mid]) for a, b, mid, _, _ in pairs if mid is not None}
    return bits, commuting, hexagons


def _moves(order: Arrangement, rule) -> Iterator[Arrangement]:
    """moves(order, ...) under a rule from _move_rule."""
    bits, commuting, hexagons = rule
    at = [bits[x] for x in order]
    for p in range(len(order) - 1):
        if commuting[at[p]] & at[p + 1]:
            yield order[:p] + (order[p + 1], order[p]) + order[p + 2 :]
    for p in range(len(order) - 2):
        if (at[p] | at[p + 2], at[p + 1]) in hexagons:
            yield order[:p] + order[p : p + 3][::-1] + order[p + 3 :]


def _bits_of(mask: int) -> list[int]:
    """The set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


def _joined(steps: int, joins: list[int]) -> bool:
    """Do the joins (two-bit masks) connect every bit of steps?"""
    reached = steps & -steps
    grew = True
    while grew:
        grew = False
        for join in joins:
            if reached & join and join & ~reached:
                reached |= join
                grew = True
    return reached == steps


def _rules(ordered: list[Item], pairs: Iterable[Pair]) -> list[tuple[int, Item, int, list]]:
    """(bit, item, need, entries) for each item, compiled as the module
    docstring says; item p of the distinct items has bit 1 << p.  Pairs
    naming unknown or repeated items are rejected."""
    bits = {item: 1 << p for p, item in enumerate(ordered)}
    needs = dict.fromkeys(bits.values(), 0)
    forbidden: dict[int, list[tuple[int, int]]] = {bit: [] for bit in bits.values()}
    for a, b, mid, ab, ba in pairs:
        try:
            A, B, M = bits[a], bits[b], 0 if mid is None else bits[mid]
        except KeyError:
            raise ValueError(f"pair {(a, b, mid)!r} names unknown items") from None
        if A == B or M & (A | B):
            raise ValueError(f"pair {(a, b, mid)!r} repeats an item")
        if M:
            forbidden[M].append((A | B, 0))
            forbidden[A].append((B | M, B))
            forbidden[B].append((A | M, A))
            continue
        if ab or not ba:
            needs[B] |= A
        if ba or not ab:
            needs[A] |= B
    return [(bit, item, needs[bit], forbidden[bit]) for item, bit in bits.items()]


def _steps(placed: int, rules: list) -> list[tuple[int, Item]]:
    """The (bit, item) steps, in item order, of the unplaced items whose
    need is placed and that no entry of the rules holds back."""
    steps = []
    for bit, item, need, entries in rules:
        if placed & bit or placed & need != need:
            continue
        for mask, pattern in entries:
            if placed & mask == pattern:
                break
        else:
            steps.append((bit, item))
    return steps


def _reach(ordered: list[Item], pairs: Iterable[Pair]) -> dict[int, list[tuple[int, Item]]]:
    """Each placed set reachable from the empty one with its _steps, one
    layer (number of placed items) after another."""
    rules = _rules(ordered, pairs)
    reach: dict[int, list[tuple[int, Item]]] = {}
    layer = [0]
    while layer:
        for placed in layer:
            reach[placed] = _steps(placed, rules)
        layer = list(dict.fromkeys(placed | bit for placed in layer for bit, _ in reach[placed]))
    return reach


def constrained_orders(
    items: Iterable[Item], pairs: Iterable[Pair]
) -> list[tuple[Item, ...]]:
    """Every arrangement of items that the pair rule allows, in one list.

    Depth first over items in sorted order, through the steps _reach
    gives each placed set.  Unsatisfiable pairs give an empty list.
    Pairs naming unknown items are rejected.
    """
    ordered = _capped(items, None)
    listed: list[Arrangement] = []
    _extend(_reach(ordered, pairs), (1 << len(ordered)) - 1, 0, (), listed)
    return listed


def _extend(steps: dict, full: int, placed: int, arranged: tuple, listed: list) -> None:
    """Append to listed every arrangement that completes arranged.

    steps holds each reachable set's allowed steps.  At module level, so
    no reference cycle keeps them alive after the listing ends, as a
    nested function calling itself would.
    """
    if placed == full:
        listed.append(arranged)
        return
    for bit, item in steps[placed]:
        _extend(steps, full, placed | bit, arranged + (item,), listed)
