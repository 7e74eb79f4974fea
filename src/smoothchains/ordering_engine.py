"""Compatible reflection orders: the pair rule and the search behind it.

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
rule on one arrangement.  ``_placement_rule`` compiles the pairs once
into one step function, next_steps(placed), which lists the items that
may be placed next.  Each item keeps (mask, pattern) entries over the
bitmask of placed items and may not be placed while placed & mask ==
pattern for one of them.  With P an item's own bit and A, B, M those
of a, b and mid:

  * every item gets (P, P), so it is placed once;
  * a pair without mid gives the end put second (A, 0) or (B, 0), to
    wait for the other end, and both ends when it is unsatisfiable;
  * a pair with mid gives mid (A|B, 0), to wait for one end, and gives
    a (B|M, B) and b (A|M, A): an end waits while the other end is down
    and mid is not.  Both ends down without mid then cannot be reached,
    since the second end waits for mid, so mid needs no entry for it.

Every prefix built this way extends to the rule consistently, so a
completed arrangement is compatible and no final filtering pass is
needed.  Placement depends only on the set of items already placed,
so the compatible arrangements are exactly the paths from the empty
set to the full one through such sets.  Both walkers take their steps
from next_steps.  ``constrained_orders`` follows the paths depth first,
over items in sorted order, and appends each completed arrangement to
one list, so the output sequence is deterministic; a cache that lives
for the call runs next_steps once per set rather than once per path.
``capped_orders`` is that listing, refusing sets over a cap.
``fold_orders``, under the same cap, walks the sets instead of the
paths and returns each product of a compatible arrangement with its
number of arrangements (linear-extension counting over the lattice of
ideals, De Loof, De Meyer and De Baets 2006).  The type D conjecture
check and the type A order verdicts (orders.order_verdicts) use it;
order listing and enumerate_compatible_orders_d still list.

The move graph joins two compatible arrangements that differ by one
move: swap two adjacent items that commute (a rule the caller gives),
or reverse three consecutive items a, mid, b of a pair with mid.
``moves_connected`` certifies it connected from squares and hexagons
at each placed set, the local confluence behind Tits' word property
and the connectivity of the higher Bruhat order B(n, 2) (Manin and
Schechtman 1989), without listing; it may leave a connected graph
undecided, never a disconnected one certified.
"""

from __future__ import annotations

import functools
from typing import Callable, Hashable, Iterable

Item = Hashable
# (a, b, mid, ab, ba): see the module docstring.
Pair = tuple[Item, Item, Item | None, bool, bool]
Product = Hashable


def is_compatible_order(
    order: tuple[Item, ...], items: Iterable[Item], pairs: Iterable[Pair]
) -> bool:
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
    """The items sorted, or the cap refusal when there are more than max_items."""
    items = sorted(items)
    if max_items is not None and len(items) > max_items:
        raise ValueError(
            f"{len(items)} reflections exceed the enumeration cap "
            f"{max_items}; raise max_reflections to proceed"
        )
    return items


def capped_orders(
    items: Iterable[Item], pairs: Iterable[Pair], max_items: int | None
) -> list[tuple[Item, ...]]:
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
    each set of placed items (a bitmask) keeps every prefix product
    reaching it with its number of prefixes, one layer of sets at a
    time.  A product is any hashable state, such as a window or a
    window with the verdicts of the steps so far.  Returns {} when no
    arrangement is compatible.  The cap is that of capped_orders.
    """
    bits, next_steps = _placement_rule(_capped(items, max_items), pairs)
    layer = {0: {start: 1}}
    for _ in bits:
        nxt: dict[int, dict[Product, int]] = {}
        for placed, products in layer.items():
            for bit, item in next_steps(placed):
                target = nxt.setdefault(placed | bit, {})
                for x, count in products.items():
                    y = step(x, item)
                    target[y] = target.get(y, 0) + count
        layer = nxt
    return layer.get((1 << len(bits)) - 1, {})


def moves_connected(
    items: Iterable[Item],
    pairs: Iterable[Pair],
    max_items: int | None,
    commute: Callable[[Item, Item], bool],
) -> bool:
    """A certificate that moves join all compatible arrangements.

    The moves are those of the module docstring's move graph: swap two
    adjacent items that commute, or reverse a, mid, b for a pair with
    mid.  True means the graph is connected.  False means undecided:
    the local joins below did not suffice, and the graph may still be
    connected.  No arrangement is listed.  The cap is that of
    capped_orders.

    A placed set is live when it extends to the full set.  At each live
    set S, two first steps a and b toward live sets are joined by a
    square, when a and b commute, a b and b a are both placed from S
    and S + a + b is live, or by a hexagon, for a pair (a, b, mid) with
    a mid b and b mid a both placed from S and S + a + b + mid live.
    A square gives arrangements S a b ... and S b a ... one move apart,
    a hexagon S a mid b ... and S b mid a ....  If the joins connect
    the first steps at every live set, then by induction on the
    unplaced items every two completions of S are joined by moves, so
    at the empty set every two arrangements are.
    """
    pairs = list(pairs)
    bits, next_steps = _placement_rule(_capped(items, max_items), pairs)
    full = (1 << len(bits)) - 1
    # enabled[S]: mask of the items next_steps allows at each reachable S
    enabled: dict[int, int] = {}
    layers = [[0]]
    for _ in range(len(bits) + 1):
        reached: dict[int, None] = {}
        for placed in layers[-1]:
            mask = 0
            for bit, _ in next_steps(placed):
                mask |= bit
                reached[placed | bit] = None
            enabled[placed] = mask
        layers.append(list(reached))
    # live[S]: mask of the first steps from a live S into live sets
    live = {full: 0} if full in enabled else {}
    for layer in reversed(layers):
        for placed in layer:
            steps = 0
            for bit in _bits_of(enabled[placed]):
                if placed | bit in live:
                    steps |= bit
            if steps:
                live[placed] = steps
    commuting = {
        bit: sum(other for y, other in bits.items() if commute(x, y))
        for x, bit in bits.items()
    }
    hexagons = [
        (bits[a], bits[b], bits[mid]) for a, b, mid, _, _ in pairs if mid is not None
    ]
    for placed, steps in live.items():
        if not steps & (steps - 1):  # at most one first step
            continue
        joins = []
        for a in _bits_of(steps):
            for b in _bits_of(steps & commuting[a] & ~(2 * a - 1)):
                if enabled[placed | a] & b and enabled[placed | b] & a and (
                    placed | a | b in live
                ):
                    joins.append(a | b)
        for a, b, mid in hexagons:
            if (
                steps & a
                and steps & b
                and enabled[placed | a] & mid
                and enabled[placed | a | mid] & b
                and enabled[placed | b] & mid
                and enabled[placed | b | mid] & a
                and placed | a | b | mid in live
            ):
                joins.append(a | b)
        if not _joined(steps, joins):
            return False
    return True


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


def _placement_rule(
    items: Iterable[Item], pairs: Iterable[Pair]
) -> tuple[dict[Item, int], Callable[[int], list[tuple[int, Item]]]]:
    """Each item's bit, and next_steps(placed) over index bitmasks.

    Bits follow sorted item order.  next_steps lists (bit, item), in
    that order, for each item that no (mask, pattern) entry of the
    module docstring holds back.  Pairs naming unknown or repeated
    items are rejected.
    """
    ordered = sorted(set(items))
    k = len(ordered)
    pos = {item: p for p, item in enumerate(ordered)}

    # the (mask, pattern) entries of the module docstring, item by item
    forbidden: list[list[tuple[int, int]]] = [[(1 << p, 1 << p)] for p in range(k)]
    for a, b, mid, ab, ba in pairs:
        named = (a, b) if mid is None else (a, b, mid)
        if any(x not in pos for x in named):
            raise ValueError(f"pair {named!r} names unknown items")
        if len(set(named)) != len(named):
            raise ValueError(f"pair {named!r} repeats an item")
        A, B = 1 << pos[a], 1 << pos[b]
        if mid is not None:
            M = 1 << pos[mid]
            forbidden[pos[mid]].append((A | B, 0))
            forbidden[pos[a]].append((B | M, B))
            forbidden[pos[b]].append((A | M, A))
            continue
        if ab or not ba:
            forbidden[pos[b]].append((A, 0))
        if ba or not ab:
            forbidden[pos[a]].append((B, 0))

    steps = [(1 << p, item, forbidden[p]) for p, item in enumerate(ordered)]

    def next_steps(placed: int) -> list[tuple[int, Item]]:
        allowed = []
        for bit, item, rules in steps:
            for mask, pattern in rules:
                if placed & mask == pattern:
                    break
            else:
                allowed.append((bit, item))
        return allowed

    return {item: 1 << p for p, item in enumerate(ordered)}, next_steps


def constrained_orders(
    items: Iterable[Item], pairs: Iterable[Pair]
) -> list[tuple[Item, ...]]:
    """Every arrangement of items that the pair rule allows, in one list.

    Depth first over items in sorted order.  The items that may come
    next depend only on the placed set, so next_steps runs once per set
    under a cache that lives for this call.  Unsatisfiable pairs give
    an empty list.  Pairs naming unknown items are rejected.
    """
    bits, next_steps = _placement_rule(items, pairs)
    listed: list[tuple[Item, ...]] = []
    _extend(functools.cache(next_steps), (1 << len(bits)) - 1, 0, (), listed)
    return listed


def _extend(next_steps, full: int, placed: int, arranged: tuple, listed: list) -> None:
    """Append to listed every arrangement that completes arranged.

    At module level, so no reference cycle keeps the memo alive after
    the listing ends, as a nested function calling itself would.
    """
    if placed == full:
        listed.append(arranged)
        return
    for bit, item in next_steps(placed):
        _extend(next_steps, full, placed | bit, arranged + (item,), listed)
