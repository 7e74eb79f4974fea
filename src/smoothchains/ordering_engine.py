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
rule on one arrangement.  ``_reach`` compiles the pairs once: each item
is placed once, and keeps (mask, pattern) entries over the bitmask of
placed items; it may not be placed while placed & mask == pattern for
one of them.  With A, B, M the bits of a, b and mid:

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
set to the full one through such sets.  ``_reach`` yields each set
reachable from the empty one with its allowed steps, one layer of sets
at a time, to three consumers.  ``constrained_orders`` follows the
paths depth first, over items in sorted order, and appends each
completed arrangement to one list, so the output sequence is
deterministic; ``capped_orders`` is that listing, refusing sets over a
cap.  ``fold_orders``, under the same cap, walks the sets instead of
the paths and returns each product of a compatible arrangement with its
number of arrangements (linear-extension counting over the lattice of
ideals, De Loof, De Meyer and De Baets 2006).  The type D conjecture
check and the type A order verdicts (orders.order_verdicts) use it;
order listing and enumerate_compatible_orders_d still list.

The move graph joins two compatible arrangements one move apart
(``moves``): a swap of two adjacent items that commute, a rule the
caller gives, or the reversal of three consecutive items a, mid, b of
a pair with mid.  ``_move_rule`` reads both off (pairs, commute), once
per set for the certificate and the searches.  ``moves_connected``,
the third consumer of ``_reach``, counts the paths and certifies the
graph connected from squares and hexagons at each placed set, the
local confluence behind Tits' word property and the connectivity of
the higher Bruhat order B(n, 2) (Manin and Schechtman 1989); it may
leave a connected graph undecided, never a disconnected one certified.
``connectivity`` is exact: where the certificate is undecided it lists
under the same cap and searches (``connected_by_moves``).
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator

Item = Hashable
# (a, b, mid, ab, ba): see the module docstring.
Pair = tuple[Item, Item, Item | None, bool, bool]
Arrangement = tuple[Item, ...]
Commute = Callable[[Item, Item], bool]
Product = Hashable


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
    each set of placed items (a bitmask) keeps every prefix product
    reaching it with its number of prefixes, and hands them on when
    _reach yields it, so only the sets of the current layer and the
    next hold products.  A product is any hashable state, such as a
    window or a window with the verdicts of the steps so far.  Returns
    {} when no arrangement is compatible.  The cap is that of
    capped_orders.
    """
    ordered = _capped(items, max_items)
    full = (1 << len(ordered)) - 1
    at: dict[int, dict[Product, int]] = {0: {start: 1}}
    for placed, steps in _reach(ordered, pairs):
        products = at.pop(placed)
        for bit, item in steps:
            target = at.setdefault(placed | bit, {})
            for x, count in products.items():
                y = step(x, item)
                target[y] = target.get(y, 0) + count
    # the full set, when reached, is the last set _reach yields
    return products if placed == full else {}


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
    steps = {placed: sum(bit for bit, _ in allowed) for placed, allowed in _reach(ordered, pairs)}
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


def _reach(
    ordered: list[Item], pairs: Iterable[Pair]
) -> Iterator[tuple[int, list[tuple[int, Item]]]]:
    """Each placed set reachable from the empty one, with its allowed steps.

    ordered holds distinct items; item p has bit 1 << p.  The sets come
    one layer (number of placed items) at a time, each with the
    (bit, item) steps, in item order, of the unplaced items that no
    (mask, pattern) entry of the module docstring holds back.  Pairs
    naming unknown or repeated items are rejected before the first set.
    """
    pos = {item: p for p, item in enumerate(ordered)}

    # the (mask, pattern) entries of the module docstring, item by item
    forbidden: list[list[tuple[int, int]]] = [[] for _ in ordered]
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

    rules = [(1 << p, item, forbidden[p]) for item, p in pos.items()]
    layer = {0: None}
    while layer:
        reached: dict[int, None] = {}
        for placed in layer:
            steps = []
            for bit, item, entries in rules:
                if placed & bit:
                    continue
                for mask, pattern in entries:
                    if placed & mask == pattern:
                        break
                else:
                    steps.append((bit, item))
                    reached[placed | bit] = None
            yield placed, steps
        layer = reached


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
    _extend(dict(_reach(ordered, pairs)), (1 << len(ordered)) - 1, 0, (), listed)
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
