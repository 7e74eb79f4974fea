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
into a test of which item may be placed next:

  * an item must wait for every item the rule puts before it (a pair
    without mid puts one end before the other, or both ends before each
    other when the rule is unsatisfiable);
  * a mid can be placed only when exactly one end of its pair is down;
  * an end can be placed while the other end is down only if the mid
    is down too.

Every prefix built this way extends to the rule consistently, so a
completed arrangement is compatible and no final filtering pass is
needed.  Placement depends only on the set of items already placed,
so the compatible arrangements are exactly the paths from the empty
set to the full one through such sets.  ``constrained_orders`` yields
every compatible arrangement, depth first over items in sorted order,
so the output sequence is deterministic; ``capped_orders`` lists them,
refusing sets over a cap.  The search keeps, for one call only, a memo
from each placed set to the items that may come next, so the rule runs
once per set rather than once per path through it.  ``fold_orders``,
under the same cap, walks those sets instead of the paths and returns
each product of a compatible arrangement with its number of
arrangements (linear-extension counting over the lattice of ideals, De
Loof, De Meyer and De Baets 2006).  The type D conjecture check and the
type A order verdicts (orders.order_verdicts) use it; order listing,
move-graph connectivity and enumerate_compatible_orders_d still list.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator

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
    ordered, placeable = _placement_rule(_capped(items, max_items), pairs)
    k = len(ordered)
    layer = {0: {start: 1}}
    for _ in range(k):
        nxt: dict[int, dict[Product, int]] = {}
        for placed, products in layer.items():
            for p in range(k):
                if (placed >> p) & 1 or not placeable(p, placed):
                    continue
                item = ordered[p]
                target = nxt.setdefault(placed | (1 << p), {})
                for x, count in products.items():
                    y = step(x, item)
                    target[y] = target.get(y, 0) + count
        layer = nxt
    return layer.get((1 << k) - 1, {})


def _placement_rule(
    items: Iterable[Item], pairs: Iterable[Pair]
) -> tuple[list[Item], Callable[[int, int], bool]]:
    """The items sorted, and placeable(p, placed) over index bitmasks.

    placeable applies the placement rules of the module docstring.
    Pairs naming unknown or repeated items are rejected.
    """
    ordered = sorted(set(items))
    k = len(ordered)
    pos = {item: p for p, item in enumerate(ordered)}

    need_before = [0] * k  # bitmask of items that must precede item p
    # For each item, the roles it plays in pairs with a mid: ("mid", a, b)
    # or ("end", other_end, mid), all as indices.
    roles: list[list[tuple[str, int, int]]] = [[] for _ in range(k)]
    for a, b, mid, ab, ba in pairs:
        named = (a, b) if mid is None else (a, b, mid)
        if any(x not in pos for x in named):
            raise ValueError(f"pair {named!r} names unknown items")
        if len(set(named)) != len(named):
            raise ValueError(f"pair {named!r} repeats an item")
        ia, ib = pos[a], pos[b]
        if mid is not None:
            im = pos[mid]
            roles[im].append(("mid", ia, ib))
            roles[ia].append(("end", ib, im))
            roles[ib].append(("end", ia, im))
            continue
        if ab or not ba:
            need_before[ib] |= 1 << ia
        if ba or not ab:
            need_before[ia] |= 1 << ib

    def placeable(p: int, placed: int) -> bool:
        if need_before[p] & ~placed:
            return False
        for role, x, y in roles[p]:
            if role == "mid":
                if ((placed >> x) & 1) == ((placed >> y) & 1):
                    return False
            else:  # end: x is the other end, y the middle
                if (placed >> x) & 1 and not (placed >> y) & 1:
                    return False
        return True

    return ordered, placeable


def constrained_orders(
    items: Iterable[Item], pairs: Iterable[Pair]
) -> Iterator[tuple[Item, ...]]:
    """Yield every arrangement of items that the pair rule allows.

    Depth first, one recursion level per placed item; the items that
    may come next depend only on the placed set, so they are found once
    per set and kept for this call.  Unsatisfiable pairs simply yield
    nothing.  Pairs naming unknown items are rejected.
    """
    ordered, placeable = _placement_rule(items, pairs)
    k = len(ordered)
    # placed bitmask -> (bit, item) for each item that may come next
    steps: dict[int, list[tuple[int, Item]]] = {}

    def steps_from(placed: int) -> list[tuple[int, Item]]:
        found = steps.get(placed)
        if found is None:
            found = steps[placed] = [
                (1 << p, ordered[p]) for p in range(k)
                if not (placed >> p) & 1 and placeable(p, placed)
            ]
        return found

    return _arrangements(steps_from, (1 << k) - 1, 0, ())


def _arrangements(
    steps_from: Callable[[int], list], full: int, placed: int, arranged: tuple
) -> Iterator[tuple[Item, ...]]:
    """Every arrangement that completes arranged, whose items are placed.

    At module level, so no reference cycle keeps the memo alive after
    the listing ends, as a nested function calling itself would.
    """
    if placed == full:
        yield arranged
        return
    for bit, item in steps_from(placed):
        yield from _arrangements(steps_from, full, placed | bit, arranged + (item,))
