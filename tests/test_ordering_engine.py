from __future__ import annotations

import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from oracles import d_label_ideals, ground_ideals, moves_by_rule
from smoothchains import ordering_engine
from smoothchains.admissible import c23, is_smooth_pattern, make_set, reflection_pairs
from smoothchains.ordering_engine import (
    Verdict,
    capped_orders,
    chain_verdicts,
    connected_by_moves,
    connectivity,
    fold_orders,
    is_compatible_order,
    moves,
    moves_connected,
)
from smoothchains.orders import order_verdicts
from smoothchains.permutations import all_windows, compose, identity, times_transposition
from smoothchains.type_d import (
    c23_below,
    c23_labels,
    enumerate_compatible_orders_d,
    reflection_window,
    roots_and_pairs,
    smooth_elements,
    weyl_group,
)


def _append(prefix, item):
    return prefix + (item,)


def _checked_permutations(items, pairs):
    return [p for p in permutations(sorted(items)) if is_compatible_order(p, items, pairs)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_listing_is_the_checked_permutations_in_order(n):
    # the search yields exactly the compatible arrangements, in the
    # lexicographic order of the sorted items
    for w in all_windows(n):
        if not is_smooth_pattern(w):
            continue
        A = c23(w)
        items, pairs = A.reflections, list(reflection_pairs(A))
        if len(items) > 7:
            continue
        assert capped_orders(items, pairs, None) == _checked_permutations(items, pairs), w


@pytest.mark.parametrize("n, checked", [(4, 66), (5, 676)])
def test_listing_is_the_checked_permutations_on_every_type_a_ideal(n, checked):
    # admissible or not (44 of the 66 S4 ideals are not), on every ideal
    # with at most six reflections: pairs may be unsatisfiable or
    # placements blocked, and the compiled rule must still give exactly
    # the arrangements the pair rule allows
    found = 0
    for I in ground_ideals(n):
        A = make_set(n, I)
        items, pairs = A.reflections, list(reflection_pairs(A))
        if len(items) > 6:
            continue
        assert capped_orders(items, pairs, None) == _checked_permutations(items, pairs), I
        found += 1
    assert found == checked


def test_listing_is_the_checked_permutations_on_unions_of_two_d3_ideals():
    group = weyl_group(3)
    ideals = d_label_ideals(group)
    sets = [ideals[a] | ideals[b] for a, b in combinations(c23_labels(3), 2)]
    assert len(sets) == 91
    for A in sets:
        roots, pairs = roots_and_pairs(group, group.label_mask(A))
        assert capped_orders(roots, pairs, None) == _checked_permutations(roots, pairs), A


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_fold_that_records_the_order_gives_back_the_listing(n):
    # with step = append, each arrangement is its own product, so the
    # fold must return exactly the listed arrangements, once each
    for w in all_windows(n):
        if not is_smooth_pattern(w):
            continue
        A = c23(w)
        listed = capped_orders(A.reflections, reflection_pairs(A), None)
        folded = fold_orders(A.reflections, reflection_pairs(A), None, _append, ())
        assert folded == {order: 1 for order in listed}, w


@pytest.mark.parametrize("n", [3, 4, 5])
def test_fold_counts_products_of_smooth_windows(n):
    # every compatible arrangement of the reflections below a smooth w
    # multiplies back to w
    for w in all_windows(n):
        if not is_smooth_pattern(w):
            continue
        A = c23(w)
        listed = capped_orders(A.reflections, reflection_pairs(A), None)
        folded = fold_orders(
            A.reflections, reflection_pairs(A), None, times_transposition, identity(n)
        )
        assert folded == {w: len(listed)}, w


def _products_by_placed_set(orders, step, start):
    """Each placed set of the listed arrangements -> its prefix products."""
    found = {}
    for order in orders:
        x = start
        for p, item in enumerate(order):
            x = step(x, item)
            found.setdefault(frozenset(order[: p + 1]), set()).add(x)
    return found


def test_the_placed_set_alone_determines_the_prefix_product():
    # the fold keeps products per placed set; on smooth elements each set
    # carries exactly one, in type A (S1-S5) and type D (D4)
    arranged = 0
    for n in range(1, 6):
        for w in all_windows(n):
            if not is_smooth_pattern(w):
                continue
            A = c23(w)
            listed = capped_orders(A.reflections, reflection_pairs(A), None)
            arranged += len(listed)
            found = _products_by_placed_set(listed, times_transposition, identity(n))
            assert all(len(xs) == 1 for xs in found.values()), w
    assert arranged == 1581

    group, arranged = weyl_group(4), 0
    for w in smooth_elements(4):
        A = c23_below(group, w)
        listed = enumerate_compatible_orders_d(group, A, None)
        arranged += len(listed)
        roots, _ = roots_and_pairs(group, group.label_mask(A))
        t = {alpha: reflection_window(alpha, 4) for alpha in roots}
        found = _products_by_placed_set(listed, lambda x, a: compose(x, t[a]), identity(4))
        assert all(len(xs) == 1 for xs in found.values()), w
    assert arranged == 3305


def _path_steps(x, z, t):
    # x records the path, so every placed set of two or more items is
    # reached by as many products as orders of its items
    return x + (t,), z, (len(x) + t) % 3 != 0, t != 2 or not x


def _set_steps(x, z, t):
    # x counts the placed items, one product per set, but z records the path
    return x + 1, z + (t,), len(z) != t, z[-1:] != (3,)


def _per_state(items, pairs, steps, start, start_z, target):
    # fold_orders' Counter over (x, z, prefix ok, suffix ok) states
    def chain_step(state, t):
        x, z, prefix_ok, suffix_ok = state
        xt, zt, up, down = steps(x, z, t)
        return xt, zt, prefix_ok and up, suffix_ok and down

    verdicts = Counter()
    folded = fold_orders(items, pairs, None, chain_step, (start, start_z, True, True))
    for (x, _, prefix_ok, suffix_ok), count in folded.items():
        verdicts[Verdict(x == target, prefix_ok, suffix_ok)] += count
    return verdicts


def _walked(items, pairs, steps, start, start_z, target):
    # the verdicts of each listed arrangement, walked one at a time
    verdicts = Counter()
    for order in capped_orders(items, pairs, None):
        x, z, prefix_ok, suffix_ok = start, start_z, True, True
        for t in order:
            x, z, up, down = steps(x, z, t)
            prefix_ok, suffix_ok = prefix_ok and up, suffix_ok and down
        verdicts[Verdict(x == target, prefix_ok, suffix_ok)] += 1
    return verdicts


@pytest.mark.parametrize(
    "steps, start, start_z, target",
    [(_path_steps, (), 0, (0, 1, 3, 2)), (_set_steps, 0, (), 4)],
)
def test_a_second_product_at_a_placed_set_folds_per_state(monkeypatch, steps, start, start_z, target):
    # products that depend on the path, not on the placed set alone:
    # the fold must fall back to one state per (x, z, prefix ok, suffix
    # ok) and give fold_orders' per-state Counter
    items = [0, 1, 2, 3]
    pairs = [(0, 1, None, True, False)]  # 0 before 1: 12 arrangements
    refolds = []
    real = ordering_engine._per_state_verdicts

    def spy(*args):
        refolds.append(args)
        return real(*args)

    monkeypatch.setattr(ordering_engine, "_per_state_verdicts", spy)
    found = chain_verdicts(items, pairs, None, steps, start, start_z, target)
    assert len(refolds) == 1
    assert found == _per_state(items, pairs, steps, start, start_z, target)
    assert found == _walked(items, pairs, steps, start, start_z, target)
    assert sum(found.values()) == 12 and len(found) > 2


def test_smooth_elements_fold_one_product_per_placed_set(monkeypatch):
    # on S4 the per-state fold is never needed, and the counts split by
    # verdict agree with the per-state fold
    def refold(*args):
        raise AssertionError("a second product reached a placed set")

    monkeypatch.setattr(ordering_engine, "_per_state_verdicts", refold)
    for w in all_windows(4):
        if is_smooth_pattern(w):
            assert set(order_verdicts(w, None)) == {Verdict(True, True, True)}, w


def test_fold_over_no_items_is_the_start():
    assert capped_orders([], [], 0) == [()]
    assert fold_orders([], [], 0, _append, "start") == {"start": 1}


@pytest.mark.parametrize(
    "pairs",
    [
        [("a", "b", None, False, False)],  # neither product, no mid
        [("a", "b", None, True, True)],  # both products, no mid
        [("a", "b", None, True, False), ("b", "c", None, True, False),
         ("a", "c", None, False, True)],  # a precedence cycle
    ],
)
def test_fold_of_unsatisfiable_pairs_is_empty(pairs):
    items = ["a", "b", "c"]
    assert capped_orders(items, pairs, None) == []
    assert fold_orders(items, pairs, None, _append, ()) == {}


def test_fold_refuses_over_the_cap_as_listing_does():
    items = ["a", "b", "c"]
    with pytest.raises(ValueError) as listed:
        capped_orders(items, [], 2)
    with pytest.raises(ValueError) as folded:
        fold_orders(items, [], 2, _append, ())
    assert str(folded.value) == str(listed.value)
    assert str(folded.value).startswith("3 reflections exceed the enumeration cap 2")


def test_a_long_forced_chain_lists_and_folds_to_one_arrangement():
    # 200 items that no-mid pairs force into one chain: the listing
    # recurses once per item, three times the 66 reflections below the
    # longest element of degree 12, and still below the recursion limit
    items = list(range(200))
    pairs = [(p, p + 1, None, True, False) for p in range(199)]
    assert capped_orders(items, pairs, None) == [tuple(items)]
    assert fold_orders(items, pairs, None, _append, ()) == {tuple(items): 1}


def _never(a, b):
    return False


def _always(a, b):
    return True


def test_certificate_leaves_a_graph_without_moves_undecided():
    # a b and b a are the two arrangements; only a square joins them
    assert capped_orders("ab", [], None) == [("a", "b"), ("b", "a")]
    assert moves_connected("ab", [], None, _always) == (2, True)
    assert moves_connected("ab", [], None, _never) == (2, False)


def test_certificate_joins_the_ends_of_a_pair_by_a_hexagon():
    # a mid b and b mid a, one reversal apart
    pairs = [("a", "b", "m", False, False)]
    assert capped_orders("abm", pairs, None) == [("a", "m", "b"), ("b", "m", "a")]
    assert moves_connected("abm", pairs, None, _never) == (2, True)


def test_certificate_over_no_arrangement_is_vacuous_and_capped():
    unsatisfiable = [("a", "b", None, True, True)]
    assert capped_orders("ab", unsatisfiable, None) == []
    assert moves_connected("ab", unsatisfiable, None, _never) == (0, True)
    with pytest.raises(ValueError) as listed:
        capped_orders("abc", [], 2)
    with pytest.raises(ValueError) as certified:
        moves_connected("abc", [], 2, _never)
    assert str(certified.value) == str(listed.value)


def _joined_by_moves(arrangements, pairs, commute) -> bool:
    # search over the listed arrangements: swap adjacent commuting
    # items, reverse a, mid, b of a pair with mid
    unreached = set(arrangements)
    stack = [unreached.pop()] if unreached else []
    while stack:
        for y in moves_by_rule(stack.pop(), pairs, commute):
            if y in unreached:
                unreached.remove(y)
                stack.append(y)
    return not unreached


def test_certificate_never_certifies_a_disconnected_graph():
    # seeded random pair sets and commute rules on three to five items,
    # satisfiable or not: a certified graph is connected, and the
    # certificate decides every connected one of these
    rng = random.Random(5)
    seen = Counter()
    for _ in range(1000):
        items = "abcde"[: rng.choice([3, 4, 5])]
        pairs = []
        for a, b in combinations(items, 2):
            if rng.random() < 0.5:
                others = [c for c in items if c not in (a, b)]
                if rng.random() < 0.4:
                    pairs.append((a, b, rng.choice(others), False, False))
                else:
                    ab = rng.random() < 0.5
                    pairs.append((a, b, None, ab, not ab))
        commuting = {frozenset(p) for p in combinations(items, 2) if rng.random() < 0.5}

        def commute(a, b):
            return frozenset((a, b)) in commuting

        listed = capped_orders(items, pairs, None)
        count, certified = moves_connected(items, pairs, None, commute)
        assert count == len(listed), (items, pairs)
        connected = _joined_by_moves(listed, pairs, commute)
        assert connected or not certified, (items, pairs, commuting)
        # the exact verdict and the engine's search and moves agree with
        # the reference, certified or not
        assert connectivity(items, pairs, None, commute) == (count, connected)
        assert connected_by_moves(listed, pairs, commute) == connected
        for x in listed:
            assert list(moves(x, pairs, commute)) == moves_by_rule(x, pairs, commute)
        seen[certified, connected] += 1
    assert seen == {(True, True): 626, (False, False): 374}
