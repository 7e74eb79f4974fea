from __future__ import annotations

from itertools import permutations

import pytest

from smoothchains.admissible import c23, is_smooth_pattern, reflection_pairs
from smoothchains.ordering_engine import (
    capped_orders,
    fold_orders,
    is_compatible_order,
)
from smoothchains.permutations import all_windows, compose, identity, times_transposition
from smoothchains.type_d import (
    c23_below,
    enumerate_compatible_orders_d,
    reflection_roots,
    reflection_window,
    smooth_elements,
    weyl_group,
)


def _append(prefix, item):
    return prefix + (item,)


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
        expect = [
            p for p in permutations(sorted(items))
            if is_compatible_order(p, items, pairs)
        ]
        assert capped_orders(items, pairs, None) == expect, w


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
        listed = enumerate_compatible_orders_d(A, 4, None)
        arranged += len(listed)
        t = {alpha: reflection_window(alpha, 4) for alpha in reflection_roots(A)}
        found = _products_by_placed_set(listed, lambda x, a: compose(x, t[a]), identity(4))
        assert all(len(xs) == 1 for xs in found.values()), w
    assert arranged == 3305


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
