from __future__ import annotations

import doctest
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smoothchains.type_d as type_d_mod
from oracles import (
    act_on_root,
    all_roots,
    d_admissibility_violation_by_labels,
    d_cover_pairs_oracle,
    d_downsets,
    d_label_ideals,
    d_reduced_word_counts,
    leading_simple,
    length_by_roots,
    root_reflection_image,
    simple_precedes,
    sp_inverse,
)
from smoothchains.admissible import c23, is_smooth_pattern
from smoothchains.ordering_engine import is_compatible_order
from smoothchains.orders import enumerate_compatible_orders
from smoothchains.permutations import all_windows, compose, identity
from smoothchains.type_d import (
    admissibility_violation_d,
    c23_below,
    c23_labels,
    check_element,
    embed_window,
    enumerate_compatible_orders_d,
    is_positive_root,
    label_text,
    parse_root,
    positive_roots,
    product_of_root_order,
    realize_label,
    reflection_roots,
    reflection_window,
    root_poset_covers,
    root_text,
    simple_order_config,
    simple_rank,
    simple_roots,
    smooth_elements,
    sp_parse,
    sp_text,
    summable_pairs,
    tuple_add,
    validate_signed_window,
    verify_conjecture_d,
    weyl_group,
)


def signed_windows(n: int):
    # permutation of absolute values plus an even set of sign flips
    return st.tuples(
        st.permutations(list(range(1, n + 1))),
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=0,
            max_size=n,
            unique=True,
        ).filter(lambda f: len(f) % 2 == 0),
    ).map(
        lambda args: tuple(
            (-v if i in set(args[1]) else v)
            for i, v in enumerate(args[0])
        )
    )


def test_module_doctests_pass():
    result = doctest.testmod(type_d_mod)
    assert result.failed == 0
    assert result.attempted > 0


# ---------------------------------------------------------------- roots

def test_root_counts():
    for n in range(2, 7):
        assert len(positive_roots(n)) == n * (n - 1)
        assert len(simple_roots(n)) == n
        assert len(all_roots(n)) == 2 * n * (n - 1)


def test_simple_roots_listing():
    assert simple_roots(3) == ((-1, 1, 0), (0, -1, 1), (1, 1, 0))
    for a in simple_roots(5):
        assert is_positive_root(a)


def test_root_text_round_trip():
    for n in range(2, 6):
        for a in positive_roots(n):
            assert parse_root(root_text(a), n) == a
    assert root_text((-1, 0, 1)) == "e3-e1"
    assert root_text((1, 1, 0)) == "e2+e1"


def test_root_text_rejects_non_roots():
    for bad in [(1, 0, 0), (2, 1, 0), (-1, -1, 0)]:
        with pytest.raises(ValueError):
            root_text(bad)
    for bad in ["e1-e3", "e9+e1", "e3-e1-e2", "eX-e1", "e3+-e1", "e3", "e3-1", ""]:
        with pytest.raises(ValueError, match="bad root text"):
            parse_root(bad, 3)


@pytest.mark.parametrize("n", range(2, 6))
def test_root_poset_covers_are_the_simple_differences(n):
    simples = set(simple_roots(n))
    expect = sorted(
        (a, b)
        for a in positive_roots(n)
        for b in positive_roots(n)
        if tuple(y - x for x, y in zip(a, b)) in simples
    )
    assert list(root_poset_covers(n)) == expect


def test_root_poset_covers_rank3_golden():
    got = {
        (root_text(a), root_text(b)) for a, b in root_poset_covers(3)
    }
    assert got == {
        ("e2-e1", "e3-e1"),
        ("e3-e2", "e3-e1"),
        ("e3-e2", "e3+e1"),
        ("e2+e1", "e3+e1"),
        ("e3+e1", "e3+e2"),
        ("e3-e1", "e3+e2"),
    }


# ---------------------------------------------------------------- f map

def test_leading_simple_goldens():
    assert leading_simple(parse_root("e3-e1", 3)) == parse_root("e3-e2", 3)
    assert leading_simple(parse_root("e2+e1", 3)) == parse_root("e2+e1", 3)
    assert leading_simple(parse_root("e4+e2", 4)) == parse_root("e4-e3", 4)
    assert leading_simple(parse_root("e2-e1", 4)) == parse_root("e2-e1", 4)


def test_leading_simple_lands_in_simples_and_fixes_them():
    for n in range(2, 7):
        simples = set(simple_roots(n))
        for a in positive_roots(n):
            assert leading_simple(a) in simples
        for a in simples:
            assert leading_simple(a) == a


@pytest.mark.parametrize("n", range(2, 7))
def test_summable_roots_have_distinct_leading_simples(n):
    pos = positive_roots(n)
    pos_set = set(pos)
    for a, b in itertools.combinations(pos, 2):
        if tuple_add(a, b) in pos_set:
            assert leading_simple(a) != leading_simple(b), (a, b)
            # so the comparison below never hits the incomparable pair
            assert simple_rank(leading_simple(a)) != simple_rank(
                leading_simple(b)
            )


def test_simple_precedes_ordering():
    e21, e32, e21p = simple_roots(3)
    assert simple_precedes(e21, e32)
    assert simple_precedes(e21p, e32)
    assert not simple_precedes(e32, e21)
    assert not simple_precedes(e21, e21)
    with pytest.raises(ValueError):
        simple_precedes(e21, e21p)


def test_simple_order_config_text():
    cfg = simple_order_config(4)
    assert cfg[0] == "e2-e1 rank 2"
    assert cfg[-1] == "e2+e1 rank 2"
    assert len(cfg) == 4


# ------------------------------------------------------- signed windows

def test_validate_signed_window():
    assert validate_signed_window((-2, -1, 3)) == (-2, -1, 3)
    for bad in [(1, 1, -2), (0, 1, 2), (-1, 2, 3), (2, 3, 1, -4)]:
        with pytest.raises(ValueError):
            validate_signed_window(bad)


def test_sp_text_round_trip():
    for w in [(-2, -1, 3, 4), (1, 2, 3, 4), (-4, 3, -2, 1)]:
        assert sp_parse(sp_text(w)) == w
    with pytest.raises(ValueError):
        sp_parse("1,x,3")


@given(signed_windows(4), signed_windows(4), signed_windows(4))
@settings(max_examples=100)
def test_sp_group_laws(u, v, w):
    assert compose(compose(u, v), w) == compose(u, compose(v, w))
    e = identity(4)
    assert compose(u, sp_inverse(u)) == e
    assert compose(sp_inverse(u), u) == e


@given(signed_windows(4))
@settings(max_examples=100)
def test_action_on_roots_is_a_homomorphism(w):
    for alpha in positive_roots(4):
        img = act_on_root(w, alpha)
        assert img in all_roots(4)
        assert act_on_root(sp_inverse(w), img) == alpha


def test_reflections_are_involutions_matching_the_formula():
    for n in (3, 4):
        e = identity(n)
        for alpha in positive_roots(n):
            t = reflection_window(alpha, n)
            assert compose(t, t) == e
            # action agrees with the euclidean reflection formula
            for beta in positive_roots(n):
                assert act_on_root(t, beta) == root_reflection_image(
                    alpha, beta
                )


def test_reflection_window_goldens():
    assert reflection_window(parse_root("e2+e1", 4), 4) == (-2, -1, 3, 4)
    assert reflection_window(parse_root("e3-e1", 4), 4) == (3, 2, 1, 4)
    with pytest.raises(ValueError):
        reflection_window((1, 0, 0), 3)


def test_length_by_roots_goldens():
    assert length_by_roots(identity(4)) == 0
    assert length_by_roots((-2, -1, 3, 4)) == 1
    assert length_by_roots((-1, -2, -3, -4)) == 12


# ------------------------------------------------------------ the group

def test_group_sizes():
    assert len(weyl_group(2)) == 4
    assert len(weyl_group(3)) == 24
    assert len(weyl_group(4)) == 192
    assert len(weyl_group(5)) == 1920


def test_group_rank_limit_guard():
    with pytest.raises(ValueError):
        weyl_group(6)


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_word_length_grading_matches_root_count(rank):
    # the listing is every even-signed window, sorted by (length, window)
    group = weyl_group(rank)
    assert len(group) == len(group.index) == 2 ** (rank - 1) * math.factorial(rank)
    ranked = list(zip(group.lengths, group.windows))
    assert ranked == sorted(ranked)
    for w in group.windows:
        assert group.length_of(w) == length_by_roots(w)
    assert group.max_length == rank * (rank - 1)


def test_length_symmetries_on_d4():
    group = weyl_group(4)
    refls = [reflection_window(a, 4) for a in positive_roots(4)]
    for w in group.windows:
        assert group.length_of(w) == group.length_of(sp_inverse(w))
        for t in refls:
            assert group.length_of(compose(w, t)) != group.length_of(w)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_bruhat_leq_matches_reachability_oracle(rank):
    group = weyl_group(rank)
    down = d_downsets(group)
    for y in group.windows:
        ds = down[y]
        for x in group.windows:
            assert group.leq(x, y) == (x in ds), (x, y)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_cover_pairs_match_oracle(rank):
    group = weyl_group(rank)
    assert set(group.cover_pairs()) == d_cover_pairs_oracle(group)


def test_interval_rank_counts_bookkeeping():
    group = weyl_group(3)
    down = d_downsets(group)
    for w in group.windows:
        counts = group.interval_rank_counts(w)
        assert counts[0] == 1
        assert counts[-1] == 1
        assert sum(counts) == len(down[w])


def test_smooth_counts():
    assert sum(weyl_group(2).is_smooth(w) for w in weyl_group(2).windows) == 4
    assert sum(weyl_group(3).is_smooth(w) for w in weyl_group(3).windows) == 22
    assert sum(weyl_group(4).is_smooth(w) for w in weyl_group(4).windows) == 108


def test_smooth_elements_list_the_smooth_ones_by_id():
    for rank, count in ((2, 4), (3, 22), (4, 108)):
        group = weyl_group(rank)
        smooth = smooth_elements(rank)
        assert len(smooth) == count
        assert all(group.is_smooth(w) for w in smooth)
        ids = [group.index[w] for w in smooth]
        assert ids == sorted(ids)


def test_longest_element_d4_is_smooth():
    group = weyl_group(4)
    w0 = (-1, -2, -3, -4)
    assert group.length_of(w0) == 12
    assert group.is_smooth(w0)


# ---------------------------------------------------- type A embedding

@pytest.mark.parametrize("n", [2, 3, 4])
def test_embedded_permutations_agree_on_smoothness(n):
    group = weyl_group(n)
    for w in all_windows(n):
        w = tuple(w)
        assert group.is_smooth(embed_window(w)) == is_smooth_pattern(w), w


def test_embed_window_validates():
    assert embed_window((2, 1, 3)) == (2, 1, 3)
    with pytest.raises(ValueError):
        embed_window((2, -1, 3))


def test_embedded_smooth_s4_elements_match_type_a_order_counts():
    # Both types share one pair rule, so with T(i,j) read as e_j - e_i
    # every smooth window of S4 and S5 has the same compatible orders in
    # type A and, embedded, in type D.
    for n, expected_total in ((4, 54), (5, 1517)):
        group = weyl_group(n)
        total = 0
        for w in all_windows(n):
            w = tuple(w)
            if not is_smooth_pattern(w):
                continue
            type_a = {
                tuple(parse_root(f"e{j}-e{i}", n) for i, j in order)
                for order in enumerate_compatible_orders(c23(w))
            }
            embedded = embed_window(w)
            report = check_element(group, embedded)
            assert report.ok, w
            assert report.orders_found == len(type_a), w
            A = c23_below(group, embedded)
            assert set(enumerate_compatible_orders_d(A, n)) == type_a, w
            total += len(type_a)
        assert total == expected_total


# ------------------------------------------------------ labels and sets

def test_label_counts():
    assert len(c23_labels(2)) == 2
    assert len(c23_labels(3)) == 14
    assert len(c23_labels(4)) == 44


def test_label_realizations_are_distinct():
    for n in (2, 3, 4):
        labels = c23_labels(n)
        windows = {realize_label(lab, n) for lab in labels}
        assert len(windows) == len(labels)


def test_label_text_goldens():
    assert label_text(("t", (-1, 0, 1))) == "t[e3-e1]"
    a, b = parse_root("e2-e1", 3), parse_root("e3-e2", 3)
    assert label_text(("tt", a, b)) == "t[e2-e1]t[e3-e2]"


def test_c23_below_extremes():
    group = weyl_group(3)
    assert c23_below(group, identity(3)) == frozenset()
    t = ("t", parse_root("e2-e1", 3))
    assert c23_below(group, realize_label(t, 3)) == {t}
    w0 = (-1, -2, -3)  # odd flips: not an element
    with pytest.raises(KeyError):
        group.length_of(w0)


def test_full_lower_sets_below_smooth_elements_are_admissible():
    for rank in (2, 3, 4):
        group = weyl_group(rank)
        for w in group.windows:
            if group.is_smooth(w):
                assert admissibility_violation_d(group, c23_below(group, w)) is None, w


def test_admissibility_violation_reports_closure():
    group = weyl_group(3)
    top = ("tt", parse_root("e2-e1", 3), parse_root("e3-e2", 3))
    v = admissibility_violation_d(group, frozenset([top]))
    assert v is not None and v.axiom == "closure"
    assert "closure" in v.describe()


def test_admissibility_violation_reports_reflection_pair():
    group = weyl_group(3)
    a, b = parse_root("e2-e1", 3), parse_root("e3-e2", 3)
    v = admissibility_violation_d(group, frozenset([("t", a), ("t", b)]))
    assert v is not None and v.axiom == "reflection-pair"


@pytest.mark.parametrize("rank, violating", [(2, 0), (3, 26), (4, 527), (5, 1087)])
def test_pair_axioms_match_the_label_scan(rank, violating):
    # the pair-based check gives the label scan's axiom and witness on
    # the set below every element, and at ranks 3 and 4 on every union
    # of two principal label ideals
    group = weyl_group(rank)
    sets = [c23_below(group, w) for w in group.windows]
    if rank in (3, 4):
        ideals = d_label_ideals(group)
        sets += [
            ideals[a] | ideals[b]
            for a, b in itertools.combinations(c23_labels(rank), 2)
        ]
    found = 0
    for A in sets:
        v = admissibility_violation_d(group, A)
        expect = d_admissibility_violation_by_labels(group, A)
        assert (v and (v.axiom, v.witness)) == expect, sorted(A)
        found += v is not None
    assert found == violating


# ------------------------------------------------------- compatibility

def test_compatible_orders_verify_products_on_d3():
    group = weyl_group(3)
    n = 3
    for w in group.windows:
        if not group.is_smooth(w):
            continue
        A = c23_below(group, w)
        orders = enumerate_compatible_orders_d(A, n)
        assert orders, w
        for order in orders:
            pairs = summable_pairs(A, n)
            assert is_compatible_order(order, reflection_roots(A), pairs)
            assert product_of_root_order(order, n) == w


def test_is_compatible_d_validates_membership():
    group = weyl_group(3)
    A = c23_below(group, (-2, -1, 3))
    with pytest.raises(ValueError):
        is_compatible_order(
            (parse_root("e3-e1", 3),), reflection_roots(A), summable_pairs(A, 3)
        )


def test_enumeration_cap_d():
    group = weyl_group(4)
    A = c23_below(group, (-1, -2, -3, -4))
    with pytest.raises(ValueError, match="cap"):
        enumerate_compatible_orders_d(A, 4, max_reflections=10)
    assert len(reflection_roots(A)) == 12


# ---------------------------------------------------------- conjecture

def test_conjecture_small_ranks():
    r2 = verify_conjecture_d(2)
    assert r2.ok and r2.checked == 4
    assert sum(e.orders_found for e in r2.elements) == 5
    r3 = verify_conjecture_d(3)
    assert r3.ok and r3.checked == 22
    assert sum(e.orders_found for e in r3.elements) == 54


def test_conjecture_rank4_holds():
    report = verify_conjecture_d(4)
    assert report.group_size == 192
    assert report.smooth_count == 108
    assert report.checked == 108
    assert report.counterexamples == ()
    assert report.ok
    assert sum(e.orders_found for e in report.elements) == 3305
    assert report.product_pair_rule == "same-decomposition orientations"
    d = report.to_dict()
    assert d["ok"] is True and d["counterexamples"] == []


def test_conjecture_rank4_longest_element_order_count():
    group = weyl_group(4)
    assert check_element(group, (-1, -2, -3, -4)).orders_found == 2316


@pytest.mark.parametrize("rank, wrong_products", [(2, 0), (3, 1), (4, 22)])
def test_check_element_fold_matches_listing_on_every_element(rank, wrong_products):
    # the fold must count and multiply exactly what listing gives, smooth
    # or not; non-smooth elements supply the products_ok=False cases
    group = weyl_group(rank)
    wrong = 0
    for w in group.windows:
        orders = enumerate_compatible_orders_d(c23_below(group, w), rank)
        products_ok = all(product_of_root_order(o, rank) == w for o in orders)
        report = check_element(group, w)
        assert (report.orders_found, report.products_ok) == (
            len(orders),
            products_ok,
        ), w
        wrong += not products_ok
    assert wrong == wrong_products


def test_sharp_non_smooth_d4_element_has_no_compatible_order():
    # (-1,-3,-2,-4) is the one non-smooth element of D4 with as many
    # reflections below it as its length, so a reflection count does not
    # set it apart; the product-pair axiom does, and no arrangement of
    # its reflections is compatible
    group = weyl_group(4)
    sharp = [
        w for w in group.windows
        if not group.is_smooth(w)
        and len(reflection_roots(c23_below(group, w))) == group.length_of(w)
    ]
    w = (-1, -3, -2, -4)
    assert sharp == [w] and group.length_of(w) == 11
    report = check_element(group, w, None)
    assert report.admissibility_note == (
        "axiom product-pair fails at t[e4-e1]t[e3+e1], t[e3+e1]t[e4-e1], t[e4+e3]"
    )
    assert report.orders_found == 0


@pytest.mark.parametrize(
    "rank, w0, words",
    [(4, (-1, -2, -3, -4), 2316), (5, (1, -2, -3, -4, -5), 12985968)],
)
def test_longest_element_orders_match_reduced_word_count(rank, w0, words):
    group = weyl_group(rank)
    assert group.length_of(w0) == group.max_length
    assert d_reduced_word_counts(group)[w0] == words
    report = check_element(group, w0, max_reflections=None)
    assert report.orders_found == words
    assert report.ok


def test_cross_pair_product_axiom_fails_on_rank4():
    # the strict cross-decomposition product axiom, kept as an oracle,
    # has exactly 18 smooth counterexamples at rank 4; each passes the
    # same-decomposition rule the library checks
    group = weyl_group(4)
    counterexamples = []
    for w in group.windows:
        if not group.is_smooth(w):
            continue
        v = d_admissibility_violation_by_labels(
            group, c23_below(group, w), cross_pair_products=True
        )
        if v is not None:
            counterexamples.append(w)
            assert v[0] == "product-pair", w
            e = check_element(group, w)
            assert e.ok and e.orders_found > 0 and e.products_ok, w
    assert len(counterexamples) == 18
    assert (-2, 1, -3, 4) in counterexamples
    assert (-3, 2, 1, -4) in counterexamples
    assert verify_conjecture_d(4).product_pair_rule == "same-decomposition orientations"


def test_conjecture_rank_guard():
    with pytest.raises(ValueError):
        verify_conjecture_d(6)
