from __future__ import annotations

import doctest
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smoothchains.type_d as type_d_mod
from oracles import d_cover_pairs_oracle, d_downsets, root_reflection_image
from smoothchains.admissible import c23, is_smooth_pattern
from smoothchains.orders import enumerate_compatible_orders
from smoothchains.permutations import all_windows
from smoothchains.type_d import (
    act_on_root,
    admissibility_violation_d,
    all_roots,
    c23_below,
    c23_labels,
    check_element,
    embed_window,
    enumerate_compatible_orders_d,
    is_admissible_d,
    is_compatible_d,
    is_positive_root,
    label_text,
    leading_simple,
    length_by_roots,
    parse_root,
    positive_roots,
    product_of_root_order,
    realize_label,
    reflection_roots,
    reflection_window,
    root_poset_covers,
    root_text,
    simple_order_config,
    simple_precedes,
    simple_rank,
    simple_roots,
    sp_compose,
    sp_identity,
    sp_inverse,
    sp_parse,
    sp_text,
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
    failures, _ = doctest.testmod(type_d_mod)
    assert failures == 0


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
    with pytest.raises(ValueError):
        parse_root("e1-e3", 3)
    with pytest.raises(ValueError):
        parse_root("e9+e1", 3)


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
    assert sp_compose(sp_compose(u, v), w) == sp_compose(u, sp_compose(v, w))
    e = sp_identity(4)
    assert sp_compose(u, sp_inverse(u)) == e
    assert sp_compose(sp_inverse(u), u) == e


@given(signed_windows(4))
@settings(max_examples=100)
def test_action_on_roots_is_a_homomorphism(w):
    for alpha in positive_roots(4):
        img = act_on_root(w, alpha)
        assert img in all_roots(4)
        assert act_on_root(sp_inverse(w), img) == alpha


def test_reflections_are_involutions_matching_the_formula():
    for n in (3, 4):
        e = sp_identity(n)
        for alpha in positive_roots(n):
            t = reflection_window(alpha, n)
            assert sp_compose(t, t) == e
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
    assert length_by_roots(sp_identity(4)) == 0
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


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_word_length_grading_matches_root_count(rank):
    group = weyl_group(rank)
    for w in group.windows:
        assert group.length_of(w) == length_by_roots(w)
    assert group.max_length == rank * (rank - 1)


def test_length_symmetries_on_d4():
    group = weyl_group(4)
    refls = [reflection_window(a, 4) for a in positive_roots(4)]
    for w in group.windows:
        assert group.length_of(w) == group.length_of(sp_inverse(w))
        for t in refls:
            assert group.length_of(sp_compose(w, t)) != group.length_of(w)


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
    assert c23_below(group, sp_identity(3)) == frozenset()
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
                assert is_admissible_d(group, c23_below(group, w)), w


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
            assert is_compatible_d(order, A, n)
            assert product_of_root_order(order, n) == w


def test_is_compatible_d_validates_membership():
    group = weyl_group(3)
    A = c23_below(group, (-2, -1, 3))
    with pytest.raises(ValueError):
        is_compatible_d((parse_root("e3-e1", 3),), A, 3)


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


def test_cross_pair_product_axiom_fails_on_rank4():
    # the strict cross-decomposition product axiom has exactly 18 smooth
    # counterexamples at rank 4; the relaxed default has none
    report = verify_conjecture_d(4, cross_pair_products=True)
    assert not report.ok
    assert len(report.counterexamples) == 18
    assert (-2, 1, -3, 4) in report.counterexamples
    assert (-3, 2, 1, -4) in report.counterexamples
    assert report.product_pair_rule == "cross-decomposition"
    for e in report.elements:
        if not e.ok:
            assert e.admissibility_note.startswith("axiom product-pair")
            assert e.orders_found > 0 and e.products_ok


def test_conjecture_rank_guard():
    with pytest.raises(ValueError):
        verify_conjecture_d(6)
