from __future__ import annotations

import doctest
import functools
import itertools
import math
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smoothchains.type_d as type_d_mod
from oracles import (
    act_on_root,
    all_roots,
    d_admissibility_violation_by_labels,
    d_columns_and_pairs_by_rows,
    d_cover_pairs,
    d_cover_pairs_oracle,
    d_downsets,
    d_label_ideals,
    d_leq,
    d_member_roots,
    d_reduced_word_counts,
    d_summable_pairs_by_combinations,
    is_positive_root,
    leading_simple,
    length_by_roots,
    moves_by_rule,
    root_reflection_image,
    simple_precedes,
    sp_inverse,
    window_swap,
)
from smoothchains.admissible import c23, is_smooth_pattern
from smoothchains.ordering_engine import (
    Verdict,
    capped_orders,
    connected_by_moves,
    connectivity,
    fold_orders,
    is_compatible_order,
    move_edges,
    moves,
    moves_connected,
)
from smoothchains.orders import enumerate_compatible_orders
from smoothchains.permutations import all_windows, compose, identity
from smoothchains.type_d import (
    admissibility_violation_d,
    c23_below,
    c23_labels,
    check_element,
    columns_and_pairs,
    embed_window,
    enumerate_compatible_orders_d,
    label_text,
    parse_root,
    positive_roots,
    product_of_root_order,
    realize_label,
    reflection_window,
    root_poset_covers,
    roots_and_pairs,
    root_text,
    simple_order_config,
    simple_rank,
    simple_roots,
    smooth_elements,
    sp_parse,
    sp_text,
    times_swap,
    tuple_add,
    validate_signed_window,
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


@pytest.mark.parametrize("n", [4, 5])
def test_swap_step_is_right_multiplication_by_the_reflection(n):
    for alpha in positive_roots(n):
        t = reflection_window(alpha, n)
        swap = weyl_group(n).swaps[alpha]
        for x in weyl_group(n).windows:
            assert times_swap(x, swap) == compose(x, t), (x, alpha)


def test_reflection_swap_goldens():
    # e4-e2 swaps positions 2 and 4; e2+e1 also negates positions 1 and 2
    swaps = weyl_group(4).swaps
    assert swaps[parse_root("e4-e2", 4)] == (1, 3, False)
    assert swaps[parse_root("e2+e1", 4)] == (0, 1, True)
    assert times_swap((3, -1, 4, 2), (0, 1, True)) == (1, -3, 4, 2)


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
        weyl_group(7)


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
            assert d_leq(group, x, y) == (x in ds), (x, y)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_cover_pairs_match_oracle(rank):
    group = weyl_group(rank)
    assert set(d_cover_pairs(group)) == d_cover_pairs_oracle(group)


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
            assert set(enumerate_compatible_orders_d(group, A)) == type_a, w
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
    with pytest.raises(ValueError, match="not an element of W"):
        group.length_of(w0)


def test_check_element_reads_a_window_given_as_a_list():
    group = weyl_group(3)
    listed, given = check_element(group, [3, 2, 1]), check_element(group, (3, 2, 1))
    assert (listed.length, listed.verdicts) == (given.length, given.verdicts)
    with pytest.raises(ValueError, match="not an element of W"):
        group.id_of([-1, -2, -3])


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
    # the witness names the least missing label below top
    assert v.witness == (top, ("t", parse_root("e2-e1", 3)))
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
        orders = enumerate_compatible_orders_d(group, A)
        assert orders, w
        roots, pairs = roots_and_pairs(group, group.label_mask(A))
        for order in orders:
            assert is_compatible_order(order, roots, pairs)
            assert product_of_root_order(order, n) == w


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_summable_pairs_match_combinations_of_member_roots(rank):
    group = weyl_group(rank)
    for w in group.windows:
        A = c23_below(group, w)
        roots, pairs = roots_and_pairs(group, group.label_mask(A))
        assert roots == d_member_roots(A), w
        assert pairs == d_summable_pairs_by_combinations(A, rank), w


def test_is_compatible_d_validates_membership():
    group = weyl_group(3)
    A = c23_below(group, (-2, -1, 3))
    roots, pairs = roots_and_pairs(group, group.label_mask(A))
    with pytest.raises(ValueError):
        is_compatible_order((parse_root("e3-e1", 3),), roots, pairs)


def test_enumeration_cap_d():
    group = weyl_group(4)
    A = c23_below(group, (-1, -2, -3, -4))
    with pytest.raises(ValueError, match="cap"):
        enumerate_compatible_orders_d(group, A, max_reflections=10)
    assert len(roots_and_pairs(group, group.label_mask(A))[0]) == 12


# ---------------------------------------------------------- conjecture

def conjecture_reports(rank):
    """check_element on every smooth element, at the default cap."""
    group = weyl_group(rank)
    return [check_element(group, w) for w in smooth_elements(rank)]


def test_conjecture_small_ranks():
    r2 = conjecture_reports(2)
    assert len(r2) == 4 and all(e.ok for e in r2)
    assert sum(e.orders_found for e in r2) == 5
    r3 = conjecture_reports(3)
    assert len(r3) == 22 and all(e.ok for e in r3)
    assert sum(e.orders_found for e in r3) == 54


def test_conjecture_rank4_holds():
    reports = conjecture_reports(4)
    assert len(weyl_group(4)) == 192
    assert len(reports) == 108
    assert [e.window for e in reports if not e.ok] == []
    assert sum(e.orders_found for e in reports) == 3305
    assert type_d_mod.PRODUCT_PAIR_RULE == "same-decomposition orientations"
    for e in reports:
        d = e.to_dict()
        assert d["ok"] is True
        assert d["verdicts"] == [
            {"orders": e.orders_found, "product_ok": True,
             "prefix_saturated": True, "suffix_saturated": True}
        ]


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
        orders = enumerate_compatible_orders_d(group, c23_below(group, w))
        products_ok = all(product_of_root_order(o, rank) == w for o in orders)
        report = check_element(group, w)
        assert (report.orders_found, report.products_ok) == (
            len(orders),
            products_ok,
        ), w
        wrong += not products_ok
    assert wrong == wrong_products


@functools.lru_cache(maxsize=None)
def uncapped_reports(rank):
    group = weyl_group(rank)
    return {w: check_element(group, w, None) for w in group.windows}


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_mask_path_matches_label_set_path_on_every_element(rank):
    # check_element reads w's labels off its downset bitmask; the oracles
    # read roots and pairs off c23_below's label set, and
    # admissibility_violation_d takes that set through its id mask
    group = weyl_group(rank)
    for w, report in uncapped_reports(rank).items():
        A = c23_below(group, w)
        members = group.below[group.index[w]] & group.ground_mask
        roots, pairs = roots_and_pairs(group, members)
        assert roots == d_member_roots(A), w
        assert pairs == d_summable_pairs_by_combinations(A, rank), w
        violation = admissibility_violation_d(group, A)
        assert report.reflections == len(roots), w
        assert report.admissible == (violation is None), w
        assert report.admissibility_note == (violation and violation.describe()), w


@pytest.mark.parametrize("rank", [3, 4, 5])
def test_member_column_rows_give_the_pairs_of_a_scan_of_every_row(rank):
    # columns_and_pairs reads only the rows of member columns; a scan of
    # every row must give the same pairs in the same order, so that
    # _pair_violation names the same first failing pair
    group = weyl_group(rank)
    for i in range(len(group)):
        members = group.below[i] & group.ground_mask
        found = columns_and_pairs(group, members)
        assert found == d_columns_and_pairs_by_rows(group, members), group.windows[i]
    members = group.ground_mask
    assert columns_and_pairs(group, members) == d_columns_and_pairs_by_rows(group, members)


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_group_swap_table_matches_reflection_windows(rank):
    group = weyl_group(rank)
    assert list(group.swaps) == list(positive_roots(rank))
    for alpha, swap in group.swaps.items():
        assert swap == window_swap(reflection_window(alpha, rank)), alpha


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_times_table_is_right_multiplication_by_each_reflection(rank):
    # times[id][k] is the id of w * t_alpha, alpha the k-th positive root;
    # the identity's row lists the reflections, and every step changes
    # the length by an odd number (lengths of w and w * t differ in parity)
    group = weyl_group(rank)
    roots = positive_roots(rank)
    assert len(group.times) == len(group)
    for w in group.windows:
        row = group.times[group.index[w]]
        assert len(row) == len(roots)
        for k, alpha in enumerate(roots):
            assert row[k] == group.index[times_swap(w, group.swaps[alpha])], (w, alpha)
            assert (group.lengths[row[k]] - group.length_of(w)) % 2 == 1, (w, alpha)
    assert group.times[0] == [group.label_ids["t", alpha] for alpha in roots]


def test_check_element_folds_without_windows(monkeypatch):
    # once the group is built, the fold reads only its table: check_element
    # gives the same reports with the window step disabled
    group = weyl_group(4)
    smooth = smooth_elements(4)
    expect = [check_element(group, w) for w in smooth]

    def no_window_step(x, swap):
        raise AssertionError("check_element multiplied a window")

    monkeypatch.setattr(type_d_mod, "times_swap", no_window_step)
    reports = [check_element(group, w) for w in smooth]
    assert reports == expect
    assert all(e.ok for e in reports)
    assert sum(e.orders_found for e in reports) == 3305


@pytest.mark.parametrize("w", [(1, 2, 3), (-1, 2, 3, 4)], ids=["rank-3", "odd-flips"])
def test_foreign_windows_are_refused_by_name(w):
    # a window of another rank, or with an odd number of sign flips, is
    # not an element of W(D4): every id lookup refuses it the same way
    group = weyl_group(4)
    message = re.escape(f"{w} is not an element of W(D4): a rank 4")
    for call in (check_element, c23_below):
        with pytest.raises(ValueError, match=message):
            call(group, w)
    for call in (group.length_of, group.is_smooth, group.interval_rank_counts):
        with pytest.raises(ValueError, match=message):
            call(w)


@pytest.mark.parametrize("rank, count", [(2, 2), (3, 14), (4, 44), (5, 100)])
def test_realize_label_is_the_product_of_its_roots(rank, count):
    labels = c23_labels(rank)
    assert len(labels) == count
    for lab in labels:
        windows = [reflection_window(alpha, rank) for alpha in lab[1:]]
        expect = windows[0] if lab[0] == "t" else compose(*windows)
        assert realize_label(lab, rank) == expect, lab
    with pytest.raises(ValueError, match="bad label"):
        realize_label(("ttt",) + labels[0][1:], rank)


def _orthogonal(a, b):
    return sum(x * y for x, y in zip(a, b)) == 0


@pytest.mark.parametrize("rank, cap, listed, refused", [(3, None, 22, 0), (4, None, 108, 0), (5, 12, 469, 21)])
def test_engine_connects_every_type_d_move_graph(rank, cap, listed, refused):
    # orthogonal roots commute (the type A moves, read off the pairs):
    # the exact verdict connects every graph, agreeing with the
    # certificate, with a search over the listing and with its count;
    # the engine's moves are the definitional ones, within the listing
    # on every order and all of them on the first and last
    group = weyl_group(rank)
    found = Counter()
    for w in smooth_elements(rank):
        roots, pairs = roots_and_pairs(group, group.below[group.index[w]] & group.ground_mask)
        if cap is not None and len(roots) > cap:
            with pytest.raises(ValueError, match="exceed the enumeration cap"):
                connectivity(roots, pairs, cap, _orthogonal)
            found["refused"] += 1
            continue
        orders = capped_orders(roots, pairs, cap)
        assert connectivity(roots, pairs, cap, _orthogonal) == (len(orders), True), w
        assert moves_connected(roots, pairs, cap, _orthogonal) == (len(orders), True), w
        assert connected_by_moves(orders, pairs, _orthogonal), w
        index = {v: i for i, v in enumerate(orders)}
        expect = [
            (i, j)
            for i, v in enumerate(orders)
            for u in moves_by_rule(v, pairs, _orthogonal)
            if i < (j := index.get(u, -1))
        ]
        assert move_edges(orders, pairs, _orthogonal) == expect, w
        for order in (orders[0], orders[-1]):
            assert list(moves(order, pairs, _orthogonal)) == moves_by_rule(order, pairs, _orthogonal)
        found["listed"] += 1
    assert (found["listed"], found["refused"]) == (listed, refused)


@pytest.mark.parametrize("rank, smooth_count", [(3, 22), (4, 108), (5, 490)])
def test_conjecture_holds_exactly_on_the_smooth_elements(rank, smooth_count):
    # the converse: with no cap, the check passes on no non-smooth element
    group = weyl_group(rank)
    reports = uncapped_reports(rank)
    assert [w for w, e in reports.items() if e.ok != group.is_smooth(w)] == []
    assert sum(e.ok for e in reports.values()) == smooth_count


@pytest.mark.parametrize("rank, smooth_count", [(3, 22), (4, 108), (5, 490)])
def test_order_count_is_invariant_under_the_group_symmetries(rank, smooth_count):
    # inversion, conjugation by w0, and conjugation by c, which negates
    # coordinate 1 (the diagram automorphism swapping e2-e1 and e2+e1),
    # preserve Bruhat order and smoothness, so a smooth w and its images
    # have as many compatible orders
    group = weyl_group(rank)
    w0 = group.windows[-1]
    c = (-1,) + identity(rank)[1:]
    counts = {
        w: e.orders_found for w, e in uncapped_reports(rank).items() if group.is_smooth(w)
    }
    assert len(counts) == smooth_count
    for w, count in counts.items():
        assert counts[sp_inverse(w)] == count, w
        assert counts[compose(w0, compose(w, w0))] == count, w
        assert counts[compose(c, compose(w, c))] == count, w


@functools.lru_cache(maxsize=None)
def window_chain_verdicts(rank):
    """Every element's chain verdicts, folded over signed windows.

    The fold carries (x, w^-1 x, prefix ok, suffix ok): each prefix
    product x must rise one length step, l(x t) = l(x) + 1, and w^-1 x
    fall one, l(w^-1 x t) + 1 = l(w^-1 x); windows, compose and the
    length function stand in for check_element's ids and tables.
    """
    group = weyl_group(rank)
    ell = group.length_of

    def step(state, alpha):
        x, y, prefix_ok, suffix_ok = state
        t = reflection_window(alpha, rank)
        xt, yt = compose(x, t), compose(y, t)
        return (
            xt,
            yt,
            prefix_ok and ell(xt) == ell(x) + 1,
            suffix_ok and ell(yt) + 1 == ell(y),
        )

    verdicts = {}
    for w in group.windows:
        start = (identity(rank), sp_inverse(w), True, True)
        roots, pairs = roots_and_pairs(group, group.label_mask(c23_below(group, w)))
        verdicts[w] = Counter()
        for (x, _, up, down), count in fold_orders(roots, pairs, None, step, start).items():
            verdicts[w][Verdict(x == w, up, down)] += count
    return verdicts


@pytest.mark.parametrize("rank, total", [(3, 54), (4, 3305), (5, 13210910)])
def test_compatible_orders_walk_saturated_chains_from_both_ends(rank, total):
    # the paper's strengthening: along every compatible order of a smooth
    # w, the prefixes walk a saturated chain from e up to w and the
    # suffixes one down from w
    orders = 0
    for w in smooth_elements(rank):
        verdicts = window_chain_verdicts(rank)[w]
        assert set(verdicts) == {Verdict(True, True, True)}, w
        orders += sum(verdicts.values())
    assert orders == total


@pytest.mark.parametrize("rank, failing", [(3, 16), (4, 17124), (5, 615277160)])
def test_check_element_chain_verdicts_match_the_window_fold(rank, failing):
    # check_element folds ids through the group's tables; the oracle
    # folds windows, so the two verdict counts are read independently,
    # on every element: the non-smooth ones supply failing verdicts
    reports = uncapped_reports(rank)
    found = 0
    for w, verdicts in window_chain_verdicts(rank).items():
        assert reports[w].verdicts == verdicts, w
        found += sum(count for v, count in verdicts.items() if not all(v))
    assert found == failing


def test_sharp_non_smooth_d4_element_has_no_compatible_order():
    # (-1,-3,-2,-4) is the one non-smooth element of D4 with as many
    # reflections below it as its length, so a reflection count does not
    # set it apart; the product-pair axiom does, and no arrangement of
    # its reflections is compatible
    group = weyl_group(4)
    sharp = [
        w for w in group.windows
        if not group.is_smooth(w)
        and len(roots_and_pairs(group, group.below[group.index[w]])[0]) == group.length_of(w)
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
    assert type_d_mod.PRODUCT_PAIR_RULE == "same-decomposition orientations"


def test_conjecture_rank_guard():
    with pytest.raises(ValueError, match="exceeds the group-size limit 6"):
        smooth_elements(7)


@pytest.mark.slow
def test_conjecture_holds_on_every_smooth_element_of_d6():
    # built directly, not through the cached weyl_group, so the group
    # is freed when the test ends
    group = type_d_mod.WeylGroupD(6)
    smooth = [w for w in group.windows if group.is_smooth(w)]
    reports = [check_element(group, w, max_reflections=None) for w in smooth]
    assert len(group) == 23040
    assert len(smooth) == 2164
    # ok needs every order to multiply to w and walk both saturated chains
    assert [e.window for e in reports if not e.ok] == []
    assert sum(e.orders_found for e in reports) == 4817069429115
