from __future__ import annotations

import itertools
import random

import pytest

from oracles import compatible_orders_brute
from smoothchains.admissible import (
    admissibility_violation,
    c23,
    c_t,
    find_wedges,
    invert_set,
    is_smooth_pattern,
    lcycle,
    make_set,
    rcycle,
    refl,
    restrict,
)
from smoothchains.orders import (
    NotSmoothError,
    compile_constraints,
    construct_compatible_order,
    construct_for_set,
    construction_steps,
    elementary_neighbors,
    enumerate_compatible_orders,
    graph_connected,
    is_compatible,
    order_graph,
    order_graph_dot,
    order_text,
    smoothness_report,
    verify_order,
)
from smoothchains.permutations import (
    all_windows,
    identity,
    inverse,
    parse,
)

REMARK_WINDOW = parse("35142")
REMARK_ORDER = (
    (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (2, 5), (4, 5), (3, 5),
)


def smooth_windows(n):
    return [tuple(w) for w in all_windows(n) if is_smooth_pattern(tuple(w))]


# -------------------------------------------------------- construction

def test_construct_golden_321():
    assert construct_compatible_order(parse("321")) == ((2, 3), (1, 3), (1, 2))


def test_construct_uses_inverse_fallback_for_2413():
    # 2413 has no wedge; the build flips to the inverse set and reverses
    assert construct_compatible_order(parse("2413")) == ((1, 2), (3, 4), (2, 3))


def test_construct_identity_is_empty():
    assert construct_compatible_order(identity(5)) == ()


@pytest.mark.parametrize("n", range(1, 7))
def test_constructed_orders_verify_for_all_smooth(n):
    for w in smooth_windows(n):
        order = construct_compatible_order(w)
        assert is_compatible(order, c23(w))
        report = verify_order(w, order)
        assert report.all_ok, (w, order)
        assert report.product == w
        assert report.prefix_chain[-1] == w
        assert report.suffix_chain[-1] == inverse(w)
        assert len(report.prefix_chain) == len(order) + 1


def test_construct_rejects_non_smooth_with_witness():
    with pytest.raises(NotSmoothError, match=r"4231.*\(1, 2, 3, 4\)"):
        construct_compatible_order(parse("4231"))
    with pytest.raises(NotSmoothError, match="3412"):
        construct_compatible_order(parse("3412"))


def test_construction_steps_track_the_recursion():
    steps = list(construction_steps(c23(parse("321"))))
    assert [wedge for _, wedge in steps] == [(1, 3), (2, 3)]
    sizes = [len(A) for A, _ in steps]
    assert sizes == sorted(sizes, reverse=True)


@pytest.mark.parametrize("n", range(2, 7))
def test_no_restricted_reflection_straddles_the_wedge_pivot(n):
    # inside each recursion level, nothing left in the restricted set
    # crosses the pivot index of the wedge just used
    for w in smooth_windows(n):
        for A, (i, j) in construction_steps(c23(w)):
            for (x, y) in restrict(A, (i, j)).reflections:
                assert not (x < i < y), (w, (i, j), (x, y))


@pytest.mark.parametrize("n", range(1, 8))
def test_construct_for_set_matches_the_recursive_build(n):
    def recursive(A):
        # the wedge recursion written out, as a reference for the walk
        if not A.members:
            return ()
        wedges = find_wedges(A)
        if wedges:
            i, j = wedges[0]
            inner = recursive(restrict(A, (i, j)))
            return inner + tuple((i, r) for r in range(j, i, -1))
        inverted = invert_set(A)
        if not find_wedges(inverted):
            raise ValueError("no wedge on either side")
        return tuple(reversed(recursive(inverted)))

    for w in smooth_windows(n):
        for A in (c23(w), invert_set(c23(w))):
            assert construct_for_set(A) == recursive(A), w


def test_construct_for_set_raises_without_any_wedge():
    # a set with cycles but no reflections cannot be built
    bad = make_set(4, [("R", 1, 2, 3)])
    with pytest.raises(ValueError):
        construct_for_set(bad)


# ------------------------------------------------------- compatibility

def test_is_compatible_requires_matching_reflections():
    A = c23(parse("321"))
    with pytest.raises(ValueError):
        is_compatible(((1, 2), (2, 3)), A)
    with pytest.raises(ValueError):
        is_compatible(((1, 2), (1, 3), (2, 3), (1, 2)), A)


def test_compatibility_golden_for_321():
    A = c23(parse("321"))
    good = [((1, 2), (1, 3), (2, 3)), ((2, 3), (1, 3), (1, 2))]
    for arrangement in itertools.permutations(sorted(A.reflections)):
        assert is_compatible(arrangement, A) == (list(arrangement) in [
            list(g) for g in good
        ])


def test_compile_constraints_equivalent_to_direct_check():
    rng = random.Random(5)
    for w in smooth_windows(5)[:40]:
        A = c23(w)
        precedence, betweenness = compile_constraints(A)
        refls = sorted(A.reflections)
        for _ in range(20):
            arrangement = tuple(rng.sample(refls, len(refls)))
            pos = {t: p for p, t in enumerate(arrangement)}
            satisfied = all(pos[a] < pos[b] for a, b in precedence) and all(
                min(pos[a], pos[c]) < pos[b] < max(pos[a], pos[c])
                for a, b, c in betweenness
            )
            assert satisfied == is_compatible(arrangement, A), (w, arrangement)


def test_chained_pair_needs_exactly_one_cycle_without_its_sum():
    # Outside the admissible domain: with T(1,2), T(2,3) but no T(1,3),
    # neither 3-cycle or both leave the pair rule nothing to fix the
    # orientation by, so no arrangement is compatible.
    bare = make_set(3, [refl(1, 2), refl(2, 3)])
    both = make_set(3, [*bare.members, rcycle(1, 2, 3), lcycle(1, 2, 3)])
    for A in (bare, both):
        assert enumerate_compatible_orders(A) == []
        for arrangement in itertools.permutations(sorted(A.reflections)):
            assert not is_compatible(arrangement, A)
    violation = admissibility_violation(bare)
    assert violation.axiom == "reflection-pair"
    assert violation.witness == (("T", 1, 2), ("T", 2, 3))


# --------------------------------------------------------- enumeration

def test_enumeration_matches_brute_force_on_smooth_s4():
    for w in smooth_windows(4):
        A = c23(w)
        engine = enumerate_compatible_orders(A)
        brute = compatible_orders_brute(A, is_compatible)
        assert sorted(engine) == brute, w
        assert len(set(engine)) == len(engine)


def test_enumeration_exact_small_goldens():
    two = [((1, 2), (1, 3), (2, 3)), ((2, 3), (1, 3), (1, 2))]
    assert enumerate_compatible_orders(c23(parse("321"))) == two
    assert enumerate_compatible_orders(c23(parse("3214"))) == two
    assert enumerate_compatible_orders(c23(identity(4))) == [()]


def test_total_compatible_orders_across_smooth_s4():
    total = sum(
        len(enumerate_compatible_orders(c23(w))) for w in smooth_windows(4)
    )
    assert total == 54


def test_longest_element_s5_order_count():
    orders = enumerate_compatible_orders(c23(parse("54321")))
    assert len(orders) == 768


def test_enumeration_cap_guards_large_sets():
    A = c23(parse("54321"))  # 10 reflections
    with pytest.raises(ValueError, match="cap"):
        enumerate_compatible_orders(A, max_reflections=9)
    assert len(enumerate_compatible_orders(A, max_reflections=None)) == 768


@pytest.mark.parametrize("n", range(1, 5))
def test_every_enumerated_order_verifies(n):
    for w in smooth_windows(n):
        for order in enumerate_compatible_orders(c23(w)):
            report = verify_order(w, order)
            assert report.all_ok, (w, order)


def test_sampled_s5_orders_all_verify():
    rng = random.Random(99)
    pool = smooth_windows(5)
    for w in rng.sample(pool, 10):
        for order in enumerate_compatible_orders(c23(w)):
            assert verify_order(w, order).all_ok, w


def test_some_compatible_order_starts_away_from_the_wedge():
    # regression: the verifier must not assume arrangements lead with a
    # wedge reflection; for 3214 neither compatible arrangement does
    A = c23(parse("3214"))
    wedge_refls = set(find_wedges(A))
    starts = {order[0] for order in enumerate_compatible_orders(A)}
    assert starts == {(1, 2), (2, 3)}
    assert not (starts & wedge_refls)


# -------------------------------------------------------- verification

def test_verify_order_rejects_wrong_reflection_set():
    w = parse("321")
    with pytest.raises(ValueError):
        verify_order(w, ((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        verify_order(w, ((1, 2), (1, 3), (1, 2)))


def test_remark_arrangement_multiplies_back_but_breaks_saturation():
    assert c_t(REMARK_WINDOW) == frozenset(REMARK_ORDER)
    report = verify_order(REMARK_WINDOW, REMARK_ORDER)
    assert report.product_ok
    assert report.product == REMARK_WINDOW
    assert not report.prefix_saturated
    assert report.prefix_first_break == 8
    assert not report.all_ok


def test_report_chain_shapes():
    w = parse("321")
    order = construct_compatible_order(w)
    report = verify_order(w, order)
    assert report.prefix_chain[0] == identity(3)
    assert report.suffix_chain[0] == identity(3)
    assert report.prefix_first_break is None
    assert report.suffix_first_break is None
    d = report.to_dict()
    assert d["window"] == "321"
    assert d["order"] == ["T(2,3)", "T(1,3)", "T(1,2)"]
    assert d["prefix_chain"][0] == "123"


def test_order_text_golden():
    assert order_text(((2, 3), (1, 3), (1, 2))) == "T(2,3) T(1,3) T(1,2)"
    assert order_text(()) == ""


# ----------------------------------------------------- elementary moves

def test_elementary_neighbors_golden_321():
    A = c23(parse("321"))
    order = ((2, 3), (1, 3), (1, 2))
    assert elementary_neighbors(order, A) == [((1, 2), (1, 3), (2, 3))]


def test_elementary_moves_preserve_everything_on_smooth_s4():
    for w in smooth_windows(4):
        A = c23(w)
        orders = set(enumerate_compatible_orders(A))
        for order in orders:
            base = verify_order(w, order)
            for neighbor in elementary_neighbors(order, A):
                assert neighbor in orders
                moved = verify_order(w, neighbor)
                assert moved.product == base.product
                assert moved.prefix_saturated == base.prefix_saturated
                assert moved.suffix_saturated == base.suffix_saturated


def test_neighbor_relation_is_symmetric_on_smooth_s4():
    for w in smooth_windows(4):
        A = c23(w)
        for order in enumerate_compatible_orders(A):
            for neighbor in elementary_neighbors(order, A):
                assert order in elementary_neighbors(neighbor, A)


# ---------------------------------------------------------- move graph

@pytest.mark.parametrize("n", range(1, 5))
def test_move_graph_connected_for_all_smooth(n):
    for w in smooth_windows(n):
        assert graph_connected(c23(w)), w


def test_order_graph_edges_match_neighbors():
    # edges keep the moves landing on a listed order; elementary_neighbors
    # keeps the moves passing the pair rule.  4321 is among the S4 windows.
    for w in smooth_windows(4) + smooth_windows(5):
        A = c23(w)
        vertices, edges = order_graph(A)
        index = {v: i for i, v in enumerate(vertices)}
        expect = set()
        for v in vertices:
            for u in elementary_neighbors(v, A):
                a, b = index[v], index[u]
                if a < b:
                    expect.add((a, b))
        assert set(edges) == expect, w
        assert len(vertices) == len(set(vertices))


def test_order_graph_dot_is_syntactically_plausible():
    dot = order_graph_dot(c23(parse("321")))
    assert dot.startswith("graph")
    assert dot.count("{") == dot.count("}") == 1
    assert dot.count("--") == 1
    assert dot.count('"') % 2 == 0
    assert "T(2,3) T(1,3) T(1,2)" in dot


# ------------------------------------------------------ report wrapper

def test_smoothness_report_smooth_case():
    rep = smoothness_report(parse("321"))
    assert rep.smooth
    assert rep.length == 3 and rep.reflections_below == 3
    assert rep.order == ((2, 3), (1, 3), (1, 2))
    assert rep.verification is not None and rep.verification.all_ok
    assert rep.pattern_name is None
    d = rep.to_dict()
    assert d["smooth"] is True and d["pattern_positions"] is None


def test_smoothness_report_non_smooth_case():
    rep = smoothness_report(REMARK_WINDOW)
    assert not rep.smooth
    assert rep.length == 6 and rep.reflections_below == 8
    assert rep.pattern_name == "3412"
    assert rep.pattern_positions == (1, 2, 3, 5)
    assert rep.order is None and rep.verification is None
    d = rep.to_dict()
    assert d["pattern_positions"] == [1, 2, 3, 5]
    assert d["order"] is None
