from __future__ import annotations

import hashlib
import itertools
import math
import random
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from oracles import (
    compatible_orders_brute,
    invert_labels,
    reference_moves,
    reference_verify_order,
    wedges_by_definition,
)
from smoothchains import bruhat, ordering_engine, orders
from smoothchains.admissible import (
    admissibility_violation,
    c23,
    c_t,
    find_wedges,
    invert_set,
    is_smooth_pattern,
    make_set,
    reflection_pairs,
    restrict,
)
from smoothchains.ordering_engine import connected_by_moves, moves, moves_connected
from smoothchains.orders import (
    NotSmoothError,
    Verdict,
    _disjoint,
    construct_compatible_order,
    construct_for_set,
    elementary_neighbors,
    enumerate_compatible_orders,
    graph_connected,
    is_compatible,
    order_graph,
    order_graph_dot,
    order_text,
    order_verdicts,
    smoothness_report,
    verify_order,
)
from smoothchains.permutations import (
    all_windows,
    compose,
    identity,
    inverse,
    parse,
    times_transposition,
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


def wedge_levels(A):
    """(set, wedge) at each level of the wedge recursion on A.

    A set without a wedge is replaced by its inverse set, which has one.
    """
    while A.members:
        if not find_wedges(A):
            A = invert_set(A)
        wedge = find_wedges(A)[0]
        yield A, wedge
        A = restrict(A, wedge)


def test_construction_steps_track_the_recursion():
    steps = list(wedge_levels(c23(parse("321"))))
    assert [wedge for _, wedge in steps] == [(1, 3), (2, 3)]
    sizes = [len(A) for A, _ in steps]
    assert sizes == sorted(sizes, reverse=True)


@pytest.mark.parametrize("n", range(2, 7))
def test_no_restricted_reflection_straddles_the_wedge_pivot(n):
    # inside each recursion level, nothing left in the restricted set
    # crosses the pivot index of the wedge just used
    for w in smooth_windows(n):
        for A, (i, j) in wedge_levels(c23(w)):
            for (x, y) in restrict(A, (i, j)).reflections:
                assert not (x < i < y), (w, (i, j), (x, y))


@pytest.mark.parametrize("n", range(1, 8))
def test_construct_for_set_matches_the_recursive_build(n):
    def recursive(members):
        # the wedge recursion on plain label sets, from the oracle's wedges
        if not members:
            return ()
        wedges = wedges_by_definition(members)
        if wedges:
            i, j = wedges[0]
            inner = recursive(frozenset(e for e in members if e[1] != i))
            return inner + tuple((i, r) for r in range(j, i, -1))
        inverted = invert_labels(members)
        if not wedges_by_definition(inverted):
            raise ValueError("no wedge on either side")
        return tuple(reversed(recursive(inverted)))

    for w in smooth_windows(n):
        for A in (c23(w), invert_set(c23(w))):
            assert construct_for_set(A) == recursive(A.members), w


@pytest.mark.slow
def test_construction_over_s1_to_s8_is_unchanged():
    # a digest of both sides' arrangements for all 8,689 smooth windows
    digest = hashlib.sha256()
    windows = [w for n in range(1, 9) for w in smooth_windows(n)]
    for w in windows:
        A = c23(w)
        built = (w, construct_for_set(A), construct_for_set(invert_set(A)))
        digest.update(repr(built).encode())
    assert (len(windows), digest.hexdigest()[:16]) == (8689, "c5497628e2e83bb4")


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


def test_listed_orders_equivalent_to_direct_check():
    rng = random.Random(5)
    for w in smooth_windows(5)[:40]:
        A = c23(w)
        listed = set(enumerate_compatible_orders(A, None))
        refls = sorted(A.reflections)
        for _ in range(20):
            arrangement = tuple(rng.sample(refls, len(refls)))
            assert (arrangement in listed) == is_compatible(arrangement, A), (
                w,
                arrangement,
            )


def test_chained_pair_needs_exactly_one_cycle_without_its_sum():
    # Outside the admissible domain: with T(1,2), T(2,3) but no T(1,3),
    # neither 3-cycle or both leave the pair rule nothing to fix the
    # orientation by, so no arrangement is compatible.
    bare = make_set(3, [("T", 1, 2), ("T", 2, 3)])
    both = make_set(3, [*bare.members, ("R", 1, 2, 3), ("L", 1, 2, 3)])
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


# ------------------------------------------------ verdicts by folding

ALL_OK = Verdict(True, True, True)


def _listed_verdicts(w):
    orders = enumerate_compatible_orders(c23(w), None)
    return Counter(verify_order(w, order).verdict for order in orders)


@pytest.mark.parametrize("break_covers", [False, True])
def test_order_verdicts_match_listing_and_verify_order(monkeypatch, break_covers):
    if break_covers:
        # a cover test that also fails some true covers, read by both paths
        real = bruhat.swap_covers
        monkeypatch.setattr(
            bruhat, "swap_covers",
            lambda x, i, j: real(x, i, j) and not (j - i == 2 and x[i - 1] == 1),
        )
    failing = Counter()
    for n in range(1, 6):
        for w in smooth_windows(n):
            folded = order_verdicts(w, None)
            assert folded == _listed_verdicts(w), w
            failing.update({v: c for v, c in folded.items() if v != ALL_OK})
    if break_covers:
        # 1,146 arrangements fail, in every chain failure and no product
        assert sum(failing.values()) == 1146
        assert set(failing) == {
            Verdict(True, False, True), Verdict(True, True, False), Verdict(True, False, False)
        }
    else:
        assert not failing


@pytest.mark.parametrize(
    "n, count",
    [(1, 1), (2, 1), (3, 2), (4, 16), (5, 768), (6, 292864),
     (7, 1_100_742_656), (8, 48_608_795_688_960)],
)
def test_order_verdicts_of_the_longest_element_count_reduced_words(n, count):
    # for w0 the counts are Stanley's reduced-word counts (OEIS A005118)
    w0 = tuple(range(n, 0, -1))
    assert count == _staircase_tableaux(n)
    assert order_verdicts(w0, None) == {ALL_OK: count}


def _staircase_tableaux(n):
    """Standard Young tableaux of shape (n-1, ..., 1), by the hook-length
    formula; Stanley (1984) counts the reduced words of w0 in S_n by them."""
    shape = range(n - 1, 0, -1)
    hooks = 1
    for r, row in enumerate(shape):
        for c in range(row):
            # arm row - c - 1, leg the rows below that reach column c
            hooks *= row - c + sum(below > c for below in shape[r + 1 :])
    return math.factorial(sum(shape)) // hooks


@pytest.mark.slow
def test_order_verdicts_of_the_longest_element_of_s9_without_a_cap():
    w0 = tuple(range(9, 0, -1))
    assert order_verdicts(w0, None) == {ALL_OK: _staircase_tableaux(9)}


def test_order_verdicts_over_smooth_s6_at_cap_15():
    total = Counter()
    for w in smooth_windows(6):
        total.update(order_verdicts(w, 15))
    assert total == {ALL_OK: 365926}


@pytest.mark.parametrize("n, smooth", [(2, 2), (3, 6), (4, 22), (5, 88), (6, 366)])
def test_order_count_is_invariant_under_inverse_and_w0_conjugation(n, smooth):
    # w -> w^-1 and w -> w0 w w0 preserve Bruhat order and smoothness,
    # and carry the reflections below w onto those below the image, so a
    # smooth w and its images have as many compatible orders
    w0 = tuple(range(n, 0, -1))
    counts = {w: sum(order_verdicts(w, None).values()) for w in smooth_windows(n)}
    assert len(counts) == smooth
    for w, count in counts.items():
        assert counts[inverse(w)] == count, w
        assert counts[compose(w0, compose(w, w0))] == count, w


@pytest.mark.slow
def test_order_verdicts_over_smooth_s7_at_cap_21():
    total = Counter()
    for w in smooth_windows(7):
        total.update(order_verdicts(w, 21))
    assert total == {ALL_OK: 1176611151}


def test_order_verdicts_refuse_over_the_cap_as_listing_does():
    w = parse("54321")  # 10 reflections
    with pytest.raises(ValueError) as listed:
        enumerate_compatible_orders(c23(w), 9)
    with pytest.raises(ValueError) as folded:
        order_verdicts(w, 9)
    assert str(folded.value) == str(listed.value)


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


MISMATCH = "arrangement does not match the reflections below w"


@pytest.mark.parametrize(
    "perm, order",
    [
        ("321", ((2, 3), (1, 3), (1, 2), (2, 3))),  # repeated label
        ("321", ((2, 3), (1, 3))),  # missing label
        ("321", ((2, 3), (1, 3), (1, 2), (3, 4))),  # extra label
        ("321", ((2, 3), (1, 3), (5, 9))),  # out of range, right count
        ("321", ((2, 3), (1, 3), (0, 1))),  # below range, right count
        ("321", ((2, 3), (1, 3), (2, 1))),  # reversed label
        ("321", ((5, 9),)),
        ("321", ((0, 1),)),
        # 132 has T(2,3) only: T(1,2) and T(1,3) fit but are not below
        ("132", ((1, 2),)),
        ("132", ((1, 3),)),
        ("132", ((2, 3), (1, 2))),
    ],
)
def test_verify_order_mismatch_message(perm, order):
    with pytest.raises(ValueError) as caught:
        verify_order(parse(perm), order)
    assert str(caught.value) == MISMATCH


@pytest.mark.parametrize("n", range(1, 6))
def test_verify_order_matches_reference_on_listed_and_shuffled_orders(n):
    rng = random.Random(n)
    for w in smooth_windows(n):
        listed = enumerate_compatible_orders(c23(w), None)
        shuffled = []
        for _ in range(5):
            order = list(listed[0])
            rng.shuffle(order)
            shuffled.append(tuple(order))
        for order in listed + shuffled:
            report = verify_order(w, order)
            expected, prefix, suffix = reference_verify_order(w, order)
            assert report == expected, (w, order)
            assert report.prefix_chain == prefix, (w, order)
            assert report.suffix_chain == suffix, (w, order)


@pytest.mark.parametrize("n", [4, 5])
def test_verify_order_matches_reference_where_chains_break(n):
    # the reflections below a non-smooth w outnumber its length, so no
    # arrangement of them walks a saturated chain to w
    rng = random.Random(100 + n)
    breaks = 0
    for w in all_windows(n):
        if is_smooth_pattern(w):
            continue
        for _ in range(5):
            order = sorted(c_t(w))
            rng.shuffle(order)
            report = verify_order(w, tuple(order))
            expected, prefix, suffix = reference_verify_order(w, tuple(order))
            assert report == expected, (w, order)
            assert report.prefix_chain == prefix, (w, order)
            assert report.suffix_chain == suffix, (w, order)
            assert not report.all_ok
            breaks += report.prefix_first_break is not None
            breaks += report.suffix_first_break is not None
    assert breaks > 0


def _mixed_calls(seed, count):
    """(w, arrangement) calls over S1-S6 in the order verify_order gets them.

    Each window gets a run of calls, each sharing a prefix with the one
    before: consecutive listed orders, and arrangements of c_t(w) that
    keep a random prefix of the previous one and shuffle the rest.  Most
    of those are redrawn, up to 30 times, until they multiply to w, and
    many of them still break a chain; the others mostly miss the
    product.  Now and then a call on another window comes between.
    """
    rng = random.Random(seed)
    windows = [tuple(w) for n in range(1, 7) for w in all_windows(n)]
    calls = []
    while len(calls) < count:
        w = rng.choice(windows)
        try:
            listed = enumerate_compatible_orders(c23(w)) if is_smooth_pattern(w) else []
        except ValueError:  # over the cap
            listed = []
        at = rng.randrange(len(listed)) if listed else 0
        order = tuple(sorted(c_t(w)))
        for _ in range(rng.randint(1, 12)):
            if listed and rng.random() < 0.4:
                order = listed[at % len(listed)]
                at += 1
            else:
                to_w = rng.random() < 0.7
                for _ in range(30):
                    keep = rng.randint(0, len(order))
                    tail = list(order[keep:])
                    rng.shuffle(tail)
                    drawn = order[:keep] + tuple(tail)
                    if not to_w or _product(len(w), drawn) == w:
                        break
                order = drawn
            calls.append((w, order))
            if rng.random() < 0.1:
                other = rng.choice(windows)
                calls.append((other, tuple(sorted(c_t(other)))))
    return calls


def _product(n, order):
    x = identity(n)
    for t in order:
        x = times_transposition(x, t)
    return x


def _assert_matches_reference(w, order):
    report = verify_order(w, order)
    expected, prefix, suffix = reference_verify_order(w, order)
    assert report == expected, (w, order)
    assert report.prefix_chain == prefix, (w, order)
    assert report.suffix_chain == suffix, (w, order)
    return report


def test_verify_order_matches_reference_on_interleaved_calls():
    # consecutive calls on one window resume from the previous walk
    seen = Counter()
    for w, order in _mixed_calls(24, 3000):
        report = _assert_matches_reference(w, order)
        seen["product fails", report.prefix_saturated] += not report.product_ok
        if report.product_ok:  # the suffix read off the forward walk
            seen["prefix breaks"] += not report.prefix_saturated
            seen["suffix breaks"] += not report.suffix_saturated
        seen["all ok"] += report.all_ok
    assert min(seen.values()) >= 50, seen


def test_verify_order_does_not_reuse_verdicts_of_another_cover_rule(monkeypatch):
    real = bruhat.swap_covers

    def broken(x, i, j):  # also fails some true covers
        return real(x, i, j) and not (j - i == 2 and x[i - 1] == 1)

    rng = random.Random(7)
    rules = [real, broken]
    differ = 0
    previous = None
    for w, order in _mixed_calls(25, 2000):
        if rng.random() < 0.3:
            rules.reverse()
            monkeypatch.setattr(bruhat, "swap_covers", rules[0])
        report = _assert_matches_reference(w, order)
        if previous == w:
            monkeypatch.setattr(bruhat, "swap_covers", rules[1])
            differ += report != reference_verify_order(w, order)[0]
            monkeypatch.setattr(bruhat, "swap_covers", rules[0])
        previous = w
    assert differ >= 50


def test_verify_order_after_a_raising_cover_rule(monkeypatch):
    real = bruhat.swap_covers
    calls_left = [None]  # raise once this many calls are made

    def flaky(x, i, j):
        if calls_left[0] is not None:
            if calls_left[0] == 0:
                raise RuntimeError("cover rule failed")
            calls_left[0] -= 1
        return real(x, i, j)

    w = parse("54321")
    listed = enumerate_compatible_orders(c23(w))
    monkeypatch.setattr(bruhat, "swap_covers", flaky)
    for first, second, third in zip(listed[::3], listed[1::3], listed[2::3]):
        _assert_matches_reference(w, first)
        # second differs from first in two or more steps, so four or more
        # cover tests: the fourth raises partway through the walk
        calls_left[0] = 3
        with pytest.raises(RuntimeError):
            verify_order(w, second)
        calls_left[0] = None
        _assert_matches_reference(w, third)
    monkeypatch.setattr(bruhat, "swap_covers", real)
    _assert_matches_reference(w, listed[-1])


def test_verify_order_from_more_threads_than_cores():
    # threads share the kept walk: each listing, verified in order by two
    # threads at once among others, gets the reports one thread gets alone
    windows = [parse(p) for p in ("54321", "45321", "54312", "4321")] * 2
    listings = {w: enumerate_compatible_orders(c23(w)) * 5 for w in windows}
    alone = {w: [verify_order(w, order) for order in listings[w]] for w in listings}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(windows)) as pool:
            futures = [
                pool.submit(lambda w: [verify_order(w, order) for order in listings[w]], w)
                for w in windows
            ]
            shared = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(switch)
    assert shared == [alone[w] for w in windows]


def test_verify_order_walks_only_the_steps_a_listed_order_does_not_share(monkeypatch):
    real = bruhat.swap_covers
    calls = [0]

    def counting(x, i, j):
        calls[0] += 1
        return real(x, i, j)

    monkeypatch.setattr(bruhat, "swap_covers", counting)
    w = parse("54321")
    listed = enumerate_compatible_orders(c23(w))
    assert len(listed) == 768
    assert all(verify_order(w, order).all_ok for order in listed)
    # two whole walks of 10 steps each would make 15,360 calls
    assert calls[0] <= 6120


@pytest.mark.parametrize("n", range(1, 6))
def test_moves_match_reference_on_listed_orders(n):
    for w in smooth_windows(n):
        A = c23(w)
        pairs = list(reflection_pairs(A))
        for order in enumerate_compatible_orders(A, None):
            assert list(moves(order, pairs, _disjoint)) == reference_moves(order), order


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


@pytest.mark.parametrize("order", [((3, 4),), ((1, 2), (3, 4))])
def test_elementary_neighbors_refuses_an_order_of_other_reflections(order):
    # T(1, 2) is the one reflection below 2134: the mismatch is refused
    # up front, whether or not the order has a move
    with pytest.raises(ValueError, match="arrangement does not match the reflection members"):
        elementary_neighbors(order, c23(parse("2134")))


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


def _certificate(A, cap):
    return moves_connected(A.reflections, reflection_pairs(A), cap, _disjoint)


@pytest.mark.parametrize(
    "n, cap, decided",
    [(1, None, 1), (2, None, 2), (3, None, 6), (4, None, 22), (5, None, 88), (6, 10, 343)],
)
def test_certificate_decides_every_smooth_window(n, cap, decided):
    # the local squares and hexagons alone join every move graph, the
    # certificate's count is the fold's, and graph_connected agrees with
    # the search over the listing
    found = 0
    for w in smooth_windows(n):
        A = c23(w)
        if cap is not None and len(A.reflections) > cap:
            continue
        count, certified = _certificate(A, cap)
        assert certified, w
        assert count == sum(order_verdicts(w, cap).values()), w
        listed = enumerate_compatible_orders(A, cap)
        assert graph_connected(A, cap) == connected_by_moves(listed, reflection_pairs(A), _disjoint)
        found += 1
    assert found == decided


@pytest.mark.slow
@pytest.mark.parametrize("n, size", [(7, 1552), (8, 6652)])
def test_certificate_decides_every_smooth_window_of_s7_and_s8(n, size):
    windows = smooth_windows(n)
    assert len(windows) == size
    for w in windows:
        assert _certificate(c23(w), None)[1], w


def test_undecided_certificate_falls_back_to_the_listing(monkeypatch):
    searched = []
    real = ordering_engine.connected_by_moves
    monkeypatch.setattr(ordering_engine, "moves_connected", lambda *args: (0, False))
    monkeypatch.setattr(
        ordering_engine,
        "connected_by_moves",
        lambda listed, *rule: searched.append(listed) or real(listed, *rule),
    )
    for w in smooth_windows(4):
        A = c23(w)
        assert graph_connected(A) is True
        assert searched.pop() == enumerate_compatible_orders(A)
    # two arrangements with no move between them: the listing's exact answer
    apart = [((1, 2), (2, 3), (1, 3)), ((1, 3), (1, 2), (2, 3))]
    monkeypatch.setattr(ordering_engine, "capped_orders", lambda *args: apart)
    assert graph_connected(c23(parse("321"))) is False


def test_graph_connected_refuses_over_the_cap_as_listing_does(monkeypatch):
    w = parse("54321")  # 10 reflections
    with pytest.raises(ValueError) as listed:
        enumerate_compatible_orders(c23(w), 9)
    with pytest.raises(ValueError) as certified:
        graph_connected(c23(w), 9)
    monkeypatch.setattr(ordering_engine, "moves_connected", lambda *args: (0, False))
    with pytest.raises(ValueError) as searched:
        graph_connected(c23(w), 9)
    assert str(certified.value) == str(searched.value) == str(listed.value)


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


def _joined_by_edges(edges, keep) -> bool:
    # one component among the kept vertices, by search over the kept edges
    adjacent = {i: [] for i in keep}
    for i, j in edges:
        if i in adjacent and j in adjacent:
            adjacent[i].append(j)
            adjacent[j].append(i)
    seen = set(list(keep)[:1])
    stack = list(seen)
    while stack:
        for j in adjacent[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == len(keep)


@pytest.mark.parametrize("n", range(1, 6))
def test_connected_by_moves_matches_order_graph_components(n):
    # the whole listing, and a seeded half of it, whose move graph may
    # fall apart
    rng = random.Random(n)
    for w in smooth_windows(n):
        A = c23(w)
        vertices, edges = order_graph(A)
        half = {i for i in range(len(vertices)) if rng.random() < 0.5}
        for keep in (set(range(len(vertices))), half):
            expect = _joined_by_edges(edges, keep)
            kept = (vertices[i] for i in keep)
            assert connected_by_moves(kept, reflection_pairs(A), _disjoint) == expect, (w, keep)


def test_connected_by_moves_without_a_joining_move():
    # neither arrangement has a move: no disjoint neighbours, and the
    # middle reflection is not the long one
    first = ((1, 2), (2, 3), (1, 3))
    second = ((1, 3), (1, 2), (2, 3))
    pairs = list(reflection_pairs(c23(parse("321"))))
    assert list(moves(first, pairs, _disjoint)) == list(moves(second, pairs, _disjoint)) == []
    assert connected_by_moves([first, second], pairs, _disjoint) is False
    assert connected_by_moves([first], pairs, _disjoint) is True
    assert connected_by_moves([], pairs, _disjoint) is True


def test_order_graph_dot_is_syntactically_plausible():
    dot = order_graph_dot(*order_graph(c23(parse("321"))))
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
