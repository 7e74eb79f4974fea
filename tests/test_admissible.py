from __future__ import annotations

import doctest
import itertools
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smoothchains.admissible as adm_mod
from oracles import (
    bruhat_leq_oracle,
    c_t_by_filter,
    ground_ideals,
    interval_rank_counts,
    invert_labels,
    wedges_by_definition,
)
from smoothchains.admissible import (
    _wedges,
    admissibility_violation,
    all_elements23,
    c23,
    c_t,
    element23_leq,
    element_sort_key,
    find_wedges,
    format_element,
    invert_set,
    is_admissible,
    is_smooth_length,
    is_smooth_pattern,
    make_set,
    parse_element,
    realize,
    restrict,
    smoothness_witness,
    validate_element,
    wedge_window_test,
)
from smoothchains.bruhat import leq, rank_matrix
from smoothchains.permutations import (
    all_transpositions,
    all_windows,
    compose,
    identity,
    inverse,
    length,
    parse,
)


def smooth_windows(n):
    return [tuple(w) for w in all_windows(n) if is_smooth_pattern(tuple(w))]


def test_module_doctests_pass():
    result = doctest.testmod(adm_mod)
    assert result.failed == 0
    assert result.attempted > 0


# ------------------------------------------------------------ elements

def test_constructors_and_validation():
    for good in [("T", 1, 3), ("R", 1, 2, 4), ("L", 2, 3, 5)]:
        assert validate_element(good) == good
    for bad in [
        lambda: validate_element(("T", 3, 3)),
        lambda: validate_element(("R", 1, 3, 2)),
        lambda: validate_element(("L", 0, 1, 2)),
        lambda: validate_element(("T", 1, 2, 3)),
        lambda: validate_element(("X", 1, 2)),
        lambda: validate_element(("R", 1, 2, 9), degree=4),
    ]:
        with pytest.raises(ValueError):
            bad()


def test_element_text_round_trip_over_ground_set():
    for e in all_elements23(5):
        assert parse_element(format_element(e)) == e
    with pytest.raises(ValueError):
        parse_element("T(1;2)")
    with pytest.raises(ValueError):
        parse_element("Q(1,2)")


def test_sort_key_puts_reflections_first():
    elems = sorted(all_elements23(4), key=element_sort_key)
    kinds = [e[0] for e in elems]
    last_t = max(i for i, k in enumerate(kinds) if k == "T")
    first_cycle = min(i for i, k in enumerate(kinds) if k != "T")
    assert last_t < first_cycle


def test_realize_goldens():
    assert realize(("T", 1, 3), 3) == (3, 2, 1)
    assert realize(("R", 1, 2, 3), 3) == (2, 3, 1)
    assert realize(("L", 1, 2, 3), 3) == (3, 1, 2)
    assert realize(("R", 1, 2, 4), 5) == (2, 4, 3, 1, 5)


def test_cycle_realizations_compose_from_reflections():
    # R(i,j,k) = T(i,j) * T(j,k) and L(i,j,k) = T(j,k) * T(i,j)
    n = 5
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        tij = realize(("T", i, j), n)
        tjk = realize(("T", j, k), n)
        assert realize(("R", i, j, k), n) == compose(tij, tjk)
        assert realize(("L", i, j, k), n) == compose(tjk, tij)
        assert realize(("R", i, j, k), n) != realize(("L", i, j, k), n)


def test_invert_element_matches_realized_inverse():
    # invert_set maps each element label to the label of its inverse
    n = 5
    for e in all_elements23(n):
        (inverted,) = invert_set(make_set(n, [e])).members
        assert realize(inverted, n) == inverse(realize(e, n))
    ground = make_set(n, all_elements23(n))
    assert invert_set(invert_set(ground)) == ground


def test_ground_set_size():
    # binom(n,2) reflections plus two cycles per triple
    for n in range(2, 7):
        expect = (
            len(list(itertools.combinations(range(n), 2)))
            + 2 * len(list(itertools.combinations(range(n), 3)))
        )
        assert len(all_elements23(n)) == expect


# ------------------------------------------------------ reflection set

def test_c_t_golden_values():
    assert c_t(parse("35142")) == {
        (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (2, 5), (4, 5), (3, 5),
    }
    assert c_t(identity(4)) == frozenset()
    assert c_t(parse("4321")) == set(all_transpositions(4))


@pytest.mark.parametrize("n", range(2, 6))
def test_c_t_matches_realized_bruhat_comparisons(n):
    for w in all_windows(n):
        expect = {
            (i, j)
            for (i, j) in all_transpositions(n)
            if bruhat_leq_oracle(realize(("T", i, j), n), w)
        }
        assert c_t(w) == expect


@pytest.mark.parametrize("n", range(1, 8))
def test_c_t_closed_form_matches_reflection_leq_filter(n):
    for w in all_windows(n):
        assert c_t(w) == c_t_by_filter(w), w


@pytest.mark.parametrize("n", range(2, 6))
def test_c23_matches_oracle_downset(n):
    for w in all_windows(n):
        expect = frozenset(
            e
            for e in all_elements23(n)
            if bruhat_leq_oracle(realize(e, n), w)
        )
        assert c23(w).members == expect


def test_c23_golden_for_321():
    A = c23(parse("321"))
    assert A.members == {
        ("T", 1, 2), ("T", 1, 3), ("T", 2, 3), ("R", 1, 2, 3), ("L", 1, 2, 3),
    }
    assert A.reflections == {(1, 2), (1, 3), (2, 3)}
    assert A.member_texts() == [
        "T(1,2)", "T(1,3)", "T(2,3)", "R(1,2,3)", "L(1,2,3)",
    ]


def test_element23_leq_spot_checks():
    assert element23_leq(("R", 1, 2, 3), parse("321"))
    assert not element23_leq(("T", 1, 4), parse("2431"))
    assert element23_leq(("T", 1, 2), parse("21"))


@pytest.mark.parametrize("n, smooth_only", [(6, False), (7, True)])
def test_c23_matches_rank_matrix_leq(n, smooth_only):
    # c23 decides from running maxima; the rank-matrix leq is independent.
    ground = all_elements23(n)
    for w in smooth_windows(n) if smooth_only else all_windows(n):
        expect = {e for e in ground if leq(realize(e, n), w)}
        assert c23(w).members == expect, w


@pytest.mark.slow
def test_c23_matches_rank_matrix_dominance_on_every_window_up_to_s8():
    # about 45 s: every window of S1..S8 against the rank-matrix downset
    def dominated(x, y):
        return all(a <= b for p, q in zip(x, y) for a, b in zip(p, q))

    windows = mismatches = 0
    for n in range(1, 9):
        ranks = {e: rank_matrix(realize(e, n)) for e in all_elements23(n)}
        for w in all_windows(n):
            rw = rank_matrix(w)
            expect = {e for e, r in ranks.items() if dominated(r, rw)}
            windows += 1
            mismatches += c23(w).members != expect
    assert (windows, mismatches) == (46233, 0)


def test_element23_leq_matches_rank_matrix_leq_on_s5():
    for w in all_windows(5):
        for e in all_elements23(5):
            assert element23_leq(e, w) == leq(realize(e, 5), w), (e, w)
    with pytest.raises(ValueError):
        element23_leq(("R", 1, 2, 4), parse("321"))


@pytest.mark.parametrize("n", range(1, 7))
def test_below_within_ground_matches_length_and_leq(n):
    ground = all_elements23(n)
    windows = {e: realize(e, n) for e in ground}
    expect = {
        e: frozenset(
            f for f in ground
            if length(windows[f]) <= length(windows[e])
            and leq(windows[f], windows[e])
        )
        for e in ground
    }
    assert adm_mod._below_within_ground(n) == expect


@pytest.mark.parametrize("n", range(2, 6))
def test_invert_set_is_c23_of_inverse(n):
    for w in all_windows(n):
        assert invert_set(c23(w)).members == c23(inverse(w)).members


# ---------------------------------------------------------- smoothness

@pytest.mark.parametrize("n", range(1, 7))
def test_smoothness_criteria_agree(n):
    for w in all_windows(n):
        assert is_smooth_pattern(tuple(w)) == is_smooth_length(tuple(w))


def test_palindromic_interval_is_a_third_smoothness_criterion():
    # [e, w] has palindromic rank counts iff w is smooth (Carrell-Peterson;
    # Lakshmibai-Sandhya); the counts come from the definitional closure
    palindromic = []
    for n in range(1, 6):
        found = 0
        for w in all_windows(n):
            counts = interval_rank_counts(w)
            smooth = counts == counts[::-1]
            assert smooth == is_smooth_pattern(w) == is_smooth_length(w), w
            found += smooth
        palindromic.append(found)
    assert palindromic == [1, 2, 6, 22, 88]  # OEIS A032351


def test_smooth_counts_by_degree():
    assert [len(smooth_windows(n)) for n in range(1, 7)] == [
        1, 2, 6, 22, 88, 366,
    ]


def test_non_smooth_has_reflection_excess():
    for n in range(2, 7):
        for w in all_windows(n):
            w = tuple(w)
            if not is_smooth_pattern(w):
                assert len(c_t(w)) > length(w)


def test_smoothness_witness_goldens():
    assert smoothness_witness(parse("35142")) == ("3412", (1, 2, 3, 5))
    assert smoothness_witness(parse("4231")) == ("4231", (1, 2, 3, 4))
    assert smoothness_witness(parse("3412")) == ("3412", (1, 2, 3, 4))
    assert smoothness_witness(parse("321")) is None


@given(st.permutations(list(range(1, 8))).map(tuple))
@settings(max_examples=150)
def test_witness_exists_iff_not_smooth(w):
    assert (smoothness_witness(w) is None) == is_smooth_pattern(w)


# ------------------------------------------------------- admissibility

@pytest.mark.parametrize("n", range(1, 7))
def test_full_sets_below_smooth_elements_are_admissible(n):
    for w in smooth_windows(n):
        assert is_admissible(c23(w)), w


@pytest.mark.parametrize(
    "n, ideals, admissible", [(2, 2, 2), (3, 8, 6), (4, 66, 22), (5, 1335, 88)]
)
def test_admissible_ideals_are_exactly_the_sets_below_smooth_windows(
    n, ideals, admissible
):
    # ideals of the ground set from the definitional Bruhat order; the
    # admissible ones are the c23 sets of smooth windows (OEIS A032351)
    found = ground_ideals(n)
    assert len(found) == ideals
    kept = {I for I in found if admissibility_violation(make_set(n, I)) is None}
    assert len(kept) == admissible
    assert kept == {c23(w).members for w in smooth_windows(n)}


def test_closure_violation():
    A = make_set(3, [("T", 1, 3)])
    v = admissibility_violation(A)
    assert v is not None and v.axiom == "closure"
    assert v.witness[0] == ("T", 1, 3)
    assert "closure" in v.describe()


def test_reflection_pair_violation():
    A = make_set(3, [("T", 1, 2), ("T", 2, 3)])
    v = admissibility_violation(A)
    assert v is not None and v.axiom == "reflection-pair"
    assert set(v.witness) == {("T", 1, 2), ("T", 2, 3)}


def test_cycle_pair_violation():
    # Bruhat closure of {R(1,2,4), L(1,3,4)} does not contain T(1,4),
    # so the cycle-pair axiom is the first to fail.
    n = 4
    members = set()
    for seed in [("R", 1, 2, 4), ("L", 1, 3, 4)]:
        top = realize(seed, n)
        members |= {
            e for e in all_elements23(n) if leq(realize(e, n), top)
        }
    assert ("T", 1, 4) not in members
    v = admissibility_violation(make_set(n, members))
    assert v is not None and v.axiom == "cycle-pair"
    assert ("T", 1, 4) in v.witness


CYCLE_PAIR_WITNESS_SCRIPT = """
from smoothchains.admissible import admissibility_violation, c23, make_set, realize
seeds = [("R", 1, 2, 5), ("R", 1, 3, 5), ("R", 1, 4, 5), ("L", 1, 3, 5)]
members = set().union(*(c23(realize(e, 5)).members for e in seeds))
print(admissibility_violation(make_set(5, members)).describe())
"""


@pytest.mark.parametrize("seed", ["1", "2"])
def test_cycle_pair_witness_does_not_depend_on_the_hash_seed(seed):
    # three R(1,*,5) pair with L(1,3,5); the witness is the first in
    # member order, whatever order the frozenset iterates in
    env = {**os.environ, "PYTHONHASHSEED": seed}
    out = subprocess.run(
        [sys.executable, "-c", CYCLE_PAIR_WITNESS_SCRIPT],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out == "axiom cycle-pair fails at R(1,2,5), L(1,3,5), T(1,5)\n"


def test_empty_set_is_admissible():
    assert is_admissible(make_set(4, []))


def test_make_set_validates_members():
    with pytest.raises(ValueError):
        make_set(3, [("T", 1, 4)])


# -------------------------------------------------------------- wedges

def test_find_wedges_goldens():
    assert find_wedges(c23(parse("321"))) == ((1, 3),)
    assert find_wedges(c23(parse("3214"))) == ((1, 3),)
    assert find_wedges(c23(parse("4321"))) == ((1, 4),)
    assert find_wedges(c23(parse("2134"))) == ((1, 2),)
    assert find_wedges(c23(identity(4))) == ()


def test_wedge_fallback_pair_golden():
    # 2413 is smooth with no wedge; its inverse 3142 has one
    assert find_wedges(c23(parse("2413"))) == ()
    assert find_wedges(c23(parse("3142"))) == ((1, 2),)


@pytest.mark.parametrize("n", range(2, 7))
def test_window_wedge_test_agrees_with_set_definition(n):
    for w in all_windows(n):
        from_set = set(find_wedges(c23(w)))
        from_window = {
            (i, j)
            for (i, j) in all_transpositions(n)
            if wedge_window_test(w, i, j)
        }
        assert from_set == from_window, w


@pytest.mark.parametrize("n", range(2, 6))
def test_masked_wedges_are_the_wedges_of_the_derived_set(n):
    # _wedges reads a restricted, possibly inverted set off A itself
    for w in all_windows(n):
        A = c23(w)
        refls = sorted(A.reflections)
        for dropped in range(0, 1 << (n + 1), 2):
            kept = frozenset(e for e in A.members if not dropped >> e[1] & 1)
            for side, derived in (("R", kept), ("L", invert_labels(kept))):
                expect = wedges_by_definition(derived)
                assert list(_wedges(A, refls, dropped, side)) == expect, (w, dropped)


def test_wedge_window_test_validates_indices():
    with pytest.raises(ValueError):
        wedge_window_test(parse("321"), 2, 2)


@pytest.mark.parametrize("n", range(2, 7))
def test_smooth_nonidentity_has_wedge_on_some_side(n):
    # holds on every window, smooth or not: at the first i with w(i) != i,
    # (i, w^{-1}(i)) is a wedge when w(i) >= w^{-1}(i), else the inverse
    # side has (i, w(i))
    for w in all_windows(n):
        if w == identity(n):
            continue
        A = c23(w)
        assert find_wedges(A) or find_wedges(invert_set(A)), w


@pytest.mark.parametrize("n", range(2, 7))
def test_wedge_pins_down_reflections_moving_its_lower_index(n):
    for w in smooth_windows(n):
        A = c23(w)
        for (i, j) in find_wedges(A):
            moving = {t for t in A.reflections if i in t}
            assert moving == {(i, r) for r in range(i + 1, j + 1)}, (w, i, j)


# --------------------------------------------------------- restriction

@pytest.mark.parametrize("n", range(1, 8))
def test_restricting_at_a_wedge_leaves_the_set_below_the_peeled_window(n):
    # (i, j) a wedge of c23(w): dropping index i leaves c23(w * T(i,i+1) ... T(i,j))
    for w in smooth_windows(n):
        A = c23(w)
        for i, j in find_wedges(A):
            x = list(w)
            for r in range(i + 1, j + 1):
                x[i - 1], x[r - 1] = x[r - 1], x[i - 1]
            assert restrict(A, (i, j)) == c23(tuple(x)), (w, (i, j))


def test_restrict_golden():
    A = c23(parse("321"))
    assert restrict(A, (1, 3)).members == {("T", 2, 3)}


def test_restrict_requires_a_wedge():
    with pytest.raises(ValueError):
        restrict(c23(parse("321")), (1, 2))


@pytest.mark.parametrize("n", range(2, 6))
def test_restrict_strictly_shrinks(n):
    for w in smooth_windows(n):
        A = c23(w)
        for wedge in find_wedges(A):
            B = restrict(A, wedge)
            assert len(B) < len(A)
            assert B.members <= A.members
            assert all(e[1] != wedge[0] for e in B.members)


# ----------------------------------------------------------- container

def test_admissible_set_container_protocol():
    A = c23(parse("321"))
    assert ("T", 1, 2) in A
    assert ("R", 1, 2, 4) not in A
    assert len(A) == 5
    assert A.sorted_members()[0] == ("T", 1, 2)


def test_invert_set_involution():
    A = c23(parse("3142"))
    assert invert_set(invert_set(A)).members == A.members
