from __future__ import annotations

import doctest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smoothchains.permutations as perm_mod
from oracles import all_transpositions, brute_length, contains_pattern_brute, swap_positions
from smoothchains.permutations import (
    all_windows,
    compose,
    contains_pattern,
    format_window,
    identity,
    inverse,
    length,
    mu,
    parse,
    pattern_witness,
    times_transposition,
    transposition,
    transposition_window,
    validate_window,
)

windows = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)


def windows_of(n: int):
    return st.permutations(list(range(1, n + 1))).map(tuple)


def test_module_doctests_pass():
    result = doctest.testmod(perm_mod)
    assert result.failed == 0
    assert result.attempted > 0


# ----------------------------------------------------------- parsing

def test_parse_digit_string():
    assert parse("35142") == (3, 5, 1, 4, 2)
    assert parse("1") == (1,)


def test_parse_comma_separated():
    assert parse("3,5,1,4,2,10,6,7,8,9") == (3, 5, 1, 4, 2, 10, 6, 7, 8, 9)
    assert parse(" 2,1 ") == (2, 1)


@pytest.mark.parametrize(
    "bad",
    ["", "  ", "0", "102", "a21", "1,1", "1,a", "2,3", "1,2,", "10"],
)
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse(bad)


def test_parse_rejects_over_degree():
    text = ",".join(str(v) for v in range(1, 14))
    with pytest.raises(ValueError):
        parse(text)


@given(windows)
def test_format_parse_round_trip(w):
    assert parse(format_window(w)) == w


def test_format_of_large_degree_uses_commas():
    w = identity(11)
    assert "," in format_window(w)
    assert parse(format_window(w)) == w


def test_validate_window_rejects_non_bijections():
    with pytest.raises(ValueError):
        validate_window([])
    with pytest.raises(ValueError):
        validate_window([0, 1])
    with pytest.raises(ValueError):
        validate_window([2, 2, 3])


# --------------------------------------------------------- group laws

@given(windows_of(5), windows_of(5), windows_of(5))
def test_compose_associative(u, v, w):
    assert compose(compose(u, v), w) == compose(u, compose(v, w))


@given(windows)
def test_inverse_cancels(w):
    e = identity(len(w))
    assert compose(w, inverse(w)) == e
    assert compose(inverse(w), w) == e
    assert inverse(inverse(w)) == w


def test_compose_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        compose((1, 2), (1, 2, 3))


def test_right_multiplication_swaps_positions():
    w = (3, 5, 1, 4, 2)
    assert times_transposition(w, (2, 4)) == (3, 4, 1, 5, 2)
    # agrees with composing against the realized transposition
    for t in all_transpositions(5):
        i, j = t
        assert times_transposition(w, t) == compose(
            w, transposition_window(5, i, j)
        )
        assert times_transposition(w, t) == swap_positions(w, i, j)


def test_transposition_label_validation():
    assert transposition(1, 4) == (1, 4)
    with pytest.raises(ValueError):
        transposition(3, 3)
    with pytest.raises(ValueError):
        transposition_window(3, 2, 4)
    with pytest.raises(ValueError):
        times_transposition((2, 1), (1, 3))


# ------------------------------------------------------------- length

@pytest.mark.parametrize("n", range(1, 6))
def test_length_matches_inversion_oracle(n):
    for w in all_windows(n):
        assert length(w) == brute_length(w)


def test_length_of_adjacent_product_changes_by_one():
    # simple (adjacent) transpositions move length by exactly 1
    for n in range(2, 6):
        for w in all_windows(n):
            for i in range(1, n):
                delta = length(times_transposition(w, (i, i + 1))) - length(w)
                assert delta in (-1, 1)


def test_length_parity_flips_under_any_reflection():
    # a general transposition changes length by an odd amount
    for n in range(2, 6):
        for w in all_windows(n):
            lw = length(w)
            for t in all_transpositions(n):
                delta = length(times_transposition(w, t)) - lw
                assert delta % 2 == 1 or delta % 2 == -1
                assert delta != 0


def test_length_extremes():
    assert length(identity(6)) == 0
    assert length(tuple(range(6, 0, -1))) == 15  # longest element, binom(6,2)


# ----------------------------------------------------------------- mu

@pytest.mark.parametrize("n", range(1, 7))
def test_mu_tables_nondecreasing_and_terminal(n):
    for w in all_windows(n):
        table = mu(w)
        assert table[-1] == n
        assert all(a <= b for a, b in zip(table, table[1:]))
        assert all(table[i] >= w[i] for i in range(n))
        assert table == tuple(max(w[: i + 1]) for i in range(n))


def test_mu_golden():
    assert mu((3, 5, 1, 4, 2)) == (3, 5, 5, 5, 5)
    assert mu(identity(4)) == (1, 2, 3, 4)


# ----------------------------------------------------------- patterns

def test_pattern_scans_agree_with_brute_oracle_on_s6():
    for p in ((3, 4, 1, 2), (4, 2, 3, 1)):
        for w in all_windows(6):
            assert contains_pattern(w, p) == contains_pattern_brute(w, p), (
                w,
                p,
            )


def test_general_pattern_falls_back_to_brute_search():
    for p in ((2, 3, 1), (1, 2, 3, 4)):
        for w in all_windows(5):
            assert contains_pattern(w, p) == contains_pattern_brute(w, p)


def test_pattern_golden_cases():
    assert contains_pattern((3, 5, 1, 4, 2), (3, 4, 1, 2))
    assert not contains_pattern((3, 5, 1, 4, 2), (4, 2, 3, 1))
    assert contains_pattern((4, 2, 3, 1), (4, 2, 3, 1))
    assert not contains_pattern((3, 4, 1, 2), (4, 2, 3, 1))
    assert not contains_pattern(identity(7), (3, 4, 1, 2))


@given(windows_of(6))
@settings(max_examples=200)
def test_pattern_witness_certifies_containment(w):
    for p in ((3, 4, 1, 2), (4, 2, 3, 1)):
        witness = pattern_witness(w, p)
        if witness is None:
            assert not contains_pattern(w, p)
        else:
            assert contains_pattern(w, p)
            assert all(a < b for a, b in zip(witness, witness[1:]))
            values = [w[i - 1] for i in witness]
            ranks = sorted(values)
            assert tuple(ranks.index(v) + 1 for v in values) == p


def test_pattern_witness_golden():
    assert pattern_witness((3, 5, 1, 4, 2), (3, 4, 1, 2)) == (1, 2, 3, 5)
    assert pattern_witness((1, 2, 3, 4), (3, 4, 1, 2)) is None


# ------------------------------------------------------- enumerations

def test_all_windows_is_lexicographic_and_complete():
    ws = list(all_windows(4))
    assert len(ws) == 24
    assert ws == sorted(ws)
    assert ws[0] == (1, 2, 3, 4)
    assert ws[-1] == (4, 3, 2, 1)


def test_all_transpositions_count():
    assert len(all_transpositions(5)) == 10
    assert all_transpositions(2) == [(1, 2)]


def test_inverse_golden_self_inverse():
    # 35142 is an involution; handy fixed point for inversion tests
    assert inverse((3, 5, 1, 4, 2)) == (3, 5, 1, 4, 2)
