from __future__ import annotations

import itertools
import random

import pytest

from oracles import bruhat_downsets, cover_pairs_oracle
from smoothchains.bruhat import (
    chain_text,
    chain_to_dot,
    first_noncover,
    interval_rank_counts,
    is_cover,
    is_saturated_chain,
    leq,
    rank_matrix,
    reflection_leq,
)
from smoothchains.permutations import (
    all_transpositions,
    all_windows,
    identity,
    inverse,
    length,
    mu,
    parse,
    times_transposition,
    transposition_window,
)


def test_rank_matrix_golden():
    assert rank_matrix((2, 1)) == ((1, 1), (2, 1))
    assert rank_matrix((3, 1, 2)) == ((1, 1, 1), (2, 1, 1), (3, 2, 1))


# ------------------------------------------------------------ ordering

@pytest.mark.parametrize("n", range(1, 6))
def test_leq_agrees_with_reachability_oracle(n):
    down = bruhat_downsets(n)
    for y in all_windows(n):
        ds = down[y]
        for x in all_windows(n):
            assert leq(x, y) == (x in ds), (x, y)


def test_leq_is_a_partial_order_on_s4():
    ws = list(all_windows(4))
    for x in ws:
        assert leq(x, x)
    for x, y in itertools.permutations(ws, 2):
        if leq(x, y) and leq(y, x):
            pytest.fail(f"antisymmetry broke on {x}, {y}")
    for x, y, z in itertools.product(ws, repeat=3):
        if leq(x, y) and leq(y, z):
            assert leq(x, z)


def test_leq_transitive_on_sampled_s6_triples():
    rng = random.Random(11)
    ws = list(all_windows(6))
    for _ in range(2000):
        x, y, z = (rng.choice(ws) for _ in range(3))
        if leq(x, y) and leq(y, z):
            assert leq(x, z)


def test_leq_respects_length():
    for n in range(2, 6):
        for y in all_windows(n):
            for x in bruhat_downsets(n)[y]:
                if x != y:
                    assert length(x) < length(y)


def test_leq_extremes_and_mismatch():
    e = identity(5)
    w0 = tuple(range(5, 0, -1))
    for w in all_windows(5):
        assert leq(e, w)
        assert leq(w, w0)
    with pytest.raises(ValueError):
        leq((1, 2), (1, 2, 3))


def test_incomparable_pair_golden():
    a, b = parse("2413"), parse("3142")
    assert length(a) == length(b) == 3
    assert not leq(a, b)
    assert not leq(b, a)


# -------------------------------------------------------------- covers

@pytest.mark.parametrize("n", range(2, 6))
def test_cover_test_agrees_with_oracle(n):
    pairs = cover_pairs_oracle(n)
    for x in all_windows(n):
        for y in all_windows(n):
            assert is_cover(x, y) == ((x, y) in pairs), (x, y)


@pytest.mark.parametrize("n", range(2, 6))
def test_cover_implies_leq_and_length_step(n):
    for x in all_windows(n):
        for t in all_transpositions(n):
            y = times_transposition(x, t)
            if is_cover(x, y):
                assert leq(x, y)
                assert length(y) == length(x) + 1


def test_single_transposition_is_not_always_a_cover():
    # 12345 -> 32145 multiplies by one transposition but jumps 3 in length
    assert not is_cover(parse("12345"), parse("32145"))
    assert leq(parse("12345"), parse("32145"))


def test_cover_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        is_cover((1, 2), (1, 2, 3))


# ----------------------------------------------------- reflection test

@pytest.mark.parametrize("n", range(2, 7))
def test_reflection_leq_matches_realized_comparison(n):
    for w in all_windows(n):
        mw, mwi = mu(w), mu(inverse(w))
        for (i, j) in all_transpositions(n):
            expected = leq(transposition_window(n, i, j), w)
            assert reflection_leq((i, j), w) == expected
            assert reflection_leq((i, j), w, mw, mwi) == expected


def test_reflection_leq_validates_bounds():
    with pytest.raises(ValueError):
        reflection_leq((1, 4), (2, 1, 3))


def test_reflection_count_at_least_length():
    # equality characterizes smoothness; tested in test_admissible
    for n in range(2, 7):
        for w in all_windows(n):
            mw, mwi = mu(w), mu(inverse(w))
            below = sum(
                1
                for t in all_transpositions(n)
                if reflection_leq(t, w, mw, mwi)
            )
            assert below >= length(w)


# -------------------------------------------------------------- chains

def test_saturated_chain_golden():
    chain = [parse("123"), parse("132"), parse("231"), parse("321")]
    assert is_saturated_chain(chain)
    assert first_noncover(chain) is None


def test_chain_with_a_length_jump_is_not_saturated():
    chain = [parse("1234"), parse("1432")]
    assert leq(chain[0], chain[1])
    assert not is_saturated_chain(chain)
    assert first_noncover(chain) == 1


def test_first_noncover_reports_earliest_break():
    chain = [
        parse("123"),
        parse("213"),
        parse("231"),
        parse("123"),  # drops back down
        parse("132"),
    ]
    assert first_noncover(chain) == 3


def test_chain_validation():
    with pytest.raises(ValueError):
        is_saturated_chain([])
    with pytest.raises(ValueError):
        chain_text([(1, 2), (1, 2, 3)])


def test_chain_text_golden():
    chain = [parse("123"), parse("132"), parse("231")]
    assert chain_text(chain) == ["123", "132", "231"]


def test_chain_to_dot_is_syntactically_plausible():
    chain = [parse("123"), parse("132"), parse("231"), parse("321")]
    dot = chain_to_dot(chain)
    assert dot.startswith("digraph")
    assert dot.count("{") == dot.count("}") == 1
    assert dot.count("->") == len(chain) - 1
    assert dot.count('"') % 2 == 0
    assert '"132" -> "231"' in dot


# --------------------------------------------------------- rank counts

def test_interval_rank_counts_against_oracle_downsets():
    for n in range(1, 6):
        down = bruhat_downsets(n)
        for w in all_windows(n):
            counts = [0] * (length(w) + 1)
            for x in down[w]:
                counts[length(x)] += 1
            assert interval_rank_counts(w) == tuple(counts)


def test_interval_rank_counts_goldens():
    assert interval_rank_counts(parse("321")) == (1, 2, 2, 1)
    assert interval_rank_counts(parse("3412")) == (1, 3, 5, 4, 1)
    assert interval_rank_counts(parse("4231")) == (1, 3, 5, 6, 4, 1)
    assert interval_rank_counts(identity(4)) == (1,)
