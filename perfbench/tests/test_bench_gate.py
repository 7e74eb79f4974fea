"""The oracle gate passes real sweeps and fails on any one wrong expectation."""

import copy

import pytest

import oracle
import sweep


@pytest.fixture(scope="module")
def orders_s6():
    return sweep.run_pass("orders", 6, seed=3)


@pytest.fixture(scope="module")
def conjecture_d4():
    return sweep.run_pass("conjecture", 4, seed=3)


def test_gate_accepts_the_real_s6_orders_sweep(orders_s6):
    assert oracle.gate("orders", orders_s6, oracle.expected("orders", 6)) == []


def test_gate_accepts_the_real_d4_conjecture_sweep(conjecture_d4):
    assert oracle.gate("conjecture", conjecture_d4, oracle.expected("conjecture", 4)) == []


@pytest.mark.parametrize(
    "path, wrong",
    [
        (("population",), 365),
        (("group_size",), 719),
        (("orders", "543216"), 767),
        (("orders", "213456"), 2),
        (("cap",), 11),
    ],
)
def test_one_wrong_expected_value_fails_the_gate(orders_s6, path, wrong):
    want = copy.deepcopy(oracle.expected("orders", 6))
    target = want
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = wrong
    assert oracle.gate("orders", orders_s6, want)


def test_wrong_type_d_group_order_fails_the_gate(conjecture_d4):
    want = dict(oracle.expected("conjecture", 4), group_size=191)
    assert oracle.gate("conjecture", conjecture_d4, want)


def test_wrong_verdicts_fail_the_gate(orders_s6):
    want = oracle.expected("orders", 6)
    bad = copy.deepcopy(orders_s6)
    decided = next(r for r in bad["elements"] if r[1])
    decided[3] -= 1  # one order no longer verifies
    assert any("wrong verdict" in p for p in oracle.gate("orders", bad, want))

    bad = copy.deepcopy(orders_s6)
    small = next(r for r in bad["elements"] if r[0] == "213456")
    small[1] = False  # refused although far under the cap
    assert any("refused" in p for p in oracle.gate("orders", bad, want))


def test_type_d_length_matches_the_group():
    from smoothchains import type_d

    group = type_d.weyl_group(4)
    assert all(oracle.type_d_length(w) == group.length_of(w) for w in group.windows)
