"""Acceptance gate.

One test per stated requirement, checked at exact values (tolerance
zero), each printing a single PASS or FAIL line.  Stated runtime
budgets are asserted inside the timed block.  Run with -s to see the
lines as they happen.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from functools import lru_cache

from smoothchains import type_d
from smoothchains.admissible import (
    c23,
    c_t,
    find_wedges,
    is_smooth_length,
    is_smooth_pattern,
)
from smoothchains.orders import (
    construct_compatible_order,
    elementary_neighbors,
    enumerate_compatible_orders,
    is_compatible,
    verify_order,
)
from smoothchains.permutations import (
    all_windows,
    compose,
    identity,
    inverse,
    length,
    parse,
    transposition_window,
)

from oracles import d_cover_pairs, d_cover_pairs_oracle, leading_simple

EXAMPLE_WINDOW = parse("35142")
EXAMPLE_REFLECTIONS = frozenset(
    {(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (2, 5), (4, 5), (3, 5)}
)
EXAMPLE_ORDER = ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (2, 5), (4, 5), (3, 5))

SAMPLE_SEED = 2025
SAMPLE_SIZE = 50


@contextmanager
def criterion(tag: str):
    try:
        yield
    except BaseException:
        print(f"{tag}: FAIL", flush=True)
        raise
    print(f"{tag}: PASS", flush=True)


@lru_cache(maxsize=1)
def smoothness_scan():
    """(window, by_pattern, by_length, reflections_below, length) rows, n <= 7."""
    rows = []
    for n in range(1, 8):
        for w in all_windows(n):
            w = tuple(w)
            rows.append(
                (w, is_smooth_pattern(w), is_smooth_length(w), len(c_t(w)), length(w))
            )
    return tuple(rows)


def smooth_windows(n: int) -> list[tuple[int, ...]]:
    return [tuple(w) for w in all_windows(n) if is_smooth_pattern(tuple(w))]


def test_criterion_01_smoothness_criteria_agree_through_degree_7():
    with criterion("criterion 01 criteria-agreement-degree-7"):
        start = time.monotonic()
        rows = smoothness_scan()
        for w, by_pattern, by_length, _, _ in rows:
            assert by_pattern == by_length, w
        elapsed = time.monotonic() - start
        assert len(rows) == sum(
            [1, 2, 6, 24, 120, 720, 5040]
        )
        assert elapsed < 10.0, f"scan took {elapsed:.1f}s, budget 10s"


def test_criterion_02_worked_example_35142():
    with criterion("criterion 02 example-35142-arrangement"):
        assert c_t(EXAMPLE_WINDOW) == EXAMPLE_REFLECTIONS
        n = len(EXAMPLE_WINDOW)
        product = identity(n)
        for i, j in EXAMPLE_ORDER:
            product = compose(product, transposition_window(n, i, j))
        assert product == EXAMPLE_WINDOW
        report = verify_order(EXAMPLE_WINDOW, EXAMPLE_ORDER)
        assert report.product_ok
        assert not report.prefix_saturated


def test_criterion_03_constructed_orders_verify_through_degree_6():
    with criterion("criterion 03 constructed-orders-degree-6"):
        start = time.monotonic()
        count = 0
        for n in range(1, 7):
            for w in smooth_windows(n):
                count += 1
                order = construct_compatible_order(w)
                assert is_compatible(order, c23(w)), w
                report = verify_order(w, order)
                assert report.product_ok, w
                assert report.prefix_saturated, w
                assert report.suffix_saturated, w
                assert report.prefix_chain[-1] == w
                assert report.suffix_chain[-1] == inverse(w)
        elapsed = time.monotonic() - start
        assert count == 1 + 2 + 6 + 22 + 88 + 366
        assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"


def test_criterion_04_every_enumerated_order_verifies():
    with criterion("criterion 04 all-orders-s4-plus-sampled-s5"):
        start = time.monotonic()
        for w in smooth_windows(4):
            for order in enumerate_compatible_orders(c23(w)):
                assert verify_order(w, order).all_ok, (w, order)

        population = sorted(smooth_windows(5))
        rng = random.Random(SAMPLE_SEED)
        picks = rng.sample(population, SAMPLE_SIZE)
        for w in picks:
            orders = enumerate_compatible_orders(c23(w))
            assert orders, w
            for order in orders:
                assert verify_order(w, order).all_ok, (w, order)
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 2min"


def test_criterion_05_move_graph_reaches_every_order():
    with criterion("criterion 05 move-closure-equals-enumeration-s4"):
        start = time.monotonic()
        for w in smooth_windows(4):
            A = c23(w)
            everything = set(enumerate_compatible_orders(A))
            seed = construct_compatible_order(w)
            seen = {seed}
            frontier = [seed]
            while frontier:
                current = frontier.pop()
                for neighbor in elementary_neighbors(current, A):
                    if neighbor not in seen:
                        seen.add(neighbor)
                        frontier.append(neighbor)
            assert seen == everything, w
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 1min"


def test_criterion_06_non_smooth_windows_have_reflection_excess():
    with criterion("criterion 06 reflection-excess-degree-7"):
        for w, by_pattern, _, reflections, lw in smoothness_scan():
            if not by_pattern:
                assert reflections > lw, w


def test_criterion_07_wedge_run_properties():
    with criterion("criterion 07 wedge-runs-and-tail-lengths"):
        start = time.monotonic()
        instances = 0
        for n in range(1, 7):
            for w in smooth_windows(n):
                for i, j in find_wedges(c23(w)):
                    instances += 1
                    # strictly decreasing on positions i..j
                    assert all(w[x - 1] > w[x] for x in range(i, j)), (w, i, j)
                    moved = w
                    for b in range(i + 1, j + 1):
                        moved = compose(moved, transposition_window(n, i, b))
                    trail = [moved[x - 1] for x in range(i + 1, j + 1)]
                    trail.append(moved[i - 1])
                    assert all(a > b for a, b in zip(trail, trail[1:])), (w, i, j)
        assert instances == 333

        tails = 0
        for n in range(2, 9):
            for i in range(1, n):
                for d in range(1, n - i + 1):
                    product = identity(n)
                    for b in range(i + d, i, -1):
                        product = compose(product, transposition_window(n, i, b))
                    assert length(product) == d, (n, i, d)
                    tails += 1
        assert tails == 84
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


def test_criterion_08_type_d_rank_4_conjecture_holds():
    with criterion("criterion 08 type-d-rank-4-run"):
        start = time.monotonic()
        group = type_d.weyl_group(4)
        reports = [type_d.check_element(group, w) for w in type_d.smooth_elements(4)]
        counterexamples = [e.window for e in reports if not e.ok]
        if counterexamples:
            # a refutation only counts with the order configuration shown
            print("simple-root order in force:", flush=True)
            for line in type_d.simple_order_config(4):
                print(f"  {line}", flush=True)
        assert len(group) == 192
        assert len(reports) == 108
        assert counterexamples == []
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 5min"


def test_criterion_09_type_d_property_suite():
    with criterion("criterion 09 type-d-properties"):
        start = time.monotonic()
        # distinct leading simples for summable positive roots, n <= 6
        for n in range(2, 7):
            roots = set(type_d.positive_roots(n))
            for alpha in roots:
                for beta in roots:
                    if alpha == beta:
                        continue
                    if type_d.tuple_add(alpha, beta) not in roots:
                        continue
                    fa = leading_simple(alpha)
                    fb = leading_simple(beta)
                    assert fa != fb, (alpha, beta)
                    assert type_d.simple_rank(fa) != type_d.simple_rank(fb)

        # cover relation cross-check on the rank 4 group
        group = type_d.weyl_group(4)
        ours = set(d_cover_pairs(group))
        assert ours == d_cover_pairs_oracle(group)

        # unsigned windows embed with the same smoothness verdict
        for n in range(2, 5):
            dgroup = type_d.weyl_group(n)
            for w in all_windows(n):
                w = tuple(w)
                embedded = type_d.embed_window(w)
                assert dgroup.is_smooth(embedded) == is_smooth_pattern(w), w
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 1min"


def test_criterion_10_sweep_reports_are_deterministic():
    with criterion("criterion 10 byte-identical-sweep-reports"):
        argv = [
            sys.executable, "-m", "smoothchains.cli",
            "sweep", "--mode", "theorem-verify", "--n", "4",
            "--workers", "2", "--json",
        ]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)["ok"] is True
