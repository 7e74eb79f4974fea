from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from smoothchains import cli, ordering_engine, orders
from smoothchains.admissible import is_smooth_pattern
from smoothchains.cli import main
from smoothchains.ordering_engine import Verdict
from smoothchains.permutations import all_windows

CLI = [sys.executable, "-m", "smoothchains.cli"]
GOLDEN = Path(__file__).with_name("golden_cli.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv, "--json")
    return code, json.loads(out)


# -------------------------------------------------------------- smooth

def test_smooth_human_output_for_smooth_window(capsys):
    code, out, _ = run_cli(capsys, "smooth", "321")
    assert code == 0
    assert "smooth: yes" in out
    assert "order: T(2,3) T(1,3) T(1,2)" in out
    assert "product_ok: True" in out


def test_smooth_human_output_for_non_smooth_window(capsys):
    code, out, _ = run_cli(capsys, "smooth", "35142")
    assert code == 0
    assert "smooth: no" in out
    assert "pattern: 3412 at positions 1,2,3,5" in out
    assert "reflections_below 8 > length 6" in out


def test_smooth_json_schema(capsys):
    code, payload = run_json(capsys, "smooth", "4231")
    assert code == 0
    assert payload["schema"] == "smoothchains.smooth.v1"
    assert payload["smooth"] is False
    assert payload["pattern_name"] == "4231"
    assert payload["order"] is None


@pytest.mark.parametrize("perm", ["1", "12", "123"])
def test_smooth_identity_window_has_an_empty_order(capsys, perm):
    code, out, _ = run_cli(capsys, "smooth", perm)
    assert code == 0
    assert "smooth: yes" in out
    assert "order:" in [line.rstrip() for line in out.splitlines()]
    for flag in ("product_ok", "prefix_saturated", "suffix_saturated"):
        assert f"{flag}: True" in out
    code, payload = run_json(capsys, "smooth", perm)
    assert code == 0
    assert payload["smooth"] is True
    assert payload["order"] == []
    verification = payload["verification"]
    assert verification["order"] == []
    assert verification["prefix_chain"] == [perm]
    for flag in ("product_ok", "prefix_saturated", "suffix_saturated"):
        assert verification[flag] is True


@pytest.mark.parametrize(
    "argv, json_order",
    [(["smooth", "1"], lambda p: p["order"]), (["order", "12"], lambda p: p["report"]["order"])],
)
def test_an_empty_arrangement_prints_a_bare_order_line(capsys, argv, json_order):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("order")] == ["order:"]
    code, payload = run_json(capsys, *argv)
    assert code == 0
    assert json_order(payload) == []


def test_smooth_rejects_bad_window(capsys):
    code, _, err = run_cli(capsys, "smooth", "311")
    assert code == 2
    assert "error:" in err


# --------------------------------------------------------------- order

def test_order_construct_json(capsys):
    code, payload = run_json(capsys, "order", "321")
    assert code == 0
    assert payload["schema"] == "smoothchains.order.v1"
    report = payload["report"]
    assert report["order"] == ["T(2,3)", "T(1,3)", "T(1,2)"]
    assert report["product_ok"] is True
    assert report["prefix_chain"] == ["123", "132", "231", "321"]
    assert report["suffix_chain"][-1] == "321"


def test_order_write_then_verify_round_trip(tmp_path, capsys):
    path = tmp_path / "w.order"
    code, _, _ = run_cli(capsys, "order", "2413", "--write-order", str(path))
    assert code == 0
    assert path.read_text().splitlines() == ["T(1,2)", "T(3,4)", "T(2,3)"]
    code, out, _ = run_cli(capsys, "order", "2413", "--verify", str(path))
    assert code == 0
    assert "product_ok: True" in out


def test_order_file_allows_comments_and_blanks(tmp_path, capsys):
    path = tmp_path / "w.order"
    path.write_text("# arrangement for 321\n\nT(2,3)\nT(1,3)\nT(1,2)\n")
    code, out, _ = run_cli(capsys, "order", "321", "--verify", str(path))
    assert code == 0
    assert "prefix_saturated: True" in out


def test_order_verify_flags_bad_arrangement(tmp_path, capsys):
    # right reflections, wrong arrangement: report it and exit 1
    path = tmp_path / "bad.order"
    path.write_text("T(1,2)\nT(2,3)\nT(1,3)\n")
    code, out, _ = run_cli(capsys, "order", "321", "--verify", str(path))
    assert code == 1
    assert "product_ok: False" in out


def test_order_verify_rejects_wrong_reflection_set(tmp_path, capsys):
    path = tmp_path / "short.order"
    path.write_text("T(1,2)\nT(2,3)\n")
    code, _, err = run_cli(capsys, "order", "321", "--verify", str(path))
    assert code == 2
    assert "does not match" in err


def test_order_verify_rejects_out_of_range_reflection(tmp_path, capsys):
    path = tmp_path / "far.order"
    path.write_text("T(5,9)\n")
    code, _, err = run_cli(capsys, "order", "321", "--verify", str(path))
    assert code == 2
    assert err == "error: arrangement does not match the reflections below w\n"


def test_order_file_rejects_cycle_lines(tmp_path, capsys):
    path = tmp_path / "cycles.order"
    path.write_text("R(1,2,3)\n")
    code, _, err = run_cli(capsys, "order", "321", "--verify", str(path))
    assert code == 2
    assert "only T(i,j) lines" in err


@pytest.mark.parametrize(
    "content, reason",
    [
        (None, "No such file or directory"),
        (b"\xff\xfeT(1,2)\n", "not UTF-8 text"),
    ],
    ids=["missing", "binary"],
)
def test_order_verify_names_an_unreadable_file(tmp_path, capsys, content, reason):
    path = tmp_path / "w.order"
    if content is not None:
        path.write_bytes(content)
    code, out, err = run_cli(capsys, "order", "321", "--verify", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot read {path}: {reason}\n"


def test_order_write_names_an_unwritable_path(tmp_path, capsys):
    path = tmp_path / "nodir" / "x.order"
    code, out, err = run_cli(capsys, "order", "321", "--write-order", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {path}: No such file or directory\n"


def test_order_file_names_the_line_of_a_malformed_element(tmp_path, capsys):
    path = tmp_path / "broken.order"
    path.write_text("T(2,3)\nT(1,3\n")
    code, _, err = run_cli(capsys, "order", "321", "--verify", str(path))
    assert code == 2
    assert err == f"error: {path}:2: bad element text: 'T(1,3'\n"


def test_order_refuses_non_smooth(capsys):
    code, _, err = run_cli(capsys, "order", "4231")
    assert code == 2
    assert "not smooth" in err
    assert "4231" in err


def test_order_refuses_enumerating_a_non_admissible_set(tmp_path, capsys):
    # an arrangement of the five reflections below 3412 verifies, but the
    # set below 3412 is not admissible, so there is nothing to enumerate
    path = tmp_path / "3412.order"
    path.write_text("T(1,2)\nT(1,3)\nT(2,3)\nT(2,4)\nT(3,4)\n")
    code, out, err = run_cli(capsys, "order", "3412", "--verify", str(path), "--enumerate")
    assert code == 2
    assert out == ""
    assert err == (
        "error: the set below this window is not admissible; "
        "enumeration is only defined for admissible sets\n"
    )


def test_order_enumerate_lists_all(capsys):
    code, payload = run_json(capsys, "order", "321", "--enumerate")
    assert code == 0
    assert payload["orders_count"] == 2
    assert payload["orders"] == [
        "T(1,2) T(1,3) T(2,3)",
        "T(2,3) T(1,3) T(1,2)",
    ]


def test_order_dot_outputs_are_wellformed(capsys):
    code, payload = run_json(capsys, "order", "321", "--dot", "--dot-chain")
    assert code == 0
    dot = payload["dot"]
    assert dot.startswith("graph")
    assert dot.count("{") == dot.count("}") == 1
    assert dot.count('"') % 2 == 0
    chain = payload["dot_chain"]
    assert chain.startswith("digraph")
    assert chain.count("->") == 3
    assert '"123"' in chain


# --------------------------------------------------------------- sweep

def test_sweep_smooth_crosscheck_s4(capsys):
    code, payload = run_json(capsys, "sweep", "--mode", "smooth-crosscheck", "--n", "4")
    assert code == 0
    assert payload["schema"] == "smoothchains.sweep.v2"
    assert payload["population"] == 24
    assert payload["counters"] == {"checked": 24, "smooth": 22}
    assert payload["violations"] == []
    assert payload["ok"] is True


def test_sweep_theorem_verify_s4(capsys):
    code, payload = run_json(capsys, "sweep", "--mode", "theorem-verify", "--n", "4")
    assert code == 0
    assert payload["counters"] == {"checked": 22, "verified": 22}


def test_sweep_enumerate_orders_s4(capsys):
    code, payload = run_json(capsys, "sweep", "--mode", "enumerate-orders", "--n", "4")
    assert code == 0
    assert payload["counters"]["orders"] == 54


def test_sweep_graph_connectivity_s4(capsys):
    code, payload = run_json(
        capsys, "sweep", "--mode", "graph-connectivity", "--n", "4"
    )
    assert code == 0
    assert payload["ok"] is True


def test_sweep_conjecture_d_rank3(capsys):
    code, payload = run_json(capsys, "sweep", "--mode", "conjecture-d", "--rank", "3")
    assert code == 0
    assert payload["rank"] == 3
    assert payload["counters"] == {"checked": 22, "orders": 54}
    assert "max_reflections" not in payload
    assert payload["simple_order"][0] == "e2-e1 rank 2"


def test_sweep_conjecture_d_rank5_under_a_raised_cap(capsys):
    # every smooth element of D5, w0's 20 reflections included, as
    # sweeps take no cap
    code, payload = run_json(capsys, "sweep", "--mode", "conjecture-d", "--rank", "5")
    assert code == 0
    assert payload["counters"] == {"checked": 490, "orders": 13210910}
    assert payload["ok"] is True


def test_formerly_refused_defaults_finish(capsys):
    # sweeps and typed conjecture run uncapped
    runs = [
        run_json(capsys, "sweep", "--mode", mode, "--n", "6")
        for mode in ("enumerate-orders", "graph-connectivity")
    ]
    assert [code for code, _ in runs] == [0, 0]
    assert runs[0][1]["counters"] == runs[1][1]["counters"]
    assert runs[0][1]["counters"]["checked"] == 366
    code, typed = run_json(capsys, "typed", "conjecture", "--rank", "5")
    assert code == 0 and typed["ok"] is True
    assert typed["checked"] == 490
    assert sum(e["orders_found"] for e in typed["elements"]) == 13210910


# Each violation kind, produced by patching the name its check reads in
# cli so that the check fails on one element of S3 (or every smooth
# element of D3).

def _one_violation(capsys, argv):
    """The text and JSON runs of a sweep that finds violations."""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert out.splitlines()[-1] == "result: violations found"
    code, payload = run_json(capsys, *argv)
    assert code == 1
    assert payload["ok"] is False
    return out, payload["violations"]


def _patch_length_at_321(monkeypatch):
    real = cli.length
    monkeypatch.setattr(cli, "length", lambda w: real(w) + (w == (3, 2, 1)))


def test_sweep_reports_criteria_disagree(capsys, monkeypatch):
    _patch_length_at_321(monkeypatch)
    out, found = _one_violation(capsys, ["sweep", "--mode", "smooth-crosscheck", "--n", "3"])
    assert found == [
        {"window": "321", "kind": "criteria-disagree", "by_pattern": True, "by_length": False}
    ]
    assert "VIOLATION 321: criteria-disagree by_length=False, by_pattern=True\n" in out


def test_sweep_reports_no_reflection_excess(capsys, monkeypatch):
    _patch_length_at_321(monkeypatch)
    monkeypatch.setattr(cli, "is_smooth_pattern", lambda w: w != (3, 2, 1))
    out, found = _one_violation(capsys, ["sweep", "--mode", "smooth-crosscheck", "--n", "3"])
    assert found == [
        {"window": "321", "kind": "no-reflection-excess", "reflections_below": 3, "length": 4}
    ]
    assert "VIOLATION 321: no-reflection-excess length=4, reflections_below=3\n" in out


def test_sweep_reports_construction_fails(capsys, monkeypatch):
    real = cli.construct_for_set
    monkeypatch.setattr(cli, "construct_for_set", lambda A: real(A)[::-1])
    out, found = _one_violation(capsys, ["sweep", "--mode", "theorem-verify", "--n", "3"])
    fields = {"product_ok": False, "prefix_saturated": True, "suffix_saturated": True}
    assert found == [
        {"window": "231", "kind": "construction-fails", **fields},
        {"window": "312", "kind": "construction-fails", **fields},
    ]
    assert (
        "VIOLATION 231: construction-fails "
        "prefix_saturated=True, product_ok=False, suffix_saturated=True\n"
    ) in out


def test_sweep_reports_no_compatible_order(capsys, monkeypatch):
    real = orders.chain_verdicts
    monkeypatch.setattr(
        orders, "chain_verdicts",
        lambda items, *rest: real(items, *rest) if len(items) < 3 else Counter(),
    )
    out, found = _one_violation(capsys, ["sweep", "--mode", "enumerate-orders", "--n", "3"])
    assert found == [{"window": "321", "kind": "no-compatible-order"}]
    assert "VIOLATION 321: no-compatible-order\n" in out


def test_sweep_reports_order_fails_verification(capsys, monkeypatch):
    # flipping which product is a member turns the one arrangement of
    # 231 (and of 312) around: it multiplies to the other window, and
    # its suffix chain, read along w^{-1} x, breaks at the first step
    real = orders.reflection_pairs
    monkeypatch.setattr(
        orders, "reflection_pairs",
        lambda A: [(a, b, mid, ba, ab) for a, b, mid, ab, ba in real(A)],
    )
    out, found = _one_violation(capsys, ["sweep", "--mode", "enumerate-orders", "--n", "3"])
    fields = {"product_ok": False, "prefix_saturated": True, "suffix_saturated": False}
    assert found == [
        {"window": "231", "kind": "order-fails-verification", "orders": 1, **fields},
        {"window": "312", "kind": "order-fails-verification", "orders": 1, **fields},
    ]
    assert (
        "VIOLATION 231: order-fails-verification orders=1, "
        "prefix_saturated=True, product_ok=False, suffix_saturated=False\n"
    ) in out


def test_order_fails_verification_gives_one_entry_per_verdict(capsys, monkeypatch):
    # 213 -> 213 * T(1,3) is a step of the prefix chain of T(1,2) T(1,3) T(2,3)
    # and of the suffix chain of T(2,3) T(1,3) T(1,2), the two arrangements of 321
    real = orders.bruhat.swap_covers
    monkeypatch.setattr(
        orders.bruhat, "swap_covers",
        lambda x, i, j: real(x, i, j) and (tuple(x), i, j) != ((2, 1, 3), 1, 3),
    )
    out, found = _one_violation(capsys, ["sweep", "--mode", "enumerate-orders", "--n", "3"])
    entry = {"window": "321", "kind": "order-fails-verification", "orders": 1, "product_ok": True}
    assert found == [
        {**entry, "prefix_saturated": False, "suffix_saturated": True},
        {**entry, "prefix_saturated": True, "suffix_saturated": False},
    ]
    assert (
        "VIOLATION 321: order-fails-verification orders=1, "
        "prefix_saturated=False, product_ok=True, suffix_saturated=True\n"
        "VIOLATION 321: order-fails-verification orders=1, "
        "prefix_saturated=True, product_ok=True, suffix_saturated=False\n"
    ) in out


def test_enumerate_orders_sweep_lists_no_arrangement(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the sweep listed or verified an arrangement")

    for module in (cli, orders):
        monkeypatch.setattr(module, "enumerate_compatible_orders", refuse)
        monkeypatch.setattr(module, "verify_order", refuse)
    monkeypatch.setattr(orders, "capped_orders", refuse)
    code, payload = run_json(capsys, "sweep", "--mode", "enumerate-orders", "--n", "5")
    assert code == 0
    assert payload["counters"] == {"checked": 88, "orders": 1517}


def test_graph_connectivity_sweep_lists_no_arrangement(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the sweep listed an arrangement")

    for module in (cli, orders):
        monkeypatch.setattr(module, "enumerate_compatible_orders", refuse)
    monkeypatch.setattr(orders, "capped_orders", refuse)
    monkeypatch.setattr(ordering_engine, "capped_orders", refuse)
    monkeypatch.setattr(ordering_engine, "connected_by_moves", refuse)
    code, payload = run_json(capsys, "sweep", "--mode", "graph-connectivity", "--n", "5")
    assert code == 0
    assert payload["counters"] == {"checked": 88, "orders": 1517}


def test_graph_connectivity_sweep_compiles_each_window_once(capsys, monkeypatch):
    # the count and the certificate come from one walk over one compiled
    # pair rule per window
    calls = []
    real = orders.reflection_pairs
    monkeypatch.setattr(orders, "reflection_pairs", lambda A: calls.append(A) or real(A))
    code, payload = run_json(capsys, "sweep", "--mode", "graph-connectivity", "--n", "5")
    assert code == 0
    assert payload["counters"] == {"checked": 88, "orders": 1517}
    assert len(calls) == 88


def test_graph_connectivity_sweep_falls_back_to_the_listing(capsys, monkeypatch):
    # with the certificate undecided everywhere, the listing's search
    # gives the same report
    argv = ["sweep", "--mode", "graph-connectivity", "--n", "5"]
    expected = run_json(capsys, *argv)
    monkeypatch.setattr(ordering_engine, "moves_connected", lambda *args: (0, False))
    assert run_json(capsys, *argv) == expected


@pytest.mark.parametrize("n", range(1, 9))
def test_smooth_windows_grow_by_inserting_the_maximum(n):
    assert cli._smooth_windows(n) == [w for w in all_windows(n) if is_smooth_pattern(w)]


def test_sweep_reports_graph_disconnected(capsys, monkeypatch):
    # 321 is the one window of S3 with two arrangements; with the
    # certificate undecided the sweep falls back to the listing's search
    monkeypatch.setattr(ordering_engine, "moves_connected", lambda *args: (0, False))
    monkeypatch.setattr(ordering_engine, "connected_by_moves", lambda listed, *rule: len(listed) < 2)
    out, found = _one_violation(capsys, ["sweep", "--mode", "graph-connectivity", "--n", "3"])
    assert found == [{"window": "321", "kind": "graph-disconnected"}]
    assert "VIOLATION 321: graph-disconnected\n" in out


def test_sweep_reports_conjecture_fails(capsys, monkeypatch):
    # the type D sweep names verdict failures as enumerate-orders does,
    # and a non-admissible element by its note
    real = cli.type_d.check_element
    w0, w1 = (1, -2, -3), (-1, -2, 3)

    def check(group, w, cap):
        report = real(group, w, cap)
        if w == w0:
            wrong = Verdict(False, True, True)
            return dataclasses.replace(report, verdicts=Counter({wrong: report.orders_found}))
        if w == w1:
            return dataclasses.replace(report, admissibility_note="a note")
        return report

    monkeypatch.setattr(cli.type_d, "check_element", check)
    out, found = _one_violation(capsys, ["sweep", "--mode", "conjecture-d", "--rank", "3"])
    fields = {"product_ok": False, "prefix_saturated": True, "suffix_saturated": True}
    assert sorted(found, key=lambda v: v["window"]) == [
        {"window": "-1,-2,3", "kind": "not-admissible", "admissibility_note": "a note"},
        {"window": "1,-2,-3", "kind": "order-fails-verification", "orders": 16, **fields},
    ]
    assert "VIOLATION -1,-2,3: not-admissible admissibility_note=a note\n" in out
    assert (
        "VIOLATION 1,-2,-3: order-fails-verification orders=16, "
        "prefix_saturated=True, product_ok=False, suffix_saturated=True\n"
    ) in out


def test_sweep_reports_a_type_d_chain_step_that_fails(capsys, monkeypatch):
    # steps that fail the up-cover out of the identity (id 0) by
    # t[e2-e1] break the prefix chain of every order that starts with
    # it and the suffix chain of every order that ends with it
    real = cli.type_d.chain_verdicts
    k = cli.type_d.positive_roots(3).index(cli.type_d.parse_root("e2-e1", 3))

    def chain(items, pairs, cap, steps, *rest):
        def flipped(x, z, t):
            xt, zt, up, down = steps(x, z, t)
            return xt, zt, up and (x, t) != (0, k), down and (zt, t) != (0, k)

        return real(items, pairs, cap, flipped, *rest)

    monkeypatch.setattr(cli.type_d, "chain_verdicts", chain)
    out, found = _one_violation(capsys, ["sweep", "--mode", "conjecture-d", "--rank", "3"])
    assert all(v["kind"] == "order-fails-verification" and v["product_ok"] for v in found)
    entry = {"kind": "order-fails-verification", "orders": 1, "product_ok": True}
    # t[e2-e1] itself: its one order is both chains' only step
    assert found[0] == {
        **entry, "window": "2,1,3", "prefix_saturated": False, "suffix_saturated": False
    }
    # 3,2,1 has two orders, one starting and one ending with t[e2-e1]
    assert [v for v in found if v["window"] == "3,2,1"] == [
        {**entry, "window": "3,2,1", "prefix_saturated": False, "suffix_saturated": True},
        {**entry, "window": "3,2,1", "prefix_saturated": True, "suffix_saturated": False},
    ]
    assert (
        "VIOLATION 2,1,3: order-fails-verification orders=1, "
        "prefix_saturated=False, product_ok=True, suffix_saturated=False\n"
    ) in out


def test_sweep_sampling_is_seeded(capsys):
    code, payload = run_json(
        capsys,
        "sweep", "--mode", "enumerate-orders", "--n", "5",
        "--sample", "7", "--seed", "41",
    )
    assert code == 0
    assert payload["population"] == 7
    assert payload["sample"] == 7 and payload["seed"] == 41


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--mode", "smooth-crosscheck", "--n", "5", "--sample", "3"],
        ["sweep", "--mode", "smooth-crosscheck", "--n", "13"],
        ["sweep", "--mode", "conjecture-d", "--rank", "7"],
        ["sweep", "--mode", "conjecture-d"],
        ["sweep", "--mode", "smooth-crosscheck"],
        ["sweep", "--mode", "smooth-crosscheck", "--n", "4", "--workers", "0"],
        ["sweep", "--mode", "smooth-crosscheck", "--n", "0"],
        ["sweep", "--mode", "theorem-verify", "--n", "-3"],
        ["sweep", "--mode", "smooth-crosscheck", "--n", "4", "--sample", "0", "--seed", "1"],
        ["sweep", "--mode", "smooth-crosscheck", "--n", "3", "--sample", "7", "--seed", "1"],
    ],
)
def test_sweep_usage_errors_exit_2(capsys, argv):
    code = main(argv)
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--mode", "smooth-crosscheck", "--n", "0"], "degree 0 is below the minimum 1"),
        (["sweep", "--mode", "theorem-verify", "--n", "-3"], "degree -3 is below the minimum 1"),
        (["typed", "conjecture", "--rank", "1"], "rank 1 is below the minimum 2"),
        (["order", "321", "--max-reflections", "-1"], "--max-reflections -1 is negative"),
        (["typed", "conjecture", "--rank", "7"], "rank 7 exceeds the supported limit 6"),
        (["sweep", "--mode", "smooth-crosscheck", "--n", "4", "--sample", "0", "--seed", "1"],
         "--sample 0 is outside 1..24"),
        (["sweep", "--mode", "smooth-crosscheck", "--n", "3", "--sample", "7", "--seed", "1"],
         "--sample 7 is outside 1..6"),
        (["typed", "roots", "--rank", "7"], "rank 7 exceeds the supported limit 6"),
        (["typed", "roots", "--rank", "0"], "rank 0 is below the minimum 2"),
        (["typed", "roots", "--rank", "1"], "rank 1 is below the minimum 2"),
        (["sweep", "--mode", "conjecture-d", "--rank", "1"], "rank 1 is below the minimum 2"),
        (["typed", "smooth", "--", "1"], "rank 1 is below the minimum 2"),
        (["typed", "smooth", "--", "1,2,3,4,5,6,7"], "rank 7 exceeds the supported limit 6"),
        (["sweep", "--mode", "conjecture-d", "--rank", "3", "--n", "9"],
         "--n does not apply to mode conjecture-d; it takes --rank"),
        (["sweep", "--mode", "theorem-verify", "--n", "4", "--rank", "3"],
         "--rank does not apply to mode theorem-verify; it takes --n"),
        # each sweep mode refuses one more than the largest size it was measured to finish
        (["sweep", "--mode", "smooth-crosscheck", "--n", "10"],
         "degree 10 exceeds the supported limit 9"),
        (["sweep", "--mode", "theorem-verify", "--n", "12"],
         "degree 12 exceeds the supported limit 11"),
        (["sweep", "--mode", "enumerate-orders", "--n", "11"],
         "degree 11 exceeds the supported limit 10"),
        (["sweep", "--mode", "graph-connectivity", "--n", "10"],
         "degree 10 exceeds the supported limit 9"),
        (["sweep", "--mode", "conjecture-d", "--rank", "7"],
         "rank 7 exceeds the supported limit 6"),
    ],
)
def test_out_of_range_values_are_refused_by_name(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_an_error_in_a_sweep_check_reaches_the_user(capsys, monkeypatch, workers):
    # in-process or from a worker, which is forked and sees the patch
    def refuse(A):
        raise ValueError("no arrangement for this set")

    monkeypatch.setattr(cli, "construct_for_set", refuse)
    code, out, err = run_cli(
        capsys, "sweep", "--mode", "theorem-verify", "--n", "4", "--workers", workers
    )
    assert (code, out, err) == (2, "", "error: no arrangement for this set\n")


@pytest.mark.parametrize("option", [["--allow-large"], ["--max-reflections", "12"]])
@pytest.mark.parametrize(
    "command", [["sweep", "--mode", "conjecture-d", "--rank", "3"], ["typed", "conjecture", "--rank", "3"]]
)
def test_whole_population_runs_take_no_size_knob(capsys, command, option):
    # each run's size limit is its one size rule
    with pytest.raises(SystemExit) as exit_info:
        main(command + option)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


def test_sweep_rejects_unknown_mode(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--mode", "everything", "--n", "4"])
    capsys.readouterr()


def test_multi_worker_run_differs_only_in_worker_count(capsys, monkeypatch):
    # reversed constructions fail on most of S5, so theorem-verify also
    # compares the order of its violations; forked workers see the patch
    real = cli.construct_for_set
    monkeypatch.setattr(cli, "construct_for_set", lambda A: real(A)[::-1])
    for mode, want in (("enumerate-orders", 0), ("theorem-verify", 1)):
        argv = ["sweep", "--mode", mode, "--n", "5", "--json"]
        code, solo, _ = run_cli(capsys, *argv)
        assert code == want
        assert (solo.count('"construction-fails"') > 10) == (want == 1)
        for workers in ("2", "3"):
            code, multi, _ = run_cli(capsys, *argv, "--workers", workers)
            assert code == want
            assert multi == solo.replace('"workers": 1', f'"workers": {workers}')


@pytest.mark.parametrize("n, workers", [(1, 3), (2, 4), (3, 4)])
def test_more_workers_than_elements_matches_one_worker(capsys, n, workers):
    argv = ["sweep", "--mode", "theorem-verify", "--n", str(n)]
    _, solo = run_json(capsys, *argv)
    _, multi = run_json(capsys, *argv, "--workers", str(workers))
    assert multi.pop("workers") == workers
    solo.pop("workers")
    assert solo == multi


def test_workers_beyond_the_cpu_count_start_no_more_processes(capsys, monkeypatch):
    started = []

    class InProcessPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, items, chunksize):
            return map(fn, items)

    monkeypatch.setattr(cli, "Pool", InProcessPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    argv = ["sweep", "--mode", "theorem-verify", "--n", "4"]
    _, solo = run_json(capsys, *argv)
    _, many = run_json(capsys, *argv, "--workers", "1000")
    # the 22 smooth windows of S4 go to 4 processes
    assert started == [4]
    assert many.pop("workers") == 1000
    solo.pop("workers")
    assert solo == many


def test_sweep_json_is_byte_identical_across_runs():
    argv = CLI + [
        "sweep", "--mode", "enumerate-orders", "--n", "4",
        "--sample", "10", "--seed", "3", "--workers", "2", "--json",
    ]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.returncode == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["typed", "conjecture", "--rank", "4", "--json"],
        ["sweep", "--mode", "conjecture-d", "--rank", "4", "--workers", "2", "--json"],
    ],
)
def test_type_d_json_is_byte_identical_across_hash_seeds(argv):
    runs = [
        subprocess.run(
            CLI + argv,
            env={**os.environ, "PYTHONHASHSEED": seed},
            capture_output=True,
            check=True,
        )
        for seed in ("1", "2")
    ]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout


# --------------------------------------------------------------- typed

def test_typed_roots_json(capsys):
    code, payload = run_json(capsys, "typed", "roots", "--rank", "3")
    assert code == 0
    assert payload["schema"] == "smoothchains.roots.v1"
    assert len(payload["positive_roots"]) == 6
    assert payload["simple_roots"] == ["e2-e1", "e3-e2", "e2+e1"]
    assert len(payload["poset_covers"]) == 6


def test_typed_smooth_golden(capsys):
    # options must precede the "--" that guards the signed window
    code = main(["typed", "smooth", "--json", "--", "-2,-1,3,4"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["schema"] == "smoothchains.typed-smooth.v1"
    assert payload["length"] == 1
    assert payload["interval_rank_counts"] == [1, 1]
    assert payload["smooth"] is True


def test_typed_smooth_rejects_odd_flips(capsys):
    code, _, err = run_cli(capsys, "typed", "smooth", "--", "-1,2,3")
    assert code == 2
    assert "error:" in err


def test_typed_conjecture_rank2(capsys):
    code, payload = run_json(capsys, "typed", "conjecture", "--rank", "2")
    assert code == 0
    assert payload["schema"] == "smoothchains.conjecture.v2"
    assert payload["ok"] is True
    assert payload["checked"] == 4
    assert payload["product_pair_rule"] == "same-decomposition orientations"


def test_typed_conjecture_rank_guards(capsys):
    code = main(["typed", "conjecture", "--rank", "7"])
    capsys.readouterr()
    assert code == 2


def test_typed_conjecture_human_output_names_the_order_config(capsys):
    code, out, _ = run_cli(capsys, "typed", "conjecture", "--rank", "3")
    assert code == 0
    assert "simple_order: e2-e1 rank 2; e3-e2 rank 3; e2+e1 rank 2" in out
    assert "result: ok" in out


# -------------------------------------------------------------- golden

GOLDEN_CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "case", GOLDEN_CASES, ids=[" ".join(c["argv"]) for c in GOLDEN_CASES]
)
def test_cli_output_matches_golden(capsys, case):
    # each case holds what main(argv) returned and wrote, byte for byte;
    # a case is rewritten only when its output is meant to change
    code, out, err = run_cli(capsys, *case["argv"])
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])
