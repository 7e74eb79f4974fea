"""The driver's per-element sweeps count what the command line counts."""

import json

import pytest

import sweep
from smoothchains.cli import main


def cli_json(capsys, *argv):
    code = main([*argv, "--json"])
    payload = json.loads(capsys.readouterr().out)
    return code, payload


def totals(result):
    records = result["elements"]
    return {
        "checked": len(records),
        "decided": sum(1 for r in records if r[1]),
        "orders": sum(r[2] for r in records),
        "verified": sum(r[3] for r in records),
        "ok": all(r[4] for r in records),
    }


def test_theorem_sweep_matches_theorem_verify(capsys):
    code, payload = cli_json(capsys, "sweep", "--mode", "theorem-verify", "--n", "6")
    got = totals(sweep.run_pass("theorem", 6, seed=5))
    assert code == 0 and payload["ok"] and got["ok"]
    assert payload["counters"] == {"checked": got["checked"], "verified": got["verified"]}


@pytest.mark.parametrize("mode", ["enumerate-orders", "graph-connectivity"])
def test_orders_sweep_matches_cli_mode(capsys, mode):
    code, payload = cli_json(capsys, "sweep", "--mode", mode, "--n", "5")
    got = totals(sweep.run_pass("orders", 5, seed=5))
    assert code == 0 and payload["ok"] and got["ok"]
    assert got["decided"] == got["checked"]
    assert got["verified"] == got["orders"]
    assert payload["counters"] == {"checked": got["checked"], "orders": got["orders"]}


def test_conjecture_sweep_matches_typed_conjecture(capsys):
    code, payload = cli_json(capsys, "typed", "conjecture", "--rank", "4")
    got = totals(sweep.run_pass("conjecture", 4, seed=5))
    assert code == 0 and payload["ok"] and got["ok"]
    assert payload["smooth_count"] == got["checked"]
    assert payload["checked"] == got["decided"]
    assert sum(e["orders_found"] for e in payload["elements"]) == got["orders"]
