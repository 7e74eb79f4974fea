"""The gate every pass must clear: verdicts checked against outside facts.

Nothing here calls the package.  The expected values come from:

* OEIS A032351, the number of smooth permutations (avoiding 3412 and
  4231) of each degree;
* the order of the type D Weyl group, 2^(n-1) * n!;
* Stanley (1984): the longest element of S_k has 1, 2, 16 and 768
  reduced words for k = 2..5, and the compatible arrangements of a
  block-diagonal w0 window are counted the same way;
* Carrell-Peterson: a smooth element has exactly length-many
  reflections below it, so the enumeration cap may refuse an element
  only when its length, computed here from its window, exceeds the cap.

Every decided element must also carry a positive verdict: its
arrangements exist and verify, its move graph is connected, and its
type D conjecture checks hold.
"""

from __future__ import annotations

import math

SMOOTH_PERMUTATIONS = {5: 88, 6: 366, 7: 1552, 8: 6652}  # OEIS A032351

# Block windows of S6 whose arrangements are reduced words of a w0.
STANLEY_COUNTS = {
    "213456": 1,
    "321456": 2,
    "432156": 16,
    "154326": 16,
    "543216": 768,
    "165432": 768,
}

TYPE_A_CAP = 10  # orders.DEFAULT_MAX_REFLECTIONS
TYPE_D_CAP = 12  # type_d.CONJECTURE_MAX_REFLECTIONS


def expected(kind: str, size: int) -> dict:
    """Outside facts for one workload; tests pass altered copies."""
    if kind == "conjecture":
        return {
            "group_size": 2 ** (size - 1) * math.factorial(size),
            "cap": TYPE_D_CAP,
        }
    out = {
        "group_size": math.factorial(size),
        "population": SMOOTH_PERMUTATIONS[size],
        "cap": None if kind == "theorem" else TYPE_A_CAP,
    }
    if kind == "orders" and size == 6:
        out["orders"] = dict(STANLEY_COUNTS)
    return out


def parse_element(ident: str) -> tuple[int, ...]:
    """A window from its digit or comma-separated (signed) text."""
    if "," in ident:
        return tuple(int(v) for v in ident.split(","))
    return tuple(int(ch) for ch in ident)


def type_a_length(w) -> int:
    """Inversions of the window."""
    return sum(1 for a in range(len(w)) for b in range(a + 1, len(w)) if w[a] > w[b])


def type_d_length(w) -> int:
    """Inversions plus pairs with negative sum (Bjorner-Brenti 8.2.1)."""
    n = len(w)
    return type_a_length(w) + sum(
        1 for a in range(n) for b in range(a + 1, n) if w[a] + w[b] < 0
    )


def gate(kind: str, result: dict, want: dict) -> list[str]:
    """Every way the pass's verdicts disagree with ``want``; empty if none."""
    problems = []
    records = result["elements"]
    if result["group_size"] != want["group_size"]:
        problems.append(f"group size {result['group_size']}, expected {want['group_size']}")
    if "population" in want and len(records) != want["population"]:
        problems.append(f"{len(records)} smooth elements, expected {want['population']}")
    if len({r[0] for r in records}) != len(records):
        problems.append("an element was fed twice")
    length = type_d_length if kind == "conjecture" else type_a_length
    wanted_orders = want.get("orders", {})
    missing = set(wanted_orders) - {r[0] for r in records}
    if missing:
        problems.append(f"elements never checked: {sorted(missing)}")
    for ident, decided, n_orders, verified, ok, _latency, error in records:
        if error is not None:
            problems.append(f"{ident}: raised {error}")
        elif not decided:
            cap = want["cap"]
            ell = length(parse_element(ident))
            if cap is None or ell <= cap:
                problems.append(f"{ident}: refused with {ell} reflections, cap {cap}")
        elif not ok or n_orders == 0 or verified != n_orders:
            problems.append(
                f"{ident}: wrong verdict ({n_orders} orders, {verified} verified, ok={ok})"
            )
        elif ident in wanted_orders and n_orders != wanted_orders[ident]:
            problems.append(f"{ident}: {n_orders} orders, expected {wanted_orders[ident]}")
    return problems
