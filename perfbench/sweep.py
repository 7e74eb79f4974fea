"""One cold pass of one workload, run in its own interpreter.

Each workload is an exhaustive sweep that feeds the package's public
library functions one element at a time, in the same call sequence as
the matching ``smoothchains sweep`` or ``typed conjecture`` mode, at the
library's default enumeration caps.  Functions are looked up through
their modules at call time (``admissible.c23``, not a bound name) so a
tracer that patches a module attribute also sees the driver's calls.

Run as a script this prints one JSON object: the monotonic timestamps
at which the population was ready and the last verdict was reached,
and one record per element.  ``time.monotonic`` reads the system-wide
monotonic clock on Linux, so the parent can subtract its own spawn
time.  ``run.py`` starts it, measures it from
outside and checks its verdicts.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass

from smoothchains import admissible, orders, permutations, type_d


@dataclass(frozen=True)
class Outcome:
    """What one element's check decided.

    ``orders`` counts the arrangements checked (the constructed one for
    the theorem sweep), ``verified`` how many of them passed
    verification, and ``ok`` is the element's verdict.
    """

    decided: bool
    orders: int = 0
    verified: int = 0
    ok: bool = False


REFUSED = Outcome(decided=False)


def population(kind: str, size: int):
    """(context, elements, group_size) for one workload."""
    if kind == "conjecture":
        group = type_d.weyl_group(size)
        smooth = [w for w in group.windows if group.is_smooth(w)]
        return group, smooth, len(group)
    windows = list(permutations.all_windows(size))
    return None, [w for w in windows if admissible.is_smooth_pattern(w)], len(windows)


def check_theorem(_, w) -> Outcome:
    # sweep --mode theorem-verify
    A = admissible.c23(w)
    order = orders.construct_compatible_order(w)
    report = orders.verify_order(w, order)
    ok = report.all_ok and orders.is_compatible(order, A)
    return Outcome(True, 1, int(report.all_ok), ok)


def check_orders(_, w) -> Outcome:
    # sweep --mode enumerate-orders, then --mode graph-connectivity
    A = admissible.c23(w)
    try:
        found = orders.enumerate_compatible_orders(A)
    except ValueError:  # over the enumeration cap
        return REFUSED
    verified = sum(orders.verify_order(w, o).all_ok for o in found)
    connected = orders.graph_connected(A)
    ok = bool(found) and verified == len(found) and connected
    return Outcome(True, len(found), verified, ok)


def check_conjecture(group, w) -> Outcome:
    # typed conjecture / sweep --mode conjecture-d
    try:
        report = type_d.check_element(group, w)
    except ValueError:  # over the enumeration cap
        return REFUSED
    n = report.orders_found
    return Outcome(True, n, n if report.products_ok else 0, report.ok)


CHECKS = {
    "theorem": check_theorem,
    "orders": check_orders,
    "conjecture": check_conjecture,
}


def element_id(kind: str, w) -> str:
    if kind == "conjecture":
        return type_d.sp_text(w)
    return permutations.format_window(w)


def run_pass(kind: str, size: int, seed: int, tracer=None) -> dict:
    """Set up the population, feed it in seeded order, record each verdict.

    Elements whose check raises anything but a cap refusal are recorded
    with the error text; the sweep goes on.
    """
    context, elements, group_size = population(kind, size)
    random.Random(seed).shuffle(elements)
    setup_end = time.monotonic()
    check = CHECKS[kind]
    records = []
    clock = time.perf_counter
    for w in elements:
        ident = element_id(kind, w)
        if tracer is not None:
            tracer.element = ident
        start = clock()
        try:
            outcome, error = check(context, w), None
        except Exception as exc:  # noqa: BLE001 - one bad element must not end the sweep
            outcome, error = REFUSED, f"{type(exc).__name__}: {exc}"
        latency = clock() - start
        records.append(
            [ident, outcome.decided, outcome.orders, outcome.verified,
             outcome.ok, latency, error]
        )
    verdict_end = time.monotonic()
    if tracer is not None:
        tracer.element = None
    return {
        "setup_end": setup_end,
        "verdict_end": verdict_end,
        "group_size": group_size,
        "elements": records,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=sorted(CHECKS), required=True)
    parser.add_argument("--size", type=int, required=True, help="degree, or rank for type D")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out", help="trace this pass; write its spans here")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once the population is ready")
    args = parser.parse_args(argv)
    if args.setup_only:
        population(args.kind, args.size)
        print(json.dumps({"setup_end": time.monotonic()}))
        return 0
    tracer = None
    if args.trace_out:
        from trace_layers import Tracer

        tracer = Tracer()
        tracer.install()
    result = run_pass(args.kind, args.size, args.seed, tracer)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary()
        tracer.write_spans(args.trace_out)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
