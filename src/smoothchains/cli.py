"""Command line interface.

Four commands:

  smooth PERM        smoothness verdict with certificate
  order PERM         construct, verify, enumerate, or export arrangements
  sweep --mode M     exhaustive or sampled checks over a whole degree
  typed ...          type D root system, smoothness, and conjecture runs

JSON output (--json) is stable: fixed schema ids, sorted keys, no
timestamps, and worker partitioning that merges in a fixed order, so
identical inputs and settings give byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from multiprocessing import Pool

from . import type_d
from .admissible import (
    c23,
    c_t,
    is_admissible,
    is_smooth_length,
    is_smooth_pattern,
    parse_element,
)
from .bruhat import chain_to_dot
from .orders import (
    DEFAULT_MAX_REFLECTIONS,
    NotSmoothError,
    construct_compatible_order,
    construct_for_set,
    enumerate_compatible_orders,
    graph_connected,
    is_compatible,
    order_graph_dot,
    order_text,
    smoothness_report,
    verify_order,
)
from .permutations import (
    DEFAULT_MAX_DEGREE,
    Window,
    all_windows,
    format_window,
    length,
    parse,
)

SWEEP_DEGREE_SOFT_CAP = 8
CONJECTURE_RANK_SOFT_CAP = 4

TYPE_A_MODES = (
    "smooth-crosscheck",
    "theorem-verify",
    "enumerate-orders",
    "graph-connectivity",
)
ALL_MODES = TYPE_A_MODES + ("conjecture-d",)


class CliError(Exception):
    """Usage or refusal error; maps to exit code 2."""


def _guard_size(noun: str, size: int, hard: int, soft: int, allow_large: bool) -> None:
    """Refuse sizes over the hard limit, and over the soft cap without --allow-large."""
    if size > hard:
        raise CliError(f"{noun} {size} exceeds the supported limit {hard}")
    if size > soft and not allow_large:
        raise CliError(
            f"{noun} {size} runs are expensive; pass --allow-large to confirm"
        )


def _emit(payload: dict, as_json: bool, render) -> None:
    if as_json:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        render(payload)


# ------------------------------------------------------------- smooth

def _cmd_smooth(args) -> int:
    w = parse(args.perm)
    report = smoothness_report(w)
    payload = {"schema": "smoothchains.smooth.v1", **report.to_dict()}

    def render(p):
        print(f"window: {p['window']}")
        print(f"smooth: {'yes' if p['smooth'] else 'no'}")
        print(f"length: {p['length']}")
        print(f"reflections_below: {p['reflections_below']}")
        if p["smooth"]:
            print(f"order: {' '.join(p['order'])}")
            v = p["verification"]
            print(f"product_ok: {v['product_ok']}")
            print(f"prefix_saturated: {v['prefix_saturated']}")
            print(f"suffix_saturated: {v['suffix_saturated']}")
        else:
            print(
                f"pattern: {p['pattern_name']} at positions "
                f"{','.join(str(x) for x in p['pattern_positions'])}"
            )
            print(
                f"certificate: reflections_below {p['reflections_below']} "
                f"> length {p['length']}"
            )

    _emit(payload, args.json, render)
    return 0


# -------------------------------------------------------------- order

def _read_order_file(path: str) -> tuple[tuple[int, int], ...]:
    arrangement = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            elem = parse_element(line)
            if elem[0] != "T":
                raise CliError(
                    f"{path}:{lineno}: only T(i,j) lines are allowed in "
                    f"an .order file, got {line!r}"
                )
            arrangement.append((elem[1], elem[2]))
    return tuple(arrangement)


def _write_order_file(path: str, arrangement) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for i, j in arrangement:
            handle.write(f"T({i},{j})\n")


def _cmd_order(args) -> int:
    w = parse(args.perm)
    cap = args.max_reflections
    payload: dict = {
        "schema": "smoothchains.order.v1",
        "window": format_window(w),
    }

    if args.verify:
        arrangement = _read_order_file(args.verify)
    else:
        try:
            arrangement = construct_compatible_order(w)
        except NotSmoothError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    report = verify_order(w, arrangement)
    payload["report"] = report.to_dict()

    if args.enumerate or args.dot:
        A = c23(w)
        if not is_admissible(A):
            print(
                "error: the set below this window is not admissible; "
                "enumeration is only defined for admissible sets",
                file=sys.stderr,
            )
            return 1
        if args.enumerate:
            orders = enumerate_compatible_orders(A, cap)
            payload["orders"] = [order_text(o) for o in orders]
            payload["orders_count"] = len(orders)
        if args.dot:
            payload["dot"] = order_graph_dot(A, cap)
    if args.dot_chain:
        payload["dot_chain"] = chain_to_dot(report.prefix_chain)
    if args.write_order:
        _write_order_file(args.write_order, arrangement)
        payload["written"] = args.write_order

    def render(p):
        r = p["report"]
        print(f"window: {p['window']}")
        print(f"order: {' '.join(r['order'])}")
        print(f"product: {r['product']}")
        print(f"product_ok: {r['product_ok']}")
        print(
            f"prefix_saturated: {r['prefix_saturated']}"
            + (
                f" (first break at step {r['prefix_first_break']})"
                if not r["prefix_saturated"]
                else ""
            )
        )
        print(
            f"suffix_saturated: {r['suffix_saturated']}"
            + (
                f" (first break at step {r['suffix_first_break']})"
                if not r["suffix_saturated"]
                else ""
            )
        )
        print(f"prefix_chain: {' -> '.join(r['prefix_chain'])}")
        print(f"suffix_chain: {' -> '.join(r['suffix_chain'])}")
        if "orders" in p:
            print(f"compatible_orders: {p['orders_count']}")
            for line in p["orders"]:
                print(f"  {line}")
        if "dot" in p:
            print(p["dot"], end="")
        if "dot_chain" in p:
            print(p["dot_chain"], end="")
        if "written" in p:
            print(f"written: {p['written']}")

    _emit(payload, args.json, render)
    # a supplied arrangement that fails its checks is a violation
    if args.verify and not report.all_ok:
        return 1
    return 0


# -------------------------------------------------------------- sweep

def _population(mode: str, n: int) -> list[Window]:
    """Sweep elements in their listing order: windows, or signed windows by group id."""
    if mode == "conjecture-d":
        group = type_d.weyl_group(n)
        return [w for w in group.windows if group.is_smooth(w)]
    if mode == "smooth-crosscheck":
        return [tuple(w) for w in all_windows(n)]
    return [tuple(w) for w in all_windows(n) if is_smooth_pattern(tuple(w))]


def _check_window(mode: str, w: Window, cap: int | None) -> tuple[dict, list[dict]]:
    counters = {"checked": 1}
    violations = []
    if mode == "conjecture-d":
        report = type_d.check_element(type_d.weyl_group(len(w)), w, cap)
        counters["orders"] = report.orders_found
        if not report.ok:
            violations.append(
                {
                    "window": type_d.sp_text(w),
                    "kind": "conjecture-fails",
                    "admissible": report.admissible,
                    "admissibility_note": report.admissibility_note,
                    "orders_found": report.orders_found,
                    "products_ok": report.products_ok,
                }
            )
        return counters, violations
    text = format_window(w)
    if mode == "smooth-crosscheck":
        by_pattern = is_smooth_pattern(w)
        by_length = is_smooth_length(w)
        refl = len(c_t(w))
        lw = length(w)
        counters["smooth"] = int(by_pattern)
        if by_pattern != by_length:
            violations.append(
                {
                    "window": text,
                    "kind": "criteria-disagree",
                    "by_pattern": by_pattern,
                    "by_length": by_length,
                }
            )
        if not by_pattern and refl <= lw:
            violations.append(
                {
                    "window": text,
                    "kind": "no-reflection-excess",
                    "reflections_below": refl,
                    "length": lw,
                }
            )
    elif mode == "theorem-verify":
        A = c23(w)
        order = construct_for_set(A)
        report = verify_order(w, order)
        ok = report.all_ok and is_compatible(order, A)
        counters["verified"] = int(ok)
        if not ok:
            violations.append(
                {
                    "window": text,
                    "kind": "construction-fails",
                    "product_ok": report.product_ok,
                    "prefix_saturated": report.prefix_saturated,
                    "suffix_saturated": report.suffix_saturated,
                }
            )
    elif mode == "enumerate-orders":
        A = c23(w)
        orders = enumerate_compatible_orders(A, cap)
        counters["orders"] = len(orders)
        if not orders:
            violations.append({"window": text, "kind": "no-compatible-order"})
        for order in orders:
            report = verify_order(w, order)
            if not report.all_ok:
                violations.append(
                    {
                        "window": text,
                        "kind": "order-fails-verification",
                        "order": order_text(order),
                        "product_ok": report.product_ok,
                        "prefix_saturated": report.prefix_saturated,
                        "suffix_saturated": report.suffix_saturated,
                    }
                )
    elif mode == "graph-connectivity":
        A = c23(w)
        orders = enumerate_compatible_orders(A, cap)
        counters["orders"] = len(orders)
        if not graph_connected(A, cap):
            violations.append({"window": text, "kind": "graph-disconnected"})
    else:
        raise ValueError(f"unknown sweep mode {mode!r}")
    return counters, violations


def _merge_counters(total: dict, part: dict) -> None:
    for key, val in part.items():
        total[key] = total.get(key, 0) + val


def _chunk_worker(task) -> tuple[dict, list[dict]]:
    mode, windows, cap = task
    counters: dict = {}
    violations: list[dict] = []
    for w in windows:
        part, viol = _check_window(mode, w, cap)
        _merge_counters(counters, part)
        violations.extend(viol)
    return counters, violations


def _split_chunks(population: list, workers: int) -> list[list]:
    workers = max(1, min(workers, len(population) or 1))
    size, extra = divmod(len(population), workers)
    chunks = []
    start = 0
    for k in range(workers):
        stop = start + size + (1 if k < extra else 0)
        chunks.append(population[start:stop])
        start = stop
    return [c for c in chunks if c]


def _run_chunked(tasks, workers: int):
    if workers <= 1 or len(tasks) <= 1:
        results = [_chunk_worker(t) for t in tasks]
    else:
        with Pool(processes=workers) as pool:
            results = pool.map(_chunk_worker, tasks)
    counters: dict = {}
    violations: list[dict] = []
    for part, viol in results:
        _merge_counters(counters, part)
        violations.extend(viol)
    return counters, violations


def _cmd_sweep(args) -> int:
    mode = args.mode
    workers = args.workers
    if workers < 1:
        raise CliError("--workers must be at least 1")
    if args.sample is not None and args.seed is None:
        raise CliError("--sample requires --seed for a reproducible draw")
    cap = args.max_reflections
    if cap is None:
        cap = (
            type_d.CONJECTURE_MAX_REFLECTIONS
            if mode == "conjecture-d"
            else DEFAULT_MAX_REFLECTIONS
        )

    payload: dict = {
        "schema": "smoothchains.sweep.v1",
        "mode": mode,
        "workers": workers,
        "sample": args.sample,
        "seed": args.seed,
        "max_reflections": cap,
    }

    if mode == "conjecture-d":
        if args.rank is None:
            raise CliError("--rank is required for mode conjecture-d")
        n = args.rank
        _guard_size("rank", n, type_d.DEFAULT_RANK_LIMIT, CONJECTURE_RANK_SOFT_CAP, args.allow_large)
        payload.update(
            {
                "rank": n,
                "degree": None,
                "simple_order": list(type_d.simple_order_config(n)),
            }
        )
    else:
        if args.n is None:
            raise CliError(f"--n is required for mode {mode}")
        n = args.n
        _guard_size("degree", n, DEFAULT_MAX_DEGREE, SWEEP_DEGREE_SOFT_CAP, args.allow_large)
        payload.update({"rank": None, "degree": n})
    population = _population(mode, n)
    if args.sample is not None:
        drawn = set(random.Random(args.seed).sample(population, args.sample))
        population = [w for w in population if w in drawn]
    payload["population"] = len(population)
    tasks = [(mode, chunk, cap) for chunk in _split_chunks(population, workers)]
    counters, violations = _run_chunked(tasks, workers)

    payload["counters"] = counters
    payload["violations"] = violations
    payload["ok"] = not violations

    def render(p):
        print(f"mode: {p['mode']}")
        where = f"degree {p['degree']}" if p["degree"] else f"rank {p['rank']}"
        print(f"population: {p['population']} ({where})")
        for key in sorted(p["counters"]):
            print(f"{key}: {p['counters'][key]}")
        if p["violations"]:
            for v in p["violations"]:
                detail = ", ".join(
                    f"{k}={v[k]}" for k in sorted(v) if k not in ("window", "kind")
                )
                print(f"VIOLATION {v['window']}: {v['kind']} {detail}".rstrip())
        print(f"result: {'ok' if p['ok'] else 'violations found'}")

    _emit(payload, args.json, render)
    return 0 if payload["ok"] else 1


# -------------------------------------------------------------- typed

def _cmd_typed(args) -> int:
    if args.subcommand == "roots":
        n = args.rank
        payload = {
            "schema": "smoothchains.roots.v1",
            "rank": n,
            "positive_roots": [
                type_d.root_text(a) for a in type_d.positive_roots(n)
            ],
            "simple_roots": [
                type_d.root_text(a) for a in type_d.simple_roots(n)
            ],
            "poset_covers": [
                [type_d.root_text(a), type_d.root_text(b)]
                for a, b in type_d.root_poset_covers(n)
            ],
        }

        def render(p):
            print(f"rank: {p['rank']}")
            print(f"positive_roots: {' '.join(p['positive_roots'])}")
            print(f"simple_roots: {' '.join(p['simple_roots'])}")
            print(f"poset_covers: {len(p['poset_covers'])}")
            for a, b in p["poset_covers"]:
                print(f"  {a} < {b}")

        _emit(payload, args.json, render)
        return 0

    if args.subcommand == "smooth":
        w = type_d.sp_parse(args.window)
        group = type_d.weyl_group(len(w))
        counts = group.interval_rank_counts(w)
        payload = {
            "schema": "smoothchains.typed-smooth.v1",
            "window": type_d.sp_text(w),
            "rank": len(w),
            "length": group.length_of(w),
            "interval_rank_counts": list(counts),
            "smooth": group.is_smooth(w),
        }

        def render(p):
            print(f"window: {p['window']}")
            print(f"rank: {p['rank']}")
            print(f"length: {p['length']}")
            print(f"interval_rank_counts: {p['interval_rank_counts']}")
            print(f"smooth: {'yes' if p['smooth'] else 'no'}")

        _emit(payload, args.json, render)
        return 0

    if args.subcommand == "conjecture":
        rank = args.rank
        _guard_size("rank", rank, type_d.DEFAULT_RANK_LIMIT, CONJECTURE_RANK_SOFT_CAP, args.allow_large)
        report = type_d.verify_conjecture_d(rank, args.max_reflections)
        payload = {
            "schema": "smoothchains.conjecture.v1",
            **report.to_dict(),
        }

        def render(p):
            print(f"rank: {p['rank']}")
            print(f"group_size: {p['group_size']}")
            print(f"smooth_count: {p['smooth_count']}")
            print(f"checked: {p['checked']}")
            print(f"simple_order: {'; '.join(p['simple_order'])}")
            print(f"product_pair_rule: {p['product_pair_rule']}")
            if p["counterexamples"]:
                for w in p["counterexamples"]:
                    print(f"COUNTEREXAMPLE {w}")
            print(f"result: {'ok' if p['ok'] else 'counterexamples found'}")

        _emit(payload, args.json, render)
        return 0 if report.ok else 1

    raise CliError(f"unknown typed subcommand {args.subcommand!r}")


# ------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothchains",
        description=(
            "Reflection arrangements, saturated Bruhat chains, and "
            "smoothness checks for permutations, with a type D verifier."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_smooth = sub.add_parser("smooth", help="smoothness verdict for one window")
    p_smooth.add_argument("perm", help="one-line notation, digits or comma separated")
    p_smooth.add_argument("--json", action="store_true")
    p_smooth.set_defaults(func=_cmd_smooth)

    p_order = sub.add_parser("order", help="construct or verify arrangements")
    p_order.add_argument("perm")
    p_order.add_argument("--verify", metavar="FILE", help="read the arrangement from an .order file")
    p_order.add_argument("--write-order", metavar="FILE", help="write the arrangement to an .order file")
    p_order.add_argument("--enumerate", action="store_true", help="list all compatible arrangements")
    p_order.add_argument("--dot", action="store_true", help="emit the elementary-move graph as DOT")
    p_order.add_argument("--dot-chain", action="store_true", help="emit the prefix chain as a DOT path")
    p_order.add_argument("--max-reflections", type=int, default=DEFAULT_MAX_REFLECTIONS)
    p_order.add_argument("--json", action="store_true")
    p_order.set_defaults(func=_cmd_order)

    p_sweep = sub.add_parser("sweep", help="exhaustive or sampled degree-wide checks")
    p_sweep.add_argument("--mode", choices=ALL_MODES, required=True)
    p_sweep.add_argument("--n", type=int, help="degree for type A modes")
    p_sweep.add_argument("--rank", type=int, help="rank for conjecture-d")
    p_sweep.add_argument(
        "--workers",
        type=int,
        default=int(os.environ.get("SMOOTHCHAINS_WORKERS", "1")),
        help="worker processes (default from SMOOTHCHAINS_WORKERS, else 1)",
    )
    p_sweep.add_argument("--sample", type=int, help="check only this many elements")
    p_sweep.add_argument("--seed", type=int, help="seed for --sample")
    p_sweep.add_argument(
        "--max-reflections",
        type=int,
        default=None,
        help="enumeration cap (default 10 for type A modes, 12 for conjecture-d)",
    )
    p_sweep.add_argument("--allow-large", action="store_true")
    p_sweep.add_argument("--json", action="store_true")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_typed = sub.add_parser("typed", help="type D root system and conjecture")
    typed_sub = p_typed.add_subparsers(dest="subcommand", required=True)

    t_roots = typed_sub.add_parser("roots", help="positive and simple roots")
    t_roots.add_argument("--rank", type=int, required=True)
    t_roots.add_argument("--json", action="store_true")
    t_roots.set_defaults(func=_cmd_typed)

    t_smooth = typed_sub.add_parser("smooth", help="smoothness of a signed window")
    t_smooth.add_argument("window", help="comma-separated signed integers")
    t_smooth.add_argument("--json", action="store_true")
    t_smooth.set_defaults(func=_cmd_typed)

    t_conj = typed_sub.add_parser("conjecture", help="run the conjecture checks")
    t_conj.add_argument("--rank", type=int, required=True)
    t_conj.add_argument(
        "--max-reflections", type=int, default=type_d.CONJECTURE_MAX_REFLECTIONS
    )
    t_conj.add_argument("--allow-large", action="store_true")
    t_conj.add_argument("--json", action="store_true")
    t_conj.set_defaults(func=_cmd_typed)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
