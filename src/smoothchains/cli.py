"""Command line interface.

Four commands:

  smooth PERM        smoothness verdict with certificate
  order PERM         construct, verify, enumerate, or export arrangements
  sweep --mode M     exhaustive or sampled checks over a whole degree
  typed ...          type D root system, smoothness, and conjecture runs

JSON output (--json) is stable: fixed schema ids, sorted keys, no
timestamps, and sweep results that merge in population order, so
identical inputs and settings give byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from collections import Counter
from functools import partial
from multiprocessing import Pool
from typing import Callable, NamedTuple

from . import type_d
from .admissible import (
    c23,
    c_t,
    is_admissible,
    is_smooth_pattern,
    parse_element,
)
from .bruhat import chain_to_dot
from .orders import (
    DEFAULT_MAX_REFLECTIONS,
    connectivity,
    construct_compatible_order,
    construct_for_set,
    enumerate_compatible_orders,
    is_compatible,
    order_graph,
    order_graph_dot,
    order_text,
    order_verdicts,
    smoothness_report,
    verify_order,
)
from .permutations import (
    Window,
    all_windows,
    format_window,
    length,
    parse,
)

# noun: (minimum, largest size that runs without --allow-large)
SIZE_BOUNDS = {"degree": (1, 8), "rank": (type_d.MIN_RANK, 4)}
# noun: the sweep option that gives the size
SIZE_OPTIONS = {"degree": "n", "rank": "rank"}


class CliError(Exception):
    """Usage or refusal error; maps to exit code 2."""


def _guard_size(noun: str, size: int, limit: int, allow_large: bool = True) -> None:
    """Refuse sizes below SIZE_BOUNDS or above limit; commands with --allow-large pass its value."""
    low, soft = SIZE_BOUNDS[noun]
    if size < low:
        raise CliError(f"{noun} {size} is below the minimum {low}")
    if size > limit:
        raise CliError(f"{noun} {size} exceeds the supported limit {limit}")
    if size > soft and not allow_large:
        raise CliError(
            f"{noun} {size} runs are expensive; pass --allow-large to confirm"
        )


def _cap(max_reflections: int | None) -> int | None:
    """The --max-reflections value (None: uncapped), refused when negative."""
    if max_reflections is not None and max_reflections < 0:
        raise CliError(f"--max-reflections {max_reflections} is negative")
    return max_reflections


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
            print(" ".join(["order:", *p["order"]]))
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
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise CliError(f"cannot read {path}: not UTF-8 text") from None
    arrangement = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            elem = parse_element(line)
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: {exc}") from None
        if elem[0] != "T":
            raise CliError(
                f"{path}:{lineno}: only T(i,j) lines are allowed in "
                f"an .order file, got {line!r}"
            )
        arrangement.append((elem[1], elem[2]))
    return tuple(arrangement)


def _write_order_file(path: str, arrangement) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            for i, j in arrangement:
                handle.write(f"T({i},{j})\n")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror}") from None


def _cmd_order(args) -> int:
    w = parse(args.perm)
    cap = _cap(args.max_reflections)
    payload: dict = {
        "schema": "smoothchains.order.v1",
        "window": format_window(w),
    }

    if args.verify:
        arrangement = _read_order_file(args.verify)
    else:
        arrangement = construct_compatible_order(w)
    report = verify_order(w, arrangement)
    payload["report"] = report.to_dict()

    if args.enumerate or args.dot:
        A = c23(w)
        if not is_admissible(A):
            raise CliError(
                "the set below this window is not admissible; "
                "enumeration is only defined for admissible sets"
            )
        if args.dot:
            orders, edges = order_graph(A, cap)
            payload["dot"] = order_graph_dot(orders, edges)
        else:
            orders = enumerate_compatible_orders(A, cap)
        if args.enumerate:
            payload["orders"] = [order_text(o) for o in orders]
            payload["orders_count"] = len(orders)
    if args.dot_chain:
        payload["dot_chain"] = chain_to_dot(report.prefix_chain)
    if args.write_order:
        _write_order_file(args.write_order, arrangement)
        payload["written"] = args.write_order

    def render(p):
        r = p["report"]
        print(f"window: {p['window']}")
        print(" ".join(["order:", *r["order"]]))
        print(f"product: {r['product']}")
        print(f"product_ok: {r['product_ok']}")
        for side in ("prefix", "suffix"):
            ok = r[f"{side}_saturated"]
            note = "" if ok else f" (first break at step {r[f'{side}_first_break']})"
            print(f"{side}_saturated: {ok}{note}")
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
#
# An element check takes (element, cap) and returns the element's
# counters and violations; a cap of None lifts the enumeration cap.

def _crosscheck(w: Window, cap: int | None) -> tuple[dict, list[dict]]:
    text = format_window(w)
    by_pattern = is_smooth_pattern(w)
    refl = len(c_t(w))
    lw = length(w)
    by_length = refl == lw  # is_smooth_length from the counts above
    violations = []
    if by_pattern != by_length:
        violations.append(
            dict(window=text, kind="criteria-disagree", by_pattern=by_pattern, by_length=by_length)
        )
    if not by_pattern and refl <= lw:
        violations.append(
            dict(window=text, kind="no-reflection-excess", reflections_below=refl, length=lw)
        )
    return {"smooth": int(by_pattern)}, violations


def _theorem(w: Window, cap: int | None) -> tuple[dict, list[dict]]:
    A = c23(w)
    order = construct_for_set(A)
    report = verify_order(w, order)
    if report.all_ok and is_compatible(order, A):
        return {"verified": 1}, []
    failed = dict(window=format_window(w), kind="construction-fails", **report.verdict._asdict())
    return {"verified": 0}, [failed]


def _verdict_violations(text: str, verdicts: Counter) -> list[dict]:
    """One entry per failing Verdict of an element's compatible orders,
    or no-compatible-order when it has none."""
    violations = [] if verdicts else [dict(window=text, kind="no-compatible-order")]
    for verdict, count in sorted(verdicts.items()):
        if not all(verdict):
            entry = dict(window=text, kind="order-fails-verification", orders=count)
            violations.append({**entry, **verdict._asdict()})
    return violations


def _enumerate(w: Window, cap: int | None) -> tuple[dict, list[dict]]:
    verdicts = order_verdicts(w, cap)
    return {"orders": sum(verdicts.values())}, _verdict_violations(format_window(w), verdicts)


def _connectivity(w: Window, cap: int | None) -> tuple[dict, list[dict]]:
    count, connected = connectivity(c23(w), cap)
    if connected:
        return {"orders": count}, []
    return {"orders": count}, [dict(window=format_window(w), kind="graph-disconnected")]


def _conjecture(w: Window, cap: int | None) -> tuple[dict, list[dict]]:
    report = type_d.check_element(type_d.weyl_group(len(w)), w, cap)
    text = type_d.sp_text(w)
    violations = [] if report.admissible else [
        dict(window=text, kind="not-admissible", admissibility_note=report.admissibility_note)
    ]
    violations += _verdict_violations(text, report.verdicts)
    return {"orders": report.orders_found}, violations


def _smooth_windows(n: int) -> list[Window]:
    """The smooth windows of degree n, in all_windows order.

    Deleting the value k from a window avoiding 3412 and 4231 leaves
    one avoiding them, so each smooth window of degree k is the value k
    inserted into a smooth window of degree k - 1; is_smooth_pattern
    filters those candidates, level by level.
    """
    level = [()]
    for k in range(1, n + 1):
        candidates = (w[:p] + (k,) + w[p:] for w in level for p in range(k))
        level = [c for c in candidates if is_smooth_pattern(c)]
    return sorted(level)


class SweepMode(NamedTuple):
    noun: str  # a key of SIZE_BOUNDS
    limit: int  # the largest size a whole uncapped run was measured to finish
    population: Callable[[int], list]  # the elements of one size, in listing order
    check: Callable[[tuple, int | None], tuple[dict, list[dict]]]


# The limits and their runs are listed in the README.
SWEEP_MODES = {
    "smooth-crosscheck": SweepMode("degree", 9, lambda n: list(all_windows(n)), _crosscheck),
    "theorem-verify": SweepMode("degree", 11, _smooth_windows, _theorem),
    "enumerate-orders": SweepMode("degree", 10, _smooth_windows, _enumerate),
    "graph-connectivity": SweepMode("degree", 9, _smooth_windows, _connectivity),
    "conjecture-d": SweepMode("rank", type_d.RANK_LIMIT, type_d.smooth_elements, _conjecture),
}


def _merged(results) -> tuple[Counter, list[dict]]:
    """Sum the counters and join the violations of (counters, violations) pairs, in order."""
    counters, violations = Counter(), []
    for part, found in results:
        counters.update(part)
        violations.extend(found)
    return counters, violations


# Of 64, 256 and 1,024 chunks per process, 256 ran S8 enumerate-orders and
# S9 theorem-verify fastest on 2 processes of a 2-vCPU host.
CHUNKS_PER_PROCESS = 256


def _cmd_sweep(args) -> int:
    mode = SWEEP_MODES[args.mode]
    workers = args.workers
    if workers < 1:
        raise CliError("--workers must be at least 1")
    if args.sample is not None and args.seed is None:
        raise CliError("--sample requires --seed for a reproducible draw")
    cap = _cap(args.max_reflections)

    payload: dict = {
        "schema": "smoothchains.sweep.v1",
        "mode": args.mode,
        "workers": workers,
        "sample": args.sample,
        "seed": args.seed,
        "max_reflections": cap,
    }

    option = SIZE_OPTIONS[mode.noun]
    for other in SIZE_OPTIONS.values():
        if other != option and getattr(args, other) is not None:
            raise CliError(f"--{other} does not apply to mode {args.mode}; it takes --{option}")
    n = getattr(args, option)
    if n is None:
        raise CliError(f"--{option} is required for mode {args.mode}")
    _guard_size(mode.noun, n, mode.limit, args.allow_large)
    payload.update({"degree": None, "rank": None, mode.noun: n})
    if mode.noun == "rank":  # type D reports name the simple-root comparison ranks
        payload["simple_order"] = list(type_d.simple_order_config(n))
    population = mode.population(n)
    if args.sample is not None:
        if not 1 <= args.sample <= len(population):
            raise CliError(f"--sample {args.sample} is outside 1..{len(population)}")
        drawn = set(random.Random(args.seed).sample(population, args.sample))
        population = [w for w in population if w in drawn]
    payload["population"] = len(population)

    # imap hands out the elements in small chunks, so the heavy ones at
    # the end of the population spread over the processes, and it yields
    # the results in population order
    check = partial(mode.check, cap=cap)
    if workers == 1:
        counters, violations = _merged(map(check, population))
    else:
        processes = min(workers, len(population), os.cpu_count() or 1)
        chunksize = -(-len(population) // (processes * CHUNKS_PER_PROCESS))
        with Pool(processes) as pool:
            counters, violations = _merged(pool.imap(check, population, chunksize))
    counters["checked"] = len(population)

    payload["counters"] = counters
    payload["violations"] = violations
    payload["ok"] = not violations

    def render(p):
        print(f"mode: {p['mode']}")
        print(f"population: {p['population']} ({mode.noun} {n})")
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

def _cmd_typed_roots(args) -> int:
    n = args.rank
    _guard_size("rank", n, type_d.RANK_LIMIT)
    payload = {
        "schema": "smoothchains.roots.v1",
        "rank": n,
        "positive_roots": [type_d.root_text(a) for a in type_d.positive_roots(n)],
        "simple_roots": [type_d.root_text(a) for a in type_d.simple_roots(n)],
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


def _cmd_typed_smooth(args) -> int:
    w = type_d.sp_parse(args.window)
    _guard_size("rank", len(w), type_d.RANK_LIMIT)
    group = type_d.weyl_group(len(w))
    payload = {
        "schema": "smoothchains.typed-smooth.v1",
        "window": type_d.sp_text(w),
        "rank": len(w),
        "length": group.length_of(w),
        "interval_rank_counts": list(group.interval_rank_counts(w)),
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


def _cmd_typed_conjecture(args) -> int:
    n = args.rank
    _guard_size("rank", n, type_d.RANK_LIMIT, args.allow_large)
    cap = _cap(args.max_reflections)
    group = type_d.weyl_group(n)
    elements = [type_d.check_element(group, w, cap) for w in type_d.smooth_elements(n)]
    counterexamples = [type_d.sp_text(e.window) for e in elements if not e.ok]
    payload = {
        "schema": "smoothchains.conjecture.v2",
        "rank": n,
        "group_size": len(group),
        "smooth_count": len(elements),
        "checked": len(elements),
        "simple_order": list(type_d.simple_order_config(n)),
        "product_pair_rule": type_d.PRODUCT_PAIR_RULE,
        "elements": [e.to_dict() for e in elements],
        "counterexamples": counterexamples,
        "ok": not counterexamples,
    }

    def render(p):
        print(f"rank: {p['rank']}")
        print(f"group_size: {p['group_size']}")
        print(f"smooth_count: {p['smooth_count']}")
        print(f"checked: {p['checked']}")
        print(f"simple_order: {'; '.join(p['simple_order'])}")
        print(f"product_pair_rule: {p['product_pair_rule']}")
        for w in p["counterexamples"]:
            print(f"COUNTEREXAMPLE {w}")
        print(f"result: {'ok' if p['ok'] else 'counterexamples found'}")

    _emit(payload, args.json, render)
    return 0 if payload["ok"] else 1


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
    p_sweep.add_argument("--mode", choices=SWEEP_MODES, required=True)
    p_sweep.add_argument("--n", type=int, help="degree for type A modes")
    p_sweep.add_argument("--rank", type=int, help="rank for conjecture-d")
    p_sweep.add_argument("--workers", type=int, default=1, help="processes, at most one per CPU (default 1: in-process)")
    p_sweep.add_argument("--sample", type=int, help="check only this many elements")
    p_sweep.add_argument("--seed", type=int, help="seed for --sample")
    p_sweep.add_argument(
        "--max-reflections",
        type=int,
        default=None,
        help=(
            "enumeration cap (default: none); when given, it bounds the "
            "placed-set walk of enumerate-orders, graph-connectivity and "
            "conjecture-d"
        ),
    )
    p_sweep.add_argument("--allow-large", action="store_true")
    p_sweep.add_argument("--json", action="store_true")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_typed = sub.add_parser("typed", help="type D root system and conjecture")
    typed_sub = p_typed.add_subparsers(dest="subcommand", required=True)

    t_roots = typed_sub.add_parser("roots", help="positive and simple roots")
    t_roots.add_argument("--rank", type=int, required=True)
    t_roots.add_argument("--json", action="store_true")
    t_roots.set_defaults(func=_cmd_typed_roots)

    t_smooth = typed_sub.add_parser("smooth", help="smoothness of a signed window")
    t_smooth.add_argument("window", help="comma-separated signed integers")
    t_smooth.add_argument("--json", action="store_true")
    t_smooth.set_defaults(func=_cmd_typed_smooth)

    t_conj = typed_sub.add_parser("conjecture", help="run the conjecture checks")
    t_conj.add_argument("--rank", type=int, required=True)
    t_conj.add_argument(
        "--max-reflections",
        type=int,
        help="reflection cap per element (default: none); when given, it bounds the placed-set walk",
    )
    t_conj.add_argument("--allow-large", action="store_true")
    t_conj.add_argument("--json", action="store_true")
    t_conj.set_defaults(func=_cmd_typed_conjecture)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
