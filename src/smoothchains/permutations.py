"""Exact arithmetic for permutations of {1, ..., n} in one-line notation.

A permutation w is stored as its window, the tuple (w(1), ..., w(n)).
Positions and values are 1-based throughout the package.

Composition follows (u * v)(x) = u(v(x)).  Under this convention,
multiplying on the right by the transposition T(a, b) swaps the entries
in positions a and b of the window, while multiplying on the left swaps
the values a and b wherever they sit.

compose, identity and length also serve the type D group, whose
elements are signed windows: w(i) = -k means w sends e_i to -e_k.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

Window = tuple[int, ...]
Transposition = tuple[int, int]

# Degree guard for window text, which bounds the windows smooth and order take.
MAX_DEGREE = 12


def validate_window(window: Sequence[int]) -> Window:
    """Return ``tuple(window)`` after checking it is a bijection on 1..n.

    >>> validate_window([2, 1, 3])
    (2, 1, 3)
    >>> validate_window([1, 1, 3])
    Traceback (most recent call last):
        ...
    ValueError: window (1, 1, 3) is not a permutation of 1..3
    """
    w = tuple(int(v) for v in window)
    n = len(w)
    if n == 0 or set(w) != set(range(1, n + 1)):
        raise ValueError(f"window {w} is not a permutation of 1..{n}")
    return w


def identity(n: int) -> Window:
    """The identity window of degree n, unsigned or signed."""
    if n < 1:
        raise ValueError(f"degree must be at least 1, got {n}")
    return tuple(range(1, n + 1))


def parse(text: str) -> Window:
    """Parse one-line notation from text.

    Two forms are accepted: a string of digits 1-9 for degrees up to 9,
    and comma-separated integers for any degree up to MAX_DEGREE.

    >>> parse("35142")
    (3, 5, 1, 4, 2)
    >>> parse("3,5,1,4,2,10,6,7,8,9")
    (3, 5, 1, 4, 2, 10, 6, 7, 8, 9)
    """
    text = text.strip()
    if not text:
        raise ValueError("empty permutation text")
    if "," in text:
        try:
            values = [int(part) for part in text.split(",")]
        except ValueError:
            raise ValueError(f"bad comma-separated window: {text!r}") from None
    else:
        if not text.isdigit() or "0" in text:
            raise ValueError(f"bad digit-string window: {text!r}")
        values = [int(ch) for ch in text]
    if len(values) > MAX_DEGREE:
        raise ValueError(f"degree {len(values)} exceeds the limit {MAX_DEGREE}")
    return validate_window(values)


def format_window(w: Window) -> str:
    """Inverse of parse: digits for n <= 9, comma-separated above.

    >>> format_window((3, 5, 1, 4, 2))
    '35142'
    >>> parse(format_window(identity(11))) == identity(11)
    True
    """
    if len(w) <= 9:
        return "".join(str(v) for v in w)
    return ",".join(str(v) for v in w)


def compose(u: Window, v: Window) -> Window:
    """Product u * v with (u * v)(x) = u(v(x)), signs multiplying through.

    >>> compose((2, 1, 3), (1, 3, 2))
    (2, 3, 1)
    >>> compose((-2, -1, 3), (1, -3, 2))
    (-2, -3, -1)
    """
    if len(u) != len(v):
        raise ValueError("degree mismatch in composition")
    out = []
    for val in v:
        img = u[abs(val) - 1]
        out.append(img if val > 0 else -img)
    return tuple(out)


def inverse(w: Window) -> Window:
    """Group inverse, signs carried through as compose carries them.

    >>> inverse((2, 3, 1))
    (3, 1, 2)
    >>> inverse((-2, 3, -1))
    (-3, -1, 2)
    """
    out = [0] * len(w)
    for pos, val in enumerate(w, start=1):
        out[abs(val) - 1] = pos if val > 0 else -pos
    return tuple(out)


def transposition(i: int, j: int) -> Transposition:
    """The pair (i, j) with 1 <= i < j, the label of T(i, j)."""
    if not 1 <= i < j:
        raise ValueError(f"transposition needs 1 <= i < j, got ({i}, {j})")
    return (i, j)


def transposition_window(n: int, i: int, j: int) -> Window:
    """T(i, j) as a window of degree n."""
    if not 1 <= i < j <= n:
        raise ValueError(f"T({i},{j}) does not fit in degree {n}")
    out = list(range(1, n + 1))
    out[i - 1], out[j - 1] = j, i
    return tuple(out)


def times_transposition(w: Window, t: Transposition) -> Window:
    """Right product w * T(i, j): swap positions i and j of the window."""
    i, j = t
    if not 1 <= i < j <= len(w):
        raise ValueError(f"T{t} does not fit in degree {len(w)}")
    out = list(w)
    out[i - 1], out[j - 1] = out[j - 1], out[i - 1]
    return tuple(out)


def length(w: Window) -> int:
    """Coxeter length: #{i < j : w(i) > w(j)} + #{i < j : w(i) + w(j) < 0}.

    Bjorner-Brenti, Combinatorics of Coxeter Groups, Prop. 8.2.1 for
    type D; the second count is 0 on an unsigned window, which leaves
    the inversions.

    >>> length((3, 5, 1, 4, 2))
    6
    >>> length((-2, -1, 3))
    1
    """
    return sum((x > y) + (x + y < 0) for x, y in itertools.combinations(w, 2))


def mu(w: Window) -> tuple[int, ...]:
    """Running maxima (max of w(1..i) for i = 1..n).

    >>> mu((3, 5, 1, 4, 2))
    (3, 5, 5, 5, 5)
    """
    out = []
    best = 0
    for v in w:
        if v > best:
            best = v
        out.append(best)
    return tuple(out)


def all_windows(n: int) -> Iterator[Window]:
    """All windows of degree n in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


def _standardize(values: Sequence[int]) -> tuple[int, ...]:
    ranks = sorted(values)
    return tuple(ranks.index(v) + 1 for v in values)


def _contains_3412(w: Window) -> bool:
    # One pass from the right computes, for each suffix start s, the
    # smallest "top" value w(d) over ascending pairs c < d inside the
    # suffix.  Then 3412 occurs iff some ascent (a, b) has an ascending
    # pair after b whose top stays below w(a).
    n = len(w)
    if n < 4:
        return False
    INF = n + 1
    # m[s]: min over d > s of w(d) subject to w(d) > w(s); INF if none.
    m = [INF] * (n + 1)
    for s in range(n - 1, -1, -1):
        best = INF
        for d in range(s + 1, n):
            if w[d] > w[s] and w[d] < best:
                best = w[d]
        m[s] = best
    # best_top[s]: min of m[c] over c >= s.
    best_top = [INF] * (n + 2)
    for s in range(n - 1, -1, -1):
        best_top[s] = min(m[s], best_top[s + 1])
    for a in range(n):
        for b in range(a + 1, n):
            if w[a] < w[b] and best_top[b + 1] < w[a]:
                return True
    return False


def _contains_4231(w: Window) -> bool:
    # 4231 occurs iff there are positions b < c with w(b) < w(c), some
    # larger value before b, and some smaller value after c.
    n = len(w)
    if n < 4:
        return False
    prefix_max = [0] * (n + 1)  # max of w(1..i)
    for i in range(n):
        prefix_max[i + 1] = max(prefix_max[i], w[i])
    suffix_min = [n + 1] * (n + 2)  # min of w(i..n)
    for i in range(n - 1, -1, -1):
        suffix_min[i + 1] = min(suffix_min[i + 2], w[i])
    for b in range(1, n + 1):
        for c in range(b + 1, n + 1):
            if (
                w[b - 1] < w[c - 1]
                and prefix_max[b - 1] > w[c - 1]
                and suffix_min[c + 1] < w[b - 1]
            ):
                return True
    return False


def contains_pattern(w: Window, p: Window) -> bool:
    """Does the window w contain the pattern p?

    The two patterns that decide smoothness get dedicated quadratic
    scans; any other pattern asks pattern_witness for an occurrence.

    >>> contains_pattern((3, 5, 1, 4, 2), (3, 4, 1, 2))
    True
    >>> contains_pattern((3, 5, 1, 4, 2), (4, 2, 3, 1))
    False
    """
    p = tuple(p)
    if p == (3, 4, 1, 2):
        return _contains_3412(w)
    if p == (4, 2, 3, 1):
        return _contains_4231(w)
    return pattern_witness(w, p) is not None


def pattern_witness(w: Window, p: Window) -> tuple[int, ...] | None:
    """Lexicographically first positions carrying the pattern p, or None.

    >>> pattern_witness((3, 5, 1, 4, 2), (3, 4, 1, 2))
    (1, 2, 3, 5)
    """
    p = tuple(p)
    k = len(p)
    for combo in itertools.combinations(range(len(w)), k):
        if _standardize([w[i] for i in combo]) == p:
            return tuple(i + 1 for i in combo)
    return None
