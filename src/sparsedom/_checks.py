"""The package's range and arity refusals, in one place and one wording.

A refusal is a ValueError naming the parameter, its range and the bad value:
``q must be in (0, inf), got inf``.  A check is one scalar comparison, made
before the caller branches on the value; NaN lies in no range, and inf only
in a range closed at inf.  ``need`` compares exponent claims through
``recip`` (1/inf = 0), which ``spaces`` re-exports.
"""

from __future__ import annotations

import csv
import math
import numbers
import operator
from typing import Iterable, Iterator, Sequence, Sized

import numpy as np


def interval(lo: float, hi: float, lo_closed: bool = False, hi_closed: bool = False):
    """A range of reals as (membership test, printed form)."""
    holds = {
        (False, False): lambda x: lo < x < hi,
        (True, False): lambda x: lo <= x < hi,
        (False, True): lambda x: lo < x <= hi,
        (True, True): lambda x: lo <= x <= hi,
    }[lo_closed, hi_closed]
    return holds, f"{'[' if lo_closed else '('}{lo:g}, {hi:g}{']' if hi_closed else ')'}"


EXPONENT = interval(0, math.inf, hi_closed=True)  # (0, inf]: an exponent where inf is legal
FINITE = interval(0, math.inf)
UNIT = interval(0, 1)  # the sparseness parameters


def _is_int(x) -> bool:
    """Whether x is an int, Python or NumPy; a bool is not."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


# the real numbers, Python or NumPy; float and int first, the common cases
_REAL = (float, int, numbers.Real, np.bool_)


def check(name: str, x, within, integer: bool = False):
    """x itself when it lies in the interval ``within`` and, with ``integer``,
    is an int (Python or NumPy, not bool); else a named refusal.  A value
    that is no real number (Python or NumPy), such as a string read from
    JSON, is refused before any comparison."""
    holds, text = within
    if integer and not _is_int(x):
        raise ValueError(f"{name} must be an integer in {text}, got {x}")
    if not isinstance(x, _REAL):
        raise ValueError(f"{name} must be in {text}, got {x!r}")
    if not holds(x):
        raise ValueError(f"{name} must be in {text}, got {x}")
    return x


def at_least(name: str, n, lo: int):
    """n itself when it is an int (not bool) >= lo, such as a count of
    trials; else a named refusal."""
    if not _is_int(n):
        raise ValueError(f"{name} must be an integer at least {lo}, got {n}")
    if not n >= lo:
        raise ValueError(f"{name} must be at least {lo}, got {n}")
    return n


def increasing(name: str, xs: Iterable) -> tuple[int, ...]:
    """xs as ints when they are one or more strictly increasing positive ints
    (Python or NumPy, not bool)."""
    ns = tuple(xs)
    if not ns or not all(map(_is_int, ns)) or ns[0] < 1 or any(a >= b for a, b in zip(ns, ns[1:])):
        raise ValueError(f"{name} must be one or more strictly increasing positive ints, got {ns}")
    return tuple(int(n) for n in ns)


def one_per(each: str, per: str, xs: Sized, ys: Sized) -> int:
    """The common length of xs and ys: one ``each`` per ``per``, at least one."""
    if len(xs) != len(ys) or not len(ys):
        raise ValueError(f"need one {each} per {per} and at least one, got {len(xs)} for {len(ys)}")
    return len(ys)


def distinct(name: str, xs: Iterable) -> None:
    """Refuse a repeat among the hashable xs, naming the first one seen again."""
    seen = set()
    for x in xs:
        if x in seen:
            raise ValueError(f"{name} must be distinct, got {x} more than once")
        seen.add(x)


def nonempty(what: str, xs: Sized) -> int:
    """len(xs) when it is at least one; else 'need at least one <what>'."""
    if not len(xs):
        raise ValueError(f"need at least one {what}, got none")
    return len(xs)


def entries(what: str, obj, *keys: str) -> list:
    """obj[key] per key when obj is a JSON object holding every key; else
    "<what> payload needs a '<key>' entry", naming the first key missing."""
    for key in keys:
        if not isinstance(obj, dict) or key not in obj:
            raise ValueError(f"{what} payload needs a {key!r} entry")
    return [obj[key] for key in keys]


def json_list(name: str, x) -> list:
    """x itself when it is a JSON array, read as a list; else a named refusal."""
    if not isinstance(x, list):
        raise ValueError(f"{name} must be a list, got {x!r}")
    return x


def csv_rows(fh, header: Sequence[str]) -> Iterator[list[str]]:
    """The rows of an open CSV file after its header line, each with at least
    one field per header name; else a named refusal.  Rows are numbered by
    line, the header being row 1."""
    reader = csv.reader(fh)
    if next(reader, [])[: len(header)] != list(header):
        raise ValueError(f"expected header '{','.join(header)}'")
    for row in reader:
        if len(row) < len(header):
            raise ValueError(f"row {reader.line_num} must have at least {len(header)} fields, got {len(row)}")
        yield row


def recip(x) -> float:
    """1/x for exponents, with 1/inf = 0."""
    x = check("exponent", float(x), EXPONENT)
    return 0.0 if math.isinf(x) else 1.0 / x


# a claim x rel y on exponents as the comparison of 1/x with 1/y
_IN_RECIPROCALS = {"<": operator.gt, "<=": operator.ge, ">": operator.lt}
_FAILED = {"<": ">=", "<=": ">", ">": "<="}


def need(a: str, x: float, rel: str, b: str, y: float) -> tuple[float, float]:
    """(1/x, 1/y) when the claim ``a rel b`` holds for x and y, compared in
    reciprocal space (1/inf = 0); else a ValueError naming the claim."""
    rx, ry = recip(x), recip(y)
    if not _IN_RECIPROCALS[rel](rx, ry):
        raise ValueError(f"need {a} {rel} {b}, got {a}={x} {_FAILED[rel]} {b}={y}")
    return rx, ry
