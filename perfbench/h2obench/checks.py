"""Reference answers computed apart from the store, and the checkers.

The benchmark writes its SQL in one narrow form::

    SELECT item[, item...] FROM t [WHERE attr op literal [AND ...]]

where an item is ``attr``, ``count(*)`` or ``f(attr)`` with ``f`` one of
sum/min/max/count, and ``op`` one of ``< <= > >= =``.  :func:`parse_spec`
reads that form with a regular expression (not the store's parser), and
:func:`evaluate` answers it with numpy over the benchmark's own copy of
the data.  All data is integer-valued, so float64 sums are exact and
aggregates are compared for exact equality; projections are compared as
sorted multisets of rows.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple

import numpy as np

_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "=": operator.eq,
}
_SELECT = re.compile(
    r"^SELECT (?P<items>.+?) FROM (?P<table>\w+)(?: WHERE (?P<where>.+))?$"
)
_AGG = re.compile(r"^(sum|min|max|count)\((\*|\w+)\)$")
_PRED = re.compile(r"^(\w+) (<=|>=|<|>|=) (-?\d+)$")


class CheckError(AssertionError):
    """The store's answer disagrees with the reference."""


@dataclass(frozen=True)
class Spec:
    """One query: aggregates ``(func, attr)`` *or* projected attrs."""

    table: str
    aggregates: Tuple[Tuple[str, str], ...]
    projection: Tuple[str, ...]
    predicates: Tuple[Tuple[str, str, int], ...]


def parse_spec(sql: str) -> Spec:
    match = _SELECT.match(sql.strip())
    if match is None:
        raise ValueError(f"not in the benchmark's SQL form: {sql!r}")
    aggregates, projection = [], []
    for item in (part.strip() for part in match["items"].split(",")):
        agg = _AGG.match(item)
        if agg:
            aggregates.append((agg[1], agg[2]))
        elif re.fullmatch(r"\w+", item):
            projection.append(item)
        else:
            raise ValueError(f"unsupported select item {item!r}")
    if aggregates and projection:
        raise ValueError(f"mixed aggregates and columns: {sql!r}")
    predicates = []
    if match["where"]:
        for term in match["where"].split(" AND "):
            pred = _PRED.match(term.strip())
            if pred is None:
                raise ValueError(f"unsupported predicate {term!r}")
            predicates.append((pred[1], pred[2], int(pred[3])))
    return Spec(
        match["table"], tuple(aggregates), tuple(projection), tuple(predicates)
    )


def evaluate(spec: Spec, columns: Mapping[str, np.ndarray]) -> np.ndarray:
    """The answer as a float64 (rows x outputs) array."""
    mask = np.ones(len(next(iter(columns.values()))), dtype=bool)
    for attr, op, literal in spec.predicates:
        mask &= _OPS[op](columns[attr], literal)
    if spec.projection:
        return np.column_stack(
            [columns[a][mask] for a in spec.projection]
        ).astype(np.float64)
    count = int(np.count_nonzero(mask))
    row = []
    for func, attr in spec.aggregates:
        if func == "count":
            row.append(float(count))
            continue
        values = columns[attr][mask].astype(np.int64)
        if func == "sum":
            row.append(float(values.sum()))
        elif count == 0:
            row.append(float("nan"))
        else:
            row.append(float(values.min() if func == "min" else values.max()))
    return np.array([row], dtype=np.float64)


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    if rows.shape[0] == 0:
        return rows
    return rows[np.lexsort(rows.T[::-1])]


def check_answer(spec: Spec, got, expected: np.ndarray) -> None:
    """Raise :class:`CheckError` unless ``got`` equals ``expected``.

    ``got`` is the store's row-major answer (array or nested lists, as
    JSON delivers it).  Aggregates must match bit for bit; projections
    must hold the same multiset of rows, in any order.
    """
    got = np.asarray(got, dtype=np.float64).reshape(-1, expected.shape[1])
    if got.shape != expected.shape:
        raise CheckError(
            f"answer has shape {got.shape}, reference {expected.shape}"
        )
    if spec.projection:
        got, expected = _sorted_rows(got), _sorted_rows(expected)
    if not np.array_equal(got, expected, equal_nan=True):
        bad = np.flatnonzero(
            ~((got == expected) | (np.isnan(got) & np.isnan(expected)))
        )
        raise CheckError(
            f"{bad.size} value(s) differ from the reference; first at "
            f"flat index {bad[0]}: got {got.flat[bad[0]]!r}, expected "
            f"{expected.flat[bad[0]]!r}"
        )


def check_recovered(
    num_rows: int,
    sums: Sequence[float],
    expected_rows: int,
    expected_sums: Sequence[float],
) -> None:
    """After a crash and restart every acknowledged row must be back."""
    if int(num_rows) != int(expected_rows):
        raise CheckError(
            f"recovered {num_rows} rows, acknowledged {expected_rows}"
        )
    got = np.asarray(sums, dtype=np.float64)
    want = np.asarray(expected_sums, dtype=np.float64)
    if not np.array_equal(got, want):
        raise CheckError(
            f"recovered column sums {got.tolist()} != acknowledged "
            f"{want.tolist()}"
        )
