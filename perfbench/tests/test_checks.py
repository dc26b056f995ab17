"""The checkers must catch wrong answers and lost writes, and only those."""

import numpy as np
import pytest

from h2obench.checks import (
    CheckError,
    check_answer,
    check_recovered,
    evaluate,
    parse_spec,
)
from h2obench.streams import GrowingColumns, int_columns, rng


@pytest.fixture
def columns():
    return int_columns(("a", "b", "c"), 500, rng(7, 1))


def test_exact_aggregate_passes_and_wrong_one_fails(columns):
    spec = parse_spec("SELECT sum(a), max(b), count(*) FROM r WHERE c > 0")
    expected = evaluate(spec, columns)
    check_answer(spec, expected.copy(), expected)
    wrong = expected.copy()
    wrong[0, 0] += 1.0
    with pytest.raises(CheckError):
        check_answer(spec, wrong, expected)


def test_missing_projected_row_fails(columns):
    spec = parse_spec("SELECT a, b FROM r WHERE c > 500000000")
    expected = evaluate(spec, columns)
    assert expected.shape[0] > 1
    with pytest.raises(CheckError):
        check_answer(spec, expected[1:], expected)


def test_projection_in_another_row_order_passes(columns):
    spec = parse_spec("SELECT a, b FROM r WHERE c > 500000000")
    expected = evaluate(spec, columns)
    reordered = expected[np.random.default_rng(0).permutation(len(expected))]
    check_answer(spec, reordered.tolist(), expected)


def test_swapped_projection_values_fail(columns):
    spec = parse_spec("SELECT a, b FROM r WHERE c > 500000000")
    expected = evaluate(spec, columns)
    swapped = expected.copy()
    swapped[0, 1], swapped[1, 1] = expected[1, 1], expected[0, 1]
    with pytest.raises(CheckError):
        check_answer(spec, swapped, expected)


def test_acknowledged_batch_lost_after_restart_fails(columns):
    ref = GrowingColumns(columns)
    batch = int_columns(("a", "b", "c"), 64, rng(7, 2))
    ref.append(batch)
    sums = [float(ref.view()[a].sum()) for a in ("a", "b", "c")]
    check_recovered(ref.rows, sums, ref.rows, sums)
    without = [float(columns[a].sum()) for a in ("a", "b", "c")]
    with pytest.raises(CheckError):
        check_recovered(ref.rows - 64, without, ref.rows, sums)
    # Same row count but different contents is a loss too.
    with pytest.raises(CheckError):
        check_recovered(ref.rows, without, ref.rows, sums)


def test_reference_agrees_with_the_store_on_the_benchmark_form(columns):
    from repro.core.engine import H2OEngine
    from repro.storage.relation import Table
    from repro.storage.schema import Schema

    table = Table.from_columns(
        "r", Schema.from_names(["a", "b", "c"]),
        {k: v.copy() for k, v in columns.items()},
    )
    engine = H2OEngine(table)
    for sql in (
        "SELECT min(a), count(*) FROM r WHERE b > 0 AND c <= 100",
        "SELECT c, a FROM r WHERE a >= 900000000",
    ):
        spec = parse_spec(sql)
        check_answer(spec, engine.execute(sql).result.data, evaluate(spec, columns))


def test_parse_spec_rejects_other_forms():
    with pytest.raises(ValueError):
        parse_spec("SELECT sum(a + b) FROM r")
    with pytest.raises(ValueError):
        parse_spec("SELECT a, max(b) FROM r")
