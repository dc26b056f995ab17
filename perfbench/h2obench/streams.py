"""Seeded inputs: tables and operation streams for every workload.

Everything here is a pure function of ``(seed, sizes)``; the store sees
only the arrays and SQL text these produce.  Values are integers drawn
uniformly from [-10^9, 10^9), the paper's micro-benchmark range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

LOW, HIGH = -(10**9), 10**9


@dataclass(frozen=True)
class Sizes:
    sky_rows: int
    sky_round: int  # queries per fresh-engine round
    serve_rows: int
    serve_round: int
    scan_rows: int
    scan_round: int
    ingest_seed_rows: int
    ingest_seed_batch: int  # rows per create/seed request (body limit)
    ingest_batch: int  # rows per trickle append
    ingest_rounds: int  # trickle rounds per cycle (one append + 3 queries)
    ingest_snapshot_every: int  # WAL records between auto-checkpoints
    ledger_queries: int  # serve-small stream prefix replayed per depth


FULL = Sizes(
    sky_rows=10_000,
    sky_round=750,
    serve_rows=50_000,
    serve_round=400,
    scan_rows=1_048_576,
    scan_round=100,
    ingest_seed_rows=40_000,
    ingest_seed_batch=20_000,
    ingest_batch=256,
    ingest_rounds=50,
    ingest_snapshot_every=12,
    ledger_queries=200,
)

#: Small sizes for the quick mode and the benchmark's own tests.
QUICK = Sizes(
    sky_rows=2_000,
    sky_round=150,
    serve_rows=5_000,
    serve_round=40,
    scan_rows=300_000,
    scan_round=20,
    ingest_seed_rows=4_000,
    ingest_seed_batch=2_000,
    ingest_batch=64,
    ingest_rounds=15,
    ingest_snapshot_every=6,
    ledger_queries=30,
)

SERVE_TABLE, SERVE_ATTRS = "r", ("a", "b", "c", "d")
SCAN_TABLE = "big"
SCAN_ATTRS = tuple(f"a{i}" for i in range(1, 17))
INGEST_TABLE = "t"
INGEST_ATTRS = tuple(f"e{i}" for i in range(1, 17))

# Stream tags keep every draw independent of the others for one seed.
_DATA, _STREAM, _BATCH = 1, 2, 3


def rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def int_columns(names, rows: int, gen: np.random.Generator) -> Dict[str, np.ndarray]:
    return {
        name: gen.integers(LOW, HIGH, size=rows, dtype=np.int64)
        for name in names
    }


def _lit(gen: np.random.Generator, lo: float, hi: float) -> int:
    return int(gen.integers(int(lo * HIGH), int(hi * HIGH)))


# -- sky-adapt -------------------------------------------------------------


def sky_inputs(seed: int, sizes: Sizes) -> Tuple[object, Dict[str, np.ndarray], List[str]]:
    """(schema, columns, SQL stream) of the PhotoObjAll surrogate."""
    from repro.workloads.skyserver import photoobj_schema, skyserver_workload

    workload = skyserver_workload(
        num_rows=sizes.sky_rows, num_queries=sizes.sky_round, rng=seed
    )
    schema = photoobj_schema()
    columns = int_columns(schema.names, sizes.sky_rows, rng(seed, _DATA))
    return schema, columns, [q.to_sql() for q in workload.queries]


# -- serve-small -----------------------------------------------------------


def serve_stream(seed: int, count: int) -> List[str]:
    """Dashboard shapes with fresh literals (five shapes, all cacheable)."""
    gen = rng(seed, _STREAM, 1)
    out = []
    for _ in range(count):
        shape = int(gen.integers(5))
        if shape == 0:
            out.append(
                f"SELECT sum(a), max(b), count(*) FROM r WHERE a > {_lit(gen, -1, 0.9)}"
            )
        elif shape == 1:
            out.append(f"SELECT min(c), sum(d) FROM r WHERE b < {_lit(gen, -0.9, 1)}")
        elif shape == 2:
            out.append(
                f"SELECT count(*) FROM r WHERE c > {_lit(gen, -1, 0)} "
                f"AND d < {_lit(gen, 0, 1)}"
            )
        elif shape == 3:
            # ~0.1% of rows: a small projection.
            out.append(f"SELECT a, d FROM r WHERE b > {_lit(gen, 0.997, 0.999)}")
        else:
            out.append(
                f"SELECT max(a), min(b) FROM r WHERE d >= {_lit(gen, -0.5, 0.5)}"
            )
    return out


# -- scan-large ------------------------------------------------------------


def scan_columns(seed: int, rows: int) -> Dict[str, np.ndarray]:
    """a1 ascending (arrival order); a2..a16 in random order."""
    columns = int_columns(SCAN_ATTRS, rows, rng(seed, _DATA))
    columns["a1"].sort()
    return columns


def scan_stream(seed: int, count: int) -> List[str]:
    """Three of every five predicates hit the ordered a1, two shuffled ones.

    The 3:2 split keeps the median inside the cheap (pruned) mode rather
    than on the boundary between the two modes, where it would flip.
    """
    gen = rng(seed, _STREAM, 2)
    out = []
    for index in range(count):
        kind = index % 5
        if kind == 0:  # ordered, ~5% range: zone maps prune
            lo = _lit(gen, -1, 0.9)
            out.append(
                f"SELECT sum(a2), count(*) FROM big WHERE a1 >= {lo} "
                f"AND a1 < {lo + HIGH // 10}"
            )
        elif kind == 1:  # shuffled, ~50%: nothing to prune
            out.append(
                f"SELECT sum(a5), max(a6) FROM big WHERE a7 < {_lit(gen, -0.52, -0.48)}"
            )
        elif kind == 2:  # ordered, ~0.2% projection
            lo = _lit(gen, -1, 0.99)
            out.append(
                f"SELECT a3, a4 FROM big WHERE a1 >= {lo} AND a1 < {lo + HIGH // 250}"
            )
        elif kind == 3:  # shuffled, two conjuncts
            out.append(
                f"SELECT min(a8), count(*) FROM big WHERE a9 > {_lit(gen, 0.8, 0.9)} "
                f"AND a10 < {_lit(gen, 0, 0.5)}"
            )
        else:  # ordered, ~1% range
            lo = _lit(gen, -1, 0.98)
            out.append(
                f"SELECT max(a11), min(a12) FROM big WHERE a1 > {lo} "
                f"AND a1 <= {lo + HIGH // 50}"
            )
    return out


# -- ingest-trickle --------------------------------------------------------


def ingest_seed(seed: int, sizes: Sizes) -> Dict[str, np.ndarray]:
    return int_columns(INGEST_ATTRS, sizes.ingest_seed_rows, rng(seed, _DATA))


def ingest_round(seed: int, index: int, sizes: Sizes) -> Tuple[Dict[str, np.ndarray], List[str]]:
    """Round ``index``: one append batch, then three recurring queries."""
    gen = rng(seed, _BATCH, index)
    batch = int_columns(INGEST_ATTRS, sizes.ingest_batch, gen)
    queries = [
        f"SELECT count(*), sum(e2), max(e3) FROM t WHERE e1 > {_lit(gen, -1, 0.9)}",
        f"SELECT sum(e5) FROM t WHERE e4 < {_lit(gen, -0.9, 1)}",
        f"SELECT min(e7), count(*) FROM t WHERE e6 > {_lit(gen, -1, 0)} "
        f"AND e8 < {_lit(gen, 0, 1)}",
    ]
    return batch, queries


def recovery_sql() -> str:
    sums = ", ".join(f"sum({a})" for a in INGEST_ATTRS)
    return f"SELECT count(*), {sums} FROM t"


def schema_json(names) -> List[Dict[str, str]]:
    return [{"name": name, "dtype": "int64"} for name in names]


class GrowingColumns:
    """The benchmark's own copy of an append-only table."""

    def __init__(self, seed_columns: Dict[str, np.ndarray]) -> None:
        self.rows = len(next(iter(seed_columns.values())))
        capacity = max(1024, 4 * self.rows)
        self.columns = {}
        for name, values in seed_columns.items():
            buffer = np.empty(capacity, dtype=np.int64)
            buffer[: self.rows] = values
            self.columns[name] = buffer

    def append(self, batch: Dict[str, np.ndarray]) -> None:
        size = len(next(iter(batch.values())))
        end = self.rows + size
        for name, values in batch.items():
            buffer = self.columns[name]
            if end > buffer.shape[0]:
                grown = np.empty(2 * end, dtype=np.int64)
                grown[: self.rows] = buffer[: self.rows]
                self.columns[name] = buffer = grown
            buffer[self.rows : end] = values
        self.rows = end

    def view(self) -> Dict[str, np.ndarray]:
        return {name: buf[: self.rows] for name, buf in self.columns.items()}
