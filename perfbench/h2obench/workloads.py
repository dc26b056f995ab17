"""The four workloads, each timed from one closed-loop client.

A run repeats whole *rounds* of one seeded operation stream until
``--seconds`` have passed (always at least one round), so every run
attempts the same operations in the same proportions.  Only the calls
into the store are timed; reference answers and checks run between
them.
"""

from __future__ import annotations

import gc
import re
import resource
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import streams as st
from .checks import CheckError, check_answer, check_recovered, evaluate, parse_spec
from .common import (
    GatewayProcess,
    cpu_seconds,
    one_cpu,
    fresh_dir,
    peak_rss_mb,
    process_age_s,
)


class SetupClock:
    """``setup_s``: process start to ready, minus input generation."""

    def __init__(self) -> None:
        self.excluded = 0.0
        self.setup_s: Optional[float] = None

    @contextmanager
    def inputs(self):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.excluded += time.perf_counter() - started

    def ready(self) -> None:
        self.setup_s = process_age_s() - self.excluded


class Tally:
    """Counts, timings and check failures of one run."""

    def __init__(self) -> None:
        self.query_s: List[float] = []
        self.append_s: List[float] = []
        self.attempted = 0
        self.failed = 0
        #: CPU of this process inside :meth:`call` (all threads).
        self.own_cpu_s = 0.0
        #: Per round: (query seconds, operations completed, store CPU s).
        self.rounds: List[Tuple[List[float], int, float]] = []
        self.errors: List[str] = []
        self.info: Dict[str, object] = {}

    @contextmanager
    def round(self, store_cpu: Callable[[], float]):
        """Account one round; ``store_cpu`` reads the store's CPU seconds."""
        queries, ops, cpu = len(self.query_s), self.completed, store_cpu()
        yield
        self.rounds.append(
            (self.query_s[queries:], self.completed - ops, store_cpu() - cpu)
        )

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def error(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def call(self, fn: Callable, *args):
        """Time one operation; returns ``(result, seconds)`` or ``(None, 0)``."""
        self.attempted += 1
        cpu = time.process_time()
        started = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.error(f"operation failed: {type(exc).__name__}: {exc}")
            return None, 0.0
        seconds = time.perf_counter() - started
        self.own_cpu_s += time.process_time() - cpu
        return out, seconds


class Reference:
    """Answers over fixed data, computed once per distinct SQL text."""

    def __init__(self, columns: Dict[str, np.ndarray]) -> None:
        self.columns = columns
        self._cache: Dict[str, Tuple[object, np.ndarray]] = {}

    def check(self, sql: str, got, tally: Tally) -> None:
        entry = self._cache.get(sql)
        if entry is None:
            spec = parse_spec(sql)
            entry = self._cache[sql] = (spec, evaluate(spec, self.columns))
        try:
            check_answer(entry[0], got, entry[1])
        except CheckError as exc:
            tally.error(f"{sql}: {exc}")


def live_checker(ref: st.GrowingColumns) -> Callable:
    """A checker against the current contents of a growing reference."""

    def check(sql: str, got, tally: Tally) -> None:
        spec = parse_spec(sql)
        try:
            check_answer(spec, got, evaluate(spec, ref.view()))
        except CheckError as exc:
            tally.error(f"{sql}: {exc}")

    return check


def check_report(report, span_s: float, tally: Tally) -> None:
    """Properties every in-process ``QueryReport`` must have."""
    if report.seconds > span_s:
        tally.error(
            f"QueryReport.seconds {report.seconds} exceeds the client's "
            f"span {span_s}"
        )
    if report.morsels_pruned > report.morsels_total:
        tally.error(
            f"pruned {report.morsels_pruned} of {report.morsels_total} morsels"
        )


def check_engine(engine, queries: int, tally: Tally) -> None:
    stats = engine.stats()
    if stats["queries"] != queries:
        tally.error(f"engine counted {stats['queries']} queries, sent {queries}")
    table = engine.table
    floor = table.num_rows * len(table.schema.names) * 8
    if table.nbytes < floor:
        tally.error(f"Table.nbytes {table.nbytes} < rows*attrs*8 = {floor}")


def served_queries(client) -> int:
    match = re.search(
        r'h2o_service_queries_total\{outcome="completed"\} (\S+)', client.metrics()
    )
    return int(float(match.group(1))) if match else -1


def http_query(client, sql: str, tally: Tally, ref_check: Callable) -> None:
    payload, seconds = tally.call(client.query, sql)
    if payload is None:
        return
    tally.query_s.append(seconds)
    if float(payload["elapsed_ms"]) > seconds * 1e3:
        tally.error(
            f"server elapsed_ms {payload['elapsed_ms']} exceeds round trip "
            f"{seconds * 1e3} ms"
        )
    ref_check(sql, payload["rows"], tally)


def _rounds(seconds: float):
    """Round indices until ``seconds`` have passed (at least one)."""
    started = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - started < seconds:
        yield index
        index += 1


def _own_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- in-process workloads --------------------------------------------------


def _engine_query(engine, sql: str, tally: Tally, ref: Reference) -> None:
    report, span = tally.call(engine.execute, sql)
    if report is None:
        return
    tally.query_s.append(span)
    check_report(report, span, tally)
    ref.check(sql, report.result.data, tally)


def sky_adapt(seed: int, seconds: float, sizes: st.Sizes, clock: SetupClock) -> Tally:
    """PhotoObjAll surrogate from row-major: each round a fresh engine."""
    from repro.config import EngineConfig
    from repro.core.engine import H2OEngine
    from repro.storage.relation import Table

    with clock.inputs():
        schema, columns, stream = st.sky_inputs(seed, sizes)
    ref = Reference(columns)
    tally = Tally()
    engine = H2OEngine(
        Table.from_columns("photoobjall", schema, columns, "row"), EngineConfig()
    )
    clock.ready()
    for index in _rounds(seconds):
        if index:
            # Free the previous round's engine before building the next,
            # so two rounds' state is never held at once.
            del engine
            gc.collect()
            engine = H2OEngine(
                Table.from_columns("photoobjall", schema, columns, "row"),
                EngineConfig(),
            )
        with tally.round(lambda: tally.own_cpu_s):
            for sql in stream:
                _engine_query(engine, sql, tally, ref)
        check_engine(engine, len(stream), tally)
    tally.info["rss_mb"] = _own_rss_mb()
    return tally


def scan_table(seed: int, sizes: st.Sizes, clock: SetupClock):
    """(table, reference columns) for scan-large; the copies are apart."""
    from repro.storage.generator import wide_schema
    from repro.storage.relation import Table

    with clock.inputs():
        columns = st.scan_columns(seed, sizes.scan_rows)
        # The reference keeps int32 copies (values fit): the store owns
        # the int64 originals, and memory stays ~1.5x the table.
        reference = {name: values.astype(np.int32) for name, values in columns.items()}
    table = Table.from_columns(st.SCAN_TABLE, wide_schema(16), columns, "column")
    return table, reference


def scan_large(seed: int, seconds: float, sizes: st.Sizes, clock: SetupClock) -> Tally:
    """One engine over >= 1M rows x 16 attributes, repeated rounds."""
    from repro.config import EngineConfig
    from repro.core.engine import H2OEngine

    table, reference = scan_table(seed, sizes, clock)
    with clock.inputs():
        stream = st.scan_stream(seed, sizes.scan_round)
    ref = Reference(reference)
    tally = Tally()
    engine = H2OEngine(table, EngineConfig())
    clock.ready()
    for _ in _rounds(seconds):
        with tally.round(lambda: tally.own_cpu_s):
            for sql in stream:
                _engine_query(engine, sql, tally, ref)
    check_engine(engine, tally.attempted, tally)
    tally.info["rss_mb"] = _own_rss_mb()
    return tally


# -- gateway workloads -----------------------------------------------------


def create_over_http(client, name, names, columns, batch_rows: int) -> None:
    """Create ``name`` and seed it in batches under the body limit."""
    rows = len(next(iter(columns.values())))
    first = {k: v[:batch_rows].tolist() for k, v in columns.items()}
    client.create_table(name, st.schema_json(names), first)
    for lo in range(batch_rows, rows, batch_rows):
        client.append(name, {k: v[lo : lo + batch_rows].tolist() for k, v in columns.items()})


def serve_small(seed: int, seconds: float, sizes: st.Sizes, clock: SetupClock) -> Tally:
    """Recurring dashboard shapes over HTTP to ``python -m repro.gateway``.

    Each round starts its own gateway process: how fast one server
    process serves this stream differed by ~15% from process to process
    (same seed, same host), so the median over several processes is what
    repeats.
    """
    with clock.inputs():
        columns = st.int_columns(st.SERVE_ATTRS, sizes.serve_rows, st.rng(seed, 1))
        stream = st.serve_stream(seed, sizes.serve_round)
    ref = Reference(columns)
    tally = Tally()
    tally.info["rss_mb"] = 0.0
    for index in _rounds(seconds):
        data = fresh_dir("serve-small", "data")
        with one_cpu(), GatewayProcess(data, snapshot_every=0) as gateway:
            client = gateway.client()
            create_over_http(
                client, st.SERVE_TABLE, st.SERVE_ATTRS, columns, sizes.serve_rows
            )
            if index == 0:
                clock.ready()
            with tally.round(lambda: cpu_seconds(gateway.pid)):
                for sql in stream:
                    http_query(client, sql, tally, ref.check)
            tally.info["rss_mb"] = max(
                tally.info["rss_mb"], peak_rss_mb(gateway.pid)
            )
            served = served_queries(client)
            if served != len(stream):
                tally.error(
                    f"server completed {served} queries, client sent {len(stream)}"
                )
            client.close()
    return tally


def ingest_trickle(seed: int, seconds: float, sizes: st.Sizes, clock: SetupClock) -> Tally:
    """Whole ingest cycles: fresh server, durable trickle, SIGKILL, restart.

    Every cycle replays the same seeded rounds onto the same seed table
    in a fresh data directory, so each does identical work whatever the
    run length.
    """
    with clock.inputs():
        seed_columns = st.ingest_seed(seed, sizes)
        rounds = [
            (batch, {k: v.tolist() for k, v in batch.items()}, queries)
            for batch, queries in (
                st.ingest_round(seed, i, sizes) for i in range(sizes.ingest_rounds)
            )
        ]
    tally = Tally()
    tally.info.update(rss_mb=0.0, recovery_s=[])
    for cycle in _rounds(seconds):
        _ingest_cycle(seed_columns, rounds, sizes, tally, clock if cycle == 0 else None)
    tally.info["recovery_s"] = float(np.median(tally.info["recovery_s"]))
    return tally


def _ingest_cycle(seed_columns, rounds, sizes, tally: Tally, clock) -> None:
    ref = st.GrowingColumns(seed_columns)
    check_live = live_checker(ref)
    data = fresh_dir("ingest-trickle", "data")

    with one_cpu(), GatewayProcess(
        data, snapshot_every=sizes.ingest_snapshot_every
    ) as gateway:
        client = gateway.client()
        create_over_http(
            client, st.INGEST_TABLE, st.INGEST_ATTRS, seed_columns,
            sizes.ingest_seed_batch,
        )
        if clock is not None:
            clock.ready()
        queries_before = len(tally.query_s)
        with tally.round(lambda: cpu_seconds(gateway.pid)):
            for batch, body, queries in rounds:
                acked, span = tally.call(client.append, st.INGEST_TABLE, body)
                if acked is not None:
                    tally.append_s.append(span)
                    ref.append(batch)
                    if int(acked["appended"]) != sizes.ingest_batch:
                        tally.error(f"append acknowledged {acked['appended']} rows")
                for sql in queries:
                    http_query(client, sql, tally, check_live)
        tally.info["rss_mb"] = max(tally.info["rss_mb"], peak_rss_mb(gateway.pid))
        sent = len(tally.query_s) - queries_before
        served = served_queries(client)
        if served != sent:
            tally.error(f"server completed {served} queries, client sent {sent}")
        client.close()
    # Leaving the block SIGKILLed the server: no drain, no final checkpoint.
    with one_cpu(), GatewayProcess(
        data, snapshot_every=sizes.ingest_snapshot_every
    ) as gateway:
        tally.info["recovery_s"].append(gateway.ready_s)
        client = gateway.client()
        row = client.query(st.recovery_sql())["rows"][0]
        try:
            check_recovered(row[0], row[1:], ref.rows, [
                float(ref.view()[a].sum()) for a in st.INGEST_ATTRS
            ])
        except CheckError as exc:
            tally.error(f"after restart: {exc}")
        client.close()


WORKLOADS = {
    "sky-adapt": sky_adapt,
    "serve-small": serve_small,
    "scan-large": scan_large,
    "ingest-trickle": ingest_trickle,
}
