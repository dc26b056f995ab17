"""The traced run: spans around each layer's public calls, per-layer metrics.

Every traced run measures the same three things, so that each run
reports every per-layer metric:

* the workload's own in-process stream, one round, when the workload
  runs in process (sky-adapt, scan-large): ``sql.parse`` and
  ``engine.execute`` spans plus the engine's ``QueryReport`` fields;
* the **layer ledger**: the serve-small stream replayed on fresh stacks
  at four depths — ``GatewayClient.query`` -> ``DurableStore.execute``
  -> ``H2OEngine.execute`` -> the benchmark's own numpy evaluation —
  whose adjacent p50 differences are each layer's self time;
* the **append ledger**: the ingest-trickle rounds replayed at three
  depths — HTTP append -> ``DurableStore.append`` ->
  ``Table.append_rows`` — each depth running the same interleaved
  queries, then an abandon-and-reopen of the store for recovery.

The engine counts (phases, plan and codegen cache ratios, morsels) come
from the deepest in-process stream that carries the workload's own
queries: its own stream for sky-adapt and scan-large, the ledger's
engine depth for serve-small, the append ledger's store depth for
ingest-trickle.  Spans are kept in memory and written to
``.perfbench/traces/`` when the run ends.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from . import streams as st
from .checks import CheckError, check_recovered, evaluate, parse_spec
from .common import GatewayProcess, Tracer, fresh_dir, one_cpu, out_dir, p50
from .workloads import (
    Reference,
    Tally,
    check_engine,
    check_report,
    create_over_http,
    live_checker,
    scan_table,
    SetupClock,
)


def _engine_metrics(engine, reports, parse_s: List[float]) -> Dict[str, Tuple[float, str]]:
    phases: Dict[str, float] = {}
    for report in reports:
        for phase, seconds in report.phases.items():
            phases[phase] = phases.get(phase, 0.0) + seconds
    used = sum(r.used_codegen for r in reports)
    total = sum(r.morsels_total for r in reports)
    table = engine.table
    out = {
        f"engine.{phase}_s": (phases.get(phase, 0.0), "s")
        for phase in ("adapt", "plan", "codegen", "reorg", "execute")
    }
    out.update(
        {
            "sql.parse_p50_us": (p50(parse_s) * 1e6, "us"),
            "engine.layouts_created": (engine.stats()["layouts_created"], "count"),
            "plan_cache.hit_ratio": (
                sum(r.plan_cache_hit for r in reports) / len(reports), "ratio"
            ),
            "codegen.cache_hit_ratio": (
                sum(r.codegen_cache_hit for r in reports) / used if used else 0.0,
                "ratio",
            ),
            "execution.morsels_pruned_ratio": (
                sum(r.morsels_pruned for r in reports) / total if total else 0.0,
                "ratio",
            ),
            "execution.scan_threads_mean": (
                float(np.mean([r.scan_threads_used for r in reports])), "threads"
            ),
            "storage.bytes_per_user_byte": (
                table.nbytes / (table.num_rows * len(table.schema.names) * 8),
                "B/B",
            ),
        }
    )
    return out


def _traced_engine_stream(engine, stream, ref_check, tracer, tally, tag):
    """Parse + execute each query under spans; returns (reports, parse_s)."""
    from repro.sql.parser import parse_query

    reports, parse_s = [], []
    for index, sql in enumerate(stream):
        rid = f"{tag}-{index}"
        tally.attempted += 1
        try:
            with tracer.span("bench.query", rid):
                with tracer.span("sql.parse", rid):
                    query = parse_query(sql)
                parsed = tracer.last
                with tracer.span("engine.execute", rid):
                    report = engine.execute(query)
                executed = tracer.last
        except Exception as exc:
            tally.failed += 1
            tally.error(f"{sql}: {type(exc).__name__}: {exc}")
            continue
        parse_s.append(parsed)
        check_report(report, executed, tally)
        ref_check(sql, report.result.data, tally)
        reports.append(report)
    return reports, parse_s


def own_stream(workload: str, seed: int, sizes: st.Sizes, tracer, tally):
    """One traced round of sky-adapt or scan-large in process."""
    from repro.config import EngineConfig
    from repro.core.engine import H2OEngine
    from repro.storage.relation import Table

    if workload == "sky-adapt":
        schema, columns, stream = st.sky_inputs(seed, sizes)
        table = Table.from_columns("photoobjall", schema, columns, "row")
        ref = Reference(columns)
    else:
        table, reference = scan_table(seed, sizes, SetupClock())
        stream = st.scan_stream(seed, sizes.scan_round)
        ref = Reference(reference)
    engine = H2OEngine(table, EngineConfig())
    reports, parse_s = _traced_engine_stream(
        engine, stream, ref.check, tracer, tally, workload
    )
    check_engine(engine, len(stream), tally)
    return _engine_metrics(engine, reports, parse_s)


def serve_ledger(seed: int, sizes: st.Sizes, tracer, tally):
    """The serve-small prefix at four depths; returns (metrics, engine metrics)."""
    from repro.config import EngineConfig
    from repro.core.engine import H2OEngine
    from repro.gateway.persist import DurableStore
    from repro.storage.relation import Table
    from repro.storage.schema import Schema

    columns = st.int_columns(st.SERVE_ATTRS, sizes.serve_rows, st.rng(seed, 1))
    stream = st.serve_stream(seed, sizes.ledger_queries)
    ref = Reference(columns)

    gateway_s, rtt_minus_engine = [], []
    with one_cpu(), GatewayProcess(fresh_dir("ledger", "serve-gw"), snapshot_every=0) as gw:
        client = gw.client()
        create_over_http(client, st.SERVE_TABLE, st.SERVE_ATTRS, columns, sizes.serve_rows)
        for index, sql in enumerate(stream):
            tally.attempted += 1
            with tracer.span("gateway.query", f"gw-{index}"):
                payload = client.query(sql)
            rtt = tracer.last
            gateway_s.append(rtt)
            rtt_minus_engine.append(rtt - float(payload["elapsed_ms"]) / 1e3)
            if rtt_minus_engine[-1] < 0:
                tally.error("server elapsed_ms exceeds the round trip")
            ref.check(sql, payload["rows"], tally)
        client.close()

    store_s = []
    store = DurableStore(fresh_dir("ledger", "serve-store"), engine_config=EngineConfig())
    try:
        store.create_table(st.SERVE_TABLE, st.schema_json(st.SERVE_ATTRS), columns)
        for index, sql in enumerate(stream):
            tally.attempted += 1
            with tracer.span("service.execute", f"svc-{index}"):
                report = store.execute(sql)
            store_s.append(tracer.last)
            check_report(report, store_s[-1], tally)
            ref.check(sql, report.result.data, tally)
    finally:
        store.close(checkpoint=False)

    schema = Schema.from_names(list(st.SERVE_ATTRS))
    engine = H2OEngine(
        Table.from_columns(st.SERVE_TABLE, schema, {k: v.copy() for k, v in columns.items()}),
        EngineConfig(),
    )
    reports, parse_s = _traced_engine_stream(
        engine, stream, ref.check, tracer, tally, "engine"
    )
    check_engine(engine, len(stream), tally)
    engine_s = tracer.durations("bench.query")[-len(stream):]

    numpy_s = []
    specs = [parse_spec(sql) for sql in stream]
    for index, spec in enumerate(specs):
        with tracer.span("numpy.evaluate", f"np-{index}"):
            evaluate(spec, columns)
        numpy_s.append(tracer.last)

    ms = 1e3
    metrics = {
        "gateway.self_p50_ms": ((p50(gateway_s) - p50(store_s)) * ms, "ms"),
        "service.self_p50_ms": ((p50(store_s) - p50(engine_s)) * ms, "ms"),
        "engine.self_p50_ms": ((p50(engine_s) - p50(numpy_s)) * ms, "ms"),
        "floor.numpy_p50_ms": (p50(numpy_s) * ms, "ms"),
        "gateway.rtt_minus_engine_p50_ms": (p50(rtt_minus_engine) * ms, "ms"),
    }
    return metrics, _engine_metrics(engine, reports, parse_s)


def append_ledger(seed: int, sizes: st.Sizes, tracer, tally):
    """Ingest rounds at three depths plus recovery; (metrics, engine metrics)."""
    from repro.config import EngineConfig, GatewayConfig
    from repro.core.engine import H2OEngine
    from repro.gateway.persist import DurableStore
    from repro.sql.parser import parse_query
    from repro.storage.relation import Table
    from repro.storage.schema import Schema

    seed_columns = st.ingest_seed(seed, sizes)
    rounds = [st.ingest_round(seed, i, sizes) for i in range(sizes.ingest_rounds)]
    user_bytes = sizes.ingest_rounds * sizes.ingest_batch * len(st.INGEST_ATTRS) * 8

    # Depth 1: HTTP append through the gateway process.
    http_s, ref = [], st.GrowingColumns(seed_columns)
    check = live_checker(ref)
    gw_dir = fresh_dir("ledger", "ingest-gw")
    with one_cpu(), GatewayProcess(gw_dir, snapshot_every=sizes.ingest_snapshot_every) as gw:
        client = gw.client()
        create_over_http(client, st.INGEST_TABLE, st.INGEST_ATTRS, seed_columns,
                         sizes.ingest_seed_batch)
        for index, (batch, queries) in enumerate(rounds):
            body = {k: v.tolist() for k, v in batch.items()}
            tally.attempted += 1
            with tracer.span("gateway.append", f"gwa-{index}"):
                client.append(st.INGEST_TABLE, body)
            http_s.append(tracer.last)
            ref.append(batch)
            for sql in queries:
                tally.attempted += 1
                check(sql, client.query(sql)["rows"], tally)
        client.close()

    # Depth 2: DurableStore in process (WAL fsync on, auto-checkpoints).
    store_s, reports, parse_s, ref = [], [], [], st.GrowingColumns(seed_columns)
    check = live_checker(ref)
    store_dir = fresh_dir("ledger", "ingest-store")
    config = GatewayConfig(snapshot_every_records=sizes.ingest_snapshot_every)
    store = DurableStore(store_dir, engine_config=EngineConfig(), gateway_config=config)
    try:
        store.create_table(st.INGEST_TABLE, st.schema_json(st.INGEST_ATTRS), seed_columns)
        before = store.stats()
        for index, (batch, queries) in enumerate(rounds):
            tally.attempted += 1
            with tracer.span("persist.append", f"sta-{index}"):
                store.append(st.INGEST_TABLE, batch)
            store_s.append(tracer.last)
            ref.append(batch)
            for sql in queries:
                rid = f"stq-{index}"
                tally.attempted += 1
                with tracer.span("sql.parse", rid):
                    query = parse_query(sql)
                parse_s.append(tracer.last)
                with tracer.span("service.execute", rid):
                    report = store.execute(query)
                check_report(report, tracer.last, tally)
                check(sql, report.result.data, tally)
                reports.append(report)
        after = store.stats()
        engine = store.system.engine_for(st.INGEST_TABLE)
        engine_metrics = _engine_metrics(engine, reports, parse_s)
    except BaseException:
        store.close(checkpoint=False)
        raise
    store.abandon()  # as a SIGKILL leaves it: no final checkpoint
    with tracer.span("persist.recover", "recover"):
        store = DurableStore(store_dir, engine_config=EngineConfig(), gateway_config=config)
    recovery_s = tracer.last
    try:
        replayed = store.stats()["replayed_records"]
        row = store.execute(st.recovery_sql()).result.data[0]
        try:
            check_recovered(row[0], row[1:], ref.rows, [
                float(ref.view()[a].sum()) for a in st.INGEST_ATTRS
            ])
        except CheckError as exc:
            tally.error(f"store recovery: {exc}")
    finally:
        store.close(checkpoint=False)

    # Depth 3: Table.append_rows under an engine running the same queries.
    table_s, ref = [], st.GrowingColumns(seed_columns)
    check = live_checker(ref)
    schema = Schema.from_names(list(st.INGEST_ATTRS))
    table = Table.from_columns(st.INGEST_TABLE, schema, {k: v.copy() for k, v in seed_columns.items()})
    engine = H2OEngine(table, EngineConfig())
    for index, (batch, queries) in enumerate(rounds):
        tally.attempted += 1
        with tracer.span("storage.append_rows", f"tba-{index}"):
            table.append_rows(batch)
        table_s.append(tracer.last)
        ref.append(batch)
        for sql in queries:
            tally.attempted += 1
            check(sql, engine.execute(sql).result.data, tally)

    appends = sizes.ingest_rounds
    ms = 1e3
    metrics = {
        "gateway.append_rtt_p50_ms": (p50(http_s) * ms, "ms"),
        "gateway.append_self_p50_ms": ((p50(http_s) - p50(store_s)) * ms, "ms"),
        "persist.append_self_p50_ms": ((p50(store_s) - p50(table_s)) * ms, "ms"),
        "storage.append_rows_p50_ms": (p50(table_s) * ms, "ms"),
        "wal.fsyncs_per_append": (
            (after["wal_fsyncs"] - before["wal_fsyncs"]) / appends, "ratio"
        ),
        "wal.bytes_per_user_byte": (
            (after["wal_bytes_written"] - before["wal_bytes_written"]) / user_bytes,
            "B/B",
        ),
        "persist.checkpoints": (after["checkpoints"] - before["checkpoints"], "count"),
        "persist.replayed_records": (replayed, "count"),
        "persist.recovery_s": (recovery_s, "s"),
    }
    return metrics, engine_metrics


def trace_run(workload: str, seed: int, sizes: st.Sizes):
    """(errors, attempted, failed, per-layer metrics) of one traced run."""
    tracer, tally = Tracer(), Tally()
    own = None
    if workload in ("sky-adapt", "scan-large"):
        own = own_stream(workload, seed, sizes, tracer, tally)
    serve_metrics, serve_engine = serve_ledger(seed, sizes, tracer, tally)
    append_metrics, ingest_engine = append_ledger(seed, sizes, tracer, tally)
    engine = own or (serve_engine if workload == "serve-small" else ingest_engine)
    tracer.write(out_dir("traces") / f"{workload}-seed{seed}.jsonl")
    return tally.errors, tally.attempted, tally.failed, {
        **serve_metrics, **append_metrics, **engine
    }
