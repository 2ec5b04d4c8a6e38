"""Command-line interface: ``python -m repro <command>``.

Real file encode/decode/repair plus simulation front-ends::

    python -m repro info
    python -m repro encode photo.jpg --code "rs(6,3)" --out-dir stripe/
    python -m repro corrupt stripe/manifest.json --chunk 2
    python -m repro repair  stripe/manifest.json --chunk 2 --strategy ppr
    python -m repro decode  stripe/manifest.json --out photo.restored.jpg
    python -m repro simulate --code "rs(12,4)" --chunk-size 64MiB
    python -m repro evaluate            # every table/figure, quick mode

The encode/decode/repair path runs the *real* coding layer on your bytes;
``simulate``/``evaluate`` drive the cluster simulator.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional

import numpy as np

from repro import __version__
from repro.codes import available_codes, make_code
from repro.errors import ReproError
from repro.repair.plan import SCHEMES, STRATEGIES, build_plan
from repro.repair.executor import execute_plan
from repro.util.units import parse_bandwidth, parse_size

MANIFEST_NAME = "manifest.json"


# ----------------------------------------------------------------------
# info
# ----------------------------------------------------------------------
def cmd_info(_args: argparse.Namespace) -> int:
    print(f"repro {__version__} — Partial-Parallel-Repair reproduction")
    print(f"code families : {', '.join(available_codes())}")
    print(f"strategies    : {', '.join(STRATEGIES)}")
    print("docs          : README.md, DESIGN.md, EXPERIMENTS.md")
    return 0


# ----------------------------------------------------------------------
# encode / decode / corrupt / repair on real files
# ----------------------------------------------------------------------
def _load_manifest(path: pathlib.Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _chunk_path(manifest_path: pathlib.Path, index: int) -> pathlib.Path:
    return manifest_path.parent / f"chunk-{index:02d}.bin"


def cmd_encode(args: argparse.Namespace) -> int:
    code = make_code(args.code)
    blob = pathlib.Path(args.input).read_bytes()
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    chunks = code.encode_blob(blob)
    for index, chunk in enumerate(chunks):
        (out_dir / f"chunk-{index:02d}.bin").write_bytes(chunk.tobytes())
    manifest = {
        "code": args.code,
        "blob_size": len(blob),
        "chunk_length": int(chunks[0].size),
        "num_chunks": code.n,
        "source": str(args.input),
    }
    manifest_path = out_dir / MANIFEST_NAME
    manifest_path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    print(f"encoded {len(blob)} bytes into {code.n} chunks of "
          f"{manifest['chunk_length']} bytes each ({code.name})")
    print(f"manifest: {manifest_path}")
    return 0


def _available_chunks(manifest_path: pathlib.Path, manifest: dict) -> dict:
    available = {}
    for index in range(manifest["num_chunks"]):
        path = _chunk_path(manifest_path, index)
        if path.exists():
            available[index] = np.frombuffer(
                path.read_bytes(), dtype=np.uint8
            ).copy()
    return available


def cmd_decode(args: argparse.Namespace) -> int:
    manifest_path = pathlib.Path(args.manifest)
    manifest = _load_manifest(manifest_path)
    code = make_code(manifest["code"])
    available = _available_chunks(manifest_path, manifest)
    blob = code.decode_blob(available, manifest["blob_size"])
    pathlib.Path(args.out).write_bytes(blob)
    print(f"decoded {len(blob)} bytes from {len(available)} surviving "
          f"chunks -> {args.out}")
    return 0


def cmd_corrupt(args: argparse.Namespace) -> int:
    manifest_path = pathlib.Path(args.manifest)
    path = _chunk_path(manifest_path, args.chunk)
    if not path.exists():
        print(f"chunk {args.chunk} is already missing", file=sys.stderr)
        return 1
    path.unlink()
    print(f"deleted {path} (simulated erasure)")
    return 0


def cmd_repair(args: argparse.Namespace) -> int:
    if args.live:
        return _cmd_repair_live(args)
    if args.manifest is None:
        print("error: manifest is required without --live", file=sys.stderr)
        return 2
    if args.chunk < 0:
        print("error: --chunk is required without --live", file=sys.stderr)
        return 2
    manifest_path = pathlib.Path(args.manifest)
    manifest = _load_manifest(manifest_path)
    code = make_code(manifest["code"])
    available = _available_chunks(manifest_path, manifest)
    lost = args.chunk
    if lost in available:
        print(f"chunk {lost} is present; nothing to repair")
        return 0
    recipe = code.repair_recipe(lost, available.keys())
    plan = build_plan(args.strategy, recipe)
    rebuilt = execute_plan(plan, available)
    _chunk_path(manifest_path, lost).write_bytes(rebuilt.tobytes())
    helpers = ", ".join(str(h) for h in recipe.helpers)
    print(f"rebuilt chunk {lost} with {args.strategy} plan "
          f"({plan.num_steps} step(s)) from helpers [{helpers}]")
    print(f"total transfer: {plan.total_bytes(manifest['chunk_length']):,.0f} "
          f"bytes; max through one node: "
          f"{plan.max_bytes_through_node(manifest['chunk_length']):,.0f}")
    return 0


# ----------------------------------------------------------------------
# live mode: serve / repair --live
# ----------------------------------------------------------------------
def _parse_address(text: str):
    from repro.live import Address

    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ReproError(f"bad address {text!r}; expected HOST:PORT")
    return Address(host=host, port=int(port))


def _payload_sha256(payload: np.ndarray) -> str:
    import hashlib

    return hashlib.sha256(payload.tobytes()).hexdigest()


async def _serve_cluster(args: argparse.Namespace) -> int:
    """One-process localhost cluster: meta + N chunk servers on TCP."""
    import asyncio
    import hashlib

    from repro.live import LiveCluster, LiveConfig

    config = LiveConfig(
        heartbeat_interval=args.heartbeat_interval,
        failure_detection_timeout=3 * args.heartbeat_interval,
        collector_enabled=args.collector,
    )
    cluster = LiveCluster(
        num_servers=args.servers,
        config=config,
        payload_bytes=args.payload_bytes,
        seed=args.seed,
    )
    await cluster.start(meta_port=args.port)
    try:
        print(f"META {cluster.meta.address}", flush=True)
        for server_id in cluster.server_ids:
            print(
                f"SERVER {server_id} {cluster.server(server_id).address}",
                flush=True,
            )
        if args.stripe:
            stripe = await cluster.write_stripe(args.stripe)
            print(f"STRIPE {stripe.stripe_id} {stripe.spec}", flush=True)
            for index, chunk_id in enumerate(stripe.chunk_ids):
                truth = cluster.truth_payload(chunk_id)
                assert truth is not None
                digest = hashlib.sha256(truth.tobytes()).hexdigest()
                print(
                    f"CHUNK {index} {chunk_id} {stripe.hosts[index]} "
                    f"{digest}",
                    flush=True,
                )
            if args.kill_index is not None:
                victim = stripe.hosts[args.kill_index]
                await cluster.kill_server(victim)
                print(f"KILLED {victim}", flush=True)
        print("READY", flush=True)
        await asyncio.Event().wait()  # serve until interrupted
    except asyncio.CancelledError:
        pass
    finally:
        await cluster.stop()
    return 0


async def _serve_meta(args: argparse.Namespace) -> int:
    import asyncio

    from repro.live import LiveConfig, LiveMetaServer

    meta = LiveMetaServer(LiveConfig())
    await meta.start(port=args.port)
    try:
        print(f"META {meta.address}", flush=True)
        print("READY", flush=True)
        await asyncio.Event().wait()
    except asyncio.CancelledError:
        pass
    finally:
        await meta.stop()
    return 0


async def _serve_chunk(args: argparse.Namespace) -> int:
    import asyncio

    from repro.live import LiveChunkServer, LiveConfig

    if not args.meta:
        print("error: --role chunk requires --meta HOST:PORT",
              file=sys.stderr)
        return 2
    config = LiveConfig(
        heartbeat_interval=args.heartbeat_interval,
        failure_detection_timeout=3 * args.heartbeat_interval,
        collector_enabled=args.collector,
    )
    server = LiveChunkServer(args.id, _parse_address(args.meta), config)
    await server.start(port=args.port)
    try:
        print(f"SERVER {args.id} {server.address}", flush=True)
        print("READY", flush=True)
        await asyncio.Event().wait()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    runner = {
        "cluster": _serve_cluster,
        "meta": _serve_meta,
        "chunk": _serve_chunk,
    }[args.role]
    try:
        return asyncio.run(runner(args))
    except KeyboardInterrupt:
        return 0


def _cmd_repair_live(args: argparse.Namespace) -> int:
    import asyncio

    from repro.live import LiveConfig, LiveCoordinator
    from repro.sim.metrics import PHASES

    if not args.meta or not args.stripe_id:
        print(
            "error: --live requires --meta HOST:PORT and --stripe-id",
            file=sys.stderr,
        )
        return 2

    async def run() -> int:
        coordinator = LiveCoordinator(_parse_address(args.meta), LiveConfig())
        try:
            report = await coordinator.repair(
                args.stripe_id,
                lost_index=args.chunk if args.chunk >= 0 else None,
                strategy=args.strategy,
                num_slices=args.slices,
            )
        finally:
            await coordinator.close()
        result = report.result
        print(
            f"repaired {result.stripe_id}#{result.lost_index} "
            f"({result.code_name}, {result.strategy}) at "
            f"{result.destination} in {result.duration * 1e3:.1f}ms "
            f"over {result.num_helpers} helpers, "
            f"attempt(s)={report.attempts}"
        )
        for name in PHASES:
            busy = result.phase_busy.get(name, 0.0)
            if busy > 0:
                print(f"  {name:<10} {busy * 1e3:8.2f}ms "
                      f"({result.phase_share(name):6.1%})")
        print(f"traffic: {result.traffic.total_bytes():,.0f} bytes on the wire")
        print(f"SHA256 {_payload_sha256(report.payload)}", flush=True)
        return 0

    return asyncio.run(run())


# ----------------------------------------------------------------------
# trace: record / convert / timeline / summary
# ----------------------------------------------------------------------
def _trace_record_sim(args: argparse.Namespace):
    """One simulated repair with tracing on.

    Returns ``(tracer, clock, meta, series)`` where ``series`` is the
    telemetry store's snapshot (time-series records for the trace file).
    """
    from repro import obs
    from repro.core.single_repair import run_single_repair
    from repro.fs.cluster import StorageCluster

    code = make_code(args.code)
    cluster = StorageCluster.smallsite(
        num_servers=args.servers,
        link_bandwidth=args.bandwidth,
        seed=args.seed,
    )
    telemetry = cluster.enable_telemetry(interval=args.sample_interval)
    stripe = cluster.write_stripe(code, args.chunk_size)
    profiler = None
    if args.profile:
        from repro.obs.profiler import VirtualProfiler

        # Virtual-clock profiler: attributes simulated seconds to event
        # callbacks.  Read-only on the simulation — results stay
        # bit-identical to an unprofiled run.
        profiler = VirtualProfiler().attach(cluster.sim)
    tracer = obs.enable(clock=lambda: cluster.sim.now, clock_name="virtual")
    result = run_single_repair(
        cluster,
        stripe,
        lost_index=args.lost,
        strategy=args.strategy,
        num_slices=args.slices,
    )
    obs.registry().counter("sim.events.executed").inc(
        cluster.sim.events_executed
    )
    print(result.summary())
    if profiler is not None:
        profiler.profile.write_collapsed(args.profile)
        print(
            f"profile: {profiler.events_observed} events, "
            f"{len(profiler.profile)} stacks -> {args.profile} "
            f"(collapsed-stack format; feed to flamegraph.pl or speedscope)"
        )
    meta = {
        "mode": "sim",
        "strategy": args.strategy,
        "code": args.code,
        "stripe": stripe.stripe_id,
        # Modeled inputs for `repro trace conform`: the Eq. 1 terms need
        # the chunk size and the (uncontended) network/disk bandwidths.
        "chunk_size_bytes": parse_size(args.chunk_size),
        "net_bandwidth_Bps": parse_bandwidth(args.bandwidth),
        "io_bandwidth_Bps": parse_bandwidth(cluster.config.disk_bandwidth),
        "io_seek_s": next(
            iter(cluster.servers.values())
        ).disk.seek_latency,
    }
    return tracer, "virtual", meta, telemetry.snapshot()


async def _trace_record_live(args: argparse.Namespace):
    """One live repair with tracing on; returns (tracer, clock, meta)."""
    from repro import obs
    from repro.live import LiveConfig, LiveCoordinator
    from repro.live import trace as live_trace

    tracer = obs.enable(clock=live_trace.now, clock_name="wall")
    if args.profile:
        from repro.obs import profiler as prof_mod

        prof_mod.start_wall()
    coordinator = LiveCoordinator(_parse_address(args.meta), LiveConfig())
    try:
        report = await coordinator.repair(
            args.stripe_id,
            lost_index=args.chunk if args.chunk >= 0 else None,
            strategy=args.strategy,
        )
    finally:
        await coordinator.close()
        if args.profile:
            profile = prof_mod.stop_wall()
            if profile is not None:
                profile.write_collapsed(args.profile)
                print(f"profile: {len(profile)} stacks -> {args.profile}")
    result = report.result
    print(
        f"repaired {result.stripe_id}#{result.lost_index} "
        f"({result.strategy}) in {result.duration * 1e3:.1f}ms; "
        f"SHA256 {_payload_sha256(report.payload)}"
    )
    meta = {
        "mode": "live",
        "strategy": args.strategy,
        "stripe": args.stripe_id,
    }
    return tracer, "wall", meta, []


def _cmd_trace_record(args: argparse.Namespace) -> int:
    import asyncio

    from repro import obs

    if args.live and (not args.meta or not args.stripe_id):
        print(
            "error: trace record --live requires --meta HOST:PORT "
            "and --stripe-id",
            file=sys.stderr,
        )
        return 2
    try:
        if args.live:
            tracer, clock, meta, series = asyncio.run(
                _trace_record_live(args)
            )
        else:
            tracer, clock, meta, series = _trace_record_sim(args)
        spans = tracer.drain()
        events = obs.write_trace(
            args.out,
            spans,
            clock=clock,
            metrics=obs.registry().snapshot(),
            series=series,
            extra_meta=meta,
        )
    finally:
        # Never leak the process-global tracer past the recording.
        obs.disable()
        obs.registry().reset()
    print(f"trace: {len(spans)} spans, {events} events -> {args.out}")
    print(f"view it: python -m repro trace convert {args.out} "
          f"--out trace.chrome.json  (open in https://ui.perfetto.dev)")
    return 0


def _cmd_trace_convert(args: argparse.Namespace) -> int:
    from repro import obs

    meta, spans, _metrics = obs.load_trace(args.trace)
    document = obs.chrome_trace(
        spans, clock=str(meta.get("clock", "monotonic"))
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(
        f"wrote {len(document['traceEvents'])} Chrome trace events -> "
        f"{args.out} (load in chrome://tracing or https://ui.perfetto.dev)"
    )
    return 0


def _cmd_trace_timeline(args: argparse.Namespace) -> int:
    from repro import obs

    _meta, spans, _metrics = obs.load_trace(args.trace)
    print(obs.render_timeline(spans, width=args.width), end="")
    return 0


def _cmd_trace_summary(args: argparse.Namespace) -> int:
    from repro import obs

    meta, spans, metrics = obs.load_trace(args.trace)
    print(f"trace {args.trace}: {len(spans)} spans, clock={meta.get('clock')}")
    print(obs.summarize(spans, metrics), end="")
    return 0


def _cmd_trace_prom(args: argparse.Namespace) -> int:
    from repro import obs

    _meta, _spans, metrics = obs.load_trace(args.trace)
    text = obs.render_prometheus(metrics, namespace=args.namespace)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote Prometheus exposition -> {args.out}")
    else:
        print(text, end="")
    return 0


def _load_stitched_dags(trace_path: str):
    """Load a JSONL trace and stitch it into causal repair DAGs."""
    from repro import obs
    from repro.obs import causal

    meta, spans, _metrics = obs.load_trace(trace_path)
    dags = causal.stitch(spans, clock=str(meta.get("clock", "wall")))
    return meta, dags


def _cmd_trace_critical_path(args: argparse.Namespace) -> int:
    from repro.analysis.render import render_critical_path

    _meta, dags = _load_stitched_dags(args.trace)
    if not dags:
        print("no stitched repairs found in trace", file=sys.stderr)
        return 1
    for dag in dags:
        print(render_critical_path(dag, width=args.width), end="")
    return 0


def _cmd_trace_conform(args: argparse.Namespace) -> int:
    from repro.obs import conformance

    meta, dags = _load_stitched_dags(args.trace)
    reports = conformance.check_trace(
        dags, meta=meta, tolerance=args.tolerance
    )
    print(conformance.render_reports(reports), end="")
    if not reports:
        return 1
    return 0 if all(r.passed for r in reports) else 1


def cmd_trace(args: argparse.Namespace) -> int:
    runner = {
        "record": _cmd_trace_record,
        "convert": _cmd_trace_convert,
        "timeline": _cmd_trace_timeline,
        "summary": _cmd_trace_summary,
        "prom": _cmd_trace_prom,
        "critical-path": _cmd_trace_critical_path,
        "conform": _cmd_trace_conform,
    }[args.trace_command]
    return runner(args)


# ----------------------------------------------------------------------
# top: live cluster dashboard
# ----------------------------------------------------------------------
async def _top_live(args: argparse.Namespace) -> int:
    import asyncio

    from repro.live.config import LiveConfig
    from repro.live.rpc import Address, RpcClientPool
    from repro.live.wire import MessageType
    from repro.obs import topview

    config = LiveConfig()
    pool = RpcClientPool(config)
    meta_addr = _parse_address(args.meta)
    color = not args.no_color
    iteration = 0
    collector_mode = bool(getattr(args, "collector", False))
    try:
        while True:
            meta_client = pool.get(meta_addr)
            incidents: "Optional[list]" = [] if args.json else None
            if collector_mode:
                # One RPC renders the whole fleet: the meta-hosted
                # collector already holds every node's pushed series,
                # health and histograms — no per-node polling.
                resp = await meta_client.call(
                    MessageType.COLLECTOR_QUERY, {"what": "top"}
                )
                fleet = dict(resp.payload.get("fleet", {}))  # type: ignore[arg-type]
                series = list(resp.payload.get("series", []))  # type: ignore[arg-type]
                now = float(resp.payload.get("time", 0.0))  # type: ignore[arg-type]
            else:
                health = await meta_client.call(MessageType.HEALTH, {})
                fleet = dict(health.payload.get("servers", {}))  # type: ignore[arg-type]
                listing = await meta_client.call(MessageType.LIST_SERVERS, {})
                addresses = dict(listing.payload.get("servers", {}))  # type: ignore[arg-type]
                stats = await meta_client.call(MessageType.STATS, {})
                series = list(stats.payload.get("series", []))  # type: ignore[arg-type]
                if args.json:
                    try:
                        resp = await meta_client.call(
                            MessageType.DOCTOR, {}, retries=0
                        )
                        incidents.extend(resp.payload.get("incidents", []))  # type: ignore[union-attr, arg-type]
                    except ReproError:
                        pass  # pre-doctor meta-servers have no DOCTOR
                for sid in sorted(addresses):
                    if not fleet.get(sid, {}).get("alive", False):
                        continue
                    try:
                        client = pool.get(Address.from_wire(addresses[sid]))
                        resp = await client.call(
                            MessageType.STATS, {}, retries=0
                        )
                    except ReproError:
                        continue  # peer died between HEALTH and STATS
                    series.extend(resp.payload.get("series", []))  # type: ignore[arg-type]
                    if args.json:
                        try:
                            doc = await client.call(
                                MessageType.DOCTOR, {}, retries=0
                            )
                            incidents.extend(doc.payload.get("incidents", []))  # type: ignore[union-attr, arg-type]
                        except ReproError:
                            pass
                now = float(health.payload.get("time", 0.0))  # type: ignore[arg-type]
            if args.json:
                print(
                    json.dumps(
                        topview.snapshot_dict(
                            fleet,
                            series,
                            now=now,
                            source=args.meta,
                            incidents=incidents,
                        ),
                        indent=2,
                        sort_keys=True,
                        default=str,
                    )
                )
                return 0
            frame = topview.render_top(
                fleet,
                series,
                now=now,
                source=args.meta,
                color=color,
            )
            if args.iterations != 1 and iteration > 0:
                print(topview.ANSI["clear"], end="")
            print(frame, end="", flush=True)
            iteration += 1
            if args.iterations and iteration >= args.iterations:
                return 0
            await asyncio.sleep(args.interval)
    finally:
        await pool.close()


def cmd_top(args: argparse.Namespace) -> int:
    import asyncio

    if args.once or args.json:
        args.iterations = 1
    if args.replay:
        from repro import obs
        from repro.obs import topview

        series = obs.load_series(args.replay)
        fleet = topview.fleet_from_series(series)
        if args.json:
            print(
                json.dumps(
                    topview.snapshot_dict(
                        fleet, series, source=f"replay:{args.replay}"
                    ),
                    indent=2,
                    sort_keys=True,
                    default=str,
                )
            )
            return 0
        print(
            topview.render_top(
                fleet,
                series,
                source=f"replay:{args.replay}",
                color=not args.no_color,
            ),
            end="",
        )
        return 0
    if not args.meta:
        print(
            "error: top requires --meta HOST:PORT (or --replay TRACE)",
            file=sys.stderr,
        )
        return 2
    try:
        return asyncio.run(_top_live(args))
    except KeyboardInterrupt:
        return 0


# ----------------------------------------------------------------------
# query: the collector's tiered retention over one RPC
# ----------------------------------------------------------------------
def _parse_label_filters(pairs: "List[str]") -> "dict":
    """``["node=S001", "class=repair"]`` -> label-filter dict."""
    labels: "dict" = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ReproError(
                f"bad --label {pair!r}; expected KEY=VALUE"
            )
        labels[key] = value
    return labels


def _render_query_series(series: "List[dict]") -> str:
    """Human rendering of COLLECTOR_QUERY results, raw or downsampled."""
    if not series:
        return "(no matching series)"
    lines: "List[str]" = []
    for snap in series:
        labels = snap.get("labels") or {}
        label_text = ",".join(
            f"{k}={v}" for k, v in sorted(labels.items())
        )
        title = f"{snap.get('name')}{{{label_text}}} [{snap.get('tier', 'raw')}]"
        lines.append(title)
        if "buckets" in snap:
            for bucket in snap["buckets"]:
                lines.append(
                    f"  t={bucket['t']:<12g} n={bucket['count']:<6d} "
                    f"mean={bucket['mean']:<12.6g} "
                    f"min={bucket['min']:<12.6g} max={bucket['max']:.6g}"
                )
        else:
            samples = snap.get("samples") or []
            for t, v in samples[-10:]:
                lines.append(f"  t={t:<12g} v={v:.6g}")
            if len(samples) > 10:
                lines.append(f"  ... {len(samples) - 10} earlier samples")
    return "\n".join(lines)


async def _query_live(args: argparse.Namespace) -> int:
    from repro.live.config import LiveConfig
    from repro.live.rpc import RpcClientPool
    from repro.live.wire import MessageType

    pool = RpcClientPool(LiveConfig())
    try:
        client = pool.get(_parse_address(args.meta))
        if args.prom:
            payload: "dict" = {"what": "prom"}
        elif args.fleet:
            payload = {"what": "fleet"}
        elif args.stats:
            payload = {"what": "stats"}
        else:
            payload = {
                "what": "query",
                "metric": args.metric,
                "labels": _parse_label_filters(args.label),
                "tier": args.tier,
            }
            if args.start is not None:
                payload["start"] = args.start
            if args.end is not None:
                payload["end"] = args.end
        resp = await client.call(MessageType.COLLECTOR_QUERY, payload)
        body = dict(resp.payload)
        if args.prom:
            print(str(body.get("text", "")), end="")
            return 0
        if args.json or args.fleet or args.stats:
            print(json.dumps(body, indent=2, sort_keys=True, default=str))
            return 0
        print(_render_query_series(list(body.get("series", []))))
        return 0
    finally:
        await pool.close()


def cmd_query(args: argparse.Namespace) -> int:
    import asyncio

    return asyncio.run(_query_live(args))


# ----------------------------------------------------------------------
# doctor: incident bundles (list / show / explain)
# ----------------------------------------------------------------------
async def _doctor_fetch(args: argparse.Namespace):
    """Poll the fleet's DOCTOR endpoints: (summaries, wanted bundle)."""
    from repro.live.config import LiveConfig
    from repro.live.rpc import Address, RpcClientPool
    from repro.live.wire import MessageType

    wanted = getattr(args, "incident_id", None)
    pool = RpcClientPool(LiveConfig())
    meta_addr = _parse_address(args.meta)
    summaries: "List[dict]" = []
    bundle: "Optional[dict]" = None
    try:
        targets = [meta_addr]
        try:
            listing = await pool.get(meta_addr).call(
                MessageType.LIST_SERVERS, {}
            )
            targets.extend(
                Address.from_wire(addr)
                for _sid, addr in sorted(
                    dict(listing.payload.get("servers", {})).items()  # type: ignore[arg-type]
                )
            )
        except ReproError:
            pass  # a lone chunkserver as --meta still answers DOCTOR
        for address in targets:
            client = pool.get(address)
            try:
                response = await client.call(MessageType.DOCTOR, {}, retries=0)
            except ReproError:
                continue  # dead peer or pre-doctor build
            summaries.extend(
                s
                for s in response.payload.get("incidents", [])  # type: ignore[union-attr]
                if isinstance(s, dict)
            )
            if wanted and bundle is None:
                try:
                    got = await client.call(
                        MessageType.DOCTOR,
                        {"incident_id": wanted},
                        retries=0,
                    )
                except ReproError:
                    continue
                found = got.payload.get("incident")
                if isinstance(found, dict):
                    bundle = found
    finally:
        await pool.close()
    return summaries, bundle


def cmd_doctor(args: argparse.Namespace) -> int:
    from repro.obs import doctor as doctor_mod

    incident_id = getattr(args, "incident_id", None)
    if args.dir:
        bundles = doctor_mod.IncidentStore.load_dir(args.dir)
        summaries = [doctor_mod.summarize(b) for b in bundles]
        bundle = (
            next((b for b in bundles if b.get("id") == incident_id), None)
            if incident_id
            else None
        )
    elif args.meta:
        import asyncio

        summaries, bundle = asyncio.run(_doctor_fetch(args))
    else:
        print(
            "error: doctor requires --meta HOST:PORT or --dir DIR",
            file=sys.stderr,
        )
        return 2
    if args.doctor_command == "list":
        summaries.sort(key=lambda s: float(s.get("t", 0.0)))
        if args.json:
            print(json.dumps(summaries, indent=2, sort_keys=True, default=str))
        else:
            print(doctor_mod.render_incident_list(summaries))
        return 0
    if bundle is None:
        print(f"error: incident {incident_id!r} not found", file=sys.stderr)
        return 1
    if args.doctor_command == "show":
        if args.json:
            print(json.dumps(bundle, indent=2, sort_keys=True, default=str))
        else:
            print(doctor_mod.render_incident(bundle))
        return 0
    print(doctor_mod.explain_incident(bundle))
    return 0


# ----------------------------------------------------------------------
# simulate / evaluate
# ----------------------------------------------------------------------
def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.core.single_repair import run_degraded_read, run_single_repair
    from repro.fs.cluster import StorageCluster

    code = make_code(args.code)
    rows = []
    for strategy in args.strategies.split(","):
        cluster = StorageCluster.smallsite(
            num_servers=args.servers,
            link_bandwidth=args.bandwidth,
            seed=args.seed,
        )
        stripe = cluster.write_stripe(code, args.chunk_size)
        runner = run_degraded_read if args.degraded else run_single_repair
        result = runner(
            cluster,
            stripe,
            lost_index=args.lost,
            strategy=strategy.strip(),
            num_slices=args.slices,
        )
        rows.append(result)
        print(result.summary())
    if len(rows) == 2:
        reduction = 1 - rows[1].duration / rows[0].duration
        print(f"reduction: {reduction:.1%}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import run_all

    for result in run_all(quick=not args.full):
        print()
        print(f"=== {result.experiment_id}: {result.title} ===")
        print(result.report)
    return 0


# ----------------------------------------------------------------------
# qos: multi-tenant traffic + SLO verdicts
# ----------------------------------------------------------------------
def _qos_emit(harness, verdicts, args: argparse.Namespace) -> int:
    """Shared tail of both qos modes: table, verdicts, prom, exit code."""
    print(harness.render_table())
    print()
    if not verdicts:
        print("error: no SLO verdicts emitted", file=sys.stderr)
        return 1
    for verdict in verdicts:
        print(verdict.render())
    if args.prom:
        from repro import obs

        harness.publish(obs.registry())
        text = obs.render_prometheus(
            obs.registry().snapshot(), namespace="repro"
        )
        with open(args.prom, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote Prometheus exposition -> {args.prom}")
    if args.strict and not all(v.passed for v in verdicts):
        return 1
    return 0


def cmd_qos(args: argparse.Namespace) -> int:
    from repro.qos.scenario import (
        ScenarioConfig,
        qos_contention_experiment,
        run_scenario,
    )

    if args.live:
        import asyncio

        from repro.qos.scenario import run_live_scenario

        harness, counters = asyncio.run(
            run_live_scenario(
                num_servers=max(6, args.servers),
                repair_rate_limit=float(parse_bandwidth(args.repair_rate))
                if args.repair_rate
                else 0.0,
                seed=args.seed,
            )
        )
        print(
            f"live qos: foreground={counters['foreground']} "
            f"degraded={counters['degraded']} "
            f"repaired={counters['repaired']}"
        )
        return _qos_emit(harness, harness.evaluate(), args)

    config = ScenarioConfig(
        num_servers=args.servers,
        num_stripes=args.stripes,
        chunk_size=args.chunk_size,
        requests_per_second=args.rate,
        num_users=args.users,
        zipf_exponent=args.zipf,
        duration=args.duration,
        kill_at=args.kill_at,
        kill_count=args.kill,
        repair_rate=args.repair_rate,
        repair_burst=args.repair_burst,
        repair_floor=args.repair_floor,
        weighting=args.weighting if args.weighting != "both" else "mppr",
        seed=args.seed,
    )
    if args.weighting == "both":
        result = qos_contention_experiment(config)
        print(result.report)
        return 0
    result = run_scenario(config)
    print(
        f"qos scenario: requests={result.requests_issued} "
        f"(degraded={result.degraded_issued}, "
        f"dropped={result.degraded_dropped}) "
        f"repairs={result.repairs_completed}"
    )
    return _qos_emit(result.harness, result.verdicts, args)


# ----------------------------------------------------------------------
# reliability: years-scale Monte Carlo durability
# ----------------------------------------------------------------------
def cmd_reliability(args: argparse.Namespace) -> int:
    from repro.reliability import (
        Hierarchy,
        ReliabilityConfig,
        ReliabilityEngine,
    )

    hierarchy = Hierarchy(
        racks=args.racks,
        machines_per_rack=args.machines_per_rack,
        disks_per_machine=args.disks_per_machine,
    )
    reports = []
    for scheme in args.scheme.split(","):
        config = ReliabilityConfig(
            code=args.code,
            scheme=scheme.strip(),
            placement=args.placement,
            scatter_width=args.scatter_width,
            num_stripes=args.stripes,
            chunk_size=args.chunk_size,
            hierarchy=hierarchy,
            disk_lifetime=args.disk_lifetime,
            net_bandwidth=args.bandwidth,
            repair_slots=args.repair_slots,
            burst_rate_per_rack_per_year=args.burst_rate,
            horizon_years=args.years,
            trials=args.trials,
            seed=args.seed,
        )
        report = ReliabilityEngine(config).run()
        reports.append(report)
        print(report.render(backlog_chart=args.backlog_chart))
        print()
    if len(reports) > 1:
        base = reports[0]
        base_mttdl = base.mttdl_years()[0]
        for other in reports[1:]:
            ratio = other.mttdl_years()[0] / base_mttdl
            print(
                f"MTTDL {other.scheme} vs {base.scheme}: {ratio:.2f}x "
                f"(repair/chunk {other.per_chunk_repair_hours * 3600:.1f}s "
                f"vs {base.per_chunk_repair_hours * 3600:.1f}s)"
            )
    return 0


# ----------------------------------------------------------------------
# matrix: scheme x code x placement durability sweep
# ----------------------------------------------------------------------
def _split_specs(text: str) -> "tuple":
    """Split a comma list without breaking ``rs(6,3)``-style specs."""
    out: "List[str]" = []
    depth = 0
    current: "List[str]" = []
    for ch in text:
        if ch == "," and depth == 0:
            token = "".join(current).strip()
            if token:
                out.append(token)
            current = []
            continue
        depth += ch == "("
        depth -= ch == ")"
        current.append(ch)
    token = "".join(current).strip()
    if token:
        out.append(token)
    return tuple(out)


def cmd_matrix(args: argparse.Namespace) -> int:
    from repro.redundancy import MatrixConfig, run_matrix

    config = MatrixConfig(
        schemes=_split_specs(args.schemes),
        codes=_split_specs(args.codes),
        placements=_split_specs(args.placements),
        num_stripes=args.stripes,
        trials=args.trials,
        horizon_years=args.years,
        scatter_width=args.scatter_width,
        validate_baseline=not args.no_validate,
        seed=args.seed,
    )
    result = run_matrix(config)
    experiment = result.to_experiment()
    print(experiment.report)
    if args.json:
        payload = {
            "experiment_id": experiment.experiment_id,
            "rows": result.rows(),
        }
        if result.validation is not None:
            v = result.validation
            payload["markov_validation"] = {
                "code": v.code,
                "simulated_mttdl_hours": v.simulated_mttdl_hours,
                "ci_low_hours": v.ci_low_hours,
                "ci_high_hours": v.ci_high_hours,
                "markov_mttdl_hours": v.markov_mttdl_hours,
                "inside_ci": v.inside_ci,
            }
        pathlib.Path(args.json).write_text(
            json.dumps(payload, indent=2), encoding="utf-8"
        )
        print(f"wrote {args.json}")
    if result.validation is not None and not result.validation.inside_ci:
        print("markov validation FAILED: closed form outside simulated CI")
        return 1
    return 0


def _redundancy_epilog() -> str:
    """Registered schemes, codes, and placements for --help epilogs."""
    from repro.fs.placement import available_placements
    from repro.redundancy.models import available_cost_models

    return (
        "registered schemes:    " + ", ".join(SCHEMES) + "\n"
        "registered codes:      " + ", ".join(available_cost_models())
        + "  (spec e.g. rs(6,3), msr(6,3,8))\n"
        "registered placements: " + ", ".join(available_placements())
    )


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Partial-Parallel-Repair for erasure-coded storage",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="library summary").set_defaults(fn=cmd_info)

    enc = sub.add_parser("encode", help="erasure-code a file into chunks")
    enc.add_argument("input")
    enc.add_argument("--code", default="rs(6,3)")
    enc.add_argument("--out-dir", default="stripe")
    enc.set_defaults(fn=cmd_encode)

    dec = sub.add_parser("decode", help="rebuild the file from chunks")
    dec.add_argument("manifest")
    dec.add_argument("--out", required=True)
    dec.set_defaults(fn=cmd_decode)

    cor = sub.add_parser("corrupt", help="delete a chunk (simulate erasure)")
    cor.add_argument("manifest")
    cor.add_argument("--chunk", type=int, required=True)
    cor.set_defaults(fn=cmd_corrupt)

    rep = sub.add_parser("repair", help="rebuild a missing chunk")
    rep.add_argument("manifest", nargs="?", default=None)
    rep.add_argument("--chunk", type=int, default=-1,
                     help="lost chunk index (--live: auto-detect if omitted)")
    rep.add_argument("--strategy", default="ppr", choices=STRATEGIES)
    rep.add_argument("--live", action="store_true",
                     help="repair over TCP against a live cluster")
    rep.add_argument("--meta", default=None,
                     help="live meta-server address HOST:PORT")
    rep.add_argument("--stripe-id", default=None,
                     help="live stripe id to repair")
    rep.add_argument("--slices", type=int, default=1,
                     help="--live ppr/chain: stream each hop as S "
                          "pipelined slices (1 = whole rows per hop)")
    rep.set_defaults(fn=cmd_repair)

    srv = sub.add_parser(
        "serve", help="run live TCP services (meta + chunk servers)"
    )
    srv.add_argument("--role", default="cluster",
                     choices=("cluster", "meta", "chunk"),
                     help="cluster: meta + N chunk servers in one process")
    srv.add_argument("--port", type=int, default=0,
                     help="listen port (0 = ephemeral)")
    srv.add_argument("--servers", type=int, default=6,
                     help="chunk servers in cluster mode")
    srv.add_argument("--meta", default=None,
                     help="meta address (chunk role)")
    srv.add_argument("--id", default="cs-00", help="server id (chunk role)")
    srv.add_argument("--stripe", default=None,
                     help="cluster mode: write a demo stripe, e.g. rs(4,2)")
    srv.add_argument("--kill-index", type=int, default=None,
                     help="cluster mode: kill the host of this chunk index")
    srv.add_argument("--payload-bytes", type=int, default=1152)
    srv.add_argument("--heartbeat-interval", type=float, default=2.0)
    srv.add_argument("--seed", type=int, default=2016)
    srv.add_argument("--collector", action="store_true",
                     help="push telemetry batches to the meta-hosted "
                          "collector on the heartbeat cadence "
                          "(cluster and chunk roles)")
    srv.set_defaults(fn=cmd_serve)

    simp = sub.add_parser("simulate", help="measure a repair on the simulator")
    simp.add_argument("--code", default="rs(6,3)")
    simp.add_argument("--chunk-size", default="64MiB")
    simp.add_argument("--strategies", default="star,ppr",
                      help="comma-separated, run in order")
    simp.add_argument("--servers", type=int, default=16)
    simp.add_argument("--bandwidth", default="1Gbps")
    simp.add_argument("--lost", type=int, default=0)
    simp.add_argument("--slices", type=int, default=1)
    simp.add_argument("--degraded", action="store_true",
                      help="measure a degraded read instead of a repair")
    simp.add_argument("--seed", type=int, default=2016)
    simp.set_defaults(fn=cmd_simulate)

    ev = sub.add_parser("evaluate", help="reproduce every table and figure")
    ev.add_argument("--full", action="store_true",
                    help="more repetitions / larger sweeps")
    ev.set_defaults(fn=cmd_evaluate)

    qos = sub.add_parser(
        "qos",
        help="multi-tenant QoS scenario: Zipf user traffic vs a repair "
             "storm, with token-bucket pacing and SLO verdicts",
    )
    qos.add_argument("--duration", type=float, default=120.0,
                     help="virtual seconds of user arrivals")
    qos.add_argument("--rate", type=float, default=60.0,
                     help="aggregate open-loop requests/second")
    qos.add_argument("--users", type=int, default=100_000,
                     help="logical users behind the Zipf popularity curve")
    qos.add_argument("--zipf", type=float, default=1.1,
                     help="Zipf exponent of user popularity")
    qos.add_argument("--servers", type=int, default=12)
    qos.add_argument("--stripes", type=int, default=12)
    qos.add_argument("--chunk-size", default="16MiB")
    qos.add_argument("--kill", type=int, default=2,
                     help="servers to crash mid-run (the repair storm)")
    qos.add_argument("--kill-at", type=float, default=20.0,
                     help="virtual second of the crash")
    qos.add_argument("--repair-rate", default="250Mbps",
                     help="per-link repair bandwidth cap ('' = no pacing)")
    qos.add_argument("--repair-burst", default="16MiB")
    qos.add_argument("--repair-floor", default="10Mbps",
                     help="repair is never starved below this rate")
    qos.add_argument("--weighting", default="mppr",
                     choices=("mppr", "uniform", "both"),
                     help="'both' prints the side-by-side comparison")
    qos.add_argument("--seed", type=int, default=2016)
    qos.add_argument("--live", action="store_true",
                     help="run the QoS smoke over the live TCP stack")
    qos.add_argument("--strict", action="store_true",
                     help="exit nonzero when any SLO verdict fails")
    qos.add_argument("--prom", default=None,
                     help="write QoS gauges as Prometheus text to FILE")
    qos.set_defaults(fn=cmd_qos)

    rel = sub.add_parser(
        "reliability",
        help="years-scale Monte Carlo durability: MTTDL, P(loss), nines",
        epilog=_redundancy_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    rel.add_argument("--code", default="rs(6,3)",
                     help="code or cost-model spec (see epilog)")
    rel.add_argument("--scheme", default="ppr",
                     help="comma-separated repair schemes (see epilog)")
    rel.add_argument("--placement", default="random",
                     help="stripe placement regime (see epilog)")
    rel.add_argument("--scatter-width", type=int, default=None,
                     help="copyset scatter-width target S "
                          "(default 2*(n-1))")
    rel.add_argument("--trials", type=int, default=10,
                     help="independent Monte Carlo trials")
    rel.add_argument("--years", type=float, default=10.0,
                     help="simulated horizon per trial")
    rel.add_argument("--stripes", type=int, default=10_000,
                     help="stripe population per trial")
    rel.add_argument("--chunk-size", default="64MiB")
    rel.add_argument("--racks", type=int, default=12)
    rel.add_argument("--machines-per-rack", type=int, default=4)
    rel.add_argument("--disks-per-machine", type=int, default=4)
    rel.add_argument("--disk-lifetime", default="exp:3y",
                     help="exp:MEAN or weibull:SCALE:SHAPE (h/d/y units)")
    rel.add_argument("--bandwidth", default="1Gbps",
                     help="network bandwidth for the repair-time model")
    rel.add_argument("--repair-slots", type=int, default=8,
                     help="concurrent disk reconstructions")
    rel.add_argument("--burst-rate", type=float, default=0.5,
                     help="rack-correlated bursts per rack-year")
    rel.add_argument("--seed", type=int, default=2016)
    rel.add_argument("--backlog-chart", action="store_true",
                     help="render the repair-queue depth chart")
    rel.set_defaults(fn=cmd_reliability)

    mat = sub.add_parser(
        "matrix",
        help="redundancy matrix: scheme x code x placement durability",
        epilog=_redundancy_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    mat.add_argument("--schemes", default=",".join(STRATEGIES),
        help="comma-separated repair schemes (see epilog)")
    mat.add_argument("--codes", default="rs(6,3),lrc(6,2,2),msr(6,3),"
                     "mbr(6,3)",
                     help="comma-separated code/cost-model specs")
    mat.add_argument("--placements", default="random,copyset,pss",
                     help="comma-separated placement regimes")
    mat.add_argument("--stripes", type=int, default=500,
                     help="stripe population per cell trial")
    mat.add_argument("--trials", type=int, default=4,
                     help="Monte Carlo trials per cell")
    mat.add_argument("--years", type=float, default=10.0,
                     help="simulated horizon per trial")
    mat.add_argument("--scatter-width", type=int, default=None,
                     help="copyset scatter-width target S")
    mat.add_argument("--seed", type=int, default=2016)
    mat.add_argument("--no-validate", action="store_true",
                     help="skip the Markov check of the rs/random cell")
    mat.add_argument("--json", default=None,
                     help="also write per-cell rows as JSON to FILE")
    mat.set_defaults(fn=cmd_matrix)

    tr = sub.add_parser(
        "trace", help="record and inspect observability traces"
    )
    trsub = tr.add_subparsers(dest="trace_command", required=True)

    trr = trsub.add_parser(
        "record",
        help="run one repair (sim by default, --live for TCP) "
             "and write a JSONL trace",
    )
    trr.add_argument("--out", default="trace.jsonl",
                     help="output JSONL path")
    trr.add_argument("--strategy", default="ppr", choices=STRATEGIES)
    trr.add_argument("--code", default="rs(6,3)")
    trr.add_argument("--chunk-size", default="64MiB")
    trr.add_argument("--servers", type=int, default=16)
    trr.add_argument("--bandwidth", default="1Gbps")
    trr.add_argument("--lost", type=int, default=0)
    trr.add_argument("--slices", type=int, default=1)
    trr.add_argument("--seed", type=int, default=2016)
    trr.add_argument("--sample-interval", type=float, default=0.05,
                     help="sim telemetry sampling interval, virtual seconds")
    trr.add_argument("--live", action="store_true",
                     help="record a live TCP repair instead of a sim one")
    trr.add_argument("--meta", default=None,
                     help="live meta-server address HOST:PORT")
    trr.add_argument("--stripe-id", default=None,
                     help="live stripe id to repair")
    trr.add_argument("--chunk", type=int, default=-1,
                     help="lost chunk index (--live: auto-detect if omitted)")
    trr.add_argument("--profile", default=None, metavar="FILE",
                     help="also write a collapsed-stack CPU profile "
                          "(sim: virtual-clock event attribution; "
                          "--live: wall-clock sampling) for flame graphs")
    trr.set_defaults(fn=cmd_trace)

    trc = trsub.add_parser(
        "convert", help="convert a JSONL trace to Chrome/Perfetto JSON"
    )
    trc.add_argument("trace", help="input JSONL trace")
    trc.add_argument("--out", default="trace.chrome.json")
    trc.set_defaults(fn=cmd_trace)

    trt = trsub.add_parser("timeline", help="print an ASCII timeline")
    trt.add_argument("trace", help="input JSONL trace")
    trt.add_argument("--width", type=int, default=60)
    trt.set_defaults(fn=cmd_trace)

    trs = trsub.add_parser(
        "summary", help="aggregate per-span-name durations and metrics"
    )
    trs.add_argument("trace", help="input JSONL trace")
    trs.set_defaults(fn=cmd_trace)

    trp = trsub.add_parser(
        "prom",
        help="render a trace's metrics in Prometheus text format",
    )
    trp.add_argument("trace", help="input JSONL trace")
    trp.add_argument("--out", default=None,
                     help="write to a file instead of stdout")
    trp.add_argument("--namespace", default="repro",
                     help="metric name prefix (default: repro)")
    trp.set_defaults(fn=cmd_trace)

    trcp = trsub.add_parser(
        "critical-path",
        help="stitch a trace into causal repair DAGs and print each "
             "observed critical path",
    )
    trcp.add_argument("trace", help="input JSONL trace")
    trcp.add_argument("--width", type=int, default=32,
                      help="attribution bar-chart width")
    trcp.set_defaults(fn=cmd_trace)

    trcf = trsub.add_parser(
        "conform",
        help="check observed critical paths against the paper's "
             "Eq. 1 / Theorem 1 predictions (exit 1 on violation)",
    )
    trcf.add_argument("trace", help="input JSONL trace")
    trcf.add_argument("--tolerance", type=float, default=0.25,
                      help="relative tolerance for timing checks")
    trcf.set_defaults(fn=cmd_trace)

    top = sub.add_parser(
        "top",
        help="live cluster dashboard: poll STATS/HEALTH and render "
             "an ANSI fleet view (or replay a recorded trace)",
    )
    top.add_argument("--meta", default=None,
                     help="live meta-server address HOST:PORT")
    top.add_argument("--replay", default=None,
                     help="render one frame from a recorded JSONL trace")
    top.add_argument("--interval", type=float, default=1.0,
                     help="refresh period, seconds")
    top.add_argument("--iterations", type=int, default=0,
                     help="number of frames (0 = until interrupted)")
    top.add_argument("--no-color", action="store_true",
                     help="plain ASCII output (no ANSI escapes)")
    top.add_argument("--once", action="store_true",
                     help="render a single frame and exit")
    top.add_argument("--json", action="store_true",
                     help="emit one machine-readable JSON snapshot "
                          "(fleet, series, incidents) and exit; "
                          "implies --once")
    top.add_argument("--collector", action="store_true",
                     help="render the fleet from the meta-hosted "
                          "telemetry collector in a single "
                          "COLLECTOR_QUERY RPC (no per-node polling; "
                          "nodes must run with collector_enabled)")
    top.set_defaults(fn=cmd_top)

    qry = sub.add_parser(
        "query",
        help="query the fleet telemetry collector: per-series windows "
             "by retention tier, fleet rollups, Prometheus exposition",
    )
    qry.add_argument("--meta", required=True,
                     help="live meta-server address HOST:PORT")
    qry.add_argument("--metric", default=None,
                     help="exact metric name (default: all)")
    qry.add_argument("--label", action="append", default=[],
                     metavar="KEY=VALUE",
                     help="label filter, repeatable (subset match)")
    qry.add_argument("--tier", default="raw",
                     help="retention tier: raw, 10s or 60s")
    qry.add_argument("--start", type=float, default=None,
                     help="window start (inclusive, epoch seconds)")
    qry.add_argument("--end", type=float, default=None,
                     help="window end (inclusive, epoch seconds)")
    qry.add_argument("--fleet", action="store_true",
                     help="cross-node rollups + merged histograms (JSON)")
    qry.add_argument("--stats", action="store_true",
                     help="collector ingest/retention counters (JSON)")
    qry.add_argument("--prom", action="store_true",
                     help="Prometheus federation-style exposition of "
                          "the whole fleet")
    qry.add_argument("--json", action="store_true",
                     help="emit raw JSON instead of rendered text")
    qry.set_defaults(fn=cmd_query)

    doc = sub.add_parser(
        "doctor",
        help="incident bundles from the fleet's anomaly detectors: "
             "list, show, explain",
    )
    docsub = doc.add_subparsers(dest="doctor_command", required=True)
    for name, doc_help, takes_id in (
        ("list", "one-line summary of every retained incident", False),
        ("show", "full rendering of one incident bundle", True),
        ("explain", "plain-English diagnosis of one incident", True),
    ):
        docp = docsub.add_parser(name, help=doc_help)
        if takes_id:
            docp.add_argument("incident_id", help="incident id to inspect")
        docp.add_argument("--meta", default=None,
                          help="poll a live fleet's DOCTOR endpoints "
                               "via this meta-server HOST:PORT")
        docp.add_argument("--dir", default=None,
                          help="read incident-*.json bundles from a "
                               "directory instead (LiveConfig.incident_dir)")
        docp.add_argument("--json", action="store_true",
                          help="emit JSON instead of rendered text")
        docp.set_defaults(fn=cmd_doctor)
    return parser


def main(argv: "Optional[List[str]]" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
