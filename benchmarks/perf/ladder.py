"""The per-layer ladder: one direct timed call per rung.

Each rung calls a layer's public function on seeded inputs, repeats it
``REPEATS`` times and reports the median.  The ``calib.*`` rungs measure
the machine, so that two boxes compare ratios to memcpy and to a bare
loopback stream rather than raw numbers.
"""

from __future__ import annotations

import asyncio
import time
from typing import Awaitable, Callable, Dict

import numpy as np

from repro.codes.registry import make_code
from repro.fs.messages import compute_partial
from repro.galois.vector import addmul, xor_into
from repro.live import wire
from repro.live.chunkserver import LiveChunkServer
from repro.live.coordinator import LiveCoordinator
from repro.live.metaserver import LiveMetaServer
from repro.live.rpc import (
    InboundStream,
    RpcClient,
    RpcServer,
    StreamInbox,
    StreamSender,
)
from repro.live.wire import Frame, MessageType
from repro.repair.executor import execute_plan
from repro.repair.plan import build_plan
from repro.sim.events import Simulation
from repro.sim.network import FlowNetwork
from repro.sim.topology import FatTreeTopology
from repro.util.rng import derive_rng
from repro.util.units import MB

from benchmarks.perf.harness import median, random_bytes
from benchmarks.perf.workloads import (
    LARGE_CHUNK,
    SMALL_CHUNK,
    SPEC,
    WRITE_CHUNK,
    SimStorm,
    live_config,
)

_now = time.perf_counter

REPEATS = 7
#: Calls per repeat of a microsecond-scale rung.
SMALL_CALLS = 200
STREAM_SLICES = 16
STREAM_FRAME = 1024
STREAM_FRAMES = 1024
NOOP_EVENTS = 50_000
FAIRSHARE_FLOWS = 250


def timed(fn: "Callable[[], object]", calls: int = 1) -> float:
    """Median seconds per call over ``REPEATS`` repeats of ``calls`` calls."""
    samples = []
    for _ in range(REPEATS):
        start = _now()
        for _ in range(calls):
            fn()
        samples.append((_now() - start) / calls)
    return median(samples)


async def timed_async(
    fn: "Callable[[], Awaitable[object]]", calls: int = 1
) -> float:
    samples = []
    for _ in range(REPEATS):
        start = _now()
        for _ in range(calls):
            await fn()
        samples.append((_now() - start) / calls)
    return median(samples)


def run_ladder(seed: int) -> "Dict[str, float]":
    out = compute_rungs(seed)
    out.update(sim_rungs(seed))
    out.update(asyncio.run(live_rungs(seed)))
    return out


# ----------------------------------------------------------------------
# galois / codes / repair / fs / wire: plain function calls
# ----------------------------------------------------------------------
def compute_rungs(seed: int) -> "Dict[str, float]":
    rng = derive_rng(seed, "ladder/compute")
    large = random_bytes(rng, LARGE_CHUNK)
    small = random_bytes(rng, SMALL_CHUNK)
    acc_large, acc_small = np.zeros_like(large), np.zeros_like(small)
    out = {
        "calib.memcpy_mb_per_s":
            LARGE_CHUNK / MB / timed(lambda: np.copyto(acc_large, large), 10),
        "galois.addmul_mb_per_s":
            LARGE_CHUNK / MB / timed(lambda: addmul(acc_large, 87, large)),
        "galois.addmul_64k_mb_per_s":
            SMALL_CHUNK / MB / timed(lambda: addmul(acc_small, 87, small), 50),
        "galois.xor_mb_per_s":
            LARGE_CHUNK / MB / timed(lambda: xor_into(acc_large, large), 10),
    }

    code = make_code(SPEC)
    user = random_bytes(rng, code.k, WRITE_CHUNK)
    out["codes.encode_mb_per_s"] = user.nbytes / MB / timed(
        lambda: code.encode(user)
    )
    alive = list(range(1, code.n))
    out["codes.recipe_us"] = 1e6 * timed(
        lambda: code.repair_recipe(0, alive), SMALL_CALLS
    )
    recipe = code.repair_recipe(0, alive)
    encoded = code.encode(random_bytes(rng, code.k, LARGE_CHUNK))
    helpers = {i: encoded[i] for i in recipe.helpers}
    out["codes.decode_mb_per_s"] = LARGE_CHUNK / MB / timed(
        lambda: recipe.execute(helpers)
    )
    out["repair.build_plan_us"] = 1e6 * timed(
        lambda: [build_plan(s, recipe) for s in ("ppr", "chain", "star")],
        SMALL_CALLS,
    ) / 3
    plan = build_plan("ppr", recipe)
    rebuilt = execute_plan(plan, helpers)
    if not np.array_equal(rebuilt, encoded[0]):
        raise RuntimeError("ladder: execute_plan rebuilt the wrong bytes")
    out["repair.execute_plan_mb_per_s"] = LARGE_CHUNK / MB / timed(
        lambda: execute_plan(plan, helpers)
    )
    entries = recipe.term_for(recipe.helpers[0]).entries
    out["fs.compute_partial_mb_per_s"] = LARGE_CHUNK / MB / timed(
        lambda: compute_partial(entries, recipe.rows, encoded[1])
    )

    put = Frame(
        mtype=MessageType.PUT_CHUNK,
        request_id=1,
        payload={"chunk_id": "s/chunk-00", "stripe_id": "s", "index": 0},
        buffers={0: large},
    )
    data = Frame(
        mtype=MessageType.STREAM_DATA,
        request_id=2,
        payload={"stream_id": "live-s-0-a1-1/cs-01", "slice_index": 3,
                 "offset": 3 * STREAM_FRAME},
        buffers={0: small[:STREAM_FRAME]},
    )

    def codec_seconds(frame: Frame, calls: int) -> "tuple[float, float]":
        body = wire.encode_frame(frame)[wire.HEADER.size:]
        return (
            timed(lambda: wire.encode_frame(frame), calls),
            timed(
                lambda: wire.decode_body(
                    int(frame.mtype), frame.flags, frame.request_id, body
                ),
                calls,
            ),
        )

    encode, decode = codec_seconds(put, 5)
    out["wire.encode_large_mb_per_s"] = LARGE_CHUNK / MB / encode
    out["wire.decode_large_mb_per_s"] = LARGE_CHUNK / MB / decode
    encode, decode = codec_seconds(data, SMALL_CALLS)
    out["wire.encode_small_us"] = encode * 1e6
    out["wire.decode_small_us"] = decode * 1e6
    return out


# ----------------------------------------------------------------------
# sim: the event loop alone, and the fair-share solver alone
# ----------------------------------------------------------------------
def sim_rungs(seed: int) -> "Dict[str, float]":
    def noop() -> None:
        pass

    def event_loop() -> None:
        sim = Simulation()
        for i in range(NOOP_EVENTS):
            sim.schedule(i * 1e-6, noop)
        sim.run()

    shape = SimStorm.shape
    servers = [f"S{i:03d}" for i in range(shape.servers)]
    rng = derive_rng(seed, "ladder/flows")
    ends = rng.integers(0, shape.servers, size=(FAIRSHARE_FLOWS, 2))
    starts = rng.uniform(0.0, 1.0, size=FAIRSHARE_FLOWS)
    flows = [
        (float(at), servers[src], servers[dst])
        for at, (src, dst) in zip(starts, ends)
        if src != dst
    ]

    def fair_share() -> None:
        sim = Simulation()
        network = FlowNetwork(sim)
        topology = FatTreeTopology(servers, "1Gbps", 8, 2.0)
        for at, src, dst in flows:
            sim.schedule_at(
                at, network.start_flow, topology.path(src, dst),
                float(SimStorm.modeled_chunk),
            )
        sim.run()
        if network.completed_flows != len(flows):
            raise RuntimeError("ladder: fair-share rung lost a flow")

    return {
        "sim.noop_events_per_s": NOOP_EVENTS / timed(event_loop),
        "sim.fairshare_flows_per_s": len(flows) / timed(fair_share),
    }


# ----------------------------------------------------------------------
# rpc / metaserver: real sockets on loopback, nothing else running
# ----------------------------------------------------------------------
async def live_rungs(seed: int) -> "Dict[str, float]":
    config = live_config()
    rng = derive_rng(seed, "ladder/live")
    large = random_bytes(rng, LARGE_CHUNK)
    out: "Dict[str, float]" = {}

    # Bare asyncio stream, no framing: the machine's loopback goodput.
    async def sink(reader, writer) -> None:
        try:
            while True:
                await reader.readexactly(LARGE_CHUNK)
                writer.write(b"k")
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    bare = await asyncio.start_server(sink, config.host, 0)
    reader, writer = await asyncio.open_connection(
        *bare.sockets[0].getsockname()[:2]
    )

    async def push() -> None:
        writer.write(large.data)
        await writer.drain()
        await reader.readexactly(1)

    out["calib.loopback_mb_per_s"] = LARGE_CHUNK / MB / await timed_async(push)
    writer.close()
    bare.close()
    await bare.wait_closed()

    # One chunk server, one client: round trip and whole-buffer goodput.
    server = LiveChunkServer("rung", None, config)
    client = RpcClient(await server.start(), config)
    await client.call(
        MessageType.PUT_CHUNK,
        {"chunk_id": "c", "stripe_id": "s", "index": 0},
        buffers={0: large},
    )
    out["rpc.ping_rtt_us"] = 1e6 * await timed_async(
        lambda: client.call(MessageType.PING, {}), SMALL_CALLS
    )

    async def get() -> None:
        response = await client.call(MessageType.GET_CHUNK, {"chunk_id": "c"})
        if response.buffers[0].nbytes != LARGE_CHUNK:
            raise RuntimeError("ladder: GET_CHUNK returned a short chunk")

    out["rpc.call_large_mb_per_s"] = LARGE_CHUNK / MB / await timed_async(get)
    await client.close()
    await server.stop()

    # One StreamSender -> StreamInbox hop with a consumer that only
    # drains: the stream machinery without GF work.
    hop = RpcServer("hop", config)
    inbox = StreamInbox(config)
    consumers = set()

    async def consume(stream: InboundStream) -> None:
        while await stream.next_frame() is not None:
            pass
        stream.consumed.set()
        inbox.discard(stream.stream_id)

    async def on_begin(frame: Frame) -> "Dict[str, object]":
        stream = inbox.open(str(frame.payload["stream_id"]), frame.payload)
        task = asyncio.create_task(consume(stream))
        consumers.add(task)
        task.add_done_callback(consumers.discard)
        return {}

    async def on_data(frame: Frame) -> "Dict[str, object]":
        stream = inbox.get(str(frame.payload["stream_id"]))
        await stream.deliver(frame, timeout=config.partial_wait_timeout)
        return {}

    async def on_end(frame: Frame) -> "Dict[str, object]":
        stream = inbox.get(str(frame.payload["stream_id"]))
        stream.finish()
        await stream.consumed.wait()
        return {}

    hop.register(MessageType.STREAM_BEGIN, on_begin)
    hop.register(MessageType.STREAM_DATA, on_data)
    hop.register(MessageType.STREAM_END, on_end)
    client = RpcClient(await hop.start(), config)
    sent = 0

    async def stream(frame_bytes: int, frames: int) -> None:
        nonlocal sent
        sent += 1
        sender = StreamSender(client, f"rung-{sent}", config)
        await sender.begin({"repair_id": "rung", "sender": "rung"})
        for index in range(frames):
            lo = index * frame_bytes
            await sender.data(
                {"slice_index": index, "offset": lo},
                {0: large[lo:lo + frame_bytes]},
            )
        await sender.end({})

    out["rpc.stream_mb_per_s"] = LARGE_CHUNK / MB / await timed_async(
        lambda: stream(LARGE_CHUNK // STREAM_SLICES, STREAM_SLICES)
    )
    out["rpc.stream_frames_per_s"] = STREAM_FRAMES / await timed_async(
        lambda: stream(STREAM_FRAME, STREAM_FRAMES)
    )
    await client.close()
    await hop.close()

    # LOCATE_STRIPE against a real meta-server holding one stripe.
    meta = LiveMetaServer(config)
    coordinator = LiveCoordinator(await meta.start(), config)
    control = RpcClient(meta.address, config)
    code = make_code(SPEC)
    chunk_ids = [f"s/chunk-{i:02d}" for i in range(code.n)]
    hosts = {cid: f"cs-{i:02d}" for i, cid in enumerate(chunk_ids)}
    for server_id in hosts.values():
        await control.call(
            MessageType.HELLO,
            {"server_id": server_id, "address": [config.host, 1]},
        )
    await control.call(
        MessageType.REGISTER_STRIPE,
        {"stripe_id": "s", "spec": SPEC, "chunk_ids": chunk_ids,
         "chunk_size": float(LARGE_CHUNK), "payload_len": LARGE_CHUNK,
         "hosts": hosts},
    )
    view = await coordinator.locate_stripe("s")
    if len(view.hosts) != code.n:
        raise RuntimeError("ladder: LOCATE_STRIPE lost a chunk location")
    out["metaserver.locate_us"] = 1e6 * await timed_async(
        lambda: coordinator.locate_stripe("s"), SMALL_CALLS
    )
    await control.close()
    await coordinator.close()
    await meta.stop()
    return out
