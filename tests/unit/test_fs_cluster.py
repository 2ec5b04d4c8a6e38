"""StorageCluster construction, stripe writes, failures."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, StorageError
from repro.codes import ReedSolomonCode
from repro.fs.cluster import StorageCluster
from repro.util.units import MIB


def test_smallsite_preset():
    cluster = StorageCluster.smallsite()
    assert len(cluster.server_ids) == 16
    # 1 Gbps access links.
    link = cluster.topology.egress[cluster.server_ids[0]]
    assert link.capacity == pytest.approx(125e6)


def test_bigsite_preset():
    cluster = StorageCluster.bigsite()
    assert len(cluster.server_ids) == 85
    link = cluster.topology.egress[cluster.server_ids[0]]
    assert link.capacity == pytest.approx(175e6)


def test_write_stripe_places_n_chunks():
    cluster = StorageCluster.smallsite()
    code = ReedSolomonCode(6, 3)
    stripe = cluster.write_stripe(code, "64MiB")
    assert len(stripe.chunk_ids) == 9
    hosts = {
        cluster.metaserver.locate_chunk(cid) for cid in stripe.chunk_ids
    }
    assert len(hosts) == 9  # all on distinct servers
    assert stripe.chunk_size == 64 * MIB


def test_written_chunks_are_encodings(rng):
    cluster = StorageCluster.smallsite()
    code = ReedSolomonCode(4, 2)
    data = rng.integers(
        0, 256, size=(4, cluster.config.payload_bytes), dtype=np.uint8
    )
    stripe = cluster.write_stripe(code, "8MiB", data=data)
    encoded = code.encode(data)
    for i, cid in enumerate(stripe.chunk_ids):
        host = cluster.metaserver.locate_chunk(cid)
        chunk = cluster.chunk_server(host).get_chunk(cid)
        assert np.array_equal(chunk.payload, encoded[i])
        assert np.array_equal(cluster.truth_payload(cid), encoded[i])


def test_stored_payload_and_truth_share_one_frozen_buffer():
    cluster = StorageCluster.smallsite()
    code = ReedSolomonCode(4, 2)
    stripe = cluster.write_stripe(code, "8MiB")
    for cid in stripe.chunk_ids:
        host = cluster.metaserver.locate_chunk(cid)
        stored = cluster.chunk_server(host).get_chunk(cid).payload
        truth = cluster.truth_payload(cid)
        assert np.shares_memory(stored, truth)
        for view in (stored, truth):
            with pytest.raises(ValueError):
                view[0] ^= 1
            with pytest.raises(ValueError):
                np.bitwise_xor(view, 1, out=view)


def test_explicit_hosts():
    cluster = StorageCluster.smallsite()
    code = ReedSolomonCode(4, 2)
    hosts = cluster.server_ids[:6]
    stripe = cluster.write_stripe(code, "8MiB", hosts=hosts)
    for cid, host in zip(stripe.chunk_ids, hosts):
        assert cluster.metaserver.locate_chunk(cid) == host


def test_wrong_host_count_rejected():
    cluster = StorageCluster.smallsite()
    with pytest.raises(ConfigurationError):
        cluster.write_stripe(
            ReedSolomonCode(4, 2), "8MiB", hosts=cluster.server_ids[:3]
        )


def test_kill_server_makes_chunks_unavailable():
    cluster = StorageCluster.smallsite()
    stripe = cluster.write_stripe(ReedSolomonCode(6, 3), "64MiB")
    victim = cluster.metaserver.locate_chunk(stripe.chunk_ids[0])
    lost = cluster.kill_server(victim)
    assert stripe.chunk_ids[0] in lost
    assert cluster.metaserver.locate_chunk(stripe.chunk_ids[0]) is None
    assert victim not in cluster.alive_servers()


def test_kill_twice_is_idempotent():
    cluster = StorageCluster.smallsite()
    cluster.write_stripe(ReedSolomonCode(6, 3), "64MiB")
    victim = cluster.server_ids[0]
    cluster.kill_server(victim)
    assert cluster.kill_server(victim) == []


def test_unknown_node_rejected():
    cluster = StorageCluster.smallsite()
    with pytest.raises(StorageError):
        cluster.node("nope")
    with pytest.raises(StorageError):
        cluster.chunk_server("C01")  # clients are not chunk servers


def test_stripe_ids_unique():
    cluster = StorageCluster.smallsite()
    code = ReedSolomonCode(4, 2)
    a = cluster.write_stripe(code, "8MiB")
    b = cluster.write_stripe(code, "8MiB")
    assert a.stripe_id != b.stripe_id
    assert not set(a.chunk_ids) & set(b.chunk_ids)


def test_payload_must_divide_code_rows():
    from repro.codes import RotatedReedSolomonCode

    cluster = StorageCluster.smallsite(payload_bytes=1001)
    with pytest.raises(ConfigurationError):
        cluster.write_stripe(RotatedReedSolomonCode(4, 2, r=4), "8MiB")


def test_fat_tree_cluster():
    cluster = StorageCluster.smallsite(oversubscription=4.0)
    from repro.sim.topology import FatTreeTopology

    assert isinstance(cluster.topology, FatTreeTopology)
