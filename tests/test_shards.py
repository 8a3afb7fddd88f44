"""Tests for the multi-process sharded execution backend (repro.serving.shards).

The conformance suite (``test_conformance.py``) pins sharded logits and
op counters against every other execution path; this file covers the
pool mechanics themselves: readiness, key shipping/drop, row and
output-channel splitting, error propagation, shutdown, and the stream
fabric's writer thread.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro.bfv import BfvParameters
from repro.core.noise_model import Schedule
from repro.nn.plaintext import PlaintextRunner
from repro.serving import (
    DEMO_RESCALE_BITS,
    ClientSession,
    LoopbackTransport,
    Message,
    ModelRegistry,
    ServingEngine,
    ShardError,
    ShardExecutor,
    ShardPool,
    bind_listener,
    demo_image,
    demo_network,
    demo_weights,
    encode_message,
)
from repro.serving.wire import recv_frame, send_frame

SCHEDULE = Schedule.INPUT_ALIGNED


@pytest.fixture(scope="module")
def shard_params() -> BfvParameters:
    return BfvParameters.create(
        n=256, plain_bits=20, coeff_bits=100, a_dcmp_bits=16,
        require_security=False,
    )


@pytest.fixture(scope="module")
def artifact_dir(shard_params, tmp_path_factory):
    """A one-model artifact zoo both the registry and the pools load."""
    from repro.artifacts import save_artifact, update_manifest

    entry = ModelRegistry().register(
        "demo", demo_network(), demo_weights(), shard_params,
        schedule=SCHEDULE, rescale_bits=DEMO_RESCALE_BITS,
    )
    directory = tmp_path_factory.mktemp("shard-zoo")
    save_artifact(entry, directory / "demo.rpa")
    update_manifest(directory, entry, "demo.rpa")
    return directory


@pytest.fixture(scope="module")
def registry(artifact_dir):
    from repro.artifacts import load_zoo

    return load_zoo(artifact_dir)


@pytest.fixture(scope="module")
def pool(artifact_dir):
    with ShardPool(artifact_dir, workers=2) as pool:
        yield pool


@pytest.fixture(scope="module")
def plaintext_logits():
    runner = PlaintextRunner(
        demo_network(), demo_weights(), rescale_bits=DEMO_RESCALE_BITS
    )
    return lambda image: runner.run(image)


class TestPoolLifecycle:
    def test_workers_report_ready_with_models(self, pool):
        assert pool.alive_workers() == 2
        assert pool.model_names == ["demo"]
        reply = pool.ping(1)[0]
        assert reply.meta["status"] == "ok"
        assert reply.meta["models"] == ["demo"]
        # Workers are real separate processes, not threads.
        import os

        assert reply.meta["pid"] != os.getpid()

    def test_missing_artifact_dir_fails_startup(self, tmp_path):
        with pytest.raises(ShardError, match="failed"):
            ShardPool(tmp_path / "nowhere", workers=1, start_timeout_s=30).start()

    def test_stop_terminates_workers(self, artifact_dir):
        pool = ShardPool(artifact_dir, workers=1).start()
        assert pool.alive_workers() == 1
        pool.stop()
        assert pool.alive_workers() == 0
        with pytest.raises(ShardError, match="not running"):
            pool.execute([Message("ping", {})])

    def test_dead_worker_is_respawned_and_pool_keeps_serving(self, artifact_dir):
        """Supervision: a SIGKILLed worker is respawned, requests survive.

        The monitor thread must notice the corpse, fork a replacement
        incarnation from the same artifact dir, and keep the pool
        serving -- the request issued right after the kill lands on the
        survivor or the respawn, never on an error.
        """
        import os
        import signal
        import time

        pool = ShardPool(
            artifact_dir, workers=2, respawn_backoff_s=0.05,
        ).start()
        try:
            victim = pool._slots[0].process
            os.kill(victim.pid, signal.SIGKILL)
            # The pool answers even while one worker is down ...
            assert pool.ping(1)[0].meta["status"] == "ok"
            # ... and the supervisor restores full strength.
            deadline = time.monotonic() + 15.0
            while pool.alive_workers() < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.alive_workers() == 2
            assert pool.respawns_total >= 1
            assert pool.available_workers() == 2
            replies = pool.ping(4)
            assert all(r.meta["status"] == "ok" for r in replies)
            incarnations = {
                (r.meta["worker"], r.meta["incarnation"]) for r in replies
            }
            assert any(inc > 0 for _w, inc in incarnations)
        finally:
            pool.stop()

    def test_worker_death_during_startup_raises_fast_without_leaks(
        self, artifact_dir
    ):
        """Satellite: a pre-readiness death aborts start() immediately.

        Without early dead-sentinel detection, start() would sit out the
        full start_timeout_s and could leave the live sibling running
        after the raise.
        """
        import time

        from repro.serving import WorkerFaults

        pool = ShardPool(
            artifact_dir, workers=2, start_timeout_s=60.0,
            fault_plan=WorkerFaults(startup_crash_worker=0),
        )
        start = time.monotonic()
        with pytest.raises(ShardError, match="died during startup"):
            pool.start()
        assert time.monotonic() - start < 30  # never waits out the timeout
        assert pool.alive_workers() == 0  # the sibling was cleaned up too

    def test_worker_error_propagates_without_killing_worker(self, pool):
        with pytest.raises(ShardError, match="no model"):
            pool.execute(
                [
                    Message(
                        "task",
                        {
                            "model": "nope", "layer": "conv1",
                            "key_ids": [], "cts_per_request": [],
                        },
                    )
                ]
            )
        # The worker survived the bad task and still answers.
        assert pool.ping(1)[0].meta["status"] == "ok"


class TestShardedServing:
    def test_sharded_logits_match_plaintext(
        self, registry, shard_params, pool, plaintext_logits
    ):
        engine = ServingEngine(
            registry, max_batch=1, executor=ShardExecutor(pool)
        )
        session = ClientSession(
            demo_network(), shard_params, LoopbackTransport(engine), seed=3
        )
        session.connect("demo")
        for seed in (0, 1):
            image = demo_image(seed)
            assert np.array_equal(
                session.infer(image).logits, plaintext_logits(image)
            )
        session.close()

    def test_concurrent_batched_sharded_sessions(
        self, registry, shard_params, pool, plaintext_logits
    ):
        """Cross-client batching + row-splitting across 2 workers."""
        clients = 4
        engine = ServingEngine(
            registry, max_batch=clients, batch_window_s=0.05,
            executor=ShardExecutor(pool),
        )
        transport = LoopbackTransport(engine)
        sessions = []
        for i in range(clients):
            session = ClientSession(
                demo_network(), shard_params, transport, seed=20 + i
            )
            session.connect("demo")
            sessions.append(session)
        images = [demo_image(100 + i) for i in range(clients)]
        results = [None] * clients
        errors = []

        def run(i):
            try:
                results[i] = sessions[i].infer(images[i])
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for i in range(clients):
            assert np.array_equal(
                results[i].logits, plaintext_logits(images[i])
            ), i

    def test_oc_split_bit_identical(
        self, registry, shard_params, pool, plaintext_logits
    ):
        """Splitting a conv by output channels must not change outputs.

        conv1 has co=4, so oc_split_min_co=2 forces the per-channel
        partition across both workers for a single request.
        """
        engine = ServingEngine(
            registry, max_batch=1,
            executor=ShardExecutor(pool, oc_split_min_co=2),
        )
        session = ClientSession(
            demo_network(), shard_params, LoopbackTransport(engine), seed=5
        )
        session.connect("demo")
        image = demo_image(7)
        assert np.array_equal(session.infer(image).logits, plaintext_logits(image))
        session.close()

    def test_session_close_drops_worker_key_cache(self, registry, shard_params, artifact_dir):
        with ShardPool(artifact_dir, workers=1) as pool:
            engine = ServingEngine(
                registry, max_batch=1, executor=ShardExecutor(pool)
            )
            session = ClientSession(
                demo_network(), shard_params, LoopbackTransport(engine), seed=9
            )
            session.connect("demo")
            session.infer(demo_image(0))
            # Key ids on the wire are scoped per executor+upload; the
            # session id is embedded in the middle.
            marker = f":{session.session_id}:"
            cached = pool.ping(1)[0].meta["cached_keys"]
            assert any(marker in key_id for key_id in cached), cached
            session.close()
            # The drop is queued on the worker's stream ahead of the
            # next ping, so one ping observes it.
            cached = pool.ping(1)[0].meta["cached_keys"]
            assert not any(marker in key_id for key_id in cached), cached

    def test_mismatched_registry_rejected(self, shard_params, pool):
        """A model the workers did not load must be rejected at key upload."""
        registry = ModelRegistry()
        registry.register(
            "other", demo_network(), demo_weights(seed=5), shard_params,
            schedule=SCHEDULE, rescale_bits=DEMO_RESCALE_BITS,
        )
        engine = ServingEngine(
            registry, max_batch=1, executor=ShardExecutor(pool)
        )
        session = ClientSession(
            demo_network(), shard_params, LoopbackTransport(engine), seed=11
        )
        from repro.serving import ServingError

        with pytest.raises(ServingError, match="artifact"):
            session.connect("other")


class TestStreamFabric:
    """The one worker protocol: non-blocking sends and lazy key decode."""

    def test_worker_that_stops_reading_does_not_stall_the_pool(
        self, artifact_dir, shard_worker_fleet
    ):
        """Regression: no socket write happens under the pool lock.

        One endpoint answers the handshake and then never reads again; a
        real worker is its sibling.  A multi-MB task dispatched to the
        stuck slot fills the socket buffers, yet a concurrent task must
        still complete on the sibling: dispatch only enqueues onto the
        stuck connection's writer thread, so neither ``execute`` nor the
        sibling's reply handling ever waits on it.
        """
        listener = bind_listener("127.0.0.1", 0)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 16)
        release = threading.Event()

        def stuck_endpoint():
            conn, _ = listener.accept()
            with conn:
                recv_frame(conn)  # shard_hello
                send_frame(conn, encode_message(
                    Message("shard_ready", {"models": ["demo"]})
                ))
                release.wait(120.0)

        threading.Thread(target=stuck_endpoint, daemon=True).start()
        host, port = listener.getsockname()[:2]
        with shard_worker_fleet(artifact_dir, count=1) as servers:
            pool = ShardPool(
                None, workers=0,
                remote_endpoints=[f"tcp://{host}:{port}", servers[0].endpoint],
            ).start()
            try:
                big = Message("ping", {}, [bytes(16 << 20)])

                def dispatch_to_stuck_slot():
                    try:
                        pool.execute([big])
                    except ShardError:
                        pass  # failed out when the pool stops

                threading.Thread(
                    target=dispatch_to_stuck_slot, daemon=True
                ).start()
                deadline = time.monotonic() + 10.0
                while pool.tasks_dispatched < 1:
                    assert time.monotonic() < deadline, "task never dispatched"
                    time.sleep(0.01)
                sibling: dict = {}
                ping = threading.Thread(
                    target=lambda: sibling.update(reply=pool.ping(1)[0]),
                    daemon=True,
                )
                ping.start()
                ping.join(timeout=15.0)
                assert "reply" in sibling, (
                    "a worker that stopped reading stalled the whole pool"
                )
                assert sibling["reply"].meta["status"] == "ok"
            finally:
                # Close the stuck endpoint first: a send blocked on it
                # then fails instead of hanging the pool's shutdown.
                release.set()
                pool.stop()
                listener.close()

    def test_keys_ship_and_decode_only_for_tasks_that_name_them(
        self, registry, shard_params, artifact_dir, shard_worker_fleet,
        plaintext_logits, monkeypatch,
    ):
        """A session dropped before any task costs the worker nothing.

        Its keys are never shipped, so never decoded; a used session's
        keys are shipped once and decoded exactly once, however many
        layers run under them.
        """
        from repro.serving import shards

        decodes = []
        real_decode = shards.deserialize_galois_keys

        def counting_decode(blob, params):
            decodes.append(len(blob))
            return real_decode(blob, params)

        monkeypatch.setattr(shards, "deserialize_galois_keys", counting_decode)
        with shard_worker_fleet(artifact_dir, count=1) as servers:
            with ShardPool(
                None, workers=0, remote_endpoints=[servers[0].endpoint]
            ) as pool:
                engine = ServingEngine(
                    registry, max_batch=1, executor=ShardExecutor(pool)
                )
                unused = ClientSession(
                    demo_network(), shard_params, LoopbackTransport(engine),
                    seed=3,
                )
                unused.connect("demo")
                assert pool.ping(1)[0].meta["cached_keys"] == []
                unused.close()
                session = ClientSession(
                    demo_network(), shard_params, LoopbackTransport(engine),
                    seed=4,
                )
                session.connect("demo")
                image = demo_image(2)
                assert np.array_equal(
                    session.infer(image).logits, plaintext_logits(image)
                )
                marker = f":{session.session_id}:"
                cached = pool.ping(1)[0].meta["cached_keys"]
                assert len(cached) == 1 and marker in cached[0], cached
                session.close()
        # Three linear rounds ran under one session's keys.
        assert len(decodes) == 1


class TestOcRangePlanSlicing:
    """ConvPlan.execute(oc_range=...) is the primitive the split rides on."""

    @pytest.mark.parametrize("schedule", list(Schedule))
    def test_slices_concatenate_to_full_run(self, schedule, shard_params):
        from repro.bfv import BfvScheme
        from repro.scheduling import ConvPlan, encrypt_channels
        from repro.scheduling.conv2d import _infer_width

        rng = np.random.default_rng(0)
        server = BfvScheme(shard_params, seed=42)
        weights = rng.integers(-4, 5, (5, 2, 3, 3))
        plan = ConvPlan.compile(server, weights, schedule)
        client = BfvScheme(shard_params, seed=1)
        secret, public = client.keygen()
        keys = client.generate_galois_keys(secret, plan.rotation_steps)
        grid_w = _infer_width(shard_params.row_size)
        grids = np.zeros((2, grid_w, grid_w), dtype=np.int64)
        grids[:, :6, :6] = rng.integers(0, 8, (2, 6, 6))
        cts = encrypt_channels(server, grids, public)
        full = plan.execute(cts, keys)
        sliced = [
            ct
            for oc_range in ((0, 2), (2, 3), (3, 5))
            for ct in plan.execute(cts, keys, oc_range=oc_range)
        ]
        assert len(sliced) == len(full)
        for got, want in zip(sliced, full):
            assert np.array_equal(got.c0.data, want.c0.data)
            assert np.array_equal(got.c1.data, want.c1.data)

    def test_invalid_oc_range_rejected(self, shard_params):
        from repro.bfv import BfvScheme
        from repro.scheduling import ConvPlan

        server = BfvScheme(shard_params, seed=42)
        weights = np.ones((2, 1, 3, 3), dtype=np.int64)
        plan = ConvPlan.compile(server, weights, Schedule.INPUT_ALIGNED)
        with pytest.raises(ValueError, match="oc_range"):
            plan.execute([], None, oc_range=(0, 3))
