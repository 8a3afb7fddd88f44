"""Differential conformance suite: every execution path, one ground truth.

One seeded sweep runs the same demo model end-to-end through every
execution path the repo offers --

1. in-process :class:`GazelleProtocol` (the reference simulation),
2. the serving engine over :class:`LoopbackTransport` (full wire encoding),
3. the serving engine over a real TCP socket (threaded front end),
4. the serving engine behind the asyncio :class:`AsyncGateway`,
5. artifact warm-start (``.rpa`` -> memmapped plans) over loopback,
6. the multi-process sharded backend (``ShardPool`` + ``ShardExecutor``)
   over forked workers, each on its own socketpair,
7. the sharded backend over remote TCP workers
   (:class:`ShardWorkerServer` endpoints, the same stream protocol)

-- and asserts that all seven produce **bit-identical logits** and
**identical HE op counters**, under both dot-product schedules.  This is
the gate a new execution backend must pass before it can serve traffic:
if a refactor changes what is computed (not just where), this suite
fails loudly.

The NTT-backend dimension (``REPRO_NTT_NATIVE=0/1``) is covered twice:
the whole suite runs under both values in the CI matrix, and
``test_mixed_ntt_backends_agree`` pins numpy-backed shard workers
against the coordinator's backend in a single run (the two kernels are
bit-identical by contract).

The noise-budget regression (`TestNoiseRegression`) asserts the
post-inference invariant-noise budget on every path stays within the
Table III worst-case bound (same proxy convention as
``tests/test_linear_plans.py``), so a future batching/sharding change
that silently adds noise fails here instead of corrupting logits at
deployment scale.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from repro.bfv import BfvParameters
from repro.bfv.counters import counting
from repro.core.noise_model import (
    NoiseMode,
    Schedule,
    eta_mult,
    eta_rotate,
    fresh_noise,
)
from repro.core.ptune import ModelParams
from repro.nn.layers import ConvLayer
from repro.nn.plaintext import PlaintextRunner
from repro.protocol import GazelleProtocol
from repro.serving import (
    DEMO_RESCALE_BITS,
    AsyncGateway,
    ClientSession,
    LoopbackTransport,
    ServingEngine,
    ModelRegistry,
    ShardExecutor,
    ShardPool,
    SocketServer,
    SocketTransport,
    Tracer,
    demo_image,
    demo_network,
    demo_weights,
)

IMAGE_SEEDS = (0, 1)
ENGINE_SEED = 1234


@dataclass
class PathResult:
    logits: np.ndarray
    counters: tuple
    min_noise_budget: float


@pytest.fixture(scope="module", params=list(Schedule), ids=lambda s: s.value)
def env(request, tmp_path_factory, shard_worker_fleet):
    """Everything the paths share, compiled once per schedule."""
    schedule = request.param
    params = BfvParameters.create(
        n=256, plain_bits=20, coeff_bits=100, a_dcmp_bits=16,
        require_security=False,
    )
    registry = ModelRegistry()
    entry = registry.register(
        "demo", demo_network(), demo_weights(), params,
        schedule=schedule, rescale_bits=DEMO_RESCALE_BITS,
    )
    directory = tmp_path_factory.mktemp(f"conformance-{schedule.value}")
    from repro.artifacts import load_zoo, save_artifact, update_manifest

    save_artifact(entry, directory / "demo.rpa")
    update_manifest(directory, entry, "demo.rpa")
    artifact_registry = load_zoo(directory)
    pool = ShardPool(directory, workers=2).start()
    runner = PlaintextRunner(
        demo_network(), demo_weights(), rescale_bits=DEMO_RESCALE_BITS
    )
    with shard_worker_fleet(directory, count=2) as servers:
        remote_pool = ShardPool(
            None, workers=0,
            remote_endpoints=[server.endpoint for server in servers],
        ).start()
        yield SimpleNamespace(
            schedule=schedule,
            params=params,
            registry=registry,
            artifact_dir=directory,
            artifact_registry=artifact_registry,
            pool=pool,
            remote_pool=remote_pool,
            plaintext=runner,
        )
        remote_pool.stop()
    pool.stop()


def _counters_tuple(delta):
    return (
        delta.he_mult, delta.he_add, delta.he_rotate,
        delta.ntt, delta.modmuls, delta.butterflies,
    )


def _run_gazelle(env, image) -> PathResult:
    protocol = GazelleProtocol(
        demo_network(), demo_weights(), env.params,
        schedule=env.schedule, rescale_bits=DEMO_RESCALE_BITS, seed=97,
    )
    with counting() as delta:
        result = protocol.run(image)
    return PathResult(result.logits, _counters_tuple(delta()), result.min_noise_budget)


def _run_session(env, registry, image, transport_factory, executor=None) -> PathResult:
    """Drive one serial ClientSession over an arbitrary transport.

    Every path runs with tracing on and a trace-stamping client, so the
    conformance sweep doubles as the propagation matrix: client-minted
    trace ids must round-trip through whatever transport/executor
    combination the path uses and land as complete span trees.
    """
    tracer = Tracer(enabled=True)
    engine = ServingEngine(
        registry, max_batch=1, seed=ENGINE_SEED, executor=executor,
        tracer=tracer,
    )
    with transport_factory(engine) as transport:
        session = ClientSession(
            demo_network(), env.params, transport, seed=7, track_noise=True,
            trace_requests=True,
        )
        session.connect("demo")
        with counting() as delta:
            result = session.infer(image)
        session.close()
    _assert_traced(tracer, session, result.rounds)
    return PathResult(
        result.logits, _counters_tuple(delta()), result.min_noise_budget
    )


def _assert_traced(tracer, session, rounds) -> None:
    """The propagation contract every execution path must honour."""
    server_ids = set(tracer.trace_ids())
    assert session.trace_ids, "server echoed no trace ids"
    assert set(session.trace_ids) <= server_ids, (
        "client-observed trace ids missing from the server tracer"
    )
    with_execute = [
        trace_id for trace_id in server_ids
        if any(s["name"] == "execute" for s in tracer.spans_of(trace_id))
    ]
    assert len(with_execute) >= rounds, (
        f"only {len(with_execute)} traces carry execute spans for "
        f"{rounds} linear rounds"
    )


class _LoopbackFactory:
    """Context-managed loopback so all transports share one interface."""

    def __init__(self, engine):
        self.transport = LoopbackTransport(engine)

    def __enter__(self):
        return self.transport

    def __exit__(self, *_exc):
        pass


class _SocketFactory:
    def __init__(self, engine):
        # Ephemeral bind; SocketServer itself retries the (rare)
        # EADDRINUSE race on port-0 binds.
        self.server = SocketServer(engine, port=0, workers=2)

    def __enter__(self):
        self.server.start()
        self.transport = SocketTransport(self.server.host, self.server.port)
        return self.transport

    def __exit__(self, *_exc):
        self.transport.close()
        self.server.stop()


class _GatewayFactory:
    """The asyncio front end, behind the same TCP client transport."""

    def __init__(self, engine):
        self.server = AsyncGateway(engine, port=0, executor_threads=2)

    def __enter__(self):
        self.server.start()
        self.transport = SocketTransport(self.server.host, self.server.port)
        return self.transport

    def __exit__(self, *_exc):
        self.transport.close()
        self.server.stop()


def _all_paths(env, image) -> dict[str, PathResult]:
    return {
        "gazelle": _run_gazelle(env, image),
        "loopback": _run_session(env, env.registry, image, _LoopbackFactory),
        "socket": _run_session(env, env.registry, image, _SocketFactory),
        "gateway": _run_session(env, env.registry, image, _GatewayFactory),
        "artifact": _run_session(
            env, env.artifact_registry, image, _LoopbackFactory
        ),
        "sharded": _run_session(
            env, env.artifact_registry, image, _LoopbackFactory,
            executor=ShardExecutor(env.pool),
        ),
        "remote-shard": _run_session(
            env, env.artifact_registry, image, _LoopbackFactory,
            executor=ShardExecutor(env.remote_pool),
        ),
    }


def _table3_min_budget_bound(params, schedule) -> float:
    """Worst-case Table III budget floor over the demo model's layers.

    Same proxy convention as ``tests/test_linear_plans.py``: slot-encoded
    weight plaintexts carry coefficients bounded by t (one window of
    base Wdcmp = t, l_pt = 1).
    """
    t_bits = params.plain_modulus.bit_length()
    proxy = ModelParams(
        n=params.n, plain_bits=t_bits, coeff_bits=params.coeff_bits,
        w_dcmp_bits=t_bits, a_dcmp_bits=params.a_dcmp_bits,
    )
    v0 = fresh_noise(proxy, NoiseMode.WORST)
    eta_m = eta_mult(proxy, NoiseMode.WORST, l_pt=1)
    eta_a = eta_rotate(proxy, NoiseMode.WORST)
    bounds = []
    for layer in demo_network().linear_layers:
        if isinstance(layer, ConvLayer):
            mult_terms = layer.ci * layer.fw**2
            rot_terms = layer.ci * (layer.fw**2 - 1)
        else:
            mult_terms = layer.ni
            rot_terms = layer.ni - 1
        if schedule is Schedule.PARTIAL_ALIGNED:
            noise = mult_terms * eta_m * v0 + rot_terms * eta_a
        else:
            noise = mult_terms * eta_m * (v0 + eta_a) + rot_terms * eta_a
        bounds.append(params.noise_capacity_bits - math.log2(noise))
    return min(bounds)


class TestConformance:
    @pytest.mark.parametrize("image_seed", IMAGE_SEEDS)
    def test_all_paths_bit_identical(self, env, image_seed):
        image = demo_image(image_seed)
        expected = env.plaintext.run(image)
        results = _all_paths(env, image)
        for name, result in results.items():
            assert np.array_equal(result.logits, expected), (
                f"{name} logits diverged from plaintext "
                f"({env.schedule.value}, image {image_seed})"
            )
        reference = results["gazelle"].counters
        for name, result in results.items():
            assert result.counters == reference, (
                f"{name} HE op counters {result.counters} differ from the "
                f"reference protocol's {reference} "
                f"({env.schedule.value}, image {image_seed})"
            )

    def test_mixed_ntt_backends_agree(self, env):
        """numpy-pinned shard workers == the coordinator's own backend.

        Workers forced onto the numpy kernel must produce byte-identical
        ciphertexts to whatever backend this process runs (native when
        available) -- the cross-backend half of the bit-identity contract,
        exercised across a real process boundary.
        """
        image = demo_image(2)
        expected = env.plaintext.run(image)
        baseline = _run_session(
            env, env.artifact_registry, image, _LoopbackFactory,
            executor=ShardExecutor(env.pool),
        )
        with ShardPool(env.artifact_dir, workers=1, ntt_native=False) as numpy_pool:
            numpy_result = _run_session(
                env, env.artifact_registry, image, _LoopbackFactory,
                executor=ShardExecutor(numpy_pool),
            )
        assert np.array_equal(baseline.logits, expected)
        assert np.array_equal(numpy_result.logits, expected)
        assert numpy_result.counters == baseline.counters


class TestRollingUpgradeConformance:
    """Zero-downtime upgrades are conformance-gated like any other path.

    A client hammering serial inference rounds while the deployment is
    regenerated (same weights, new artifact bytes, new manifest
    generation) and rolling-upgraded must observe **zero errors** and
    **bit-identical logits** on every round -- before, during, and
    after the swap -- on local and remote workers.
    """

    @pytest.mark.parametrize("fabric", ["local", "remote"])
    def test_continuous_rounds_through_rolling_upgrade(
        self, env, fabric, tmp_path_factory, shard_worker_fleet
    ):
        from repro.artifacts import load_zoo, save_artifact, update_manifest

        # A private zoo copy: the upgrade regenerates it in place, which
        # must not perturb the module-shared conformance environment.
        zoo_dir = tmp_path_factory.mktemp(
            f"upgrade-{env.schedule.value}-{fabric}"
        )
        live_entry = env.registry.get("demo")
        save_artifact(live_entry, zoo_dir / "demo.rpa")
        update_manifest(zoo_dir, live_entry, "demo.rpa")
        registry = load_zoo(zoo_dir)
        assert registry.zoo_generation == 1
        image = demo_image(0)
        expected = env.plaintext.run(image)

        with ExitStack() as stack:
            if fabric == "remote":
                servers = stack.enter_context(
                    shard_worker_fleet(zoo_dir, count=2)
                )
                pool = stack.enter_context(
                    ShardPool(
                        None, workers=0,
                        remote_endpoints=[s.endpoint for s in servers],
                    )
                )
            else:
                servers = []
                pool = stack.enter_context(
                    ShardPool(zoo_dir, workers=2)
                )
            engine = ServingEngine(
                registry, max_batch=1, seed=ENGINE_SEED,
                executor=ShardExecutor(pool),
            )
            session = ClientSession(
                demo_network(), env.params, LoopbackTransport(engine),
                seed=7, track_noise=True,
            )
            session.connect("demo")
            stop = threading.Event()
            outcome: dict = {"logits": [], "errors": []}

            def hammer():
                while not stop.is_set():
                    try:
                        outcome["logits"].append(session.infer(image).logits)
                    except BaseException as exc:
                        outcome["errors"].append(exc)
                        return

            client = threading.Thread(target=hammer)
            client.start()
            try:
                # Let the client establish its cadence first.
                deadline = time.monotonic() + 30.0
                while not outcome["logits"] and client.is_alive():
                    assert time.monotonic() < deadline, "client never started"
                    time.sleep(0.01)
                rounds_before = len(outcome["logits"])
                # Regenerate the deployment: same weights recompiled
                # from scratch (new artifact bytes), manifest generation
                # bumped -- the canonical "redeploy the same model" op.
                regenerated = ModelRegistry().register(
                    "demo", demo_network(), demo_weights(), env.params,
                    schedule=env.schedule, rescale_bits=DEMO_RESCALE_BITS,
                )
                save_artifact(regenerated, zoo_dir / "demo.rpa")
                update_manifest(zoo_dir, regenerated, "demo.rpa")
                summary = registry.reload_zoo(zoo_dir)
                assert summary["applied"] is True
                assert summary["updated"] == ["demo"]
                upgrade = pool.rolling_upgrade(
                    None if fabric == "remote" else zoo_dir
                )
                # Keep the client running past the swap so post-upgrade
                # rounds are asserted too.
                deadline = time.monotonic() + 60.0
                while (
                    len(outcome["logits"]) < rounds_before + 2
                    and time.monotonic() < deadline
                    and client.is_alive()
                ):
                    time.sleep(0.01)
            finally:
                stop.set()
                client.join(timeout=120.0)
            assert not client.is_alive()
            assert outcome["errors"] == [], outcome["errors"]
            assert len(outcome["logits"]) >= rounds_before + 2, (
                "client made no progress across the upgrade"
            )
            for index, logits in enumerate(outcome["logits"]):
                assert np.array_equal(logits, expected), (
                    f"round {index} diverged during the rolling upgrade "
                    f"({fabric}, {env.schedule.value})"
                )
            assert len(upgrade["upgraded"]) == 2
            assert upgrade["skipped"] == []
            assert registry.zoo_generation == 2
            assert pool.upgrades_total == 1
            assert engine.degraded_calls == 0
            if fabric == "remote":
                # Each worker server noticed the new generation at its
                # reconnect handshake and reloaded its own zoo.
                for server in servers:
                    assert server.reloads_total >= 1
                    assert server.registry.zoo_generation == 2


class TestNoiseRegression:
    def test_noise_within_table3_bound_on_every_path(self, env):
        """Post-inference noise stays within the Table III worst case.

        A batching/sharding change that silently adds noise (an extra
        rotation, a forgotten lazy reduction, a double-blinding) shrinks
        the measured budget below the analytic floor and fails here,
        long before logits start corrupting at larger depth.
        """
        bound = _table3_min_budget_bound(env.params, env.schedule)
        results = _all_paths(env, demo_image(0))
        for name, result in results.items():
            assert result.min_noise_budget > 0, name
            assert result.min_noise_budget >= bound - 1.0, (
                f"{name} consumed more noise than the Table III bound "
                f"allows: budget {result.min_noise_budget:.1f}b < floor "
                f"{bound - 1.0:.1f}b ({env.schedule.value})"
            )
