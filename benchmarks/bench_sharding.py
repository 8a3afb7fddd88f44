"""Sharded-serving throughput: requests/sec and latency vs worker count.

Measures the multi-process execution backend end to end at n=2048 on the
demo deployment: one coordinator engine over the loopback transport
(full wire encoding), ``CLIENTS`` persistent concurrent sessions, and a
:class:`ShardPool` of 1 / 2 / 4 worker processes all memmapping the same
``.rpa`` artifact.  The in-process backend (no pool) is recorded as the
baseline.

Local workers are forked onto socketpairs; remote TCP workers
(:class:`ShardWorkerServer` fleets of 1 and 2) speak the same stream
protocol, recording req/s vs remote worker count.  ``ipc`` records the
per-task stream bytes (task frames out, replies in) at 2 local workers
and at the largest remote fleet.

Every mode's logits are checked bit-identical to the plaintext runner
(the conformance suite pins the stronger cross-path guarantee).  The
acceptance gate -- >= ``GATE_SPEEDUP``x requests/sec at 4 workers over 1
worker -- is enforced when the host actually has >= 4 cores; on smaller
runners (e.g. a 1-core dev container, where extra processes only add
IPC overhead) the numbers are recorded with ``gate_enforced: false``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_sharding.py -s
"""

from __future__ import annotations

import json
import os
import platform
import threading
import time
from pathlib import Path

import numpy as np

from repro.bfv import BfvParameters
from repro.bfv.ntt_batch import get_engine
from repro.core.noise_model import Schedule
from repro.nn.plaintext import PlaintextRunner
from repro.serving import (
    DEMO_RESCALE_BITS,
    ClientSession,
    LoopbackTransport,
    ModelRegistry,
    ServingEngine,
    ShardError,
    ShardExecutor,
    ShardPool,
    ShardWorkerServer,
    demo_image,
    demo_network,
    demo_weights,
)

RECORD_PATH = Path(__file__).resolve().parents[1] / "BENCH_sharding.json"

#: Acceptance gate: 4 shard workers vs 1 shard worker, multi-core hosts.
GATE_SPEEDUP = 1.8
GATE_MIN_CORES = 4

REMOTE_COUNTS = (1, 2)

SCHEDULE = Schedule.INPUT_ALIGNED
CLIENTS = 4
REQUESTS_PER_CLIENT = 3
WORKER_COUNTS = (1, 2, 4)
ENGINE_SEED = 20260728


def _params() -> BfvParameters:
    return BfvParameters.create(
        n=2048, plain_bits=20, coeff_bits=100, a_dcmp_bits=16,
        require_security=False,
    )


def _stage_artifact(tmp_dir, params):
    from repro.artifacts import load_zoo, save_artifact, update_manifest

    entry = ModelRegistry().register(
        "demo", demo_network(), demo_weights(), params,
        schedule=SCHEDULE, rescale_bits=DEMO_RESCALE_BITS,
    )
    save_artifact(entry, Path(tmp_dir) / "demo.rpa")
    update_manifest(tmp_dir, entry, "demo.rpa")
    return load_zoo(tmp_dir)


def _start_pool(artifact_dir, workers: int, **kwargs) -> ShardPool:
    """Start a pool, absorbing one transient startup failure.

    A loaded CI host can OOM-kill or starve a forking worker once; a
    single retry keeps the benchmark about throughput, not about the
    host's worst moment.  A second failure is a real problem and raises.
    """
    try:
        return ShardPool(artifact_dir, workers=workers, **kwargs).start()
    except ShardError as exc:
        print(f"pool startup failed once ({exc}); retrying")
        return ShardPool(artifact_dir, workers=workers, **kwargs).start()


def _drive_clients(registry, params, images, executor):
    """Persistent concurrent sessions through one engine; returns timings."""
    engine = ServingEngine(
        registry, max_batch=CLIENTS, batch_window_s=0.05,
        seed=ENGINE_SEED, executor=executor,
    )
    transport = LoopbackTransport(engine)
    sessions = []
    for index in range(CLIENTS):
        session = ClientSession(
            demo_network(), params, transport, seed=700 + index
        )
        session.connect("demo")
        sessions.append(session)
    per_client = [images[index::CLIENTS] for index in range(CLIENTS)]
    latencies = [[] for _ in range(CLIENTS)]
    logits = [[] for _ in range(CLIENTS)]

    def drive(index):
        for image in per_client[index]:
            t0 = time.perf_counter()
            logits[index].append(sessions[index].infer(image).logits)
            latencies[index].append(time.perf_counter() - t0)

    start = time.perf_counter()
    threads = [
        threading.Thread(target=drive, args=(index,)) for index in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    for session in sessions:
        session.close()
    ordered = [None] * len(images)
    for index in range(CLIENTS):
        for j, value in enumerate(logits[index]):
            ordered[index + j * CLIENTS] = value
    return elapsed, [l for client in latencies for l in client], ordered


def _stats(elapsed, latencies, count):
    lat = np.sort(np.asarray(latencies))
    return {
        "requests": count,
        "seconds": elapsed,
        "requests_per_sec": count / elapsed,
        "latency_p50_ms": float(np.percentile(lat, 50) * 1e3),
        "latency_p95_ms": float(np.percentile(lat, 95) * 1e3),
    }


def test_sharding_throughput(tmp_path):
    params = _params()
    registry = _stage_artifact(tmp_path, params)
    images = [demo_image(seed) for seed in range(REQUESTS_PER_CLIENT * CLIENTS)]
    runner = PlaintextRunner(
        demo_network(), demo_weights(), rescale_bits=DEMO_RESCALE_BITS
    )
    expected = [runner.run(image) for image in images]

    def check(logits, mode):
        assert all(
            np.array_equal(a, b) for a, b in zip(logits, expected)
        ), f"{mode} logits diverged"

    # Warm caches (plan/scheme/engine) so no mode pays first-touch costs.
    _w, _l, warm = _drive_clients(registry, params, images[:CLIENTS], None)
    check(warm, "warmup")

    elapsed, lat, logits = _drive_clients(registry, params, images, None)
    check(logits, "in_process")
    in_process = _stats(elapsed, lat, len(images))

    by_workers = {}
    ipc = {}
    for workers in WORKER_COUNTS:
        pool = _start_pool(tmp_path, workers)
        try:
            elapsed, lat, logits = _drive_clients(
                registry, params, images, ShardExecutor(pool)
            )
            if workers == 2:
                ipc["local"] = pool.ipc_stats()
        finally:
            pool.stop()
        check(logits, f"{workers} workers")
        by_workers[workers] = _stats(elapsed, lat, len(images))

    def _bytes_per_task(stats):
        return stats["bytes"] / max(1, stats["tasks"])

    # Remote TCP workers: a localhost fleet of ShardWorkerServer
    # processes-worth of endpoints (in-process servers here; the frames
    # and supervision are identical to cross-host deployment).
    by_remote = {}
    for count in REMOTE_COUNTS:
        servers = [
            ShardWorkerServer(tmp_path, port=0).start() for _ in range(count)
        ]
        try:
            pool = ShardPool(
                None, workers=0,
                remote_endpoints=[server.endpoint for server in servers],
            ).start()
            try:
                elapsed, lat, logits = _drive_clients(
                    registry, params, images, ShardExecutor(pool)
                )
                if count == max(REMOTE_COUNTS):
                    ipc["remote"] = pool.ipc_stats()
            finally:
                pool.stop()
        finally:
            for server in servers:
                server.stop()
        check(logits, f"{count} remote workers")
        by_remote[count] = _stats(elapsed, lat, len(images))

    speedup = (
        by_workers[4]["requests_per_sec"] / by_workers[1]["requests_per_sec"]
    )
    cores = os.cpu_count() or 1
    gate_enforced = cores >= GATE_MIN_CORES

    print(f"\nSharded serving, n={params.n}, {len(images)} requests, "
          f"{CLIENTS} clients, {cores} core(s)")
    print(f"{'mode':<16}{'req/s':>8}{'p50 ms':>9}{'p95 ms':>9}")
    rows = (
        [("in_process", in_process)]
        + [(f"{w} workers", stats) for w, stats in by_workers.items()]
        + [(f"{c} remote", stats) for c, stats in by_remote.items()]
    )
    for name, stats in rows:
        print(
            f"{name:<16}{stats['requests_per_sec']:>8.2f}"
            f"{stats['latency_p50_ms']:>9.0f}{stats['latency_p95_ms']:>9.0f}"
        )
    print(
        f"4 workers vs 1 worker: {speedup:.2f}x "
        f"(gate {GATE_SPEEDUP}x, enforced: {gate_enforced})"
    )
    print(
        f"per-task stream bytes: 2 local workers "
        f"{_bytes_per_task(ipc['local']):,.0f}, "
        f"{max(REMOTE_COUNTS)} remote {_bytes_per_task(ipc['remote']):,.0f}"
    )

    payload = {
        "benchmark": "sharding",
        "unit": "requests_per_sec",
        "n": params.n,
        "schedule": SCHEDULE.value,
        "clients": CLIENTS,
        "requests": len(images),
        "cpu_count": cores,
        "ntt_path": "native" if get_engine(
            params.n, params.coeff_basis.primes
        ).uses_native_kernel else "numpy",
        "platform": platform.platform(),
        "gate_speedup": GATE_SPEEDUP,
        "gate_min_cores": GATE_MIN_CORES,
        "gate_enforced": gate_enforced,
        "modes": {
            "in_process": in_process,
            **{f"workers_{w}": stats for w, stats in by_workers.items()},
            **{f"remote_{c}": stats for c, stats in by_remote.items()},
        },
        "ipc": {
            "local": ipc["local"],
            "remote": ipc["remote"],
            "local_bytes_per_task": _bytes_per_task(ipc["local"]),
            "remote_bytes_per_task": _bytes_per_task(ipc["remote"]),
        },
        "speedup_4w_vs_1w": speedup,
        "logits_bit_identical_to_plaintext": True,
        "note": (
            "Local workers fork onto socketpairs and load_zoo the same "
            "memmapped .rpa artifact; the "
            "gate applies on hosts with >= 4 cores (a single-core container "
            "only measures the IPC overhead of the sharded path)."
        ),
    }
    RECORD_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RECORD_PATH}")

    if gate_enforced:
        assert speedup >= GATE_SPEEDUP, (
            f"sharded serving {speedup:.2f}x at 4 workers below the "
            f"{GATE_SPEEDUP}x gate over 1 worker on a {cores}-core host"
        )
