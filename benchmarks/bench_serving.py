"""Serving-runtime throughput: batched multi-client vs one-session-at-a-time.

Measures the serving subsystem end to end over the loopback transport
(full wire encoding, live BFV) at n=2048 on the demo CNN deployment:

``one_session_at_a_time``
    The baseline deployment without the serving runtime's session cache:
    every request opens a fresh session (parameter handshake, client
    Galois keygen, key upload), runs one private inference, and closes.
    Sessions execute strictly serially.
``persistent_serial``
    Persistent sessions (keys cached server-side), requests still served
    one at a time with cross-client batching disabled -- isolates the
    request-path cost from session amortisation.
``batched``
    The serving runtime proper: persistent concurrent sessions, requests
    pending for the same layer merged into stacked (k, B, n) engine
    calls.  Also swept over client counts for the latency profile.

A second section measures request-tracing overhead on the serial
loopback path: no tracer wired in vs a disabled :class:`Tracer` (the
production default) vs tracing fully on.  The three configurations run
interleaved, one repetition of each in rotating order, and each
repetition yields a paired time ratio against the no-tracer run beside
it.  The gate is on the median of those ratios: the disabled tracer may
cost at most ``TRACING_GATE_PCT`` (2%) -- observability that is not
off-by-default cheap does not ship.  Repetitions continue until the 95%
confidence interval of that median is narrower than the gate, so the
recorded spread says whether the gate decided anything.

Every mode's logits are checked bit-identical to direct in-process
:class:`GazelleProtocol` runs.  The acceptance gate is ``batched``
requests/sec >= 2x ``one_session_at_a_time`` requests/sec at 8
concurrent clients; results land in ``BENCH_serving.json`` with the
host's core count (``cpu_count``).  Serving over real TCP through the
:class:`~repro.serving.AsyncGateway` front end is measured end to end by
``perfbench/run.py``, not here.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_serving.py -s
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
from repro.protocol import GazelleProtocol
from repro.serving import (
    DEMO_RESCALE_BITS,
    ClientSession,
    LoopbackTransport,
    ModelRegistry,
    ServingEngine,
    Tracer,
    demo_image,
    demo_network,
    demo_weights,
)

RECORD_PATH = Path(__file__).resolve().parents[1] / "BENCH_serving.json"

#: Acceptance gate: batched serving vs serial one-session-at-a-time.
GATE_SPEEDUP = 2.0

CLIENTS = 8
SCHEDULE = Schedule.INPUT_ALIGNED
#: Inferences per client in the persistent modes.
REQUESTS_PER_CLIENT = 3
#: Timing repetitions per mode (best run recorded, as in the other benches;
#: the single shared core makes individual threaded runs scheduler-noisy).
REPS = 3

#: Tracing-overhead gate: a disabled tracer (the production default) may
#: cost at most this much throughput vs no tracer wired in at all.
TRACING_GATE_PCT = 2.0
#: Inferences per tracing-overhead repetition (serial loopback).
TRACING_REQUESTS = 6
#: Repetitions per tracer configuration: at least the first, at most the
#: second; in between, stop once the median's confidence interval is
#: narrower than the gate.
TRACING_REPS = (21, 301)

#: Every RNG in the bench is seeded from here (engine blinding masks,
#: client keygen, images), so BENCH_serving.json is reproducible
#: run-to-run up to timing jitter.  Production engines must keep the
#: OS-entropy default -- predictable masks would let a client unmask the
#: withheld slots.
ENGINE_SEED = 20240717


def _params() -> BfvParameters:
    return BfvParameters.create(
        n=2048, plain_bits=20, coeff_bits=100, a_dcmp_bits=16,
        require_security=False,
    )


def _expected_logits(params, images):
    protocol = GazelleProtocol(
        demo_network(), demo_weights(), params,
        schedule=SCHEDULE, rescale_bits=DEMO_RESCALE_BITS, seed=999,
    )
    return [protocol.run(image).logits for image in images]


def _run_one_session_at_a_time(registry, params, images):
    """Fresh session per request, strictly serial (no runtime caching)."""
    engine = ServingEngine(registry, max_batch=1, seed=ENGINE_SEED)
    transport = LoopbackTransport(engine)
    latencies, logits = [], []
    start = time.perf_counter()
    for index, image in enumerate(images):
        t0 = time.perf_counter()
        session = ClientSession(demo_network(), params, transport, seed=300 + index)
        session.connect("demo")
        logits.append(session.infer(image).logits)
        session.close()
        latencies.append(time.perf_counter() - t0)
    elapsed = time.perf_counter() - start
    return elapsed, latencies, logits


def _run_persistent(registry, params, images, clients, max_batch, window_s=0.05):
    """Persistent sessions; concurrent + batched when max_batch > 1."""
    engine = ServingEngine(
        registry, max_batch=max_batch, batch_window_s=window_s, seed=ENGINE_SEED
    )
    transport = LoopbackTransport(engine)
    sessions = []
    setup_start = time.perf_counter()
    for index in range(clients):
        session = ClientSession(demo_network(), params, transport, seed=500 + index)
        session.connect("demo")
        sessions.append(session)
    setup_s = time.perf_counter() - setup_start

    per_client = [images[index::clients] for index in range(clients)]
    latencies = [[] for _ in range(clients)]
    logits = [[] for _ in range(clients)]

    def drive(index):
        for image in per_client[index]:
            t0 = time.perf_counter()
            logits[index].append(sessions[index].infer(image).logits)
            latencies[index].append(time.perf_counter() - t0)

    start = time.perf_counter()
    if max_batch > 1:
        threads = [
            threading.Thread(target=drive, args=(index,))
            for index in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    else:
        for index in range(clients):
            drive(index)
    elapsed = time.perf_counter() - start
    # Re-interleave logits back to request order.
    ordered = [None] * len(images)
    for index in range(clients):
        for j, value in enumerate(logits[index]):
            ordered[index + j * clients] = value
    return elapsed, [l for client in latencies for l in client], ordered, setup_s


def _traced_session(registry, params, tracer) -> ClientSession:
    """A connected persistent loopback session under one tracer config.

    Serial max_batch=1 requests make the per-request span cost the
    largest possible fraction of the measurement -- the most pessimistic
    view of tracing overhead the serving stack can produce.
    """
    engine = ServingEngine(registry, max_batch=1, seed=ENGINE_SEED, tracer=tracer)
    session = ClientSession(
        demo_network(), params, LoopbackTransport(engine), seed=900,
        trace_requests=tracer is not None,
    )
    session.connect("demo")
    return session


def _timed_requests(session, images, expected) -> float:
    """Seconds to serve ``images`` back to back, logits checked."""
    start = time.perf_counter()
    for index, image in enumerate(images):
        logits = session.infer(image).logits
        assert np.array_equal(logits, expected[index]), (
            f"logits diverged under tracing (request {index})"
        )
    return time.perf_counter() - start


def _median_interval(values):
    """Median and its distribution-free 95% confidence interval.

    The interval runs between the order statistics at 1-based ranks
    ``n/2 - 0.98 sqrt(n)`` and ``1 + n/2 + 0.98 sqrt(n)``, rounded
    outwards (normal approximation to the binomial).
    """
    ordered = sorted(values)
    count = len(ordered)
    half = 0.98 * count ** 0.5
    lower = ordered[max(0, int(np.floor(count / 2 - half)) - 1)]
    upper = ordered[min(count - 1, int(np.ceil(1 + count / 2 + half)) - 1)]
    return float(np.median(ordered)), lower, upper


def _measure_tracing_overhead(registry, params, images, expected):
    """Paired overhead of a disabled and an enabled tracer vs no tracer.

    Each configuration gets one persistent session, connected up front.
    One repetition serves ``images`` on each, in an order rotated per
    repetition so no configuration always runs first, and gives
    ``elapsed(config) / elapsed(baseline) - 1`` for the disabled and
    enabled tracers; the record holds the medians of those paired ratios
    and the width of the disabled median's confidence interval.
    """
    sessions = {
        "baseline": _traced_session(registry, params, None),
        "disabled": _traced_session(registry, params, Tracer(enabled=False)),
        "enabled": _traced_session(registry, params, Tracer(enabled=True)),
    }
    names = list(sessions)
    min_reps, max_reps = TRACING_REPS
    elapsed = {name: [] for name in names}
    ratios = {"disabled": [], "enabled": []}
    for rep in range(max_reps):
        order = names[rep % 3:] + names[: rep % 3]
        run = {
            name: _timed_requests(sessions[name], images, expected)
            for name in order
        }
        for name in names:
            elapsed[name].append(run[name])
        for name in ratios:
            ratios[name].append((run[name] / run["baseline"] - 1.0) * 100)
        median, lower, upper = _median_interval(ratios["disabled"])
        if rep + 1 >= min_reps and upper - lower < TRACING_GATE_PCT:
            break
    for session in sessions.values():
        session.close()
    rps = {
        name: len(images) / float(np.median(values))
        for name, values in elapsed.items()
    }
    return {
        "requests": len(images),
        "reps": len(elapsed["baseline"]),
        "baseline_requests_per_sec": rps["baseline"],
        "disabled_requests_per_sec": rps["disabled"],
        "enabled_requests_per_sec": rps["enabled"],
        "disabled_overhead_pct": median,
        "disabled_overhead_ci95_pct": [lower, upper],
        "disabled_overhead_spread_pct": upper - lower,
        "enabled_overhead_pct": _median_interval(ratios["enabled"])[0],
        "gate_pct": TRACING_GATE_PCT,
    }


def _stats(elapsed, latencies, count):
    lat = np.sort(np.asarray(latencies))
    return {
        "requests": count,
        "seconds": elapsed,
        "requests_per_sec": count / elapsed,
        "latency_p50_ms": float(np.percentile(lat, 50) * 1e3),
        "latency_p95_ms": float(np.percentile(lat, 95) * 1e3),
    }


def _best_of(runs):
    """Pick the fastest repetition (same convention as the other benches)."""
    return min(runs, key=lambda run: run[0])


def test_serving_throughput():
    params = _params()
    registry = ModelRegistry()
    registry.register(
        "demo", demo_network(), demo_weights(), params,
        schedule=SCHEDULE, rescale_bits=DEMO_RESCALE_BITS,
    )
    images = [demo_image(seed) for seed in range(REQUESTS_PER_CLIENT * CLIENTS)]
    expected = _expected_logits(params, images)

    # Warm the engine/plan caches so no mode pays first-touch costs.
    _w, _l, warm_logits, _s = _run_persistent(
        registry, params, images[:2], clients=2, max_batch=2
    )
    assert all(
        np.array_equal(a, b) for a, b in zip(warm_logits, expected[:2])
    )

    serial_runs = []
    for _ in range(REPS):
        serial_s, serial_lat, serial_logits = _run_one_session_at_a_time(
            registry, params, images[:CLIENTS]
        )
        assert all(
            np.array_equal(a, b) for a, b in zip(serial_logits, expected)
        )
        serial_runs.append((serial_s, serial_lat, len(serial_logits)))
    serial_s, serial_lat, serial_count = _best_of(serial_runs)

    persist_runs = []
    for _ in range(REPS):
        persist_s, persist_lat, persist_logits, _ = _run_persistent(
            registry, params, images, clients=CLIENTS, max_batch=1
        )
        assert all(
            np.array_equal(a, b) for a, b in zip(persist_logits, expected)
        )
        persist_runs.append((persist_s, persist_lat, len(persist_logits)))
    persist_s, persist_lat, persist_count = _best_of(persist_runs)

    sweep = []
    batched_stats = None
    for clients in (1, 2, 4, CLIENTS):
        reps = REPS if clients == CLIENTS else 1
        runs = []
        for _ in range(reps):
            elapsed, lat, logits, setup_s = _run_persistent(
                registry, params, images, clients=clients, max_batch=clients
            )
            assert all(
                np.array_equal(a, b) for a, b in zip(logits, expected)
            ), f"batched logits diverged at {clients} clients"
            runs.append((elapsed, lat, setup_s))
        elapsed, lat, setup_s = _best_of(runs)
        stats = _stats(elapsed, lat, len(images))
        stats["clients"] = clients
        stats["session_setup_seconds"] = setup_s
        sweep.append(stats)
        if clients == CLIENTS:
            batched_stats = stats

    # -- Tracing overhead: off-by-default must be (nearly) free -------------
    tracing = _measure_tracing_overhead(
        registry, params, images[:TRACING_REQUESTS], expected[:TRACING_REQUESTS]
    )

    serial_stats = _stats(serial_s, serial_lat, serial_count)
    persist_stats = _stats(persist_s, persist_lat, persist_count)
    speedup = (
        batched_stats["requests_per_sec"] / serial_stats["requests_per_sec"]
    )

    print(f"\nServing throughput, n={params.n}, {len(images)} requests")
    print(f"{'mode':<28}{'req/s':>8}{'p50 ms':>9}{'p95 ms':>9}")
    rows = [
        ("one_session_at_a_time", serial_stats),
        ("persistent_serial", persist_stats),
        (f"batched ({CLIENTS} clients)", batched_stats),
    ]
    for name, stats in rows:
        print(
            f"{name:<28}{stats['requests_per_sec']:>8.2f}"
            f"{stats['latency_p50_ms']:>9.0f}{stats['latency_p95_ms']:>9.0f}"
        )
    print("\nbatched latency profile vs client count:")
    for stats in sweep:
        print(
            f"  {stats['clients']} clients: {stats['requests_per_sec']:.2f} req/s, "
            f"p50 {stats['latency_p50_ms']:.0f}ms, p95 {stats['latency_p95_ms']:.0f}ms"
        )
    print(
        f"\nbatched vs one-session-at-a-time: {speedup:.2f}x "
        f"(gate {GATE_SPEEDUP}x); "
        f"vs persistent serial: "
        f"{batched_stats['requests_per_sec'] / persist_stats['requests_per_sec']:.2f}x"
    )

    print(
        f"\ntracing overhead (serial loopback, {tracing['requests']} requests, "
        f"median of {tracing['reps']} paired repetitions):"
    )
    print(
        f"  no tracer {tracing['baseline_requests_per_sec']:.2f} req/s | "
        f"disabled {tracing['disabled_requests_per_sec']:.2f} req/s "
        f"({tracing['disabled_overhead_pct']:+.2f}%, 95% CI width "
        f"{tracing['disabled_overhead_spread_pct']:.2f}%) | "
        f"enabled {tracing['enabled_requests_per_sec']:.2f} req/s "
        f"({tracing['enabled_overhead_pct']:+.2f}%); "
        f"gate: disabled <= {TRACING_GATE_PCT}%"
    )

    payload = {
        "benchmark": "serving",
        "unit": "requests_per_sec",
        "n": params.n,
        "schedule": SCHEDULE.value,
        "clients": CLIENTS,
        "ntt_path": "native" if get_engine(
            params.n, params.coeff_basis.primes
        ).uses_native_kernel else "numpy",
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "gate_speedup": GATE_SPEEDUP,
        "modes": {
            # The acceptance baseline: no session reuse, no concurrency --
            # every request pays handshake + client keygen + Galois upload.
            "one_session_at_a_time": serial_stats,
            # Persistent sessions, still serial: isolates what session/key
            # caching alone buys vs what batching adds on this host.
            "persistent_serial": persist_stats,
            "batched": batched_stats,
        },
        "batched_vs_one_session_at_a_time": speedup,
        "batched_vs_persistent_serial": (
            batched_stats["requests_per_sec"] / persist_stats["requests_per_sec"]
        ),
        "latency_vs_clients": sweep,
        # Serial loopback req/s (median) with no tracer wired in, with a
        # disabled tracer (the production default), and with tracing fully
        # on; overheads are medians of per-repetition paired ratios.
        "tracing": tracing,
        "logits_bit_identical_to_gazelle_protocol": True,
    }
    RECORD_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RECORD_PATH}")

    assert speedup >= GATE_SPEEDUP, (
        f"batched serving {speedup:.2f}x below the {GATE_SPEEDUP}x gate over "
        f"one-session-at-a-time execution"
    )
    assert tracing["disabled_overhead_pct"] <= TRACING_GATE_PCT, (
        f"disabled tracer costs {tracing['disabled_overhead_pct']:.2f}% "
        f"throughput, above the {TRACING_GATE_PCT}% gate -- tracing must be "
        f"off-by-default cheap"
    )
