"""Load generator: the four workloads' clients, and the op census.

Load comes from this one process, with at most two threads and two
connections.  Every reply's logits are compared bit-for-bit with
``PlaintextRunner`` on the same image.
"""

from __future__ import annotations

import socket
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.bfv.counters import GLOBAL_COUNTERS
from repro.core.noise_model import Schedule
from repro.nn.plaintext import PlaintextRunner
from repro.serving import (
    DEMO_RESCALE_BITS,
    ClientSession,
    LoopbackTransport,
    ModelRegistry,
    ServingEngine,
    ServingError,
    SocketTransport,
    demo_network,
    demo_params,
    demo_weights,
)
from repro.serving.wire import decode_message, encode_message

#: Sessions opened before the timed phase (each connect is timed); the
#: persistent workloads keep the last one or two.
WARM_SESSIONS = 7
#: Distinct input images per run, drawn from the workload seed.
IMAGES = 16


class Inputs:
    """Network, parameters and seeded images with their expected logits."""

    def __init__(self, seed: int):
        self.seed = seed
        self.network = demo_network()
        self.params = demo_params()
        rng = np.random.default_rng(seed)
        self.images = [rng.integers(0, 16, (1, 8, 8)) for _ in range(IMAGES)]
        runner = PlaintextRunner(
            self.network, demo_weights(), rescale_bits=DEMO_RESCALE_BITS
        )
        self.expected = [runner.run(image) for image in self.images]
        self._rng = rng

    def arrivals(self, rate: float, seconds: float) -> list[float]:
        """Arrival offsets: one uniform draw in each ``1 / rate`` slot.

        An open schedule of ``round(rate * seconds)`` requests.  Every seed
        offers the same load and about the same share of requests that
        arrive while another is in service; only which ones differs.
        """
        count = max(1, round(rate * seconds))
        slots = np.arange(count) + self._rng.uniform(0, 1, count)
        return (slots / rate).tolist()


class _CountingSocket:
    """A client socket that tallies the bytes it moves in both directions."""

    def __init__(self, sock: socket.socket, tally: list):
        self._sock = sock
        self._tally = tally

    def sendall(self, data) -> None:
        self._sock.sendall(data)
        self._tally[0] += len(data)

    def recv(self, size: int) -> bytes:
        chunk = self._sock.recv(size)
        self._tally[0] += len(chunk)
        return chunk

    def __getattr__(self, name):
        return getattr(self._sock, name)


class Client:
    """One connection and one session, with a byte tally."""

    def __init__(self, inputs: Inputs, port: int, seed: int):
        self.inputs = inputs
        self.tally = [0]
        self.transport = SocketTransport(
            "127.0.0.1", port,
            socket_factory=lambda address, timeout: _CountingSocket(
                socket.create_connection(address, timeout=timeout),
                self.tally,
            ),
        )
        self.session = ClientSession(
            inputs.network, inputs.params, self.transport, seed=seed
        )

    def connect(self) -> float:
        """``ClientSession.connect``; returns its seconds."""
        start = time.monotonic()
        self.session.connect("demo")
        return time.monotonic() - start

    def infer(self, index: int) -> bool:
        """One inference; True when the logits equal the plaintext's."""
        image = index % IMAGES
        result = self.session.infer(self.inputs.images[image])
        return np.array_equal(result.logits, self.inputs.expected[image])

    def close(self) -> None:
        try:
            self.session.close()
        finally:
            self.transport.close()


@dataclass
class Load:
    """What one timed phase observed, per request and in total."""

    latencies: list = field(default_factory=list)
    wire_bytes: list = field(default_factory=list)
    connects: list = field(default_factory=list)
    lag: list = field(default_factory=list)
    queue: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    start: float = 0.0
    end: float = 0.0

    def outcome(self, ok: bool | None) -> None:
        """``True`` correct, ``False`` wrong logits, ``None`` an error."""
        self.attempted += 1
        if ok is not True:
            self.failed += 1
        if ok is False:
            self.wrong += 1


def _request_span(recorder):
    return recorder.span("client.request") if recorder else nullcontext()


def _attempt(fn) -> bool | None:
    try:
        return fn()
    except (ServingError, ConnectionError, OSError, ValueError):
        return None


def open_persistent(inputs: Inputs, port: int, keep: int, load: Load):
    """Open :data:`WARM_SESSIONS` sessions in turn and keep the last ``keep``.

    Every connect is timed; the others are closed at once.
    """
    kept = []
    for index in range(WARM_SESSIONS):
        client = Client(inputs, port, seed=inputs.seed * 1000 + index)
        load.connects.append(client.connect())
        if index < WARM_SESSIONS - keep:
            client.close()
        else:
            kept.append(client)
    # Kept sessions warm up together, twice: overlapping requests reach
    # every shard worker, which applies its queued key uploads on its
    # first task (seconds for seven 42 MB key sets).
    for _round in range(2):
        results = [None] * len(kept)

        def warm(slot: int) -> None:
            results[slot] = _attempt(lambda: kept[slot].infer(slot))

        threads = [
            threading.Thread(target=warm, args=(slot,))
            for slot in range(len(kept))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if not all(ok is True for ok in results):
            raise RuntimeError(f"warm-up inferences failed: {results}")
    return kept


def closed_loop(client: Client, seconds: float, load: Load,
                recorder=None) -> None:
    """Back-to-back inferences on one persistent session."""
    load.start = time.monotonic()
    deadline = load.start + seconds
    index = 0
    while time.monotonic() < deadline:
        index += 1
        before = client.tally[0]
        start = time.monotonic()
        with _request_span(recorder):
            ok = _attempt(lambda: client.infer(index))
        load.latencies.append(time.monotonic() - start)
        load.wire_bytes.append(client.tally[0] - before)
        load.outcome(ok)
    load.end = time.monotonic()


def one_shot(inputs: Inputs, port: int, index: int) -> tuple:
    """One fresh session: connect, infer, close.

    Returns ``(logits ok, connect seconds, bytes on the socket)``.
    """
    client = Client(inputs, port, seed=inputs.seed * 1000 + index)
    try:
        connect_s = client.connect()
        ok = client.infer(index)
    finally:
        client.close()
    return ok, connect_s, client.tally[0]


def one_shot_loop(inputs: Inputs, port: int, seconds: float, load: Load,
                  recorder=None) -> None:
    """Closed loop of :func:`one_shot` requests (index 0 is the warm-up)."""
    load.start = time.monotonic()
    deadline = load.start + seconds
    index = 1
    while time.monotonic() < deadline:
        start = time.monotonic()
        with _request_span(recorder):
            try:
                ok, connect_s, wire = one_shot(inputs, port, index)
                load.connects.append(connect_s)
                load.wire_bytes.append(wire)
            except (ServingError, ConnectionError, OSError, ValueError):
                ok = None
        load.latencies.append(time.monotonic() - start)
        load.outcome(ok)
        index += 1
    load.end = time.monotonic()


def open_loop(clients: list[Client], offsets: list[float], load: Load,
              recorder=None, grace_s: float = 60.0) -> None:
    """Scheduled arrivals served by one thread per client connection.

    Each request is timed from when it was due.  ``queue`` is the time a
    due request waited for a free connection; ``lag`` is how late the
    generator sent it once a connection was free.  Requests still unsent
    ``grace_s`` after the schedule ends count as failed.
    """
    lock = threading.Lock()
    cursor = [0]
    load.start = time.monotonic()
    cutoff = load.start + (offsets[-1] if offsets else 0.0) + grace_s

    def drive(client: Client) -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(offsets):
                return
            due = load.start + offsets[index]
            free = time.monotonic()
            if free > cutoff:
                with lock:
                    load.outcome(None)
                continue
            if free < due:
                time.sleep(due - free)
            sent = time.monotonic()
            before = client.tally[0]
            with _request_span(recorder):
                ok = _attempt(lambda: client.infer(index))
            done = time.monotonic()
            with lock:
                load.latencies.append(done - due)
                load.queue.append(max(0.0, free - due))
                load.lag.append(sent - max(free, due))
                load.wire_bytes.append(client.tally[0] - before)
                load.outcome(ok)

    threads = [
        threading.Thread(target=drive, args=(client,), name=f"loadgen-{i}")
        for i, client in enumerate(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    load.end = time.monotonic()


# -- census -------------------------------------------------------------------

#: The ``/metrics`` ``he_ops`` fields the census and the checks compare.
HE_OPS = ("he_mult", "he_add", "he_rotate", "ntt", "modmuls", "butterflies")


class _CensusTransport(LoopbackTransport):
    """Loopback that tallies server-side HE ops and frame bytes per phase."""

    def __init__(self, engine: ServingEngine):
        super().__init__(engine)
        self.phase = None
        self.ops: dict[str, dict] = {}
        self.bytes: dict[str, int] = {}
        self.frames: dict[str, int] = {}
        self.key_bytes = 0

    def request(self, message):
        payload = encode_message(message)
        before = GLOBAL_COUNTERS.snapshot()
        reply = self.engine.handle(decode_message(payload))
        delta = GLOBAL_COUNTERS.diff(before)
        reply_payload = encode_message(reply)
        ops = self.ops.setdefault(self.phase, dict.fromkeys(HE_OPS, 0))
        for name in HE_OPS:
            ops[name] += getattr(delta, name)
        self.bytes[self.phase] = (
            self.bytes.get(self.phase, 0) + 8 + len(payload)
            + len(reply_payload)
        )
        self.frames[self.phase] = self.frames.get(self.phase, 0) + 2
        if message.kind == "galois_keys":
            self.key_bytes = len(message.blobs[0])
        return decode_message(reply_payload)


def census(inputs: Inputs) -> _CensusTransport:
    """Server-side HE ops and wire bytes of one session, run in process.

    Phases ``connect``, ``infer`` and ``close``, so a persistent request
    is ``infer`` and a one-shot request is all three.
    """
    registry = ModelRegistry()
    registry.register(
        "demo", inputs.network, demo_weights(), inputs.params,
        schedule=Schedule.INPUT_ALIGNED, rescale_bits=DEMO_RESCALE_BITS,
    )
    transport = _CensusTransport(ServingEngine(registry))
    session = ClientSession(inputs.network, inputs.params, transport, seed=0)
    transport.phase = "connect"
    session.connect("demo")
    transport.phase = "infer"
    session.infer(inputs.images[0])
    transport.phase = "close"
    session.close()
    return transport
