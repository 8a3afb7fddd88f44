"""Multi-process sharded execution backend for the serving engine.

One Python process cannot use more than one core for the plan math, so
the lock-free native NTT and the memmapped ``.rpa`` artifacts (whose
weight pages N processes share through the OS page cache) are scaling
enablers the single-process :class:`~repro.serving.engine.ServingEngine`
never cashes in.  This module adds the missing piece:

* :class:`ShardPool` supervises worker slots.  Every worker is a
  :class:`ShardWorkerServer` connection loop speaking one framed stream
  protocol (:func:`~repro.serving.wire.send_frame`); slots differ only
  in how they get their socket.  A *local* slot forks a worker with one
  end of a ``socket.socketpair()`` -- the child ``load_zoo``'s the
  artifact directory (memmapped weight stacks, zero plan recompilation,
  shared pages) and serves that socket.  A *remote* slot connects to a
  ``tcp://host:port`` endpoint (``repro shard-worker`` on any host that
  memmaps the same artifacts).  The coordinator dispatches each task to
  the least-loaded live worker.
* :class:`ShardExecutor` plugs into the engine's execution-backend seam
  (:class:`~repro.serving.engine.LocalExecutor` documents the contract).
  A batched ``(k, B, n)`` layer call is split into per-shard sub-batches
  by request rows -- and, when a single request meets a wide convolution,
  by output-channel ranges (``ConvPlan.execute(..., oc_range=...)``) --
  shipped to the workers, and the partial outputs are merged back in
  order.  Every ciphertext crosses the process boundary through
  :mod:`repro.bfv.serialize` inside a :mod:`repro.serving.wire` frame,
  so the shard stream is the *same* validated wire format the network
  uses.

The stream protocol
-------------------

The coordinator opens every connection with ``shard_hello``; the worker
answers ``shard_ready`` with its model names (or an ``error`` frame when
it could not load its zoo).  After that the coordinator sends ``keys``/
``drop_keys`` frames and ``ping``/``task`` requests, and the worker
answers each request with a ``claimed`` frame, then a ``result``.  Each
coordinator-side connection has a writer thread fed by an unbounded
FIFO, so sending only enqueues -- no caller ever writes to a socket,
least of all under the pool lock -- and a reader thread that takes the
handshake and then every reply.

Galois keys are too large to ship per task, so a task only references
a ``key_id``.  The pool keeps every live session's key blob and ships it
on a connection just before the first task there that names it; the
stream is FIFO, so the worker holds the keys by the time it reads the
task.  A session that closes before it runs a layer costs the workers
nothing, and a fresh connection (respawn, reconnect, upgrade) needs no
replay: it is shipped keys on demand like any other.  Workers decode a
blob on the first task that names it, inside that task's
``worker.deserialize`` span.

Forked workers share the coordinator's ``time.monotonic()`` clock, so
they refuse a task whose ``deadline_mono`` has passed; ``tcp://``
workers ignore it (another host's clock is not comparable) and the
coordinator enforces the deadline on its side for both.

Bit-identity is the invariant that makes the split safe: plan execution
is deterministic and independent per request and per output channel, so
any partition of the batch produces ciphertexts byte-identical to a
single-process run (pinned by ``tests/test_conformance.py``).  Blinding
stays in the coordinator -- workers never see masks -- and each worker
ships back its HE op-counter delta, which the executor folds into the
coordinator's :data:`~repro.bfv.counters.GLOBAL_COUNTERS` so accounting
matches single-process execution exactly.

Fault tolerance
---------------

The pool is *supervised*: a monitor thread watches worker liveness and
pending-task progress, and a crashed or stalled worker costs a retry,
not the request.

* Every task is dispatched to exactly one worker incarnation, and the
  worker announces it with a ``claimed`` frame before executing, so the
  coordinator knows both where every in-flight task lives and whether
  execution started.  A worker is dead when its connection fails (EOF,
  reset, a frame that fails validation) or its forked process exits;
  everything assigned to the dead incarnation is requeued onto the
  survivors immediately.  A task making no progress for
  ``attempt_timeout_s`` (hung worker, lost reply) is requeued by the
  stall check.
* Each requeue bumps the task's ``attempt`` counter; after
  ``max_attempts`` the task fails with a :class:`ShardError` and the
  engine degrades to its in-process executor rather than failing the
  session.
* Dead workers are respawned -- local slots fork afresh, remote slots
  reconnect -- with exponential backoff; the new connection is shipped
  keys on demand like any other, so respawned workers serve existing
  sessions without client involvement.  After ``max_respawns`` deaths a
  slot is abandoned and the survivors carry the load; when every slot
  is abandoned the pool fails all pending and future work fast (the
  engine's local fallback takes over).
* Exactly-once accounting holds under retries because op-counter deltas
  travel inside result frames and are folded only from the single
  *accepted* reply per task (first ``ok`` wins; duplicates from
  spurious requeues and stale attempts are dropped on the floor).
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import queue
import socket
import threading
import time
import uuid
from dataclasses import dataclass

from ..bfv.counters import GLOBAL_COUNTERS
from ..bfv.serialize import (
    deserialize_ciphertext,
    deserialize_galois_keys,
    serialize_ciphertext,
)
from ..nn.layers import ConvLayer
from .engine import ExecutionBackendError
from .faults import WorkerFaults
from .metrics import noise_floor_bits
from .tracing import WorkerSpanLog
from .transport import bind_listener
from .wire import (
    TRACE_META_KEY,
    Message,
    attempt_of,
    decode_message,
    encode_message,
    error_message,
    recv_frame,
    send_frame,
)

logger = logging.getLogger(__name__)

#: Held across socketpair + fork + closing the child's end, by every
#: pool in the process, so no forked worker ever inherits another
#: worker's end (which would keep that worker's EOF from the coordinator).
_FORK_LOCK = threading.Lock()


class ShardError(ExecutionBackendError):
    """A shard pool failure: dead worker, startup error, or task failure."""


# -- worker side --------------------------------------------------------------


def _force_ntt_backend(native: bool) -> None:
    """Pin this worker's NTT backend regardless of what the parent chose.

    A forked child inherits the parent's already-loaded kernel state and
    memoized engines, so forcing a backend means resetting both and
    letting ``load_zoo`` rebuild engines lazily.  The two backends are
    bit-identical, so mixed coordinator/worker backends stay correct --
    this hook exists so the conformance suite can pin each side.
    """
    from ..bfv import native as native_mod
    from ..bfv import ntt_batch

    os.environ[native_mod.NATIVE_ENV_VAR] = "1" if native else "0"
    with native_mod._LOCK:
        native_mod._KERNEL = None
        native_mod._TRIED = False
    ntt_batch._get_engine_cached.cache_clear()


class _KeyCache:
    """One connection's Galois keys, decoded on the first task naming them.

    Decoding in the task (not when the ``keys`` frame is read) keeps
    the decode inside that task's ``worker.deserialize`` span; a blob
    no task ever names is never decoded.
    """

    def __init__(self, params_of):
        self._params_of = params_of
        self._raw: dict[str, tuple[str, bytes]] = {}
        self._decoded: dict[str, object] = {}

    def put(self, key_id: str, model: str, blob: bytes) -> None:
        self.drop(key_id)
        self._raw[key_id] = (model, blob)

    def drop(self, key_id: str) -> None:
        self._raw.pop(key_id, None)
        self._decoded.pop(key_id, None)

    def ids(self) -> list[str]:
        return sorted([*self._raw, *self._decoded])

    def __getitem__(self, key_id: str):
        if key_id not in self._decoded:
            if key_id not in self._raw:
                raise ShardError(
                    f"Galois keys {key_id!r} not on this connection "
                    "(coordinator must ship keys before the task)"
                )
            model, blob = self._raw[key_id]
            self._decoded[key_id] = deserialize_galois_keys(
                blob, self._params_of(model)
            )
            del self._raw[key_id]
        return self._decoded[key_id]


def _run_task(registry, key_cache, request: Message) -> Message:
    """Execute one layer sub-batch; reply with outputs + counter delta.

    When the task carries a trace context the worker records its own
    deserialize / compute / serialize spans as *offsets* from a local
    t0 (see :class:`~repro.serving.tracing.WorkerSpanLog`) and ships
    them back in the result meta; the coordinator anchors them inside
    its dispatch envelope, so no cross-process clock comparison ever
    happens.
    """
    model, layer_name, task_id = request.require("model", "layer", "task")
    key_ids = request.require("key_ids")
    counts = [int(c) for c in request.require("cts_per_request")]
    oc_range = request.meta.get("oc_range")
    slog = WorkerSpanLog() if TRACE_META_KEY in request.meta else None
    entry = registry.get(model)
    layer = entry.layer(layer_name)
    plan = entry.plans[layer_name]
    t_stage = time.monotonic()
    batch_inputs, offset = [], 0
    for count in counts:
        batch_inputs.append(
            [
                deserialize_ciphertext(blob, entry.params)
                for blob in request.blobs[offset : offset + count]
            ]
        )
        offset += count
    batch_keys = [key_cache[key_id] for key_id in key_ids]
    if slog is not None:
        slog.add(
            "worker.deserialize", t_stage,
            bytes=sum(len(blob) for blob in request.blobs),
        )
        t_stage = time.monotonic()
    before = GLOBAL_COUNTERS.snapshot()
    if isinstance(layer, ConvLayer):
        outputs = plan.execute_batch(
            batch_inputs,
            batch_keys,
            oc_range=tuple(int(v) for v in oc_range) if oc_range else None,
        )
    else:
        outputs = [
            [ct]
            for ct in plan.execute_batch(
                [cts[0] for cts in batch_inputs], batch_keys
            )
        ]
    delta = GLOBAL_COUNTERS.diff(before)
    counters = {
        "he_mult": delta.he_mult,
        "he_add": delta.he_add,
        "he_rotate": delta.he_rotate,
        "ntt": delta.ntt,
        "modmuls": delta.modmuls,
        "butterflies": delta.butterflies,
    }
    if slog is not None:
        slog.add(
            "worker.compute", t_stage,
            he_ops=counters,
            noise_headroom_bits=noise_floor_bits(entry),
        )
        t_stage = time.monotonic()
    blobs = [
        serialize_ciphertext(ct, entry.params)
        for request_cts in outputs
        for ct in request_cts
    ]
    meta = {
        "task": task_id,
        "status": "ok",
        "attempt": attempt_of(request),
        "outputs_per_request": [len(cts) for cts in outputs],
        "counters": counters,
    }
    if slog is not None:
        slog.add(
            "worker.serialize", t_stage,
            bytes=sum(len(blob) for blob in blobs),
        )
        meta["spans"] = slog.dump()
    return Message("result", meta, blobs)


def _local_worker_main(
    sock, inherited, worker_id, incarnation, artifact_dir, verify,
    ntt_native, fault_plan,
):
    """Forked local worker: :class:`ShardWorkerServer` on a socketpair end.

    The child first closes the coordinator's sockets it inherited (every
    slot's coordinator end, its own included), so the coordinator holds
    the only other end of ``sock``: a dead worker's EOF reaches it, and
    a dead coordinator's EOF reaches every worker.
    """
    for inherited_sock in inherited:
        inherited_sock.close()
    if fault_plan is not None:
        fault_plan.on_worker_start(worker_id, incarnation)
    server = ShardWorkerServer(
        artifact_dir, verify=verify, ntt_native=ntt_native,
        fault_plan=fault_plan,
    )
    server.worker_id, server.incarnation = worker_id, incarnation
    server.shares_clock = True
    try:
        server.load()
    except Exception as exc:
        # Answer the handshake with the failure so start() can say why.
        try:
            recv_frame(sock)
            send_frame(sock, encode_message(
                error_message(f"{type(exc).__name__}: {exc}")
            ))
        except (OSError, ValueError):
            pass
        return
    server._serve_conn(sock, "coordinator")


# -- coordinator --------------------------------------------------------------


def parse_endpoint(endpoint: str) -> tuple[str, int]:
    """Parse ``tcp://host:port`` (or bare ``host:port``) -> ``(host, port)``."""
    spec = str(endpoint).strip()
    if spec.startswith("tcp://"):
        spec = spec[len("tcp://") :]
    host, sep, port = spec.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(
            f"malformed shard-worker endpoint {endpoint!r} "
            "(expected tcp://host:port)"
        )
    return host, int(port)


class _WorkerConn:
    """The coordinator's end of one worker connection.

    :meth:`send` only enqueues: a writer thread drains an unbounded FIFO
    onto the socket, so no caller -- dispatch under the pool lock, key
    drops, the supervisor -- ever blocks on a worker that stopped
    reading.  ``process`` is a local slot's forked worker (``None`` for a
    remote slot); ``keys_sent`` holds the key ids shipped on this
    connection (guarded by the pool lock).  The first failure in either
    direction marks the connection dead for good; the socket is closed
    once both the writer and the pool's reader thread are done with it,
    so neither can ever touch a recycled descriptor.
    """

    def __init__(self, sock, process=None, name: str = "repro-shard"):
        self.sock = sock
        self.process = process
        self.keys_sent: set[str] = set()
        self._outbox: queue.SimpleQueue = queue.SimpleQueue()
        self._dead = threading.Event()
        self._users = 2  # the writer thread and the pool's reader thread
        self._users_lock = threading.Lock()
        threading.Thread(
            target=self._write_loop, name=f"{name}-writer", daemon=True
        ).start()

    @property
    def dead(self) -> bool:
        return self._dead.is_set()

    def is_alive(self) -> bool:
        return not self._dead.is_set() and (
            self.process is None or self.process.is_alive()
        )

    def send(self, payload: bytes) -> None:
        """Queue one frame (dropped once the connection is dead)."""
        if not self._dead.is_set():
            self._outbox.put(payload)

    def finish(self) -> None:
        """Queue EOF: the worker reads every queued frame, then EOF."""
        self._outbox.put(None)

    def mark_dead(self) -> None:
        self._dead.set()
        self._outbox.put(None)  # wake the writer
        try:
            # Wakes both threads out of blocking socket calls.
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def close(self, timeout: float = 0.0) -> None:
        """Mark dead and reap a local worker (terminated after ``timeout``)."""
        if self.process is not None:
            self.process.join(timeout)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(1.0)
        self.mark_dead()

    def release(self) -> None:
        """One of the two socket users is done; the last one closes it."""
        with self._users_lock:
            self._users -= 1
            last = self._users == 0
        if last:
            self.sock.close()

    def _write_loop(self) -> None:
        try:
            while True:
                payload = self._outbox.get()
                if self._dead.is_set():
                    return
                if payload is None:
                    self.sock.shutdown(socket.SHUT_WR)
                    return
                send_frame(self.sock, payload)
        except OSError:
            self.mark_dead()
        finally:
            self.release()


class _PendingTask:
    """Coordinator-side state for one in-flight task (guarded by pool lock).

    The un-encoded request :class:`~repro.serving.wire.Message` is kept
    so a retry can re-dispatch it with a bumped ``attempt`` -- tasks are
    deterministic, so a replay is bit-identical.
    """

    __slots__ = (
        "request", "event", "reply", "attempt", "assigned", "claimed_at",
        "dispatched_at", "first_dispatched_at",
    )

    def __init__(self, request: Message):
        self.request = request
        self.event = threading.Event()
        self.reply: Message | None = None
        self.attempt = 0
        #: ``(worker_id, incarnation)`` this attempt was dispatched to,
        #: or ``None`` while parked waiting for a live worker.
        self.assigned: tuple[int, int] | None = None
        self.claimed_at: float | None = None
        self.dispatched_at: float | None = None
        #: When attempt 0 left the coordinator -- the start of the task's
        #: trace envelope, surviving requeues (``dispatched_at`` resets).
        self.first_dispatched_at: float | None = None


@dataclass
class _Slot:
    """One supervised worker position in the pool.

    ``endpoint`` is ``None`` for a forked local worker and the
    ``tcp://`` spec of a remote one; everything else is shared.
    """

    worker_id: int
    endpoint: str | None = None
    conn: _WorkerConn | None = None
    incarnation: int = 0
    #: The current connection answered ``shard_ready``; only ready slots
    #: take tasks.
    ready: bool = False
    #: ``time.monotonic()`` by which the current connection must be ready.
    ready_deadline: float = 0.0
    abandoned: bool = False
    respawn_at: float | None = None
    deaths: int = 0
    last_error: str = ""
    #: Excluded from new dispatch (admin drain, or the drain phase of a
    #: rolling upgrade); in-flight tasks finish normally.
    draining: bool = False
    #: The rolling-upgrade swap window: :meth:`ShardPool.rolling_upgrade`
    #: owns this slot's lifecycle, so the supervisor must not treat the
    #: deliberate kill/reconnect as a death.
    upgrading: bool = False

    @property
    def remote(self) -> bool:
        return self.endpoint is not None

    @property
    def process(self):
        """The forked worker process of a local slot, else ``None``."""
        return None if self.conn is None else self.conn.process


class ShardPool:
    """A supervised pool of local and/or remote workers executing plan layers.

    ``workers`` local workers fork and warm-start by ``load_zoo``-ing
    ``artifact_dir`` (memmapped stacks -> the weight pages of all
    workers are shared through the OS page cache).
    ``remote_endpoints`` adds ``tcp://host:port`` workers
    (:class:`ShardWorkerServer` instances memmapping the same artifacts
    on any host); ``artifact_dir`` may be ``None`` for an all-remote
    pool.  Both kinds speak the same stream protocol (see the module
    docstring); the coordinator dispatches each
    :class:`~repro.serving.wire.Message` task to the least-loaded live
    worker.  ``ntt_native`` optionally pins the local workers' NTT
    backend (``None`` inherits the parent's); backends are bit-identical
    either way.

    A monitor thread supervises the pool (see the module docstring):
    dead workers have their in-flight tasks requeued (at most
    ``max_attempts`` attempts per task, ``attempt_timeout_s`` per
    attempt before a stalled attempt is retried) and are respawned with
    backoff up to ``max_respawns`` times before their slot is abandoned.
    A local worker must answer the handshake within ``start_timeout_s``,
    a remote one within ``remote_connect_timeout_s``.  ``fault_plan``
    injects deterministic worker faults for tests (defaults to
    :meth:`WorkerFaults.from_env`, so ``REPRO_FAULT_*`` environment
    hooks reach unmodified servers).

    The pool is transport-agnostic -- :class:`ShardExecutor` adapts it to
    the serving engine, and tests/benchmarks drive :meth:`execute`
    directly.
    """

    def __init__(
        self,
        artifact_dir,
        workers: int = 2,
        verify: bool | str = True,
        ntt_native: bool | None = None,
        start_timeout_s: float = 120.0,
        task_timeout_s: float = 300.0,
        max_attempts: int = 3,
        attempt_timeout_s: float = 60.0,
        max_respawns: int = 3,
        respawn_backoff_s: float = 0.2,
        fault_plan: WorkerFaults | None = None,
        remote_endpoints=None,
        remote_connect_timeout_s: float = 10.0,
        remote_socket_factory=None,
    ):
        self.remote_endpoints = [
            str(endpoint) for endpoint in (remote_endpoints or [])
        ]
        for endpoint in self.remote_endpoints:
            parse_endpoint(endpoint)  # fail fast on malformed specs
        if workers < 0 or workers + len(self.remote_endpoints) < 1:
            raise ValueError(
                f"need at least one worker, got {workers} local + "
                f"{len(self.remote_endpoints)} remote"
            )
        if max_attempts < 1:
            raise ValueError(f"need at least one attempt, got {max_attempts}")
        if artifact_dir is None and workers > 0:
            raise ValueError("local shard workers need an artifact_dir")
        self.artifact_dir = None if artifact_dir is None else str(artifact_dir)
        #: Local (forked) worker count; ``workers`` is the total slot
        #: count the executor splits over.
        self.local_workers = int(workers)
        self.workers = self.local_workers + len(self.remote_endpoints)
        self.remote_connect_timeout_s = float(remote_connect_timeout_s)
        self._remote_factory = (
            socket.create_connection if remote_socket_factory is None
            else remote_socket_factory
        )
        self.verify = verify
        self.ntt_native = ntt_native
        self.start_timeout_s = start_timeout_s
        self.task_timeout_s = task_timeout_s
        self.max_attempts = int(max_attempts)
        self.attempt_timeout_s = float(attempt_timeout_s)
        self.max_respawns = int(max_respawns)
        self.respawn_backoff_s = float(respawn_backoff_s)
        self.fault_plan = (
            WorkerFaults.from_env() if fault_plan is None else fault_plan
        )
        # fork, not exec: startup stays cheap (no re-import of numpy per
        # worker) and children inherit the already-built twiddle tables;
        # workers still load_zoo their own registry, per the artifact
        # discipline.
        self._ctx = multiprocessing.get_context("fork")
        self._slots: list[_Slot] = []
        self.model_names: list[str] = []
        self._pending: dict[str, _PendingTask] = {}
        self._lock = threading.Lock()
        self._next_task = 0
        self._monitor: threading.Thread | None = None
        self._stopping = threading.Event()
        # Live key blobs (key_id -> encoded ``keys`` frame), shipped on
        # each connection before the first task there that names them.
        self._key_blobs: dict[str, bytes] = {}
        self._fatal: str | None = None
        self.retries_total = 0
        self.respawns_total = 0
        #: Slots currently inside a rolling-upgrade drain/swap window
        #: (exported as the ``upgrading_slots`` gauge) and how many
        #: whole-pool upgrades have completed.
        self.upgrading_slots = 0
        self.upgrades_total = 0
        #: Serialises rolling upgrades: one at a time, pool-wide, so the
        #: one-slot-out-at-a-time quorum argument holds.
        self._upgrade_lock = threading.Lock()
        # Stream accounting (coordinator side), for BENCH_sharding.json:
        # task and reply frame bytes, and how many task/ping dispatches
        # they amortize over.
        self.ipc_bytes = 0
        self.tasks_dispatched = 0

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "ShardPool":
        """Bring up every worker and block until each one is ready.

        Every slot is forked (or connected) first and each handshake is
        taken on its slot's own reader thread, so the workers'
        ``load_zoo`` runs in parallel.  A worker that fails or dies
        before readiness aborts the start at once: every sibling is
        terminated and :class:`ShardError` raised.
        """
        if self._slots:
            raise ShardError("shard pool already started")
        self._slots = [
            _Slot(worker_id=worker_id)
            for worker_id in range(self.local_workers)
        ] + [
            _Slot(worker_id=self.local_workers + index, endpoint=endpoint)
            for index, endpoint in enumerate(self.remote_endpoints)
        ]
        for slot in self._slots:
            self._spawn(slot)
        while not all(slot.ready for slot in self._slots):
            self._expire_handshakes(time.monotonic())
            failed = next(
                (
                    slot for slot in self._slots
                    if not slot.ready and (slot.conn is None or slot.conn.dead)
                ),
                None,
            )
            if failed is not None:
                self._abort_start()
                raise ShardError(
                    f"shard worker {failed.worker_id} "
                    + (
                        f"failed: {failed.last_error}" if failed.last_error
                        else "died during startup (before readiness)"
                    )
                )
            time.sleep(0.01)
        self._monitor = threading.Thread(
            target=self._supervise, name="repro-shard-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def _spawn(self, slot: _Slot) -> None:
        """Bring up one worker in ``slot`` (first start, respawn, or swap).

        Local slots fork onto a fresh socketpair; remote slots connect.
        Every incarnation gets a fresh connection, because a SIGKILLed
        worker (or a cut link) can leave the old stream mid-frame.  A
        failed connect counts like a death once the pool is supervised;
        during :meth:`start` it fails the start.
        """
        try:
            if slot.remote:
                sock = self._remote_factory(
                    parse_endpoint(slot.endpoint),
                    timeout=self.remote_connect_timeout_s,
                )
                sock.settimeout(None)
                process = None
            else:
                sock, process = self._fork(slot)
        except OSError as exc:
            slot.last_error = f"{type(exc).__name__}: {exc}"
            if self._monitor is not None:
                logger.warning(
                    "shard worker %d failed to come up (%s)",
                    slot.worker_id, slot.last_error,
                )
                self._count_death(slot)
            return
        self._attach(slot, sock, process)

    def _fork(self, slot: _Slot):
        """Fork a local worker onto a fresh socketpair; returns our end."""
        with _FORK_LOCK:
            ours, theirs = socket.socketpair()
            inherited = [
                other.conn.sock for other in self._slots
                if other.conn is not None
            ]
            process = self._ctx.Process(
                target=_local_worker_main,
                args=(
                    theirs, [*inherited, ours], slot.worker_id,
                    slot.incarnation, self.artifact_dir, self.verify,
                    self.ntt_native, self.fault_plan,
                ),
                name=f"repro-shard-{slot.worker_id}",
                daemon=True,
            )
            try:
                process.start()
            except BaseException:
                ours.close()
                raise
            finally:
                theirs.close()
        return ours, process

    def _attach(self, slot: _Slot, sock, process) -> None:
        """Make ``sock`` the slot's connection and start its reader thread."""
        conn = _WorkerConn(
            sock, process,
            name=f"repro-shard-{slot.worker_id}.{slot.incarnation}",
        )
        conn.send(encode_message(Message("shard_hello", {})))
        timeout = (
            self.remote_connect_timeout_s if slot.remote
            else self.start_timeout_s
        )
        with self._lock:
            slot.conn = conn
            slot.ready = False
            slot.ready_deadline = time.monotonic() + timeout
            slot.respawn_at = None
        threading.Thread(
            target=self._collect,
            args=(slot, conn),
            name=f"repro-shard-collect-{slot.worker_id}.{slot.incarnation}",
            daemon=True,
        ).start()

    def _expire_handshakes(self, now: float) -> None:
        """Kill connections that missed their ``shard_ready`` deadline."""
        for slot in self._slots:
            conn = slot.conn
            if (
                conn is not None and not slot.ready and not conn.dead
                and now > slot.ready_deadline
            ):
                slot.last_error = "no shard_ready before the handshake deadline"
                conn.close()

    def _abort_start(self) -> None:
        """Kill every worker immediately (startup failed; no drain)."""
        self._stopping.set()
        for slot in self._slots:
            if slot.conn is not None:
                slot.conn.close()

    def stop(self, timeout_s: float = 10.0) -> None:
        """Drain-stop the pool: workers finish their current task and exit."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=2.0)
        for slot in self._slots:
            if slot.conn is not None:
                slot.conn.finish()
        deadline = time.monotonic() + timeout_s
        for slot in self._slots:
            if slot.conn is not None:
                slot.conn.close(max(0.1, deadline - time.monotonic()))
        # Fail anything still pending so no submitter blocks forever.
        with self._lock:
            pending, self._pending = self._pending, {}
        for task in pending.values():
            task.event.set()

    def __enter__(self) -> "ShardPool":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    def alive_workers(self) -> int:
        """Workers that answered their handshake and are still alive."""
        return sum(
            1
            for slot in self._slots
            if slot.ready and slot.conn is not None and slot.conn.is_alive()
        )

    def available_workers(self) -> int:
        """Worker slots still in service (alive or pending respawn)."""
        return sum(1 for slot in self._slots if not slot.abandoned)

    def draining_workers(self) -> list[int]:
        """Worker ids currently excluded from dispatch by a drain."""
        return [slot.worker_id for slot in self._slots if slot.draining]

    # -- live upgrades ------------------------------------------------------

    def _slot_by_id(self, worker_id: int) -> _Slot:
        for slot in self._slots:
            if slot.worker_id == int(worker_id):
                return slot
        raise ShardError(f"no shard worker slot {worker_id}")

    def _slot_inflight(self, slot: _Slot) -> int:
        """In-flight tasks assigned to ``slot`` (any incarnation)."""
        with self._lock:
            return sum(
                1
                for pending in self._pending.values()
                if pending.assigned is not None
                and pending.assigned[0] == slot.worker_id
                and not pending.event.is_set()
            )

    def drain_worker(self, worker_id: int, wait_s: float = 30.0) -> dict:
        """Stop dispatching to one worker and wait out its in-flight tasks.

        The admin surface for taking a worker out of rotation without
        killing it (inspect it, let the host drain, ...).  The slot keeps
        its worker, connection, and cached keys; :meth:`resume_worker`
        puts it back into dispatch.  Returns the drain outcome, including
        how many tasks were still in flight when ``wait_s`` ran out.
        """
        slot = self._slot_by_id(worker_id)
        if slot.abandoned:
            raise ShardError(f"shard worker slot {worker_id} is abandoned")
        with self._lock:
            slot.draining = True
        deadline = time.monotonic() + max(0.0, float(wait_s))
        inflight = self._slot_inflight(slot)
        while inflight and time.monotonic() < deadline:
            time.sleep(0.01)
            inflight = self._slot_inflight(slot)
        return {
            "worker": slot.worker_id,
            "draining": True,
            "inflight": inflight,
        }

    def resume_worker(self, worker_id: int) -> dict:
        """Put a drained worker back into dispatch rotation."""
        slot = self._slot_by_id(worker_id)
        with self._lock:
            slot.draining = False
        return {"worker": slot.worker_id, "draining": False}

    def rolling_upgrade(
        self,
        artifact_dir=None,
        drain_timeout_s: float = 60.0,
        ready_timeout_s: float | None = None,
    ) -> dict:
        """Swap every worker onto a new artifact zoo with no serving gap.

        One slot at a time: stop dispatching to it (``draining``), wait
        out its in-flight tasks, stop the old worker, warm-respawn it
        against ``artifact_dir`` (local slots fork and ``load_zoo`` the
        new directory; remote slots reconnect, which makes the
        :class:`ShardWorkerServer` re-read its own zoo when the manifest
        generation on disk changed), and wait for readiness before
        touching the next slot -- so at most one slot is ever out of
        rotation and :meth:`available_workers` (the executor's quorum
        input) never drops.

        ``artifact_dir=None`` re-rolls onto the current directory (the
        regenerated-in-place case).  Upgrades are serialised pool-wide;
        a worker that dies mid-drain or crashes right after its swap is
        handled by the normal supervision path (requeue onto siblings,
        respawn with backoff), and the upgrade waits for the slot to
        come back before proceeding.  Raises :class:`ShardError` when a
        slot cannot rejoin (it is then abandoned, like any other
        permanent failure).
        """
        if self._monitor is None:
            raise ShardError("shard pool is not running")
        if self._stopping.is_set():
            raise ShardError("shard pool is stopping")
        if self._fatal is not None:
            raise ShardError(self._fatal)
        if artifact_dir is not None and self.local_workers > 0:
            from ..artifacts.zoo import zoo_files

            # Validate the new zoo before any slot is touched: a broken
            # directory must fail the upgrade, not strand the fleet.
            if not zoo_files(artifact_dir):
                raise ShardError(f"no artifacts found in {artifact_dir}")
        ready_timeout = (
            self.start_timeout_s if ready_timeout_s is None
            else float(ready_timeout_s)
        )
        with self._upgrade_lock:
            if artifact_dir is not None and self.local_workers > 0:
                self.artifact_dir = str(artifact_dir)
            upgraded, skipped = [], []
            for slot in list(self._slots):
                if slot.abandoned:
                    skipped.append(slot.worker_id)
                    continue
                logger.info(
                    "rolling upgrade: draining shard worker %d",
                    slot.worker_id,
                )
                self._upgrade_slot(slot, drain_timeout_s, ready_timeout)
                upgraded.append(slot.worker_id)
            self.upgrades_total += 1
        return {
            "upgraded": upgraded,
            "skipped": skipped,
            "artifact_dir": self.artifact_dir,
        }


    def _upgrade_slot(
        self, slot: _Slot, drain_timeout_s: float, ready_timeout_s: float
    ) -> None:
        """Drain, swap, and rejoin one slot (the rolling-upgrade unit)."""
        with self._lock:
            slot.draining = True
            self.upgrading_slots += 1
        try:
            # Phase 1 -- drain: dispatch already avoids this slot; wait
            # for its in-flight tasks.  A worker that dies mid-drain is
            # the supervisor's business as usual (requeue onto siblings,
            # schedule a respawn); the drain just observes the in-flight
            # count reach zero either way.
            deadline = time.monotonic() + max(0.0, float(drain_timeout_s))
            while self._slot_inflight(slot) and time.monotonic() < deadline:
                if self._stopping.is_set():
                    raise ShardError("shard pool stopped during upgrade")
                time.sleep(0.01)
            # Phase 2 -- swap, with the supervisor hands-off so the
            # deliberate stop is not mistaken for a death.
            slot.upgrading = True
            try:
                with self._lock:
                    conn = slot.conn
                    slot.conn = None
                    slot.ready = False
                    slot.respawn_at = None
                    stragglers = [
                        pending
                        for pending in self._pending.values()
                        if pending.assigned is not None
                        and pending.assigned[0] == slot.worker_id
                        and not pending.event.is_set()
                    ]
                # A drain that timed out still upgrades: whatever was
                # left on the old incarnation replays onto siblings
                # (replays are bit-identical; the first ok reply wins).
                for pending in stragglers:
                    self._retry(
                        pending,
                        f"worker {slot.worker_id} drained for upgrade",
                    )
                if conn is not None:
                    # Drain-stop: EOF lets a local worker exit its loop
                    # cleanly; terminate is the backstop.
                    conn.finish()
                    conn.close(timeout=5.0)
                with self._lock:
                    slot.incarnation += 1
                self._spawn(slot)
            finally:
                slot.upgrading = False
        finally:
            with self._lock:
                slot.draining = False
                self.upgrading_slots -= 1
        # Phase 3 -- rejoin: the slot's reader thread takes the
        # handshake (and the supervisor handles a fresh worker that
        # crashes during warm-up: requeue, backoff, respawn); wait for it
        # before the caller touches the next slot, so at most one slot
        # is ever out of rotation.
        deadline = time.monotonic() + max(0.0, float(ready_timeout_s))
        while time.monotonic() < deadline:
            if self._stopping.is_set():
                raise ShardError("shard pool stopped during upgrade")
            if slot.abandoned:
                raise ShardError(
                    f"worker {slot.worker_id} failed during upgrade"
                    + (f": {slot.last_error}" if slot.last_error else "")
                )
            if slot.ready:
                return
            time.sleep(0.01)
        raise ShardError(
            f"worker {slot.worker_id} did not rejoin within "
            f"{ready_timeout_s:.0f}s after its upgrade swap"
        )

    # -- supervision --------------------------------------------------------

    def _supervise(self) -> None:
        """Monitor loop: detect deaths, requeue work, respawn, un-stall."""
        while not self._stopping.is_set():
            now = time.monotonic()
            self._expire_handshakes(now)
            for slot in self._slots:
                if slot.abandoned or slot.upgrading:
                    # An upgrading slot's kill/respawn is owned by
                    # rolling_upgrade; treating it as a death here would
                    # double-spawn the slot.
                    continue
                if slot.conn is not None and not slot.conn.is_alive():
                    self._handle_death(slot)
                elif (
                    slot.conn is None
                    and slot.respawn_at is not None
                    and now >= slot.respawn_at
                ):
                    self.respawns_total += 1
                    logger.warning(
                        "respawning shard worker %d (incarnation %d)",
                        slot.worker_id, slot.incarnation,
                    )
                    self._spawn(slot)
            self._check_stalls(now)
            self._dispatch_parked()
            if self._fatal is None and all(
                slot.abandoned for slot in self._slots
            ):
                self._fatal = (
                    "all shard workers failed permanently "
                    f"(each died > {self.max_respawns} times)"
                )
                logger.error("%s", self._fatal)
            if self._fatal is not None:
                self._fail_all_pending(self._fatal)
            self._stopping.wait(0.05)

    def _handle_death(self, slot: _Slot) -> None:
        """A worker died: requeue its assigned tasks, schedule a respawn."""
        dead = (slot.worker_id, slot.incarnation)
        with self._lock:
            conn, slot.conn = slot.conn, None
            slot.ready = False
            orphans = [
                pending
                for pending in self._pending.values()
                if pending.assigned == dead and not pending.event.is_set()
            ]
        conn.close()  # reap a local corpse; a live one is terminated
        logger.warning(
            "shard worker %d (incarnation %d) died%s; requeueing %d task(s)",
            slot.worker_id, slot.incarnation,
            f": {slot.last_error}" if slot.last_error else "",
            len(orphans),
        )
        for pending in orphans:
            self._retry(pending, f"worker {slot.worker_id} died mid-task")
        self._count_death(slot)

    def _count_death(self, slot: _Slot) -> None:
        """Charge one death to ``slot``: back off to a respawn, or abandon."""
        with self._lock:
            slot.deaths += 1
            slot.abandoned = slot.deaths > self.max_respawns
            if not slot.abandoned:
                slot.incarnation += 1
                slot.respawn_at = time.monotonic() + (
                    self.respawn_backoff_s * (2 ** (slot.deaths - 1))
                )
        if slot.abandoned:
            logger.error(
                "abandoning shard worker slot %d after %d deaths",
                slot.worker_id, slot.deaths,
            )

    def _check_stalls(self, now: float) -> None:
        """Retry attempts that have made no progress for attempt_timeout_s.

        Covers the claim-gap race (a worker killed between reading a task
        and claiming it), hung workers, and replies lost with a dead
        connection.  A spurious retry is safe: replays are bit-identical,
        the first ``ok`` reply wins, and later duplicates are dropped
        without folding their counters.
        """
        with self._lock:
            stalled = [
                pending
                for pending in self._pending.values()
                if not pending.event.is_set()
                and (pending.claimed_at or pending.dispatched_at) is not None
                and now - (pending.claimed_at or pending.dispatched_at)
                > self.attempt_timeout_s
            ]
        for pending in stalled:
            self._retry(pending, "attempt stalled")

    def _eligible_slot(self) -> _Slot | None:
        """The least-loaded ready worker slot (requires ``self._lock``)."""
        counts: dict[tuple[int, int], int] = {}
        for pending in self._pending.values():
            if pending.assigned is not None and not pending.event.is_set():
                key = pending.assigned
                counts[key] = counts.get(key, 0) + 1
        best = None
        best_count = None
        for slot in self._slots:
            if (
                slot.abandoned
                or slot.draining
                or slot.upgrading
                or not slot.ready
                or slot.conn is None
                or not slot.conn.is_alive()
            ):
                continue
            count = counts.get((slot.worker_id, slot.incarnation), 0)
            if best is None or count < best_count:
                best, best_count = slot, count
        return best

    def _dispatch_locked(self, pending: _PendingTask) -> bool:
        """Dispatch (requires ``self._lock``); parks when no worker is ready.

        Keys the task names go out on the connection first, unless it
        already has them.  Sending only enqueues on the connection's
        writer, so holding the pool lock here never waits on a socket.  A
        send onto a connection that dies leaves the task assigned to the
        dead incarnation; death handling requeues it.
        """
        pending.claimed_at = None
        pending.dispatched_at = time.monotonic()
        if pending.first_dispatched_at is None:
            pending.first_dispatched_at = pending.dispatched_at
        slot = self._eligible_slot()
        if slot is None:
            pending.assigned = None  # parked; re-dispatched once one is ready
            return False
        pending.assigned = (slot.worker_id, slot.incarnation)
        pending.request.meta["attempt"] = pending.attempt
        self.tasks_dispatched += 1
        conn = slot.conn
        for key_id in pending.request.meta.get("key_ids", ()):
            if key_id not in conn.keys_sent and key_id in self._key_blobs:
                conn.send(self._key_blobs[key_id])
                conn.keys_sent.add(key_id)
        frame = encode_message(pending.request)
        self.ipc_bytes += len(frame)
        conn.send(frame)
        return True

    def _dispatch_parked(self) -> None:
        with self._lock:
            for pending in self._pending.values():
                if pending.assigned is None and not pending.event.is_set():
                    self._dispatch_locked(pending)

    def _retry(self, pending: _PendingTask, reason: str) -> None:
        """Requeue one task with a bumped attempt, or fail it out."""
        with self._lock:
            if pending.event.is_set():
                return
            pending.attempt += 1
            if pending.attempt >= self.max_attempts:
                task_id = pending.request.meta.get("task", "?")
                self._pending.pop(str(task_id), None)
                pending.reply = Message(
                    "result",
                    {
                        "task": task_id,
                        "status": "error",
                        "reason": (
                            f"shard task {task_id} exhausted "
                            f"{self.max_attempts} attempts ({reason})"
                        ),
                    },
                )
                pending.event.set()
                return
            self.retries_total += 1
            logger.warning(
                "requeueing shard task %s (attempt %d/%d): %s",
                pending.request.meta.get("task"), pending.attempt + 1,
                self.max_attempts, reason,
            )
            self._dispatch_locked(pending)

    def _fail_all_pending(self, reason: str) -> None:
        with self._lock:
            pending, self._pending = self._pending, {}
        for task in pending.values():
            if task.event.is_set():
                continue
            task.reply = Message(
                "result",
                {
                    "task": task.request.meta.get("task", "?"),
                    "status": "error",
                    "reason": reason,
                },
            )
            task.event.set()

    # -- key distribution ---------------------------------------------------

    def put_keys(self, key_id: str, model: str, blob: bytes) -> None:
        """Register one session's Galois keys for its tasks.

        Nothing is sent here: each connection is shipped the blob before
        its first task that names ``key_id`` (see
        :meth:`_dispatch_locked`), until :meth:`drop_keys`.
        """
        payload = encode_message(
            Message("keys", {"key_id": key_id, "model": model}, [blob])
        )
        with self._lock:
            self._key_blobs[key_id] = payload

    def drop_keys(self, key_id: str) -> None:
        """Forget a session's keys (close/eviction), on every worker too."""
        payload = encode_message(Message("drop_keys", {"key_id": key_id}))
        with self._lock:
            self._key_blobs.pop(key_id, None)
            for slot in self._slots:
                conn = slot.conn
                if conn is not None and key_id in conn.keys_sent:
                    conn.keys_sent.discard(key_id)
                    conn.send(payload)

    # -- task execution -----------------------------------------------------

    def _collect(self, slot: _Slot, conn: _WorkerConn) -> None:
        """Reader thread of one connection: the handshake, then replies.

        Runs until the stream fails -- EOF, reset, or a frame that fails
        validation poisons the whole connection (stream framing can no
        longer be trusted) -- and marks the connection dead, which the
        supervisor treats as a worker death: requeue and respawn.
        """
        handshake = True
        try:
            while True:
                payload = recv_frame(conn.sock)
                if payload is None:
                    raise OSError("shard worker closed the connection")
                message = decode_message(payload)
                if handshake:
                    handshake = False
                    self._on_ready(slot, conn, message)
                    continue
                self.ipc_bytes += len(payload)
                try:
                    self._handle_reply(message)
                except Exception:  # pragma: no cover - defensive
                    logger.exception("discarding malformed shard reply")
        except (OSError, ValueError) as exc:
            # A connection the pool already retired (upgrade swap, death
            # handling, stop) ends quietly.
            if (
                slot.conn is conn and not conn.dead
                and not self._stopping.is_set()
            ):
                logger.warning(
                    "shard worker %d connection failed: %s",
                    slot.worker_id, exc,
                )
        finally:
            conn.mark_dead()
            conn.release()

    def _on_ready(self, slot: _Slot, conn: _WorkerConn, reply: Message) -> None:
        """Take a connection's handshake reply; ready slots take tasks."""
        if reply.kind != "shard_ready":
            slot.last_error = str(reply.meta.get(
                "reason", f"unexpected handshake reply {reply.kind!r}"
            ))
            raise ValueError(slot.last_error)
        models = list(reply.require("models"))
        with self._lock:
            if slot.conn is not conn:
                return  # superseded while handshaking
            slot.ready = True
            # A respawned worker reports the zoo it actually loaded;
            # after a rolling upgrade that is the new generation's model
            # list, which prepare_keys validates against.
            self.model_names = models
        self._dispatch_parked()

    def _handle_reply(self, reply: Message) -> None:
        task_id = str(reply.meta.get("task"))
        if reply.kind == "claimed":
            with self._lock:
                pending = self._pending.get(task_id)
                if pending is not None and attempt_of(reply) == pending.attempt:
                    pending.claimed_at = time.monotonic()
            return
        with self._lock:
            pending = self._pending.get(task_id)
            if pending is None:
                # Duplicate of an already-accepted task (spurious
                # requeue) or a reply to an abandoned one: dropped, its
                # counters never folded twice.
                return
            if reply.meta.get("status") == "ok":
                # First ok reply wins, whatever attempt produced it --
                # replays are bit-identical by construction.
                self._pending.pop(task_id, None)
                if TRACE_META_KEY in pending.request.meta:
                    # Coordinator-clock envelope for the trace: first
                    # dispatch -> this receive (plus which attempt and
                    # worker won), so the executor can record the shard
                    # span and anchor the worker's offset spans inside it.
                    reply.meta["env"] = {
                        "first_dispatch": pending.first_dispatched_at,
                        "dispatch": pending.dispatched_at,
                        "recv": time.monotonic(),
                        "attempt": pending.attempt,
                        "worker": (
                            pending.assigned[0]
                            if pending.assigned is not None else None
                        ),
                    }
                pending.reply = reply
                pending.event.set()
                return
            if attempt_of(reply) != pending.attempt:
                # A stale attempt failing is not news: its replacement
                # is already dispatched.
                return
            self._pending.pop(task_id, None)
            pending.reply = reply
            pending.event.set()

    def execute(
        self, requests: list[Message], deadline: float | None = None
    ) -> list[Message]:
        """Run task messages on the pool; blocks until all replies arrive.

        Thread-safe (the engine calls this from many transport threads).
        Task ids are assigned here; replies are returned in request
        order.  ``deadline`` is an absolute ``time.monotonic()`` instant
        propagated into task frames (forked workers skip expired work)
        and enforced here.

        Worker death does not fail the call: the supervisor requeues
        the dead worker's tasks onto the survivors (or the respawned
        worker) and only a task that exhausts ``max_attempts`` -- or a
        pool whose every slot is abandoned -- raises
        :class:`ShardError`.
        """
        if self._monitor is None or self._stopping.is_set():
            raise ShardError("shard pool is not running")
        if self._fatal is not None:
            raise ShardError(self._fatal)
        now = time.monotonic()
        pendings = []
        with self._lock:
            for request in requests:
                task_id = f"t{self._next_task}"
                self._next_task += 1
                request.meta["task"] = task_id
                request.meta["attempt"] = 0
                if deadline is not None:
                    request.meta["deadline_mono"] = float(deadline)
                pending = _PendingTask(request)
                self._pending[task_id] = pending
                pendings.append((task_id, pending))
                self._dispatch_locked(pending)
        hard_deadline = now + self.task_timeout_s
        if deadline is not None:
            hard_deadline = min(hard_deadline, deadline)
        replies = []
        for task_id, pending in pendings:
            while not pending.event.wait(timeout=0.1):
                if time.monotonic() >= hard_deadline:
                    self._abandon(pendings)
                    raise ShardError(
                        f"shard task {task_id} timed out"
                        + (
                            " (request deadline exceeded)"
                            if deadline is not None
                            and hard_deadline == deadline
                            else f" after {self.task_timeout_s:.0f}s"
                        )
                    )
                if self._stopping.is_set():
                    self._abandon(pendings)
                    raise ShardError("shard pool stopped with tasks in flight")
            if pending.reply is None:  # pool stopped under us
                raise ShardError("shard pool stopped with tasks in flight")
            if pending.reply.meta.get("status") != "ok":
                self._abandon(pendings)
                raise ShardError(
                    str(pending.reply.meta.get("reason", "unknown shard error"))
                )
            replies.append(pending.reply)
        return replies

    def _abandon(self, pendings) -> None:
        with self._lock:
            for task_id, _ in pendings:
                self._pending.pop(task_id, None)

    def ping(self, count: int | None = None) -> list[Message]:
        """Round-trip ``count`` no-op tasks (worker/model/key introspection).

        Dispatch is least-loaded, so ``count`` concurrent pings spread
        across ``count`` live workers -- with a single-worker pool this
        is deterministic, which is what the tests use it for.
        """
        count = self.workers if count is None else count
        return self.execute([Message("ping", {}) for _ in range(count)])

    def ipc_stats(self) -> dict:
        """Coordinator-side stream accounting (for BENCH_sharding.json).

        ``bytes`` counts task frames sent plus reply frames received
        (claims and results) over ``tasks`` dispatches; key frames are
        not included.
        """
        return {
            "bytes": int(self.ipc_bytes),
            "tasks": int(self.tasks_dispatched),
        }


@dataclass
class _ShardKeyHandle:
    """What a sharded session stores instead of deserialized Galois keys."""

    key_id: str


class ShardExecutor:
    """Adapt a :class:`ShardPool` to the engine's execution-backend seam.

    Splitting policy (always bit-identical, see module docstring):

    * ``B`` batched requests are split into ``min(B, workers)``
      contiguous row chunks -- zero duplicated work.
    * A *single* request hitting a convolution with
      ``co >= oc_split_min_co`` is instead split by output-channel
      ranges across workers.  This cuts latency but duplicates the
      per-input hoist/rotate work in every shard, so it is off for
      narrow layers (and the demo model) by default -- row-split tasks
      keep HE op counters identical to single-process execution, which
      the conformance suite asserts.

    ``quorum`` is the minimum number of in-service worker slots this
    executor requires: when attrition drops the pool below it, every
    ``execute`` raises :class:`ShardError` up front so the engine can
    degrade to its in-process executor instead of queueing onto a husk.
    """

    def __init__(
        self, pool: ShardPool, oc_split_min_co: int = 8, quorum: int = 1
    ):
        self.pool = pool
        self.oc_split_min_co = int(oc_split_min_co)
        self.quorum = int(quorum)
        #: Set by a tracing-enabled engine: shard dispatch envelopes and
        #: piggybacked worker spans are recorded against request traces.
        self.tracer = None
        # Key ids on the wire are scoped per executor *and* per upload:
        # several engines may share one pool, and their session ids all
        # start at "s0".  Scoping makes every upload's id unique, so
        # a worker can never serve a task with another session's (or a
        # superseded upload's) keys.
        self._scope = uuid.uuid4().hex[:12]
        self._scoped: dict[str, str] = {}
        self._uploads = 0
        self._lock = threading.Lock()

    # -- executor contract --------------------------------------------------

    def prepare_keys(self, entry, key_id, blob, keys):
        if entry.name not in self.pool.model_names:
            raise ShardError(
                f"model {entry.name!r} is not in the shard workers' artifact "
                f"set {self.pool.model_names} -- sharded serving requires the "
                f"registry and the pool to load the same artifact directory"
            )
        with self._lock:
            self._uploads += 1
            scoped = f"{self._scope}:{key_id}:{self._uploads}"
            previous = self._scoped.get(key_id)
            self._scoped[key_id] = scoped
        if previous is not None:
            self.pool.drop_keys(previous)
        self.pool.put_keys(scoped, entry.name, blob)
        return _ShardKeyHandle(scoped)

    def release_keys(self, key_id):
        with self._lock:
            scoped = self._scoped.pop(key_id, None)
        if scoped is not None and not self.pool._stopping.is_set():
            self.pool.drop_keys(scoped)

    def execute(self, entry, layer, batch_inputs, batch_handles, deadline=None,
                trace=None):
        available = self.pool.available_workers()
        if available < self.quorum:
            raise ShardError(
                f"shard pool below quorum: {available} worker slot(s) in "
                f"service, need {self.quorum}"
            )
        batch = len(batch_inputs)
        workers = max(1, self.pool.workers)
        key_ids = [handle.key_id for handle in batch_handles]
        ctxs = list(trace or [])
        ctxs += [None] * (batch - len(ctxs))
        if (
            batch == 1
            and workers > 1
            and isinstance(layer, ConvLayer)
            and layer.co >= self.oc_split_min_co
        ):
            return self._execute_oc_split(
                entry, layer, batch_inputs[0], key_ids[0], workers, deadline,
                ctxs[0],
            )
        return self._execute_row_split(
            entry, layer, batch_inputs, key_ids, workers, deadline, ctxs
        )

    # -- splitting ----------------------------------------------------------

    def _task(self, entry, layer, chunk_inputs, chunk_key_ids, oc_range=None,
              trace_ctxs=None):
        meta = {
            "model": entry.name,
            "layer": layer.name,
            "key_ids": list(chunk_key_ids),
            "cts_per_request": [len(cts) for cts in chunk_inputs],
        }
        if oc_range is not None:
            meta["oc_range"] = [int(oc_range[0]), int(oc_range[1])]
        traced = next(
            (ctx for ctx in (trace_ctxs or []) if ctx is not None), None
        )
        if traced is not None:
            # The task only needs to know *that* it is traced (workers
            # key their span logs off this); parenting happens entirely
            # coordinator-side, per participating request.
            meta[TRACE_META_KEY] = {"trace_id": traced.trace_id}
        blobs = [
            serialize_ciphertext(ct, entry.params)
            for cts in chunk_inputs
            for ct in cts
        ]
        return Message("task", meta, blobs)

    def _execute_row_split(
        self, entry, layer, batch_inputs, key_ids, workers, deadline=None,
        trace_ctxs=None,
    ):
        batch = len(batch_inputs)
        ctxs = list(trace_ctxs or [])
        ctxs += [None] * (batch - len(ctxs))
        shards = min(batch, workers)
        bounds = [round(i * batch / shards) for i in range(shards + 1)]
        spans = [bounds[i : i + 2] for i in range(shards)
                 if bounds[i] < bounds[i + 1]]
        tasks = [
            self._task(
                entry, layer,
                batch_inputs[lo:hi],
                key_ids[lo:hi],
                trace_ctxs=ctxs[lo:hi],
            )
            for lo, hi in spans
        ]
        replies = self.pool.execute(tasks, deadline=deadline)
        outputs = []
        for (lo, hi), reply in zip(spans, replies):
            self._trace_task(ctxs[lo:hi], reply)
            outputs.extend(self._parse_outputs(entry, reply))
        return outputs

    def _execute_oc_split(
        self, entry, layer, cts, key_id, workers, deadline=None, trace_ctx=None
    ):
        shards = min(workers, layer.co)
        bounds = [round(i * layer.co / shards) for i in range(shards + 1)]
        tasks = [
            self._task(
                entry, layer, [cts], [key_id],
                oc_range=(bounds[i], bounds[i + 1]),
                trace_ctxs=[trace_ctx],
            )
            for i in range(shards)
            if bounds[i] < bounds[i + 1]
        ]
        replies = self.pool.execute(tasks, deadline=deadline)
        merged: list = []
        for reply in replies:
            self._trace_task([trace_ctx], reply)
            merged.extend(self._parse_outputs(entry, reply)[0])
        return [merged]

    def _trace_task(self, ctxs, reply: Message) -> None:
        """Record one accepted task's spans into each participating trace.

        The ``shard_task`` span is the coordinator-clock envelope (first
        dispatch of attempt 0 to accepted receive); when the accepted
        reply came from a retry, the lost attempt's window shows up as a
        sibling ``shard_requeue`` span (first dispatch to the winning
        re-dispatch) rather than disappearing.  Worker offset spans are
        anchored inside the envelope by :meth:`Tracer.ingest`.
        """
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return
        env = reply.meta.get("env")
        if not isinstance(env, dict):
            return
        first = env.get("first_dispatch")
        dispatch = env.get("dispatch")
        recv = env.get("recv")
        if first is None or dispatch is None or recv is None:
            return
        attempts = int(env.get("attempt") or 0)
        worker = env.get("worker")
        task_id = reply.meta.get("task")
        worker_spans = reply.meta.get("spans") or []
        for ctx in ctxs:
            if ctx is None:
                continue
            span_id = tracer.record(
                ctx.trace_id, "shard_task", first, recv,
                parent_id=ctx.span_id,
                task=task_id, worker=worker, attempts=attempts,
            )
            if attempts > 0:
                tracer.record(
                    ctx.trace_id, "shard_requeue", first, dispatch,
                    parent_id=ctx.span_id, task=task_id, attempts=attempts,
                )
            tracer.ingest(
                ctx.trace_id, span_id, worker_spans, dispatch, recv,
                worker=worker,
            )

    def _parse_outputs(self, entry, reply: Message):
        """Deserialize a reply's ciphertexts and fold in its op counters.

        Only *accepted* replies reach this point (the pool's collectors
        drop duplicates and stale attempts), so each task's counter
        delta is folded exactly once no matter how many attempts ran.
        """
        counters = reply.meta.get("counters", {})
        GLOBAL_COUNTERS.he_mult += int(counters.get("he_mult", 0))
        GLOBAL_COUNTERS.he_add += int(counters.get("he_add", 0))
        GLOBAL_COUNTERS.he_rotate += int(counters.get("he_rotate", 0))
        GLOBAL_COUNTERS.ntt += int(counters.get("ntt", 0))
        GLOBAL_COUNTERS.modmuls += int(counters.get("modmuls", 0))
        GLOBAL_COUNTERS.butterflies += int(counters.get("butterflies", 0))
        outputs, offset = [], 0
        for count in reply.meta.get("outputs_per_request", []):
            count = int(count)
            outputs.append(
                [
                    deserialize_ciphertext(blob, entry.params)
                    for blob in reply.blobs[offset : offset + count]
                ]
            )
            offset += count
        return outputs


# -- the worker ---------------------------------------------------------------


class ShardWorkerServer:
    """A shard worker: one artifact zoo serving coordinator connections.

    The pool's only worker implementation.  As a standalone ``tcp://``
    worker (``repro shard-worker``) it runs :meth:`start`: the zoo is
    ``load_zoo``'d eagerly (so a bad artifact dir fails before the port
    is announced), then coordinators connect.  A local slot runs the
    same connection loop inside a forked child on one end of a
    socketpair (:func:`_local_worker_main`), with its real worker id and
    incarnation (a ``tcp://`` worker reports ``-1``/``0``) and
    ``shares_clock`` set.

    Each connection speaks the stream protocol of the module docstring:
    ``shard_hello``/``shard_ready`` handshake, then ``keys``/
    ``drop_keys`` frames and ``ping``/``task`` requests answered with
    ``claimed`` + ``result`` frames.  Per-connection state is only the
    Galois-key cache: the coordinator ships keys per connection (see
    :meth:`ShardPool._dispatch_locked`), so dropping the cache with the
    connection is exactly right.
    ``deadline_mono`` in task frames is a coordinator-clock
    ``time.monotonic()`` instant, honoured only when ``shares_clock``
    (a forked worker); another host's clock is not comparable, and the
    coordinator still enforces the deadline on its side.

    Binding ``port=0`` picks a free port (``host``/``port``/
    ``endpoint`` report the bound address), which is what tests use to
    avoid port races.
    """

    def __init__(
        self,
        artifact_dir,
        host: str = "127.0.0.1",
        port: int = 0,
        verify: bool | str = True,
        ntt_native: bool | None = None,
        fault_plan: WorkerFaults | None = None,
    ):
        self.artifact_dir = str(artifact_dir)
        self._requested = (str(host), int(port))
        self.verify = verify
        self.ntt_native = ntt_native
        self.fault_plan = (
            WorkerFaults.from_env() if fault_plan is None else fault_plan
        )
        #: Identity in claims, ping replies and fault hooks.
        self.worker_id = -1
        self.incarnation = 0
        #: Whether task deadlines are on this process's monotonic clock.
        self.shares_clock = False
        self.registry = None
        self.host: str | None = None
        self.port: int | None = None
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._conns: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        self._stopping = threading.Event()
        self.tasks_served = 0
        #: Serialises zoo reloads triggered by concurrent handshakes.
        self._reload_lock = threading.Lock()
        self.reloads_total = 0

    @property
    def endpoint(self) -> str:
        """The ``tcp://host:port`` spec coordinators pass as an endpoint."""
        if self.host is None:
            raise ShardError("shard worker server is not started")
        return f"tcp://{self.host}:{self.port}"

    def load(self) -> None:
        """Load the zoo (pinning the NTT backend first when asked)."""
        if self.ntt_native is not None:
            _force_ntt_backend(bool(self.ntt_native))
        from ..artifacts.zoo import load_zoo

        self.registry = load_zoo(self.artifact_dir, verify=self.verify)

    def start(self) -> "ShardWorkerServer":
        if self._listener is not None:
            raise ShardError("shard worker server already started")
        self.load()
        self._listener = bind_listener(*self._requested)
        self.host, self.port = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"repro-shard-worker-{self.port}",
            daemon=True,
        )
        self._accept_thread.start()
        logger.info("shard worker serving %s on %s",
                    self.registry.names(), self.endpoint)
        return self

    def stop(self) -> None:
        if self._stopping.is_set():
            return
        self._stopping.set()
        if self._listener is not None:
            try:
                # Poke the accept loop awake so it observes _stopping.
                with socket.create_connection(
                    (self.host, self.port), timeout=1.0
                ):
                    pass
            except OSError:  # pragma: no cover - already closing
                pass
            self._listener.close()
        with self._conn_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "ShardWorkerServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    def _maybe_reload(self) -> None:
        """Pick up a regenerated zoo when the manifest generation moved.

        Called on every new coordinator connection, which is exactly when
        a rolling upgrade reaches this worker: the coordinator drains the
        slot, drops the connection, and reconnects -- the new
        connection's handshake then serves as the upgrade trigger.
        In-flight tasks on *other* connections keep their
        already-resolved registry entries (read-copy-update, same as
        :meth:`~repro.serving.registry.ModelRegistry.reload_zoo`).  A
        reload failure is logged and the current generation keeps
        serving: availability beats freshness for a worker.
        """
        from ..artifacts.format import ArtifactError
        from ..artifacts.zoo import manifest_generation, read_manifest

        with self._reload_lock:
            try:
                generation = manifest_generation(
                    read_manifest(self.artifact_dir)
                )
                if generation == self.registry.zoo_generation:
                    return
                summary = self.registry.reload_zoo(
                    self.artifact_dir, verify=self.verify
                )
            except ArtifactError as exc:
                logger.warning(
                    "shard worker keeping zoo generation %d (reload of %s "
                    "failed: %s)",
                    self.registry.zoo_generation, self.artifact_dir, exc,
                )
                return
            if summary["applied"]:
                self.reloads_total += 1
                logger.info(
                    "shard worker reloaded zoo %s: generation %d -> %d",
                    self.artifact_dir, summary["previous_generation"],
                    summary["generation"],
                )

    # -- connection handling ------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, addr = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            if self._stopping.is_set():
                conn.close()
                return
            with self._conn_lock:
                self._conns.add(conn)
            threading.Thread(
                target=self._serve_conn,
                args=(conn, addr),
                name=f"repro-shard-worker-conn-{addr[1]}",
                daemon=True,
            ).start()

    def _serve_conn(self, conn: socket.socket, peer) -> None:
        """One coordinator connection: handshake, then serve frames.

        Any protocol violation or stream failure closes the connection;
        the coordinator's supervision treats that as a worker death and
        reconnects, shipping keys afresh, so there is nothing to salvage
        here (crash-only).
        """
        keys = _KeyCache(lambda model: self.registry.get(model).params)
        tasks_claimed = 0
        try:
            payload = recv_frame(conn)
            if payload is None:
                return
            hello = decode_message(payload)
            if hello.kind != "shard_hello":
                raise ValueError(f"expected shard_hello, got {hello.kind!r}")
            self._maybe_reload()
            send_frame(conn, encode_message(Message(
                "shard_ready",
                {"models": self.registry.names(), "pid": os.getpid()},
            )))
            while not self._stopping.is_set():
                payload = recv_frame(conn)
                if payload is None:
                    return  # coordinator closed cleanly
                request = decode_message(payload)
                if request.kind == "keys":
                    key_id, model = request.require("key_id", "model")
                    keys.put(key_id, model, request.blobs[0])
                elif request.kind == "drop_keys":
                    keys.drop(request.require("key_id"))
                else:
                    if request.kind == "task":
                        tasks_claimed += 1
                    self._serve_request(conn, request, keys, tasks_claimed)
        except (OSError, ValueError, KeyError) as exc:
            if not self._stopping.is_set():
                logger.warning(
                    "shard worker connection from %s failed: %s", peer, exc
                )
        finally:
            with self._conn_lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass

    def _serve_request(self, conn, request: Message, keys: _KeyCache,
                       tasks_claimed: int) -> None:
        """Answer one ping/task frame with ``claimed`` + ``result``.

        ``tasks_claimed`` counts this connection's ``task`` frames
        (1-based, pings excluded) for the fault hooks.
        """
        attempt = attempt_of(request)
        task_id = request.meta.get("task", "?")
        identity = {"worker": self.worker_id, "incarnation": self.incarnation}
        send_frame(conn, encode_message(Message(
            "claimed", {"task": task_id, "attempt": attempt, **identity},
        )))
        try:
            if request.kind == "ping":
                reply = Message(
                    "result",
                    {
                        "task": request.require("task"),
                        "status": "ok",
                        "attempt": attempt,
                        **identity,
                        "models": self.registry.names(),
                        "cached_keys": keys.ids(),
                        "pid": os.getpid(),
                    },
                )
            elif request.kind == "task":
                if self.fault_plan is not None:
                    self.fault_plan.on_task(
                        self.worker_id, self.incarnation, tasks_claimed
                    )
                deadline_mono = request.meta.get("deadline_mono")
                if (
                    self.shares_clock
                    and deadline_mono is not None
                    and time.monotonic() > float(deadline_mono)
                ):
                    raise ShardError(
                        "request deadline exceeded before execution"
                    )
                before = GLOBAL_COUNTERS.snapshot()
                reply = _run_task(self.registry, keys, request)
                # An in-process server (the test topology) shares
                # GLOBAL_COUNTERS with the coordinator; roll this task's
                # contribution back so the coordinator's fold of the
                # reply delta is the one and only accounting -- exactly
                # the arithmetic a separate-process worker gives.
                delta = GLOBAL_COUNTERS.diff(before)
                GLOBAL_COUNTERS.he_mult -= delta.he_mult
                GLOBAL_COUNTERS.he_add -= delta.he_add
                GLOBAL_COUNTERS.he_rotate -= delta.he_rotate
                GLOBAL_COUNTERS.ntt -= delta.ntt
                GLOBAL_COUNTERS.modmuls -= delta.modmuls
                GLOBAL_COUNTERS.butterflies -= delta.butterflies
                self.tasks_served += 1
            else:
                raise ShardError(f"unknown shard request {request.kind!r}")
        except Exception as exc:  # keep the connection alive for retries
            reply = Message(
                "result",
                {
                    "task": task_id,
                    "status": "error",
                    "attempt": attempt,
                    "reason": (
                        f"shard worker {self.worker_id}: "
                        f"{type(exc).__name__}: {exc}"
                    ),
                },
            )
        send_frame(conn, encode_message(reply))
