"""In-memory spans recorded around the program's public functions.

The benchmark does not rely on the program's own tracer: it wraps the
functions that bound each layer (class attributes, plus the names that
consumer modules bind with ``from ... import``) and records one span per
call.  A span's parent is the span open on the same thread when it
started, so its self time -- its duration minus the time its children
cover -- is computed as it closes.  Spans stay in memory until the run
writes them out.

Timestamps are ``time.monotonic()``, which is the same clock in every
process of the host, so the load generator can select the server spans
that fall inside its timed window.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from contextlib import contextmanager


class SpanRecorder:
    """Wraps functions to record ``(name, start, end, self_s)`` spans.

    Only the process that created the recorder records: forked shard
    workers inherit the wrappers but call straight through, so a sharded
    server yields coordinator-side spans only.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, float]] = []
        self._local = threading.local()
        self._pid = os.getpid()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body."""
        stack = self._stack()
        frame = [time.monotonic(), 0.0]  # start, time covered by children
        stack.append(frame)
        try:
            yield
        finally:
            end = time.monotonic()
            stack.pop()
            duration = end - frame[0]
            if stack:
                stack[-1][1] += duration
            self.spans.append((name, frame[0], end, duration - frame[1]))

    def wrap(self, owner, attr: str, name) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``name`` is the span name, or a callable taking the call's
        ``(args, kwargs)`` and returning it.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        label = name if callable(name) else (lambda _a, _k, n=name: n)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if os.getpid() != self._pid:
                return original(*args, **kwargs)
            with self.span(label(args, kwargs)):
                return original(*args, **kwargs)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self, targets) -> "SpanRecorder":
        """Wrap every ``(module, qualified attribute, name)`` target."""
        for module_name, qualname, name in targets:
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            self.wrap(owner, attr, name)
        return self

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def _layer_of(args, _kwargs) -> str:
    """``executor.<layer>`` for ``execute(self, entry, layer, ...)``."""
    return f"executor.{args[2].name}"


#: Server-side spans, one row per wrapped function: (module, attribute,
#: span name).  Several functions share a name when they make up one
#: layer metric; ``engine.handle``'s self time is the engine's own work.
SERVER_TARGETS = [
    ("repro.bfv.ntt_batch", "RnsNttEngine.forward", "bfv.ntt"),
    ("repro.bfv.ntt_batch", "RnsNttEngine.inverse", "bfv.ntt"),
    ("repro.bfv.ntt_batch", "RnsNttEngine.pointwise_accumulate", "bfv.mac"),
    ("repro.bfv.ntt_batch", "RnsNttEngine.pointwise_accumulate_grouped",
     "bfv.mac"),
    ("repro.bfv.rns", "RnsBasis.compose", "bfv.crt"),
    ("repro.bfv.rns", "RnsBasis.decompose", "bfv.crt"),
    ("repro.bfv.rns", "RnsBasis.decompose_stack", "bfv.crt"),
    ("repro.bfv.scheme", "digit_decompose", "bfv.digit"),
    ("repro.bfv.scheme", "BfvScheme.apply_galois", "bfv.keyswitch"),
    ("repro.bfv.scheme", "BfvScheme.hoist", "bfv.keyswitch"),
    ("repro.bfv.scheme", "BfvScheme._apply_galois_hoisted", "bfv.keyswitch"),
    ("repro.bfv.scheme", "BfvScheme.hoist_group", "bfv.keyswitch"),
    ("repro.bfv.scheme", "BfvScheme._apply_galois_group", "bfv.keyswitch"),
    ("repro.serving.engine", "LocalExecutor.execute", _layer_of),
    ("repro.serving.engine", "ServingEngine.handle", "engine.handle"),
    ("repro.serving.engine", "blind_ciphertext_rows", "protocol.blind"),
    ("repro.serving.engine", "deserialize_galois_keys", "wire.keys_deser"),
    ("repro.serving.engine", "deserialize_ciphertext", "wire.ct"),
    ("repro.serving.engine", "serialize_ciphertext", "wire.ct"),
    ("repro.serving.shards", "ShardExecutor.execute", "shards.execute"),
    ("repro.serving.shards", "ShardExecutor.prepare_keys",
     "shards.prepare_keys"),
    ("repro.serving.registry", "ModelRegistry.register", "registry.compile"),
    ("repro.artifacts", "load_zoo", "artifacts.load"),
]

#: Client-side spans, installed in the load generator's process.
CLIENT_TARGETS = [
    ("repro.serving.session", "BfvScheme.keygen", "client.keygen"),
    ("repro.serving.session", "BfvScheme.generate_galois_keys",
     "client.keygen"),
    ("repro.serving.session", "BfvScheme.encrypt", "client.encrypt"),
    ("repro.serving.session", "BfvScheme.decrypt", "client.decrypt"),
    ("repro.bfv.encoder", "BatchEncoder.encode_row", "client.encrypt"),
    ("repro.bfv.encoder", "BatchEncoder.decode_row", "client.decrypt"),
    ("repro.serving.session", "pad_and_grid_conv_input", "client.encrypt"),
    ("repro.serving.session", "pack_image", "client.encrypt"),
    ("repro.serving.session", "pack_fc_input", "client.encrypt"),
    ("repro.serving.session", "decrypt_conv_outputs", "client.decrypt"),
    ("repro.serving.session", "gc_postprocess", "client.gc"),
    ("repro.serving.session", "serialize_galois_keys", "wire.keys_ser"),
    ("repro.serving.session", "serialize_ciphertext", "wire.ct"),
    ("repro.serving.session", "deserialize_ciphertext", "wire.ct"),
    ("repro.serving.transport", "SocketTransport.request", "client.round"),
]


def totals(spans, start: float = float("-inf"), end: float = float("inf")):
    """Per-name ``(self seconds, inclusive seconds, calls)`` in a window.

    A span counts when it starts at or after ``start`` and ends at or
    before ``end``.
    """
    out: dict[str, list] = {}
    for name, s_start, s_end, self_s in spans:
        if s_start >= start and s_end <= end:
            entry = out.setdefault(name, [0.0, 0.0, 0])
            entry[0] += self_s
            entry[1] += s_end - s_start
            entry[2] += 1
    return out
