"""The repo benchmark: private-inference serving at the 128-bit n=4096 set.

    python3 perfbench/run.py --workload serial --seed 1 --seconds 25 --trace 0

Runs one workload against a real ``repro serve`` process (``demo_params()``,
``sched-ia``, native NTT when a C compiler is present) and checks every
reply's logits bit-for-bit against ``PlaintextRunner``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` is the traced
run: half of ``--seconds`` untraced, half against a server whose layer
functions are wrapped by ``traced_serve.py`` (with the client's wrapped
too), and prints the per-layer metrics, each per request unless its unit
says otherwise, plus the tracing overhead between the two halves.

Every run writes a record with its provenance to
``.perfbench/records/``; ``compare.py`` compares two sets of records and
refuses when their environments differ.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

#: ``open`` (the ``sharded`` schedule against an in-process server) is
#: not in BENCHMARK.json: its p90 varied 21-26% across seeds, above the
#: bound, because overlapping requests share one interpreter lock.
WORKLOADS = ("serial", "one-shot", "sharded", "open")
#: Offered load of ``open`` and ``sharded``, requests per second: one
#: arrival in each 1/3 s slot (see ``loadgen.Inputs.arrivals``).
OFFERED_RPS = 3.0
#: Server spawns per untraced run; ``setup_s`` is their median.
SETUP_REPS = 5
SHARD_WORKERS = 2
#: Workloads whose per-request HE-op counts and wire bytes are exact:
#: no two requests overlap in the server.
EXACT = ("serial", "one-shot")
#: Least share of the client-observed request time the recorded layers'
#: self times must cover on the traced ``serial`` run.
CLOSURE_MIN = 0.90
#: Bytes a frame may differ from the census by (see ``exact_checks``).
WIRE_SLACK_PER_FRAME = 16

#: Which end-to-end metric each layer metric should move, on which
#: workload.  Printed with every traced record.
LAYER_MOVES = {
    "bfv.*": "latency_p50_ms on serial; latency_p90_ms on sharded",
    "executor.*": "latency_p50_ms on serial",
    "engine.*": "latency_p50_ms on serial; latency_p90_ms on sharded",
    "frontend.wait_ms": "latency_p90_ms on sharded",
    "protocol.blind_ms": "latency_p50_ms on serial",
    "wire.*": "session_setup_p50_ms, wire_kb_per_request on one-shot",
    "client.*": "session_setup_p50_ms on one-shot",
    "shards.*": "latency_p50_ms, setup_s on sharded",
    "registry.compile_ms": "setup_s on serial, one-shot",
    "artifacts.load_ms": "setup_s on sharded",
    "loadgen.*": "explains latency_p90_ms on sharded",
}

#: Environment fields two records must share to be compared.
ENVIRONMENT = (
    "host_cores", "params", "ntt_path", "workload", "offered_rps",
    "run_seconds", "trace", "python", "numpy",
)


def _percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _commit() -> str | None:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in (".py", ".c") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, params, ntt_path: str) -> dict:
    import numpy as np

    return {
        "host_cores": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "params": params.describe(),
        "security_level": params.security_level,
        "ntt_path": ntt_path,
        "workload": args.workload,
        "seed": args.seed,
        "offered_rps": OFFERED_RPS if args.workload in ("open", "sharded")
        else None,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# -- driving one server --------------------------------------------------------


def _server_kwargs(workload: str, zoo: Path | None) -> dict:
    if workload == "sharded":
        return {"workers": SHARD_WORKERS, "artifacts": zoo}
    return {}


def _compile_zoo(log: Path) -> Path:
    """Compile the demo deployment into a fresh zoo for ``sharded``."""
    import shutil
    import subprocess

    zoo = WORK / "zoo"
    shutil.rmtree(zoo, ignore_errors=True)
    zoo.mkdir(parents=True)
    with open(log, "ab") as out:
        subprocess.run(
            [sys.executable, "-m", "repro", "compile", "demo",
             "-o", str(zoo / "demo.rpa"), "--manifest"],
            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            stdout=out, stderr=subprocess.STDOUT, check=True, timeout=300,
        )
    return zoo


def drive(server, workload: str, inputs, seconds: float, recorder=None):
    """Warm up, then run the timed phase.

    Returns ``(load, metrics before, metrics after, health before,
    health after)``, the server snapshots bracketing the timed phase.
    """
    import loadgen

    load = loadgen.Load()
    if workload == "one-shot":
        ok, connect_s, _wire = loadgen.one_shot(inputs, server.port, 0)
        if not ok:
            raise RuntimeError("warm-up one-shot request returned wrong logits")
        load.connects.append(connect_s)
        before = server.metrics(), server.health()
        loadgen.one_shot_loop(inputs, server.port, seconds, load, recorder)
        return (load, before[0], server.metrics(), before[1], server.health())
    keep = 1 if workload == "serial" else 2
    clients = loadgen.open_persistent(inputs, server.port, keep, load)
    try:
        before = server.metrics(), server.health()
        if workload == "serial":
            loadgen.closed_loop(clients[0], seconds, load, recorder)
        else:
            offsets = inputs.arrivals(OFFERED_RPS, seconds)
            loadgen.open_loop(clients, offsets, load, recorder)
        return (load, before[0], server.metrics(), before[1], server.health())
    finally:
        for client in clients:
            client.close()


def _he_delta(before: dict, after: dict) -> dict:
    return {k: after["he_ops"][k] - before["he_ops"][k] for k in after["he_ops"]}


def exact_checks(workload: str, load, m0: dict, m1: dict, census) -> dict:
    """Per-request HE ops and wire bytes against the in-process census."""
    from loadgen import HE_OPS

    phases = ["infer"] if workload == "serial" else ["connect", "infer", "close"]
    expected_ops = {
        name: sum(census.ops.get(p, {}).get(name, 0) for p in phases)
        for name in HE_OPS
    }
    expected_bytes = sum(census.bytes.get(p, 0) for p in phases)
    delta = _he_delta(m0, m1)
    served = load.attempted - load.failed
    ops_ok = load.failed == 0 and all(
        delta[name] == expected_ops[name] * served for name in HE_OPS
    )
    # Blob headers carry their CRC-32, and frames the session id, as JSON
    # decimals, so a request's size varies by a few bytes with content;
    # anything larger (a blob added, dropped or resized) fails.
    slack = WIRE_SLACK_PER_FRAME * sum(census.frames.get(p, 0) for p in phases)
    bytes_ok = bool(load.wire_bytes) and all(
        abs(size - expected_bytes) <= slack for size in load.wire_bytes
    )
    return {
        "exact_he_ops": ops_ok,
        "wire_bytes_within_slack": bytes_ok,
        "census_he_ops_per_request": expected_ops,
        "census_wire_bytes_per_request": expected_bytes,
    }


# -- untraced run: end-to-end metrics ------------------------------------------


def untraced_run(args, inputs, zoo, census, log: Path) -> dict:
    from server import Server

    kwargs = _server_kwargs(args.workload, zoo)
    setups = []
    for rep in range(SETUP_REPS):
        server = Server(log, **kwargs)
        try:
            setups.append(server.start())
        finally:
            if rep < SETUP_REPS - 1:
                server.stop()
    try:
        load, m0, m1, _h0, _h1 = drive(
            server, args.workload, inputs, args.seconds
        )
        rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    lat_ms = [s * 1000 for s in load.latencies]
    metrics = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": _percentile(lat_ms, 50),
        "latency_p90_ms": _percentile(lat_ms, 90),
        "throughput_rps": (load.attempted - load.failed)
        / max(load.end - load.start, 1e-9),
        "session_setup_p50_ms": statistics.median(load.connects) * 1000,
        "ok_ratio": 1.0 - load.failed / max(load.attempted, 1),
        "server_rss_mb": rss_mb,
        "wire_kb_per_request": statistics.median(load.wire_bytes) / 1024
        if load.wire_bytes else float("nan"),
    }
    checks = {"logits_bit_identical": load.wrong == 0 and load.attempted > 0}
    if args.workload in EXACT:
        checks.update(exact_checks(args.workload, load, m0, m1, census))
    else:
        checks["he_ops_note"] = "not exact under overlap; not checked"
    return {
        "metrics": metrics,
        "checks": checks,
        "load": _load_summary(load),
        "setup_samples_s": setups,
        "failed_ratio": load.failed / max(load.attempted, 1),
        "he_ops_per_request": {
            k: v / max(load.attempted - load.failed, 1)
            for k, v in _he_delta(m0, m1).items()
        },
    }


def _load_summary(load) -> dict:
    return {
        "attempted": load.attempted,
        "failed": load.failed,
        "wrong_logits": load.wrong,
        "latency_samples": len(load.latencies),
        "session_samples": len(load.connects),
        "seconds": load.end - load.start,
    }


# -- traced run: per-layer metrics ---------------------------------------------


def traced_run(args, inputs, zoo, census, log: Path) -> dict:
    from server import Server
    from spans import CLIENT_TARGETS, SpanRecorder, totals

    kwargs = _server_kwargs(args.workload, zoo)
    half = args.seconds / 2
    server = Server(log, **kwargs)
    try:
        server.start()
        plain, *_ = drive(server, args.workload, inputs, half)
    finally:
        server.stop()

    spans_file = WORK / f"spans-{args.workload}.json"
    spans_file.unlink(missing_ok=True)
    server = Server(log, spans_out=spans_file, **kwargs)
    recorder = SpanRecorder()
    try:
        server.start()
        recorder.install(CLIENT_TARGETS)
        load, m0, m1, h0, h1 = drive(
            server, args.workload, inputs, half, recorder
        )
    finally:
        recorder.uninstall()
        server.stop()
    server_spans = json.loads(spans_file.read_text())
    window = (load.start, load.end)
    srv = totals(server_spans, *window)
    cli = totals(recorder.spans, *window)
    setup = totals(server_spans)
    served = max(load.attempted - load.failed, 1)

    def self_ms(table, name):
        return table.get(name, [0.0, 0.0, 0])[0] * 1000 / served

    def incl_ms(table, name):
        return table.get(name, [0.0, 0.0, 0])[1] * 1000 / served

    he = _he_delta(m0, m1)
    fill0, fill1 = m0["batch_fill"], m1["batch_fill"]
    batches = fill1["batches"] - fill0["batches"]
    # /healthz answers 503 (read as None) while the pool is degraded.
    pool0, pool1 = (h0 or {}).get("pool", {}), (h1 or {}).get("pool", {})
    metrics = {
        "bfv.mac_ms": self_ms(srv, "bfv.mac"),
        "bfv.crt_ms": self_ms(srv, "bfv.crt"),
        "bfv.digit_ms": self_ms(srv, "bfv.digit"),
        "bfv.ntt_ms": self_ms(srv, "bfv.ntt"),
        "bfv.keyswitch_self_ms": self_ms(srv, "bfv.keyswitch"),
        "bfv.ntt": he["ntt"] / served,
        "bfv.modmuls": he["modmuls"] / served,
        "bfv.rotations": he["he_rotate"] / served,
        "bfv.he_mult": he["he_mult"] / served,
        **{
            f"executor.{layer}_ms": self_ms(srv, f"executor.{layer}")
            for layer in ("conv1", "fc1", "fc2")
        },
        "engine.self_ms": self_ms(srv, "engine.handle"),
        "engine.batch_fill_mean": (
            (fill1["requests"] - fill0["requests"]) / batches if batches
            else 0.0
        ),
        "engine.degraded_calls": m1["gauges"]["degraded_calls"]
        - m0["gauges"]["degraded_calls"],
        "frontend.wait_ms": incl_ms(cli, "client.round")
        - incl_ms(srv, "engine.handle"),
        "protocol.blind_ms": self_ms(srv, "protocol.blind"),
        "wire.keys_ser_ms": self_ms(cli, "wire.keys_ser"),
        "wire.keys_deser_ms": self_ms(srv, "wire.keys_deser"),
        "wire.keys_kb": census.key_bytes / 1024,
        "wire.ct_ms": self_ms(srv, "wire.ct") + self_ms(cli, "wire.ct"),
        "client.keygen_ms": self_ms(cli, "client.keygen"),
        "client.encrypt_ms": self_ms(cli, "client.encrypt"),
        "client.decrypt_ms": self_ms(cli, "client.decrypt"),
        "client.gc_ms": self_ms(cli, "client.gc"),
        "shards.execute_ms": self_ms(srv, "shards.execute"),
        "shards.prepare_keys_ms": self_ms(srv, "shards.prepare_keys"),
        "shards.retries": pool1.get("retries_total", 0)
        - pool0.get("retries_total", 0),
        "shards.respawns": pool1.get("respawns_total", 0)
        - pool0.get("respawns_total", 0),
        "registry.compile_ms":
            setup.get("registry.compile", [0, 0.0, 0])[1] * 1000,
        "artifacts.load_ms": setup.get("artifacts.load", [0, 0.0, 0])[1] * 1000,
        "loadgen.lag_ms": statistics.fmean(load.lag) * 1000 if load.lag
        else 0.0,
        "loadgen.queue_ms": statistics.fmean(load.queue) * 1000
        if load.queue else 0.0,
    }
    request_ms = incl_ms(cli, "client.request")
    layer_ms = sum(
        value for name, value in metrics.items()
        if name.endswith("_ms") and not name.startswith(("loadgen.",
                                                         "registry.",
                                                         "artifacts."))
    )
    metrics["trace.closure_pct"] = 100 * layer_ms / request_ms
    plain_p50 = _percentile(plain.latencies, 50)
    metrics["trace.overhead_pct"] = 100 * (
        _percentile(load.latencies, 50) / plain_p50 - 1
    )
    checks = {
        "logits_bit_identical": plain.wrong == 0 and load.wrong == 0
        and load.attempted > 0,
    }
    if args.workload in EXACT:
        checks.update(exact_checks(args.workload, load, m0, m1, census))
    else:
        checks["he_ops_note"] = "not exact under overlap; not checked"
    if args.workload == "serial":
        checks["span_closure"] = metrics["trace.closure_pct"] >= 100 * CLOSURE_MIN
    return {
        "metrics": metrics,
        "checks": checks,
        "load": _load_summary(load),
        "untraced_load": _load_summary(plain),
        "request_ms": request_ms,
        "failed_ratio": (plain.failed + load.failed)
        / max(plain.attempted + load.attempted, 1),
        "layer_moves": LAYER_MOVES,
    }


def figure7(metrics: dict, request_ms: float) -> str:
    """The measured Figure 7 beside the paper's and the analytic census."""
    from repro.core.baselines import cheetah_configuration
    from repro.nn.models import build_model
    from repro.profiling import network_profile
    from repro.serving import demo_network

    measured = {
        "NTT": metrics["bfv.ntt_ms"],
        "MAC (key-switch + plaintext)": metrics["bfv.mac_ms"],
        "CRT + digit": metrics["bfv.crt_ms"] + metrics["bfv.digit_ms"],
        "key-switch other": metrics["bfv.keyswitch_self_ms"],
    }
    measured["rest"] = request_ms - sum(measured.values())
    paper = {"ntt": 55.2, "rotate": 31.8, "mult": 10.3, "add": 2.2}
    demo = network_profile(
        cheetah_configuration(demo_network()).tuned_layers
    ).fractions()
    resnet = network_profile(
        cheetah_configuration(build_model("ResNet50")).tuned_layers
    ).fractions()
    lines = [
        f"Figure 7, measured on serial ({request_ms:.1f} ms per request):",
        *(f"  {name:<30}{ms:>9.1f} ms {100 * ms / request_ms:>6.1f}%"
          for name, ms in measured.items()),
        f"  {'kernel':<10}{'paper ResNet50':>16}{'analytic ResNet50':>19}"
        f"{'analytic demo':>15}",
        *(f"  {k:<10}{paper.get(k, 0.0):>15.1f}%{100 * resnet[k]:>18.1f}%"
          f"{100 * demo[k]:>14.1f}%" for k in ("ntt", "rotate", "mult", "add")),
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import loadgen
    from repro.bfv.ntt_batch import get_engine

    WORK.mkdir(exist_ok=True)
    log = WORK / f"server-{args.workload}.log"
    log.write_bytes(b"")
    inputs = loadgen.Inputs(args.seed)
    params = inputs.params
    # Builds the native NTT kernel now, so no server start pays for it.
    engine = get_engine(params.n, params.coeff_basis.primes)
    ntt_path = "native" if engine.uses_native_kernel else "numpy"
    zoo = _compile_zoo(log) if args.workload == "sharded" else None
    census = (
        loadgen.census(inputs)
        if args.trace or args.workload in EXACT else None
    )
    run = (traced_run if args.trace else untraced_run)(
        args, inputs, zoo, census, log
    )
    if args.trace and args.workload == "serial":
        run["figure7"] = figure7(run["metrics"], run["request_ms"])
    record = {"provenance": provenance(args, params, ntt_path), **run}
    records = WORK / "records"
    records.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (records / name).write_text(json.dumps(record, indent=1, default=str))

    print("provenance: " + json.dumps(record["provenance"]))
    print("checks: " + json.dumps(run["checks"]))
    print(f"failed_ratio: {run['failed_ratio']}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        m["name"]: m["unit"]
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    if set(units) != set(run["metrics"]):
        raise RuntimeError(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(run['metrics']))}"
        )
    metrics = {
        name: {"value": run["metrics"][name], "unit": unit}
        for name, unit in units.items()
    }
    for name, metric in metrics.items():
        print(f"  {name:<26}{metric['value']:>16.4f} {metric['unit']}")
    if args.trace:
        print("layer metric -> end-to-end metric it should move:")
        for layer, moves in LAYER_MOVES.items():
            print(f"  {layer:<22}{moves}")
        if args.workload != "serial":
            print("bfv op counts are not exact when requests overlap")
    if args.trace and args.workload == "serial":
        print(run["figure7"])
    checks_ok = all(v for v in run["checks"].values() if isinstance(v, bool))
    print(json.dumps({
        "correct": checks_ok,
        "attempted": run["load"]["attempted"],
        "failed": run["load"]["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
