"""Serving throughput: coalesced mega-batches vs per-request ``run()``.

The serving subsystem's claim is that cross-request dynamic batching turns
PR 1's fast path into end-to-end throughput: many callers' small requests
coalesce into one linearized mega-batch through the shared host plan and
arena, so the per-call host overhead (validation, linearization, kernel
launches, workspace setup) is paid once per *flush* instead of once per
*caller* — exactly the DyNet/Cavs-style batching win the paper's §2
baselines get, obtained here with zero recompilation.

The sweep drives a fixed stream of independent requests at several request
sizes (trees per request) through:

* ``per_request`` — the natural per-caller path: one ``model.run(roots)``
  per request (full validation, fresh workspace);
* ``serve_fN``    — a ``ModelServer`` with ``MaxPendingRequests(N)``; N=1
  isolates scheduler overhead (no coalescing), larger N adds coalescing;
* ``degraded``    — the flush-32 server under a seeded FaultInjector
  failing 10% of executions with transient kernel faults: what resilience
  (bounded retry + bisection isolation) costs when chaos is actually
  firing, reported with the stream's end-to-end error rate;
* ``traced``      — the flush-32 server with a :class:`repro.obs.Tracer`
  attached: what full span recording (one root span per request, one
  span tree per flush) costs over the identical untraced configuration.
  The tracing-off columns *are* the instrumented code with ``tracer=None``
  — pointer-check-only hot path — so the f32-vs-per-request gate doubles
  as the "tracing disabled costs nothing" gate.

Results go to ``BENCH_serve.json`` at the repo root.  The acceptance gate
is the ``treelstm`` request-size-1 row: coalesced serving (flush 32) must
be >= 2x per-request throughput, with bit-identical outputs (asserted in
``tests/test_serve.py``).
"""

import time
from pathlib import Path

import numpy as np

from conftest import save_result
from repro.baselines import grnn_like
from repro.bench import (baseline_latency_ms, cortex_latency_ms,
                         cortex_model, format_table, record_bench_json)
from repro.data import synthetic_treebank
from repro.obs import Tracer
from repro.runtime import V100
from repro.runtime.memory import ArenaStats
from repro.serve import FaultInjector, MaxPendingRequests, WorkerPool

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

#: hidden size where host overheads dominate (Fig. 7's flat region) —
#: the regime serving many small requests lives in
HIDDEN = 64
NUM_REQUESTS = 192
REQUEST_SIZES = (1, 4)
FLUSH_SIZES = (1, 8, 32)
MODEL = "treelstm"
#: injected transient kernel-fault rate for the degraded-mode column
FAULT_RATE = 0.10
FAULT_SEED = 0
#: replica counts for the pool saturation sweep
REPLICAS = (1, 2, 4)
POOL_FLUSH = 32


def _requests(request_size: int):
    rng = np.random.default_rng(23)
    return [synthetic_treebank(request_size, vocab_size=1000, rng=rng)
            for _ in range(NUM_REQUESTS)]


def _time_stream(fn, *, repeats: int, warmup: int) -> float:
    """Median wall time of serving the whole request stream once."""
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    samples.sort()
    return samples[len(samples) // 2]


def _saturation(model):
    """Multi-replica saturation: the whole stream offered at once.

    Replica scaling is reported on the *simulated device* axis (V100
    cost-model per-flush times, makespan = the busiest replica's total),
    because the harness runs on however many host cores CI gives it —
    often one — where wall-clock cannot show device parallelism.  Wall
    time is recorded alongside, honestly labeled: on a single core it
    mostly measures GIL-serialized host work and should be flat-ish
    across replica counts.
    """
    requests = _requests(1)
    out = {}
    for n in REPLICAS:
        model.arena.stats = ArenaStats()
        attribution = {}
        pool = WorkerPool(model, replicas=n, balancer="round_robin",
                          policy=MaxPendingRequests(POOL_FLUSH),
                          device=V100)
        for rep in pool.replicas:
            rep.server.add_observer(
                lambda req, exc, name=rep.name:
                attribution.__setitem__(id(req.handle), name))
        t0 = time.perf_counter()
        with pool:
            handles = [pool.submit(r) for r in requests]
            pool.drain()
            results = [h.result(120) for h in handles]
        wall_s = time.perf_counter() - t0
        # per-replica simulated busy time: each of a flush's B requests
        # carries the flush's simulated time, so summing sim/B over
        # requests reconstructs the exact per-flush sum
        busy = {}
        for h, res in zip(handles, results):
            rep = attribution[id(h)]
            busy[rep] = busy.get(rep, 0.0) + (res.simulated_time_s
                                              / res.batch_requests)
        makespan_s = max(busy.values())
        snap = pool.metrics_snapshot()
        out[n] = {
            "replicas": n,
            "offered_requests": len(requests),
            "sim_device_makespan_s": makespan_s,
            "sim_throughput_rps": len(requests) / makespan_s,
            "wall_s": wall_s,
            "wall_throughput_rps": len(requests) / wall_s,
            "wall_latency_p99_ms": snap["latency_p99_ms"],
            "wall_latency_p50_ms": snap["latency_p50_ms"],
            "occupancy_requests": snap["batch_occupancy_requests"],
            "flushes": snap["flushes"],
        }
    return out


def _baseline_rows():
    """Simulated-device serving throughput vs the paper's §2 baselines.

    Cavs batches treelstm like our coalescer does (Table 4's regime);
    GRNN is the hand-optimized sequential-RNN server (Fig. 9's regime,
    seq len 100).  Throughput = batch / simulated batch latency on one
    V100 — comparable to the 1-replica ``sim_throughput_rps`` axis.
    """
    rows = {}
    cavs_ms, _ = baseline_latency_ms("cavs", MODEL, HIDDEN, POOL_FLUSH,
                                     V100)
    cortex_ms, _ = cortex_latency_ms(MODEL, HIDDEN, POOL_FLUSH, V100)
    rows["cavs_treelstm_b32"] = {
        "baseline_ms": cavs_ms, "cortex_ms": cortex_ms,
        "baseline_throughput_rps": POOL_FLUSH / (cavs_ms / 1e3),
        "cortex_throughput_rps": POOL_FLUSH / (cortex_ms / 1e3),
    }
    grnn_ms = grnn_like.latency("lstm", 100, 10, HIDDEN, V100,
                                lock_free=True).total_time_s * 1e3
    seq_ms, _ = cortex_latency_ms("seq_lstm", HIDDEN, 10, V100)
    rows["grnn_seqlstm_b10"] = {
        "baseline_ms": grnn_ms, "cortex_ms": seq_ms,
        "baseline_throughput_rps": 10 / (grnn_ms / 1e3),
        "cortex_throughput_rps": 10 / (seq_ms / 1e3),
    }
    return rows


def _run():
    model = cortex_model(MODEL, HIDDEN)
    rows, results = [], {}
    for rs in REQUEST_SIZES:
        requests = _requests(rs)
        budget = dict(repeats=9, warmup=2) if rs == 1 else dict(
            repeats=5, warmup=1)

        def per_request():
            for roots in requests:
                model.run(roots)

        per = {"per_request": _time_stream(per_request, **budget)}
        occupancy = {}
        for flush in FLUSH_SIZES:
            def served():
                # the model comes from the shared session cache, so its
                # arena counters span every earlier config/benchmark —
                # reset per rep so the recorded hit rate measures this
                # flush size alone
                model.arena.stats = ArenaStats()
                srv = model.server(policy=MaxPendingRequests(flush))
                srv.serve_forever(requests)
                occupancy[flush] = srv.metrics_snapshot()
            per[f"serve_f{flush}"] = _time_stream(served, **budget)

        degraded_snap = {}

        def degraded():
            # a fresh injector per rep replays the identical fault
            # sequence, so every sample pays the same chaos
            model.arena.stats = ArenaStats()
            faults = FaultInjector(seed=FAULT_SEED,
                                   kernel_failure_rate=FAULT_RATE)
            srv = model.server(policy=MaxPendingRequests(max(FLUSH_SIZES)),
                               faults=faults)
            srv.serve_forever(requests)
            degraded_snap["snap"] = srv.metrics_snapshot()
        per["degraded"] = _time_stream(degraded, **budget)

        traced_info = {}

        def traced():
            # identical configuration to serve_f32, plus a live Tracer:
            # the delta between the two columns is the cost of span
            # recording itself (a fresh tracer per rep keeps the span
            # ring from carrying over between samples)
            model.arena.stats = ArenaStats()
            tracer = Tracer()
            srv = model.server(policy=MaxPendingRequests(max(FLUSH_SIZES)),
                               tracer=tracer)
            srv.serve_forever(requests)
            traced_info["snap"] = srv.metrics_snapshot()
            traced_info["spans"] = len(tracer)
        per["traced"] = _time_stream(traced, **budget)

        base = per["per_request"]
        row = [MODEL, rs, base / NUM_REQUESTS * 1e6]
        entry = {"per_request_us": base / NUM_REQUESTS * 1e6,
                 "requests": NUM_REQUESTS}
        for flush in FLUSH_SIZES:
            t = per[f"serve_f{flush}"]
            row += [t / NUM_REQUESTS * 1e6, round(base / t, 2)]
            snap = occupancy[flush]
            entry[f"serve_f{flush}_us"] = t / NUM_REQUESTS * 1e6
            entry[f"serve_f{flush}_speedup"] = base / t
            entry[f"serve_f{flush}_occupancy"] = \
                snap["batch_occupancy_requests"]
            entry[f"serve_f{flush}_arena_hit_rate"] = \
                snap["arena"]["hit_rate"]
            entry[f"serve_f{flush}_error_rate"] = snap["error_rate"]
            # p50/p99 straight off the latency histogram instrument
            entry[f"serve_f{flush}_latency_p50_ms"] = snap["latency_p50_ms"]
            entry[f"serve_f{flush}_latency_p99_ms"] = snap["latency_p99_ms"]
        t = per["degraded"]
        snap = degraded_snap["snap"]
        row += [t / NUM_REQUESTS * 1e6, round(base / t, 2),
                snap["error_rate"] * 100]
        entry["degraded_us"] = t / NUM_REQUESTS * 1e6
        entry["degraded_speedup"] = base / t
        entry["degraded_error_rate"] = snap["error_rate"]
        entry["degraded_retries"] = snap["retries"]
        entry["degraded_fault_rate"] = FAULT_RATE
        entry["degraded_kernel_faults"] = snap["faults"]["kernel_failures"]
        t = per["traced"]
        untraced = per[f"serve_f{max(FLUSH_SIZES)}"]
        snap = traced_info["snap"]
        overhead = t / untraced - 1.0
        row += [t / NUM_REQUESTS * 1e6, round(overhead * 100, 1)]
        entry["traced_us"] = t / NUM_REQUESTS * 1e6
        entry["traced_speedup"] = base / t
        entry["traced_overhead"] = overhead
        entry["traced_spans"] = traced_info["spans"]
        entry["traced_latency_p50_ms"] = snap["latency_p50_ms"]
        entry["traced_latency_p99_ms"] = snap["latency_p99_ms"]
        rows.append(row)
        results[f"{MODEL}_rs{rs}"] = entry
    results["saturation"] = _saturation(model)
    results["baselines"] = _baseline_rows()
    return rows, results


def test_serve_throughput(benchmark):
    rows, results = benchmark.pedantic(_run, rounds=1, iterations=1)
    headers = ["Model", "Req size", "per-req (us)"]
    for flush in FLUSH_SIZES:
        headers += [f"f{flush} (us)", f"f{flush} x"]
    headers += ["chaos (us)", "chaos x", "err %", "traced (us)",
                "trace ov %"]
    table = format_table(
        headers, rows,
        title=f"Per-request serving wall time, hidden={HIDDEN}, "
              f"{NUM_REQUESTS}-request stream (coalesced flush vs "
              f"per-request run(); chaos = flush {max(FLUSH_SIZES)} under "
              f"{FAULT_RATE:.0%} injected transient kernel faults; traced "
              f"= flush {max(FLUSH_SIZES)} with a live span recorder)")
    save_result("serve_throughput", table)

    sat = results["saturation"]
    sat_rows = [[n, round(s["sim_throughput_rps"], 1),
                 round(s["sim_throughput_rps"]
                       / sat[1]["sim_throughput_rps"], 2),
                 round(s["wall_throughput_rps"], 1),
                 round(s["wall_latency_p99_ms"], 2),
                 round(s["occupancy_requests"], 1)]
                for n, s in sorted(sat.items())]
    sat_table = format_table(
        ["Replicas", "sim rps", "sim x", "wall rps", "wall p99 (ms)",
         "occupancy"],
        sat_rows,
        title=f"Pool saturation, {NUM_REQUESTS}-request stream, flush "
              f"{POOL_FLUSH} (sim = V100 cost-model makespan; wall = "
              f"host, GIL-bound)")
    save_result("serve_pool_saturation", sat_table)

    record_bench_json(JSON_PATH, {
        "benchmark": "serve_throughput",
        "hidden": HIDDEN,
        "model": MODEL,
        "flush_sizes": list(FLUSH_SIZES),
        "replicas": list(REPLICAS),
        "pool_flush": POOL_FLUSH,
        "fault_rate": FAULT_RATE,
        "fault_seed": FAULT_SEED,
        "results": results,
    })

    # Acceptance gate: coalesced serving must be >= 2x per-request run()
    # throughput for treelstm at request size 1.
    assert results[f"{MODEL}_rs1"]["serve_f32_speedup"] >= 2.0, results
    # Coalescing, not scheduler bookkeeping, is the win: the mega-batch
    # flush must beat the no-coalescing server configuration too.
    assert (results[f"{MODEL}_rs1"]["serve_f32_speedup"]
            > results[f"{MODEL}_rs1"]["serve_f1_speedup"]), results
    # Span recording must not eat the coalescing win: the traced server
    # holds the same >= 2x gate the untraced one does.
    assert results[f"{MODEL}_rs1"]["traced_speedup"] >= 2.0, results
    # Replica scaling gate: >= 2x aggregate simulated-device throughput
    # at 4 replicas vs 1 at saturation.
    sat = results["saturation"]
    assert (sat[4]["sim_throughput_rps"]
            >= 2.0 * sat[1]["sim_throughput_rps"]), sat
    assert sat[2]["sim_throughput_rps"] > sat[1]["sim_throughput_rps"], sat
