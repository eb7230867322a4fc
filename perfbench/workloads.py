"""The benchmark's three workloads, driven through the library's public API.

Every workload compiles treelstm (hidden 64, vocab 1000) and generates its
inputs from the workload seed alone.  A workload returns an
:class:`Outcome`: end-to-end numbers, per-layer numbers (traced runs
only), correctness checks and the attempted/failed counts.  Layers a
workload bypasses report 0 for their per-layer metrics, so every run
prints the same metric names.

Why these workloads (README.md has the full layer -> metric map):

* ``batch-sst64-c`` -- one caller, closed loop, 64-tree batches on the C
  target: kernels and workspace dominate, linearize is a minority, serving
  and memoization are bypassed.
* ``serve-sst-open`` -- Poisson single-tree arrivals at a fixed rate
  through a threaded server: queue wait, the flush deadline, coalesce and
  scatter dominate; kernels do little per tree.
* ``serve-zipf-memo`` -- 32 outstanding Zipf requests through a memoizing
  server: hashing, pruning, cache inserts and evictions dominate.

How a run is steadied (numbers from the reference host, a 2-vCPU Intel
Xeon KVM guest): the host has slow phases, lasting from under a second to
minutes, in which everything runs 1.4-2x slower -- thread CPU time rises
with wall time, so it is contention for the core, not preemption.  A run
is therefore cut into :data:`ROUNDS` rounds, each a few cold set-ups
followed by :data:`SEGMENTS` short measured segments, so set-ups and
segments sample the host's phases alike.  Each metric is computed per
segment (per set-up for ``setup_s``) and the run reports the median over
segments, never a whole-run total.  A fixed probe loop, timed after every
segment, then scales the run's timings to the reference host speed
(:func:`host_adjusted`); the unadjusted numbers stay in the record.
"""

from __future__ import annotations

import json
import os
import resource
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro import CompileOptions, CompilerPipeline
from repro.data import synthetic_treebank, zipf_tree_stream
from repro.errors import CortexError
from repro.ilir.codegen.c_codegen import parity_classification
from repro.models.registry import get_model
from repro.obs import Tracer
from repro.ra.interp import interpret_reference
from repro.runtime.plan import execute_plan
from repro.runtime.profiler import KernelProfiler
from repro.serve import MaxPendingRequests

MODEL = "treelstm"
HIDDEN = 64
VOCAB = 1000

#: the host-speed probe: a fixed pure-Python loop, and its time (ms) on
#: the reference host in a fast phase
PROBE_ITERS = 50_000
PROBE_REF_MS = 3.1
#: rounds per run: cold set-ups, then SEGMENTS measured segments
ROUNDS = 12
SEGMENTS = 4
#: cold set-ups per round (after the first, which makes one): a Python
#: set-up takes about 25 ms, so it gets more samples than a C one (gcc)
SETUP_REPS = {"c": 1, "python": 3}
#: trees per call on the batch workload
BATCH = 64
#: distinct pre-generated batches the batch workload cycles through: few
#: enough that a segment covers whole cycles at least twice, enough that
#: the mean tree size moves only about 2% with the seed
NUM_BATCHES = 8
#: offered load of the open loop, requests/s.  About a quarter of the
#: threaded server's saturation on the reference host (1570-1800 trees/s
#: with 64 outstanding), so queueing is light and latency is dominated by
#: the flush deadline, coalesce and scatter.  Fixed, never derived from a
#: run.
OPEN_RATE = 400.0
#: outstanding requests of the saturation segments, and the trees they
#: cycle through: whole flushes of 32 from a fixed cycle give 16 distinct
#: flush shapes, so the workspace arena (pools keyed by exact shape) stops
#: growing once it has seen them
SATURATION_OUTSTANDING = 64
SATURATION_CYCLE = 512
#: flush policy of the synchronously driven closed loops: exactly 32
#: requests per flush, so the work per flush does not depend on how fast
#: the caller submits
CLOSED_LOOP_FLUSH = 32
#: outstanding requests of the memo workload's closed loop
MEMO_OUTSTANDING = 32
#: Zipf stream shape: pools large enough that the default 4096-entry
#: cache both hits and evicts (about a 45% lookup hit rate over a 30 s run)
MEMO_STREAM = dict(num_phrases=512, num_templates=256, phrases_per_request=4)
#: requests generated per second of run (the stream wraps if exhausted)
MEMO_REQUESTS_PER_S = 2500
#: distinct SST-like trees the open loop draws from (it wraps)
TREE_POOL = 4096
#: tolerance for kernels parity_classification() does not promise bitwise
#: (the native-vs-Python parity tests use the same numbers)
PARITY_RTOL, PARITY_ATOL = 1e-5, 1e-6
#: served requests compared against ``run()`` per run, drawn from every
#: KEEP_EVERY-th request
SERVED_SAMPLE = 64
KEEP_EVERY = 16
#: trees compared against the RA reference interpreter per run
INTERP_SAMPLE = 6
RESULT_TIMEOUT_S = 60.0

STAGES = ("build", "schedule", "lower", "codegen", "native", "plan")
SERVE_PHASES = ("coalesce", "linearize", "execute", "scatter", "resolve")
#: kernel the default (max-fusion) treelstm schedule emits on both targets
KERNEL = "fused"


# -- small statistics ---------------------------------------------------------
def pct(values: Sequence[float], q: float) -> float:
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def median(values: Sequence[float]) -> float:
    return pct(values, 50)


def probe_ms(reps: int = 3) -> float:
    """Median time of the fixed probe loop: a slow host phase shows."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_ITERS):
            acc += i * i
        times.append((time.perf_counter() - t0) * 1e3)
    return median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- run context and outcome --------------------------------------------------
@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    #: scratch directory inside the checkout (native caches)
    work_dir: Path
    #: where traced runs write their Chrome traces
    trace_dir: Path
    #: host-speed probes taken after every measured segment
    probes: List[float] = field(default_factory=list)
    _dirs: int = 0

    def probe(self) -> None:
        self.probes.append(probe_ms())

    def fresh_dir(self, stem: str) -> Path:
        self._dirs += 1
        d = self.work_dir / f"{stem}-{self._dirs}"
        d.mkdir(parents=True)
        return d

    @property
    def segment_s(self) -> float:
        """Length of one measured segment."""
        return self.seconds / (ROUNDS * SEGMENTS)

    def traced_turn(self, k: int) -> bool:
        """Whether segment ``k`` of a round is traced.

        Traced runs alternate untraced and traced segments, so the
        tracing overhead is measured pairwise under the same host phase.
        """
        return self.trace and k % 2 == 1


@dataclass
class Outcome:
    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: extra record-only data (sample counts, snapshots)
    info: Dict[str, object] = field(default_factory=dict)


def absent_layers() -> Dict[str, float]:
    """Every per-layer metric at 0: the value of a bypassed layer."""
    names = [f"compile.{s}_ms" for s in STAGES]
    names += ["linearize.ms_per_call", "linearize.ns_per_node",
              "linearize.share", "execute.ms_per_call",
              "workspace.ms_per_call", f"kernel.{KERNEL}.ms_per_call",
              f"kernel.{KERNEL}.calls", "launches_per_call",
              "arena.hit_rate", "serve.queue_wait_ms_p50",
              "serve.queue_wait_ms_p90",
              *[f"serve.{p}_ms" for p in SERVE_PHASES],
              "serve.flush_requests_mean", "gen.lateness_p99_ms",
              "memo.hit_rate", "memo.spliced_fraction",
              "memo.full_hit_requests", "memo.inserts", "memo.evictions",
              "memo.coalesce_ms", "trace.overhead_frac",
              "tail.latency_p99_ms", "tail.samples"]
    return {n: 0.0 for n in names}


# -- set-up -------------------------------------------------------------------
class Setups:
    """Cold set-ups: compile from scratch, then make the first call.

    Each repetition uses a fresh :class:`CompilerPipeline` and a fresh
    native cache directory (so ``target="c"`` runs the C compiler every
    time).  Stage times are the gaps between successive ``on_stage``
    callbacks.  The workloads measure the first repetition's model and
    spread the rest over the run (:meth:`round`).
    """

    def __init__(self, ctx: Context, target: str,
                 first_call: Callable[[object], None]):
        self.ctx = ctx
        self.target = target
        self.first_call = first_call
        self.seconds: List[float] = []
        self._stages: Dict[str, List[float]] = {s: [] for s in STAGES}

    def rep(self):
        os.environ["REPRO_NATIVE_CACHE_DIR"] = str(
            self.ctx.fresh_dir("native"))
        marks: List[tuple] = []
        t0 = time.perf_counter()
        model = CompilerPipeline().compile(
            MODEL, CompileOptions(target=self.target), hidden=HIDDEN,
            vocab=VOCAB, rng=np.random.default_rng(self.ctx.seed),
            on_stage=lambda rec: marks.append((rec.stage,
                                               time.perf_counter())))
        self.first_call(model)
        self.seconds.append(time.perf_counter() - t0)
        prev = t0
        for stage, t in marks:
            self._stages[stage].append((t - prev) * 1e3)
            prev = t
        return model

    def round(self) -> None:
        """The set-ups of one round after the first."""
        for _ in range(SETUP_REPS[self.target]):
            self.rep()

    def stage_layers(self) -> Dict[str, float]:
        return {f"compile.{s}_ms": float(np.median(v)) if v else 0.0
                for s, v in self._stages.items()}


# -- segments -----------------------------------------------------------------
@dataclass
class Segment:
    """One measured stretch of a run."""

    #: per-call or per-request latencies, seconds
    lat: List[float]
    #: trees completed within the stretch, and its length in seconds
    trees: float = 0.0
    seconds: float = 1.0
    attempted: int = 0
    failed: int = 0
    #: request index -> RequestResult (serving segments)
    results: Dict[int, object] = field(default_factory=dict)
    #: generator lateness per request, seconds (open loop)
    lateness: List[float] = field(default_factory=list)

    @property
    def rate(self) -> float:
        return self.trees / self.seconds


def e2e_metrics(setups: Setups, segments: List[Segment],
                throughput: List[Segment]) -> Dict[str, float]:
    """Unadjusted end-to-end numbers: medians over segments (set-ups)."""
    return {
        "setup_s": median(setups.seconds),
        "latency_p50_ms": median([pct(s.lat, 50) for s in segments]) * 1e3,
        "latency_p90_ms": median([pct(s.lat, 90) for s in segments]) * 1e3,
        "throughput_trees_per_s": median([s.rate for s in throughput]),
        "peak_rss_mb": peak_rss_mb(),
    }


def host_adjusted(raw: Dict[str, float], ctx: Context) -> Dict[str, float]:
    """Scale timings to the reference host speed (see the README).

    The factor is the reference probe time over the median of the probes
    taken after every segment of this run.  Times shrink and throughput
    grows when the host ran slow; memory is left alone.
    """
    scale = PROBE_REF_MS / median(ctx.probes)
    out = dict(raw)
    for name in ("setup_s", "latency_p50_ms", "latency_p90_ms"):
        out[name] = raw[name] * scale
    out["throughput_trees_per_s"] = raw["throughput_trees_per_s"] / scale
    return out


def segment_summary(segments: List[Segment]) -> Dict[str, List[float]]:
    """Per-segment values behind the reported medians (record only)."""
    return {"p50_ms": [pct(s.lat, 50) * 1e3 for s in segments],
            "p90_ms": [pct(s.lat, 90) * 1e3 for s in segments],
            "rate": [s.rate for s in segments],
            "samples": [len(s.lat) for s in segments]}


def paired_layers(plain: List[Segment],
                  traced: List[Segment]) -> Dict[str, float]:
    """Tracing overhead (round by round) and the untraced tail."""
    lat = [x for s in plain for x in s.lat]
    ratios = [pct(t.lat, 50) / pct(p.lat, 50)
              for p, t in zip(plain, traced) if p.lat and t.lat]
    return {"trace.overhead_frac": float(np.median(ratios)) - 1.0,
            "tail.latency_p99_ms": pct(lat, 99) * 1e3,
            "tail.samples": float(len(lat))}


def tally(out: Outcome, segments: List[Segment]) -> None:
    out.attempted += sum(s.attempted for s in segments)
    out.failed += sum(s.failed for s in segments)


# -- correctness --------------------------------------------------------------
def interpreter_rows(model, trees) -> List[Dict[str, np.ndarray]]:
    """Root states of ``trees`` from the RA reference interpreter."""
    spec = get_model(MODEL)
    prog = spec.build_program(HIDDEN, VOCAB)
    out = []
    for tree in trees:
        states = interpret_reference(prog, [tree], model.params)[id(tree)]
        out.append({name: np.asarray(v)[None]
                    for name, v in zip(spec.outputs, states)})
    return out


def run_rows(model, tree) -> Dict[str, np.ndarray]:
    """Root rows of one tree run alone through ``model.run``."""
    res = model.run([tree])
    return {n: res.root_output(n).copy() for n in model.default_outputs()}


def batch_rows(res, trees, names) -> Dict[str, np.ndarray]:
    """Root rows of ``trees`` (in input order) from one batched result."""
    ids = [res.lin.node_id(t) for t in trees]
    return {n: res.workspace[n][ids] for n in names}


def rows_equal(a: Dict[str, np.ndarray], b: Dict[str, np.ndarray],
               rtol: float = 0.0, atol: float = 0.0) -> bool:
    if a.keys() != b.keys():
        return False
    if rtol == 0.0 and atol == 0.0:
        return all(np.array_equal(a[n], b[n]) for n in a)
    return all(np.allclose(a[n], b[n], rtol=rtol, atol=atol) for n in a)


def parity_tolerance(model) -> tuple:
    """(rtol, atol) the parity classification allows this model."""
    classes = parity_classification(model.lowered.module)
    if all(c["bitwise"] for c in classes.values()):
        return 0.0, 0.0
    return PARITY_RTOL, PARITY_ATOL


def python_vs_interpreter(model, trees) -> bool:
    """Python-target results are bitwise the RA interpreter's."""
    refs = interpreter_rows(model, trees)
    return all(rows_equal(run_rows(model, t), r)
               for t, r in zip(trees, refs))


def served_match(model, requests, segments: List[Segment], rng) -> bool:
    """A seeded sample of served results is bitwise ``run()``'s output."""
    results = {i: r for s in segments for i, r in s.results.items()}
    keys = sorted(results)
    if not keys:
        return False
    pick = rng.choice(len(keys), size=min(SERVED_SAMPLE, len(keys)),
                      replace=False)
    for j in pick:
        i = keys[int(j)]
        want = run_rows(model, requests[i % len(requests)])
        if not rows_equal(results[i].outputs, want):
            return False
    return True


# -- per-layer extraction -----------------------------------------------------
def arena_counts(arena) -> tuple:
    return arena.stats.hits, arena.stats.misses


def profiler_layers(prof: KernelProfiler, arena_before: tuple,
                    arena) -> Dict[str, float]:
    snap = prof.snapshot()
    calls = max(1, snap["executions"])
    kern = snap["kernels"].get(KERNEL, {"calls": 0, "total_s": 0.0})
    hits = arena.stats.hits - arena_before[0]
    misses = arena.stats.misses - arena_before[1]
    return {
        "execute.ms_per_call": snap["exec_s"] / calls * 1e3,
        "workspace.ms_per_call": snap["workspace_s"] / calls * 1e3,
        f"kernel.{KERNEL}.ms_per_call": kern["total_s"] / calls * 1e3,
        f"kernel.{KERNEL}.calls": kern["calls"] / calls,
        "launches_per_call": snap["kernel_calls"] / calls,
        "arena.hit_rate": hits / max(1, hits + misses),
    }


def serve_layers(tracer: Tracer, prof: KernelProfiler) -> Dict[str, float]:
    """Queue and flush-phase numbers from the server's own spans."""
    by_name: Dict[str, List] = {}
    for span in tracer.finished_spans():
        by_name.setdefault(span.name, []).append(span)
    flushes = [s for s in by_name.get("flush", ()) if s.status == "ok"]
    queued = [s.duration_s * 1e3 for s in by_name.get("queued", ())]
    out = {"serve.queue_wait_ms_p50": pct(queued, 50),
           "serve.queue_wait_ms_p90": pct(queued, 90),
           "serve.flush_requests_mean": mean(
               [s.attributes.get("requests", 0) for s in flushes])}
    for phase in SERVE_PHASES:
        out[f"serve.{phase}_ms"] = mean(
            [s.duration_s * 1e3 for s in by_name.get(phase, ())])
    nodes = sum(int(s.attributes.get("nodes", 0)) for s in flushes)
    flush_s = sum(s.duration_s for s in flushes)
    lin_s = prof.snapshot()["linearize_s"]
    out["linearize.ms_per_call"] = out["serve.linearize_ms"]
    out["linearize.ns_per_node"] = lin_s / max(1, nodes) * 1e9
    out["linearize.share"] = lin_s / flush_s if flush_s else 0.0
    return out


def write_trace(ctx: Context, tracer: Tracer, name: str) -> None:
    """Write the finished spans as a Chrome trace."""
    ctx.trace_dir.mkdir(parents=True, exist_ok=True)
    path = ctx.trace_dir / f"{name}-seed{ctx.seed}.json"
    with open(path, "w") as f:
        json.dump(tracer.export_chrome(process_name=f"perfbench {name}"), f)


# -- batch-sst64-c ------------------------------------------------------------
def batch_segment(call: Callable[[int], None], seconds: float) -> Segment:
    """Closed loop over whole cycles of the batches for about ``seconds``.

    Every segment calls each batch equally often, so its latency
    percentiles do not depend on which batches it happened to cover.  It
    stops at the cycle boundary nearest its deadline.
    """
    lat: List[float] = []
    start = time.perf_counter()
    end = start + seconds
    while True:
        cycle_t = time.perf_counter()
        for i in range(NUM_BATCHES):
            t0 = time.perf_counter()
            call(i)
            lat.append(time.perf_counter() - t0)
        now = time.perf_counter()
        if now + (now - cycle_t) / 2 >= end:
            break
    return Segment(lat=lat, trees=float(BATCH * len(lat)),
                   seconds=now - start, attempted=len(lat))


def batch_sst64_c(ctx: Context) -> Outcome:
    rng = np.random.default_rng(ctx.seed)
    batches = [synthetic_treebank(BATCH, vocab_size=VOCAB, rng=rng)
               for _ in range(NUM_BATCHES)]

    def run_batch(model, i):
        return model.run(batches[i], reuse=True, validate=False)

    setups = Setups(ctx, "c", lambda m: run_batch(m, 0))
    model = setups.rep()
    if model.compiled.native is None:
        raise CortexError("batch-sst64-c needs the native target, but no C "
                          "compiler was found")
    out = Outcome()
    names = model.default_outputs()

    # warm every batch (arena buckets fill, lazy state settles) and keep
    # the root rows of each as the post-run determinism reference
    before = [batch_rows(run_batch(model, i), batches[i], names)
              for i in range(NUM_BATCHES)]
    rtol, atol = parity_tolerance(model)
    pick = rng.choice(NUM_BATCHES * BATCH, size=INTERP_SAMPLE,
                      replace=False)
    refs = interpreter_rows(model, [batches[k // BATCH][k % BATCH]
                                    for k in pick])
    out.checks["c_vs_interpreter_within_parity_tolerance"] = all(
        rows_equal({n: before[k // BATCH][n][[k % BATCH]] for n in names},
                   ref, rtol, atol) for k, ref in zip(pick, refs))
    out.info["parity_tolerance"] = {"rtol": rtol, "atol": atol}

    # traced calls split run(reuse=True, validate=False) at its public
    # layer boundaries -- fast_linearizer(), then execute_plan over the
    # model's arena -- so each gets a span and execute_plan a profiler
    tracer = Tracer()
    prof = KernelProfiler()
    linearizer = model.fast_linearizer()

    def traced_call(i):
        t0 = time.perf_counter()
        lin = linearizer(batches[i])
        t1 = time.perf_counter()
        res = execute_plan(model.plan, lin, model.params,
                           arena=model.arena, profiler=prof)
        model.arena.release_many(res.arena_buffers)
        t2 = time.perf_counter()
        root = tracer.add_span("call", t0, t2,
                               attributes={"nodes": lin.num_nodes})
        tracer.add_span("linearize", t0, t1, parent=root)
        tracer.add_span("execute", t1, t2, parent=root)

    plain: List[Segment] = []
    traced: List[Segment] = []
    arena_before = arena_counts(model.arena)
    for r in range(ROUNDS):
        if r:
            setups.round()
        for k in range(SEGMENTS):
            if ctx.traced_turn(k):
                model.release()
                traced.append(batch_segment(traced_call, ctx.segment_s))
            else:
                plain.append(batch_segment(lambda i: run_batch(model, i),
                                           ctx.segment_s))
            ctx.probe()
    tally(out, plain + traced)
    raw = e2e_metrics(setups, plain, plain)
    out.e2e = host_adjusted(raw, ctx)
    out.info.update(unadjusted=raw, setup_samples_s=setups.seconds,
                    segments=segment_summary(plain), probes_ms=ctx.probes)

    if ctx.trace:
        spans = tracer.finished_spans()
        calls = [s for s in spans if s.name == "call"]
        lin_s = [s.duration_s for s in spans if s.name == "linearize"]
        nodes = sum(int(s.attributes["nodes"]) for s in calls)
        out.layers = absent_layers()
        out.layers.update(setups.stage_layers())
        out.layers.update(profiler_layers(prof, arena_before, model.arena))
        out.layers.update({
            "linearize.ms_per_call": mean(lin_s) * 1e3,
            "linearize.ns_per_node": sum(lin_s) / max(1, nodes) * 1e9,
            "linearize.share": sum(lin_s) / max(
                1e-12, sum(s.duration_s for s in calls)),
        })
        out.layers.update(paired_layers(plain, traced))
        write_trace(ctx, tracer, "batch-sst64-c")

    # determinism after the timed loop: the same batches must give the
    # same bits as before it (catches arena reuse corrupting workspaces)
    model.release()
    out.checks["c_rerun_bitwise_identical"] = all(
        rows_equal(batch_rows(run_batch(model, i), batches[i], names),
                   before[i]) for i in range(NUM_BATCHES))
    model.release()
    return out


# -- serving segments ---------------------------------------------------------
def kept(i: int) -> bool:
    """Request indices whose results are kept for the output check."""
    return i % KEEP_EVERY == 0


class Tracker:
    """Completion bookkeeping of one serving segment.

    Fed by done-callbacks on the resolving (server) thread: completion
    time of every request, failures, and the results of :func:`kept`
    requests only, so memory does not grow with the run's length.
    """

    def __init__(self):
        self.done_t: Dict[int, float] = {}
        self.results: Dict[int, object] = {}
        self.failed = 0
        self.completed = 0
        self._cond = threading.Condition()

    def watch(self, handle, i: int) -> None:
        def done(h, _i=i):
            t = time.perf_counter()
            exc = h.exception(timeout=0)
            with self._cond:
                if exc is None:
                    self.done_t[_i] = t
                    if kept(_i):
                        self.results[_i] = h.result(timeout=0)
                else:
                    self.failed += 1
                self.completed += 1
                self._cond.notify_all()
        handle.add_done_callback(done)

    def wait(self, n: int) -> None:
        with self._cond:
            if not self._cond.wait_for(lambda: self.completed >= n,
                                       timeout=RESULT_TIMEOUT_S):
                raise CortexError(f"{n - self.completed} requests did not "
                                  f"complete within {RESULT_TIMEOUT_S}s")


def open_segment(server, trees, gaps: np.ndarray, first: int,
                 seconds: float) -> Segment:
    """Submit requests at Poisson due times for ``seconds``.

    Request ``i`` is ``trees[i % len(trees)]``, arriving ``gaps[i]``
    after request ``i - 1``; the segment sends ``first``, ``first + 1``,
    ...  Latency runs from each request's due time, so a stalled
    generator charges its lateness to the requests it delays.
    """
    dues: List[float] = []
    t = 0.0
    while True:
        t += gaps[(first + len(dues)) % len(gaps)]
        if t >= seconds:
            break
        dues.append(t)
    track = Tracker()
    seg = Segment(lat=[], attempted=len(dues))
    submitted = 0
    t0 = time.perf_counter() + 0.002
    for k, due in enumerate(dues):
        due += t0
        now = time.perf_counter()
        if due > now:
            time.sleep(due - now)
        seg.lateness.append(time.perf_counter() - due)
        try:
            h = server.submit(trees[(first + k) % len(trees)])
        except CortexError:
            seg.failed += 1
            continue
        track.watch(h, first + k)
        submitted += 1
    track.wait(submitted)
    seg.failed += track.failed
    seg.results = track.results
    seg.lat = [t - (t0 + dues[i - first]) for i, t in track.done_t.items()]
    return seg


def closed_segment(server, requests, outstanding: int, first: int,
                   seconds: float) -> Segment:
    """Keep ``outstanding`` requests in flight for ``seconds``.

    Request ``i`` is ``requests[i % len(requests)]``; the segment sends
    ``first``, ``first + 1``, ..., submitting the next one as soon as the
    oldest completes.  Throughput is the completions inside the stretch
    over the time from its start to the last of them.

    The server is not started: in synchronous mode ``submit`` flushes
    on the caller's thread whenever the flush policy fires, and the loop
    drains the remainder itself.  With a worker thread, GIL handoffs
    between it and this caller made throughput swing 1.7x between runs
    on the 2-vCPU reference host.
    """
    track = Tracker()
    sub_t: Dict[int, float] = {}
    pending = deque()
    seg = Segment(lat=[], seconds=seconds)
    start = time.perf_counter()
    end = start + seconds

    def submit():
        i = first + seg.attempted
        seg.attempted += 1
        sub_t[i] = time.perf_counter()
        try:
            h = server.submit(requests[i % len(requests)])
        except CortexError:
            seg.failed += 1
            return
        track.watch(h, i)
        pending.append(h)

    for _ in range(outstanding):
        submit()
    while pending:
        oldest = pending.popleft()
        if not oldest.done():
            server.drain()
        if time.perf_counter() < end:
            submit()
    track.wait(len(sub_t) - seg.failed)
    seg.failed += track.failed
    seg.results = track.results
    seg.lat = [t - sub_t[i] for i, t in track.done_t.items()]
    inside = [t for t in track.done_t.values() if t < end]
    if inside:
        seg.trees = float(len(inside))
        seg.seconds = max(inside) - start
    return seg


def first_request(request, **server_kw):
    """A set-up's first call: build a server, serve one request."""
    def first_call(model):
        server = model.server(**server_kw)
        handle = server.submit(request)
        server.drain()
        handle.result(timeout=0)
    return first_call


# -- serve-sst-open -----------------------------------------------------------
def serve_sst_open(ctx: Context) -> Outcome:
    rng = np.random.default_rng(ctx.seed)
    trees = synthetic_treebank(TREE_POOL, vocab_size=VOCAB, rng=rng)
    gaps = rng.exponential(1.0 / OPEN_RATE,
                           size=int(OPEN_RATE * ctx.seconds * 1.5) + 64)
    setups = Setups(ctx, "python", first_request(trees[0]))
    model = setups.rep()
    out = Outcome()
    out.checks["python_vs_interpreter_bitwise"] = python_vs_interpreter(
        model, trees[:INTERP_SAMPLE])

    # untraced rounds: three open-loop segments, then one saturation
    # segment on a second server; traced rounds alternate untraced and
    # traced open-loop segments
    server = model.server()
    capacity_server = model.server(
        policy=MaxPendingRequests(CLOSED_LOOP_FLUSH))
    tracer = Tracer()
    prof = KernelProfiler()
    traced_server = model.server(tracer=tracer, profiler=prof)
    arena_before = arena_counts(model.arena)
    plain: List[Segment] = []
    traced: List[Segment] = []
    saturation: List[Segment] = []
    nxt = 0
    for r in range(ROUNDS):
        if r:
            setups.round()
        for k in range(SEGMENTS):
            if ctx.traced_turn(k):
                with traced_server:
                    traced.append(open_segment(traced_server, trees, gaps,
                                               nxt, ctx.segment_s))
                nxt += traced[-1].attempted
            elif not ctx.trace and k == SEGMENTS - 1:
                # the last segment of an untraced round measures capacity
                saturation.append(closed_segment(
                    capacity_server, trees[:SATURATION_CYCLE],
                    SATURATION_OUTSTANDING, 0, ctx.segment_s))
            else:
                with server:
                    plain.append(open_segment(server, trees, gaps, nxt,
                                              ctx.segment_s))
                nxt += plain[-1].attempted
            ctx.probe()
    tally(out, plain + traced + saturation)
    out.checks["served_vs_run_bitwise"] = served_match(
        model, trees, plain + traced, rng)
    if saturation:
        out.checks["capacity_served_vs_run_bitwise"] = served_match(
            model, trees[:SATURATION_CYCLE], saturation, rng)
    raw = e2e_metrics(setups, plain, saturation or plain)
    out.e2e = host_adjusted(raw, ctx)
    out.info.update(unadjusted=raw, setup_samples_s=setups.seconds,
                    offered_rate=OPEN_RATE, probes_ms=ctx.probes,
                    segments=segment_summary(plain),
                    saturation=segment_summary(saturation))

    if ctx.trace:
        out.layers = absent_layers()
        out.layers.update(setups.stage_layers())
        out.layers.update(profiler_layers(prof, arena_before, model.arena))
        out.layers.update(serve_layers(tracer, prof))
        out.layers.update(paired_layers(plain, traced))
        out.layers["gen.lateness_p99_ms"] = pct(
            [x for s in plain for x in s.lateness], 99) * 1e3
        write_trace(ctx, tracer, "serve-sst-open")
    return out


# -- serve-zipf-memo ----------------------------------------------------------
def serve_zipf_memo(ctx: Context) -> Outcome:
    rng = np.random.default_rng(ctx.seed)
    n = int(MEMO_REQUESTS_PER_S * ctx.seconds) + 256
    stream = zipf_tree_stream(n, vocab_size=VOCAB, seed=ctx.seed,
                              **MEMO_STREAM)
    policy = MaxPendingRequests(CLOSED_LOOP_FLUSH)
    setups = Setups(ctx, "python",
                    first_request(stream[0], memo="on", policy=policy))
    model = setups.rep()
    out = Outcome()
    out.checks["python_vs_interpreter_bitwise"] = python_vs_interpreter(
        model, stream[:INTERP_SAMPLE])

    server = model.server(memo="on", policy=policy)
    tracer = Tracer()
    prof = KernelProfiler()
    traced_server = model.server(memo="on", policy=policy, tracer=tracer,
                                 profiler=prof)
    arena_before = arena_counts(model.arena)
    plain: List[Segment] = []
    traced: List[Segment] = []
    nxt = 0
    for r in range(ROUNDS):
        if r:
            setups.round()
        for k in range(SEGMENTS):
            seg = closed_segment(
                traced_server if ctx.traced_turn(k) else server, stream,
                MEMO_OUTSTANDING, nxt, ctx.segment_s)
            (traced if ctx.traced_turn(k) else plain).append(seg)
            nxt += seg.attempted
            ctx.probe()
    tally(out, plain + traced)
    out.checks["memo_vs_plain_bitwise"] = served_match(
        model, stream, plain + traced, rng)
    raw = e2e_metrics(setups, plain, plain)
    out.e2e = host_adjusted(raw, ctx)
    out.info.update(unadjusted=raw, setup_samples_s=setups.seconds,
                    segments=segment_summary(plain), probes_ms=ctx.probes,
                    memo=server.memo.snapshot(), stream_wrapped=nxt > n)

    if ctx.trace:
        snap = traced_server.memo.snapshot()
        out.layers = absent_layers()
        out.layers.update(setups.stage_layers())
        out.layers.update(profiler_layers(prof, arena_before, model.arena))
        out.layers.update(serve_layers(tracer, prof))
        out.layers.update(paired_layers(plain, traced))
        out.layers.update({
            "memo.hit_rate": snap["hit_rate"],
            "memo.spliced_fraction": snap["spliced_fraction"],
            "memo.full_hit_requests": float(snap["full_hit_requests"]),
            "memo.inserts": float(snap["cache"]["insertions"]),
            "memo.evictions": float(snap["cache"]["evictions"]),
            "memo.coalesce_ms": out.layers["serve.coalesce_ms"],
        })
        write_trace(ctx, tracer, "serve-zipf-memo")
    return out


WORKLOADS = {
    "batch-sst64-c": batch_sst64_c,
    "serve-sst-open": serve_sst_open,
    "serve-zipf-memo": serve_zipf_memo,
}
