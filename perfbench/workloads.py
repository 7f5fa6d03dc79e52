"""The three seeded workloads, each runnable untraced or traced.

An untraced run (``trace=False``) fills the end-to-end metrics; a traced
run replays the same seeded inputs with one span per layer and fills the
per-layer ledger. See ``perfbench/README.md`` for why each workload
exists and which metric each layer should move.
"""

from __future__ import annotations

import bisect
import math
import time

import numpy as np

from harness import (
    N_WORKERS,
    Gate,
    HostProbe,
    InputLog,
    Outcome,
    attempt,
    base_matrices,
    clock,
    end_to_end,
    factor_bytes,
    layer_seconds,
    p50,
    p90,
    perturb,
    self_seconds,
    shm_arenas,
    static_kernel_bytes,
    symbolic_counts,
    timed_setup,
    traced_refactor,
    wall_info,
)
from repro.api import lu
from repro.numeric.solver import SolverOptions
from repro.obs.trace import Tracer
from repro.parallel.procengine import ProcPool
from repro.serve import SolverService, build_plan, refactorize_with_plan
from repro.sparse import PAPER_MATRICES

#: cold_default: every paper analog, one-shot with library defaults.
COLD_NAMES = tuple(PAPER_MATRICES)
COLD_SCALE = 0.1
COLD_WARM_SCALE = 0.05
COLD_REL = 0.1

#: refactor_seq: a Newton-style value stream on two frozen patterns with
#: narrow (sherman3) and wide (goodwin) supernodes.
REFACTOR_NAMES = ("sherman3", "goodwin")
REFACTOR_SCALE = 1.0
REFACTOR_REL = 0.05
REFACTOR_OPTIONS = SolverOptions(ordering="amd")

#: serve_open: six analogs by Zipf popularity, in rank order.
SERVE_NAMES = ("orsreg1", "sherman5", "saylr4", "lnsp3937", "sherman3", "goodwin")
SERVE_SCALE = 0.15
SERVE_REL = 0.05
SERVE_ZIPF = 1.0
#: Bursts per second: a quarter of the service's capacity on a 2-CPU host
#: (mean service time per burst ≈ 0.1 s). At utilization 0.35–0.5 the
#: 90th percentile spread 14–44% between runs of this benchmark: in a
#: clump of arrivals, a slow spell of the host lengthens every wait.
SERVE_BURST_RATE = 2.5
#: The arrival schedule is one fixed Poisson realization; ``--seed``
#: drives the values and right-hand sides. Every run then offers the same
#: queueing pattern: across schedule seeds the 90th percentile moved by
#: 30-40% (its tail is a handful of colliding bursts), which would hide
#: any change to the service behind the draw of the schedule.
SERVE_SCHEDULE_SEED = 0
SERVE_MIN_REQUESTS = 100


def _closed_loop(mats, names, rel, seed, seconds, run_op, n_ops=None, probe=None):
    """One client: whole rounds of one operation per matrix in ``names``.

    Runs until ``seconds`` have passed, or exactly ``n_ops`` operations
    (a replay of the same seed). Each operation gets ``mats[name]`` with
    seeded values and a seeded right-hand side; ``run_op(name, a, b)``
    returns ``(answer, error)``. A ``probe`` samples once before the
    first operation and after each one, outside the timed interval.
    Returns the operations as ``(name, a, b, answer, error, seconds)``
    and the input log.
    """
    rng = np.random.default_rng(seed)
    log = InputLog()
    ops = []
    if probe is not None:
        probe.sample()
    t_end = clock() + seconds
    while True:
        for name in names:
            a = perturb(mats[name], rng, rel)
            b = rng.standard_normal(a.n_cols)
            log.add(name, a, b)
            t0 = clock()
            x, err = run_op(name, a, b)
            ops.append((name, a, b, x, err, clock() - t0))
            if probe is not None:
                probe.sample()
        if len(ops) >= n_ops if n_ops is not None else clock() >= t_end:
            return ops, log


def _latencies(ops) -> list:
    return [op[5] for op in ops]


def _report_closed(out: Outcome, ops, probe: HostProbe, setup_s: float) -> None:
    """End-to-end metrics of a closed loop, in reference-host seconds."""
    latencies = _latencies(ops)
    probe_s = [probe.bracket(i) for i in range(len(ops))]
    out.metrics.update(end_to_end([op[0] for op in ops], latencies, setup_s,
                                  probe_s=probe_s))
    out.info.update(wall_info(latencies, probe_s))


def _unattributed(roots, n_ops: int) -> float:
    """Mean seconds per operation not covered by any layer span."""
    return self_seconds([r for r in roots if r.name.startswith("op")]) / n_ops


def _per_matrix_p50(roots, span_name: str) -> dict:
    """Median duration of ``span_name`` spans per matrix under op roots."""
    out: dict = {}
    for r in roots:
        for s in r.walk():
            if s.name == span_name:
                out.setdefault(r.attrs["matrix"], []).append(s.duration)
    return {m: p50(v) for m, v in out.items()}


# ----------------------------------------------------------------------
# cold_default
# ----------------------------------------------------------------------
def cold_default(seed: int, seconds: float, trace: bool) -> Outcome:
    def build(keep):
        mats = base_matrices(COLD_NAMES, COLD_SCALE)
        # Pay first-call costs on small copies of every analog.
        for warm in base_matrices(COLD_NAMES, COLD_WARM_SCALE).values():
            lu(warm).solve(np.ones(warm.n_cols))
        return mats

    mats, setup_s = timed_setup(build)
    out = Outcome(gate=Gate())
    tr = Tracer() if trace else None
    plans: dict = {}

    def traced_op(name, a, b):
        plan = build_plan(a, tracer=tr)
        plans.setdefault(name, plan)
        fac = traced_refactor(plan, a, tr)
        with tr.span("numeric.solve"):
            return fac.solve(b)

    def run_op(name, a, b):
        if tr is None:
            return attempt(lambda: lu(a).solve(b))
        with tr.span("op", matrix=name):
            return attempt(traced_op, name, a, b)

    probe = None if trace else HostProbe()
    ops, log = _closed_loop(mats, COLD_NAMES, COLD_REL, seed, seconds, run_op,
                            probe=probe)
    for name, a, b, x, err, _ in ops:
        out.gate.check(name, a, b, x, err)
    out.samples = len(ops)
    out.inputs = log.as_dict()
    if trace:
        out.tracers["run"] = tr
        out.metrics.update(layer_seconds(tr.roots, len(ops)))
        out.metrics.update(symbolic_counts(plans.values()))
        out.metrics["ledger.unattributed_s"] = _unattributed(tr.roots, len(ops))
    else:
        _report_closed(out, ops, probe, setup_s)
    return out


# ----------------------------------------------------------------------
# refactor_seq (and, traced, the proc runtime on the same stream)
# ----------------------------------------------------------------------
def _refactor_setup(tracer):
    """Generate the matrices and build their frozen plans."""

    def build(keep):
        mats = base_matrices(REFACTOR_NAMES, REFACTOR_SCALE)
        plans = {
            m: build_plan(a, REFACTOR_OPTIONS, tracer=tracer if keep else None)
            for m, a in mats.items()
        }
        return mats, plans

    return timed_setup(build)


def _step(plan, a, b, engine, pool):
    fac = refactorize_with_plan(plan, a, engine=engine, n_workers=N_WORKERS, pool=pool)
    return fac.solve(b)


def _stream(mats, plans, seed, seconds, *, engine="sequential", pools=None,
            tr=None, root="op", n_ops=None, results=None, probe=None):
    """The refactor + solve stream; traced when ``tr`` is given.

    A traced step runs :func:`harness.traced_refactor`, counts kernel
    work into ``tr.metrics`` (sequential engine only: proc workers count
    into their own memory) and keeps each matrix's last factors in
    ``results``.
    """
    pools = pools or {}
    metrics = tr.metrics if tr is not None and engine == "sequential" else None

    def traced_step(name, a, b):
        fac = traced_refactor(plans[name], a, tr, engine=engine,
                              pool=pools.get(name), metrics=metrics)
        results[name] = fac.result
        with tr.span("numeric.solve"):
            return fac.solve(b)

    def run_op(name, a, b):
        if tr is None:
            return attempt(_step, plans[name], a, b, engine, pools.get(name))
        with tr.span(root, matrix=name):
            return attempt(traced_step, name, a, b)

    return _closed_loop(mats, REFACTOR_NAMES, REFACTOR_REL, seed, seconds, run_op,
                        n_ops, probe)


def refactor_seq(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome(gate=Gate())
    if trace:
        out.tracers = {"setup": Tracer(), "run": Tracer()}
    (mats, plans), setup_s = _refactor_setup(out.tracers.get("setup"))
    probe = None if trace else HostProbe()
    steps, log = _stream(mats, plans, seed, seconds, probe=probe)
    for name, a, b, x, err, _ in steps:
        out.gate.check(name, a, b, x, err)
    out.samples = len(steps)
    out.inputs = log.as_dict()
    if trace:
        _refactor_ledger(out, mats, plans, steps, seed, seconds)
    else:
        _report_closed(out, steps, probe, setup_s)
    return out


def _refactor_ledger(out, mats, plans, steps, seed, seconds) -> None:
    """The traced passes over exactly the steps of the untraced one.

    A traced sequential replay gives the numeric ledger and the tracing
    overhead; a traced replay on the proc engine, with one warm 2-worker
    pool per pattern, gives the parallel runtime's cost and is checked
    bitwise against the sequential answers.
    """
    tr = out.tracers["run"]
    m = out.metrics
    n = len(steps)
    results: dict = {}
    replay, _ = _stream(mats, plans, seed, seconds, tr=tr, n_ops=n,
                        results=results)
    seq_roots = list(tr.roots)
    proc = _proc_replay(out, mats, plans, seed, seconds, n)
    for name, a, b, x, err, _ in replay + proc:
        out.gate.check(name + "/traced", a, b, x, err)
    proc_roots = tr.roots[n:]
    m.update(layer_seconds(out.tracers["setup"].roots, len(plans)))
    m.update({k: v for k, v in layer_seconds(seq_roots, n).items()
              if k.startswith("numeric.")})
    m.update(symbolic_counts(plans.values()))
    m["ledger.unattributed_s"] = _unattributed(seq_roots, n)
    m["obs.trace_overhead_frac"] = sum(_latencies(replay)) / sum(_latencies(steps))
    m["parallel.tasks_s"] = layer_seconds(proc_roots, n)["numeric.tasks_s"]
    step_p50 = _per_matrix_p50(seq_roots, "op")
    seq_tasks = _per_matrix_p50(seq_roots, "numeric.tasks")
    proc_tasks = _per_matrix_p50(proc_roots, "numeric.tasks")
    for name in REFACTOR_NAMES:
        m[f"numeric.step_p50_s.{name}"] = step_p50[name]
        m[f"parallel.overhead_s.{name}"] = proc_tasks[name] - seq_tasks[name]
    _numeric_counters(m, tr.metrics, plans, results, n)


def _proc_replay(out, mats, plans, seed, seconds, n):
    """Replay ``n`` steps on the proc engine with warm pools, then check
    one sampled step per pattern against the sequential engine bitwise
    and that no shared-memory arena outlives the pools."""
    shm_before = shm_arenas()
    pools = {}
    try:
        t0 = clock()
        for name, a in mats.items():
            pools[name] = ProcPool(N_WORKERS)
            # The first factorization binds the pool: it forks the
            # workers and allocates the shared-memory arena.
            refactorize_with_plan(plans[name], a, engine="proc",
                                  n_workers=N_WORKERS, pool=pools[name])
        out.metrics["parallel.pool_start_s"] = clock() - t0
        steps, _ = _stream(mats, plans, seed, seconds, engine="proc", pools=pools,
                           tr=out.tracers["run"], root="op.proc", n_ops=n,
                           results={})
    finally:
        for pool in pools.values():
            pool.close()
    pick = np.random.default_rng([seed, 1])
    for name in REFACTOR_NAMES:
        mine = [s for s in steps if s[0] == name and s[4] is None]
        if not mine:
            continue
        _, a, b, x, _, _ = mine[int(pick.integers(len(mine)))]
        x_seq, err = attempt(_step, plans[name], a, b, "sequential", None)
        if err is not None or not np.array_equal(x_seq, x):
            out.gate.fail(f"{name}: proc answer differs bitwise from sequential")
    leaked = shm_arenas() - shm_before
    if leaked:
        out.gate.fail(f"shared-memory arenas left behind: {sorted(leaked)}")
    return steps


def _numeric_counters(m: dict, registry, plans, results, n_steps: int) -> None:
    """Work counts of the traced sequential steps, per step (computed)."""

    def count(name: str) -> float:
        c = registry.get(name)
        return c.value if c is not None else 0.0

    flops = 0.0
    for kernel in ("factor", "trsm", "gemm"):
        f = count(f"kernel.{kernel}.flops") / n_steps
        m[f"numeric.kernel.{kernel}.flops"] = f
        flops += f
    m["numeric.flops"] = flops
    m["numeric.mflops"] = flops / m["numeric.tasks_s"] / 1e6
    rounds = n_steps / len(REFACTOR_NAMES)
    n_updates = sum(
        sum(1 for t in p.graph.tasks() if t.kind == "U") for p in plans.values()
    )
    m["numeric.lazy_skip_frac"] = (
        count("update.skipped_zero_block") / (n_updates * rounds)
    )
    m["numeric.pivot_rows_deferred"] = count("pivot.rows_deferred") / n_steps
    kb = [static_kernel_bytes(p) for p in plans.values()]
    for kernel in ("factor", "trsm", "gemm"):
        m[f"numeric.kernel.{kernel}.bytes"] = sum(k[kernel] for k in kb) / len(kb)
    sizes = [factor_bytes(res) for res in results.values()]
    m["numeric.factor_bytes.csc"] = sum(c for c, _ in sizes)
    m["numeric.factor_bytes.panels"] = sum(p for _, p in sizes)
    m["numeric.factor_bytes"] = (
        m["numeric.factor_bytes.csc"] + m["numeric.factor_bytes.panels"]
    )


# ----------------------------------------------------------------------
# serve_open
# ----------------------------------------------------------------------
def _zipf_counts(n: int) -> np.ndarray:
    """``n`` bursts split over the patterns by Zipf share (largest remainder)."""
    share = np.arange(1, len(SERVE_NAMES) + 1, dtype=np.float64) ** -SERVE_ZIPF
    quota = n * share / share.sum()
    counts = np.floor(quota).astype(np.int64)
    counts[np.argsort(counts - quota)[: n - counts.sum()]] += 1
    return counts


def _schedule(mats, seed: int, seconds: float):
    """Poisson bursts of 1–4 same-value requests over Zipf patterns.

    The arrival process is Poisson conditioned on its count: the burst
    times are uniform over ``n / rate`` seconds. Which pattern each burst
    uses (Zipf shares) and its size (1, 2, 3, 4, 1, … within a pattern)
    are fixed multisets in a fixed random order
    (:data:`SERVE_SCHEDULE_SEED`); ``seed`` draws the values and the
    right-hand sides. Returns ``(due offset, name, a, b)`` per request.
    """
    when = np.random.default_rng(SERVE_SCHEDULE_SEED)
    rng = np.random.default_rng(seed)
    n = math.ceil(SERVE_BURST_RATE * seconds)
    while True:
        counts = _zipf_counts(n)
        bursts = [(k, 1 + i % 4) for k, c in enumerate(counts) for i in range(c)]
        if sum(size for _, size in bursts) >= SERVE_MIN_REQUESTS:
            break
        n += 1
    order = when.permutation(n)
    times = np.sort(when.uniform(0.0, n / SERVE_BURST_RATE, n))
    reqs = []
    for t, i in zip(times, order):
        k, size = bursts[i]
        name = SERVE_NAMES[k]
        a = perturb(mats[name], rng, SERVE_REL)
        for _ in range(size):
            reqs.append((float(t), name, a, rng.standard_normal(a.n_cols)))
    return reqs


def _service_counts(svc) -> dict:
    h = svc.metrics.get("service.batch_size")
    cache = svc.cache.stats()
    return {"batches": h.count, "batched": h.total,
            "hits": cache["hits"], "misses": cache["misses"]}


def _open_loop(svc, reqs, tr):
    """Send each request at its due time from this thread; wait for all.

    Returns ``(name, a, b, answer, error, due, done, late)`` per request,
    with ``done`` the completion time (``None`` on failure) and ``late``
    how far after its due time the request was sent.
    """
    mono_to_pc = clock() - time.monotonic()
    start = clock() + 0.05
    sent = []
    for off, name, a, b in reqs:
        due = start + off
        delay = due - clock()
        if delay > 0:
            time.sleep(delay)
        t0 = clock()
        if tr is None:
            pending, err = attempt(svc.submit, a, b)
        else:
            with tr.span("serve.submit"):
                pending, err = attempt(svc.submit, a, b)
        sent.append((name, a, b, pending, err, due, t0 - due))
    out = []
    for name, a, b, pending, err, due, late in sent:
        x = None
        if pending is not None:
            x, err = attempt(pending.result, timeout=120)
        t_done = pending.completed_at + mono_to_pc if x is not None else None
        out.append((name, a, b, x, err, due, t_done, late))
    return out


def serve_open(seed: int, seconds: float, trace: bool) -> Outcome:
    svc_tr = Tracer() if trace else None

    def build(keep):
        mats = base_matrices(SERVE_NAMES, SERVE_SCALE)
        svc = SolverService(n_workers=1, max_queue=4096,
                            tracer=svc_tr if keep else None)
        for a in mats.values():  # builds every plan, warms the numeric path
            svc.solve(a, np.ones(a.n_cols), timeout=60)
        if not keep:
            svc.close()
        return mats, svc

    (mats, svc), setup_s = timed_setup(build)
    out = Outcome(gate=Gate())
    tr = Tracer() if trace else None
    reqs = _schedule(mats, seed, seconds)
    log = InputLog()
    for _, name, a, b in reqs:
        log.add(name, a, b)
    n_warm = len(svc_tr.roots) if trace else 0
    try:
        before = _service_counts(svc)
        done = _open_loop(svc, reqs, tr)
        after = _service_counts(svc)
        plans = [svc.cache.get_or_build(a, svc.options) for a in mats.values()]
    finally:
        svc.close()
    for name, a, b, x, err, *_ in done:
        out.gate.check(name, a, b, x, err)
    ok = [d for d in done if d[6] is not None]
    out.samples = len(done)
    out.inputs = log.as_dict()
    out.info["loadgen_late_max_s"] = max(d[7] for d in done)
    if not trace:
        # Wall seconds: a request's wait behind others is paced by the
        # schedule and the interpreter's switch interval, not by the host's
        # speed alone, so the probe does not scale it.
        span = max(d[6] for d in ok) - min(d[5] for d in done)
        latencies = [d[6] - d[5] for d in ok]
        out.metrics.update(end_to_end([d[0] for d in ok], latencies, setup_s,
                                      ops_per_s=len(ok) / span))
        out.info.update(wall_info(latencies))
        return out
    out.tracers = {"run": tr, "service": svc_tr}
    m = out.metrics
    builds = [r for r in svc_tr.roots[:n_warm] if r.name == "build_plan"]
    m.update(layer_seconds(builds, len(builds)))
    m.update(symbolic_counts(plans))
    timed = svc_tr.roots[n_warm:]
    refactors = [r for r in timed if r.name == "refactor"]
    starts = [r.start for r in refactors]
    waits, services = [], []
    for d in ok:  # one worker: a request's batch is the last one started
        i = bisect.bisect_right(starts, d[6]) - 1
        waits.append(starts[i] - d[5])
        services.append(d[6] - starts[i])
    m["serve.submit_s"] = p50([s.duration for s in tr.roots])
    m["serve.wait_p50_s"] = p50(waits)
    m["serve.wait_p90_s"] = p90(waits)
    m["serve.service_p50_s"] = p50(services)
    m["serve.refactor_s"] = float(np.mean([r.duration for r in refactors]))
    m["numeric.solve_s"] = float(np.mean([r.duration for r in timed
                                          if r.name == "solve"]))
    m["serve.mean_batch_size"] = (
        (after["batched"] - before["batched"]) / (after["batches"] - before["batches"])
    )
    hits = after["hits"] - before["hits"]
    m["serve.cache_hit_ratio"] = hits / (hits + after["misses"] - before["misses"])
    m["loadgen.late_max_s"] = out.info["loadgen_late_max_s"]
    return out


WORKLOADS = {
    "cold_default": cold_default,
    "refactor_seq": refactor_seq,
    "serve_open": serve_open,
}
