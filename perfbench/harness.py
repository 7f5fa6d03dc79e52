"""Shared pieces of the benchmark: inputs, timing, correctness gate, ledger.

Nothing here reaches inside the program: every layer is timed from the
outside, by wrapping a call to one of its public functions in a span of
the benchmark's own :class:`repro.obs.Tracer`. Spans the program already
records (the symbolic stages under ``build_plan``, the service's
``refactor``/``solve``) nest into the same tree and are read as they are.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import resource_tracker

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from repro.numeric.factor import LUFactorization
from repro.obs.trace import Span, Tracer
from repro.parallel.dispatch import run_engine
from repro.serve import NumericFactorization, fingerprint
from repro.sparse import paper_matrix
from repro.sparse.ops import permute

#: Acceptance bound of the tier-1 tests: ``‖Ax − b‖∞ / ‖b‖∞``.
RESIDUAL_BOUND = 1e-8
#: Largest relative ∞-norm distance from the ``splu`` solution.
SPLU_BOUND = 1e-6
#: Processes of the proc engine.
N_WORKERS = 2

clock = time.perf_counter


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def base_matrices(names, scale: float) -> dict:
    """The paper analogs at ``scale`` with the library's fixed patterns.

    The pattern never depends on the benchmark seed, so every seed times
    the same symbolic work; the seed drives the values (:func:`perturb`).
    """
    return {name: paper_matrix(name, scale=scale) for name in names}


def perturb(a, rng: np.random.Generator, rel: float):
    """``a`` with each value scaled by an independent factor in 1 ± rel."""
    return a.with_values(a.data * (1.0 + rel * rng.uniform(-1.0, 1.0, a.nnz)))


class InputLog:
    """Digests of everything the program receives, for the output record.

    Two runs with the same seed print the same ``stream`` digest, which
    proves they timed identical inputs; ``fingerprints`` names the
    patterns by :func:`repro.serve.fingerprint`.
    """

    def __init__(self) -> None:
        self.fingerprints: dict[str, str] = {}
        self._h = hashlib.blake2b(digest_size=16)

    def add(self, name: str, a, b: np.ndarray) -> None:
        if name not in self.fingerprints:
            self.fingerprints[name] = fingerprint(a).digest
        self._h.update(np.ascontiguousarray(a.data).tobytes())
        self._h.update(np.ascontiguousarray(b).tobytes())

    def as_dict(self) -> dict:
        return {"fingerprints": self.fingerprints, "stream": self._h.hexdigest()}


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def _to_scipy(a) -> sp.csc_matrix:
    return sp.csc_matrix((a.data, a.indices, a.indptr), shape=a.shape)


class Gate:
    """Counts attempted and failed operations; never raises.

    An operation fails when it raised, returned a non-finite answer, or
    missed :data:`RESIDUAL_BOUND`. The first operation on each distinct
    matrix is also cross-checked against ``scipy.sparse.linalg.splu``.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._seen: set = set()

    def fail(self, why: str) -> None:
        self.failed += 1
        print(f"perfbench: FAILED {why}", file=sys.stderr)

    def check(self, key: str, a, b: np.ndarray, x, error: "str | None" = None) -> None:
        self.attempted += 1
        if error is not None:
            self.fail(f"{key}: {error}")
            return
        try:
            x = np.asarray(x, dtype=np.float64)
            if x.shape != b.shape or not np.all(np.isfinite(x)):
                self.fail(f"{key}: non-finite or misshapen answer")
                return
            a_sp = _to_scipy(a)
            bnorm = float(np.max(np.abs(b))) or 1.0
            res = float(np.max(np.abs(a_sp @ x - b))) / bnorm
            if not res < RESIDUAL_BOUND:
                self.fail(f"{key}: residual {res:.3e}")
                return
            if key not in self._seen:
                self._seen.add(key)
                x_ref = splu(a_sp).solve(b)
                dist = float(np.max(np.abs(x - x_ref))) / (
                    float(np.max(np.abs(x_ref))) or 1.0
                )
                if not dist <= SPLU_BOUND:
                    self.fail(f"{key}: {dist:.3e} away from splu")
        except Exception:  # a broken check is a failed operation
            self.fail(f"{key}: check raised\n{traceback.format_exc()}")


def attempt(fn, *args, **kwargs):
    """Run one operation; returns ``(value, error text or None)``."""
    try:
        return fn(*args, **kwargs), None
    except Exception as err:  # counted by the gate, never raised
        return None, f"{type(err).__name__}: {err}"


# ----------------------------------------------------------------------
# Process-level measurements
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def shm_arenas() -> set:
    """Names of the proc engine's shared-memory arenas now in /dev/shm."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:
        return set()


def stop_children() -> None:
    """Stop and reap every process this run started.

    The proc engine's pools join their own workers; what outlives them is
    the ``multiprocessing`` resource tracker, which the first
    shared-memory arena starts and which would otherwise run on after
    this process exits. Closing its pipe makes it exit; the wait reaps it.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


#: The probe's time on the reference host (2-vCPU Xeon VM at 2.1 GHz)
#: outside its slow spells: the 10th percentile of 600 readings.
REF_PROBE_S = 0.0064


class HostProbe:
    """Times a fixed CPU-bound kernel between operations: the host's speed.

    The host this benchmark was built on runs the same code at two speeds,
    in spells of seconds to minutes: a 10-second window of one fixed
    operation took anywhere from 1.0× to 1.8× its fastest time, CPU time
    included (another tenant's load on the same cores, not preemption),
    and raw closed-loop latencies spread by 0.14–0.3 of their median from
    run to run. The probe — interpreter work and small dense solves, as
    in the program — slows with the host; divided by the probe readings
    around it, the same operation spread by 0.04–0.10. It slows somewhat
    more than the BLAS-heavier steps do, so it over-corrects those a
    little. It never calls the program, so a change to the program
    cannot move it.
    """

    def __init__(self) -> None:
        self._m = np.random.default_rng(0).standard_normal((64, 64)) + 64 * np.eye(64)
        self.seconds: list = []

    def sample(self) -> None:
        t0 = clock()
        d: dict = {}
        for i in range(30000):
            d[i % 97] = d.get(i % 97, 0) + i
        for _ in range(40):
            np.linalg.solve(self._m, self._m)
        self.seconds.append(clock() - t0)

    def bracket(self, i: int) -> float:
        """The reading around operation ``i`` of a closed loop that sampled
        once before it started and after every operation."""
        return (self.seconds[i] + self.seconds[i + 1]) / 2

    @staticmethod
    def to_ref(seconds: float, probe_s: float) -> float:
        """``seconds`` measured while the probe read ``probe_s``, in
        seconds of the reference host at full speed."""
        return seconds * REF_PROBE_S / probe_s


def timed_setup(build, reps: int = 3):
    """Run ``build`` ``reps`` times; return (last result, median seconds).

    ``build(keep)`` must release what it made when ``keep`` is False.
    """
    times = []
    out = None
    for i in range(reps):
        t0 = clock()
        out = build(keep=i == reps - 1)
        times.append(clock() - t0)
    return out, statistics.median(times)


def p50(xs) -> float:
    return float(np.percentile(np.asarray(xs, dtype=np.float64), 50))


def p90(xs) -> float:
    return float(np.percentile(np.asarray(xs, dtype=np.float64), 90))


def end_to_end(names, latencies, setup_s: float, *, probe_s=None,
               ops_per_s: "float | None" = None) -> dict:
    """The end-to-end metrics of one untraced run.

    ``names[i]`` is the matrix operation ``i`` used. ``op_p50_s`` is the
    mean over matrices of the median latency on each: the median of all
    operations together would fall in the gap between two matrices'
    latencies and read the slowest operation of the one and the fastest
    of the other. With ``probe_s`` (the :class:`HostProbe` reading that
    goes with each latency) every latency is first scaled to
    reference-host seconds by :meth:`HostProbe.to_ref`. ``ops_per_s``
    defaults to the closed-loop rate: operations over their summed
    (scaled) latencies.
    """
    if probe_s is not None:
        latencies = [HostProbe.to_ref(x, p) for x, p in zip(latencies, probe_s)]
    by_matrix: dict = {}
    for name, x in zip(names, latencies):
        by_matrix.setdefault(name, []).append(x)
    if ops_per_s is None:
        ops_per_s = len(latencies) / sum(latencies)
    return {
        "op_p50_s": float(np.mean([p50(xs) for xs in by_matrix.values()])),
        "ops_per_s": ops_per_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def wall_info(latencies, probe_s=None) -> dict:
    """Raw figures behind :func:`end_to_end`, for the inputs line: the
    wall-clock latency percentiles over all operations and, for a probed
    run, the host's speed (1.0 is the reference host at full speed) and
    the 90th percentile in reference-host seconds."""
    info = {"wall_p50_s": p50(latencies), "wall_p90_s": p90(latencies)}
    if probe_s is not None:
        info["probe_ratio"] = p50(probe_s) / REF_PROBE_S
        info["ref_p90_s"] = p90([HostProbe.to_ref(x, p) for x, p in zip(latencies, probe_s)])
    return info


# ----------------------------------------------------------------------
# The numeric phase, one span per layer
# ----------------------------------------------------------------------
def traced_refactor(plan, a, tr: Tracer, *, engine="sequential", pool=None,
                    metrics=None) -> NumericFactorization:
    """:func:`repro.serve.refactorize_with_plan`, with a span per layer.

    Composed of the same public calls — value permutation and panel
    scatter, the engine run over all tasks, factor extraction — so the
    numeric layer's time splits into ``numeric.scatter``,
    ``numeric.tasks`` and ``numeric.extract``. Plans here carry neither
    equilibration nor a tuned mapping, the two cases this skips.
    """
    if plan.options.equilibrate or plan.recipe is not None:
        raise ValueError("traced_refactor covers plain plans only")
    with tr.span("numeric.scatter"):
        a_work = permute(a, row_perm=plan.row_perm, col_perm=plan.col_perm)
        eng = LUFactorization(a_work, plan.bp, metrics=metrics, layout=plan.layout)
    with tr.span("numeric.tasks"):
        run_engine(eng, plan.graph, engine, n_workers=N_WORKERS, metrics=metrics,
                   tracer=tr, pool=pool)
    with tr.span("numeric.extract"):
        result = eng.extract(retain_blocks=True, solve_schedule=plan.solve_schedule)
    return NumericFactorization(plan=plan, a=a, result=result)


def factor_bytes(result) -> tuple[int, int]:
    """Bytes held by one factorization: (scalar CSC, supernodal panels)."""
    csc = sum(
        m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
        for m in (result.l_factor, result.u_factor)
    )
    panels = 0
    blocks = result.blocks
    if blocks is not None:
        for group in (blocks.diag_linv, blocks.diag_uinv, blocks.fwd_mats,
                      blocks.fwd_cols, blocks.bwd_mats, blocks.bwd_cols):
            panels += sum(arr.nbytes for arr in group if arr is not None)
    return csc, panels


def static_kernel_bytes(plan) -> dict:
    """Bytes each kernel moves over the plan's static structure (computed).

    From array sizes only: a panel factorization reads and writes its
    ``m×w`` candidate panel; an update ``U(k, j)`` runs one TRSM over the
    ``w_k×w_j`` block and one GEMM pushing the ``(m_k−w_k)`` rows below.
    An upper bound on the run: the zero blocks the LazyS+ shortcut skips
    are counted, and cache reuse is ignored.
    """
    lay = plan.layout
    m = np.array([lay.sub_rows(k).size for k in range(lay.n_blocks)], dtype=np.int64)
    w = np.diff(np.asarray(lay.starts, dtype=np.int64))
    ks, js = [], []
    for t in plan.graph.tasks():
        if t.kind == "U":
            ks.append(t.k)
            js.append(t.j)
    k = np.asarray(ks, dtype=np.int64)
    j = np.asarray(js, dtype=np.int64)
    below = m[k] - w[k]
    return {
        "factor": int(8 * 2 * np.sum(m * w)),
        "trsm": int(8 * np.sum(w[k] * w[k] + 2 * w[k] * w[j])),
        "gemm": int(8 * np.sum(below * w[k] + w[k] * w[j] + 2 * below * w[j])),
    }


# ----------------------------------------------------------------------
# Ledger: per-layer self time from the span tree
# ----------------------------------------------------------------------
#: Span name → per-layer metric. Spans not named here count toward the
#: nearest named ancestor (e.g. ``symbolic.row_merge`` toward static fill).
LAYER_SPANS = {
    "transversal": "ordering.transversal_s",
    "ordering": "ordering.order_s",
    "static_fill": "symbolic.static_fill_s",
    "postorder": "symbolic.postorder_s",
    "supernodes": "symbolic.supernodes_s",
    "task_graph": "taskgraph.build_s",
    "numeric.scatter": "numeric.scatter_s",
    "numeric.tasks": "numeric.tasks_s",
    "numeric.extract": "numeric.extract_s",
    "numeric.solve": "numeric.solve_s",
}


def _covered(span: Span, children: list) -> float:
    """Seconds of ``span`` covered by the union of ``children``."""
    ivs = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    total, cur_s, cur_e = 0.0, None, None
    for s, e in ivs:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _named_below(span: Span, names) -> list:
    """Nearest descendants of ``span`` whose name is in ``names``."""
    out = []
    for c in span.children:
        if c.name in names:
            out.append(c)
        else:
            out.extend(_named_below(c, names))
    return out


def self_seconds(spans) -> float:
    """Σ self time of ``spans``: duration minus what layer spans below cover."""
    return sum(
        s.duration - _covered(s, _named_below(s, LAYER_SPANS)) for s in spans
    )


def layer_seconds(roots, per: int) -> dict:
    """Mean self seconds per operation of every layer in ``LAYER_SPANS``."""
    by_name: dict[str, list] = {}
    stack = list(roots)
    while stack:
        s = stack.pop()
        by_name.setdefault(s.name, []).append(s)
        stack.extend(s.children)
    return {
        metric: self_seconds(by_name.get(name, ())) / per
        for name, metric in LAYER_SPANS.items()
    }


def symbolic_counts(plans) -> dict:
    """Exact structure counts summed over the workload's distinct plans."""
    n = sum(p.n for p in plans)
    n_sn = sum(p.partition.n_supernodes for p in plans)
    return {
        "symbolic.nnz_filled": sum(p.nnz_filled for p in plans),
        "symbolic.n_supernodes": n_sn,
        "symbolic.mean_sn_width": n / n_sn,
        "taskgraph.n_tasks": sum(p.graph.n_tasks for p in plans),
        "taskgraph.n_edges": sum(p.graph.n_edges for p in plans),
    }


@dataclass
class Outcome:
    """What one run reports: the gate's counts and the metric values."""

    gate: Gate
    metrics: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    samples: int = 0
    #: Run facts printed with the inputs (e.g. how late the load ran).
    info: dict = field(default_factory=dict)
    #: Traced runs only: every tracer the run recorded into, by role.
    tracers: dict = field(default_factory=dict)
