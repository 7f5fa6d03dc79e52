"""High-level solver facade: the paper's full pipeline behind one API.

:class:`SparseLUSolver` chains the four steps of §1 — fill-reducing ordering,
static symbolic factorization, numerical factorization, triangular solves —
with the paper's §3 postordering and §4 task graph in between. It is the
entry point the examples and benchmarks use:

>>> from repro.sparse import paper_matrix
>>> from repro.numeric import SparseLUSolver
>>> a = paper_matrix("orsreg1", scale=0.3)
>>> solver = SparseLUSolver(a).analyze().factorize()
>>> import numpy as np
>>> x = solver.solve(np.ones(a.n_cols))

The symbolic half is also exposed as the standalone
:func:`run_symbolic_pipeline` (pattern in, :class:`SymbolicArtifacts` out) —
the paper's static-analysis property means those artifacts depend only on
the sparsity pattern, which is what :mod:`repro.serve` exploits to cache
and reuse them across numeric refactorizations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.numeric.blockdata import BlockLayout
from repro.numeric.factor import FactorResult, LUFactorization
from repro.numeric.solve_dispatch import resolve_impl as resolve_solve_impl
from repro.obs.trace import Tracer
from repro.ordering.amd import amd_ata
from repro.ordering.dissect import nested_dissection_ata
from repro.ordering.mindeg import minimum_degree_ata
from repro.ordering.rcm import reverse_cuthill_mckee
from repro.ordering.transversal import zero_free_diagonal_permutation
from repro.sparse.csc import CSCMatrix
from repro.sparse.ops import matvec, permute
from repro.symbolic.dispatch import resolve_impl
from repro.symbolic.postorder import postorder_pipeline
from repro.symbolic.static_fill import StaticFill, static_symbolic_factorization
from repro.symbolic.supernodes import (
    BlockPattern,
    SupernodePartition,
    amalgamate,
    block_pattern,
    supernode_partition,
)
from repro.taskgraph.dag import TaskGraph
from repro.taskgraph.eforest_graph import build_eforest_graph
from repro.taskgraph.sstar import build_sstar_graph
from repro.util.errors import ReproError, ShapeError

#: Fill-reducing orderings the pipeline dispatches on. All operate on the
#: (row-permuted) pattern and return old-index → elimination-position
#: permutations applied symmetrically; ``natural`` is the identity.
ORDERINGS: tuple[str, ...] = ("mindeg", "amd", "rcm", "dissect", "natural")

#: One-shot flag behind the deprecated ``timings`` alias: the warning fires
#: once per process, not once per access (PR-2 satellite fix).
_TIMINGS_WARNED = False


def _warn_timings_deprecated() -> None:
    global _TIMINGS_WARNED
    if _TIMINGS_WARNED:
        return
    _TIMINGS_WARNED = True
    warnings.warn(
        "SparseLUSolver.timings is deprecated; read solver.tracer "
        "(Tracer.stage_seconds() gives the same mapping)",
        DeprecationWarning,
        stacklevel=3,
    )


@dataclass
class SolverOptions:
    """Knobs of the pipeline (paper defaults unless noted).

    Attributes
    ----------
    ordering:
        Fill-reducing column ordering: ``"mindeg"`` (minimum degree on
        ``AᵀA``, the paper's choice), ``"amd"`` (approximate minimum
        degree, Amestoy-Davis-Duff style), ``"dissect"`` (BFS level-set
        nested dissection), ``"rcm"``, or ``"natural"``.
    ordering_params:
        Extra keyword arguments of the selected ordering, as a sorted
        tuple of ``(name, value)`` pairs so options stay hashable (e.g.
        ``(("leaf_size", 96),)`` for ``dissect``). Part of the symbolic
        cache key: two recipes differing only here produce distinct
        plans. Use :meth:`repro.tune.OrderingRecipe.apply` to build these
        from an autotuned recipe.
    postorder:
        Apply the §3 eforest postordering (the paper's contribution; turn
        off to reproduce the "without postordering" rows of Table 3).
    amalgamation:
        Merge small supernodes (§3). ``max_padding``/``max_supernode`` bound
        the introduced explicit zeros and the block width.
    task_graph:
        ``"eforest"`` (the paper's §4 graph) or ``"sstar"`` (the baseline).
    equilibrate:
        Max-norm row/column scaling before the pipeline (SuperLU's
        ``equil``); improves pivoting on badly scaled physical systems.
    symbolic_params:
        Execution knobs of the ``"chunked"`` static-fill kernel as a
        sorted tuple of ``(name, value)`` pairs — ``"chunk"`` (column
        chunk size) and/or ``"workers"`` (merge thread count), positive
        ints. Like :attr:`repro.tune.OrderingRecipe.mapping`, these are
        deliberately *not* part of :meth:`symbolic_key`: every chunked
        configuration produces the same artifacts bit-for-bit, so keying
        on them would only fragment the plan cache. Ignored by the
        ``"fast"``/``"reference"`` implementations.
    """

    ordering: str = "mindeg"
    ordering_params: tuple = ()
    postorder: bool = True
    amalgamation: bool = True
    max_padding: float = 0.25
    max_supernode: int = 48
    task_graph: str = "eforest"
    equilibrate: bool = False
    symbolic_params: tuple = ()

    def __post_init__(self) -> None:
        if self.ordering not in ORDERINGS:
            raise ValueError(f"unknown ordering {self.ordering!r}")
        if self.task_graph not in ("eforest", "sstar"):
            raise ValueError(f"unknown task graph {self.task_graph!r}")
        params = tuple(sorted((str(k), v) for k, v in self.ordering_params))
        for _, v in params:
            if not isinstance(v, (bool, int, float, str)):
                raise ValueError(
                    f"ordering_params values must be scalars, got {v!r}"
                )
        self.ordering_params = params
        sym = tuple(sorted((str(k), v) for k, v in self.symbolic_params))
        for k, v in sym:
            if k not in ("chunk", "workers"):
                raise ValueError(
                    f"unknown symbolic_params key {k!r}; expected 'chunk' or "
                    "'workers'"
                )
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(
                    f"symbolic_params[{k!r}] must be a positive int, got {v!r}"
                )
        self.symbolic_params = sym

    def ordering_kwargs(self) -> dict:
        """The ``ordering_params`` pairs as a keyword dict."""
        return dict(self.ordering_params)

    def symbolic_kwargs(self) -> dict:
        """The ``symbolic_params`` pairs as a keyword dict."""
        return dict(self.symbolic_params)

    def with_recipe(self, recipe) -> "SolverOptions":
        """Options with ``recipe``'s ordering/amalgamation knobs applied.

        ``recipe`` is a :class:`repro.tune.OrderingRecipe` (duck-typed to
        keep this module free of a ``repro.tune`` import); every field
        the recipe does not own is carried over from ``self``.
        """
        return recipe.apply(self)

    def symbolic_key(self) -> tuple:
        """Hashable tuple of every option the symbolic phase consumes.

        Two matrices with equal patterns and equal symbolic keys produce
        identical :class:`SymbolicArtifacts` — the cache key contract of
        :class:`repro.serve.PlanCache`. ``equilibrate`` is included even
        though it only scales values, so a cached plan also pins down the
        numeric pre-processing it was built to pair with.
        """
        return (
            self.ordering,
            self.ordering_params,
            self.postorder,
            self.amalgamation,
            float(self.max_padding),
            int(self.max_supernode),
            self.task_graph,
            self.equilibrate,
        )

    @classmethod
    def from_symbolic_key(cls, key: tuple) -> "SolverOptions":
        """Rebuild options from a :meth:`symbolic_key` tuple (inverse)."""
        (ordering, params, postorder, amalg, padding, max_sn, graph, equil) = key
        return cls(
            ordering=ordering,
            ordering_params=params,
            postorder=postorder,
            amalgamation=amalg,
            max_padding=padding,
            max_supernode=max_sn,
            task_graph=graph,
            equilibrate=equil,
        )


@dataclass
class AnalysisStats:
    """Symbolic-phase measurements (the raw material of Tables 1 and 3)."""

    n: int
    nnz: int
    nnz_filled: int
    fill_ratio: float
    n_supernodes_raw: int
    n_supernodes: int
    mean_supernode_size: float
    n_btf_blocks: int
    n_tasks: int
    n_edges: int


@dataclass
class SymbolicArtifacts:
    """Everything the symbolic phase produces for one sparsity pattern.

    Depends only on (pattern, symbolic options) — Theorem 3's postorder
    invariance is what makes the whole bundle reusable across numeric
    factorizations. Treat instances as immutable once constructed.
    """

    row_perm: np.ndarray
    col_perm: np.ndarray
    fill: StaticFill
    partition_raw: SupernodePartition
    partition: SupernodePartition
    bp: BlockPattern
    graph: TaskGraph
    n_btf_blocks: int


def run_symbolic_pipeline(
    pattern: CSCMatrix,
    options: Optional[SolverOptions] = None,
    tracer: Optional[Tracer] = None,
) -> SymbolicArtifacts:
    """Steps (1)-(2) plus §3 postordering/supernodes and the §4 graph.

    Pure pattern analysis: ``pattern`` may be pattern-only (values, if
    present, are ignored). Every stage runs inside a tracer span
    (``transversal`` … ``task_graph``, hierarchy in docs/observability.md)
    carrying the symbolic statistics as attributes.
    """
    opts = options or SolverOptions()
    tr = tracer if tracer is not None else Tracer(enabled=False)
    n = pattern.n_cols
    work = pattern.pattern_only()

    with tr.span("transversal"):
        row_perm = zero_free_diagonal_permutation(work)
        work = permute(work, row_perm=row_perm)
    col_perm = np.arange(n, dtype=np.int64)

    with tr.span("ordering", method=opts.ordering):
        if opts.ordering == "mindeg":
            q = minimum_degree_ata(work)
        elif opts.ordering == "amd":
            q = amd_ata(work, **opts.ordering_kwargs())
        elif opts.ordering == "dissect":
            q = nested_dissection_ata(work, **opts.ordering_kwargs())
        elif opts.ordering == "rcm":
            q = reverse_cuthill_mckee(work)
        else:
            q = np.arange(n, dtype=np.int64)
    work = permute(work, row_perm=q, col_perm=q)
    row_perm = q[row_perm]
    col_perm = q[col_perm]

    impl = resolve_impl()
    with tr.span("static_fill", impl=impl) as s:
        fill = static_symbolic_factorization(
            work, impl=impl, tracer=tr, **opts.symbolic_kwargs()
        )
        s.set(nnz_filled=fill.nnz, fill_ratio=fill.fill_ratio)

    n_btf_blocks = 0
    with tr.span("postorder", enabled=opts.postorder) as s:
        if opts.postorder:
            po = postorder_pipeline(fill, impl=impl)
            row_perm = po.perm[row_perm]
            col_perm = po.perm[col_perm]
            fill = po.fill
            n_btf_blocks = len(po.blocks)
            s.set(n_btf_blocks=n_btf_blocks)

    with tr.span("supernodes", amalgamation=opts.amalgamation) as s:
        part_raw = supernode_partition(fill)
        if opts.amalgamation:
            part = amalgamate(
                fill,
                part_raw,
                max_padding=opts.max_padding,
                max_size=opts.max_supernode,
            )
        else:
            part = part_raw
        bp = block_pattern(fill, part)
        s.set(
            n_supernodes_raw=part_raw.n_supernodes,
            n_supernodes=part.n_supernodes,
            mean_supernode_size=part.mean_size(),
        )

    with tr.span("task_graph", kind=opts.task_graph) as s:
        if opts.task_graph == "eforest":
            graph = build_eforest_graph(bp)
        else:
            graph = build_sstar_graph(bp)
        s.set(n_tasks=graph.n_tasks, n_edges=graph.n_edges)

    return SymbolicArtifacts(
        row_perm=row_perm,
        col_perm=col_perm,
        fill=fill,
        partition_raw=part_raw,
        partition=part,
        bp=bp,
        graph=graph,
        n_btf_blocks=n_btf_blocks,
    )


class SparseLUSolver:
    """One-stop solver for ``A x = b`` by the paper's parallel sparse LU.

    Call :meth:`analyze` (symbolic pipeline), then :meth:`factorize`
    (numeric), then :meth:`solve`. Intermediate artefacts (static fill,
    partition, block pattern, task graph) stay accessible for the
    benchmarks and the parallel executors. :meth:`adopt_plan` replaces
    :meth:`analyze` with a cached :class:`repro.serve.SymbolicPlan`.
    """

    def __init__(
        self,
        a: CSCMatrix,
        options: Optional[SolverOptions] = None,
        *,
        trace: bool = False,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if not a.is_square:
            raise ShapeError("solver requires a square matrix")
        if not a.has_values:
            raise ShapeError("solver requires matrix values")
        self.a = a
        self.options = options or SolverOptions()
        # Observability (docs/observability.md). The tracer always records
        # the coarse stage spans (they back the legacy ``timings`` view at
        # ~10 spans per solve); ``trace=True`` additionally turns on
        # fine-grained detail: per-kernel counters/histograms in the
        # numeric engine and the machine-model schedule projection.
        self.tracer = tracer if tracer is not None else Tracer(detail=bool(trace))
        # Populated by analyze() / adopt_plan():
        self.row_perm: Optional[np.ndarray] = None
        self.col_perm: Optional[np.ndarray] = None
        self.a_work: Optional[CSCMatrix] = None
        self.fill: Optional[StaticFill] = None
        self.partition: Optional[SupernodePartition] = None
        self.partition_raw: Optional[SupernodePartition] = None
        self.bp: Optional[BlockPattern] = None
        self.graph: Optional[TaskGraph] = None
        self.n_btf_blocks: int = 0
        self.equil = None  # set by analyze() when options.equilibrate
        self._layout: Optional[BlockLayout] = None  # shared across refactorizations
        self._solve_schedule = None  # SolveSchedule, shared like the layout
        self._row_perm_inv: Optional[np.ndarray] = None  # cached argsort
        # Populated by factorize():
        self.result: Optional[FactorResult] = None

    @property
    def timings(self) -> dict[str, float]:
        """Deprecated alias: wall seconds per stage, backed by the tracer.

        Keys are the span names (``transversal``, ``ordering``,
        ``static_fill``, ``postorder``, ``supernodes``, ``task_graph``,
        ``factorize``, ...). Prefer ``self.tracer`` — spans carry nesting
        and attributes this flat view drops. Values accumulate across
        repeated calls (e.g. several ``refactorize()`` rounds).

        Emits a :class:`DeprecationWarning` once per process.
        """
        _warn_timings_deprecated()
        return self.tracer.stage_seconds()

    # ------------------------------------------------------------------
    def _adopt_artifacts(self, art: SymbolicArtifacts) -> None:
        self.row_perm = art.row_perm
        self.col_perm = art.col_perm
        self.fill = art.fill
        self.partition_raw = art.partition_raw
        self.partition = art.partition
        self.bp = art.bp
        self.graph = art.graph
        self.n_btf_blocks = art.n_btf_blocks
        self._layout = None
        self._solve_schedule = None
        self._row_perm_inv = None

    def _prepare_source(self, a: CSCMatrix) -> CSCMatrix:
        """Apply (and record) equilibration when the options ask for it."""
        if not self.options.equilibrate:
            self.equil = None
            return a
        from repro.numeric.scaling import equilibrate

        with self.tracer.span("equilibrate"):
            self.equil = equilibrate(a)
            return self.equil.apply(a)

    def _ensure_layout(self) -> BlockLayout:
        if self._layout is None:
            assert self.bp is not None
            self._layout = BlockLayout(self.bp)
        return self._layout

    def _ensure_solve_schedule(self):
        """Static level schedule of the solve graph (cached like the layout,
        and carried by frozen plans the same way)."""
        if self._solve_schedule is None:
            from repro.taskgraph.solve_graph import level_schedule

            assert self.bp is not None
            self._solve_schedule = level_schedule(self.bp)
        return self._solve_schedule

    def _row_perm_inverse(self) -> np.ndarray:
        """Inverse of ``row_perm``, so the RHS permutation is one gather
        (``b[inv]``) instead of an ``empty_like`` + scatter pair."""
        if self._row_perm_inv is None:
            assert self.row_perm is not None
            inv = np.empty(self.row_perm.size, dtype=np.int64)
            inv[self.row_perm] = np.arange(self.row_perm.size, dtype=np.int64)
            self._row_perm_inv = inv
        return self._row_perm_inv

    # ------------------------------------------------------------------
    def analyze(self) -> "SparseLUSolver":
        """Steps (1)-(2) plus §3 postordering/supernodes and the §4 graph.

        Every stage runs inside a tracer span nested under ``analyze``
        (hierarchy documented in docs/observability.md); the spans carry
        the symbolic statistics as attributes.
        """
        tr = self.tracer
        with tr.span("analyze", n=self.a.n_cols, nnz=self.a.nnz) as analyze_span:
            source = self._prepare_source(self.a)
            art = run_symbolic_pipeline(source.pattern_only(), self.options, tr)
            self._adopt_artifacts(art)
            self.a_work = permute(
                source, row_perm=self.row_perm, col_perm=self.col_perm
            )
            analyze_span.set(
                nnz_filled=art.fill.nnz, fill_ratio=art.fill.fill_ratio
            )
        return self

    def adopt_plan(self, plan) -> "SparseLUSolver":
        """Adopt a prebuilt :class:`repro.serve.SymbolicPlan` instead of
        running :meth:`analyze`.

        The plan's pattern must equal this matrix's pattern (verified
        entry-for-entry, not just by fingerprint). The solver takes over
        the plan's options, so numeric pre-processing (equilibration)
        matches what the plan was built for. No symbolic-stage span is
        opened — this is the warm path of the serving subsystem.
        """
        from repro.util.errors import PlanMismatchError

        if not plan.matches(self.a):
            raise PlanMismatchError(
                "plan was built for a different sparsity pattern "
                f"({plan.fingerprint} vs this {self.a.n_rows}x{self.a.n_cols} "
                f"matrix with nnz={self.a.nnz})"
            )
        self.options = plan.options
        tr = self.tracer
        with tr.span("adopt_plan", fingerprint=plan.fingerprint.digest):
            self._adopt_artifacts(plan.artifacts)
            self._layout = plan.layout
            self._solve_schedule = plan.solve_schedule
            source = self._prepare_source(self.a)
            self.a_work = permute(
                source, row_perm=self.row_perm, col_perm=self.col_perm
            )
        return self

    def plan(self):
        """Freeze this solver's symbolic analysis as a shareable
        :class:`repro.serve.SymbolicPlan` (requires :meth:`analyze`)."""
        from repro.serve.plan import plan_from_solver

        if self.bp is None:
            raise ReproError("call analyze() first")
        return plan_from_solver(self)

    def stats(self) -> AnalysisStats:
        if self.fill is None or self.bp is None or self.graph is None:
            raise ReproError("call analyze() first")
        assert self.partition is not None and self.partition_raw is not None
        return AnalysisStats(
            n=self.fill.n,
            nnz=self.a.nnz,
            nnz_filled=self.fill.nnz,
            fill_ratio=self.fill.fill_ratio,
            n_supernodes_raw=self.partition_raw.n_supernodes,
            n_supernodes=self.partition.n_supernodes,
            mean_supernode_size=self.partition.mean_size(),
            n_btf_blocks=self.n_btf_blocks,
            n_tasks=self.graph.n_tasks,
            n_edges=self.graph.n_edges,
        )

    # ------------------------------------------------------------------
    def factorize(
        self,
        order=None,
        *,
        retain_blocks=None,
        engine: Optional[str] = None,
        n_workers: int = 4,
        sanitizer=None,
    ) -> "SparseLUSolver":
        """Numerical factorization (step (3)).

        ``order`` may be any topological order of the task graph; ``None``
        uses the execution engine instead (see below).

        ``engine`` selects the executor — ``"sequential"`` (default),
        ``"threaded"``, or ``"proc"`` — with the dispatch precedence
        ``engine=`` argument > ``$REPRO_ENGINE`` > default
        (:mod:`repro.parallel.dispatch`). The parallel engines run the
        task graph with ``n_workers`` threads/processes and produce
        factors bitwise identical to the sequential order. ``order`` and
        ``engine`` are mutually exclusive: an explicit order *is* a
        schedule, replayed sequentially.

        ``retain_blocks`` controls whether the factors are additionally
        kept in supernodal panel form for the block solve engine
        (:mod:`repro.numeric.supersolve`); ``None`` retains them exactly
        when the resolved solve implementation is ``"block"`` (see
        :mod:`repro.numeric.solve_dispatch`).

        ``sanitizer`` optionally attaches a caller-owned
        :class:`repro.analysis.sanitizer.AccessSanitizer` to the run
        (its findings stay on the object — no exception); without one,
        ``REPRO_SANITIZE=1`` builds a strict sanitizer that raises
        :class:`~repro.util.errors.SanitizerError` on any footprint
        escape. Both need the symbolic plan, which this method forwards
        as ``fill=``.

        With detail tracing on, the numeric engine feeds per-kernel
        counters/histograms into ``tracer.metrics``, and the analyzed task
        graph is additionally projected through the machine-model event
        simulation (span ``simulate_schedule``) so the document carries the
        ``engine.*`` busy/idle/message metrics of the paper's platform.
        """
        from repro.parallel.dispatch import resolve_engine, run_engine

        if self.a_work is None or self.bp is None:
            raise ReproError("call analyze() first")
        if order is not None and engine is not None:
            raise ValueError("pass either an explicit order or engine=, not both")
        if retain_blocks is None:
            retain_blocks = resolve_solve_impl() == "block"
        tr = self.tracer
        with tr.span("factorize") as s:
            eng = LUFactorization(
                self.a_work,
                self.bp,
                metrics=tr.metrics if tr.detail else None,
                layout=self._ensure_layout(),
            )
            if order is not None:
                eng.run_order(order)
            else:
                run_engine(
                    eng,
                    self.graph,
                    resolve_engine(engine),
                    n_workers=n_workers,
                    metrics=tr.metrics if tr.detail else None,
                    tracer=tr,
                    fill=self.fill,
                    sanitizer=sanitizer,
                )
            self.result = eng.extract(
                retain_blocks=retain_blocks,
                solve_schedule=(
                    self._ensure_solve_schedule() if retain_blocks else None
                ),
            )
            ls = eng.lazy_stats
            s.set(
                n_tasks=len(eng.done),
                n_updates_run=ls.n_updates_run,
                n_updates_skipped=ls.n_updates_skipped,
                flops_spent=ls.flops_spent,
                flops_saved=ls.flops_saved,
            )
        if tr.detail:
            self._simulate_for_trace()
        return self

    def _simulate_for_trace(self, n_procs: int = 4) -> None:
        """Detail-trace extra: event-simulate the schedule for engine metrics."""
        from repro.parallel.machine import ORIGIN2000
        from repro.parallel.mapping import cyclic_mapping
        from repro.parallel.simulate import simulate_schedule

        assert self.graph is not None and self.bp is not None
        machine = ORIGIN2000.with_procs(n_procs)
        with self.tracer.span("simulate_schedule", n_procs=n_procs) as s:
            result = simulate_schedule(
                self.graph,
                self.bp,
                machine,
                cyclic_mapping(self.bp.n_blocks, n_procs),
                metrics=self.tracer.metrics,
            )
            s.set(makespan=result.makespan, efficiency=result.efficiency)

    def refactorize(
        self,
        a_new: CSCMatrix,
        order=None,
        *,
        retain_blocks=None,
        engine: Optional[str] = None,
        n_workers: int = 4,
    ) -> "SparseLUSolver":
        """Numeric factorization of *new values* on the same pattern.

        The static symbolic analysis depends only on the pattern, so a
        sequence of systems with a frozen sparsity structure — Newton steps
        of a reservoir simulation, time steps of a transient solve — pays
        for ``analyze()`` once and calls this per step. ``a_new`` must have
        exactly the pattern of the original matrix (values free, pivoting
        handled anew). The block layout from the first factorization is
        reused, so this path runs no symbolic or structural work at all.

        ``engine``/``n_workers`` select the executor exactly as in
        :meth:`factorize`.
        """
        from repro.parallel.dispatch import resolve_engine, run_engine
        from repro.sparse.pattern import pattern_equal

        if self.bp is None or self.row_perm is None:
            raise ReproError("call analyze() first")
        if not pattern_equal(a_new.pattern_only(), self.a.pattern_only()):
            raise ShapeError(
                "refactorize() requires the original sparsity pattern; run a "
                "fresh SparseLUSolver for a different structure"
            )
        if not a_new.has_values:
            raise ShapeError("refactorize() requires values")
        if order is not None and engine is not None:
            raise ValueError("pass either an explicit order or engine=, not both")
        if retain_blocks is None:
            retain_blocks = resolve_solve_impl() == "block"
        self.a = a_new
        tr = self.tracer
        with tr.span("refactorize"):
            source = self._prepare_source(a_new)
            self.a_work = permute(
                source, row_perm=self.row_perm, col_perm=self.col_perm
            )
            eng = LUFactorization(
                self.a_work,
                self.bp,
                metrics=tr.metrics if tr.detail else None,
                layout=self._ensure_layout(),
            )
            if order is not None:
                eng.run_order(order)
            else:
                run_engine(
                    eng,
                    self.graph,
                    resolve_engine(engine),
                    n_workers=n_workers,
                    metrics=tr.metrics if tr.detail else None,
                    tracer=tr,
                    fill=self.fill,
                )
            self.result = eng.extract(
                retain_blocks=retain_blocks,
                solve_schedule=(
                    self._ensure_solve_schedule() if retain_blocks else None
                ),
            )
        return self

    def solve(self, b: np.ndarray, *, impl: Optional[str] = None) -> np.ndarray:
        """Solve ``A x = b`` using the computed factors (step (4)).

        ``b`` may be a vector of shape ``(n,)`` or a matrix of ``k``
        right-hand sides of shape ``(n, k)``; the triangular solves cover
        all columns at once, which is what the serving layer's request
        batching relies on.

        ``impl`` selects the solve engine (``"block"`` — supernodal panel
        solves over the retained block factors — or ``"reference"``, the
        scalar CSC substitutions); it overrides ``$REPRO_SOLVE``, which
        overrides the default (see :mod:`repro.numeric.solve_dispatch`).
        The block path needs block factors: when the factorization did not
        retain them, the solve falls back to the reference path.
        """
        if self.result is None:
            raise ReproError("call factorize() first")
        assert self.row_perm is not None and self.col_perm is not None
        choice = resolve_solve_impl(impl)
        use_block = choice == "block" and self.result.blocks is not None
        impl_used = "block" if use_block else "reference"
        b = np.asarray(b, dtype=np.float64)
        n = self.a.n_cols
        if b.ndim not in (1, 2) or b.shape[0] != n:
            raise ShapeError(f"rhs has shape {b.shape}, expected ({n},) or ({n}, k)")
        n_rhs = 1 if b.ndim == 1 else b.shape[1]
        with self.tracer.span("solve", n_rhs=n_rhs, impl=impl_used):
            if self.tracer.enabled:
                self.tracer.metrics.histogram("solve.n_rhs", unit="cols").observe(
                    n_rhs
                )
            if self.equil is not None:
                b = self.equil.scale_rhs(b)
            b_work = b[self._row_perm_inverse()]
            with self.tracer.span(f"solve.{impl_used}") as s:
                x_work = self.result.solve(b_work, impl=impl_used)
                if use_block:
                    s.set(**self.result.blocks.span_attrs())
            x = x_work[self.col_perm]
            if self.equil is not None:
                x = self.equil.unscale_solution(x)
        return x

    def solve_refined(self, b: np.ndarray, *, max_iters: int = 5, tol: float = 1e-14):
        """Solve with iterative refinement; returns a ``RefinementResult``.

        Uses the already-computed factors for both the initial solve and the
        residual corrections (fixed-precision refinement, as SuperLU does).
        """
        from repro.numeric.refine import iterative_refinement

        if self.result is None:
            raise ReproError("call factorize() first")
        with self.tracer.span("solve_refined") as s:
            rr = iterative_refinement(
                self.a, self.solve, b, max_iters=max_iters, tol=tol
            )
            s.set(iterations=rr.iterations, converged=rr.converged)
        return rr

    def condition_estimate(self) -> float:
        """Hager-Higham 1-norm condition estimate from the factors."""
        from repro.numeric.refine import condest_1norm

        if self.result is None:
            raise ReproError("call factorize() first")
        # Fold the symbolic permutations into a factor-level solve: the
        # estimator works on A_work, whose conditioning equals A's.
        return condest_1norm(
            self.a_work,
            self.result.l_factor,
            self.result.u_factor,
            self.result.orig_at,
        )

    def residual_norm(self, x: np.ndarray, b: np.ndarray) -> float:
        """``‖A x − b‖_∞ / ‖b‖_∞`` — the acceptance metric of the tests."""
        r = matvec(self.a, x) - np.asarray(b, dtype=np.float64)
        denom = float(np.max(np.abs(b))) or 1.0
        return float(np.max(np.abs(r))) / denom
