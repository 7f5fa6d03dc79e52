"""Numeric refactorization against a cached symbolic plan.

The warm path of the serving subsystem: given a :class:`SymbolicPlan` and a
matrix carrying *new values on the plan's pattern*, run only the numeric
phase — value permutation, panel scatter, supernodal elimination, factor
extraction — and return a self-contained :class:`NumericFactorization`.
No ordering, fill, postorder, supernode, or task-graph work happens here;
the ``refactor`` tracer span contains no symbolic child span, which the
test suite pins as the subsystem's core guarantee.

Because the plan (including its :class:`~repro.numeric.blockdata.BlockLayout`)
is immutable, any number of refactorizations may run concurrently against
the same plan; each allocates its own value panels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.numeric.factor import FactorResult, LUFactorization
from repro.numeric.solve_dispatch import resolve_impl as resolve_solve_impl
from repro.obs.trace import Tracer
from repro.serve.plan import SymbolicPlan
from repro.sparse.csc import CSCMatrix
from repro.sparse.ops import matvec, permute
from repro.util.errors import PlanMismatchError, ShapeError


@dataclass
class NumericFactorization:
    """Factors of one value assignment, bound to the plan that produced them.

    Self-contained for solving: carries the composed permutations and the
    equilibration (when the plan's options ask for it), so :meth:`solve`
    needs nothing but a right-hand side.
    """

    plan: SymbolicPlan
    a: CSCMatrix
    result: FactorResult
    equil: object = None  # Equilibration | None
    tracer: Optional[Tracer] = None

    def solve(self, b: np.ndarray, *, impl: Optional[str] = None) -> np.ndarray:
        """Solve ``A x = b`` for a vector ``(n,)`` or multi-RHS ``(n, k)``.

        Multi-RHS solves are blocked: one pass over each triangular factor
        covers all columns — the kernel the service's request batching
        relies on. ``impl`` overrides the ``$REPRO_SOLVE`` dispatch
        (``"block"`` panel solves when the factors were retained in block
        form, ``"reference"`` scalar CSC solves).
        """
        n = self.plan.n
        b = np.asarray(b, dtype=np.float64)
        if b.ndim not in (1, 2) or b.shape[0] != n:
            raise ShapeError(f"rhs has shape {b.shape}, expected ({n},) or ({n}, k)")
        choice = resolve_solve_impl(impl)
        use_block = choice == "block" and self.result.blocks is not None
        impl_used = "block" if use_block else "reference"
        n_rhs = 1 if b.ndim == 1 else int(b.shape[1])
        tr = self.tracer if self.tracer is not None else Tracer(enabled=False)
        with tr.span("solve", n=n, n_rhs=n_rhs, impl=impl_used):
            if tr.enabled:
                tr.metrics.histogram("solve.n_rhs", unit="cols").observe(n_rhs)
            if self.equil is not None:
                b = self.equil.scale_rhs(b)
            row_perm_inv = self.plan.row_perm_inv
            if row_perm_inv is None:
                row_perm_inv = np.argsort(self.plan.row_perm, kind="stable")
            b_work = b[row_perm_inv]
            with tr.span(f"solve.{impl_used}") as s:
                if use_block:
                    s.set(**self.result.blocks.span_attrs())
                x_work = self.result.solve(b_work, impl=impl_used)
            x = x_work[self.plan.col_perm]
            if self.equil is not None:
                x = self.equil.unscale_solution(x)
        return x

    def residual_norm(self, x: np.ndarray, b: np.ndarray) -> float:
        """``‖A x − b‖_∞ / ‖b‖_∞`` against the *original* (unscaled) system."""
        b = np.asarray(b, dtype=np.float64)
        r = matvec(self.a, x) - b
        denom = float(np.max(np.abs(b))) or 1.0
        return float(np.max(np.abs(r))) / denom


def refactorize_with_plan(
    plan: SymbolicPlan,
    a: CSCMatrix,
    *,
    tracer: Optional[Tracer] = None,
    check_pattern: bool = True,
    engine: Optional[str] = None,
    n_workers: int = 4,
    pool=None,
) -> NumericFactorization:
    """Numerically factorize ``a`` using ``plan``'s static analysis.

    ``a`` must carry values on exactly the plan's pattern (verified
    entry-for-entry unless ``check_pattern=False``, for callers that
    already verified — e.g. a cache hit in the same call chain). Deferred
    pivoting still runs: the static structure of ``Ā`` covers every pivot
    choice the S+ discipline can make, so new values never need new
    symbolic work (the paper's Theorem 3 argument).

    ``engine``/``n_workers`` select the numeric executor with the usual
    precedence (argument > ``$REPRO_ENGINE`` > sequential); the plan
    already carries the task graph the parallel engines schedule by.
    When the plan's tuned recipe pins a non-default ``mapping``, the
    refactorization transparently runs under it: a ``2d``/``2d:PRxPC``
    recipe swaps in the plan's 2-D task graph with the matching
    :class:`~repro.parallel.mapping.GridMapping`, a 1-D policy name
    builds that owner map (``cyclic``, the field default, keeps each
    engine's own default placement). ``pool`` optionally shares one
    :class:`repro.parallel.procengine.ProcPool` across calls — the
    :class:`~repro.serve.service.SolverService` passes its own so serving
    threads never each spawn a process pool.
    """
    from repro.parallel.dispatch import resolve_engine, run_engine

    if not a.has_values:
        raise ShapeError("refactorize_with_plan() requires matrix values")
    if check_pattern and not plan.matches(a):
        raise PlanMismatchError(
            f"matrix pattern ({a.n_rows}x{a.n_cols}, nnz={a.nnz}) does not "
            f"match the plan's ({plan.fingerprint})"
        )
    tr = tracer if tracer is not None else Tracer(enabled=False)
    with tr.span("refactor", n=plan.n, nnz=plan.nnz) as s:
        equil = None
        source = a
        if plan.options.equilibrate:
            from repro.numeric.scaling import equilibrate

            equil = equilibrate(a)
            source = equil.apply(a)
        a_work = permute(source, row_perm=plan.row_perm, col_perm=plan.col_perm)
        eng = LUFactorization(
            a_work,
            plan.bp,
            metrics=tr.metrics if tr.detail else None,
            layout=plan.layout,
        )
        graph = plan.graph
        mapping = None
        map_policy = plan.recipe.mapping if plan.recipe is not None else "cyclic"
        if map_policy != "cyclic":
            from repro.parallel.mapping import (
                is_grid_spec,
                make_mapping,
                parse_grid_spec,
            )

            if is_grid_spec(map_policy):
                graph = plan.graph_2d
                mapping = parse_grid_spec(map_policy, n_workers)
            else:
                mapping = make_mapping(map_policy, plan.bp, n_workers)
        s.set(mapping=map_policy)
        run_engine(
            eng,
            graph,
            resolve_engine(engine),
            n_workers=n_workers,
            mapping=mapping,
            metrics=tr.metrics if tr.detail else None,
            tracer=tr,
            pool=pool,
        )
        retain = resolve_solve_impl() == "block"
        result = eng.extract(
            retain_blocks=retain,
            solve_schedule=plan.solve_schedule if retain else None,
        )
        s.set(n_tasks=len(eng.done))
    return NumericFactorization(
        plan=plan, a=a, result=result, equil=equil, tracer=tracer
    )
