"""Task-based supernodal LU factorization with partial pivoting.

:class:`LUFactorization` executes ``Factor``/``Update`` tasks against the
dense block storage. Any topological order of a valid dependence graph
produces the same factors (the property the task-graph tests assert); the
right-looking sequential order is built in as the reference.

Pivoting bookkeeping: ``Factor(k)`` swaps rows inside its candidate panel
and records the renaming ``sub_rows[order[p]] → sub_rows[p]`` of global row
ids. ``Update(k, j)`` *applies* that renaming to column ``j`` before its
TRSM/GEMM — the deferred-pivot discipline of S+ that makes the 1-D
distributed factorization possible, and the very reason Theorem 4's
ancestor-ordering of updates is required.

The engine also executes the refined 2-D task kinds of
:mod:`repro.parallel.two_d` (``SL``/``SU``/``UP``), which split
``Update(k, j)``'s body per block row: ``SU(k, j)`` applies the renames
and the TRSM for column ``j`` (the rename scatter crosses block rows, so
it belongs to the per-column task), and each ``UP(k, i, j)`` pushes the
GEMM into block row ``i`` only. ``F(k)`` is *unchanged* — it still pivots
over the whole candidate panel — so 1-D and 2-D runs share one pivot
sequence and agree to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.numeric.blockdata import BlockColumnData
from repro.numeric.kernels import (
    gemm_flops,
    lu_panel_flops,
    lu_panel_inplace,
    solve_unit_lower,
    trsm_flops,
)
from repro.numeric.solve_dispatch import resolve_impl as resolve_solve_impl
from repro.numeric.triangular import lower_unit_solve_csc, upper_solve_csc
from repro.sparse.csc import CSCMatrix
from repro.symbolic.supernodes import BlockPattern
from repro.taskgraph.tasks import Task, enumerate_tasks
from repro.util.errors import PatternError, SchedulingError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (supersolve)
    from repro.analysis.sanitizer import AccessSanitizer
    from repro.numeric.supersolve import BlockFactors


@dataclass
class LazyStats:
    """Work skipped by the LazyS+-style zero-block elimination.

    ``flops_saved``/``flops_spent`` are GEMM+TRSM estimates; their ratio is
    the fraction of the static structure that never carried numerical work
    — the quantity motivating the LazyS+ follow-up the paper cites in §2.
    """

    n_updates_skipped: int = 0
    n_updates_run: int = 0
    flops_saved: int = 0
    flops_spent: int = 0

    def skip_update(self, w: int, rows_below: int, w_dst: int) -> None:
        from repro.numeric.kernels import update_flops

        self.n_updates_skipped += 1
        self.flops_saved += update_flops(w, rows_below, w_dst)

    def note_gemm_rows(self, total: int, active: int, w: int, w_dst: int) -> None:
        self.n_updates_run += 1
        self.flops_saved += 2 * (total - active) * w * w_dst
        self.flops_spent += w * w * w_dst + 2 * active * w * w_dst

    @property
    def saved_fraction(self) -> float:
        denom = self.flops_saved + self.flops_spent
        return self.flops_saved / denom if denom else 0.0


class FactorResult:
    """Factors ``P A = L U``, stored once, in supernodal panel form.

    ``orig_at[i]`` is the original row of ``A`` living at pivoted position
    ``i``, i.e. ``(PA)[i, :] = A[orig_at[i], :]``.

    ``blocks`` carries the factors as panels
    (:class:`repro.numeric.supersolve.BlockFactors`) when
    ``extract(retain_blocks=True)`` kept them; the block solve path reads
    only these. The scalar CSC factors ``l_factor``/``u_factor`` are
    assembled from the panels on first access and cached — the reference
    solves, :meth:`solve_transpose`, :meth:`slogdet` and condition
    estimation trigger it. ``retain_blocks=False`` assembles them eagerly
    and keeps no panels.
    """

    def __init__(
        self,
        orig_at: np.ndarray,
        blocks: "BlockFactors | None" = None,
        *,
        drop_tol: float = 0.0,
        csc: "tuple[CSCMatrix, CSCMatrix] | None" = None,
    ) -> None:
        if blocks is None and csc is None:
            raise ValueError("FactorResult needs block factors or scalar factors")
        self.orig_at = orig_at
        self.blocks = blocks
        self._drop_tol = drop_tol
        self._csc = csc

    def _scalar(self) -> "tuple[CSCMatrix, CSCMatrix]":
        if self._csc is None:
            assert self.blocks is not None
            self._csc = self.blocks.scalar_factors(self._drop_tol)
        return self._csc

    @property
    def l_factor(self) -> CSCMatrix:
        """Unit-lower ``L`` in scalar CSC form (assembled on first access)."""
        return self._scalar()[0]

    @property
    def u_factor(self) -> CSCMatrix:
        """Upper ``U`` in scalar CSC form (assembled on first access)."""
        return self._scalar()[1]

    def solve(self, b: np.ndarray, *, impl: "str | None" = None) -> np.ndarray:
        """Solve ``A x = b`` via ``L U x = P b`` (vector or multi-RHS).

        ``impl`` selects the solve engine (see
        :mod:`repro.numeric.solve_dispatch`): ``"block"`` runs the
        supernodal panel solves when block factors were retained (falling
        back to the scalar path otherwise), ``"reference"`` always runs
        the scalar CSC substitutions.
        """
        choice = resolve_solve_impl(impl)
        if choice == "block" and self.blocks is not None:
            return self.blocks.solve(b)
        b = np.asarray(b, dtype=np.float64)
        pb = b[self.orig_at]
        y = lower_unit_solve_csc(self.l_factor, pb)
        return upper_solve_csc(self.u_factor, y)

    def solve_transpose(self, b: np.ndarray) -> np.ndarray:
        """Solve ``Aᵀ x = b`` via ``Uᵀ Lᵀ P x = b`` (vector or multi-RHS)."""
        from repro.numeric.triangular import (
            lower_transpose_unit_solve_csc,
            upper_transpose_solve_csc,
        )

        b = np.asarray(b, dtype=np.float64)
        y = upper_transpose_solve_csc(self.u_factor, b)
        z = lower_transpose_unit_solve_csc(self.l_factor, y)
        out = np.empty_like(z)
        out[...] = 0.0
        # PA = LU => Aᵀ Pᵀ = UᵀLᵀ => x = Pᵀ z: x[orig_at[i]] = z[i].
        out[self.orig_at] = z
        return out

    def slogdet(self) -> tuple[float, float]:
        """``(sign, log|det A|)`` from the factors (NumPy convention).

        ``det(A) = det(Pᵀ) · det(L) · det(U) = sign(P) · Π u_ii``. Fully
        vectorized: the U diagonal comes out of one mask over the CSC
        arrays, and the permutation parity comes from a pointer-doubling
        cycle count (``sign = (-1)^(n - #cycles)``) — no per-element
        Python loop on either side.
        """
        n = self.orig_at.size
        u = self.u_factor
        cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(u.indptr))
        on_diag = u.indices == cols
        if int(np.count_nonzero(on_diag)) != n:
            return 0.0, -np.inf  # at least one structurally absent u_jj
        dvals = u.data[on_diag]
        if np.any(dvals == 0.0):
            return 0.0, -np.inf
        sign = _permutation_sign(self.orig_at)
        if int(np.count_nonzero(dvals < 0.0)) % 2:
            sign = -sign
        logdet = float(np.sum(np.log(np.abs(dvals))))
        return sign, logdet

    def reconstruct_pa_dense(self) -> np.ndarray:
        """Dense ``L @ U`` (small-matrix tests only)."""
        return self.l_factor.to_dense() @ self.u_factor.to_dense()


def _permutation_sign(perm: np.ndarray) -> float:
    """Parity of a permutation array via pointer-doubling cycle counting.

    ``rep`` converges to the minimum element of each cycle (after round
    ``r`` it covers a window of ``2^r`` hops), so ``np.unique(rep).size``
    is the cycle count and the parity is ``(-1)^(n - #cycles)`` —
    O(n log n) total work with no Python-level cycle walk.
    """
    p = np.asarray(perm, dtype=np.int64)
    n = p.size
    rep = np.arange(n, dtype=np.int64)
    hop = p.copy()
    span = 1
    while span < n:
        rep = np.minimum(rep, rep[hop])
        hop = hop[hop]
        span *= 2
    n_cycles = int(np.unique(rep).size)
    return -1.0 if (n - n_cycles) % 2 else 1.0


class LUFactorization:
    """Executes the task set of one factorization over block storage.

    Parameters
    ----------
    a:
        Square matrix with values, already permuted by the full symbolic
        pipeline (transversal, fill-reducing order, postorder).
    bp:
        Block pattern of ``Ā`` over the supernode partition.
    check_dependencies:
        When True, :meth:`run_task` verifies its prerequisites ran (the
        executors pass orders that satisfy this by construction; tests use
        it to catch bad schedules).

    Notes
    -----
    ``lazy_stats`` accumulates the work skipped by the zero-block (LazyS+)
    shortcut. Under the threaded executor its counters are updated without
    a lock and may undercount slightly; the numerics are unaffected.
    """

    def __init__(
        self,
        a: CSCMatrix,
        bp: BlockPattern,
        *,
        check_dependencies: bool = False,
        panel_kernel=None,
        metrics=None,
        layout=None,
    ) -> None:
        # ``layout`` is an optional precomputed BlockLayout for ``bp`` (a
        # cached symbolic plan carries one) so repeated numeric
        # factorizations skip rebuilding the structural metadata.
        self.data = BlockColumnData(a, bp, layout=layout)
        self.bp = bp
        self.n = a.n_cols
        self.orig_at = np.arange(self.n, dtype=np.int64)
        self.sub_rows: dict[int, np.ndarray] = {}
        self.pivot_order: dict[int, np.ndarray] = {}
        self.done: set[Task] = set()
        self.check_dependencies = check_dependencies
        self.lazy_stats = LazyStats()
        # SL(k, i) results: active-row masks of lower blocks, keyed (k, i).
        # Purely derived from the factored (immutable) panel k, so a rank
        # that never ran SL(k, i) recomputes the identical mask locally.
        self._lower_active: dict[tuple[int, int], np.ndarray] = {}
        # Panel kernel: ``(panel, width) -> local pivot order``; the blocked
        # getrf variant (lu_panel_blocked) pays off on wide amalgamated
        # supernodes.
        self.panel_kernel = panel_kernel or lu_panel_inplace
        # Optional MetricsRegistry: per-kernel call counts, flop counters,
        # block-width histograms, and pivot-deferral counters (stable names
        # in docs/observability.md). ``None`` keeps the hot paths at one
        # ``is None`` branch per task. Under the threaded executor the
        # updates race benignly, exactly like ``lazy_stats``.
        self.metrics = metrics
        # Optional repro.analysis.sanitizer.AccessSanitizer, attached by
        # run_engine: kernels record the scalar rows they actually touch
        # for online containment in the static footprints. Disabled cost
        # is one ``is None`` test per site — the ``metrics`` discipline.
        self.sanitizer: "AccessSanitizer | None" = None

    # ------------------------------------------------------------------
    # Task execution
    # ------------------------------------------------------------------
    def run_task(self, task: Task) -> None:
        if task in self.done:
            raise SchedulingError(f"task {task} executed twice")
        san = self.sanitizer
        if san is not None:
            san.begin(task)
        if task.kind == "F":
            self._factor(task.k)
        elif task.kind == "U":
            self._update(task.k, task.j)
        elif task.kind == "SL":
            self._scale_lower(task.k, task.i)
        elif task.kind == "SU":
            self._scale_upper(task.k, task.j)
        elif task.kind == "UP":
            self._block_update(task.k, task.i, task.j)
        else:  # pragma: no cover - task constructors prevent this
            raise SchedulingError(f"unknown task kind {task.kind!r}")
        if san is not None:
            san.end(task)
        self.done.add(task)

    def run_order(self, order: Iterable[Task]) -> None:
        for task in order:
            self.run_task(task)

    def factor_sequential(self) -> None:
        """Right-looking reference order: F(k) then its updates, ascending."""
        self.run_order(enumerate_tasks(self.bp))

    # ------------------------------------------------------------------
    def _factor(self, k: int) -> None:
        if self.check_dependencies:
            self._require_column_updates_done(k)
        panel = self.data.sub_panel(k)
        w = self.data.width(k)
        order = self.panel_kernel(panel, w)
        subs = self.data.sub_rows(k)
        pivoted = subs[order]
        self.sub_rows[k] = subs
        self.pivot_order[k] = order
        changed = pivoted != subs
        if np.any(changed):
            moved = self.orig_at[pivoted[changed]].copy()
            self.orig_at[subs[changed]] = moved
        if self.sanitizer is not None:
            from repro.analysis.footprints import ORIG_AT_REGION
            from repro.analysis.sanitizer import pivot_region

            self.sanitizer.record_read(k, subs)
            self.sanitizer.record_write(k, subs)
            self.sanitizer.record_write(pivot_region(k), subs)
            if np.any(changed):
                self.sanitizer.record_read(ORIG_AT_REGION, pivoted[changed])
                self.sanitizer.record_write(ORIG_AT_REGION, subs[changed])
        if self.metrics is not None:
            self.metrics.counter("kernel.factor.calls", unit="calls").inc()
            self.metrics.counter("kernel.factor.flops", unit="flops").inc(
                lu_panel_flops(panel.shape[0], w)
            )
            self.metrics.histogram("kernel.panel.width", unit="cols").observe(w)
            self.metrics.histogram("kernel.panel.rows", unit="rows").observe(
                panel.shape[0]
            )
            n_moved = int(np.count_nonzero(changed))
            if n_moved:
                # Deferred-pivot bookkeeping: rows renamed by F(k) whose
                # renaming every later U(k, j) must still apply.
                self.metrics.counter("pivot.rows_deferred", unit="rows").inc(n_moved)
                self.metrics.counter("pivot.panels_with_swaps", unit="panels").inc()

    def _update(self, k: int, j: int) -> None:
        if self.check_dependencies and Task("F", k, k) not in self.done:
            raise SchedulingError(f"U({k},{j}) ran before F({k})")
        self._apply_update(j, k, self.pivot_order[k], self.data.sub_panel(k))

    def _apply_update(
        self,
        j: int,
        k: int,
        order: np.ndarray,
        m: np.ndarray,
    ) -> None:
        """Update column ``j`` using block column ``k``'s factored panel.

        ``order`` is ``F(k)``'s local pivot order and ``m`` its factored
        candidate panel. Both may be local (shared-memory execution) or
        received copies (message-passing execution) — the math is
        identical.
        """
        if self.sanitizer is not None:
            self.sanitizer.record_read(k, self.data.sub_rows(k))
        step = self._rename_and_trsm(k, j, order, m)
        if step is None:
            return
        panel_j, rel, u_kj = step
        w = self.data.width(k)
        w_j = panel_j.shape[1]

        # 3. GEMM: push the update into the rows below block k that column
        #    j materializes. Padded rows (all-zero multipliers) are skipped:
        #    they contribute nothing, and — critically for the threaded
        #    executor — writing their zero deltas would race with concurrent
        #    independent-subtree updates that own those rows for real.
        if rel.size == w:
            self.lazy_stats.note_gemm_rows(0, 0, w, w_j)
            return
        l_below = m[w:, :]
        active = np.any(l_below != 0.0, axis=1)
        n_active = int(active.sum())
        self.lazy_stats.note_gemm_rows(int(active.size), n_active, w, w_j)
        if n_active:
            self._gemm(k, j, panel_j, rel[w:], l_below, active, u_kj, w)

    def _rename_and_trsm(
        self, k: int, j: int, order: np.ndarray, m: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray] | None":
        """Phases 1-2 of update ``(k -> j)``: apply ``F(k)``'s renames to
        column ``j``, then the TRSM finalizing U block ``(k, j)``.

        Returns ``(panel_j, relative rows of k in j, U_kj)``, or ``None``
        when the LazyS+ shortcut skipped the update (already accounted).
        """
        w = self.data.width(k)
        panel_j = self.data.panels[j]
        if panel_j is None:
            raise SchedulingError(
                f"update ({k}->{j}) ran on a process that does not own column {j}"
            )
        rel = self._relative_rows(k, j)
        san = self.sanitizer
        subs = self.data.sub_rows(k) if san is not None else None
        if san is not None:
            from repro.analysis.sanitizer import pivot_region

            # ``order`` is the published pivot data of block k — local
            # bookkeeping or the shared arena slot alike.
            san.record_read(pivot_region(k), subs)

        # 1. Apply F(k)'s row renaming to column j (gather, then scatter —
        #    safe under permutation cycles): the row at candidate position
        #    order[p] moves to position p. The precomputed relative rows
        #    give both ends in panel j; ids absent from column j (-1) carry
        #    exact zeros, so dropping/injecting them is a no-op.
        moved = np.flatnonzero(order != np.arange(order.size))
        if moved.size:
            old_pos = rel[order[moved]]
            new_pos = rel[moved]
            old_present = old_pos >= 0
            new_present = new_pos >= 0
            vals = np.zeros((moved.size, panel_j.shape[1]), dtype=np.float64)
            vals[old_present] = panel_j[old_pos[old_present]]
            panel_j[new_pos[new_present]] = vals[new_present]
            if san is not None:
                san.record_read(j, subs[order[moved]][old_present])
                san.record_write(j, subs[moved][new_present])
            if self.metrics is not None:
                self.metrics.counter("pivot.renames_applied", unit="rows").inc(
                    int(moved.size)
                )

        # 2. TRSM: finalize the U block B̄_{k,j}. LazyS+ optimization (the
        #    paper's §2 note that "some of the zero blocks can be eliminated
        #    from the computation"): a block that is numerically zero after
        #    the renames solves to zero, so both the TRSM and the GEMM it
        #    would feed are skipped — bitwise identical, strictly less work.
        off = int(rel[0])
        w_j = panel_j.shape[1]
        if san is not None:
            san.record_read(j, subs[:w])
        if not panel_j[off : off + w, :].any():
            self.lazy_stats.skip_update(w, int(rel.size) - w, w_j)
            if self.metrics is not None:
                self.metrics.counter("update.skipped_zero_block", unit="updates").inc()
            return None
        u_kj = solve_unit_lower(m[:w, :w], panel_j[off : off + w, :])
        panel_j[off : off + w, :] = u_kj
        if san is not None:
            san.record_write(j, subs[:w])
        if self.metrics is not None:
            self.metrics.counter("kernel.trsm.calls", unit="calls").inc()
            self.metrics.counter("kernel.trsm.flops", unit="flops").inc(
                trsm_flops(w, w_j)
            )
            self.metrics.histogram("kernel.trsm.width", unit="cols").observe(w_j)
        return panel_j, rel, u_kj

    def _gemm(
        self,
        k: int,
        j: int,
        panel_j: np.ndarray,
        rel_rows: np.ndarray,
        l_rows: np.ndarray,
        active: np.ndarray,
        u_kj: np.ndarray,
        lo: int,
    ) -> None:
        """``panel_j[rows] -= L @ U_kj`` over the active multiplier rows.

        ``rel_rows`` are the panel-``j`` rows of the candidate rows
        ``lo:lo + len(rel_rows)`` of block column ``k`` and ``l_rows``
        their multipliers; rows column ``j`` does not store are dropped.
        """
        pos = rel_rows[active]
        present = pos >= 0
        panel_j[pos[present], :] -= l_rows[active][present] @ u_kj
        n_active = int(pos.size)
        if self.sanitizer is not None:
            subs = self.data.sub_rows(k)[lo : lo + rel_rows.size]
            gemm_rows = subs[active][present]
            self.sanitizer.record_read(j, gemm_rows)
            self.sanitizer.record_write(j, gemm_rows)
        if self.metrics is not None:
            w_j = panel_j.shape[1]
            self.metrics.counter("kernel.gemm.calls", unit="calls").inc()
            self.metrics.counter("kernel.gemm.flops", unit="flops").inc(
                gemm_flops(n_active, u_kj.shape[0], w_j)
            )
            self.metrics.histogram("kernel.gemm.rows", unit="rows").observe(n_active)
            self.metrics.histogram("kernel.gemm.width", unit="cols").observe(w_j)

    # ------------------------------------------------------------------
    # 2-D per-block task bodies (repro.parallel.two_d)
    # ------------------------------------------------------------------
    def _block_slice(self, k: int, i: int) -> tuple[int, int]:
        """Rows of block ``i`` inside panel ``k``'s candidate sub-panel."""
        layout = self.data.layout
        bi = int(np.searchsorted(layout.col_blocks[k], i))
        lo = int(layout.col_offsets[k][bi]) - layout.diag_offset(k)
        return lo, lo + layout.width(i)

    def _scale_lower(self, k: int, i: int) -> None:
        """``SL(k, i)``: publish the active-row mask of lower block (i, k).

        The panel kernel already scaled the whole candidate panel inside
        ``F(k)``, so the remaining per-block work is the LazyS+
        bookkeeping: which rows of block ``i`` carry nonzero multipliers.
        Every ``UP(k, i, ·)`` reuses the mask instead of rescanning.
        """
        if self.check_dependencies and ("F", k, k, k) not in self.done:
            raise SchedulingError(f"SL({k},{i}) ran before F({k})")
        lo, hi = self._block_slice(k, i)
        block = self.data.sub_panel(k)[lo:hi, :]
        if self.sanitizer is not None:
            self.sanitizer.record_read(k, self.data.sub_rows(k)[lo:hi])
        self._lower_active[(k, i)] = np.any(block != 0.0, axis=1)

    def _scale_upper(
        self,
        k: int,
        j: int,
        order: "np.ndarray | None" = None,
        m: "np.ndarray | None" = None,
    ) -> None:
        """``SU(k, j)``: renames + TRSM of block (k, j) — phases 1-2 of
        :meth:`_apply_update`, leaving the per-block GEMMs to ``UP``.

        The rename scatter may touch *any* supported row of column ``j``
        (pivot swaps cross block rows), which is why the 2-D graph
        serializes a column's steps on its ``SU`` tasks. ``order``/``m``
        override the local bookkeeping when ``F(k)`` ran on another
        process (proc engine: pivots come from the shared arena).
        """
        if self.check_dependencies and ("F", k, k, k) not in self.done:
            raise SchedulingError(f"SU({k},{j}) ran before F({k})")
        if order is None:
            order = self.pivot_order[k]
        if m is None:
            m = self.data.sub_panel(k)
        w = self.data.width(k)
        if self.sanitizer is not None:
            self.sanitizer.record_read(k, self.data.sub_rows(k)[:w])
        step = self._rename_and_trsm(k, j, order, m)
        if step is None:
            # LazyS+: the whole update (k → j) is structurally dead; the
            # UP(k, ·, j) tasks see the still-zero U block and return, so
            # the skip accounts for the full 1-D-equivalent update.
            return
        self.lazy_stats.n_updates_run += 1
        self.lazy_stats.flops_spent += trsm_flops(w, step[0].shape[1])

    def _block_update(self, k: int, i: int, j: int) -> None:
        """``UP(k, i, j)``: GEMM of block row ``i`` into column ``j``.

        Reads the finished ``U`` block (k, j) straight from column ``j``'s
        panel (``SU(k, j)`` wrote it; the step chain orders the read) and
        the immutable multipliers of block (i, k) from panel ``k``. Updates
        of one step into different block rows write disjoint rows — the
        concurrency the 2-D mapping exists to exploit.
        """
        if self.check_dependencies and ("SU", k, k, j) not in self.done:
            raise SchedulingError(f"UP({k},{i},{j}) ran before SU({k},{j})")
        m = self.data.sub_panel(k)
        w = self.data.width(k)
        panel_j = self.data.panels[j]
        if panel_j is None:
            raise SchedulingError(
                f"UP({k},{i},{j}) ran on a process that does not own column {j}"
            )
        rel = self._relative_rows(k, j)
        off = int(rel[0])
        u_kj = panel_j[off : off + w, :]
        san = self.sanitizer
        if san is not None:
            san.record_read(j, self.data.sub_rows(k)[:w])
        if not u_kj.any():
            return  # SU(k, j) took the LazyS+ skip; nothing to push.
        lo, hi = self._block_slice(k, i)
        if san is not None:
            san.record_read(k, self.data.sub_rows(k)[lo:hi])
        active = self._lower_active.get((k, i))
        if active is None:
            active = np.any(m[lo:hi, :] != 0.0, axis=1)
        n_active = int(active.sum())
        w_j = panel_j.shape[1]
        self.lazy_stats.flops_saved += 2 * (int(active.size) - n_active) * w * w_j
        self.lazy_stats.flops_spent += 2 * n_active * w * w_j
        if n_active:
            self._gemm(k, j, panel_j, rel[lo:hi], m[lo:hi], active, u_kj, lo)

    def _relative_rows(self, k: int, j: int) -> np.ndarray:
        """Panel-``j`` rows of ``sub_rows(k)``; raises when block (k, j) is
        not stored (the update was scheduled against the pattern)."""
        try:
            return self.data.layout.relative_rows(k, j)
        except PatternError:
            raise SchedulingError(
                f"update ({k}->{j}) scheduled but block ({k},{j}) is not stored"
            ) from None

    def _require_column_updates_done(self, k: int) -> None:
        stored = None
        for i in self.bp.col_blocks(k):
            i = int(i)
            if i >= k or Task("U", i, k) in self.done:
                continue
            if ("SU", i, i, k) in self.done:
                # 2-D refinement of update (i -> k): the SU plus one UP
                # per stored lower block row must all have committed.
                if stored is None:
                    stored = set(int(b) for b in self.bp.col_blocks(k))
                for b in self.bp.col_blocks(i):
                    b = int(b)
                    if b > i and b in stored and ("UP", i, b, k) not in self.done:
                        raise SchedulingError(
                            f"F({k}) ran before UP({i},{b},{k})"
                        )
                continue
            raise SchedulingError(f"F({k}) ran before U({i},{k})")

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    def _final_l_labels(self) -> np.ndarray:
        """Final row label of every candidate-panel position.

        Returned flat, in the layout's candidate order: the labels of
        block ``k`` are ``[cand_ptr[k]:cand_ptr[k + 1]]``.
        ``Factor(k)``'s multipliers live at the slot labels current *at the
        time* of ``F(k)``; later factorizations rename some of those slots
        again (a pivot swap moves the whole row, multipliers included, just
        as dense ``getrf`` swaps already-computed L columns). Composing the
        renames in descending block order yields, for each block, the map
        from its panel positions to final row labels. Rename composition is
        well defined in block order because any two overlapping renames
        belong to comparable eforest nodes, whose F tasks every dependence
        graph orders.
        """
        ptr = self.data.layout.cand_ptr
        cur = np.arange(self.n, dtype=np.int64)
        labels = np.empty(int(ptr[-1]), dtype=np.int64)
        for k in range(self.bp.n_blocks - 1, -1, -1):
            subs = self.sub_rows[k]
            order = self.pivot_order[k]
            labels[ptr[k] : ptr[k + 1]] = cur[subs]
            moved = np.flatnonzero(order != np.arange(order.size))
            if moved.size:
                cur[subs[order[moved]]] = cur[subs[moved]]
        return labels

    def adopt_pivots(self, orders: Sequence[np.ndarray]) -> None:
        """Take over every block's pivot order from a run executed
        elsewhere (the gather of a distributed or multi-process run) and
        recompute the global row permutation by composing the renames in
        block order — execution-order independent, see docs/parallel.md."""
        orig_at = np.arange(self.n, dtype=np.int64)
        for k in range(self.bp.n_blocks):
            subs = self.data.sub_rows(k)
            order = orders[k]
            self.sub_rows[k] = subs
            self.pivot_order[k] = order
            moved = np.flatnonzero(order != np.arange(order.size))
            if moved.size:
                orig_at[subs[moved]] = orig_at[subs[order[moved]]]
        self.orig_at = orig_at

    def extract(
        self,
        *,
        drop_tol: float = 0.0,
        retain_blocks: bool = False,
        solve_schedule=None,
    ) -> FactorResult:
        """Package the factors; entries with ``|v| <= drop_tol`` in padded
        positions are dropped from the scalar form (0.0 keeps everything
        nonzero).

        The factors are built once, as panels
        (:class:`~repro.numeric.supersolve.BlockFactors`).
        ``retain_blocks=True`` keeps them on the result for the supernodal
        block solve and assembles scalar CSC only when ``l_factor``/
        ``u_factor`` are first read; ``retain_blocks=False`` assembles the
        scalar CSC factors now, from the same panels, and drops them.
        ``solve_schedule`` optionally supplies a precomputed
        :class:`~repro.taskgraph.solve_graph.SolveSchedule` (a cached plan
        carries one); otherwise one is derived on first need.
        """
        from repro.numeric.supersolve import BlockFactors

        if len(self.sub_rows) != self.bp.n_blocks:
            missing = self.bp.n_blocks - len(self.sub_rows)
            raise SchedulingError(f"{missing} block columns were never factored")
        blocks = BlockFactors.from_engine(
            self.data,
            self._final_l_labels(),
            self.orig_at,
            schedule=solve_schedule,
        )
        if retain_blocks:
            return FactorResult(blocks.orig_at, blocks, drop_tol=drop_tol)
        return FactorResult(
            blocks.orig_at, csc=blocks.scalar_factors(drop_tol)
        )
