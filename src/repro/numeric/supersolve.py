"""Supernodal block triangular solves over retained panel factors.

The scalar solves in :mod:`repro.numeric.triangular` walk the CSC factors
one column at a time — O(n) interpreter iterations of tiny ``np.outer``
work per solve. But the factorization already computed L and U in dense
supernode panels; scattering them to scalar CSC only to re-walk them
column-wise throws the block structure away exactly where the serving hot
path needs it. :class:`BlockFactors` keeps the factors in panel form:

* per supernode ``k``, the ``(w, w)`` diagonal block (unit-lower L and
  upper U intertwined, as in the panel storage) plus its two precomputed
  triangular inverses, so each per-block solve is one small GEMM;
* per supernode ``k``, one fused *row-panel* matrix per solve direction:
  all L blocks of block row ``k`` (resp. all U blocks of block row ``k``)
  horizontally stacked, with one precomputed gather-index array mapping
  panel columns to positions of the solution vector.

A forward task is then ``y_k = L_kk^{-1} (b_k − Lrow_k · y[gather_k])`` —
one gather, one GEMM, one ``(w, w)`` GEMM — and the backward task is the
mirror image. Multi-RHS right-hand sides ride through the same GEMMs as
genuine matrix width, which is what turns :class:`repro.serve.SolverService`
batching into BLAS-3 work.

Writing each task in this *gather* form (one fixed expression per target
block, sources concatenated in ascending block order) rather than
scattering partial updates makes the result bitwise independent of task
interleaving: tasks write disjoint row ranges and read only finished
ranges, so any topological order of the solve graph — including the
threaded executor's — produces identical bits. The interleaving tests pin
this, mirroring the factorization-side guarantee.

The row structure of L depends on the pivots actually chosen: deferred
pivoting renames multiplier rows, and a rename in a later block can move
a row *across block boundaries*, outside the static block pattern of the
source column. (U is immune — its row structure lives in position space
and is fully static.) The build therefore checks, per L block, whether
the final row labels stay inside the static structure and records the
answer in ``static_covered``. The sequential solve needs no schedule at
all (plain ascending, then descending block order is topological). Only
threaded and explicit-order solves read :attr:`BlockFactors.schedule`:
the precomputed static :class:`~repro.taskgraph.solve_graph.SolveSchedule`
(cached on a :class:`repro.serve.SymbolicPlan`) when it is exact, else an
exact schedule derived on first use from the actual block dependence lists
via :func:`~repro.taskgraph.solve_graph.schedule_from_structure`.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.numeric.blockdata import BlockColumnData
from repro.numeric.kernels import solve_unit_lower, solve_upper
from repro.sparse.coo import COOBuilder
from repro.sparse.csc import CSCMatrix
from repro.taskgraph.solve_graph import SolveSchedule, schedule_from_structure
from repro.util.errors import SchedulingError, ShapeError


class BlockFactors:
    """Panel-form factors of ``P A = L U``, ready for block solves.

    Built by ``LUFactorization.extract()``; everything is an owned copy,
    so instances stay valid after the engine is dropped and are safe to
    share read-only across threads. This is the only stored form of the
    factors: :meth:`scalar_factors` assembles scalar CSC from it on demand.
    """

    __slots__ = (
        "n",
        "n_blocks",
        "starts",
        "orig_at",
        "diag",
        "diag_linv",
        "diag_uinv",
        "fwd_mats",
        "fwd_cols",
        "bwd_mats",
        "bwd_cols",
        "static_covered",
        "_fwd_srcs",
        "_bwd_srcs",
        "_schedule",
    )

    def __init__(
        self,
        *,
        n: int,
        starts: np.ndarray,
        orig_at: np.ndarray,
        diag: list,
        fwd_mats: list,
        fwd_cols: list,
        fwd_srcs: list,
        bwd_mats: list,
        bwd_cols: list,
        bwd_srcs: list,
        schedule: "SolveSchedule | None" = None,
        static_covered: bool = True,
    ) -> None:
        self.n = n
        self.n_blocks = len(diag)
        self.starts = starts
        self.orig_at = orig_at
        self.diag = diag
        eye = [np.eye(d.shape[0], dtype=np.float64) for d in diag]
        # The substitution kernels read only their own triangle of the
        # intertwined diagonal block; inverting against the identity once
        # makes every later per-block solve a plain GEMM.
        self.diag_linv = [solve_unit_lower(d, e) for d, e in zip(diag, eye)]
        self.diag_uinv = [solve_upper(d, e) for d, e in zip(diag, eye)]
        self.fwd_mats = fwd_mats
        self.fwd_cols = fwd_cols
        self.bwd_mats = bwd_mats
        self.bwd_cols = bwd_cols
        self._fwd_srcs = fwd_srcs
        self._bwd_srcs = bwd_srcs
        self.static_covered = static_covered
        # A cached static schedule is exact only when no pivot rename
        # escaped the static structure; otherwise it is derived on demand.
        self._schedule = schedule if static_covered else None

    @property
    def schedule(self) -> SolveSchedule:
        """The solve-graph level schedule (threaded and explicit-order
        solves); derived from the actual block dependences on first use
        when no exact cached schedule was supplied."""
        if self._schedule is None:
            self._schedule = schedule_from_structure(self._fwd_srcs, self._bwd_srcs)
        return self._schedule

    def span_attrs(self) -> dict:
        """Telemetry attributes of a block solve; level counts appear only
        when a schedule exists (recording them never builds one)."""
        attrs: dict = {
            "n_blocks": self.n_blocks,
            "static_covered": bool(self.static_covered),
        }
        if self._schedule is not None:
            attrs["n_fwd_levels"] = self._schedule.n_fwd_levels
            attrs["n_bwd_levels"] = self._schedule.n_bwd_levels
        return attrs

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_engine(
        cls,
        data: BlockColumnData,
        labels: np.ndarray,
        orig_at: np.ndarray,
        schedule: "SolveSchedule | None" = None,
    ) -> "BlockFactors":
        """Assemble block factors from a completed factorization's storage.

        ``labels`` is ``LUFactorization._final_l_labels()`` — the final
        global row id of every candidate-panel position, flat in the
        layout's candidate order. The first ``w`` labels of block ``k`` are
        always the block's own rows (later pivot renames only touch
        positions below finished diagonals), so the diagonal block is the
        top ``(w, w)`` slice of the candidate panel and the rows below it
        scatter into strictly later blocks.

        Whole-factorization vectorized: one pass finds the nonzero panel
        rows, and each solve direction's row panels are filled from the
        flat panel buffer with one gather per distinct row length.
        """
        layout = data.layout
        nb = data.n_blocks
        starts = layout.starts
        w = layout.widths
        poff = layout.panel_offsets
        dgo = layout.diag_offsets
        flat = data.flat
        heights = np.asarray(layout.panel_heights, dtype=np.int64)
        row_ptr = np.zeros(nb + 1, dtype=np.int64)
        np.cumsum(heights, out=row_ptr[1:])
        # Which panel rows hold a nonzero: rows tile the flat buffer.
        row_blk = np.repeat(np.arange(nb, dtype=np.int64), heights)
        row_start = poff[row_blk] + (
            np.arange(row_ptr[-1], dtype=np.int64) - row_ptr[row_blk]
        ) * w[row_blk]
        row_nz = (
            np.logical_or.reduceat(flat != 0.0, row_start)
            if row_start.size
            else np.zeros(0, dtype=bool)
        )

        diag = [
            flat[o : o + wk * wk].reshape(wk, wk).copy()
            for o, wk in zip((poff[:-1] + dgo * w).tolist(), w.tolist())
        ]

        # L blocks of block *rows* below k: the candidate rows below the
        # diagonal block, grouped by (target block of their final label,
        # source column). All-zero groups are padding the elimination never
        # touched (LazyS+) and are dropped — fewer gathered columns,
        # identical bits.
        cptr = layout.cand_ptr
        src = np.repeat(np.arange(nb, dtype=np.int64), np.diff(cptr))
        pos = np.arange(cptr[-1], dtype=np.int64) - cptr[src]
        below = pos >= w[src]
        src, lab = src[below], labels[below]
        prow = dgo[src] + pos[below]  # panel row in column src
        tgt = layout.block_of_row[lab]
        key = tgt * nb + src
        kept = np.unique(key[row_nz[row_ptr[src] + prow]])
        g = np.searchsorted(kept, key)
        sel = kept[np.minimum(g, kept.size - 1)] == key if kept.size else g < 0
        kept_t, kept_s = kept // max(nb, 1), kept % max(nb, 1)
        # Is every block (t, k) inside the static pattern? That is what
        # generates the FS(k) -> FS(t) edges of the static solve graph; a
        # pivot rename that moved rows across blocks demands the exact
        # schedule instead.
        static_covered = bool(np.all(layout.locate(kept_s, starts[kept_t]) >= 0))
        s_sel = src[sel]
        fwd = _row_panels(
            flat,
            layout,
            kept_t,
            kept_s,
            g[sel],
            lab[sel] - starts[tgt[sel]],
            poff[s_sel] + prow[sel] * w[s_sel],
        )

        # U blocks of block row b < k stored in column k contribute to
        # BS(b); their row structure is static (position space), so no
        # label translation is needed. The backward dependence
        # BS(k) -> BS(b) is in the static graph by construction.
        col, blk, off = layout.stored_blocks()
        up = blk < col
        col, blk, off = col[up], blk[up], off[up]
        first = row_ptr[col] + off
        nz_cum = np.concatenate(([0], np.cumsum(row_nz)))
        keep = nz_cum[first + w[blk]] > nz_cum[first]
        order = np.argsort(blk[keep] * nb + col[keep], kind="stable")
        col, blk, off = col[keep][order], blk[keep][order], off[keep][order]
        h = w[blk]
        row_g = np.repeat(np.arange(col.size, dtype=np.int64), h)
        row_r = np.arange(int(h.sum()), dtype=np.int64) - (np.cumsum(h) - h)[row_g]
        bwd = _row_panels(
            flat,
            layout,
            blk,
            col,
            row_g,
            row_r,
            poff[col[row_g]] + (off[row_g] + row_r) * w[col[row_g]],
        )

        oa = np.asarray(orig_at, dtype=np.int64).copy()
        oa.setflags(write=False)
        return cls(
            n=data.n,
            starts=starts,
            orig_at=oa,
            diag=diag,
            fwd_mats=fwd[0],
            fwd_cols=fwd[1],
            fwd_srcs=fwd[2],
            bwd_mats=bwd[0],
            bwd_cols=bwd[1],
            bwd_srcs=bwd[2],
            schedule=schedule,
            static_covered=static_covered,
        )

    def scalar_factors(self, drop_tol: float = 0.0) -> "tuple[CSCMatrix, CSCMatrix]":
        """Assemble scalar CSC ``(L, U)``; entries with ``|v| <= drop_tol``
        are dropped (the unit diagonal of ``L`` and the diagonal of ``U``
        are always kept).

        Whole-block vectorized (one ``nonzero`` scan per stored block); the
        COO builder sorts by (column, row), so the result is independent of
        emission order.
        """
        n = self.n
        lb = COOBuilder(n, n)
        ub = COOBuilder(n, n)
        ids = np.arange(n, dtype=np.int64)
        lb.extend(ids, ids, np.ones(n, dtype=np.float64))
        for k in range(self.n_blocks):
            lo = int(self.starts[k])
            d = self.diag[k]
            big = np.abs(d) > drop_tol
            rr, cc = np.nonzero(np.tril(big, -1))
            if rr.size:
                lb.extend(lo + rr, lo + cc, d[rr, cc])
            nz = np.triu(big)
            np.fill_diagonal(nz, True)
            rr, cc = np.nonzero(nz)
            ub.extend(lo + rr, lo + cc, d[rr, cc])
            for mat, cols, out in (
                (self.fwd_mats[k], self.fwd_cols[k], lb),
                (self.bwd_mats[k], self.bwd_cols[k], ub),
            ):
                if cols.size:
                    rr, cc = np.nonzero(np.abs(mat) > drop_tol)
                    if rr.size:
                        out.extend(lo + rr, cols[cc], mat[rr, cc])
        return lb.to_csc(), ub.to_csc()

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self, b: np.ndarray, *, n_threads: int = 1) -> np.ndarray:
        """Solve ``A x = b`` via ``L U x = P b`` (vector or multi-RHS)."""
        b = np.asarray(b, dtype=np.float64)
        if b.ndim not in (1, 2) or b.shape[0] != self.n:
            raise ShapeError(
                f"rhs has shape {b.shape}, expected ({self.n},) or ({self.n}, k)"
            )
        x = self.solve_permuted(b[self.orig_at], n_threads=n_threads)
        return x if b.ndim == 2 else x[:, 0]

    def solve_permuted(
        self,
        pb: np.ndarray,
        *,
        n_threads: int = 1,
        order=None,
    ) -> np.ndarray:
        """Solve ``L U x = pb`` for an already-permuted right-hand side.

        The sequential solve walks the blocks in ascending order forward,
        then descending backward: every forward source block lies below
        its target and every backward source above it, so this is a
        topological order of the solve graph and needs no schedule.
        ``order`` (tests only) runs an explicit task sequence — any
        topological order of the solve graph — instead; ``n_threads > 1``
        runs the solve graph under the shared threaded executor. All three
        paths produce identical bits.
        """
        pb = np.asarray(pb, dtype=np.float64)
        y = np.array(pb if pb.ndim == 2 else pb[:, None], dtype=np.float64)
        if order is not None:
            if len(order) != 2 * self.n_blocks:
                raise SchedulingError(
                    f"solve order has {len(order)} tasks, expected "
                    f"{2 * self.n_blocks}"
                )
            for task in order:
                self._run_task(task, y)
        elif n_threads > 1:
            from repro.parallel.threads import threaded_factorize

            engine = _SolveTaskAdapter(self, y)
            threaded_factorize(engine, self.schedule.graph, n_threads)
        else:
            for k in range(self.n_blocks):
                self._forward(k, y)
            for k in range(self.n_blocks - 1, -1, -1):
                self._backward(k, y)
        return y

    def _run_task(self, task, y: np.ndarray) -> None:
        if task.kind == "FS":
            self._forward(task.k, y)
        elif task.kind == "BS":
            self._backward(task.k, y)
        else:
            raise SchedulingError(f"unknown solve task kind {task.kind!r}")

    def _forward(self, k: int, y: np.ndarray) -> None:
        lo = int(self.starts[k])
        hi = int(self.starts[k + 1])
        cols = self.fwd_cols[k]
        rhs = y[lo:hi]
        if cols.size:
            rhs = rhs - self.fwd_mats[k] @ y[cols]
        y[lo:hi] = self.diag_linv[k] @ rhs

    def _backward(self, k: int, y: np.ndarray) -> None:
        lo = int(self.starts[k])
        hi = int(self.starts[k + 1])
        cols = self.bwd_cols[k]
        rhs = y[lo:hi]
        if cols.size:
            rhs = rhs - self.bwd_mats[k] @ y[cols]
        y[lo:hi] = self.diag_uinv[k] @ rhs


def _ranges(first: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated index ranges ``first[i] : first[i] + lengths[i]``."""
    excl = np.cumsum(lengths) - lengths
    return np.repeat(first - excl, lengths) + np.arange(
        int(lengths.sum()), dtype=np.int64
    )


def _row_panels(
    flat: np.ndarray,
    layout,
    grp_t: np.ndarray,
    grp_s: np.ndarray,
    row_g: np.ndarray,
    row_r: np.ndarray,
    row_src: np.ndarray,
) -> tuple[list, list, list]:
    """Fused per-target row panels, filled by one gather from ``flat``.

    Groups ``(grp_t[g], grp_s[g])`` are sorted by target, then source;
    target ``t``'s matrix is ``(w_t, W_t)`` with its groups' sources
    side by side in that order (``W_t`` their summed widths). Row ``i``
    of the input is ``w_s`` contiguous values at ``flat[row_src[i]:]``
    landing in row ``row_r[i]`` of group ``row_g[i]``'s column slot.
    Returns per-target ``(mats, gather column ids, source blocks)``.
    """
    nb = layout.n_blocks
    w = layout.widths
    gw = w[grp_s]
    width = np.bincount(grp_t, weights=gw, minlength=nb).astype(np.int64)
    col_ptr = np.zeros(nb + 1, dtype=np.int64)
    np.cumsum(width, out=col_ptr[1:])
    gcol = np.cumsum(gw) - gw - col_ptr[grp_t]  # group's first column
    base = np.zeros(nb + 1, dtype=np.int64)
    np.cumsum(w * width, out=base[1:])
    t = grp_t[row_g]
    lens = gw[row_g]
    dest = base[t] + row_r * width[t] + gcol[row_g]
    buf = np.zeros(int(base[-1]), dtype=np.float64)
    # Copy rows of one length at a time through sliding-window views, so
    # no per-element index array is ever materialized.
    for length in np.unique(lens).tolist():
        pick = lens == length
        dst = sliding_window_view(buf, length, writeable=True)
        dst[dest[pick]] = sliding_window_view(flat, length)[row_src[pick]]
    cols = _ranges(layout.starts[grp_s], gw)
    cols.setflags(write=False)
    grp_ptr = np.zeros(nb + 1, dtype=np.int64)
    np.cumsum(np.bincount(grp_t, minlength=nb), out=grp_ptr[1:])
    b, c, gp = base.tolist(), col_ptr.tolist(), grp_ptr.tolist()
    wl, wd = w.tolist(), width.tolist()
    mats = [buf[b[i] : b[i + 1]].reshape(wl[i], wd[i]) for i in range(nb)]
    col_ids = [cols[c[i] : c[i + 1]] for i in range(nb)]
    srcs = [grp_s[gp[i] : gp[i + 1]] for i in range(nb)]
    return mats, col_ids, srcs


class _SolveTaskAdapter:
    """Adapts :class:`BlockFactors` to the threaded executor's engine
    contract (``run_task`` + a ``done`` set)."""

    __slots__ = ("bf", "y", "done")

    def __init__(self, bf: BlockFactors, y: np.ndarray) -> None:
        self.bf = bf
        self.y = y
        self.done: set = set()

    def run_task(self, task) -> None:
        if task in self.done:
            raise SchedulingError(f"solve task {task} executed twice")
        self.bf._run_task(task, self.y)
        self.done.add(task)
