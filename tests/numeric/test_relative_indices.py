"""Plan-time relative indices, the flat panel buffer, and panels-only
factors.

The oracles below are the per-call code the numeric phase used before the
layout precomputed its index work: a per-column row search
(``positions``), a per-column scatter loop into separately allocated
panels, and an eager scalar-CSC assembly straight from the engine's
panels. The precomputed layout, the one-shot scatter and the lazily
assembled factors must reproduce them exactly, on every stored update
pair of the seven paper analogs and of random, deep-chain and
block-triangular patterns.
"""

import numpy as np
import pytest

from repro.numeric.blockdata import BlockColumnData, BlockLayout
from repro.numeric.factor import LUFactorization
from repro.numeric.solver import SolverOptions, SparseLUSolver
from repro.numeric.supersolve import BlockFactors
from repro.serve.plan import build_plan
from repro.serve.refactor import refactorize_with_plan
from repro.sparse.coo import COOBuilder
from repro.sparse.generators import PAPER_MATRICES, paper_matrix
from repro.taskgraph.solve_graph import backward_task, forward_task
from tests.conftest import random_pivot_matrix
from tests.numeric.test_supersolve import block_triangular_matrix, deep_chain_matrix


# ----------------------------------------------------------------------
# Oracles: the old per-call code, kept verbatim in spirit.
# ----------------------------------------------------------------------
def oracle_positions(layout, k, global_rows):
    """Per-call search of ``global_rows`` in block column ``k``."""
    global_rows = np.asarray(global_rows, dtype=np.int64)
    blocks = layout.col_blocks[k]
    bid = layout.block_of_row[global_rows]
    idx = np.searchsorted(blocks, bid)
    idx_clipped = np.minimum(idx, blocks.size - 1) if blocks.size else idx
    present = (blocks.size > 0) & (idx < blocks.size) & (blocks[idx_clipped] == bid)
    pos = np.zeros(global_rows.size, dtype=np.int64)
    ok = np.nonzero(present)[0]
    if ok.size:
        b = idx[ok]
        pos[ok] = layout.col_offsets[k][b] + (global_rows[ok] - layout.starts[blocks[b]])
    return pos, present


def oracle_panels(a, layout):
    """Per-column scatter of ``a`` into separately allocated panels."""
    panels = [
        np.zeros((layout.panel_heights[k], layout.width(k)))
        for k in range(layout.n_blocks)
    ]
    for col in range(a.n_cols):
        k = int(layout.block_of_row[col])
        pos, present = oracle_positions(layout, k, a.col_rows(col))
        assert present.all()
        panels[k][pos, col - int(layout.starts[k])] = a.col_values(col)
    return panels


def oracle_csc(eng, drop_tol=0.0):
    """Eager scalar assembly straight from the engine's panels."""
    data = eng.data
    layout = data.layout
    n = eng.n
    lb, ub = COOBuilder(n, n), COOBuilder(n, n)
    starts = layout.starts
    flat_labels = eng._final_l_labels()
    ptr = layout.cand_ptr
    diag = np.arange(n, dtype=np.int64)
    lb.extend(diag, diag, np.ones(n))
    for k in range(layout.n_blocks):
        gcol0 = int(starts[k])
        panel = data.sub_panel(k)
        rows_final = flat_labels[ptr[k] : ptr[k + 1]]
        rr, cc = np.nonzero(np.abs(panel) > drop_tol)
        keep = rr > cc
        if np.any(keep):
            rk, ck = rr[keep], cc[keep]
            lb.extend(rows_final[rk], gcol0 + ck, panel[rk, ck])
        for bi, b in enumerate(layout.col_blocks[k]):
            b = int(b)
            if b > k:
                continue
            off = int(layout.col_offsets[k][bi])
            h = int(starts[b + 1] - starts[b])
            block = data.panels[k][off : off + h, :]
            if b < k:
                rr, cc = np.nonzero(np.abs(block) > drop_tol)
            else:
                nz = np.triu(np.abs(block) > drop_tol)
                np.fill_diagonal(nz, True)
                rr, cc = np.nonzero(nz)
            if rr.size:
                ub.extend(int(starts[b]) + rr, gcol0 + cc, block[rr, cc])
    return lb.to_csc(), ub.to_csc()


# ----------------------------------------------------------------------
def _cases():
    cases = [(name, paper_matrix(name, scale=0.1)) for name in PAPER_MATRICES]
    cases += [(f"random_{s}", random_pivot_matrix(40, s)) for s in range(3)]
    cases.append(("deep_chain", deep_chain_matrix()))
    cases.append(("block_triangular", block_triangular_matrix()))
    return cases


CASES = _cases()


@pytest.fixture(scope="module", params=CASES, ids=[name for name, _ in CASES])
def analyzed(request):
    _, a = request.param
    return SparseLUSolver(a, SolverOptions(ordering="amd")).analyze()


def assert_csc_equal(got, want):
    for attr in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, attr), getattr(want, attr))


class TestRelativeIndices:
    def test_every_stored_pair_matches_search(self, analyzed):
        layout = BlockLayout(analyzed.bp)
        n_pairs = 0
        for j in range(layout.n_blocks):
            for k in layout.col_blocks[j]:
                k = int(k)
                if k >= j or not layout.has_diag(k):
                    continue
                pos, present = oracle_positions(layout, j, layout.sub_rows(k))
                want = np.where(present, pos, -1)
                np.testing.assert_array_equal(layout.relative_rows(k, j), want)
                n_pairs += 1
        assert n_pairs == len(layout._rel)

    def test_relative_rows_lead_with_contiguous_block(self, analyzed):
        layout = BlockLayout(analyzed.bp)
        for (k, _), rel in layout._rel.items():
            w = layout.width(k)
            assert rel[0] >= 0
            np.testing.assert_array_equal(rel[:w], rel[0] + np.arange(w))
            assert not rel.flags.writeable

    def test_locate_matches_search(self, analyzed):
        layout = BlockLayout(analyzed.bp)
        rng = np.random.default_rng(0)
        rows = rng.integers(0, layout.n, size=64)
        for k in range(layout.n_blocks):
            pos, present = oracle_positions(layout, k, rows)
            np.testing.assert_array_equal(
                layout.locate(k, rows), np.where(present, pos, -1)
            )

    def test_chunked_build_matches_one_shot(self, analyzed, monkeypatch):
        import repro.numeric.blockdata as blockdata

        whole = BlockLayout(analyzed.bp)
        monkeypatch.setattr(blockdata, "_LOCATE_CHUNK", 7)
        chunked = BlockLayout(analyzed.bp)
        assert whole._rel.keys() == chunked._rel.keys()
        for key, rel in whole._rel.items():
            np.testing.assert_array_equal(chunked._rel[key], rel)

    def test_unstored_pair_raises(self, analyzed):
        from repro.util.errors import PatternError

        layout = BlockLayout(analyzed.bp)
        with pytest.raises(PatternError):
            layout.relative_rows(layout.n_blocks - 1, 0)


class TestFlatScatter:
    def test_scatter_matches_per_column_loop(self, analyzed):
        data = BlockColumnData(analyzed.a_work, analyzed.bp)
        want = oracle_panels(analyzed.a_work, data.layout)
        for k, panel in enumerate(data.panels):
            np.testing.assert_array_equal(panel, want[k])
            # Every panel is a view of the one flat buffer.
            assert panel.base is data.flat or panel.base is data.flat.base
        assert data.flat.size == data.layout.panel_offsets[-1]

    def test_owned_columns_scatter(self, analyzed):
        layout = BlockLayout(analyzed.bp)
        owned = set(range(0, layout.n_blocks, 2))
        data = BlockColumnData(analyzed.a_work, analyzed.bp, owned, layout=layout)
        want = oracle_panels(analyzed.a_work, layout)
        for k, panel in enumerate(data.panels):
            if k in owned:
                np.testing.assert_array_equal(panel, want[k])
            else:
                assert panel is None


class TestPanelsOnlyFactors:
    @pytest.mark.parametrize("drop_tol", [0.0, 1e-3])
    def test_lazy_factors_bitwise_equal_eager_oracle(self, analyzed, drop_tol):
        eng = LUFactorization(analyzed.a_work, analyzed.bp)
        eng.factor_sequential()
        l_want, u_want = oracle_csc(eng, drop_tol)
        lazy = eng.extract(retain_blocks=True, drop_tol=drop_tol)
        eager = eng.extract(retain_blocks=False, drop_tol=drop_tol)
        assert lazy._csc is None and eager.blocks is None
        for res in (lazy, eager):
            assert_csc_equal(res.l_factor, l_want)
            assert_csc_equal(res.u_factor, u_want)
        assert lazy.l_factor is lazy.l_factor  # cached after first access

    def test_warm_solve_assembles_no_scalar_csc(self, monkeypatch):
        monkeypatch.delenv("REPRO_SOLVE", raising=False)
        calls = []
        real = BlockFactors.scalar_factors

        def counting(self, drop_tol=0.0):
            calls.append(drop_tol)
            return real(self, drop_tol)

        monkeypatch.setattr(BlockFactors, "scalar_factors", counting)
        a = paper_matrix("sherman3", scale=0.1)
        plan = build_plan(a)
        fac = refactorize_with_plan(plan, a)
        b = np.random.default_rng(0).standard_normal(a.n_cols)
        x = fac.solve(b)
        assert fac.residual_norm(x, b) < 1e-8
        assert calls == []
        # The detector works: reading the scalar factors assembles once.
        fac.result.l_factor
        fac.result.u_factor
        assert calls == [0.0]


class TestLazySolveSchedule:
    def _uncovered(self):
        a = paper_matrix("sherman3", scale=0.15)
        solver = SparseLUSolver(a).analyze().factorize(retain_blocks=True)
        bf = solver.result.blocks
        assert not bf.static_covered  # renames escaped the static pattern
        return solver, bf

    def test_plain_order_bitwise_equals_level_and_threaded(self):
        _, bf = self._uncovered()
        pb = np.random.default_rng(1).standard_normal((bf.n, 3))
        x_plain = bf.solve_permuted(pb)
        assert bf._schedule is None  # the sequential solve built none
        sched = bf.schedule
        level_order = [
            forward_task(int(k)) for level in sched.fwd_levels for k in level
        ] + [backward_task(int(k)) for level in sched.bwd_levels for k in level]
        assert len(level_order) == 2 * bf.n_blocks
        np.testing.assert_array_equal(bf.solve_permuted(pb, order=level_order), x_plain)
        np.testing.assert_array_equal(bf.solve_permuted(pb, n_threads=3), x_plain)

    def test_span_records_coverage_without_building(self, monkeypatch):
        from repro.obs.trace import Tracer

        monkeypatch.delenv("REPRO_SOLVE", raising=False)
        a = paper_matrix("sherman3", scale=0.15)
        solver = SparseLUSolver(a, tracer=Tracer()).analyze().factorize()
        solver.solve(np.ones(a.n_cols))
        (span,) = [s for s in solver.tracer.walk() if s.name == "solve.block"]
        assert span.attrs["static_covered"] is False
        assert "n_fwd_levels" not in span.attrs
        assert solver.result.blocks._schedule is None
