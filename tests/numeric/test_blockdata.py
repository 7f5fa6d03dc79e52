"""Block-column storage tests."""

import numpy as np
import pytest

from tests.conftest import random_pivot_matrix
from repro.numeric.blockdata import BlockColumnData
from repro.numeric.solver import SparseLUSolver
from repro.sparse.generators import random_sparse
from repro.symbolic.supernodes import block_pattern, supernode_partition
from repro.symbolic.static_fill import static_symbolic_factorization
from repro.util.errors import PatternError, ShapeError


def make_data(n=25, seed=0):
    solver = SparseLUSolver(random_pivot_matrix(n, seed)).analyze()
    return BlockColumnData(solver.a_work, solver.bp), solver


class TestConstruction:
    def test_panels_hold_matrix_values(self):
        data, solver = make_data()
        dense = solver.a_work.to_dense()
        for col in range(solver.a_work.n_cols):
            k = int(data.block_of_row[col])
            local = col - int(data.starts[k])
            rows = np.nonzero(dense[:, col])[0]
            pos = data.layout.locate(k, rows)
            assert (pos >= 0).all()
            assert np.allclose(data.panels[k][pos, local], dense[rows, col])

    def test_rejects_pattern_only(self):
        data, solver = make_data()
        with pytest.raises(PatternError):
            BlockColumnData(solver.a_work.pattern_only(), solver.bp)

    def test_rejects_shape_mismatch(self):
        _, solver = make_data()
        other = random_sparse(10, density=0.3, seed=1)
        with pytest.raises(ShapeError):
            BlockColumnData(other, solver.bp)

    def test_rejects_uncovered_entries(self):
        from repro.ordering.transversal import zero_free_diagonal_permutation
        from repro.sparse.ops import permute
        from repro.symbolic.supernodes import BlockPattern

        a = random_pivot_matrix(20, 3)
        a = permute(a, row_perm=zero_free_diagonal_permutation(a))
        fill = static_symbolic_factorization(a)
        part = supernode_partition(fill)
        bp = block_pattern(fill, part)
        # A pattern truncated to the diagonal blocks cannot host the
        # off-diagonal entries of Ā — scattering must raise.
        truncated = BlockPattern(
            partition=part,
            blocks=[np.array([k]) for k in range(part.n_supernodes)],
        )
        full = fill.pattern.with_values(np.ones(fill.nnz))
        if any(b.size > 1 for b in bp.blocks):
            with pytest.raises(PatternError):
                BlockColumnData(full, truncated)


class TestQueries:
    def test_positions_absent_rows(self):
        data, solver = make_data()
        k = data.n_blocks - 1
        stored = set()
        for b in data.col_blocks[k]:
            stored.update(range(int(data.starts[b]), int(data.starts[b + 1])))
        absent = [r for r in range(data.n) if r not in stored][:3]
        if absent:
            assert (data.layout.locate(k, np.array(absent)) == -1).all()

    def test_sub_rows_sorted_starts_at_diag(self):
        data, _ = make_data()
        for k in range(data.n_blocks):
            subs = data.sub_rows(k)
            assert subs[0] == data.starts[k]
            assert (np.diff(subs) > 0).all()

    def test_sub_panel_is_bottom_slice(self):
        data, _ = make_data()
        for k in range(data.n_blocks):
            sub = data.sub_panel(k)
            assert sub.shape[0] == data.sub_rows(k).size
            # It is a view into the panel (writes propagate).
            sub[0, 0] = 123.456
            assert data.panels[k][data.diag_offset(k), 0] == 123.456

    def test_width(self):
        data, solver = make_data()
        assert sum(data.width(k) for k in range(data.n_blocks)) == data.n
