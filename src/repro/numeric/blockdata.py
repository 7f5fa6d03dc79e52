"""Dense block-column storage for the supernodal factorization.

Each block column ``j`` stores one contiguous dense panel covering the full
row ranges of its stored blocks ``B̄_{i,j}`` (padding inside a block is
explicit zeros, as in S+). All panels of one matrix are views of a single
flat float64 buffer laid out ``[panel 0 | panel 1 | ...]`` — the same
layout the proc engine's shared-memory arena uses, so moving a whole
factorization in or out is one copy.

The storage is split in two layers mirroring the paper's static/numeric
phase boundary: :class:`BlockLayout` holds everything derivable from the
block pattern alone (boundaries, per-column block lists, panel offsets,
candidate-row ids, and the *relative indices* of every update pair) and is
immutable once built, so a cached symbolic plan can share one layout across
arbitrarily many numeric refactorizations and threads;
:class:`BlockColumnData` allocates the flat buffer and scatters one
matrix's values into it.

Relative indices are the static symbolic factorization paying off at run
time: the static structure fixes, before any values arrive, every block
an update ``(k -> j)`` can touch, so the panel-``j`` row of every
candidate row of block column ``k`` is computed once per pattern here and
the numeric kernels never search for a row.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.symbolic.supernodes import BlockPattern
from repro.util.errors import PatternError, ShapeError

#: Query rows per :meth:`BlockLayout.locate` call while building the
#: relative indices (bounds the build's temporaries to a few MB).
_LOCATE_CHUNK = 1 << 17


class BlockLayout:
    """Pattern-derived structural metadata of the panel storage.

    Everything here depends only on the block pattern of ``Ā`` — not on
    values — so one layout serves every numeric factorization with the same
    pattern. All arrays are precomputed and never mutated after
    construction, which makes sharing a layout across concurrently running
    factorizations safe.
    """

    __slots__ = (
        "bp",
        "n",
        "n_blocks",
        "starts",
        "widths",
        "block_of_row",
        "col_blocks",
        "col_offsets",
        "panel_heights",
        "panel_offsets",
        "cand_ptr",
        "diag_offsets",
        "_sub_rows",
        "_keys",
        "_key_offsets",
        "_rel",
    )

    def __init__(self, bp: BlockPattern) -> None:
        part = bp.partition
        self.bp = bp
        self.n = part.n
        self.n_blocks = nb = bp.n_blocks
        self.starts = part.starts  # scalar boundaries of block rows/cols
        self.widths = np.diff(self.starts)
        # block_of_row[r] = block-row index of scalar row r.
        self.block_of_row = part.member_of()

        self.col_blocks: list[np.ndarray] = []  # ascending block ids per column
        self.col_offsets: list[np.ndarray] = []  # panel offset of each block
        self.panel_heights: list[int] = []
        diag_offsets: list[int] = []  # -1 when the diagonal block is absent
        self._sub_rows: list = []  # candidate-row ids, None when diag absent
        for k in range(nb):
            blocks = bp.col_blocks(k).astype(np.int64)
            heights = self.starts[blocks + 1] - self.starts[blocks]
            offsets = np.zeros(blocks.size, dtype=np.int64)
            np.cumsum(heights[:-1], out=offsets[1:])
            self.col_blocks.append(blocks)
            self.col_offsets.append(offsets)
            self.panel_heights.append(int(heights.sum()))
            idx = int(np.searchsorted(blocks, k))
            if idx < blocks.size and blocks[idx] == k:
                diag_offsets.append(int(offsets[idx]))
                subs = np.concatenate(
                    [
                        np.arange(self.starts[b], self.starts[b + 1], dtype=np.int64)
                        for b in blocks[idx:]
                    ]
                )
                subs.setflags(write=False)
                self._sub_rows.append(subs)
            else:
                diag_offsets.append(-1)
                self._sub_rows.append(None)

        self.diag_offsets = np.asarray(diag_offsets, dtype=np.int64)
        # Flat-buffer offsets (in float64 elements): panel k occupies
        # panel_offsets[k]:panel_offsets[k + 1], row-major (height, width).
        self.panel_offsets = np.zeros(nb + 1, dtype=np.int64)
        np.cumsum(
            np.asarray(self.panel_heights, dtype=np.int64) * self.widths,
            out=self.panel_offsets[1:],
        )
        # Locator keys: one sorted int64 key ``column * n_blocks + block``
        # per stored block, with that block's panel-row offset.
        if nb:
            cols = np.repeat(
                np.arange(nb, dtype=np.int64), [b.size for b in self.col_blocks]
            )
            self._keys = cols * nb + np.concatenate(self.col_blocks)
            self._key_offsets = np.concatenate(self.col_offsets)
        else:
            self._keys = self._key_offsets = np.empty(0, dtype=np.int64)
        # Candidate rows of all block columns concatenated in column order:
        # block column k's occupy [cand_ptr[k], cand_ptr[k + 1]).
        sub_size = np.array(
            [s.size if s is not None else 0 for s in self._sub_rows], dtype=np.int64
        )
        self.cand_ptr = np.zeros(nb + 1, dtype=np.int64)
        np.cumsum(sub_size, out=self.cand_ptr[1:])
        self._rel = self._relative_indices()

    # ------------------------------------------------------------------
    def locate(self, cols, rows) -> np.ndarray:
        """Panel rows of global ``rows`` in block columns ``cols``.

        ``cols`` and ``rows`` broadcast against each other (a scalar block
        column with an array of rows is the common case). The result is the
        row inside panel ``cols`` holding each global row, or ``-1`` where
        that row's block is not stored in the column. One ``searchsorted``
        over all queries.
        """
        rows = np.asarray(rows, dtype=np.int64)
        blocks = self.block_of_row[rows]
        keys = np.asarray(cols, dtype=np.int64) * self.n_blocks + blocks
        if not self._keys.size:
            return np.full(keys.shape, -1, dtype=np.int64)
        idx_c = np.minimum(np.searchsorted(self._keys, keys), self._keys.size - 1)
        found = self._keys[idx_c] == keys
        return np.where(
            found, self._key_offsets[idx_c] + (rows - self.starts[blocks]), -1
        )

    def _relative_indices(self) -> dict:
        """``(k, j) -> locate(j, sub_rows(k))`` for every stored update pair.

        Built by :meth:`locate` over the concatenated candidate rows of all
        pairs, in chunks of about :data:`_LOCATE_CHUNK` rows to bound the
        temporaries; each pair's array is a read-only view of the one
        result.
        """
        nb = self.n_blocks
        has_diag = self.diag_offsets >= 0
        if not nb or not has_diag.any():
            return {}
        js, ks, _ = self.stored_blocks()
        pair = (ks < js) & has_diag[ks]
        ks, js = ks[pair], js[pair]
        all_subs = np.concatenate([s for s in self._sub_rows if s is not None])
        sizes = np.diff(self.cand_ptr)[ks]
        ptr = np.zeros(ks.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=ptr[1:])
        rel = np.empty(int(ptr[-1]), dtype=np.int64)
        start = 0
        while start < ks.size:
            stop = int(np.searchsorted(ptr, ptr[start] + _LOCATE_CHUNK, "right")) - 1
            stop = min(max(stop, start + 1), ks.size)
            lo, hi = int(ptr[start]), int(ptr[stop])
            sz = sizes[start:stop]
            # Index into all_subs: cand_ptr[k] + 0..size-1 for each pair.
            gather = np.repeat(self.cand_ptr[ks[start:stop]] - ptr[start:stop], sz)
            gather += np.arange(lo, hi, dtype=np.int64)
            rel[lo:hi] = self.locate(np.repeat(js[start:stop], sz), all_subs[gather])
            start = stop
        rel.setflags(write=False)
        return {
            (k, j): rel[lo:hi]
            for k, j, lo, hi in zip(
                ks.tolist(), js.tolist(), ptr[:-1].tolist(), ptr[1:].tolist()
            )
        }

    def stored_blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every stored block as ``(column, block row, panel-row offset)``
        arrays, ordered by column, then block row."""
        nb = max(self.n_blocks, 1)
        return self._keys // nb, self._keys % nb, self._key_offsets

    def relative_rows(self, k: int, j: int) -> np.ndarray:
        """Panel-``j`` rows of ``sub_rows(k)`` (``-1`` where absent).

        Defined for every stored upper block ``(k, j)``, ``k < j``: the
        first ``width(k)`` entries are the contiguous rows of block
        ``(k, j)`` itself, the rest are the GEMM targets of update
        ``(k -> j)``. Precomputed, shared and read-only.
        """
        rel = self._rel.get((k, j))
        if rel is None:
            raise PatternError(f"block ({k},{j}) is not a stored update pair")
        return rel

    def width(self, k: int) -> int:
        return int(self.starts[k + 1] - self.starts[k])

    def has_diag(self, k: int) -> bool:
        """Whether block column ``k`` stores its diagonal block (and thus
        has a candidate panel / pivot rename slot)."""
        return bool(self.diag_offsets[k] >= 0)

    def diag_offset(self, k: int) -> int:
        """Panel offset of the diagonal block in block column ``k``."""
        off = int(self.diag_offsets[k])
        if off < 0:
            raise PatternError(f"diagonal block ({k},{k}) is not stored")
        return off

    def sub_rows(self, k: int) -> np.ndarray:
        """Global row ids of the candidate (diagonal-and-below) panel rows.

        The returned array is precomputed, shared, and read-only.
        """
        subs = self._sub_rows[k]
        if subs is None:
            raise PatternError(f"diagonal block ({k},{k}) is not stored")
        return subs

    def panel_views(self, flat: np.ndarray, owned=None) -> list:
        """Per-column ``(height, width)`` views of a flat panel buffer;
        columns outside ``owned`` (when given) map to ``None``."""
        off = self.panel_offsets
        return [
            flat[off[k] : off[k + 1]].reshape(self.panel_heights[k], self.width(k))
            if owned is None or k in owned
            else None
            for k in range(self.n_blocks)
        ]


class BlockColumnData:
    """All dense panels of one matrix, indexed by block column.

    Parameters
    ----------
    a:
        The (ordered, statically analyzable) matrix with values; its stored
        entries are scattered into the panels.
    bp:
        Block pattern over the supernode partition; defines which blocks are
        materialized.
    owned_columns:
        When given, only these block columns get panels (the others stay
        ``None``) — the per-process storage of a distributed-memory run.
        Pattern metadata (boundaries, block lists, offsets) is replicated
        on every process, exactly as real distributed codes replicate the
        symbolic structure.
    layout:
        A precomputed :class:`BlockLayout` for ``bp`` (e.g. carried by a
        cached symbolic plan). When omitted, one is built here; when given,
        it must have been built from this ``bp``.
    """

    def __init__(
        self,
        a: CSCMatrix,
        bp: BlockPattern,
        owned_columns: "set[int] | None" = None,
        *,
        layout: "BlockLayout | None" = None,
    ) -> None:
        if not a.is_square or a.n_cols != bp.partition.n:
            raise ShapeError(
                f"matrix ({a.shape}) and partition ({bp.partition.n}) disagree"
            )
        if not a.has_values:
            raise PatternError("numeric factorization needs matrix values")
        if layout is None:
            layout = BlockLayout(bp)
        elif layout.n != a.n_cols or layout.n_blocks != bp.n_blocks:
            raise ShapeError("layout does not match the given block pattern")
        self.layout = layout
        self.bp = bp
        self.n = a.n_cols
        self.n_blocks = bp.n_blocks
        self.starts = layout.starts
        self.block_of_row = layout.block_of_row
        self.col_blocks = layout.col_blocks
        self.col_offsets = layout.col_offsets

        self.owned_columns = (
            set(range(self.n_blocks)) if owned_columns is None else set(owned_columns)
        )
        self._owned_view = None if owned_columns is None else self.owned_columns
        self.adopt(np.zeros(int(layout.panel_offsets[-1]), dtype=np.float64))

        # Scatter A's values (owned columns only) in one fancy assignment.
        cols = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(a.indptr))
        rows = np.asarray(a.indices, dtype=np.int64)
        vals = a.data
        k = self.block_of_row[cols]  # block column of each entry
        if owned_columns is not None:
            owned = np.zeros(self.n_blocks, dtype=bool)
            owned[list(self.owned_columns)] = True
            sel = owned[k]
            cols, rows, vals, k = cols[sel], rows[sel], vals[sel], k[sel]
        pos = layout.locate(k, rows)
        missing = pos < 0
        if np.any(missing):
            col = int(cols[np.argmax(missing)])
            bad = rows[missing & (cols == col)][:5]
            raise PatternError(
                f"entries of column {col} fall outside the block pattern "
                f"(rows {bad.tolist()}): the pattern must cover Ā ⊇ A"
            )
        self.flat[
            layout.panel_offsets[k] + pos * layout.widths[k] + (cols - self.starts[k])
        ] = vals

    # ------------------------------------------------------------------
    def adopt(self, flat: np.ndarray) -> None:
        """Make ``flat`` (a buffer in :class:`BlockLayout` flat layout —
        a shared-memory arena or a snapshot of one) this storage's panels.
        Unowned columns stay ``None``."""
        self.flat = flat
        self.panels: list = self.layout.panel_views(flat, self._owned_view)

    def width(self, k: int) -> int:
        return self.layout.width(k)

    def diag_offset(self, k: int) -> int:
        """Panel offset of the diagonal block in block column ``k``."""
        return self.layout.diag_offset(k)

    def sub_rows(self, k: int) -> np.ndarray:
        """Global row ids of the candidate (diagonal-and-below) panel rows."""
        return self.layout.sub_rows(k)

    def sub_panel(self, k: int) -> np.ndarray:
        """View of the candidate rows of panel ``k`` (diagonal block first).

        Contiguous because blocks are stored in ascending order, so the
        diagonal-and-below region is the bottom slice of the panel.
        """
        if self.panels[k] is None:
            raise PatternError(
                f"block column {k} is not materialized on this process"
            )
        return self.panels[k][self.diag_offset(k) :, :]
