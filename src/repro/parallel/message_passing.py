"""Distributed-memory (message-passing) execution of the factorization.

The paper's actual setting: S*/S+ run on distributed-memory machines where
each processor owns its block columns and receives factored panels over the
network. This module executes that semantics for real — not a cost model:

* every virtual process holds :class:`BlockColumnData` materializing **only
  its owned columns** (symbolic metadata replicated, as real codes do);
* ``Factor(k)`` runs on ``owner(k)`` and *sends* a :class:`PanelMessage` —
  a **copy** of the factored candidate panel plus the pivot renaming — to
  every processor owning an update target of ``k``;
* ``Update(k, j)`` runs on ``owner(j)`` against the *received* panel; a
  process never touches memory it does not own (attempting to raises).

The driver interleaves the virtual processes deterministically (each step,
the lowest-ranked process with a runnable task executes one), so runs are
reproducible; the factors are gathered at the end and must equal the
shared-memory sequential factors — the strongest executable statement of
the 1-D distributed algorithm this environment allows (no MPI runtime).

This is **execution with distributed semantics but no real concurrency**:
it exists to validate the ownership/message protocol and pin the event
simulator's cost model, and it is not dispatchable as an ``engine=``
choice. Real multi-process execution — actual worker processes, shared
memory instead of panel-carrying messages — is
:mod:`repro.parallel.procengine`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.numeric.blockdata import BlockColumnData, BlockLayout
from repro.numeric.factor import FactorResult, LUFactorization
from repro.sparse.csc import CSCMatrix
from repro.symbolic.supernodes import BlockPattern
from repro.taskgraph.dag import TaskGraph
from repro.taskgraph.tasks import Task
from repro.util.errors import SchedulingError


@dataclass
class PanelMessage:
    """The datum ``F(k)`` broadcasts: factored panel + pivot renaming."""

    k: int
    width: int
    sub_rows: np.ndarray
    pivot_order: np.ndarray  # F(k)'s local pivot order over sub_rows
    panel: np.ndarray  # copy of the candidate panel (L below, U_kk on top)

    @property
    def n_bytes(self) -> int:
        return self.panel.nbytes + self.sub_rows.nbytes + self.pivot_order.nbytes


class ProcessEngine(LUFactorization):
    """One virtual process: owned columns only, remote panels from messages."""

    def __init__(
        self,
        rank: int,
        a: CSCMatrix,
        bp: BlockPattern,
        owned: set[int],
        layout: "BlockLayout | None" = None,
    ) -> None:
        # Bypass the parent constructor's full-storage build.
        self.data = BlockColumnData(a, bp, owned_columns=owned, layout=layout)
        self.bp = bp
        self.n = a.n_cols
        self.rank = rank
        self.owned = owned
        self.orig_at = np.arange(self.n, dtype=np.int64)  # unused per-process
        self.sub_rows: dict[int, np.ndarray] = {}
        self.pivot_order: dict[int, np.ndarray] = {}
        self.done: set[Task] = set()
        self.check_dependencies = False
        self.metrics = None
        self.sanitizer = None
        from repro.numeric.factor import LazyStats
        from repro.numeric.kernels import lu_panel_inplace

        self.lazy_stats = LazyStats()
        self.panel_kernel = lu_panel_inplace
        self.inbox: dict[int, PanelMessage] = {}
        self.bytes_received = 0
        self.n_messages_received = 0

    def receive(self, msg: PanelMessage) -> None:
        self.inbox[msg.k] = msg
        self.bytes_received += msg.n_bytes
        self.n_messages_received += 1

    def run_factor(self, k: int) -> PanelMessage:
        if k not in self.owned:
            raise SchedulingError(f"rank {self.rank} cannot factor column {k}")
        self._factor(k)
        return PanelMessage(
            k=k,
            width=self.data.width(k),
            sub_rows=self.sub_rows[k].copy(),
            pivot_order=self.pivot_order[k].copy(),
            panel=self.data.sub_panel(k).copy(),
        )

    def run_update(self, k: int, j: int) -> None:
        if j not in self.owned:
            raise SchedulingError(f"rank {self.rank} cannot update column {j}")
        if k in self.owned:
            self._apply_update(j, k, self.pivot_order[k], self.data.sub_panel(k))
            return
        msg = self.inbox.get(k)
        if msg is None:
            raise SchedulingError(
                f"rank {self.rank}: U({k},{j}) ran before panel {k} arrived"
            )
        self._apply_update(j, k, msg.pivot_order, msg.panel)


@dataclass
class MessagePassingResult:
    """Gathered outcome of one distributed run."""

    result: FactorResult
    n_messages: int
    bytes_moved: int
    per_rank_tasks: list[int] = field(default_factory=list)


def message_passing_factorize(
    a: CSCMatrix,
    bp: BlockPattern,
    graph: TaskGraph,
    owner: np.ndarray,
) -> MessagePassingResult:
    """Execute ``graph`` with per-process storage and explicit messages.

    Parameters
    ----------
    a:
        The analyzed (permuted) matrix with values.
    bp:
        Block pattern of ``Ā``.
    graph:
        A sufficient dependence graph (eforest or S*).
    owner:
        1-D mapping, ``owner[k]`` = owning rank of block column ``k``.
    """
    owner = np.asarray(owner, dtype=np.int64)
    if owner.size != bp.n_blocks:
        raise SchedulingError("mapping does not cover the block columns")
    n_procs = int(owner.max()) + 1 if owner.size else 1
    graph.validate()

    # The symbolic structure is replicated on every rank: one layout.
    layout = BlockLayout(bp)
    engines = [
        ProcessEngine(
            rank=p,
            a=a,
            bp=bp,
            owned={int(k) for k in np.nonzero(owner == p)[0]},
            layout=layout,
        )
        for p in range(n_procs)
    ]

    # Which ranks need column k's panel (own an update target of k).
    panel_destinations: dict[int, set[int]] = {}
    for t in graph.tasks():
        if t.kind == "U":
            dest = int(owner[t.j])
            if dest != int(owner[t.k]):
                panel_destinations.setdefault(t.k, set()).add(dest)

    n_preds = {t: graph.in_degree(t) for t in graph.tasks()}
    ready: list[deque[Task]] = [deque() for _ in range(n_procs)]
    for t, d in sorted(n_preds.items()):
        if d == 0:
            ready[int(owner[t.target])].append(t)

    n_messages = 0
    bytes_moved = 0
    n_done = 0
    total = graph.n_tasks
    per_rank_tasks = [0] * n_procs
    # Deterministic interleaving: each round, the lowest rank with ready
    # work executes exactly one task.
    while n_done < total:
        progressed = False
        for p in range(n_procs):
            if not ready[p]:
                continue
            task = ready[p].popleft()
            eng = engines[p]
            if task.kind == "F":
                msg = eng.run_factor(task.k)
                for dest in sorted(panel_destinations.get(task.k, ())):
                    engines[dest].receive(
                        PanelMessage(
                            k=msg.k,
                            width=msg.width,
                            sub_rows=msg.sub_rows.copy(),
                            pivot_order=msg.pivot_order.copy(),
                            panel=msg.panel.copy(),
                        )
                    )
                    n_messages += 1
                    bytes_moved += msg.n_bytes
            else:
                eng.run_update(task.k, task.j)
            eng.done.add(task)
            per_rank_tasks[p] += 1
            n_done += 1
            progressed = True
            for succ in graph.successors(task):
                n_preds[succ] -= 1
                if n_preds[succ] == 0:
                    ready[int(owner[succ.target])].append(succ)
            break
        if not progressed:
            raise SchedulingError("deadlock: tasks remain but none is ready")

    # Gather: assemble a full-storage engine from the owners' panels and
    # pivot metadata, then extract as usual (the final MPI_Gather).
    gathered = LUFactorization(a, bp, layout=layout)
    for k in range(bp.n_blocks):
        gathered.data.panels[k][...] = engines[int(owner[k])].data.panels[k]
    # The global row permutation is recomputed from the gathered renames,
    # composed in block order (execution-order independent, see docs).
    gathered.adopt_pivots(
        [engines[int(owner[k])].pivot_order[k] for k in range(bp.n_blocks)]
    )
    result = gathered.extract()
    return MessagePassingResult(
        result=result,
        n_messages=n_messages,
        bytes_moved=bytes_moved,
        per_rank_tasks=per_rank_tasks,
    )
