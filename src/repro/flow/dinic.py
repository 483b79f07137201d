"""Maximum flow via Dinic's algorithm, implemented from scratch.

The active-time algorithms repeatedly answer the question "given a set of
active slots, can all jobs be feasibly assigned?"  The paper reduces this to a
max-flow computation on the bipartite network ``G_feas`` (Figure 2).  Those
feasibility probes dominate the running time of both the minimal-feasible
3-approximation and the LP-rounding 2-approximation, so the solver here is
tuned for repeated solves on small-to-medium networks:

* adjacency is stored in flat ``list`` arrays (edge-struct-of-arrays layout),
* BFS level graph + iterative DFS blocking flow (no recursion limits),
* integer capacities throughout, so the returned flow is integral — the
  property the rounding proof leans on ("by integrality of flow").

Flows persist between calls: :meth:`Dinic.max_flow` resets them to zero and
solves, while :meth:`Dinic.augment` continues from the current residual
network, the warm start the feasibility oracle relies on.

Dinic's algorithm runs in ``O(V^2 E)`` in general and ``O(E sqrt(V))`` on unit
bipartite networks, far better than needed at the instance sizes the paper's
experiments require.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

__all__ = ["Dinic", "MaxFlowResult"]


class MaxFlowResult:
    """Outcome of a max-flow computation.

    Attributes
    ----------
    value:
        The maximum flow value.
    flows:
        Flow on each edge, indexed by the handle returned by
        :meth:`Dinic.add_edge`.
    """

    __slots__ = ("value", "flows")

    def __init__(self, value: int, flows: list[int]):
        self.value = value
        self.flows = flows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MaxFlowResult(value={self.value})"


class Dinic:
    """A reusable max-flow network.

    Typical usage::

        net = Dinic(n_nodes)
        e = net.add_edge(u, v, capacity)
        result = net.max_flow(source, sink)
        result.flows[e]     # flow routed on that edge

    The network holds a current flow between calls.  ``max_flow`` starts
    from zero flow (it calls :meth:`reset`); :meth:`augment` pushes on top
    of the current flow, so a caller that edits capacities with
    :meth:`set_capacity` and cancels flow with :meth:`withdraw` can
    re-maximise without re-routing what still fits.
    """

    def __init__(self, n_nodes: int):
        if n_nodes < 0:
            raise ValueError("node count must be non-negative")
        self.n = n_nodes
        # Struct-of-arrays edge store: edge i has endpoint head[i],
        # remaining capacity cap[i]; edge i^1 is its residual twin.
        self._head: list[int] = []
        self._cap: list[int] = []
        self._adj: list[list[int]] = [[] for _ in range(n_nodes)]
        self._orig_cap: list[int] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self) -> int:
        """Append a node, returning its index."""
        self._adj.append([])
        self.n += 1
        return self.n - 1

    def add_edge(self, u: int, v: int, capacity: int) -> int:
        """Add a directed edge ``u -> v``; returns an edge handle.

        The handle indexes :attr:`MaxFlowResult.flows` and is accepted by
        :meth:`set_capacity`.
        """
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise IndexError(f"edge ({u}, {v}) out of range for {self.n} nodes")
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        handle = len(self._head)
        self._head.append(v)
        self._cap.append(capacity)
        self._orig_cap.append(capacity)
        self._adj[u].append(handle)
        # residual twin
        self._head.append(u)
        self._cap.append(0)
        self._orig_cap.append(0)
        self._adj[v].append(handle + 1)
        return handle

    def set_capacity(self, handle: int, capacity: int) -> None:
        """Update the capacity of a previously added edge.

        The current flow is kept when the edge's flow still fits the new
        capacity; otherwise it is discarded (:meth:`reset`).
        """
        if handle % 2 != 0:
            raise ValueError("handles refer to forward edges (even indices)")
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        delta = capacity - self._orig_cap[handle]
        self._orig_cap[handle] = capacity
        if self._cap[handle] + delta < 0:
            self.reset()
        else:
            self._cap[handle] += delta

    def capacity(self, handle: int) -> int:
        """Current configured capacity of an edge."""
        return self._orig_cap[handle]

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Discard the current flow: every edge back to its capacity."""
        self._cap[:] = self._orig_cap

    def max_flow(self, source: int, sink: int) -> MaxFlowResult:
        """Compute a maximum ``source -> sink`` flow from zero flow.

        Resets the flow first, so repeated calls (after
        :meth:`set_capacity` updates) are independent, then runs
        :meth:`augment` without a limit.
        """
        self.reset()
        total = self.augment(source, sink)
        cap, orig = self._cap, self._orig_cap
        flows = [orig[e] - cap[e] if e % 2 == 0 else 0 for e in range(len(cap))]
        return MaxFlowResult(total, flows)

    def augment(self, source: int, sink: int, limit: int | None = None) -> int:
        """Push more flow on top of the current one; return the amount pushed.

        Runs Dinic phases on the residual network as it stands (no reset)
        until no augmenting path is left or ``limit`` more units have been
        pushed.  From zero flow and without a limit this is a maximum flow.
        """
        if source == sink:
            raise ValueError("source and sink must differ")
        cap = self._cap
        head = self._head
        adj = self._adj
        n = self.n
        budget = float("inf") if limit is None else limit
        total = 0

        while total < budget:
            # --- BFS: level graph; stop once the sink is labelled, as
            # nodes labelled later lie on no shortest augmenting path ----
            level = [-1] * n
            level[source] = 0
            queue = deque([source])
            while queue and level[sink] < 0:
                u = queue.popleft()
                next_level = level[u] + 1
                for e in adj[u]:
                    if cap[e] > 0:
                        v = head[e]
                        if level[v] < 0:
                            level[v] = next_level
                            queue.append(v)
            if level[sink] < 0:
                break

            # --- DFS: blocking flow (iterative) -----------------------
            it = [0] * n
            while total < budget:
                pushed = self._dfs_push(source, sink, budget - total, level, it)
                if pushed == 0:
                    break
                total += pushed
        return total

    def _dfs_push(self, source, sink, limit, level, it):
        """One augmenting push of at most ``limit`` units, iteratively."""
        cap, head, adj = self._cap, self._head, self._adj
        # the current path: its nodes, and the edges between them
        stack: list[int] = [source]
        path_edges: list[int] = []
        while stack:
            u = stack[-1]
            if u == sink:
                bottleneck = min(limit, min(cap[e] for e in path_edges))
                for e in path_edges:
                    cap[e] -= bottleneck
                    cap[e ^ 1] += bottleneck
                return bottleneck
            edges = adj[u]
            next_level = level[u] + 1
            i, m = it[u], len(edges)
            while i < m:
                e = edges[i]
                if cap[e] > 0 and level[head[e]] == next_level:
                    break
                i += 1
            it[u] = i
            if i < m:
                stack.append(head[e])
                path_edges.append(e)
            else:
                level[u] = -1  # dead end; prune
                stack.pop()
                if path_edges:
                    path_edges.pop()
                if stack:
                    it[stack[-1]] += 1
        return 0

    def withdraw(self, path: Iterable[int]) -> None:
        """Cancel one unit of flow along a path of edge handles.

        Every edge on the path must carry flow; the caller picks a
        source-to-sink path, so conservation holds.
        """
        cap = self._cap
        for e in path:
            cap[e] += 1
            cap[e ^ 1] -= 1

    def flow(self, handle: int) -> int:
        """Flow currently routed on an edge."""
        return self._orig_cap[handle] - self._cap[handle]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def min_cut_reachable(self, source: int) -> list[bool]:
        """After :meth:`max_flow`, nodes reachable in the residual graph.

        The returned mask defines the source side of a minimum cut.
        """
        seen = [False] * self.n
        seen[source] = True
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for e in self._adj[u]:
                v = self._head[e]
                if self._cap[e] > 0 and not seen[v]:
                    seen[v] = True
                    queue.append(v)
        return seen

    @property
    def num_edges(self) -> int:
        """Number of forward edges added."""
        return len(self._head) // 2
