"""Immutable graphs with vertex costs and edge profits, plus the bipartite toolbox:
2-coloring, maximum matching (Hopcroft-Karp) and minimum vertex cover (Konig).

Everything is exact integer arithmetic. All tie-breaking is by lowest vertex id,
so repeated runs produce identical labelings, matchings and covers. Graphs are
frozen after construction; every operation here is read-only and safe to call
concurrently.

A :class:`Graph` checks itself: its constructor runs :func:`check_graph` and
raises InputError for a broken one, so every graph that exists is sound and
no function re-checks the graph it is handed. :func:`make_graph` normalizes
outside input first, and every graph the toolkit derives from another is
filled in by :func:`_trusted_graph`, which skips the check.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import InputError

LEFT = 0
RIGHT = 1


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on dense vertex ids 0..n-1.

    ``edges[e] = (u, v, profit)`` with u < v; ``adjacency[v]`` holds the ids of
    the edges incident to v. Costs and profits are non-negative ints of
    arbitrary precision (gadget instances go far beyond 64 bits). Built as
    ``Graph(...)``, the fields may be any sequences; they are stored as
    tuples once :func:`check_graph` finds no problem, and InputError lists
    the problems otherwise.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]
    costs: tuple[int, ...]
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        problems = check_graph(self)
        if problems:
            raise InputError("; ".join(problems))
        vars(self).update(edges=tuple(self.edges), costs=tuple(self.costs),
                          adjacency=tuple(map(tuple, self.adjacency)))

    @property
    def m(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(self.n)

    def profit(self, e: int) -> int:
        return self.edges[e][2]

    def other_end(self, e: int, v: int) -> int:
        u, w, _ = self.edges[e]
        return w if v == u else u

    def max_degree(self) -> int:
        return max(map(len, self.adjacency), default=0)

    def total_profit(self) -> int:
        return sum(p for _, _, p in self.edges)

    def neighbors(self, v: int) -> list[int]:
        return [self.other_end(e, v) for e in self.adjacency[v]]


@dataclass(frozen=True)
class Bipartition:
    """Per-vertex side labels (LEFT/RIGHT); every edge joins the two sides.

    The constructor raises InputError unless ``side`` is a tuple of LEFT and
    RIGHT labels; whether the sides fit a graph is checked where the two meet.
    """

    side: tuple[int, ...]

    def __post_init__(self):
        side = self.side
        if not isinstance(side, tuple) or side.count(LEFT) + side.count(RIGHT) != len(side):
            raise InputError("bipartition sides must be a tuple of LEFT and RIGHT labels")

    def left(self) -> list[int]:
        return [v for v, s in enumerate(self.side) if s == LEFT]

    def right(self) -> list[int]:
        return [v for v, s in enumerate(self.side) if s == RIGHT]


@dataclass(frozen=True)
class NotBipartite:
    """Returned by :func:`bipartition` when the graph has an odd cycle."""

    odd_cycle: tuple[int, ...]


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edge ids."""

    edge_ids: frozenset[int]
    size: int


def make_graph(n, edges, costs=None) -> Graph:
    """Build and validate a graph.

    ``edges`` items are (u, v) or (u, v, profit); profit defaults to 1, and an
    item of any other shape is rejected. The graph stores each edge as a
    tuple (u, v, profit) with u < v, and keeps an item that is already one.
    Costs default to 1 per vertex.
    Self-loops and parallel edges are rejected, as are negative weights.
    """
    if not isinstance(n, int) or n < 0:
        raise InputError("vertex count must be a non-negative integer")
    if costs is None:
        costs = (1,) * n
    else:
        costs = tuple(costs)
    if len(costs) != n:
        raise InputError("expected %d vertex costs, got %d" % (n, len(costs)))
    for v, c in enumerate(costs):
        if not isinstance(c, int) or c < 0:
            raise InputError("cost of vertex %d must be a non-negative integer" % v)
    norm = []
    seen_pairs = set()
    for item in edges:
        try:
            u, v, p = item if len(item) == 3 else (*item, 1)
        except (TypeError, ValueError):
            raise InputError("edge must be (u, v) or (u, v, profit): %r" % (item,)) from None
        if not (isinstance(u, int) and isinstance(v, int)):
            raise InputError("edge endpoints must be integers: %r" % (item,))
        if not (0 <= u < n and 0 <= v < n):
            raise InputError("edge endpoint out of range: %r" % (item,))
        if u == v:
            raise InputError("self-loop at vertex %d" % u)
        if not isinstance(p, int) or p < 0:
            raise InputError("edge profit must be a non-negative integer: %r" % (item,))
        key = (u, v) if u < v else (v, u)
        if key in seen_pairs:
            raise InputError("parallel edge %s" % (key,))
        seen_pairs.add(key)
        # An item that is already a normalized triple is kept, so graphs
        # built from one edge list share its tuples.
        norm.append(item if type(item) is tuple and len(item) == 3 and u < v
                    else (key[0], key[1], p))
    return _trusted_graph(n, norm, costs)


def _trusted_graph(n: int, edges, costs, adjacency=None) -> Graph:
    """Build a graph from data that is valid by construction, without the
    check the constructor runs.

    ``edges`` must be (u, v, profit) triples with 0 <= u < v < n, pairwise
    distinct and with non-negative int profits; ``costs`` must be n
    non-negative ints. A caller that already has the adjacency (per vertex,
    the ids of its edges in increasing order) may pass it, and it is used
    as given. Nothing here re-checks that: callers either checked it
    themselves or derive the data from a graph, which is sound.
    """
    edges = tuple(edges)
    if adjacency is None:
        adjacency = [[] for _ in range(n)]
        for e, (u, v, _) in enumerate(edges):
            adjacency[u].append(e)
            adjacency[v].append(e)
    g = object.__new__(Graph)
    vars(g).update(n=n, edges=edges, costs=tuple(costs),
                   adjacency=tuple(tuple(a) for a in adjacency))
    return g


def check_graph(g) -> list[str]:
    """The problems that keep ``g``'s fields from forming a sound graph, as
    :class:`Graph`'s constructor reports them; ``g`` is a graph under
    construction, so its fields may be of any type.

    The vertex count must be a non-negative int, and the edges, costs and
    adjacency must be sequences; otherwise that is the one problem reported.
    Each edge must be a tuple ``(u, v, profit)``; any other entry is
    reported and skipped, both by the later edge checks and where an
    adjacency list names it. Endpoints, profits, costs and adjacency entries
    must be ints, as :func:`make_graph` requires, and each adjacency list a
    sequence. One pass over the adjacency lists records, per edge, which of
    its two endpoints list it (bit 1 for the first, bit 2 for the second; a
    self-loop sets both), so a missing or repeated entry shows and the whole
    check is linear in the size of the graph.
    """
    if not isinstance(g.n, int) or g.n < 0:
        return ["vertex count must be a non-negative integer"]
    if not all(isinstance(f, Sequence) for f in (g.edges, g.costs, g.adjacency)):
        return ["edges, costs and adjacency must be sequences"]
    problems = []
    if len(g.costs) != g.n or len(g.adjacency) != g.n:
        problems.append("per-vertex arrays do not match vertex count")
        return problems
    # The endpoints of each edge, or None for an entry that is no triple.
    ends = [edge[:2] if isinstance(edge, tuple) and len(edge) == 3 else None
            for edge in g.edges]
    listed = [0] * g.m
    foreign = []
    for v, adj in enumerate(g.adjacency):
        if not isinstance(adj, Sequence):
            foreign.append("adjacency of vertex %d is not a sequence" % v)
            continue
        for e in adj:
            pair = ends[e] if isinstance(e, int) and 0 <= e < g.m else ()
            if pair is None:  # reported with the edges
                continue
            if v not in pair:
                foreign.append("adjacency of vertex %d lists foreign edge %r" % (v, e))
                continue
            bit = (v == pair[0]) | (v == pair[1]) << 1
            if listed[e] & bit:
                foreign.append("adjacency of vertex %d lists edge %d twice" % (v, e))
            listed[e] |= bit
    seen_pairs = set()
    for e, edge in enumerate(g.edges):
        if ends[e] is None:
            problems.append("edge %d is not a (u, v, profit) triple" % e)
            continue
        u, v, p = edge
        if not (isinstance(u, int) and isinstance(v, int)):
            problems.append("edge %d has non-integer endpoint" % e)
            continue
        if not (0 <= u < g.n and 0 <= v < g.n):
            problems.append("edge %d has endpoint out of range" % e)
            continue
        if u == v:
            problems.append("edge %d is a self-loop" % e)
        if u > v:
            problems.append("edge %d is not normalized (u < v)" % e)
        if not isinstance(p, int) or p < 0:
            problems.append("edge %d has profit %r, not a non-negative integer" % (e, p))
        key = (min(u, v), max(u, v))
        if key in seen_pairs:
            problems.append("parallel edge %s" % (key,))
        seen_pairs.add(key)
        if listed[e] != 3:
            problems.append("edge %d missing from an endpoint adjacency list" % e)
    for v, c in enumerate(g.costs):
        if not isinstance(c, int) or c < 0:
            problems.append("vertex %d has cost %r, not a non-negative integer" % (v, c))
    return problems + foreign


def weighted_degree(g: Graph, v: int) -> int:
    """Total profit of the edges incident to ``v``."""
    if not (isinstance(v, int) and 0 <= v < g.n):
        raise InputError("invalid vertex id %r" % (v,))
    return sum(g.profit(e) for e in g.adjacency[v])


def weighted_degrees(g: Graph) -> list[int]:
    """Weighted degree of every vertex, in one pass over the edges."""
    out = [0] * g.n
    for u, v, p in g.edges:
        out[u] += p
        out[v] += p
    return out


def coverage(g: Graph, s) -> tuple[frozenset[int], int]:
    """Edges with at least one endpoint in ``s`` and their total profit.

    Each covered edge is counted exactly once, no matter how many of its
    endpoints are selected.
    """
    covered = set()
    for v in s:
        if not (isinstance(v, int) and 0 <= v < g.n):
            raise InputError("invalid vertex id %r" % (v,))
        covered.update(g.adjacency[v])
    return frozenset(covered), sum(g.profit(e) for e in covered)


def bipartition(g: Graph):
    """Two-color the graph by BFS layering, processing vertices in id order.

    Returns a :class:`Bipartition`, or a :class:`NotBipartite` value carrying
    an odd cycle as witness. Deterministic: the same graph always yields the
    same labeling.
    """
    edges, adjacency = g.edges, g.adjacency
    side = [-1] * g.n
    parent = [-1] * g.n
    for root in range(g.n):
        if side[root] != -1:
            continue
        side[root] = LEFT
        queue = deque([root])
        while queue:
            v = queue.popleft()
            here = side[v]
            there = RIGHT if here == LEFT else LEFT
            for e in adjacency[v]:
                a, b, _ = edges[e]
                w = b if a == v else a
                if side[w] == -1:
                    side[w] = there
                    parent[w] = v
                    queue.append(w)
                elif side[w] == here:
                    return NotBipartite(odd_cycle=_odd_cycle(parent, v, w))
    return Bipartition(side=tuple(side))


def _odd_cycle(parent, u, w):
    # Join the tree paths of the conflicting endpoints at their lowest
    # common ancestor; same BFS layer parity makes the cycle odd.
    path_u = [u]
    while parent[path_u[-1]] != -1:
        path_u.append(parent[path_u[-1]])
    path_w = [w]
    while parent[path_w[-1]] != -1:
        path_w.append(parent[path_w[-1]])
    while len(path_u) >= 2 and len(path_w) >= 2 and path_u[-2] == path_w[-2]:
        path_u.pop()
        path_w.pop()
    # path_u ends at the LCA, path_w repeats it; drop the duplicate.
    return tuple(path_u + path_w[-2::-1])


def _check_bipartition(g: Graph, bp: Bipartition) -> None:
    if len(bp.side) != g.n:
        raise InputError("bipartition does not match the graph's vertex count")
    for u, v, _ in g.edges:
        if bp.side[u] == bp.side[v]:
            raise InputError("bipartition is invalid: edge (%d, %d) stays on one side" % (u, v))


def max_matching(g: Graph, bp: Bipartition) -> Matching:
    """Maximum-cardinality matching via Hopcroft-Karp.

    Left vertices are scanned in ascending id order and adjacency is sorted,
    so augmenting-path ties always resolve toward the lowest vertex id. The
    path search keeps its frames on an explicit stack, so path length is not
    capped by Python's recursion limit.
    """
    _check_bipartition(g, bp)
    side = bp.side
    left = [v for v in range(g.n) if side[v] == LEFT]
    adj = [[] for _ in range(g.n)]  # sorted right neighbors of each left vertex
    for u, w, _ in g.edges:
        if side[u] == LEFT:
            adj[u].append(w)
        else:
            adj[w].append(u)
    for u in left:
        adj[u].sort()
    pair = [-1] * g.n
    INF = g.n + 1
    dist = {}

    def bfs() -> bool:
        queue = deque()
        for u in left:
            if pair[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = INF
        while queue:
            u = queue.popleft()
            if dist[u] >= found:
                continue
            for w in adj[u]:
                if pair[w] == -1:
                    found = min(found, dist[u] + 1)
                elif dist[pair[w]] == INF:
                    dist[pair[w]] = dist[u] + 1
                    queue.append(pair[w])
        return found != INF

    def augment(root: int) -> bool:
        # Depth-first search for an augmenting path along the BFS layers, on
        # an explicit stack of (left vertex, rest of its neighbor scan). A left
        # vertex whose scan runs out leaves the layering (dist INF).
        stack = [(root, iter(adj[root]))]
        while stack:
            u, scan = stack[-1]
            for w in scan:
                if pair[w] == -1:
                    # Flip the path: each left vertex on it takes the right
                    # vertex below it and frees its old mate for the one above.
                    for a, _ in reversed(stack):
                        pair[a], pair[w], w = w, a, pair[a]
                    return True
                if dist[pair[w]] == dist[u] + 1:
                    stack.append((pair[w], iter(adj[pair[w]])))
                    break
            else:
                dist[u] = INF
                stack.pop()
        return False

    size = 0
    while bfs():
        for u in left:
            if pair[u] == -1 and augment(u):
                size += 1

    ids = frozenset(e for u in left if pair[u] != -1
                    for e in g.adjacency[u] if g.other_end(e, u) == pair[u])
    assert len(ids) == size
    return Matching(edge_ids=ids, size=size)


def min_vertex_cover(g: Graph, bp: Bipartition, matching: Matching) -> frozenset[int]:
    """Minimum vertex cover from a maximum matching (Konig's construction).

    Vertices reachable from unmatched left vertices by alternating paths are
    collected; the cover is the unreached left part plus the reached right
    part, and its size equals ``matching.size``. InputError unless the
    matching's ids are edges of ``g`` that share no vertex. If the matching
    is not maximum the result is not checked; that precondition is the
    caller's contract.
    """
    _check_bipartition(g, bp)
    mate = [-1] * g.n
    for e in matching.edge_ids:
        if not (isinstance(e, int) and 0 <= e < g.m):
            raise InputError("matching edge id %r is not in 0..%d" % (e, g.m - 1))
        u, v, _ = g.edges[e]
        if mate[u] != -1 or mate[v] != -1:
            raise InputError("matching edge %d shares a vertex with another" % e)
        mate[u] = v
        mate[v] = u
    left = [v for v in range(g.n) if bp.side[v] == LEFT]
    reached = set(v for v in left if mate[v] == -1)
    queue = deque(sorted(reached))
    while queue:
        u = queue.popleft()
        for e in g.adjacency[u]:
            w = g.other_end(e, u)
            if w == mate[u] or w in reached:
                continue
            reached.add(w)
            if mate[w] != -1 and mate[w] not in reached:
                reached.add(mate[w])
                queue.append(mate[w])
    cover = [v for v in left if v not in reached]
    cover += [v for v in range(g.n) if bp.side[v] == RIGHT and v in reached]
    return frozenset(cover)


def edge_subgraph(g: Graph, edge_ids) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph on a subset of edges, keeping the full vertex set.

    Returns the subgraph and, per subgraph edge id, the id of the original
    edge. Vertex ids are unchanged, so a bipartition of ``g`` stays valid.
    """
    kept = sorted(edge_ids)
    if (kept and not 0 <= kept[0] <= kept[-1] < g.m) or len(set(kept)) < len(kept):
        raise InputError("edge ids must be distinct and lie in 0..%d" % (g.m - 1))
    sub = _trusted_graph(g.n, [g.edges[e] for e in kept], g.costs)
    return sub, tuple(kept)
