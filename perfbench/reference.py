"""The reference operation: the benchmark's unit of machine speed.

On a shared machine the speed of a core changes for minutes at a time with
other tenants' load (runs of the same workload read up to 1.9 times faster
in a quiet phase). The timed loop runs this fixed pure-Python routine between
pvckit calls and divides each call's time by the median of the routine's
recent times; a phase then moves both and leaves the ratio.

The routine builds adjacency tuples for a fixed random multigraph, walks them
with a seen-set, and counts edge multiplicities in a dict: the kind of work
pvckit's graph code does. It uses no pvckit code, so a change to pvckit does
not move it. Changing this file changes the unit of every ``*_ref`` metric.
"""

from __future__ import annotations

import random

N = 400
M = 1500


def make_reference():
    rng = random.Random(12345)
    edges = [(rng.randrange(N), rng.randrange(N)) for _ in range(M)]

    def reference():
        adj = [[] for _ in range(N)]
        for i, (u, v) in enumerate(edges):
            adj[u].append(i)
            adj[v].append(i)
        adj = [tuple(a) for a in adj]
        seen = set()
        total = 0
        for u in range(N):
            for e in adj[u]:
                if e not in seen:
                    seen.add(e)
                    total += edges[e][0] ^ edges[e][1]
        counts = {}
        for u, v in edges:
            counts[(u, v)] = counts.get((u, v), 0) + 1
        return total + len(counts) + len(sorted(counts))

    return reference
