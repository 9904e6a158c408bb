"""Labelled-multigraph helpers: strongly connected components with their
census, the period of a strongly connected graph, the number of simple
cycles, and the vertices reached from a cycle.

A graph is a list of vertices (hashable, in a fixed canonical order) and a
list of edges ``(src, dst, label)``; parallel edges with distinct labels
are allowed and count separately.  In a strongly connected component, the
internal edge count exceeding the vertex count is equivalent to two
distinct simple cycles sharing a vertex, so the two-cycles-share-a-vertex
criterion is read from a row of the component census, which names such a
vertex.  By Perron-Frobenius a nonnegative matrix is primitive iff its
graph has period 1, the gcd of its cycle lengths.  Simple cycles are
counted, not listed: a layered count over vertex sets with a cap, in
O(2^V V^2) work on V vertices.
"""

from __future__ import annotations

from math import gcd


def scc_partition(vertices, edges):
    """Tarjan's algorithm, iterative; components returned in the order the
    canonical vertex list first meets them."""
    order = {v: i for i, v in enumerate(vertices)}
    out = {v: [] for v in vertices}
    for s, d, _ in edges:
        out[s].append(d)
    index = {}
    low = {}
    onstack = set()
    stack = []
    comps = []
    counter = [0]

    for root in vertices:
        if root in index:
            continue
        work = [(root, iter(out[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        onstack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(out[w])))
                    advanced = True
                    break
                if w in onstack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                comp.sort(key=order.get)
                comps.append(tuple(comp))
    comps.sort(key=lambda c: order[c[0]])
    return comps


def period(vertices, edges):
    """The gcd of the cycle lengths of a strongly connected graph: with
    levels from one breadth-first search, the gcd of level[s] + 1 -
    level[d] over the edges.  None when ``scc_partition`` finds more than
    one component."""
    if len(scc_partition(vertices, edges)) > 1:
        return None
    out = {v: [] for v in vertices}
    for s, d, _ in edges:
        out[s].append(d)
    order, level = [vertices[0]], {vertices[0]: 0}
    for v in order:
        for w in out[v]:
            if w not in level:
                level[w] = level[v] + 1
                order.append(w)
    return gcd(*(level[s] + 1 - level[d] for s, d, _ in edges))


def component_census(vertices, edges):
    """Per-SCC rows of the members, the vertex and internal-edge counts
    (every edge between two members of one SCC is internal) and the
    shared vertex.

    A row with more internal edges than vertices holds two distinct
    cycles through a common vertex; its ``shared`` is the canonically
    first member of internal out-degree >= 2, which exists by pigeonhole
    and lies on two of them.  Every other row's ``shared`` is None.
    """
    comps = scc_partition(vertices, edges)
    which = {v: ci for ci, comp in enumerate(comps) for v in comp}
    outdeg = dict.fromkeys(vertices, 0)
    for s, d, _ in edges:
        if which[s] == which[d]:
            outdeg[s] += 1
    rows = []
    for comp in comps:
        n_vertices = len(comp)
        n_internal_edges = sum(outdeg[v] for v in comp)
        shared = None
        if n_internal_edges > n_vertices:
            shared = next(v for v in comp if outdeg[v] >= 2)
        rows.append({"vertices": comp, "n_vertices": n_vertices,
                     "n_internal_edges": n_internal_edges, "shared": shared})
    return rows


def count_simple_cycles(vertices, edges, cap):
    """Number of simple cycles, parallel edges counted separately, as
    (min(count, cap), count >= cap).

    Each cycle is counted once, from its canonically first vertex s: a
    layered count over (set of later vertices used, end vertex) of the
    paths leaving s, multiplying edge multiplicities, closed by the edges
    back to s.  The count stops after the layer in which it reaches the
    cap.
    """
    index = {v: i for i, v in enumerate(vertices)}
    mult = [{} for _ in vertices]
    for s, d, _ in edges:
        row = mult[index[s]]
        row[index[d]] = row.get(index[d], 0) + 1
    count = 0
    for s in range(len(vertices)):
        count += mult[s].get(s, 0)
        layer = {(1 << w, w): k for w, k in mult[s].items() if w > s}
        while layer and count < cap:
            nxt = {}
            for (used, v), paths in layer.items():
                for w, k in mult[v].items():
                    if w == s:
                        count += paths * k
                    elif w > s and not used >> w & 1:
                        key = (used | 1 << w, w)
                        nxt[key] = nxt.get(key, 0) + paths * k
            layer = nxt
        if count >= cap:
            return cap, True
    return count, False


def reached_from_cycle(vertices, edges):
    """The set of vertices reached from a cycle, and the edges leaving
    them, for edges that join members of ``vertices``: the vertex set is
    replaced by the targets of its edges until its size stops changing.
    Each round keeps a subset of the last, and at the fixed point every
    vertex has a predecessor in the set, so ancestries of any length."""
    verts = vertices
    while True:
        kept = {d for _, d, _ in edges}
        if len(kept) == len(verts):
            return kept, edges
        verts = kept
        edges = [e for e in edges if e[0] in verts]
