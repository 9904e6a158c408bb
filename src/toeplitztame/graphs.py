"""Labelled-multigraph helpers: strongly connected components, the
two-cycles-share-a-vertex criterion, and simple-cycle enumeration.

A graph is a list of vertices (hashable, in a fixed canonical order) and a
list of edges ``(src, dst, label)``; parallel edges with distinct labels
are allowed and count separately.  In a strongly connected component, the
internal edge count exceeding the vertex count is equivalent to two
distinct simple cycles sharing a vertex; the enumeration routine is kept
as an independent oracle for that criterion.
"""

from __future__ import annotations


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


def component_census(vertices, edges):
    """Per-SCC vertex and internal-edge counts (every edge between two
    members of one SCC is internal)."""
    comps = scc_partition(vertices, edges)
    which = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            which[v] = ci
    internal = [0] * len(comps)
    for s, d, _ in edges:
        if which[s] == which[d]:
            internal[which[s]] += 1
    return [{"vertices": comp, "n_vertices": len(comp), "n_internal_edges": internal[ci]}
            for ci, comp in enumerate(comps)]


def shared_cycle_vertex(vertices, edges):
    """A vertex lying on two distinct cycles, or None.

    Exists iff some SCC has more internal edges than vertices; within such
    an SCC any vertex of internal out-degree >= 2 works, and one must exist
    by pigeonhole.  Returns the canonically first such vertex.
    """
    order = {v: i for i, v in enumerate(vertices)}
    comps = component_census(vertices, edges)
    which = {}
    for ci, row in enumerate(comps):
        for v in row["vertices"]:
            which[v] = ci
    for ci, row in enumerate(comps):
        if row["n_internal_edges"] <= row["n_vertices"]:
            continue
        outdeg = {v: 0 for v in row["vertices"]}
        for s, d, _ in edges:
            if which[s] == ci and which[d] == ci:
                outdeg[s] += 1
        cands = [v for v in row["vertices"] if outdeg[v] >= 2]
        return min(cands, key=order.get)
    return None


def simple_cycles(vertices, edges, cap=10_000):
    """All simple cycles, each as a tuple of edges, enumerated once with
    the canonically smallest vertex first.  Returns (cycles, truncated)."""
    order = {v: i for i, v in enumerate(vertices)}
    out = {v: [] for v in vertices}
    for e in edges:
        out[e[0]].append(e)
    cycles = []
    truncated = False

    for start in vertices:
        if truncated:
            break
        path_edges = []
        onpath = {start}

        def dfs(v):
            nonlocal truncated
            if truncated:
                return
            for e in out[v]:
                w = e[1]
                if w == start:
                    cycles.append(tuple(path_edges + [e]))
                    if len(cycles) >= cap:
                        truncated = True
                        return
                elif order[w] > order[start] and w not in onpath:
                    onpath.add(w)
                    path_edges.append(e)
                    dfs(w)
                    path_edges.pop()
                    onpath.discard(w)

        dfs(start)
    return cycles, truncated


def shared_vertex_by_enumeration(vertices, edges, cap=10_000):
    """Oracle for shared_cycle_vertex: first vertex on two enumerated
    cycles.  Returns (vertex_or_None, truncated)."""
    order = {v: i for i, v in enumerate(vertices)}
    cycles, truncated = simple_cycles(vertices, edges, cap)
    seen = {}
    hits = set()
    for cyc in cycles:
        verts = {e[0] for e in cyc}
        for v in verts:
            if v in seen:
                hits.add(v)
            seen[v] = True
    if hits:
        return min(hits, key=order.get), truncated
    return None, truncated


def reachable_from(vertices, edges, sources):
    out = {v: [] for v in vertices}
    for s, d, _ in edges:
        out[s].append(d)
    seen = set(sources)
    stack = list(sources)
    while stack:
        v = stack.pop()
        for w in out[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen
