"""Routines the library replaced, kept as independent oracles for seeded
cross-checks: simple-cycle enumeration (in place of the cycle count), the
shared vertex read off the enumerated cycles (in place of the SCC
criterion), and the column maps and morphisms of a power built by
composing columns one level at a time (in place of ``substitution_power``
and the ``compose`` loop of ``telescope``).
"""

from toeplitztame.errors import ValidationError
from toeplitztame.extended_bratteli import MAX_POWER_COLUMNS, compose


def simple_cycles(vertices, edges, cap=10_000):
    """All simple cycles, each as a tuple of edges, enumerated once with
    the canonically smallest vertex first, stopping at ``cap`` cycles.
    Returns (cycles, truncated)."""
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
                    if truncated:
                        # leave the parent frames too: their remaining
                        # back-edges to the start would overshoot the cap
                        return

        dfs(start)
    return cycles, truncated


def shared_vertex_by_enumeration(vertices, edges, cap=10_000):
    """First vertex on two enumerated cycles.  Returns
    (vertex_or_None, truncated)."""
    order = {v: i for i, v in enumerate(vertices)}
    cycles, truncated = simple_cycles(vertices, edges, cap)
    seen = set()
    hits = set()
    for cyc in cycles:
        for v in {e[0] for e in cyc}:
            if v in seen:
                hits.add(v)
            seen.add(v)
    if hits:
        return min(hits, key=order.get), truncated
    return None, truncated


def power_column_maps(m, power):
    """All composed column maps of the telescoped power, as tuples of
    images over the upper alphabet (alphabet order); index arithmetic puts
    the deepest level in the most significant digit."""
    if m.upper != m.lower:
        raise ValidationError("powers need a square morphism")
    if m.length ** power > MAX_POWER_COLUMNS:
        raise ValidationError(
            f"power {power} would need {m.length ** power} columns")
    letters = list(m.upper)
    pos = {a: t for t, a in enumerate(letters)}
    base = [tuple(m.columns[i].as_dict()[a] for a in letters)
            for i in range(m.length)]
    maps = list(base)
    width = m.length
    for _ in range(power - 1):
        # index c + j * width composes the existing map c after the new,
        # deeper column j: (M^{t+1})_{c + j l^t} = (M^t)_c o M_j
        nxt = [None] * (len(maps) * m.length)
        for j in range(m.length):
            f = base[j]
            for c, g in enumerate(maps):
                nxt[c + j * width] = tuple(
                    g[pos[f[t]]] for t in range(len(letters)))
        maps = nxt
        width *= m.length
    return letters, maps


def morphism_power(m, power):
    """The power of a square level morphism by repeated composition."""
    if m.upper != m.lower:
        raise ValidationError("powers need a square morphism")
    if m.length ** power > MAX_POWER_COLUMNS:
        raise ValidationError(
            f"power {power} would need {m.length ** power} columns")
    out = m
    for _ in range(power - 1):
        out = compose(out, m)
    return out
