"""The stationary extended Bratteli diagram of a substitution: the subset
graph, its thickness strata, essential thickness and double-path search.

A substitution shift's Bratteli-Vershik diagram is stationary: every level
is the one square morphism theta, whose column i sends a letter a to the
i-th letter of theta(a) (Durand-Host-Skau, ETDS 19, 1999).  Its naive order
is proper when all rule words share their first letter and share their
last letter, so the thickness functions take the substitution itself, check
that, and read its words; powers are ``substitution_power``.  The extended
diagram has every nonempty subset as a vertex, with an edge from subset A
below to subset B above, labelled i, iff the i-th column maps B onto A.
Since column images never grow, a path eventually stays at one
cardinality; analysing each cardinality stratum separately is therefore
sound, and cycles in a stratum decide how many paths of that thickness
exist (none, countably many, or uncountably many).

Inside this module a subset is an int bitmask in the one encoding of
``substitution``: bit t is the t-th letter of the sorted alphabet, and
``_mask_key`` orders masks as frozensets are ordered (size, then sorted
letters).  A column's image of a mask is read from ``_image_tables``, one
table per byte of the mask; the alphabet here has at most MAX_ALPHABET = 16
letters, so that is two reads.  The subset graph is never built over all
2^|A| subsets.  A vertex on a cycle is the image of its predecessor, so
only nonempty submasks of the column ranges are candidates, and only arcs
that keep the cardinality are kept; ``graphs.reached_from_cycle`` trims the
candidates to those reached from a cycle, and that graph gets one SCC
census, memoised on the substitution.  The census classifies every
stratum: a cycle keeps its cardinality and its vertices are extendable, so
the SCCs of the stratum of extendable k-sets that carry a cycle are exactly
the trimmed graph's cyclic SCCs of cardinality k, with the same internal
edges.  The trimmed graph's vertices are also exactly the extendable sets:
a set Y reached from a cyclic set C along any columns is the image of a
transversal S of C (one preimage in C per letter of Y); a power of the
cycle's word fixes C pointwise, so S lies on a cycle, and the path from S
to Y keeps the cardinality.  Frozensets appear only in the witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import graphs
from .errors import ValidationError
from .substitution import (Substitution, _image_tables, _letters, _mask_key,
                           has_naive_order, validate)

MAX_ALPHABET = 16
MAX_POWER_COLUMNS = 65536


def _stationary(theta) -> Substitution:
    """The substitution whose stationary diagram the thickness functions
    read, checked as its diagram needs: a proper naive order, and every
    letter the source of some edge."""
    theta = validate(theta)
    if not has_naive_order(theta):
        raise ValidationError(
            "naive stationary order is only proper when all rule words "
            "share their first letter and share their last letter")
    if len(set("".join(theta.words))) < len(theta.alphabet):
        raise ValidationError("every letter must occur in some rule word")
    return theta


# ---------------------------------------------------------------------------
# subset arcs and thickness strata


def subset_arcs(theta: Substitution):
    """The trimmed subset graph of a substitution: the subsets lying on
    a cycle or reached from one along cardinality-preserving arcs, in
    (popcount, ascending bits) order, and those arcs (T, image, label),
    column by column.  Needs |A| <= MAX_ALPHABET, which ``_tail`` checks,
    so a column's image is two byte-table reads.

    A vertex on a cycle is the image of its predecessor, so the candidates
    are the nonempty submasks of the column ranges.  Images of candidates
    stay candidates, so the candidates can be trimmed to those reached
    from a cycle."""
    tables = _image_tables(theta)
    full = (1 << len(theta.alphabet)) - 1
    cand = set()
    for r in {lo[full & 255] | hi[full >> 8] for lo, hi in tables}:
        sub = r
        while sub:
            cand.add(sub)
            sub = (sub - 1) & r
    arcs = []
    for i, (lo, hi) in enumerate(tables):
        arcs += [(x, y, i) for x in cand
                 if (y := lo[x & 255] | hi[x >> 8]).bit_count() == x.bit_count()]
    verts, arcs = graphs.reached_from_cycle(cand, arcs)
    return sorted(verts, key=_mask_key), arcs


def _tail(theta: Substitution):
    """The subset graph of a substitution, censused once and memoised on
    it: (extendable masks, {k: (extendable k-sets in vertex order,
    their cardinality-preserving arcs in column order, classification)}).
    The extendable masks are the trimmed graph's vertices.  Every subset
    graph is built here, so this is where MAX_ALPHABET is enforced."""
    if "tail" not in theta._memo:
        if len(theta.alphabet) > MAX_ALPHABET:
            raise ValidationError("alphabet too large for subset analysis")
        verts, arcs = subset_arcs(theta)
        cls = {}
        for row in graphs.component_census(verts, arcs):
            if row["n_internal_edges"]:
                k = row["vertices"][0].bit_count()
                if row["shared"] is not None:
                    cls[k] = "uncountable"
                else:
                    cls.setdefault(k, "at-most-countable")
        out = {x: [] for x in verts}
        for arc in arcs:
            out[arc[0]].append(arc)
        strata = {k: ([], [], cls.get(k, "none"))
                  for k in range(1, len(theta.alphabet) + 1)}
        for x in verts:
            kverts, karcs, _cls = strata[x.bit_count()]
            kverts.append(x)
            karcs += out[x]
        theta._memo["tail"] = set(verts), strata
    return theta._memo["tail"]


def essential_thickness(theta) -> int:
    """Largest k whose thickness-k path set is uncountable: the stratum of
    extendable cardinality-k subsets must carry two distinct cycles
    through a common vertex.  Defaults to 1."""
    strata = _tail(_stationary(theta))[1]
    for k in range(len(strata), 1, -1):
        if strata[k][2] == "uncountable":
            return k
    return 1


def thickness_census(theta, depth: int = 8) -> dict:
    """Per-cardinality classification of the thickness-k path sets, with
    depth-limited chain counts as enumeration evidence.

    none: the stratum is acyclic (chains die out).
    at-most-countable: cycles exist but no vertex lies on two.
    uncountable: two distinct cycles share a vertex.
    """
    if depth < 1:
        raise ValidationError(f"depth must be >= 1, got {depth}")
    out = {}
    for k, (verts, arcs, cls) in _tail(_stationary(theta))[1].items():
        counts = []
        ways = {v: 1 for v in verts}
        for _ in range(depth):
            nxt = {v: 0 for v in verts}
            for t, s, _lab in arcs:
                nxt[s] += ways[t]
            ways = nxt
            counts.append(sum(ways.values()))
        out[k] = {"classification": cls, "chain_counts": tuple(counts)}
    return out


# ---------------------------------------------------------------------------
# double paths


@dataclass(frozen=True)
class ParallelEdgeWitness:
    power: int
    upper: frozenset
    lower: frozenset
    labels: tuple[int, int]
    cardinality: int

    def to_json(self):
        return {"power": self.power, "upper": sorted(self.upper),
                "lower": sorted(self.lower), "labels": list(self.labels),
                "cardinality": self.cardinality}


def find_double_path(theta, k: int, max_power: int = 6):
    """Search telescoped powers for a pair of parallel edges at a
    cardinality-k vertex that genuinely extends to a double path.

    Two distinct composed columns sending A onto the same cardinality-k
    image B form a parallel edge pair; for an infinite double path the
    pair must recur, i.e. the arc A => B must lie on a cycle of the graph
    of parallel-edge pairs, which holds exactly when A and B share an SCC
    of that graph.  The first witness in (power, label pair, vertex)
    lexicographic order is returned; absence up to max_power is a report,
    not a proof that the system is not thick.

    No composed column is built.  For each extendable k-set A the search
    keeps, per k-set image B, the two smallest labels of power p mapping A
    onto B; those are the only labels the witness order can pick.  Label
    x + j l^p of power p + 1 applies the deep column j first, so the pairs
    of power p + 1 come from following each cardinality-preserving arc
    A -> M_j(A) in increasing j and then the labels x of M_j(A) at power
    p in increasing order.  Memory is O(|k-sets|^2) at every power.
    """
    if max_power < 1:
        raise ValidationError(f"max_power must be >= 1, got {max_power}")
    theta = _stationary(theta)
    if k < 2:
        raise ValidationError("double paths need cardinality >= 2")
    if k > len(theta.alphabet):
        return None
    kverts, karcs, _cls = _tail(theta)[1][k]
    if not kverts:
        return None
    rank = {a: r for r, a in enumerate(kverts)}
    labels = {a: {} for a in kverts}
    for a, b, j in karcs:
        labs = labels[a].setdefault(b, [])
        if len(labs) < 2:
            labs.append(j)
    width = theta.length
    for power in range(1, max_power + 1):
        if theta.length ** power > MAX_POWER_COLUMNS:
            break
        if power > 1:
            deeper = {a: {} for a in kverts}
            for a, a2, j in karcs:
                row = deeper[a]
                for b, labs in labels[a2].items():
                    cur = row.setdefault(b, [])
                    if len(cur) < 2:
                        cur.extend(x + j * width for x in labs[:2 - len(cur)])
            labels = deeper
            width *= theta.length
        pairs = [(a, b, 0) for a in kverts
                 for b, labs in labels[a].items() if len(labs) == 2]
        comp = {v: ci for ci, c in enumerate(graphs.scc_partition(kverts, pairs))
                for v in c}
        best = min(((*labels[a][b], rank[a], a, b) for a, b, _ in pairs
                    if comp[a] == comp[b]), default=None)
        if best is not None:
            i1, i2, _r, a, b = best
            name = _letters(theta.alphabet, (a, b))
            return ParallelEdgeWitness(power, frozenset(name[a]),
                                       frozenset(name[b]), (i1, i2), k)
    return None
