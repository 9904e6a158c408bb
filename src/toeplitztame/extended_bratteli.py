"""Ordered Bratteli data with the equal path number property, telescoping,
the extended diagram on letter subsets, extendability, thickness strata,
and double-path search.

A level morphism is stored the way a ``Substitution`` is: the upper and
lower alphabets of single-character letters, and one image word over the
lower alphabet per upper letter, so column i sends a to the i-th letter of
a's word.  Composition is one ``str.translate`` of the deeper level's
words by the upper level's table, which is also how powers and
telescoping are built.  A diagram spec is a finite list of levels whose
last level repeats forever; a stationary spec is the one-level list of a
substitution, which it keeps for ``to_json``.  The extended diagram has
every nonempty subset as a vertex, with an edge from subset A below to
subset B above, labelled i, iff the i-th column maps B onto A.  Since
column images never grow, a path eventually stays at one cardinality;
analysing each cardinality stratum separately is therefore sound, and
cycles in a stratum decide how many paths of that thickness exist (none,
countably many, or uncountably many).

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
census, memoised on the morphism.  The census classifies every stratum: a
cycle keeps its cardinality and its vertices are extendable, so the SCCs
of the stratum of extendable k-sets that carry a cycle are exactly the
trimmed graph's cyclic SCCs of cardinality k, with the same internal
edges.  The trimmed graph's vertices are also exactly the extendable sets:
a set Y reached from a cyclic set C along any columns is the image of a
transversal S of C (one preimage in C per letter of Y); a power of the
cycle's word fixes C pointwise, so S lies on a cycle, and the path from S
to Y keeps the cardinality.  Frozensets appear only at the boundary:
``extendable_vertices`` and the witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

from . import graphs
from .errors import ValidationError
from .substitution import (Substitution, _image_tables, _letter_set,
                           _mask_key, has_naive_order, validate)

MAX_ALPHABET = 16
MAX_POWER_COLUMNS = 65536


@dataclass(frozen=True)
class LevelMorphism:
    """The ordered edge data of one level: words[k] is the image over the
    lower alphabet of upper[k], so column i maps a to the i-th letter of
    its word; there are exactly ``length`` edges with range v for every
    upper vertex v."""

    upper: tuple[str, ...]
    lower: tuple[str, ...]
    words: tuple[str, ...]

    def __post_init__(self):
        if any(len(a) != 1 for a in self.upper + self.lower):
            raise ValidationError("letters must be single characters")
        if len(self.words) != len(self.upper):
            raise ValidationError("one image word per upper letter required")
        if not self.words or not self.words[0]:
            raise ValidationError("a level needs at least one column")
        if any(len(w) != len(self.words[0]) for w in self.words):
            raise ValidationError("image words must share one length")
        covered = set().union(*self.words)
        if not covered <= set(self.lower):
            raise ValidationError("column image leaves the lower alphabet")
        if covered != set(self.lower):
            raise ValidationError(
                "every lower vertex must be the source of some edge")
        rule = dict(zip(self.upper, self.words))
        object.__setattr__(self, "_rule", rule)
        object.__setattr__(self, "_table", str.maketrans(rule))
        object.__setattr__(self, "_tail_memo", None)

    @property
    def length(self) -> int:
        return len(self.words[0])

    def image(self, i: int, letters) -> frozenset:
        return frozenset(self._rule[a][i] for a in letters)

    def to_json(self):
        return {"upper": list(self.upper), "lower": list(self.lower),
                "l": self.length, "rules": dict(self._rule)}


def morphism_from_substitution(theta: Substitution) -> LevelMorphism:
    return LevelMorphism(theta.alphabet, theta.alphabet, theta.words)


def compose(first: LevelMorphism, second: LevelMorphism) -> LevelMorphism:
    """Telescope two consecutive levels (``first`` nearer the top): the
    composed column i + j * len(first) applies the deeper column j first,
    so each composed word is the deeper word with every letter replaced
    by its word one level up."""
    if first.upper != second.lower:
        raise ValidationError("levels do not chain")
    return LevelMorphism(second.upper, first.lower,
                         tuple(w.translate(first._table) for w in second.words))


@dataclass(frozen=True)
class DiagramSpec:
    """A finite list of level morphisms whose last entry repeats forever.
    Every spec is thus eventually stationary, which keeps extendability
    and the stratum analysis exact rather than horizon-truncated.  A
    stationary spec is the one level of a substitution, kept in
    ``substitution``."""

    levels: tuple[LevelMorphism, ...]
    substitution: Substitution | None = None

    @property
    def kind(self) -> str:
        return "explicit" if self.substitution is None else "stationary"

    @staticmethod
    def stationary(theta) -> "DiagramSpec":
        theta = validate(theta)
        if not has_naive_order(theta):
            raise ValidationError(
                "naive stationary order is only proper when all rule words "
                "share their first letter and share their last letter; "
                "supply an explicit morphism sequence instead")
        return DiagramSpec((morphism_from_substitution(theta),), theta)

    @staticmethod
    def explicit(levels) -> "DiagramSpec":
        levels = tuple(levels)
        if not levels:
            raise ValidationError("explicit spec needs at least one level")
        for a, b in zip(levels, levels[1:]):
            if a.upper != b.lower:
                raise ValidationError("consecutive level alphabets must match")
        tail = levels[-1]
        if tail.upper != tail.lower:
            raise ValidationError(
                "the repeated last morphism must be square (finite rank)")
        return DiagramSpec(levels)

    def morphism(self, n: int) -> LevelMorphism:
        """Level-n morphism, n >= 1."""
        return self.levels[min(n, len(self.levels)) - 1]

    def tail_morphism(self) -> LevelMorphism:
        """The repeated morphism, which carries the memoised subset graph
        every analysis of the spec shares."""
        return self.levels[-1]

    def to_json(self):
        if self.kind == "stationary":
            return {"stationary": self.substitution.to_json()}
        return {"levels": [m.to_json() for m in self.levels]}

    @staticmethod
    def from_json(obj) -> "DiagramSpec":
        if "stationary" in obj:
            return DiagramSpec.stationary(validate(obj["stationary"]))
        levels = []
        for entry in obj["levels"]:
            if "rules" in entry:
                rules = entry["rules"]
                upper = tuple(entry.get("upper", sorted(rules)))
                words = tuple(rules[a] for a in upper)
            else:
                tables = entry["columns"]
                upper = tuple(entry.get("upper", sorted(tables[0])))
                words = tuple("".join(t[a] for t in tables) for a in upper)
            levels.append(LevelMorphism(
                upper, tuple(entry.get("lower", upper)), words))
        return DiagramSpec.explicit(levels)


def telescope(spec: DiagramSpec, groups) -> DiagramSpec:
    """Compose consecutive levels in blocks; the final group repeats.
    Blocks of the final group's size are added until one starts at the
    repeated level, so the block that repeats is a power of the tail.
    Uniform groups on a stationary spec yield the stationary spec of the
    substitution power."""
    groups = list(groups)
    if not groups or any(g < 1 for g in groups):
        raise ValidationError("groups must be positive")
    while sum(groups) - groups[-1] + 1 < len(spec.levels):
        groups.append(groups[-1])
    blocks, level = [], 1
    for g in groups:
        blocks.append([spec.morphism(level + t) for t in range(g)])
        width = math.prod(m.length for m in blocks[-1])
        if width > MAX_POWER_COLUMNS:
            raise ValidationError(f"power {g} would need {width} columns")
        level += g
    if spec.kind == "stationary" and len(set(groups)) == 1:
        m = reduce(compose, blocks[0])
        return DiagramSpec.stationary(Substitution(m.upper, m.words))
    return DiagramSpec.explicit(reduce(compose, b) for b in blocks)


# ---------------------------------------------------------------------------
# subset arcs and extendability


def subset_arcs(m: LevelMorphism):
    """The trimmed subset graph of a square morphism: the subsets lying on
    a cycle or reached from one along cardinality-preserving arcs, in
    (popcount, ascending bits) order, and those arcs (T, image, label),
    column by column.  Needs |A| <= MAX_ALPHABET, which ``_tail`` checks,
    so a column's image is two byte-table reads.

    A vertex on a cycle is the image of its predecessor, so the candidates
    are the nonempty submasks of the column ranges.  Images of candidates
    stay candidates, so the candidates can be trimmed to those reached
    from a cycle."""
    tables = _image_tables(m.upper, m.words, m.lower)
    full = (1 << len(m.upper)) - 1
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


def _tail(m: LevelMorphism):
    """The subset graph of a square morphism, censused once and memoised
    on it: (extendable masks, {k: (extendable k-sets in vertex order,
    their cardinality-preserving arcs in column order, classification)}).
    The extendable masks are the trimmed graph's vertices.  Every subset
    graph is built here, so this is where MAX_ALPHABET is enforced."""
    if m._tail_memo is None:
        if len(m.upper) > MAX_ALPHABET:
            raise ValidationError("alphabet too large for subset analysis")
        verts, arcs = subset_arcs(m)
        cls = {}
        for row in graphs.component_census(verts, arcs):
            if row["n_internal_edges"]:
                k = row["vertices"][0].bit_count()
                if row["n_internal_edges"] > row["n_vertices"]:
                    cls[k] = "uncountable"
                else:
                    cls.setdefault(k, "at-most-countable")
        out = {x: [] for x in verts}
        for arc in arcs:
            out[arc[0]].append(arc)
        strata = {k: ([], [], cls.get(k, "none"))
                  for k in range(1, len(m.upper) + 1)}
        for x in verts:
            kverts, karcs, _cls = strata[x.bit_count()]
            kverts.append(x)
            karcs += out[x]
        object.__setattr__(m, "_tail_memo", (set(verts), strata))
    return m._tail_memo


def extendable_vertices(spec: DiagramSpec, level: int) -> frozenset:
    """Subsets at the given level traversed by an infinite path.

    Upward reachability from the top vertex is automatic (every subset has
    arbitrary finite ancestries in the extended diagram); the downward
    condition is exact because every spec here is eventually stationary,
    so no horizon truncates the answer.  At and below the last listed
    level the extendable sets are those of the repeated morphism's
    trimmed subset graph; above it, the single-column images of the
    extendable sets one level down.
    """
    if level < 1:
        raise ValidationError("levels are numbered from 1")
    tail = spec.tail_morphism()
    letters = sorted(tail.upper)
    ext = {_letter_set(letters, x) for x in _tail(tail)[0]}
    for n in range(len(spec.levels) - 1, level - 1, -1):
        m = spec.morphism(n)
        ext = {m.image(i, t) for t in ext for i in range(m.length)}
    return frozenset(ext)


def essential_thickness(spec: DiagramSpec) -> int:
    """Largest k whose thickness-k path set is uncountable: the stratum of
    extendable cardinality-k subsets must carry two distinct cycles
    through a common vertex.  Defaults to 1."""
    strata = _tail(spec.tail_morphism())[1]
    for k in range(len(strata), 1, -1):
        if strata[k][2] == "uncountable":
            return k
    return 1


def thickness_census(spec: DiagramSpec, depth: int = 8) -> dict:
    """Per-cardinality classification of the thickness-k path sets, with
    depth-limited chain counts as enumeration evidence.

    none: the stratum is acyclic (chains die out).
    at-most-countable: cycles exist but no vertex lies on two.
    uncountable: two distinct cycles share a vertex.
    """
    out = {}
    for k, (verts, arcs, cls) in _tail(spec.tail_morphism())[1].items():
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


def find_double_path(spec: DiagramSpec, k: int, max_power: int = 6):
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
    if k < 2:
        raise ValidationError("double paths need cardinality >= 2")
    m = spec.tail_morphism()
    if k > len(m.upper):
        return None
    kverts, karcs, _cls = _tail(m)[1][k]
    if not kverts:
        return None
    rank = {a: r for r, a in enumerate(kverts)}
    labels = {a: {} for a in kverts}
    for a, b, j in karcs:
        labs = labels[a].setdefault(b, [])
        if len(labs) < 2:
            labs.append(j)
    width = m.length
    for power in range(1, max_power + 1):
        if m.length ** power > MAX_POWER_COLUMNS:
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
            width *= m.length
        pairs = [(a, b, 0) for a in kverts
                 for b, labs in labels[a].items() if len(labs) == 2]
        comp = {v: ci for ci, c in enumerate(graphs.scc_partition(kverts, pairs))
                for v in c}
        best = min(((*labels[a][b], rank[a], a, b) for a, b, _ in pairs
                    if comp[a] == comp[b]), default=None)
        if best is not None:
            i1, i2, _r, a, b = best
            letters = sorted(m.upper)
            return ParallelEdgeWitness(power, _letter_set(letters, a),
                                       _letter_set(letters, b), (i1, i2), k)
    return None
