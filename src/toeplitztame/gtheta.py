"""The subset graph of a constant-length substitution and everything it
decides: the two-cycle tameness criterion and singular-orbit bounds.

Vertices are the letter sets theta_{w_1}...theta_{w_k}(A) of size > 1 and
the full alphabet, held as masks until a report writes them; an edge runs
from B to A labelled i iff theta_i(A) = B.  Infinite paths parameterize the
points of the maximal equicontinuous factor with a non-singleton fibre.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import graphs
from .errors import NotPrimitive, PeriodicSubstitution, PureBaseError, \
    StabilizationError, ValidationError
from .substitution import (Substitution, _closure, _letters, _mask_key,
                           height_and_pure_base, is_aperiodic, is_primitive,
                           shortest_collapsing_word, validate)

TAME = "tame"
NON_TAME = "non-tame"
NOT_ALMOST_AUTOMORPHIC = "not-almost-automorphic"
INCONCLUSIVE = "inconclusive"

# simple cycles are counted up to this many; the report then says truncated
CYCLE_COUNT_CAP = 10_000


@dataclass(frozen=True)
class SubsetGraph:
    """Vertices are masks (bit t is the t-th sorted letter) in ``_mask_key``
    order; edges (source, target, label) have source = theta_label(target)."""

    alphabet: tuple[str, ...]
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]

    def extendable(self) -> frozenset:
        """Vertices traversed by an infinite path, i.e. vertices that can
        reach a cycle along the edge direction: the vertices reached from
        a cycle along the reversed edges."""
        return frozenset(graphs.reached_from_cycle(
            self.vertices, [(d, s, lab) for s, d, lab in self.edges])[0])

    def to_json(self):
        ext = self.extendable()
        name = _letters(self.alphabet, self.vertices)
        return {
            "alphabet": list(self.alphabet),
            "vertices": list(name.values()),
            "edges": [[name[s], name[d], lab] for s, d, lab in self.edges],
            "extendable": [name[v] for v in self.vertices if v in ext],
        }


@dataclass(frozen=True)
class CycleCensus:
    alphabet: tuple[str, ...]
    components: tuple
    shared_vertex: int | None
    n_simple_cycles: int | None
    cycles_truncated: bool

    def to_json(self):
        name = _letters(self.alphabet, (v for row in self.components
                                        for v in row["vertices"]))
        return {
            "components": [
                {"vertices": [name[v] for v in row["vertices"]],
                 "n_vertices": row["n_vertices"],
                 "n_internal_edges": row["n_internal_edges"]}
                for row in self.components],
            "shared_vertex": name.get(self.shared_vertex),  # a member, or None
            "n_simple_cycles": self.n_simple_cycles,
            "cycles_truncated": self.cycles_truncated,
        }


def build_gtheta(theta_prime: Substitution) -> SubsetGraph:
    """Closure of {A} under single column maps, discarding singletons, read
    from the memoised closure of the substitution.  Expects a pure base
    (height 1); the full alphabet is always a vertex even when nothing maps
    onto it."""
    _, found, arcs = _closure(theta_prime)
    ordered = sorted(found, key=_mask_key)
    rank = {x: r for r, x in enumerate(ordered)}
    arcs = sorted(arcs, key=lambda a: (rank[a[1]], rank[a[0]], a[2]))
    return SubsetGraph(theta_prime.alphabet, tuple(ordered),
                       tuple((y, x, i) for x, y, i in arcs))


def two_cycles_share_vertex(g: SubsetGraph) -> CycleCensus:
    """SCC census plus the multigraph criterion: some component has more
    internal edges than vertices iff two distinct cycles share a vertex,
    and the first such census row names the shared vertex.  Simple cycles
    are counted, up to CYCLE_COUNT_CAP, when the graph is small."""
    census = graphs.component_census(g.vertices, g.edges)
    shared = next((row["shared"] for row in census
                   if row["shared"] is not None), None)
    n_cycles, truncated = None, False
    if len(g.vertices) <= 12:
        n_cycles, truncated = graphs.count_simple_cycles(
            g.vertices, g.edges, CYCLE_COUNT_CAP)
    return CycleCensus(g.alphabet, tuple(census), shared, n_cycles, truncated)


def cycle_count_upper_bound(census: CycleCensus) -> int:
    """Number of simple cycles when no two share a vertex, read from the
    census of ``two_cycles_share_vertex``; an upper bound for the number
    of singular orbits."""
    if census.shared_vertex is not None:
        raise ValidationError("cycle count is infinite: two cycles share a vertex")
    # no shared vertex forces n_internal_edges == n_vertices: one cycle each
    return sum(1 for row in census.components if row["n_internal_edges"] >= 1)


# ---------------------------------------------------------------------------
# analysis report


@dataclass(frozen=True)
class AnalysisReport:
    substitution: Substitution
    aperiodicity_bound: int
    height: int | None
    pure_base: Substitution | None
    blocks: tuple | None
    coincidence: tuple | None
    graph: SubsetGraph | None
    census: CycleCensus | None
    verdict: str
    reason: str | None

    def to_json(self):
        census = None if self.census is None else self.census.to_json()
        shared = None if census is None else census["shared_vertex"]
        return {
            "schema": 1,
            "substitution": self.substitution.to_json(),
            "primitive": True,
            "aperiodic": True,
            "aperiodicity_bound": self.aperiodicity_bound,
            "height": self.height,
            "pure_base": None if self.pure_base is None else self.pure_base.to_json(),
            "blocks": None if self.blocks is None else list(self.blocks),
            "coincidence": None if self.coincidence is None else list(self.coincidence),
            "gtheta": None if self.graph is None else self.graph.to_json(),
            "cycle_census": census,
            "verdict": self.verdict,
            "reason": self.reason,
            "shared_vertex": shared,
            "singular_orbit_upper_bound":
                None if census is None or shared is not None
                else cycle_count_upper_bound(self.census),
        }


def tameness_verdict(theta) -> AnalysisReport:
    """Full pipeline: validate, primitivity, aperiodicity, height and pure
    base, coincidence, subset graph, cycle census.

    Imprimitive or periodic inputs raise; bound failures in the height or
    pure-base construction yield an inconclusive verdict rather than a
    guess.  A substitution is tame iff it has a coincidence and no vertex
    of the subset graph lies on two distinct cycles.
    """
    theta = validate(theta)
    if not is_primitive(theta):
        raise NotPrimitive("substitution is not primitive")
    aperiodic, bound = is_aperiodic(theta)
    if not aperiodic:
        raise PeriodicSubstitution(
            f"substitution shift is periodic (complexity bound {bound})")
    try:
        h, theta_prime, blocks = height_and_pure_base(theta)
    except (StabilizationError, PureBaseError) as exc:
        return AnalysisReport(theta, bound, None, None, None, None, None,
                              None, INCONCLUSIVE, str(exc))
    witness = shortest_collapsing_word(theta_prime)
    graph = build_gtheta(theta_prime)
    census = two_cycles_share_vertex(graph)
    if witness is None:
        verdict, reason = NOT_ALMOST_AUTOMORPHIC, "no coincidence"
    elif census.shared_vertex is not None:
        verdict, shared = NON_TAME, census.shared_vertex
        reason = "two distinct cycles share the vertex {%s}" % ",".join(
            _letters(graph.alphabet, [shared])[shared])
    else:
        verdict, reason = TAME, None
    return AnalysisReport(theta, bound, h, theta_prime, blocks, witness,
                          graph, census, verdict, reason)


# ---------------------------------------------------------------------------
# DOT export


def to_dot(g: SubsetGraph) -> str:
    """Edge labels as attributes; vertices with no outgoing edge (hence on
    no infinite path) drawn grey."""
    ext = g.extendable()
    # inside quotes DOT reads \" as a quote, and a label reads \ as an escape
    name = {v: "{%s}" % ",".join(letters).replace("\\", "\\\\")
            .replace('"', '\\"')
            for v, letters in _letters(g.alphabet, g.vertices).items()}
    lines = ["digraph gtheta {", "  rankdir=LR;"]
    for v in g.vertices:
        attrs = ['label="%s"' % name[v]]
        if v not in ext:
            attrs += ["color=grey", "fontcolor=grey"]
        lines.append('  "%s" [%s];' % (name[v], ", ".join(attrs)))
    for s, d, lab in g.edges:
        lines.append('  "%s" -> "%s" [label="%d"];' % (name[s], name[d], lab))
    lines.append("}")
    return "\n".join(lines) + "\n"
