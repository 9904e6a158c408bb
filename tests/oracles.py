"""Routines the library replaced, kept as independent oracles for seeded
cross-checks: the Wielandt loop, which tries M^k > 0 for every power k up
to (|A| - 1)^2 + 1 (in place of the period of ``graphs.period`` that
``substitution.is_primitive`` reads), simple-cycle enumeration (in place
of the cycle count), the vertices on two enumerated cycles (in place of
the shared vertex that a census row names), the column-by-column dict
composition of two substitutions and the column maps and words of a power
built from it one level at a time (in place of the translates of
``substitution_power``), the subset graph over all 2^|A| subsets with one
census and one reachability pass (in place of the trimmed graph of
``extended_bratteli.subset_arcs``), the frozenset G_theta with its report
JSON written from the frozensets, coincidence search and extendable
vertices (in place of the one mask closure of ``substitution._closure``,
the mask-to-letters step of ``substitution._letters`` and the trim of
``graphs.reached_from_cycle``), the per-level head-set loop for the
longest D-head matching a head, the prefix trie of a D-stage's points with
its walk, head sets, special words and head classes (both in place of the
closed forms of ``semicocycle._class_points`` and
``semicocycle._longest_head``), the D-stage recursion on exponent tuples
(in place of the closed form of ``semicocycle._exponent``), the
independence-scheme search on frozensets (in place of the mask search of
``independence.synthesize_scheme``), the digit descent that reads one
letter of a power at a time (in place of the per-position digit walk of
``independence.verify_patterns``), and the digit-tuple path of the
semicocycle families: heads as digit tuples, one ``add_integer`` per
offset, and the one-digit-per-level walk, with the head sets, special
words, point heads, interval words and level rows it reads (in place of
the int head values of ``semicocycle``).

Beside them are references with no counterpart in the library: the pair
graph of a substitution (the second route to its tameness verdict), a
materialised two-sided fixed-point window (the raw shift that independence
patterns must occur in), the common head length of two odometer heads (the
pointwise definition of the first semicocycle), the truncation of a head
to a shallower depth, an explicit word list as a right-extendable test
language, and two readings of a substitution at an odometer head that no
command reports: the letter of a fibre-window word and the canonical
semicocycle, with the column images they rest on.  Last comes one input
family that stresses the pipeline as |A| grows: a rotation column and a
merging column.
"""

import itertools

from collections import deque
from dataclasses import dataclass

from toeplitztame import graphs
from toeplitztame.errors import (DepthError, HorizonError, LanguageError,
                                 PreconditionError, ValidationError)
from toeplitztame.extended_bratteli import MAX_POWER_COLUMNS, _tail
from toeplitztame.gtheta import NON_TAME, tameness_verdict
from toeplitztame.independence import IndependenceScheme
from toeplitztame.odometer import OdometerHead, Scale, add_integer, head_index
from toeplitztame.semicocycle import (LEVELS, SCALE5, SCALE6, DPoint, DStage,
                                      _class_points, _exponent,
                                      realization_interval)
from toeplitztame.substitution import (LETTER_POOL, Substitution, expand,
                                       language, substitution_power, validate)


def letters_of(theta: Substitution, x: int) -> frozenset:
    """The letter set of the mask x: bit t is the t-th letter of theta's
    sorted alphabet."""
    return frozenset(a for t, a in enumerate(sorted(theta.alphabet))
                     if x >> t & 1)


def column_image(theta: Substitution, i: int, letters) -> frozenset:
    return frozenset(theta.rule(a)[i] for a in letters)


def wielandt_primitive(theta: Substitution, rounds=None):
    """True iff the incidence matrix satisfies M^k > 0 entrywise for some
    k up to the Wielandt bound (|A| - 1)^2 + 1.  With ``rounds`` below
    the bound only the first ``rounds`` powers are tried, and None means
    that none of them was positive."""
    n = len(theta.alphabet)
    full = frozenset(theta.alphabet)
    base = {a: frozenset(theta.rule(a)) for a in theta.alphabet}
    cur = base
    bound = (n - 1) ** 2 + 1
    tried = bound if rounds is None else min(rounds, bound)
    for _ in range(tried):
        if all(cur[a] == full for a in theta.alphabet):
            return True
        cur = {a: frozenset().union(*(base[b] for b in cur[a]))
               for a in theta.alphabet}
    return False if tried == bound else None


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


def vertices_on_two_cycles(vertices, edges, cap=10_000):
    """Every vertex on two enumerated cycles.  Returns (set, truncated)."""
    cycles, truncated = simple_cycles(vertices, edges, cap)
    seen = set()
    hits = set()
    for cyc in cycles:
        for v in {e[0] for e in cyc}:
            if v in seen:
                hits.add(v)
            seen.add(v)
    return hits, truncated


def columns(theta):
    """Column i of a substitution as a dict from letters to letters."""
    return [dict(zip(theta.alphabet, col)) for col in zip(*theta.words)]


def compose_columns(first, second):
    """Two substitutions on one alphabet (``first`` nearer the top)
    composed column by column: composed column i + j * len(first) is
    first_i after second_j."""
    if first.alphabet != second.alphabet:
        raise ValidationError("substitutions do not share an alphabet")
    fcols, scols = columns(first), columns(second)
    cols = [None] * (len(fcols) * len(scols))
    for j, sj in enumerate(scols):
        for i, fi in enumerate(fcols):
            cols[i + j * len(fcols)] = {a: fi[sj[a]] for a in second.alphabet}
    return Substitution(second.alphabet, tuple(
        "".join(col[a] for col in cols) for a in second.alphabet))


def power_column_maps(theta, power):
    """All composed column maps of the power, as tuples of images over the
    alphabet (alphabet order); index arithmetic puts the deepest level in
    the most significant digit."""
    if theta.length ** power > MAX_POWER_COLUMNS:
        raise ValidationError(
            f"power {power} would need {theta.length ** power} columns")
    letters = list(theta.alphabet)
    pos = {a: t for t, a in enumerate(letters)}
    base = list(zip(*theta.words))
    maps = list(base)
    width = theta.length
    for _ in range(power - 1):
        # index c + j * width composes the existing map c after the new,
        # deeper column j: (M^{t+1})_{c + j l^t} = (M^t)_c o M_j
        nxt = [None] * (len(maps) * theta.length)
        for j in range(theta.length):
            f = base[j]
            for c, g in enumerate(maps):
                nxt[c + j * width] = tuple(
                    g[pos[f[t]]] for t in range(len(letters)))
        maps = nxt
        width *= theta.length
    return letters, maps


def morphism_power(theta, power):
    """The power of a substitution by repeated column-by-column
    composition."""
    if theta.length ** power > MAX_POWER_COLUMNS:
        raise ValidationError(
            f"power {power} would need {theta.length ** power} columns")
    out = theta
    for _ in range(power - 1):
        out = compose_columns(out, theta)
    return out


def full_subset_arcs(theta):
    """Arcs (T, image, label) for every nonempty letter subset T; an arc
    runs from the upper subset down to its image.  Subsets are bitmasks:
    bit t is the t-th letter of the sorted alphabet.  Vertices come in
    (popcount, ascending bits) order."""
    letters = sorted(theta.alphabet)
    n = len(letters)
    pos = {a: t for t, a in enumerate(letters)}
    verts = [sum(1 << t for t in c) for r in range(1, n + 1)
             for c in itertools.combinations(range(n), r)]
    images = []
    for col in columns(theta):
        masks = [1 << pos[col[a]] for a in letters]
        img = [0] * (1 << n)
        for x in range(1, 1 << n):
            img[x] = img[x & (x - 1)] | masks[(x & -x).bit_length() - 1]
        images.append(img)
    arcs = [(t, img[t], i) for t in verts for i, img in enumerate(images)]
    return verts, arcs


def full_tail(theta):
    """The subset graph of a substitution, built over all 2^|A| subsets
    and censused once, memoised on the substitution like the library's
    ``_tail``: (extendable masks, {k: (extendable k-sets in vertex order,
    their cardinality-preserving arcs, classification)})."""
    if "tail" not in theta._memo:
        verts, arcs = full_subset_arcs(theta)
        census = graphs.component_census(verts, arcs)
        cls = {}
        on_cycle = []
        for row in census:
            if row["n_internal_edges"]:
                on_cycle.extend(row["vertices"])
                k = row["vertices"][0].bit_count()
                if row["n_internal_edges"] > row["n_vertices"]:
                    cls[k] = "uncountable"
                else:
                    cls.setdefault(k, "at-most-countable")
        ext = reachable_from(verts, arcs, on_cycle)
        strata = {k: ([], [], cls.get(k, "none"))
                  for k in range(1, len(theta.alphabet) + 1)}
        for v in verts:
            if v in ext:
                strata[v.bit_count()][0].append(v)
        for t, s, i in arcs:
            k = t.bit_count()
            if s.bit_count() == k and t in ext:
                strata[k][1].append((t, s, i))
        theta._memo["tail"] = ext, strata
    return theta._memo["tail"]


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


def vertex_key(s):
    return (len(s), tuple(sorted(s)))


def frozenset_gtheta(theta_prime):
    """G_theta by a depth-first closure of {A} over frozensets, then one
    pass over every (vertex, column) for the edges, written as the
    ``gtheta`` and ``cycle_census`` JSON of the reports: letter lists from
    the frozensets, vertices in ``vertex_key`` order.  The census rows are
    those of ``graphs.component_census`` on the frozenset graph, and the
    simple cycles are enumerated."""
    full = frozenset(theta_prime.alphabet)
    vertices = {full}
    stack = [full]
    while stack:
        s = stack.pop()
        for i in range(theta_prime.length):
            img = column_image(theta_prime, i, s)
            if len(img) > 1 and img not in vertices:
                vertices.add(img)
                stack.append(img)
    ordered = tuple(sorted(vertices, key=vertex_key))
    edges = []
    for a in ordered:
        for i in range(theta_prime.length):
            b = column_image(theta_prime, i, a)
            if len(b) > 1:
                edges.append((b, a, i))
    edges.sort(key=lambda e: (vertex_key(e[0]), vertex_key(e[1]), e[2]))
    ext = census_extendable(ordered, edges)
    census = graphs.component_census(ordered, edges)
    shared = next((row["shared"] for row in census
                   if row["shared"] is not None), None)
    n_cycles, truncated = None, False
    if len(ordered) <= 12:
        cycles, truncated = simple_cycles(ordered, edges)
        n_cycles = len(cycles)
    graph_json = {
        "alphabet": list(theta_prime.alphabet),
        "vertices": [sorted(v) for v in ordered],
        "edges": [[sorted(s), sorted(d), i] for s, d, i in edges],
        "extendable": [sorted(v) for v in ordered if v in ext],
    }
    census_json = {
        "components": [{"vertices": [sorted(v) for v in row["vertices"]],
                        "n_vertices": row["n_vertices"],
                        "n_internal_edges": row["n_internal_edges"]}
                       for row in census],
        "shared_vertex": None if shared is None else sorted(shared),
        "n_simple_cycles": n_cycles,
        "cycles_truncated": truncated,
    }
    return graph_json, census_json


def pair_graph(theta):
    """The pair graph: the 2-sets of letters as vertices, in sorted-letter
    order, with an arc {x, y} -> {theta_i(x), theta_i(y)}, labelled i,
    whenever the two images differ.  Its census has a shared vertex iff
    some G_theta vertex lies on two distinct cycles."""
    letters = sorted(theta.alphabet)
    verts = [frozenset(p) for p in itertools.combinations(letters, 2)]
    edges = [(frozenset((x, y)), frozenset((a, b)), i)
             for x, y in itertools.combinations(letters, 2)
             for i, (a, b) in enumerate(zip(theta.rule(x), theta.rule(y)))
             if a != b]
    return verts, edges


def frozenset_collapsing_word(theta):
    """Shortest collapsing column word by a breadth-first search over
    frozensets that stops at the first singleton image."""
    start = frozenset(theta.alphabet)
    if len(start) == 1:
        return ()
    parent = {start: None}
    queue = deque([start])
    while queue:
        s = queue.popleft()
        for i in range(theta.length):
            img = frozenset(theta.rule(a)[i] for a in s)
            if len(img) == 1:
                word = [i]
                cur = s
                while parent[cur] is not None:
                    cur, j = parent[cur]
                    word.append(j)
                return tuple(reversed(word))
            if img not in parent:
                parent[img] = (s, i)
                queue.append(img)
    return None


def census_extendable(vertices, edges):
    """Vertices of a subset graph that can reach a cycle: the cyclic SCCs
    of its census, then a backward reachability pass."""
    on_cycle = set()
    for row in graphs.component_census(vertices, edges):
        if row["n_internal_edges"] >= 1:
            on_cycle.update(row["vertices"])
    return frozenset(reachable_from(
        vertices, [(d, s, lab) for s, d, lab in edges], on_cycle))


def oracle_synthesize_scheme(theta, max_power: int = 6):
    """The independence-scheme search on frozensets: each extendable k-set
    as a frozenset, each column of theta^m restricted to it as a tuple of
    letters, tested for a bijection and scanned for progressions."""
    if max_power < 1:
        raise ValidationError(f"max_power must be >= 1, got {max_power}")
    report = tameness_verdict(theta)
    if report.verdict != NON_TAME:
        raise PreconditionError(
            f"independence schemes require a non-tame verdict, got {report.verdict}")
    base = report.pure_base
    strata = _tail(base)[1]
    # the extendable k-sets, k >= 2, in the subset order of the strata
    a_sets = [letters_of(base, x) for k in range(2, len(base.alphabet) + 1)
              for x in strata[k][0]]
    pos = {a: t for t, a in enumerate(base.alphabet)}
    for m in range(1, max_power + 1):
        if base.length ** m > MAX_POWER_COLUMNS:
            break  # exhausted the tractable powers; report inconclusive
        # column c of theta^m as its images over the alphabet, in order
        maps = list(zip(*substitution_power(base, m).words))
        L = len(maps)
        full_images = [frozenset(g) for g in maps]
        for a_set in a_sets:
            k = len(a_set)
            a_sorted = sorted(a_set)
            restricted = {}
            for c, g in enumerate(maps):
                r = tuple(g[pos[a]] for a in a_sorted)
                if frozenset(r) == a_set and len(set(r)) == k:
                    restricted[c] = r
            found = _oracle_scan_progressions(restricted, full_images,
                                              a_set, L)
            if found is not None:
                j0, j1, j2, i, b = found
                return IndependenceScheme(base, m, L, a_set, b, j0, j1, j2, i)
    return None


def _oracle_scan_progressions(restricted, full_images, a_set, L):
    a_sorted = sorted(a_set)
    for j0 in range(L):
        b = full_images[j0]
        if not b < a_set:
            continue
        for j1 in sorted(restricted):
            if j1 <= j0:
                continue
            j2 = 2 * j1 - j0
            if j2 >= L or j2 not in restricted:
                continue
            if restricted[j1] != restricted[j2]:
                continue
            bij = dict(zip(a_sorted, restricted[j1]))
            target = {a for a in a_set if bij[a] not in b}
            for i in range(L):
                if full_images[i] <= target:
                    return j0, j1, j2, i, b
    return None


def oracle_d_stage(i):
    """Stage i of the D-set as (head exponents, tail exponent) per point,
    by the recursion on tuples: each point l of stage s spawns a point
    whose head is the first 2^s + l exponents of l and whose tail
    exponent is 2^s + l."""
    points = [((), 0)]
    for s in range(i):
        m = 2 ** s
        points += [(head[:m + l] + (tail,) * (m + l - len(head)), m + l)
                   for l, (head, tail) in enumerate(points)]
    return points


class PrefixTrie:
    """The prefix trie of the points of D-stage i to a depth, grown as it
    is walked.

    A depth-m node is [the points whose first m digits are its path, its
    children keyed by the level-(m + 1) digit in ascending order], the
    children built on the first visit.  Digits come from the exponent
    tuples of ``oracle_d_stage``."""

    def __init__(self, i, depth):
        self.index = i
        self.heads = [tuple(3 ** (head[n] if n < len(head) else tail)
                            for n in range(depth))
                      for head, tail in oracle_d_stage(i)]
        self.root = [range(len(self.heads)), None]

    def _children(self, node, m):
        if node[1] is None:
            groups = {}
            for a in node[0]:
                groups.setdefault(self.heads[a][m], []).append(a)
            node[1] = {d: [group, None] for d, group in sorted(groups.items())}
        return node[1]

    def level(self, depth):
        """(path, node) for each depth-``depth`` node, ascending in the
        path, which is the head of any of the node's points."""
        nodes = [self.root]
        for m in range(depth):
            nodes = [kid for node in nodes
                     for kid in self._children(node, m).values()]
        return [(self.heads[node[0][0]][:depth], node) for node in nodes]

    def head_set(self, m):
        return frozenset(path for path, _ in self.level(m))

    def head_classes(self, depth):
        """(the depth-``depth`` paths, the class of each point), classes
        numbered in path order."""
        level = self.level(depth)
        point_class = [0] * len(self.heads)
        for ci, (_, node) in enumerate(level):
            for a in node[0]:
                point_class[a] = ci
        return [path for path, _ in level], point_class

    def heads_and_special(self, m):
        """(Head_m, the one depth-m node with two children), or raises as
        ``semicocycle.heads_and_special`` does."""
        if 2 ** self.index < m + 1:
            raise PreconditionError(
                f"stage {self.index} is too shallow for stable Head_{m + 1}")
        level = self.level(m)
        if len(level) != m:
            raise ValidationError(f"|Head_{m}| = {len(level)}, expected {m}")
        specials = [path for path, node in level
                    if len(self._children(node, m)) >= 2]
        if len(specials) != 1:
            raise ValidationError(
                f"expected one special word, got {len(specials)}")
        return frozenset(path for path, _ in level), specials[0]

    def longest_head(self, digits):
        """The depth of the last node on the path of ``digits``."""
        node = self.root
        for m, d in enumerate(digits):
            node = self._children(node, m).get(d)
            if node is None:
                return m
        return len(digits)


def longest_head_by_head_sets(digits, heads):
    """The largest m with digits[:m] in heads(m) = Head_m, one head set
    per level."""
    L = 0
    for m in range(1, len(digits) + 1):
        if tuple(digits[:m]) not in heads(m):
            break
        L = m
    return L


# The digit-tuple path of the semicocycle families, in place of the int
# head values of ``semicocycle``: heads are ``OdometerHead`` digit tuples,
# an offset is one ``add_integer`` per evaluation, and the longest-head
# walk compares one digit per level.


def integer_head(t: int, scale: Scale, depth: int) -> OdometerHead:
    """Head of the canonical odometer representation of the integer t."""
    if depth < 0:
        raise ValidationError("depth must be >= 0")
    digits = []
    for m in itertools.islice(scale.moduli(), depth):
        t, d = divmod(t, m)
        digits.append(d)
    return OdometerHead(scale, digits)


def point_exponent(point: DPoint, n: int) -> int:
    return _exponent(point.p, n)


def point_digit(point: DPoint, n: int) -> int:
    return 3 ** point_exponent(point, n)


def point_head(point: DPoint, depth: int) -> OdometerHead:
    return OdometerHead(SCALE5, tuple(3 ** e for e in point.exponents(depth)))


def head_set(stage: DStage, m: int) -> frozenset:
    """Head_m as digit tuples; exact once the stage has at least m points
    (their heads, pairwise distinct)."""
    return frozenset(point_head(DPoint(q), m).digits
                     for q in _class_points(stage, m))


def heads_and_special(m: int, stage: DStage):
    """(Head_m, w_m): the m distinct heads and the unique one with two
    distinct one-digit extensions in Head_{m+1}.  For m >= 1 that is the
    class ``_exponent(m, m)``, which point m, the one point added to
    Head_{m+1}, leaves at level m + 1 with exponent m."""
    if 2 ** stage.index < m + 1:
        raise PreconditionError(
            f"stage {stage.index} is too shallow for stable Head_{m + 1}")
    if m < 1:
        raise ValidationError(f"|Head_{m}| = 1, expected {m}")
    return head_set(stage, m), point_head(DPoint(_exponent(m, m)), m).digits


def tuple_longest_head(stage: DStage, digits) -> int:
    """The largest m <= len(digits) with digits[:m] in Head_m.  Past the
    class c of digits[:m] (0 at depth 0), Head_{m+1} holds the digit 3^c,
    and 3^m too where point m >= 1 is in the stage and leaves c there
    (``heads_and_special``)."""
    size = 1 << stage.index
    c, dc = 0, 1
    for m, d in enumerate(digits):
        if d == dc:
            continue
        if 0 < m < size and _exponent(m, m) == c and d == 3 ** m:
            c, dc = m, d
        else:
            return m
    return len(digits)


def tuple_f5_eval(h: OdometerHead, stage: DStage):
    if h.scale != SCALE5:
        raise ValidationError("first-family heads live over the 4^n scale")
    L = tuple_longest_head(stage, h.digits)
    confident = 2 ** stage.index >= h.depth and L < h.depth
    return ("a" if L % 2 == 1 else "b"), confident


def tuple_window(zhat: OdometerHead, n0: int, n1: int, stage: DStage) -> str:
    letters, failures = [], []
    for n in range(n0, n1 + 1):
        letter, confident = tuple_f5_eval(add_integer(zhat, n), stage)
        letters.append(letter)
        if not confident:
            failures.append(n)
    if failures:
        raise DepthError(
            f"evaluation not certified at offsets {failures}; deepen the head/stage")
    return "".join(letters)


def tuple_f6_eval(z: OdometerHead, fam) -> str:
    if z.scale != SCALE6:
        raise ValidationError("second-family heads live over Z_2")
    nonzero = [k + 1 for k, d in enumerate(z.digits) if d]
    if not nonzero:
        raise DepthError("all digits zero: membership undecidable at this depth")
    p = nonzero[0]
    n = 1
    while LEVELS.l(n, 0) < p - 1:
        n += 1
    if LEVELS.l(n, 0) != p - 1:
        return "a"
    if len(nonzero) < 2:
        raise DepthError(
            f"inside the level-{n} support but the head length is unresolved")
    return fam.value(n, nonzero[1] - 1)


def tuple_realize_prefix(y: str, fam, zhat: OdometerHead):
    """(t_w, letters) with t_w the first of three candidates
    -zhat mod 2^lo + j 2^lo, j = 0, 1, 2, that is positive and leaves
    digit lo of t_w + zhat nonzero."""
    lo, hi = realization_interval(y, fam)
    if zhat.depth < hi + 2:
        raise DepthError(f"zhat must have depth > {hi + 1}")
    if len(set(zhat.digits[zhat.depth // 2:])) == 1:
        raise PreconditionError("zhat looks eventually constant at this depth")
    base = -sum(d << k for k, d in enumerate(zhat.digits[:lo])) % (1 << lo)
    t_w = next(t for t in (base, base + (1 << lo), base + (2 << lo))
               if t > 0 and add_integer(zhat, t).digits[lo])
    letters = [tuple_f6_eval(add_integer(zhat, t_w + LEVELS.time(k)), fam)
               for k in range(1, len(y) + 1)]
    return t_w, "".join(letters)


def family_word(fam, n: int, i: int) -> str:
    """f^1 ... f^n on the level-n interval i, from the family's words."""
    fam._check_level(n)
    words = fam.words[n - 1]
    if 0 <= i < len(words):
        return words[i]
    lo, hi = LEVELS.l(n, i), LEVELS.l(n, i + 1)
    raise HorizonError(f"interval [{lo},{hi}) beyond horizon")


def level_row(levels, n: int, count: int) -> list:
    return [levels.l(n, i) for i in range(count)]


@dataclass(frozen=True)
class Window:
    """A two-sided word: ``text`` with the origin at index ``origin``;
    positions run over [-origin, len(text) - origin)."""

    text: str
    origin: int

    def letter(self, i: int) -> str:
        j = self.origin + i
        if not 0 <= j < len(self.text):
            raise ValidationError(f"position {i} outside window")
        return self.text[j]


def two_sided_seed(theta):
    """(p, s, q): an admissible seed pair p.s for a two-sided fixed point
    of theta^q, preferring the smallest power q and then alphabet order."""
    lang2 = language(theta, 2)
    for q in range(1, len(theta.alphabet) + 1):
        for p in theta.alphabet:
            if expand(theta, p, q)[-1] != p:
                continue
            for s in theta.alphabet:
                if expand(theta, s, q)[0] != s:
                    continue
                if p + s in lang2:
                    return p, s, q
    raise ValidationError("no admissible two-sided fixed-point seed found")


def fixed_point_window(theta, radius):
    """Two-sided fixed-point word on [-radius, radius)."""
    if radius == 0:
        return Window("", 0)
    p, s, q = two_sided_seed(theta)
    left, right = p, s
    while len(right) < radius or len(left) < radius:
        left = expand(theta, left, q)
        right = expand(theta, right, q)
    return Window(left[-radius:] + right[:radius], radius)


def truncate(h: OdometerHead, depth: int) -> OdometerHead:
    if depth > h.depth:
        raise ValidationError("cannot truncate to a larger depth")
    return OdometerHead(h.scale, h.digits[:depth])


def common_head_length(a, b):
    """(L, saturated): L leading digits of two heads over one scale agree;
    saturated means agreement reached the shallower depth, so the true L
    may exceed the reported one."""
    limit = min(a.depth, b.depth)
    L = 0
    while L < limit and a.digits[L] == b.digits[L]:
        L += 1
    return L, L == limit


class UserWordList:
    """An explicit right-extendable language given as words per length."""

    name = "user"

    def __init__(self, words_by_length):
        self._words = {n: frozenset(ws) for n, ws in words_by_length.items()}
        if self._words.get(1) != frozenset({"a", "b"}):
            raise LanguageError("a usable language has L^1 = {a, b}")
        for n in sorted(self._words):
            if n + 1 not in self._words:
                break
            for w in self._words[n]:
                if not any(w + c in self._words[n + 1] for c in "ab"):
                    raise LanguageError(f"{w!r} has no right extension")

    def words(self, n):
        if n not in self._words:
            raise LanguageError(f"no words of length {n} supplied")
        return self._words[n]

    def extensions(self, w):
        longer = self._words.get(len(w) + 1)
        if longer is None:
            raise LanguageError("word list exhausted")
        return "".join(c for c in "ab" if w + c in longer)


def letter_in_power(theta: Substitution, v: str, k: int, index: int) -> str:
    """theta^k(v)[index] by base-l digit descent, without materializing the
    word: the most significant digit picks the outer block."""
    l = theta.length
    if not 0 <= index < l ** k:
        raise ValidationError("index outside theta^k(v)")
    digits = []
    for _ in range(k):
        index, d = divmod(index, l)
        digits.append(d)
    u = v
    for d in reversed(digits):
        u = theta.rule(u)[d]
    return u


def window_letter(h: OdometerHead, theta: Substitution, vertex: str, position: int) -> str:
    """Letter of the fibre-window word of ``vertex`` at a shift position,
    evaluated by digit descent instead of materializing the word.  The
    word is theta^n(v) placed on [-z^(n), l^n - z^(n)), with z^(n) the
    head index; the distinct words bound the fibre over any point
    extending the head."""
    _check_scale(h, theta)
    z = head_index(h)
    return letter_in_power(theta, vertex, h.depth, z + position)


def canonical_semicocycle_eval(h: OdometerHead, theta: Substitution):
    """The letter at position 0 when all fibre words agree there,
    equivalently when theta_{z_1} o ... o theta_{z_n} collapses the
    alphabet; None while undetermined at this depth.  None is the test
    for the discontinuity set: every partial image theta_{z_k} o ... o
    theta_{z_n}(A) has more than one letter, which any extension of the
    head to a discontinuity point needs, and which is exact in the limit
    of the depth."""
    if h.depth < 1:
        raise ValidationError("head depth must be >= 1")
    _check_scale(h, theta)
    s = frozenset(theta.alphabet)
    for z in reversed(h.digits):
        s = column_image(theta, z, s)
    if len(s) == 1:
        return next(iter(s))
    return None


def _check_scale(h: OdometerHead, theta: Substitution):
    for n in range(1, h.depth + 1):
        if h.scale.modulus(n) != theta.length:
            raise ValidationError(
                "head scale does not match the substitution length")


def rotation_merge(size: int) -> Substitution:
    """x_t -> x_0 x_(t+1) x_t, and the last letter -> x_0 x_0 x_0, over the
    first ``size`` letters of ``LETTER_POOL``: primitive and aperiodic, with
    one rotation column and one merging column, so its G_theta has
    2^|A| - |A| - 1 vertices and its complexity bound is 6 |A|^2."""
    xs = LETTER_POOL[:size]
    rules = {x: xs[0] + xs[t + 1] + x for t, x in enumerate(xs[:-1])}
    rules[xs[-1]] = xs[0] * 3
    return validate({"rules": rules})
