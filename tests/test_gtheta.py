import json
import random

import pytest
from hypothesis import given, strategies as st

from oracles import (canonical_semicocycle_eval, census_extendable,
                     column_image, frozenset_collapsing_word,
                     frozenset_gtheta, letters_of, simple_cycles,
                     vertices_on_two_cycles, window_letter)
from toeplitztame import graphs
from toeplitztame.cli import main
from toeplitztame.errors import (NotPrimitive, PeriodicSubstitution,
                                 ToeplitzError, ValidationError)
from toeplitztame.gtheta import (CYCLE_COUNT_CAP, NON_TAME,
                                 NOT_ALMOST_AUTOMORPHIC, TAME, SubsetGraph,
                                 build_gtheta, cycle_count_upper_bound,
                                 tameness_verdict, to_dot,
                                 two_cycles_share_vertex)
from toeplitztame.odometer import OdometerHead, Scale, head_index
from toeplitztame.substitution import (Substitution, expand,
                                       height_and_pure_base, is_primitive,
                                       shortest_collapsing_word)

Z4 = Scale.constant(4)


def fs(s):
    return frozenset(s)


def mk(letters, alphabet="abc"):
    """The mask of a letter set: bit t is the t-th sorted letter."""
    order = sorted(alphabet)
    return sum(1 << order.index(a) for a in letters)


def test_build_gtheta_example22(ex22):
    g = build_gtheta(ex22)
    assert g.vertices == (mk("ab"), mk("bc"), mk("abc"))
    assert set(g.edges) == {
        (mk("ab"), mk("abc"), 1), (mk("bc"), mk("abc"), 2),
        (mk("ab"), mk("ab"), 1), (mk("bc"), mk("ab"), 2),
        (mk("ab"), mk("bc"), 1),
    }
    assert g.extendable() == {mk("ab"), mk("bc")}
    assert g.to_json()["vertices"] == [["a", "b"], ["b", "c"], ["a", "b", "c"]]


def test_build_gtheta_example23(ex23):
    g = build_gtheta(ex23)
    assert set(g.vertices) == {mk("abc"), mk("bc")}
    assert set(g.edges) == {
        (mk("abc"), mk("abc"), 1), (mk("bc"), mk("bc"), 1),
        (mk("bc"), mk("abc"), 2),
    }


def test_build_gtheta_single_loop(pd_coincidence):
    # oracle: theta_1 = (a -> b, b -> a), so {a,b} maps onto itself
    assert column_image(pd_coincidence, 1, "ab") == fs("ab")
    g = build_gtheta(pd_coincidence)
    assert set(g.vertices) == {mk("ab")}
    assert set(g.edges) == {(mk("ab"), mk("ab"), 1)}


def test_closure_soundness(ex22, ex23, ex217a, ex217b):
    for theta in (ex22, ex23, ex217a, ex217b):
        g = build_gtheta(theta)
        vertex_sets = {letters_of(theta, v) for v in g.vertices}
        for v in vertex_sets:
            for i in range(theta.length):
                img = column_image(theta, i, v)
                assert len(img) == 1 or img in vertex_sets


@st.composite
def substitutions(draw):
    from toeplitztame.substitution import Substitution
    size = draw(st.integers(2, 4))
    length = draw(st.integers(2, 4))
    alphabet = "abcd"[:size]
    words = tuple("".join(draw(st.sampled_from(alphabet)) for _ in range(length))
                  for _ in alphabet)
    return Substitution(tuple(alphabet), words)


@given(substitutions())
def test_closure_soundness_random(theta):
    g = build_gtheta(theta)
    vertex_set = {letters_of(theta, v) for v in g.vertices}
    assert frozenset(theta.alphabet) in vertex_set
    for v in vertex_set:
        for i in range(theta.length):
            img = column_image(theta, i, v)
            assert len(img) == 1 or img in vertex_set
    # every edge satisfies its defining relation
    for src, dst, lab in g.edges:
        assert column_image(theta, lab, letters_of(theta, dst)) == \
            letters_of(theta, src)


# (|A|, l, forced first-letter cycle q or None) of the analyze-corpus strata
CORPUS_SHAPES = ((3, 6, None), (4, 4, None), (4, 5, None), (5, 3, None),
                 (5, 4, None), (6, 2, None), (6, 3, None), (6, 4, None),
                 (3, 6, 2), (5, 4, 2), (3, 3, 3), (4, 3, 3), (5, 3, 3),
                 (4, 2, 4))


def _first_letter_cycle(words):
    """Length of the shortest cycle of the first-letter map."""
    first = {a: w[0] for a, w in words.items()}
    best = len(words)
    for a in words:
        x = first[a]
        for q in range(1, best + 1):
            if x == a:
                best = q
                break
            x = first[x]
    return best


def _corpus_draw(rng, n, l, q):
    """A primitive substitution drawn as the analyze corpus draws one: with
    q, the first letters follow one forced q-cycle; without it, they are
    free among maps whose shortest cycle has length at most 2."""
    alphabet = "abcdef"[:n]
    while True:
        first = {}
        if q:
            cycle = rng.sample(alphabet, q)
            first = {cycle[t]: cycle[(t + 1) % q] for t in range(q)}
            for a in alphabet:
                first.setdefault(a, rng.choice(cycle))
        words = {}
        for a in alphabet:
            word = [rng.choice(alphabet) for _ in range(l)]
            if q:
                word[0] = first[a]
            words[a] = "".join(word)
        theta = Substitution(tuple(alphabet), tuple(words.values()))
        if (q or _first_letter_cycle(words) <= 2) and is_primitive(theta):
            return theta


def test_mask_closure_matches_frozenset_oracles():
    rng = random.Random(12)
    seen = set()
    widths = []
    reasons = 0
    while len(widths) < 1000:
        theta = _corpus_draw(rng, *rng.choice(CORPUS_SHAPES))
        if theta in seen:
            continue
        seen.add(theta)
        try:
            _, base, _ = height_and_pure_base(theta)
        except ToeplitzError:
            continue
        g = build_gtheta(base)
        graph_json, census_json = frozenset_gtheta(base)
        assert g.to_json() == graph_json, theta
        census = two_cycles_share_vertex(g)
        assert census.to_json() == census_json, theta
        witness = shortest_collapsing_word(base)
        assert witness == frozenset_collapsing_word(base), theta
        if witness is not None and census_json["shared_vertex"] is not None:
            assert tameness_verdict(theta).reason == (
                "two distinct cycles share the vertex {%s}"
                % ",".join(census_json["shared_vertex"])), theta
            reasons += 1
        assert g.extendable() == census_extendable(g.vertices, g.edges), theta
        widths.append(len(base.alphabet))
    # pure bases of height > 1 reach past the 16 bits of two byte tables
    assert max(widths) > 16
    assert reasons > 500


def _shared_vertex(vertices, edges):
    """The shared vertex that ``two_cycles_share_vertex`` reads from the
    census of any multigraph."""
    return two_cycles_share_vertex(
        SubsetGraph((), tuple(vertices), tuple(edges))).shared_vertex


def test_census_examples(ex22, ex23):
    g22, g23 = build_gtheta(ex22), build_gtheta(ex23)
    c22 = two_cycles_share_vertex(g22)
    assert c22.shared_vertex == mk("ab")
    c23 = two_cycles_share_vertex(g23)
    assert c23.shared_vertex is None
    assert cycle_count_upper_bound(c23) == 2
    # enumerated cycles agree with the SCC criterion and the count on both
    for g, census in ((g22, c22), (g23, c23)):
        cycles, truncated = simple_cycles(g.vertices, g.edges)
        assert (census.n_simple_cycles, census.cycles_truncated) == (
            len(cycles), truncated)
        shared_by_enum = vertices_on_two_cycles(g.vertices, g.edges)[0]
        if census.shared_vertex is None:
            assert not shared_by_enum
        else:
            assert census.shared_vertex in shared_by_enum
    assert c23.n_simple_cycles == 2


def test_census_is_computed_once(ex22, monkeypatch):
    g = build_gtheta(ex22)
    calls = []
    census = graphs.component_census

    def counted(vertices, edges):
        calls.append(1)
        return census(vertices, edges)

    monkeypatch.setattr(graphs, "component_census", counted)
    two_cycles_share_vertex(g)
    g.extendable()
    to_dot(g)
    g.to_json()
    assert len(calls) == 1


def test_two_self_loops_share():
    verts = [fs("ab")]
    edges = [(fs("ab"), fs("ab"), 0), (fs("ab"), fs("ab"), 1)]
    assert _shared_vertex(verts, edges) == fs("ab")


def test_shared_vertex_zero_in_a_later_row():
    # canonical order 2, 1, 0: the first row {2, 1} is one cycle, the
    # second row {0} carries two self-loops, and its shared vertex is the
    # falsy int 0
    verts = [2, 1, 0]
    edges = [(2, 1, 0), (1, 2, 1), (0, 0, 2), (0, 0, 3)]
    census = graphs.component_census(verts, edges)
    assert [(row["vertices"], row["shared"]) for row in census] == [
        ((2, 1), None), ((0,), 0)]
    assert _shared_vertex(verts, edges) == 0
    assert 0 in vertices_on_two_cycles(verts, edges)[0]


def test_period():
    for k in range(1, 8):
        verts = list(range(k))
        cycle = [(v, (v + 1) % k, v) for v in verts]
        parallel = [(s, d, k + label) for s, d, label in cycle]
        assert graphs.period(verts, cycle) == k
        assert graphs.period(verts, cycle + parallel) == k
        assert graphs.period(verts, cycle + [(k - 1, k - 1, k)]) == 1
        if k >= 3:  # a chord closes a cycle of k - 1
            assert graphs.period(verts, cycle + [(0, 2, k)]) == 1
    # a chord across a 6-cycle closes a 4-cycle: period gcd(6, 4)
    hexagon = [(v, (v + 1) % 6, v) for v in range(6)]
    assert graphs.period(list(range(6)), hexagon + [(0, 3, 6)]) == 2
    assert graphs.period(["x"], [("x", "x", 0)]) == 1
    assert graphs.period(["x", "y"], [("x", "y", 0)]) is None
    assert graphs.period([0, 1, 2], [(0, 1, 0), (1, 0, 1), (2, 2, 2)]) is None


def test_cycle_bound_examples(ex217a):
    g = build_gtheta(ex217a)
    assert cycle_count_upper_bound(two_cycles_share_vertex(g)) == 1
    acyclic = _shared_vertex(["x"], [])
    assert acyclic is None
    assert simple_cycles(["x"], [])[0] == []
    assert graphs.count_simple_cycles(["x"], [], CYCLE_COUNT_CAP) == (0, False)
    from toeplitztame.gtheta import SubsetGraph
    empty = SubsetGraph(("a", "b"), (mk("ab"),), ())
    assert cycle_count_upper_bound(two_cycles_share_vertex(empty)) == 0


def test_cycle_bound_requires_finiteness(ex22):
    with pytest.raises(ValidationError):
        cycle_count_upper_bound(two_cycles_share_vertex(build_gtheta(ex22)))


def test_verdicts(ex22, ex23, ex217a, ex217b, thue_morse, pd_coincidence):
    assert tameness_verdict(ex22).verdict == NON_TAME
    assert tameness_verdict(ex22).census.shared_vertex == mk("ab")
    assert tameness_verdict(ex23).verdict == TAME
    assert tameness_verdict(ex217a).verdict == TAME
    assert tameness_verdict(ex217b).verdict == NON_TAME
    assert tameness_verdict(thue_morse).verdict == NOT_ALMOST_AUTOMORPHIC
    assert tameness_verdict(pd_coincidence).verdict == TAME


def test_bad_inputs_reported():
    with pytest.raises(NotPrimitive):
        tameness_verdict({"rules": {"a": "aa", "b": "bb"}})
    with pytest.raises(PeriodicSubstitution):
        tameness_verdict({"rules": {"a": "ab", "b": "ab"}})


def in_discontinuity_set(h, theta):
    return canonical_semicocycle_eval(h, theta) is None


def fibre_words(h, theta):
    """(vertex, theta^n(v), offset): each fibre-window word, materialised
    and placed on [-z^(n), l^n - z^(n)) with z^(n) the head index."""
    return [(v, expand(theta, v, h.depth), -head_index(h))
            for v in theta.alphabet]


def window_word(h, theta, v):
    return "".join(window_letter(h, theta, v, pos)
                   for pos in range(-head_index(h),
                                    theta.length ** h.depth - head_index(h)))


def test_discontinuity_membership(ex22, ex23):
    for depth in (1, 3, 6):
        h = OdometerHead(Z4, (1,) * depth)
        assert in_discontinuity_set(h, ex22) is True
    assert in_discontinuity_set(OdometerHead(Z4, (0, 1, 1)), ex22) is False
    assert in_discontinuity_set(OdometerHead(Z4, (2, 2)), ex23) is False


def test_discontinuity_monotone(ex22, ex23):
    rng = random.Random(7)
    for theta in (ex22, ex23):
        for _ in range(200):
            depth = rng.randint(2, 6)
            h = OdometerHead(Z4, tuple(rng.randrange(4) for _ in range(depth)))
            if in_discontinuity_set(h, theta):
                shorter = OdometerHead(Z4, h.digits[:-1])
                assert in_discontinuity_set(shorter, theta)


def test_fiber_window_examples(ex22):
    h = OdometerHead(Z4, (1,))
    assert window_word(h, ex22, "b") == "abba"
    assert window_letter(h, ex22, "b", 0) == "b"
    zero_depth = OdometerHead(Z4, ())
    assert [window_word(zero_depth, ex22, v) for v in "abc"] == ["a", "b", "c"]
    col0 = OdometerHead(Z4, (0,))
    assert {window_letter(col0, ex22, v, 0) for v in "abc"} == {"a"}
    with pytest.raises(ValidationError, match="index outside"):
        window_letter(h, ex22, "b", 3)


def test_fiber_window_restriction_consistency(ex22):
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 4)
        digits = tuple(rng.randrange(4) for _ in range(n + 1))
        deep = OdometerHead(Z4, digits)
        shallow = OdometerHead(Z4, digits[:-1])
        shallow_texts = {window_word(shallow, ex22, v) for v in "abc"}
        for v in "abc":
            # the depth-n coordinate range sits at block z_{n+1} of the word
            block = digits[-1] * 4 ** n
            assert window_word(deep, ex22, v)[block:block + 4 ** n] in \
                shallow_texts


def test_window_letter_matches_expansion(ex22):
    h = OdometerHead(Z4, (1, 2, 3))
    for v, text, offset in fibre_words(h, ex22):
        hi = offset + len(text)
        for pos in (offset, 0, 5, hi - 1):
            assert window_letter(h, ex22, v, pos) == text[pos - offset]


def test_canonical_semicocycle(ex22):
    assert canonical_semicocycle_eval(OdometerHead(Z4, (0,)), ex22) == "a"
    assert canonical_semicocycle_eval(OdometerHead(Z4, (1,)), ex22) is None
    h = OdometerHead(Z4, (1, 2))
    value = canonical_semicocycle_eval(h, ex22)
    letters = {text[-offset] for _, text, offset in fibre_words(h, ex22)}
    assert (value is None and len(letters) > 1) or {value} == letters


def test_membership_equals_undetermined_eval(ex22, ex23, ex217a, ex217b):
    # the evaluation is checked against the definition of the discontinuity
    # set: every partial image theta_{z_k}...theta_{z_n}(A) has more than
    # one letter
    rng = random.Random(11)
    for theta in (ex22, ex23, ex217a, ex217b):
        scale = Scale.constant(theta.length)
        for _ in range(150):
            depth = rng.randint(1, 6)
            h = OdometerHead(scale, tuple(
                rng.randrange(theta.length) for _ in range(depth)))
            images = [frozenset(theta.alphabet)]
            for z in reversed(h.digits):
                images.append(column_image(theta, z, images[-1]))
            member = all(len(s) > 1 for s in images[1:])
            assert in_discontinuity_set(h, theta) == member


def test_scc_criterion_equals_enumeration_random():
    rng = random.Random(20240)
    for _ in range(300):
        n = rng.randint(1, 12)
        verts = list(range(n))
        m = rng.randint(0, n + 5)
        edges = [(rng.randrange(n), rng.randrange(n), k) for k in range(m)]
        fast = _shared_vertex(verts, edges)
        on_two, truncated = vertices_on_two_cycles(verts, edges)
        assert not truncated
        if fast is None:
            assert not on_two
        else:
            assert fast in on_two


def _random_multigraph(rng, n, m):
    """n vertices, m edges drawn uniformly with replacement, so self-loops
    and parallel edges are common; labels are the edge positions."""
    return list(range(n)), [(rng.randrange(n), rng.randrange(n), k)
                            for k in range(m)]


def test_cycle_count_equals_enumeration_random():
    rng = random.Random(20261)
    truncations = 0
    for trial in range(400):
        n = rng.randint(1, 7)
        verts, edges = _random_multigraph(rng, n, rng.randint(0, 3 * n))
        cap = rng.choice((1, 2, 3, 5, 10, 50, 100, 1000, 10_000))
        cycles, truncated = simple_cycles(verts, edges, cap)
        assert graphs.count_simple_cycles(verts, edges, cap) == (
            min(len(cycles), cap), truncated)
        truncations += truncated
    assert truncations >= 50


def test_cycle_count_stops_at_the_cap():
    # Labels 0-9 in order.  A DFS that keeps closing back-edges to the
    # start after the cap is hit lists 4 cycles here; the count and the
    # enumeration both stop at 3.
    verts = [0, 1, 2]
    pairs = [(1, 2), (1, 0), (1, 1), (0, 1), (0, 1), (2, 1), (1, 1), (0, 0),
             (1, 0), (0, 0)]
    edges = [(s, d, k) for k, (s, d) in enumerate(pairs)]
    assert graphs.count_simple_cycles(verts, edges, 3) == (3, True)
    cycles, truncated = simple_cycles(verts, edges, 3)
    assert (len(cycles), truncated) == (3, True)
    # uncapped: two loops at 0, two at 1, 2 x 2 two-cycles 0 <-> 1 and one
    # two-cycle 1 <-> 2
    assert graphs.count_simple_cycles(verts, edges, CYCLE_COUNT_CAP) == (9, False)


def test_dot_export(ex22):
    dot = to_dot(build_gtheta(ex22))
    assert dot.startswith("digraph gtheta {")
    assert '"{a,b,c}" [label="{a,b,c}", color=grey' in dot
    assert '"{a,b}" -> "{a,b}" [label="1"]' in dot


@pytest.mark.parametrize("rules,name", [
    ({"a": 'a"', '"': '"a'}, r'{\",a}'),
    ({"a": "a\\", "\\": "\\a"}, r"{\\,a}"),
])
def test_dot_export_escapes_quote_and_backslash_letters(capsys, rules, name):
    # a quote or backslash letter stays inside its quoted DOT string
    assert main(["gtheta", "--dot", json.dumps(rules)]) == 0
    assert capsys.readouterr().out == (
        "digraph gtheta {\n"
        "  rankdir=LR;\n"
        f'  "{name}" [label="{name}"];\n'
        f'  "{name}" -> "{name}" [label="0"];\n'
        f'  "{name}" -> "{name}" [label="1"];\n'
        "}\n")


def test_report_json_shape(ex22):
    payload = tameness_verdict(ex22).to_json()
    assert payload["schema"] == 1
    assert payload["verdict"] == "non-tame"
    assert payload["shared_vertex"] == ["a", "b"]
    assert payload["coincidence"] == [0]
    assert payload["height"] == 1
