import itertools
import random

import pytest
from hypothesis import given, strategies as st

from oracles import (columns, compose_columns, full_tail, morphism_power,
                     power_column_maps, reachable_from)
from toeplitztame import graphs
from toeplitztame.errors import ValidationError
from toeplitztame.extended_bratteli import (MAX_POWER_COLUMNS, DiagramSpec,
                                            LevelMorphism, compose,
                                            essential_thickness,
                                            extendable_vertices,
                                            find_double_path,
                                            morphism_from_substitution,
                                            telescope, thickness_census)
from toeplitztame.extended_bratteli import _tail
from toeplitztame.substitution import substitution_power, validate


def fs(s):
    return frozenset(s)


def compose_columns_oracle(theta, word):
    """Restriction of theta_{word[0]} o theta_{word[1]} o ... as a dict."""
    out = {}
    for a in theta.alphabet:
        x = a
        for i in reversed(word):
            x = theta.rule(x)[i]
        out[a] = x
    return out


def test_telescope_uniform_is_power(ex22):
    spec = DiagramSpec.stationary(ex22)
    tele = telescope(spec, [2, 2])
    assert tele.kind == "stationary"
    assert tele.substitution == substitution_power(ex22, 2)
    assert telescope(spec, [1, 1]).substitution == ex22
    # column arithmetic: (theta^2)_{i+4j} = theta_i o theta_j
    m2 = morphism_from_substitution(tele.substitution)
    for i in range(4):
        for j in range(4):
            want = compose_columns_oracle(ex22, (i, j))
            assert columns(m2)[i + 4 * j] == want


def test_example_216_column_restrictions(ex22):
    p2 = substitution_power(ex22, 2)
    c5 = {a: p2.rule(a)[5] for a in "ab"}
    c9 = {a: p2.rule(a)[9] for a in "ab"}
    c10 = {a: p2.rule(a)[10] for a in p2.alphabet}
    assert c5 == {"a": "a", "b": "b"}
    assert c9 == {"a": "a", "b": "b"}
    assert set(c10.values()) == {"b"}


def test_telescope_functoriality(ex22):
    spec = DiagramSpec.stationary(ex22)
    twice = telescope(telescope(spec, [2]), [2])
    once = telescope(spec, [4])
    a = morphism_from_substitution(twice.substitution)
    b = morphism_from_substitution(once.substitution)
    assert columns(a) == columns(b)


def test_telescope_mixed_groups(ex22):
    spec = DiagramSpec.stationary(ex22)
    tele = telescope(spec, [2, 3])
    assert tele.kind == "explicit"
    assert tele.levels[0].length == 16
    assert tele.levels[1].length == 64
    assert tele.tail_morphism().length == 64


def test_telescope_mixed_groups_match_morphism_power():
    rng = random.Random(1075)
    for _ in range(40):
        spec = _random_spec(rng, stationary=True)
        base = morphism_from_substitution(spec.substitution)
        l = spec.substitution.length
        groups = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
        if len(set(groups)) == 1:
            groups.append(groups[0] % 3 + 1)
        tele = telescope(spec, groups)
        assert tele.kind == "explicit"
        assert len(tele.levels) == len(groups)
        for g, level in zip(groups, tele.levels):
            assert level.length == l ** g
            assert columns(level) == columns(morphism_power(base, g))


def test_compose_and_telescope_match_column_by_column_oracle():
    # explicit specs chain a non-square top level over a square tail on
    # shuffled alphabets, and the level their telescoping repeats is the
    # tail composed as often as the last group says; stationary ones take
    # uniform and mixed groups
    rng = random.Random(1313)
    branches = {"explicit": 0, "uniform": 0, "mixed": 0}
    for trial in range(90):
        spec = _random_spec(rng, stationary=trial % 3 == 0)
        top, tail = spec.morphism(1), spec.tail_morphism()
        assert compose(top, tail) == compose_columns(top, tail)
        groups = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        tele = telescope(spec, groups)
        level = 1
        for g, got in zip(groups, tele.levels):
            block = [spec.morphism(level + t) for t in range(g)]
            want = block[0]
            for m in block[1:]:
                want = compose_columns(want, m)
            assert got == want
            level += g
        if spec.kind == "explicit":
            branches["explicit"] += 1
            power = tail
            for _ in range(groups[-1] - 1):
                power = compose_columns(power, tail)
            assert tele.tail_morphism() == power
            assert all(m == power for m in tele.levels[len(groups):])
            assert len(tele.levels) == max(len(groups), 2)
        elif len(set(groups)) == 1:
            branches["uniform"] += 1
            assert tele.kind == "stationary" and len(tele.levels) == 1
            assert tele.substitution == substitution_power(spec.substitution,
                                                           groups[0])
        else:
            branches["mixed"] += 1
            assert tele.kind == "explicit" and len(tele.levels) == len(groups)
    assert min(branches.values()) >= 10


def test_telescope_repeats_a_power_of_the_tail(ex22, ex23):
    # a last group starting above the repeated level is followed by one
    # block of its size that starts at it, so the thickness is the spec's
    spec = DiagramSpec.explicit([morphism_from_substitution(ex22),
                                 morphism_from_substitution(ex23)])
    assert essential_thickness(spec) == 1
    for groups in ([1], [2], [3], [1, 2], [2, 1]):
        tele = telescope(spec, groups)
        assert essential_thickness(tele) == 1, groups
        assert tele.tail_morphism() == telescope(
            DiagramSpec.explicit([spec.tail_morphism()]), groups[-1:]).levels[0]


def test_telescope_caps_every_branch(ex22, ex23):
    spec = DiagramSpec.stationary(ex22)
    for groups in ([2, 9], [9], [9, 9]):
        with pytest.raises(ValidationError,
                           match="power 9 would need 262144 columns"):
            telescope(spec, groups)
    assert telescope(spec, [8]).substitution.length == MAX_POWER_COLUMNS
    explicit = DiagramSpec.explicit([morphism_from_substitution(ex23)])
    with pytest.raises(ValidationError,
                       match="power 9 would need 262144 columns"):
        telescope(explicit, [1, 9])


def test_power_column_maps_match_substitution_power(ex22):
    base = morphism_from_substitution(ex22)
    letters, maps = power_column_maps(base, 2)
    p2 = substitution_power(ex22, 2)
    for c, g in enumerate(maps):
        assert dict(zip(letters, g)) == {a: p2.rule(a)[c] for a in letters}


def test_power_columns_by_zip_match_power_column_maps():
    # synthesize_scheme reads the columns of theta^m as the transpose of
    # the image words of substitution_power
    rng = random.Random(86)
    for _ in range(60):
        spec = _random_spec(rng, stationary=True)
        theta = spec.substitution
        power = rng.randint(1, 3)
        letters, maps = power_column_maps(
            morphism_from_substitution(theta), power)
        assert letters == list(theta.alphabet)
        assert list(zip(*substitution_power(theta, power).words)) == maps


def test_extended_image(ex22):
    m = morphism_from_substitution(ex22)
    assert m.image(1, "abc") == fs("ab")
    assert m.image(2, "bc") == fs("b")
    assert m.image(0, "a") == fs("a")


@given(st.integers(0, 3), st.sets(st.sampled_from("abc"), min_size=1),
       st.sets(st.sampled_from("abc"), min_size=1))
def test_extended_image_monotone(i, s1, s2):
    theta = validate({"rules": {"a": "aaca", "b": "abba", "c": "aaba"}})
    m = morphism_from_substitution(theta)
    small, large = fs(s1), fs(s1 | s2)
    assert m.image(i, small) <= m.image(i, large)
    assert len(m.image(i, large)) <= len(large)


def test_extendable_vertices_examples(ex22, ex23):
    spec = DiagramSpec.stationary(ex22)
    ext = extendable_vertices(spec, 1)
    non_singletons = {v for v in ext if len(v) > 1}
    assert non_singletons == {fs("ab"), fs("bc")}
    assert fs("abc") not in ext and fs("ac") not in ext
    for letter in "abc":
        assert fs(letter) in ext
    ext23 = extendable_vertices(DiagramSpec.stationary(ex23), 1)
    assert fs("abc") in ext23 and fs("bc") in ext23


def test_essential_thickness(ex22, ex23, ex217b):
    assert essential_thickness(DiagramSpec.stationary(ex22)) == 2
    assert essential_thickness(DiagramSpec.stationary(ex23)) == 1
    assert essential_thickness(DiagramSpec.stationary(ex217b)) == 2
    assert essential_thickness(DiagramSpec.stationary(ex22)) <= 3  # rank bound


def test_find_double_path(ex22, ex23):
    w = find_double_path(DiagramSpec.stationary(ex22), 2, max_power=2)
    assert w is not None
    assert (w.power, w.upper, w.lower, w.labels) == (2, fs("ab"), fs("ab"), (5, 9))
    # recheck by direct composition: both columns restrict to maps A -> B
    p2 = substitution_power(ex22, 2)
    for lab in w.labels:
        image = {p2.rule(a)[lab] for a in w.upper}
        assert image == set(w.lower)
    assert find_double_path(DiagramSpec.stationary(ex23), 2, max_power=4) is None
    assert find_double_path(DiagramSpec.stationary(ex22), 4, max_power=2) is None


def test_thickness_census(ex22, ex23):
    c22 = thickness_census(DiagramSpec.stationary(ex22))
    assert c22[3]["classification"] == "none"
    assert c22[2]["classification"] == "uncountable"
    c23 = thickness_census(DiagramSpec.stationary(ex23))
    assert c23[3]["classification"] == "at-most-countable"
    assert c23[2]["classification"] == "at-most-countable"


def test_census_chain_growth_matches_classification(ex22, ex23):
    c22 = thickness_census(DiagramSpec.stationary(ex22), depth=8)
    n22 = c22[2]["chain_counts"]
    assert n22[7] >= 1.5 * n22[6]          # branching: exponential growth
    assert c22[3]["chain_counts"][-1] == 0  # none: chains die out
    c23 = thickness_census(DiagramSpec.stationary(ex23), depth=8)
    n23 = c23[2]["chain_counts"]
    assert n23[7] - 2 * n23[6] + n23[5] == 0  # single cycles: linear growth
    assert n23[-1] > 0
    assert c23[3]["chain_counts"] == tuple([1] * 8)  # one loop at {a,b,c}


def test_stationary_requires_common_first_last(thue_morse):
    with pytest.raises(ValidationError):
        DiagramSpec.stationary(thue_morse)


def test_explicit_spec_roundtrip(ex22, ex23):
    m22 = morphism_from_substitution(ex22)
    m23 = morphism_from_substitution(ex23)
    spec = DiagramSpec.explicit([m22, m23])
    assert spec.tail_morphism() == m23
    assert essential_thickness(spec) == 1  # tail decides
    spec2 = DiagramSpec.explicit([m23, m22])
    assert essential_thickness(spec2) == 2
    again = DiagramSpec.from_json(spec.to_json())
    assert [m.to_json() for m in again.levels] == [m.to_json() for m in spec.levels]
    tele = telescope(spec, [2])
    assert tele.levels[0].length == 16


def test_explicit_from_json_columns_format():
    spec = DiagramSpec.from_json({"levels": [{
        "upper": ["a", "b"], "lower": ["a", "b"],
        "columns": [{"a": "a", "b": "a"}, {"a": "a", "b": "b"}]}]})
    assert columns(spec.tail_morphism())[0] == {"a": "a", "b": "a"}


def test_extendable_vertices_explicit_levels(ex22, ex23):
    m22 = morphism_from_substitution(ex22)
    m23 = morphism_from_substitution(ex23)
    spec = DiagramSpec.explicit([m22, m23])
    tail_ext = extendable_vertices(spec, 2)
    assert fs("abc") in tail_ext  # the ex23 tail keeps the full set alive
    level1 = extendable_vertices(spec, 1)
    # level 1 sets are the single-column images of the tail-extendable sets
    for s in level1:
        assert any(m22.image(i, t) == s
                   for t in tail_ext for i in range(m22.length))


def test_telescope_beyond_explicit_prefix(ex23):
    m = morphism_from_substitution(ex23)
    spec = DiagramSpec.explicit([m])
    tele = telescope(spec, [3])
    assert tele.tail_morphism().length == 64


def test_morphism_validation():
    with pytest.raises(ValidationError):
        # 'b' is never a column image: a lower vertex with no outgoing edge
        LevelMorphism(("a", "b"), ("a", "b"), ("aa", "aa"))


def test_thickness_agrees_with_two_cycle_criterion():
    # Two independent routes to "uncountably many singular points": the
    # shared-cycle-vertex criterion on the subset graph of the closure,
    # and essential thickness >= 2 in the extended diagram.  For
    # substitutions with a common first and last letter (trivial height,
    # guaranteed coincidence) they must agree.
    import random
    from toeplitztame.errors import ToeplitzError
    from toeplitztame.gtheta import NON_TAME, TAME, tameness_verdict

    rng = random.Random(2210)
    compared = 0
    while compared < 40:
        size = rng.randint(2, 3)
        length = rng.randint(3, 4)
        alphabet = "abc"[:size]
        first, last = rng.choice(alphabet), rng.choice(alphabet)
        rules = {a: first + "".join(rng.choice(alphabet)
                                    for _ in range(length - 2)) + last
                 for a in alphabet}
        try:
            report = tameness_verdict({"rules": rules})
        except ToeplitzError:
            continue
        if report.verdict not in (TAME, NON_TAME):
            continue
        spec = DiagramSpec.stationary(validate({"rules": rules}))
        k = essential_thickness(spec)
        # the rank bounds the essential thickness
        assert k <= len(spec.tail_morphism().upper)
        assert (k >= 2) == (report.verdict == NON_TAME), rules
        compared += 1


def test_rank_one_spec_census():
    theta = validate({"rules": {"a": "aa"}})
    census = thickness_census(DiagramSpec.stationary(theta))
    assert list(census) == [1]
    assert census[1]["classification"] == "uncountable"
    assert essential_thickness(DiagramSpec.stationary(theta)) == 1


# ---------------------------------------------------------------------------
# Oracles: the frozenset implementation that the bitmask subset graph
# replaced, one subset graph and one Tarjan pass per stratum, and one
# materialised column map per composed column of a power.


def _vkey(s):
    return (len(s), tuple(sorted(s)))


def oracle_extendable_tail_sets(m):
    letters = sorted(m.upper)
    verts = sorted((frozenset(c) for r in range(1, len(letters) + 1)
                    for c in itertools.combinations(letters, r)), key=_vkey)
    arcs = [(t, m.image(i, t), i) for t in verts for i in range(m.length)]
    on_cycle = set()
    for row in graphs.component_census(verts, arcs):
        if row["n_internal_edges"] >= 1:
            on_cycle.update(row["vertices"])
    return frozenset(reachable_from(
        verts, arcs, sorted(on_cycle, key=_vkey)))


def oracle_stratum_graph(m, ext, k):
    verts = sorted((s for s in ext if len(s) == k), key=_vkey)
    vset = set(verts)
    arcs = []
    for t in verts:
        for i in range(m.length):
            s = m.image(i, t)
            if len(s) == k and s in vset:
                arcs.append((t, s, i))
    return verts, arcs


def oracle_has_any_cycle(verts, arcs):
    which = {}
    for ci, comp in enumerate(graphs.scc_partition(verts, arcs)):
        for v in comp:
            which[v] = ci
    return any(s == d or which[s] == which[d] for s, d, _ in arcs)


def oracle_shared_vertex(verts, arcs):
    return graphs.shared_cycle_vertex(
        verts, arcs, graphs.component_census(verts, arcs))


def oracle_essential_thickness(m, ext):
    for k in range(len(m.upper), 1, -1):
        verts, arcs = oracle_stratum_graph(m, ext, k)
        if verts and oracle_shared_vertex(verts, arcs) is not None:
            return k
    return 1


def oracle_thickness_census(m, ext, depth=8):
    out = {}
    for k in range(1, len(m.upper) + 1):
        verts, arcs = oracle_stratum_graph(m, ext, k)
        if not verts or not oracle_has_any_cycle(verts, arcs):
            cls = "none"
        elif oracle_shared_vertex(verts, arcs) is not None:
            cls = "uncountable"
        else:
            cls = "at-most-countable"
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


def oracle_find_double_path(m, ext, k, max_power):
    """(power, upper, lower, labels) of the first witness, or None."""
    kverts = sorted((s for s in ext if len(s) == k), key=_vkey)
    if not kverts:
        return None
    for power in range(1, max_power + 1):
        letters, maps = power_column_maps(m, power)
        pos = {a: t for t, a in enumerate(letters)}
        groups = {}
        for a_set in kverts:
            by_image = {}
            for c, g in enumerate(maps):
                img = frozenset(g[pos[a]] for a in a_set)
                if len(img) == k:
                    by_image.setdefault(img, []).append(c)
            groups[a_set] = {img: labs for img, labs in by_image.items()
                             if len(labs) >= 2}
        p_arcs = [(a, img, 0) for a, d in groups.items() for img in d]
        candidates = []
        for a_set, d in groups.items():
            for img, labs in d.items():
                for i1, i2 in itertools.combinations(labs, 2):
                    candidates.append((i1, i2, a_set, img))
        candidates.sort(key=lambda t: (t[0], t[1], _vkey(t[2])))
        for i1, i2, a_set, img in candidates:
            if a_set in reachable_from(kverts, p_arcs, [img]):
                return power, a_set, img, (i1, i2)
    return None


def _random_level(rng, upper, lower, length):
    """A level morphism with uniformly drawn columns, redrawn until every
    lower letter is some column's image."""
    while True:
        cols = [[rng.choice(lower) for _ in upper] for _ in range(length)]
        try:
            return LevelMorphism(tuple(upper), tuple(lower),
                                 tuple(map("".join, zip(*cols))))
        except ValidationError:
            continue


def _random_spec(rng, stationary):
    if stationary:
        # naive order: every rule starts with f and ends with g
        n, l = rng.randint(2, 7), rng.randint(3, 5)
        alphabet = "abcdefg"[:n]
        while True:
            f, g = rng.choice(alphabet), rng.choice(alphabet)
            rules = {a: f + "".join(rng.choice(alphabet) for _ in range(l - 2))
                     + g for a in alphabet}
            try:
                return DiagramSpec.stationary(validate({"rules": rules}))
            except ValidationError:  # a letter that no rule uses
                continue
    # explicit: shuffled alphabets, so column order is not sorted order
    tail_letters = rng.sample("abcdefg", rng.randint(2, 6))
    top_letters = rng.sample("abcdefg", rng.randint(2, 6))
    tail = _random_level(rng, tail_letters, tail_letters, rng.randint(3, 4))
    top = _random_level(rng, tail_letters, top_letters, rng.randint(3, 4))
    return DiagramSpec.explicit([top, tail])


def test_bitmask_kernel_matches_frozenset_oracles():
    rng = random.Random(3)
    witnesses = 0
    for trial in range(320):
        spec = _random_spec(rng, stationary=trial % 2 == 0)
        m = spec.tail_morphism()
        ext = oracle_extendable_tail_sets(m)
        assert essential_thickness(spec) == oracle_essential_thickness(m, ext)
        assert thickness_census(spec) == oracle_thickness_census(m, ext)
        for k in range(2, len(m.upper) + 1):
            want = oracle_find_double_path(m, ext, k, 4)
            witnesses += want is not None
            for max_power in range(1, 5):
                got = find_double_path(spec, k, max_power=max_power)
                if want is None or want[0] > max_power:
                    assert got is None
                else:
                    assert (got.power, got.upper, got.lower, got.labels) == want
                    assert got.cardinality == k
        if spec.kind == "stationary":
            want_level1 = ext
        else:
            top = spec.levels[0]
            want_level1 = {top.image(i, t) for t in ext for i in range(top.length)}
        assert extendable_vertices(spec, 1) == want_level1
        assert extendable_vertices(spec, 2) == ext
    assert witnesses >= 100


# ---------------------------------------------------------------------------
# The trimmed subset graph against the full 2^|A| builder.

KINDS = ("uniform", "naive", "permutation", "blocks")


def _square_morphism(rng, n, l, kind):
    """A square morphism on n shuffled letters with l columns, of one kind:
    uniform columns; naive (constant first and last columns, when l >= 3);
    one permutation column among uniform ones; or block-diagonal over two
    blocks, so not primitive.  Then, in each block, one free slot per
    letter is overwritten so that every letter is some column's image."""
    letters = rng.sample("abcdefghijklmn", n)
    blocks = [letters]
    if kind == "blocks" and n >= 2:
        cut = rng.randint(1, n - 1)
        blocks = [letters[:cut], letters[cut:]]
    cols = [{a: rng.choice(b) for b in blocks for a in b} for _ in range(l)]
    free = range(l)
    if kind == "naive" and l >= 3:
        for i in (0, l - 1):
            cols[i] = dict.fromkeys(letters, rng.choice(letters))
        free = range(1, l - 1)
    elif kind == "permutation":
        cols[rng.randrange(l)] = dict(zip(letters, rng.sample(letters, n)))
        free = range(0)
    for b in blocks:
        slots = [(i, a) for i in free for a in b]
        for (i, a), c in zip(rng.sample(slots, len(b)) if slots else (), b):
            cols[i][a] = c
    return LevelMorphism(tuple(letters), tuple(letters), tuple(
        "".join(col[a] for col in cols) for a in letters))


def _assert_trim_matches_full(m, double_paths):
    """The full builder primes the memo of one copy of m, so the readers
    of ``full`` see its strata and those of ``trimmed`` see the library's.
    Returns the number of double-path witnesses found."""
    full = DiagramSpec.explicit([m])
    trimmed = DiagramSpec.explicit([LevelMorphism(m.upper, m.lower, m.words)])
    want = full_tail(full.tail_morphism())
    got = _tail(trimmed.tail_morphism())
    assert got[0] == want[0]
    for k, (verts, arcs, cls) in want[1].items():
        assert got[1][k] == (verts, arcs, cls), (m.to_json(), k)
    assert got[1].keys() == want[1].keys()
    assert essential_thickness(trimmed) == essential_thickness(full)
    assert thickness_census(trimmed) == thickness_census(full)
    witnesses = 0
    for k in range(2, len(m.upper) + 1) if double_paths else ():
        deepest = find_double_path(full, k, max_power=4)
        witnesses += deepest is not None
        for max_power in range(1, 5):
            reach = deepest is not None and deepest.power <= max_power
            assert find_double_path(trimmed, k, max_power=max_power) == (
                deepest if reach else None)
    return witnesses


# inputs per alphabet size: 3,000 in all, thinning out where the full
# builder's 2^|A| l arcs make each comparison slow
SIZES = {1: 40, 2: 160, 3: 380, 4: 380, 5: 380, 6: 380, 7: 380, 8: 380,
         9: 220, 10: 140, 11: 80, 12: 80}


def test_trimmed_subset_graph_matches_full_builder():
    rng = random.Random(11)
    seen = {kind: 0 for kind in KINDS}
    witnesses = 0
    for n, count in SIZES.items():
        for j in range(count):
            kind = KINDS[j % 4]
            m = _square_morphism(rng, n, rng.randint(1, 5), kind)
            witnesses += _assert_trim_matches_full(m, double_paths=True)
            seen[kind] += 1
    assert sum(seen.values()) >= 3000 and min(seen.values()) >= 700
    assert witnesses >= 4000


def test_trimmed_subset_graph_matches_full_builder_13_14_letters():
    # up to 3 columns and no double-path search: the full builder alone
    # makes 2^14 l arcs here, and a permutation column makes every subset
    # extendable
    rng = random.Random(13)
    for j in range(100):
        m = _square_morphism(rng, 13 + j % 2, rng.randint(1, 3), KINDS[j // 2 % 4])
        _assert_trim_matches_full(m, double_paths=False)


def test_paper_theorem_tameness_matches_thickness_strata():
    # A finite-rank Toeplitz shift is non-tame iff its extended diagram has
    # uncountably many singular fibres: some stratum k >= 2 (stratum 1 is
    # the regular fibres) is uncountable.  ``analyze`` reads the verdict
    # from the two-cycles criterion on G_theta, ``thickness`` from the
    # strata; inputs that analyze does not decide are skipped.
    from toeplitztame.errors import ToeplitzError
    from toeplitztame.gtheta import NON_TAME, TAME, tameness_verdict
    from toeplitztame.substitution import is_primitive

    rng = random.Random(4)
    decided = {TAME: 0, NON_TAME: 0}
    for _ in range(300):
        n, l = rng.randint(3, 7), rng.randint(3, 5)
        alphabet = "abcdefg"[:n]
        rules = None
        while rules is None or not is_primitive(validate({"rules": rules})):
            f, g = rng.choice(alphabet), rng.choice(alphabet)
            rules = {a: f + "".join(rng.choice(alphabet) for _ in range(l - 2))
                     + g for a in alphabet}
        try:
            verdict = tameness_verdict({"rules": rules}).verdict
            spec = DiagramSpec.stationary(validate({"rules": rules}))
            census = thickness_census(spec)
        except ToeplitzError:
            continue
        if verdict not in decided:
            continue
        decided[verdict] += 1
        non_tame = verdict == NON_TAME
        thick = any(row["classification"] == "uncountable"
                    for k, row in census.items() if k >= 2)
        k = essential_thickness(spec)
        assert thick == non_tame == (k >= 2), rules
        if any(find_double_path(spec, kk, max_power=3) is not None
               for kk in range(2, n + 1)):
            assert non_tame, rules
    assert decided[TAME] >= 50 and decided[NON_TAME] >= 100
