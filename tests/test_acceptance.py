"""Acceptance criteria, one test per criterion, each printing a PASS line
with its measured runtime (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import itertools
import json
import pathlib
import random
import time

import pytest

from oracles import (family_word, head_set, heads_and_special, integer_head,
                     level_row, point_digit, point_head, rotation_merge,
                     truncate, vertices_on_two_cycles)
from toeplitztame.cli import main
from toeplitztame.errors import LanguageError
from toeplitztame.extended_bratteli import (essential_thickness,
                                            find_double_path, thickness_census)
from toeplitztame.gtheta import (NON_TAME, NOT_ALMOST_AUTOMORPHIC, TAME,
                                 SubsetGraph, tameness_verdict,
                                 two_cycles_share_vertex)
from toeplitztame.independence import (independence_times, synthesize_scheme,
                                       verify_patterns)
from toeplitztame.odometer import OdometerHead, Scale, add_integer
from toeplitztame.semicocycle import (SCALE6, FullShift, LevelFamily,
                                      SturmianFibonacci, build_d_stage,
                                      build_f_family,
                                      check_translate_disjointness,
                                      default_zhat6, realization_interval,
                                      realize_prefix)
from toeplitztame.substitution import (Substitution, is_aperiodic,
                                       shortest_collapsing_word, validate)


def fs(s):
    return frozenset(s)


def mk(s):
    """The mask of a set of the letters a, b, c: bit t is the t-th letter."""
    return sum(1 << "abc".index(a) for a in s)


def _fresh(rules):
    return validate({"rules": rules})


def _report(num, elapsed, text):
    print(f"\nACCEPTANCE {num} PASS ({elapsed:.2f} s): {text}")


def test_criterion_1_verdict_regression():
    t0 = time.monotonic()
    r22 = tameness_verdict(_fresh({"a": "aaca", "b": "abba", "c": "aaba"}))
    t22 = time.monotonic() - t0
    assert r22.verdict == NON_TAME
    assert set(r22.graph.vertices) == {mk("abc"), mk("ab"), mk("bc")}
    assert set(r22.graph.edges) == {
        (mk("ab"), mk("abc"), 1), (mk("bc"), mk("abc"), 2),
        (mk("ab"), mk("ab"), 1), (mk("bc"), mk("ab"), 2),
        (mk("ab"), mk("bc"), 1)}
    t0 = time.monotonic()
    r23 = tameness_verdict(_fresh({"a": "aaca", "b": "abba", "c": "acba"}))
    t23 = time.monotonic() - t0
    assert r23.verdict == TAME
    assert set(r23.graph.vertices) == {mk("abc"), mk("bc")}
    assert set(r23.graph.edges) == {
        (mk("abc"), mk("abc"), 1), (mk("bc"), mk("bc"), 1),
        (mk("bc"), mk("abc"), 2)}
    assert t22 < 1.0 and t23 < 1.0
    _report(1, t22 + t23,
            "non-tame/tame verdicts with subset graphs matching the figure")


def test_criterion_2_strong_orbit_pair():
    t0 = time.monotonic()
    ra = tameness_verdict(_fresh({"a": "aabaa", "b": "abbaa"}))
    rb = tameness_verdict(_fresh({"a": "aaaba", "b": "abbaa"}))
    elapsed = time.monotonic() - t0
    assert ra.verdict == TAME
    assert rb.verdict == NON_TAME
    assert elapsed < 2.0 and elapsed / 2 < 1.0
    _report(2, elapsed, "strong-orbit-equivalent pair splits tame / non-tame")


def test_criterion_3_coincidence_gate():
    t0 = time.monotonic()
    rtm = tameness_verdict(_fresh({"a": "ab", "b": "ba"}))
    rpd = tameness_verdict(_fresh({"a": "ab", "b": "aa"}))
    elapsed = time.monotonic() - t0
    assert rtm.verdict == NOT_ALMOST_AUTOMORPHIC
    assert rtm.coincidence is None
    assert rpd.verdict == TAME
    assert rpd.coincidence == (0,)
    assert elapsed < 2.0 and elapsed / 2 < 1.0
    _report(3, elapsed, "no-coincidence gate and its tame counterpart")


def test_criterion_4_thickness():
    t0 = time.monotonic()
    theta22 = _fresh({"a": "aaca", "b": "abba", "c": "aaba"})
    theta23 = _fresh({"a": "aaca", "b": "abba", "c": "acba"})
    k22 = essential_thickness(theta22)
    witness = find_double_path(theta22, 2, max_power=2)
    census22 = thickness_census(theta22)
    k23 = essential_thickness(theta23)
    census23 = thickness_census(theta23)
    elapsed = time.monotonic() - t0
    assert k22 == 2
    assert witness.power == 2
    assert witness.upper == fs("ab") and witness.lower == fs("ab")
    assert witness.labels == (5, 9)
    assert census22[3]["classification"] == "none"
    assert census22[2]["classification"] == "uncountable"
    assert k23 == 1
    assert census23[3]["classification"] == "at-most-countable"
    assert elapsed < 1.0
    _report(4, elapsed, "essential thickness 2 with the (5,9) double path vs 1")


def test_criterion_5_independence_numbers():
    t0 = time.monotonic()
    theta = _fresh({"a": "aaca", "b": "abba", "c": "aaba"})
    scheme = synthesize_scheme(theta, max_power=6)
    assert (scheme.j0, scheme.j1, scheme.j2, scheme.i) == (1, 5, 9, 10)
    assert scheme.power == 2
    times = independence_times(scheme, 2)
    assert times == [0, -76, -19532]
    report = verify_patterns(scheme, n_levels=2)
    elapsed = time.monotonic() - t0
    assert report.complete
    phis = {p.phi for p in report.patterns if p.ok}
    assert phis == set(itertools.product((0, 1), repeat=3))
    assert len(report.patterns) == 8 * 3  # every vertex, every choice function
    assert elapsed < 30.0
    _report(5, elapsed,
            "scheme (1,5,9,10) at power 2, times -76/-19532, all 8 patterns "
            "realized on depth-6 windows")


def test_criterion_6_first_family_structure():
    t0 = time.monotonic()
    d2 = build_d_stage(2)
    assert [(p.head_exponents, p.tail_exponent) for p in d2.points] == [
        ((), 0), ((0,), 1), ((0, 0), 2), ((0, 1, 1), 3)]
    d3 = build_d_stage(3)
    assert [(p.head_exponents, p.tail_exponent) for p in d3.points] == [
        ((), 0), ((0,), 1), ((0, 0), 2), ((0, 1, 1), 3),
        ((0, 0, 0, 0), 4), ((0, 1, 1, 1, 1), 5), ((0, 0, 2, 2, 2, 2), 6),
        ((0, 1, 1, 3, 3, 3, 3), 7)]
    stage5 = build_d_stage(5)
    for m in range(1, 17):
        heads, special = heads_and_special(m, stage5)
        assert len(heads) == m
        longer = head_set(stage5, m + 1)
        assert sum(1 for g in longer if g[:m] == special) >= 2
    # P1 and P2, exhaustively on stage 5
    span = max(len(p.head_exponents) for p in stage5.points) + 4
    for p, q in itertools.combinations(stage5.points, 2):
        for n in range(1, span + 1):
            if point_digit(p, n) == point_digit(q, n):
                assert point_head(p, n) == point_head(q, n)
    for p in stage5.points:
        for n in range(1, span + 1):
            assert point_digit(p, n) not in (0, 4 ** n - 1)
    report = check_translate_disjointness(build_d_stage(3), t_range=16,
                                          depth=12, samples=10_000, seed=0)
    elapsed = time.monotonic() - t0
    assert report["violations"] == []
    assert elapsed < 10.0
    _report(6, elapsed,
            "D-set stages, head counts, specials, P1/P2, and a clean "
            "10^4-sample translate-disjointness report")


def test_criterion_7_second_family_structure():
    t0 = time.monotonic()
    lf = LevelFamily()
    assert level_row(lf, 2, 6) == [1, 2, 3, 5, 7, 11]
    assert level_row(lf, 3, 7) == [3, 4, 5, 6, 7, 9, 11]
    assert [lf.time(n) for n in (1, 2, 3, 4)] == [1, 2, 8, 128]
    # disjoint supports for n != n' <= 8
    for n in range(1, 9):
        for n2 in range(n + 1, 9):
            assert lf.l(n, 0) + 1 <= lf.l(n2, 0)
            tn = integer_head(lf.time(n), SCALE6, lf.l(n2, 0) + 1)
            tn2 = integer_head(lf.time(n2), SCALE6, lf.l(n2, 0) + 1)
            assert tn.digits[lf.l(n, 0)] == 1 and tn2.digits[lf.l(n, 0)] == 0
    fam_full = build_f_family(FullShift(), 6, 4096)
    zhat = default_zhat6(2048)
    for n in range(1, 7):
        for w in map("".join, itertools.product("ab", repeat=n)):
            _, letters = realize_prefix(
                w, fam_full, realization_interval(w, fam_full), zhat)
            assert letters == w
    sturmian = SturmianFibonacci()
    fam_st = build_f_family(sturmian, 6, 4096)
    for n in range(1, 7):
        realizable = set()
        i = 1
        while True:
            try:
                realizable.add(family_word(fam_st, n, i))
            except Exception:
                break
            i += 1
        assert realizable == sturmian.words(n)
        assert len(realizable) == n + 1
        for w in sorted(realizable):
            _, letters = realize_prefix(
                w, fam_st, realization_interval(w, fam_st), zhat)
            assert letters == w
        if n >= 2:
            non_factor = next(w for w in map("".join,
                                             itertools.product("ab", repeat=n))
                              if w not in realizable)
            with pytest.raises(LanguageError):
                realization_interval(non_factor, fam_st)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(7, elapsed,
            "level rows, times 1/2/8/128, disjoint supports, full-shift "
            "realization of all words, Sturmian n+1 words with rejection")


def test_criterion_8_arithmetic_laws():
    t0 = time.monotonic()
    rng = random.Random(8)
    scales = [Scale.constant(2), Scale.constant(16), Scale.powers(4)]
    failures = 0
    for trial in range(50_000):
        scale = scales[trial % 3]
        depth = rng.randint(2, 8)
        digits = tuple(rng.randrange(scale.modulus(n)) for n in range(1, depth + 1))
        h = OdometerHead(scale, digits)
        s, t = rng.randint(-10 ** 6, 10 ** 6), rng.randint(-10 ** 6, 10 ** 6)
        if add_integer(add_integer(h, s), t) != add_integer(h, s + t):
            failures += 1
    for trial in range(50_000):
        scale = scales[trial % 3]
        depth = rng.randint(2, 8)
        digits = tuple(rng.randrange(scale.modulus(n)) for n in range(1, depth + 1))
        h = OdometerHead(scale, digits)
        t = rng.randint(-10 ** 6, 10 ** 6)
        n = rng.randint(1, depth)
        if truncate(add_integer(h, t), n) != add_integer(truncate(h, n), t):
            failures += 1
    elapsed = time.monotonic() - t0
    assert failures == 0
    assert elapsed < 5.0
    _report(8, elapsed, "10^5 randomized associativity and prefix-determinism "
                        "checks across three scales, zero failures")


def brute_force_collapse(theta, max_len=4):
    for k in range(1, max_len + 1):
        for word in itertools.product(range(theta.length), repeat=k):
            s = set(theta.alphabet)
            for i in word:
                s = {theta.rule(a)[i] for a in s}
            if len(s) == 1:
                return word
    return None


def test_criterion_9_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(9)
    disagreements = 0
    for _ in range(500):
        n = rng.randint(1, 12)
        verts = list(range(n))
        m = rng.randint(0, n + 6)
        edges = [(rng.randrange(n), rng.randrange(n), k) for k in range(m)]
        fast = two_cycles_share_vertex(
            SubsetGraph((), tuple(verts), tuple(edges))).shared_vertex
        on_two, truncated = vertices_on_two_cycles(verts, edges)
        assert not truncated
        if fast is None:
            disagreements += bool(on_two)
        else:
            disagreements += fast not in on_two
    letters = "abcd"
    for _ in range(200):
        size = rng.randint(2, 4)
        length = rng.randint(2, 4)
        alphabet = letters[:size]
        rules = {a: "".join(rng.choice(alphabet) for _ in range(length))
                 for a in alphabet}
        theta = Substitution(tuple(alphabet), tuple(rules[a] for a in alphabet))
        bfs = shortest_collapsing_word(theta)
        brute = brute_force_collapse(theta)
        expected = bfs if bfs is not None and len(bfs) <= 4 else None
        if expected != brute:
            disagreements += 1
    elapsed = time.monotonic() - t0
    assert disagreements == 0
    _report(9, elapsed, "SCC criterion vs cycle enumeration on 500 graphs and "
                        "coincidence BFS vs brute force on 200 substitutions, "
                        "zero disagreements")


def test_criterion_10_thickness_runtime(capsys):
    # A 12-letter naive-order input of length 3 whose middle column is a
    # permutation, so every one of the 4095 subsets is extendable.
    rng = random.Random(12)
    alphabet = "abcdefghijkl"
    f, g = rng.choice(alphabet), rng.choice(alphabet)
    rules = {a: f + b + g for a, b in zip(alphabet, rng.sample(alphabet, 12))}
    t0 = time.monotonic()
    code = main(["thickness", json.dumps({"rules": rules})])
    elapsed = time.monotonic() - t0
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert sorted(report["census"], key=int) == [str(k) for k in range(1, 13)]
    assert report["essential_thickness"] == 1
    assert elapsed < 1.0
    _report(10, elapsed, "thickness census of a 12-letter, length-3 input "
                         "(2^12 subsets) within 1 s")


def test_criterion_11_semicocycle_runtime(capsys):
    # A 4097-letter window at stage 7 (depth 128) and 10^4 disjointness
    # samples at stage 5: head arithmetic, head sets and head classes.
    t0 = time.monotonic()
    code = main(["semicocycle", "window", "--stage", "7", "--zhat", "1,5,7",
                 "--range=-2048:2048"])
    window_s = time.monotonic() - t0
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(report["word"]) == 4097
    t0 = time.monotonic()
    code = main(["semicocycle", "disjoint", "--stage", "5", "--depth", "16",
                 "--t-range", "8", "--samples", "10000", "--seed", "0"])
    disjoint_s = time.monotonic() - t0
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["violations"] == [] and report["checked"] > 0
    assert window_s < 0.5
    assert disjoint_s < 2.0
    _report(11, window_s + disjoint_s,
            f"stage-7 window of 4097 letters ({window_s:.2f} s) within 0.5 s, "
            f"10^4 stage-5 disjointness samples ({disjoint_s:.2f} s) within 2 s")


def test_criterion_12_independence_runtime(capsys):
    # ex22 at N = 2 reads 24 letters of depth-6 windows of 16^6 letters
    # each; the report must come out byte for byte as pinned.
    fixtures = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    t0 = time.monotonic()
    code = main(["independence", str(fixtures / "ex22.sub"), "--n", "2"])
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    assert code == 0
    assert out == (fixtures / "golden" / "ex22.independence.json").read_text()
    assert elapsed < 0.1
    _report(12, elapsed, "independence report of ex22 at N = 2, identical "
                         "to the golden, within 0.1 s")


def test_criterion_13_cli_dispatch(capsys):
    # Odometer arithmetic on three digits is trivial, so 300 calls time the
    # CLI shell itself: building the parser, parsing argv and emitting JSON.
    argv = ["odometer", "--scale", "powers:4", "--digits", "1,2,3", "--add", "5"]
    t0 = time.monotonic()
    codes = [main(argv) for _ in range(300)]
    elapsed = time.monotonic() - t0
    out = capsys.readouterr().out
    assert codes == [0] * 300
    assert out.count('"result_index": 206') == 300
    assert elapsed < 0.3
    _report(13, elapsed, "300 in-process odometer calls within 0.3 s")


def test_criterion_14_f_family_runtime():
    # The f-family is built from level rows and interval words, in work
    # linear in the intervals below the horizon, not in the horizon.
    t0 = time.monotonic()
    for _ in range(100):
        fam = build_f_family(FullShift(), 6, 4096)
    elapsed = time.monotonic() - t0
    assert len(fam.words[5]) == 224
    assert elapsed < 0.1
    _report(14, elapsed, "100 full-shift f-families, n_max 6, horizon 4096, "
                         "within 0.1 s")


def test_criterion_15_stage10_disjoint_runtime(capsys):
    # 1024 points: the structural pass compares one canonical id per point
    # and bisects sorted head values instead of testing 523,776 pairs.
    t0 = time.monotonic()
    code = main(["semicocycle", "disjoint", "--stage", "10", "--samples", "10",
                 "--depth", "16"])
    elapsed = time.monotonic() - t0
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["violations"] == [] and report["stage"] == 10
    assert elapsed < 1.0
    _report(15, elapsed, "stage-10 disjointness report (1024 points) within 1 s")


def test_criterion_16_cycle_count_runtime(capsys):
    # |A| = 4, l = 12, q = 4: G_theta has 11 vertices and 124 edges, and
    # more than 10^4 simple cycles, so the report reads the capped count.
    rules = {"a": "cdcbcdabccda", "b": "abaaaacddccd",
             "c": "dacabbdcabba", "d": "bcbcdcadbbcb"}
    t0 = time.monotonic()
    code = main(["analyze", json.dumps({"rules": rules})])
    elapsed = time.monotonic() - t0
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["cycle_census"]["n_simple_cycles"] == 10_000
    assert report["cycle_census"]["cycles_truncated"] is True
    assert elapsed < 0.5
    _report(16, elapsed, "analyze on an 11-vertex, 124-edge subset graph "
                         "with over 10^4 simple cycles within 0.5 s")


def test_criterion_17_thickness_frontier(capsys):
    # Three 16-letter, length-4 naive-order primitive inputs: the strata
    # come from the subsets of the column ranges, trimmed to those on or
    # below a cycle, not from all 2^16 subsets.
    from toeplitztame.substitution import is_primitive

    rng = random.Random(17)
    alphabet = "abcdefghijklmnop"
    times = []
    while len(times) < 3:
        f, g = rng.choice(alphabet), rng.choice(alphabet)
        rules = {a: f + rng.choice(alphabet) + rng.choice(alphabet) + g
                 for a in alphabet}
        if not is_primitive(validate({"rules": rules})):
            continue
        t0 = time.monotonic()
        code = main(["thickness", json.dumps({"rules": rules})])
        times.append(time.monotonic() - t0)
        report = json.loads(capsys.readouterr().out)
        assert code in (0, 2)  # 2: no double path within the max power
        assert sorted(report["census"], key=int) == [str(k) for k in range(1, 17)]
        assert report["essential_thickness"] >= 1
        assert times[-1] < 0.25
    _report(17, sum(times), "thickness of three 16-letter, length-4 naive-order "
                            "inputs within 0.25 s each")


def test_criterion_18_aperiodicity_frontier():
    # The complexity scan at most doubles the length per step, so it never
    # builds a language far longer than the one that decides: on the
    # rotation and merge family at |A| = 52 its last length is 256, where
    # p(256) passes the bound 6 |A|^2 = 16,224.
    t0 = time.monotonic()
    for size in (30, 52):
        assert is_aperiodic(rotation_merge(size)) == (True, 6 * size ** 2)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(18, elapsed, "aperiodicity scan of the rotation and merge family "
                         "at |A| = 30 and 52 within 1 s")
