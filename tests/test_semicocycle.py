import collections
import functools
import itertools
import operator
import random

import pytest

from oracles import (PrefixTrie, UserWordList, common_head_length,
                     family_word, head_set, heads_and_special, integer_head,
                     level_row, longest_head_by_head_sets, oracle_d_stage,
                     point_digit, point_exponent, point_head, tuple_f5_eval,
                     tuple_f6_eval, tuple_realize_prefix, tuple_window)
from toeplitztame.errors import (DepthError, HorizonError, LanguageError,
                                 PreconditionError, ValidationError)
from toeplitztame.odometer import (OdometerHead, add_integer, head_index,
                                   level_product)
from toeplitztame.semicocycle import (SCALE5, SCALE6, FullShift, LevelFamily,
                                      SturmianFibonacci, build_d_stage,
                                      build_f_family,
                                      check_translate_disjointness,
                                      default_zhat5, default_zhat6, f5_eval,
                                      f6_eval, realization_interval,
                                      realize_prefix, toeplitz5_window)
from toeplitztame.semicocycle import (_head_classes, _head_digits,
                                      _head_value, _longest_head,
                                      _translate_hits, _violations, _wrapped)


def translate_hits(z, stage, t_range):
    """The (source head class, t) hits of z, as the disjointness check
    finds them: over the distinct stage heads at the depth of z."""
    vals, _ = _head_classes(stage, z.depth)
    modulus = level_product(SCALE5, z.depth)
    return _translate_hits(head_index(z), vals, _wrapped(vals, modulus),
                           modulus, t_range)


# ---------------------------------------------------------------------------
# first family: the D-set over Z_((4^n))


def test_d_stage_displays():
    d2 = build_d_stage(2)
    assert [(p.head_exponents, p.tail_exponent) for p in d2.points] == [
        ((), 0), ((0,), 1), ((0, 0), 2), ((0, 1, 1), 3)]
    d3 = build_d_stage(3)
    assert [(p.head_exponents, p.tail_exponent) for p in d3.points[4:]] == [
        ((0, 0, 0, 0), 4),
        ((0, 1, 1, 1, 1), 5),
        ((0, 0, 2, 2, 2, 2), 6),
        ((0, 1, 1, 3, 3, 3, 3), 7)]
    d0 = build_d_stage(0)
    assert [(p.head_exponents, p.tail_exponent) for p in d0.points] == [((), 0)]


def test_stage_sizes_and_nesting():
    for i in range(0, 6):
        stage = build_d_stage(i)
        assert len(stage.points) == 2 ** i
        if i:
            prev = build_d_stage(i - 1)
            assert stage.points[:2 ** (i - 1)] == prev.points


def test_heads_and_special():
    st = build_d_stage(5)
    heads, special = heads_and_special(3, st)
    assert heads == frozenset({(1, 1, 1), (1, 3, 3), (1, 1, 9)})
    assert special == (1, 3, 3)
    # its two one-digit extensions, frozen from the stage enumeration
    longer = head_set(st, 4)
    exts = sorted(h for h in longer if h[:3] == special)
    assert exts == [(1, 3, 3, 3), (1, 3, 3, 27)]
    heads1, special1 = heads_and_special(1, st)
    assert heads1 == frozenset({(1,)}) and special1 == (1,)
    for m in range(1, 9):
        assert len(head_set(st, m)) == m


def test_heads_require_deep_stage():
    with pytest.raises(PreconditionError):
        heads_and_special(9, build_d_stage(3))


def test_p1_head_determined_by_digit():
    # If z_n = z'_n then head_n(z) = head_n(z'), exhaustively per stage <= 5
    for i in range(1, 6):
        stage = build_d_stage(i)
        span = max(len(p.head_exponents) for p in stage.points) + 4
        for p, q in itertools.combinations(stage.points, 2):
            for n in range(1, span + 1):
                if point_digit(p, n) == point_digit(q, n):
                    assert point_head(p, n) == point_head(q, n)


def test_p2_digit_bounds_and_no_small_translates():
    stage = build_d_stage(5)
    span = max(len(p.head_exponents) for p in stage.points) + 4
    for p in stage.points:
        for n in range(1, span + 1):
            assert point_digit(p, n) not in (0, 4 ** n - 1)
    # no two distinct points are integer translates with |t| <= 10^3 at depth 12
    depth = 12
    modulus = level_product(SCALE5, depth)
    values = [head_index(point_head(p, depth)) for p in stage.points]
    for a, b in itertools.combinations(range(len(values)), 2):
        off = (values[b] - values[a]) % modulus
        t = off if off <= 1000 else off - modulus if modulus - off <= 1000 else None
        assert t is None or t == 0  # twins may still agree at this depth


def test_p3_unique_special_words():
    stage = build_d_stage(5)
    for m in range(1, 17):
        heads, special = heads_and_special(m, stage)
        assert len(heads) == m
        longer = head_set(stage, m + 1)
        multi = {h[:m] for h in longer
                 if sum(1 for g in longer if g[:m] == h[:m]) >= 2}
        assert multi == {special}


def test_f5_eval_examples():
    stage = build_d_stage(5)
    assert f5_eval(OdometerHead(SCALE5, (1, 1, 2)), stage) == ("b", True)
    assert f5_eval(OdometerHead(SCALE5, (1, 3, 3, 5)), stage) == ("a", True)
    assert f5_eval(OdometerHead(SCALE5, (2, 9, 1)), stage) == ("b", True)
    # a full-depth match cannot be certified
    d_head = point_head(stage.points[1], 4)
    letter, confident = f5_eval(d_head, stage)
    assert not confident


def test_f5_matches_pointwise_definition():
    # oracle: L(z, D) as the literal maximum of the common head lengths
    # over the stage points, instead of the head-set membership route
    stage = build_d_stage(5)
    rng = random.Random(55)
    for _ in range(300):
        depth = rng.randint(1, 8)
        digits = tuple(rng.randrange(4 ** n) for n in range(1, depth + 1))
        h = OdometerHead(SCALE5, digits)
        oracle = max(common_head_length(h, point_head(p, depth))[0]
                     for p in stage.points)
        letter, confident = f5_eval(h, stage)
        assert letter == ("a" if oracle % 2 == 1 else "b")
        assert confident == (oracle < depth)


def test_toeplitz5_window_examples():
    stage = build_d_stage(5)
    zhat = default_zhat5(16)
    assert toeplitz5_window(zhat, 0, 0, stage) == "b"
    word3 = toeplitz5_window(default_zhat5(8), 0, 20, build_d_stage(3))
    word5 = toeplitz5_window(default_zhat5(8), 0, 20, stage)
    assert word3 == word5  # stable as the stage grows
    # evaluating at a discontinuity never becomes confident
    d = stage.points[1]
    zhat_bad = OdometerHead(SCALE5, tuple(
        point_digit(d, n) for n in range(1, 13)))
    with pytest.raises(DepthError) as err:
        toeplitz5_window(zhat_bad, -1, 1, stage)
    assert "0" in str(err.value)
    # past depth 2^5 an empty range is still empty, and a head over the
    # wrong scale is refused before its depth is read
    assert toeplitz5_window(default_zhat5(40), 3, 2, stage) == ""
    with pytest.raises(ValidationError):
        toeplitz5_window(OdometerHead(SCALE6, (1,) * 40), 0, 0, stage)


def test_translate_disjointness_clean():
    stage = build_d_stage(3)
    report = check_translate_disjointness(stage, 16, 12, 2000, seed=1)
    assert report["violations"] == []
    assert report["checked"] > 0


def test_translate_hits_planted():
    stage = build_d_stage(3)
    heads = sorted(head_set(stage, 12))
    # z = e - d - t for head class 2, point 0, t = 5
    modulus = level_product(SCALE5, 12)
    zval = (head_index(OdometerHead(SCALE5, heads[2]))
            - head_index(point_head(stage.points[0], 12)) - 5) % modulus
    z = integer_head(zval, SCALE5, 12)
    hits = translate_hits(z, stage, 16)
    source_class = heads.index(point_head(stage.points[0], 12).digits)
    assert hits == [(source_class, 5)]


def test_d_stage_closed_form_matches_tuple_recursion():
    # the recursion appends to the points of the stage before, and stage i
    # holds the points 0 .. 2^i - 1, so stage 12 compares every stage; each
    # point's exponents are read to two levels past its head
    oracle = oracle_d_stage(12)
    for i in range(13):
        assert len(build_d_stage(i).points) == 2 ** i
    for p, (head, tail) in zip(build_d_stage(12).points, oracle):
        assert (p.head_exponents, p.tail_exponent) == (head, tail)
        exponents = head + (tail, tail)
        assert [point_exponent(p, n) for n in range(1, len(exponents) + 1)] \
            == list(exponents)
        assert all(map(operator.lt, exponents, itertools.count(1)))
    # distinct eventual exponents: no two points are equal
    assert len({tail for _, tail in oracle}) == len(oracle)


# ---------------------------------------------------------------------------
# second family: the level family and f-family over Z_2


def test_level_family_rows():
    lf = LevelFamily()
    assert level_row(lf, 1, 5) == [0, 1, 3, 7, 15]
    assert level_row(lf, 2, 6) == [1, 2, 3, 5, 7, 11]
    assert level_row(lf, 3, 7) == [3, 4, 5, 6, 7, 9, 11]
    assert [lf.time(n) for n in (1, 2, 3, 4)] == [1, 2, 8, 128]


def test_level_family_conditions():
    lf = LevelFamily()
    # R1: diagonal strictly increasing
    diag = [lf.l(n, 0) for n in range(1, 10)]
    assert all(b > a for a, b in zip(diag, diag[1:]))
    # R2: rows strictly increasing
    for n in range(1, 7):
        row = level_row(lf, n, 40)
        assert all(b > a for a, b in zip(row, row[1:]))
    # R3: exact shift identity
    for n in range(1, 7):
        for i in range(30):
            assert lf.l(n, i + lf.offset(n)) == lf.l(n + 1, 2 * i)


def test_disjoint_supports():
    # U_n(t_n) fixes zeros up to l^n_0 and a one just above; R1 makes the
    # patterns pairwise contradictory
    lf = LevelFamily()
    for n in range(1, 9):
        for n2 in range(n + 1, 9):
            assert lf.l(n, 0) + 1 <= lf.l(n2, 0)
    for n in range(1, 9):
        t = lf.time(n)
        head = integer_head(t, SCALE6, lf.l(n, 0) + 1).digits
        assert head == (0,) * lf.l(n, 0) + (1,)


def test_f_family_full_shift_level2():
    lf = LevelFamily()
    fam = build_f_family(FullShift(), 2, 64)
    words = [family_word(fam, 2, i) for i in range(8)]
    assert set(words) == {"aa", "ab", "ba", "bb"}
    # constancy of x -> f^1(x) f^2(x) on the level-2 intervals
    for i in range(8):
        lo, hi = lf.l(2, i), lf.l(2, i + 1)
        vals = {fam.value(1, x) + fam.value(2, x) for x in range(lo, hi)}
        assert len(vals) == 1


def test_f_family_respects_language():
    fam = build_f_family(SturmianFibonacci(), 6, 4096)
    handle = SturmianFibonacci()
    for n in range(1, 7):
        words = set()
        i = 0
        while True:
            try:
                words.add(family_word(fam, n, i))
            except HorizonError:
                break
            i += 1
        assert words == handle.words(n)
        assert len(words) == n + 1  # Sturmian complexity


def test_f_family_full_shift_all_words_recur():
    fam = build_f_family(FullShift(), 6, 4096)
    for n in range(1, 7):
        seen = {}
        i = 0
        while True:
            try:
                w = family_word(fam, n, i)
            except HorizonError:
                break
            seen.setdefault(w, []).append(i)
            i += 1
        assert len(seen) == 2 ** n
        assert all(len(v) >= 2 for v in seen.values())  # arises again


def test_f_family_interval_constancy_both_handles():
    lf = LevelFamily()
    for handle in (FullShift(), SturmianFibonacci()):
        fam = build_f_family(handle, 4, 512)
        for n in range(1, 5):
            i = 0
            while lf.l(n, i + 1) <= 512:
                lo, hi = lf.l(n, i), lf.l(n, i + 1)
                vals = {"".join(fam.value(k, x) for k in range(1, n + 1))
                        for x in range(lo, hi)}
                assert len(vals) == 1
                assert next(iter(vals)) in handle.words(n)
                i += 1


def test_f1_alternates():
    lf = LevelFamily()
    fam = build_f_family(FullShift(), 1, 64)
    letters = [fam.value(1, lf.l(1, i)) for i in range(6)]
    assert letters == ["a", "b", "a", "b", "a", "b"]


def test_sturmian_factors():
    handle = SturmianFibonacci()
    assert handle.words(1) == frozenset({"a", "b"})
    assert handle.words(2) == frozenset({"ab", "ba", "aa"})
    assert "bb" not in handle.words(2)
    for n in range(1, 10):
        assert len(handle.words(n)) == n + 1
        specials = [w for w in handle.words(n) if len(handle.extensions(w)) == 2]
        assert len(specials) == 1


def test_user_word_list():
    words = {1: {"a", "b"}, 2: {"aa", "ab", "ba", "bb"}}
    handle = UserWordList(words)
    assert handle.extensions("a") == "ab"
    with pytest.raises(LanguageError):
        UserWordList({1: {"a"}})


def test_f6_eval_support_dispatch():
    fam = build_f_family(FullShift(), 4, 512)
    # z = t_2 + 2^9: lowest set bit at position 2 = l^2_0 + 1, next at 10
    z = OdometerHead(SCALE6, (0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0))
    assert f6_eval(z, fam) == fam.value(2, 9)
    # lowest set bit not matching any l^n_0 + 1: default letter a
    z2 = OdometerHead(SCALE6, (0, 0, 1, 0, 0, 0, 1, 0))
    assert f6_eval(z2, fam) == "a"
    with pytest.raises(DepthError):
        f6_eval(OdometerHead(SCALE6, (0, 0, 0, 0)), fam)
    with pytest.raises(DepthError):
        f6_eval(OdometerHead(SCALE6, (0, 1, 0, 0)), fam)


def test_realize_prefix_full_shift():
    fam = build_f_family(FullShift(), 6, 4096)
    zhat = default_zhat6(64)
    t_w, letters = realize_prefix("ab", fam, realization_interval("ab", fam),
                                  zhat)
    assert letters == "ab"
    assert t_w == 54  # smallest positive choice for the default base point
    t_w, letters = realize_prefix("a", fam, realization_interval("a", fam),
                                  zhat)
    assert letters == "a"


def test_realize_round_trip_both_handles():
    fam_full = build_f_family(FullShift(), 6, 4096)
    fam_st = build_f_family(SturmianFibonacci(), 6, 4096)
    sturmian = SturmianFibonacci()
    zhat = default_zhat6(2048)
    for n in range(1, 7):
        for w in map("".join, itertools.product("ab", repeat=n)):
            _, letters = realize_prefix(
                w, fam_full, realization_interval(w, fam_full), zhat)
            assert letters == w
        for w in sorted(sturmian.words(n)):
            _, letters = realize_prefix(
                w, fam_st, realization_interval(w, fam_st), zhat)
            assert letters == w


def test_realize_rejects_non_language_words():
    fam = build_f_family(SturmianFibonacci(), 4, 1024)
    with pytest.raises(LanguageError):
        realization_interval("bb", fam)


def test_realize_depth_guard():
    fam = build_f_family(FullShift(), 4, 1024)
    with pytest.raises(DepthError):
        realize_prefix("abab", fam, realization_interval("abab", fam),
                       default_zhat6(4))


# ---------------------------------------------------------------------------
# oracles: the per-level constructions, the cache-free head sets and the
# eager Sturmian table that the stage memos and lazy factors replaced


def oracle_head(p, depth):
    return tuple(point_digit(p, n) for n in range(1, depth + 1))


def oracle_head_set(stage, m):
    return frozenset(oracle_head(p, m) for p in stage.points)


def oracle_heads_and_special(stage, m, longer_heads):
    """``heads_and_special`` from the points' heads at depth m + 1, or
    the type and message of what it raises."""
    if 2 ** stage.index < m + 1:
        return PreconditionError, (
            f"stage {stage.index} is too shallow for stable Head_{m + 1}")
    heads = frozenset(h[:m] for h in longer_heads)
    if len(heads) != m:
        return ValidationError, f"|Head_{m}| = {len(heads)}, expected {m}"
    prefixes = collections.Counter(h[:m] for h in set(longer_heads))
    specials = [h for h, k in prefixes.items() if k >= 2]
    if len(specials) != 1:
        return ValidationError, f"expected one special word, got {len(specials)}"
    return heads, specials[0]


class OracleHeads:
    """``oracle_head_set`` per depth, each computed once for the test."""

    def __init__(self, stage):
        self.stage = stage
        self.sets = {}

    def __call__(self, m):
        if m not in self.sets:
            self.sets[m] = oracle_head_set(self.stage, m)
        return self.sets[m]


def oracle_integer_head(t, depth):
    digits = []
    for n in range(1, depth + 1):
        t, d = divmod(t, SCALE5.modulus(n))
        digits.append(d)
    return tuple(digits)


def oracle_value(digits):
    return sum(d * level_product(SCALE5, k) for k, d in enumerate(digits))


def oracle_f5_eval(digits, stage, heads):
    L = longest_head_by_head_sets(digits, heads)
    confident = 2 ** stage.index >= len(digits) and L < len(digits)
    return ("a" if L % 2 else "b"), confident


def oracle_window(digits, n0, n1, stage, heads):
    P = level_product(SCALE5, len(digits))
    z = oracle_value(digits)
    evals = [oracle_f5_eval(oracle_integer_head((z + n) % P, len(digits)),
                            stage, heads)
             for n in range(n0, n1 + 1)]
    failures = [n for n, (_, ok) in zip(range(n0, n1 + 1), evals) if not ok]
    if failures:
        return ("error", f"evaluation not certified at offsets {failures}; "
                         "deepen the head/stage")
    return "".join(letter for letter, _ in evals)


def oracle_translate_hits(digits, t_range, heads):
    depth = len(digits)
    modulus = level_product(SCALE5, depth)
    vals = [oracle_value(h) for h in sorted(heads(depth))]
    zval = oracle_value(digits)
    hits = set()
    for sc, sval in enumerate(vals):
        for tval in vals:
            off = (tval - sval - zval) % modulus
            if off <= t_range:
                hits.add((sc, off))
            elif modulus - off <= t_range:
                hits.add((sc, off - modulus))
    return sorted(hits)


def oracle_disjointness(point_heads, depth, t_range, samples, seed):
    """(checked samples, violations) from the points' heads at ``depth``,
    pair by pair and hit by hit."""
    rng = random.Random(seed)
    heads_sorted = sorted(set(point_heads))
    modulus = level_product(SCALE5, depth)
    violations = []
    values = [oracle_value(h) for h in point_heads]
    for a, b in itertools.combinations(range(len(point_heads)), 2):
        off = (values[b] - values[a]) % modulus
        t = off if off <= t_range else (off - modulus
                                        if modulus - off <= t_range else None)
        if t is not None and t != 0:
            violations.append({"kind": "integer-translate", "pair": [a, b], "t": t})
    small = {oracle_integer_head(t, depth)
             for t in range(-4 * t_range, 4 * t_range + 1)}
    checked = 0
    for _ in range(samples):
        ce = rng.randrange(len(heads_sorted))
        di = rng.randrange(len(point_heads))
        t = rng.randint(-t_range, t_range)
        z = oracle_integer_head(
            (oracle_value(heads_sorted[ce]) - values[di] - t) % modulus, depth)
        if len(set(z[depth // 2:])) == 1 or z in small:
            continue
        checked += 1
        source = heads_sorted.index(point_heads[di])
        extra = [hit for hit in
                 oracle_translate_hits(z, t_range, lambda m: heads_sorted)
                 if hit != (source, t)]
        if extra:
            violations.append({"kind": "double-hit", "source": source,
                               "t": t, "z": list(z), "others": extra})
    return checked, violations


def oracle_sturmian_factors(max_len=64):
    w = "a"
    while len(w) < 4 * max_len + 16:
        w = w.replace("a", "A").replace("b", "a").replace("A", "ab")
    longer = w.replace("a", "A").replace("b", "a").replace("A", "ab")
    factors = {}
    for n in range(1, max_len + 1):
        cur = frozenset(w[i:i + n] for i in range(len(w) - n + 1))
        assert cur == frozenset(longer[i:i + n]
                                for i in range(len(longer) - n + 1))
        factors[n] = cur
    return factors


def _near_d_head(rng, stage, depth):
    """A head that follows a stage point for a while, then leaves it."""
    digits = list(oracle_head(rng.choice(stage.points), depth))
    cut = rng.randint(0, depth)
    for k in range(cut, depth):
        digits[k] = rng.randrange(4 ** (k + 1))
    return tuple(digits)


def test_closed_form_heads_match_prefix_trie_and_point_oracles():
    # a stage is its index, and its longest heads, head sets, special
    # words and head classes are read from _exponent; each is compared
    # with the prefix trie of the points and with the points' own heads
    rng = random.Random(13)
    for i in range(8):
        stage = build_d_stage(i)
        assert vars(stage) == {"index": i}
        trie = PrefixTrie(i, 2 ** i + 4)
        deepest = trie.heads
        heads = functools.lru_cache(None)(
            lambda m: frozenset(h[:m] for h in deepest))
        for _ in range(200):
            depth = rng.randint(0, 2 ** i + 4)
            kind = rng.randrange(3)
            if kind == 0:
                digits = rng.choice(deepest)[:depth]
            elif kind == 1:
                digits = _near_d_head(rng, stage, depth)
            else:
                digits = oracle_integer_head(
                    rng.randrange(level_product(SCALE5, depth)), depth)
            got = _longest_head(stage, _head_value(digits), depth, {})
            assert got == trie.longest_head(digits)
            assert got == longest_head_by_head_sets(digits, heads)
    # every depth below min(2^i + 5, 140) on stages 0-9; the head values,
    # built by the class recursion, are the head indices of the classes,
    # sums of digits times weights
    for i in range(10):
        stage = build_d_stage(i)
        top = min(2 ** i + 5, 140)
        trie = PrefixTrie(i, top + 1)
        deepest = trie.heads
        weights = [level_product(SCALE5, k) for k in range(top)]
        for m in range(top):
            point_heads = [h[:m] for h in deepest]
            classes = sorted(set(point_heads))
            class_of = {h: c for c, h in enumerate(classes)}
            assert head_set(stage, m) == trie.head_set(m) == \
                frozenset(point_heads)
            values, point_class = _head_classes(stage, m)
            paths, trie_class = trie.head_classes(m)
            assert (paths, trie_class) == \
                (classes, [class_of[h] for h in point_heads])
            assert point_class == trie_class
            assert values == [sum(map(operator.mul, h, weights))
                              for h in classes]
            got = outcome(heads_and_special, m, stage)
            assert got == outcome(trie.heads_and_special, m)
            assert got == oracle_heads_and_special(
                stage, m, [h[:m + 1] for h in deepest])


def test_head_bit_fields_match_integer_head():
    # integer_head is the reference for the bit-field reading of a value
    # over the 4^n scale, and the packing of digits reads it back
    rng = random.Random(17)
    for _ in range(400):
        depth = rng.choice([0, 1, 2, 3, rng.randint(4, 40), rng.randint(100, 300)])
        modulus = level_product(SCALE5, depth)
        value = rng.choice([0, modulus - 1, rng.randrange(modulus),
                            rng.randrange(modulus, 5 * modulus)])
        digits = integer_head(value, SCALE5, depth).digits
        assert _head_digits(value, depth) == digits
        assert _head_value(digits) == value % modulus


def _random_zhat5(rng, stage, depth):
    """A base point over the 4^n scale: a stage point's head, a head that
    leaves one, random digits, or the head of a small integer, whose
    translates wrap around the level product."""
    kind = rng.randrange(5)
    if kind == 0:
        return OdometerHead(SCALE5, oracle_head(rng.choice(stage.points), depth))
    if kind == 1:
        return OdometerHead(SCALE5, _near_d_head(rng, stage, depth))
    if kind == 2:
        return OdometerHead(SCALE5, tuple(rng.randrange(4 ** (k + 1))
                                          for k in range(depth)))
    return integer_head(rng.randint(-40, 40), SCALE5, depth)


def _random_zhat6(rng, depth, lo):
    """A binary base point: random digits, with the first lo of them zero
    and digit lo one in a third of the draws (where t_w = 2^(lo+1))."""
    digits = [rng.randrange(2) for _ in range(depth)]
    if rng.randrange(3) == 0 and lo < depth:
        digits[:lo + 1] = [0] * lo + [1]
    return OdometerHead(SCALE6, tuple(digits))


def test_int_heads_match_the_digit_tuple_oracle():
    # window, f5, f6 and realize on int head values against the digit
    # tuples they replaced: add_integer per offset, then the tuple walk
    rng = random.Random(71)
    errors = collections.Counter()
    for i in range(8):
        stage = build_d_stage(i)
        for _ in range(40):
            zhat = _random_zhat5(rng, stage, rng.randint(0, 2 ** i + 3))
            n0 = rng.randint(-70, 40)
            n1 = n0 + rng.randint(0, 60)
            got = outcome(toeplitz5_window, zhat, n0, n1, stage)
            assert got == outcome(tuple_window, zhat, n0, n1, stage)
            errors[type(got) is tuple] += 1
            for n in (n0, n1, -1, 1, rng.randint(-300, 300)):
                h = add_integer(zhat, n)
                assert f5_eval(h, stage) == tuple_f5_eval(h, stage)
    assert errors[True] and errors[False]  # DepthError offsets and words
    fam = build_f_family(FullShift(), 6, 4096)
    for _ in range(600):
        depth = rng.randint(0, 40)
        kind = rng.randrange(3)
        if kind == 0:
            z = OdometerHead(SCALE6, tuple(rng.randrange(2)
                                           for _ in range(depth)))
        else:  # t_n alone, or t_n plus one higher bit
            t = LevelFamily().time(rng.randint(1, 7))
            z = integer_head(t + kind // 2 * (t << rng.randint(1, 20)),
                             SCALE6, depth)
        got = outcome(f6_eval, z, fam)
        assert got == outcome(tuple_f6_eval, z, fam)
        errors[got] += 1
    assert errors[DepthError, "all digits zero: membership undecidable "
                              "at this depth"]
    assert any(got[0] is DepthError and "unresolved" in got[1]
               for got in errors if isinstance(got, tuple))
    third = 0
    for handle in (FullShift(), SturmianFibonacci()):
        fam = build_f_family(handle, 6, 4096)
        for n in range(1, 7):
            for w in sorted(handle.words(n)):
                lo, hi = interval = realization_interval(w, fam)
                for _ in range(6):
                    zhat = _random_zhat6(rng, hi + rng.randint(-1, 40), lo)
                    got = outcome(realize_prefix, w, fam, interval, zhat)
                    assert got == outcome(tuple_realize_prefix, w, fam, zhat)
                    third += got[0] == 2 << lo
    assert third

def test_stage_memos_and_lazy_factors_match_oracles():
    rng = random.Random(7)
    for i in range(2, 8):
        stage = build_d_stage(i)
        heads = OracleHeads(stage)
        assert [(p.head_exponents, p.tail_exponent)
                for p in stage.points] == oracle_d_stage(i)
        span = max(len(p.head_exponents) for p in stage.points) + 2
        for p in stage.points:
            for depth in (0, 1, len(p.head_exponents), span):
                assert point_head(p, depth).digits == oracle_head(p, depth)
        for m in range(1, 2 ** i + 3):
            assert head_set(stage, m) == heads(m)
        for _ in range(40):
            depth = rng.randint(1, 2 ** i + 2)
            digits = _near_d_head(rng, stage, depth)
            assert f5_eval(OdometerHead(SCALE5, digits), stage) == \
                oracle_f5_eval(digits, stage, heads)
        for _ in range(4):
            depth = rng.randint(1, 2 ** i)
            digits = _near_d_head(rng, stage, depth)
            n0 = rng.randint(-40, 10)
            n1 = n0 + rng.randint(0, 40)
            try:
                got = toeplitz5_window(OdometerHead(SCALE5, digits), n0, n1, stage)
            except DepthError as exc:
                got = ("error", str(exc))
            assert got == oracle_window(digits, n0, n1, stage, heads)
        for _ in range(6):
            depth = rng.choice([8, 12, 16, 24])
            modulus = level_product(SCALE5, depth)
            e, d = rng.sample(stage.points, 2)
            zval = (oracle_value(oracle_head(e, depth))
                    - oracle_value(oracle_head(d, depth))
                    - rng.randint(-8, 8)) % modulus
            digits = oracle_integer_head(zval, depth)
            assert translate_hits(OdometerHead(SCALE5, digits), stage, 8) == \
                oracle_translate_hits(digits, 8, heads)
        if i <= 5:
            for depth, t_range in ((12, 16), (16, 8)):
                report = check_translate_disjointness(stage, t_range, depth,
                                                      60, seed=i)
                checked, violations = oracle_disjointness(
                    [oracle_head(p, depth) for p in stage.points], depth,
                    t_range, 60, i)
                assert report == {
                    "schema": 1, "stage": i, "depth": depth,
                    "t_range": t_range, "samples": 60, "checked": checked,
                    "seed": i, "violations": violations}
    factors = oracle_sturmian_factors()
    handle = SturmianFibonacci()
    for n in rng.sample(range(1, 65), 64):
        assert handle.words(n) == factors[n]
    for n in (0, 65):
        with pytest.raises(ValidationError, match="tabulated up to 64"):
            handle.words(n)


# ---------------------------------------------------------------------------
# oracles for the second family: the pointwise recursion with a dict memo
# and the horizon-length tables that the level rows and interval words
# replaced


class OracleLevelFamily:
    def __init__(self):
        self._memo = {}

    def offset(self, n):
        return 2 ** (n - 1)

    def l(self, n, i):
        if n < 1 or i < 0:
            raise ValidationError("need n >= 1 and i >= 0")
        key = (n, i)
        if key in self._memo:
            return self._memo[key]
        if n == 1:
            val = 2 ** i - 1
        else:
            j, odd = divmod(i, 2)
            lo = self.l(n - 1, j + self.offset(n - 1))
            if odd:
                hi = self.l(n - 1, j + 1 + self.offset(n - 1))
                if (lo + hi) % 2:
                    raise ValidationError(
                        f"midpoint rule not integral at l^{n}_{i}")
                val = (lo + hi) // 2
            else:
                val = lo
        self._memo[key] = val
        return val

    def time(self, n):
        return 2 ** self.l(n, 0)


class OracleFFamily:
    def __init__(self, n_max, horizon, tables):
        self.n_max, self.horizon, self.tables = n_max, horizon, tables

    def value(self, n, x):
        if not 1 <= n <= self.n_max:
            raise ValidationError(f"f^{n} not built (n_max {self.n_max})")
        if x >= self.horizon:
            raise HorizonError(f"f^{n}({x}) beyond horizon {self.horizon}")
        return self.tables[n - 1][x]

    def word(self, n, i, lf):
        lo, hi = lf.l(n, i), lf.l(n, i + 1)
        if hi > self.horizon:
            raise HorizonError(f"interval [{lo},{hi}) beyond horizon")
        return "".join(self.tables[k][lo] for k in range(n))


def oracle_build_f_family(handle, n_max, horizon, lf):
    if horizon <= lf.l(n_max, 1):
        raise HorizonError("horizon too small for the requested levels")
    tables = []
    f1 = ["a"] * horizon
    i = 0
    while lf.l(1, i) < horizon:
        lo, hi = lf.l(1, i), min(lf.l(1, i + 1), horizon)
        f1[lo:hi] = [("a" if i % 2 == 0 else "b")] * (hi - lo)
        i += 1
    tables.append("".join(f1))
    for n in range(1, n_max):
        nxt = ["a"] * horizon
        j = 0
        while True:
            a = lf.l(n + 1, 2 * j)
            if a >= horizon:
                break
            mid = lf.l(n + 1, 2 * j + 1)
            b = lf.l(n + 1, 2 * j + 2)
            w = "".join(tables[k][lf.l(n, j + lf.offset(n))] for k in range(n))
            exts = handle.extensions(w)
            if not exts:
                raise LanguageError(f"{w!r} has no right extension")
            if len(exts) == 2:
                nxt[a:min(mid, horizon)] = "a" * (min(mid, horizon) - a)
                if mid < horizon:
                    nxt[mid:min(b, horizon)] = "b" * (min(b, horizon) - mid)
            else:
                nxt[a:min(b, horizon)] = exts[0] * (min(b, horizon) - a)
            j += 1
        tables.append("".join(nxt))
    return OracleFFamily(n_max, horizon, tables)


def oracle_row_to(lf, n, bound):
    """The entries l^n_i <= bound of a strictly increasing row, pointwise."""
    entries = [lf.l(n, 0)]
    while entries[-1] <= bound:
        entries.append(lf.l(n, len(entries)))
        if not entries[-2] < entries[-1]:
            raise ValidationError(
                f"row {n} does not increase strictly through integers")
    return entries[:-1]


def outcome(f, *args):
    """The value of f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def random_user_language(rng, max_len):
    """A seeded right-extendable binary language: each word keeps one or
    both of its right extensions."""
    words = {1: {"a", "b"}}
    for n in range(1, max_len):
        words[n + 1] = {w + c for w in words[n]
                        for c in rng.choice(["a", "b", "ab", "ab"])}
    return UserWordList(words)


def test_level_rows_match_recursion_oracle():
    rng = random.Random(61)
    lf, oracle = LevelFamily(), OracleLevelFamily()
    queries = [(n, i) for n in range(-1, 8) for i in range(-1, 48)]
    rng.shuffle(queries)
    for n, i in queries:
        assert outcome(lf.l, n, i) == outcome(oracle.l, n, i), (n, i)
    fresh = LevelFamily()
    for n in range(1, 8):
        assert level_row(fresh, n, 40) == [oracle.l(n, i) for i in range(40)]
        assert fresh.time(n) == oracle.time(n)
    # the rows below a bound: the oracle's entries
    for n, bound in itertools.product(range(1, 8), (0, 5, 40, 300, 5000)):
        assert LevelFamily().row_to(n, bound) == \
            oracle_row_to(oracle, n, bound), (n, bound)


def test_default_rows_below_a_bound_match_the_pointwise_oracle():
    lf, oracle = LevelFamily(), OracleLevelFamily()
    for n, bound in itertools.product(range(1, 11),
                                      (-1, 0, 1, 63, 64, 500, 4096, 10000)):
        assert lf.row_to(n, bound) == oracle_row_to(oracle, n, bound)
    assert lf.row_to(3, 15) == [3, 4, 5, 6, 7, 9, 11, 13, 15]


def test_level_entries_deeper_than_the_recursion_limit():
    # the default row gives l^n_0 = 2^(n-1) - 1 and l^n_1 = 2^(n-1); the
    # closed form reads two first-row entries at any depth
    lf = LevelFamily()
    assert lf.l(3000, 1) == 2 ** 2999
    assert lf.l(3000, 0) == 2 ** 2999 - 1


def test_f_family_matches_table_oracle():
    rng = random.Random(62)
    handles = [FullShift(), SturmianFibonacci(), random_user_language(rng, 8),
               random_user_language(rng, 4)]
    for handle in handles:
        for horizon in (3, 64, 100, 512, 777, 4096, 10000):
            for n_max in range(1, 8):
                oracle_lf = OracleLevelFamily()
                fam = outcome(build_f_family, handle, n_max, horizon)
                oracle = outcome(oracle_build_f_family, handle, n_max, horizon,
                                 oracle_lf)
                if isinstance(oracle, tuple):
                    assert fam == oracle
                    continue
                for n in range(1, n_max + 1):
                    got = [outcome(fam.value, n, x) for x in range(horizon + 3)]
                    assert got == [outcome(oracle.value, n, x)
                                   for x in range(horizon + 3)]
                for n, x in itertools.product((0, n_max + 1), (0, horizon)):
                    assert outcome(fam.value, n, x) == outcome(oracle.value, n, x)
                for n in range(1, n_max + 1):
                    for i in range(-1, 10 ** 6):
                        got = outcome(family_word, fam, n, i)
                        assert got == outcome(oracle.word, n, i, oracle_lf)
                        if isinstance(got, tuple) and got[0] is HorizonError:
                            break


def test_f_family_rejects_levels_it_did_not_build():
    fam = build_f_family(FullShift(), 3, 512)
    for n in (0, 4, 9):
        with pytest.raises(ValidationError, match=rf"f\^{n} not built \(n_max 3\)"):
            family_word(fam, n, 1)
        with pytest.raises(ValidationError, match=rf"f\^{n} not built"):
            fam.value(n, 5)
    with pytest.raises(ValidationError, match="need n >= 1 and i >= 0"):
        family_word(fam, 2, -1)
    for n_max in (0, -1):
        with pytest.raises(ValidationError, match=f"n_max must be >= 1, got {n_max}"):
            build_f_family(FullShift(), n_max, 512)
    with pytest.raises(ValidationError, match="f\\^7 not built"):
        realization_interval("abababa", build_f_family(FullShift(), 6, 4096))


def oracle_pairwise_translate_hits(zval, vals, modulus, t_range):
    hits = set()
    for sc, sval in enumerate(vals):
        base = (sval + zval) % modulus
        for tval in vals:
            off = (tval - base) % modulus
            if off <= t_range:
                hits.add((sc, off))
            elif modulus - off <= t_range:
                hits.add((sc, off - modulus))
    return sorted(hits)


def test_translate_hits_bisection_matches_pairwise_oracle():
    rng = random.Random(63)
    # arbitrary distinct values: windows crossing 0 and modulus, and
    # windows of 2 t_range + 1 >= modulus that hold every residue
    for _ in range(3000):
        modulus = rng.choice([1, 2, 3, 4, 7, 16, 64, 1000, 4 ** 10])
        vals = rng.sample(range(modulus), rng.randint(1, min(modulus, 12)))
        zval = rng.choice([0, modulus - 1, rng.randrange(modulus),
                           modulus - vals[0], modulus - vals[0] + 1])
        t_range = rng.choice([0, 1, 2, 3, modulus // 2, modulus, rng.randint(0, 40)])
        wrapped = _wrapped(vals, modulus)
        assert _translate_hits(zval, vals, wrapped, modulus, t_range) == \
            oracle_pairwise_translate_hits(zval, vals, modulus, t_range)
    # over stage head classes, at depths whose level products are small
    for i in (1, 2, 3, 4):
        stage = build_d_stage(i)
        heads = OracleHeads(stage)
        for depth in (1, 2, 3):
            modulus = level_product(SCALE5, depth)
            for _ in range(60):
                digits = oracle_integer_head(rng.randrange(modulus), depth)
                t_range = rng.choice([0, 1, 5, 31, 32, 40, 2100])
                assert translate_hits(OdometerHead(SCALE5, digits), stage,
                                      t_range) == \
                    oracle_translate_hits(digits, t_range, heads)


def _random_heads(rng):
    """(depth, point heads): a few random head classes at a small depth,
    shared by up to 14 points; small powers of 3 make integer translates
    and double hits common."""
    depth = rng.choice([1, 2, 3, 5, 8])
    classes = [tuple(3 ** rng.randint(0, k) if rng.random() < 0.8
                     else rng.randrange(4 ** (k + 1)) for k in range(depth))
               for _ in range(rng.randint(1, 8))]
    return depth, [rng.choice(classes) for _ in range(rng.randint(1, 14))]


def test_structural_pass_and_samples_match_pairwise_oracle():
    # the value-level core of check_translate_disjointness on hand-built
    # head classes, which stages never give: integer translates among them
    rng = random.Random(64)
    kinds = set()
    for _ in range(400):
        depth, heads = _random_heads(rng)
        t_range = rng.choice([0, 1, 2, 6, 40, 300])
        seed = rng.randrange(100)
        classes = sorted(set(heads))
        got = _violations([oracle_value(h) for h in classes],
                          [classes.index(h) for h in heads], depth, t_range,
                          8, seed)
        assert got == oracle_disjointness(heads, depth, t_range, 8, seed)
        kinds.update(v["kind"] for v in got[1])
    assert kinds == {"integer-translate", "double-hit"}
