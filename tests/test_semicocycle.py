import itertools
import random

import pytest

from toeplitztame.errors import (DepthError, HorizonError, LanguageError,
                                 PreconditionError, ValidationError)
from toeplitztame.odometer import OdometerHead, head_index, level_product
from toeplitztame.semicocycle import (SCALE5, SCALE6, DPoint, DStage,
                                      FullShift, SturmianFibonacci,
                                      UserWordList, build_d_stage,
                                      build_f_family, build_level_family,
                                      check_translate_disjointness,
                                      default_zhat5, default_zhat6, f5_eval,
                                      f6_eval, head_set, heads_and_special,
                                      points_equal, realize_prefix,
                                      toeplitz5_window, translate_hits)

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
                if p.digit(n) == q.digit(n):
                    assert p.head_at(n) == q.head_at(n)


def test_p2_digit_bounds_and_no_small_translates():
    stage = build_d_stage(5)
    span = max(len(p.head_exponents) for p in stage.points) + 4
    for p in stage.points:
        for n in range(1, span + 1):
            assert p.digit(n) not in (0, 4 ** n - 1)
    # no two distinct points are integer translates with |t| <= 10^3 at depth 12
    depth = 12
    modulus = level_product(SCALE5, depth)
    values = [head_index(p.head_at(depth)) for p in stage.points]
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
    d_head = stage.points[1].head_at(4)
    letter, confident = f5_eval(d_head, stage)
    assert not confident


def test_f5_matches_pointwise_definition():
    # oracle: L(z, D) as the literal maximum of the common head lengths
    # over the stage points, instead of the head-set membership route
    import random
    from toeplitztame.odometer import common_head_length

    stage = build_d_stage(5)
    rng = random.Random(55)
    for _ in range(300):
        depth = rng.randint(1, 8)
        digits = tuple(rng.randrange(4 ** n) for n in range(1, depth + 1))
        h = OdometerHead(SCALE5, digits)
        oracle = max(common_head_length(h, p.head_at(depth))[0]
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
        d.digit(n) for n in range(1, 13)))
    with pytest.raises(DepthError) as err:
        toeplitz5_window(zhat_bad, -1, 1, stage)
    assert "0" in str(err.value)


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
    from toeplitztame.odometer import integer_head
    zval = (head_index(OdometerHead(SCALE5, heads[2]))
            - head_index(stage.points[0].head_at(12)) - 5) % modulus
    z = integer_head(zval, SCALE5, 12)
    hits = translate_hits(z, stage, 16)
    source_class = heads.index(stage.points[0].head_at(12).digits)
    assert hits == [(source_class, 5)]


def test_translate_disjointness_flags_corruption():
    stage = build_d_stage(3)
    bad = DStage(stage.index, stage.points + (stage.points[2],))
    report = check_translate_disjointness(bad, 16, 12, 10, seed=0)
    assert any(v["kind"] == "duplicate-point" for v in report["violations"])


def test_points_equal_is_exact():
    assert points_equal(DPoint((0,), 1), DPoint((0, 1), 1))
    assert not points_equal(DPoint((), 0), DPoint((0,), 1))


# ---------------------------------------------------------------------------
# second family: the level family and f-family over Z_2


def test_level_family_rows():
    lf = build_level_family()
    assert lf.row(1, 5) == [0, 1, 3, 7, 15]
    assert lf.row(2, 6) == [1, 2, 3, 5, 7, 11]
    assert lf.row(3, 7) == [3, 4, 5, 6, 7, 9, 11]
    assert [lf.time(n) for n in (1, 2, 3, 4)] == [1, 2, 8, 128]


def test_level_family_conditions():
    lf = build_level_family()
    # R1: diagonal strictly increasing
    diag = [lf.l(n, 0) for n in range(1, 10)]
    assert all(b > a for a, b in zip(diag, diag[1:]))
    # R2: rows strictly increasing
    for n in range(1, 7):
        row = lf.row(n, 40)
        assert all(b > a for a, b in zip(row, row[1:]))
    # R3: exact shift identity
    for n in range(1, 7):
        for i in range(30):
            assert lf.l(n, i + lf.offset(n)) == lf.l(n + 1, 2 * i)


def test_level_family_integrality_guard():
    bad = build_level_family().__class__(first_row=lambda i: i)  # 0,1,2,...
    with pytest.raises(ValidationError):
        bad.l(2, 1)  # midpoint of 1 and 2


def test_disjoint_supports():
    # U_n(t_n) fixes zeros up to l^n_0 and a one just above; R1 makes the
    # patterns pairwise contradictory
    lf = build_level_family()
    for n in range(1, 9):
        for n2 in range(n + 1, 9):
            assert lf.l(n, 0) + 1 <= lf.l(n2, 0)
    from toeplitztame.odometer import integer_head
    for n in range(1, 9):
        t = lf.time(n)
        head = integer_head(t, SCALE6, lf.l(n, 0) + 1).digits
        assert head == (0,) * lf.l(n, 0) + (1,)


def test_f_family_full_shift_level2():
    lf = build_level_family()
    fam = build_f_family(FullShift(), 2, 64, lf)
    words = [fam.word(2, i, lf) for i in range(8)]
    assert set(words) == {"aa", "ab", "ba", "bb"}
    # constancy of x -> f^1(x) f^2(x) on the level-2 intervals
    for i in range(8):
        lo, hi = lf.l(2, i), lf.l(2, i + 1)
        vals = {fam.value(1, x) + fam.value(2, x) for x in range(lo, hi)}
        assert len(vals) == 1


def test_f_family_respects_language():
    lf = build_level_family()
    fam = build_f_family(SturmianFibonacci(), 6, 4096, lf)
    handle = SturmianFibonacci()
    for n in range(1, 7):
        words = set()
        i = 0
        while True:
            try:
                words.add(fam.word(n, i, lf))
            except HorizonError:
                break
            i += 1
        assert words == handle.words(n)
        assert len(words) == n + 1  # Sturmian complexity


def test_f_family_full_shift_all_words_recur():
    lf = build_level_family()
    fam = build_f_family(FullShift(), 6, 4096, lf)
    for n in range(1, 7):
        seen = {}
        i = 0
        while True:
            try:
                w = fam.word(n, i, lf)
            except HorizonError:
                break
            seen.setdefault(w, []).append(i)
            i += 1
        assert len(seen) == 2 ** n
        assert all(len(v) >= 2 for v in seen.values())  # arises again


def test_f_family_interval_constancy_both_handles():
    lf = build_level_family()
    for handle in (FullShift(), SturmianFibonacci()):
        fam = build_f_family(handle, 4, 512, lf)
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
    lf = build_level_family()
    fam = build_f_family(FullShift(), 1, 64, lf)
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
    lf = build_level_family()
    fam = build_f_family(FullShift(), 4, 512, lf)
    # z = t_2 + 2^9: lowest set bit at position 2 = l^2_0 + 1, next at 10
    z = OdometerHead(SCALE6, (0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0))
    assert f6_eval(z, fam, lf) == fam.value(2, 9)
    # lowest set bit not matching any l^n_0 + 1: default letter a
    z2 = OdometerHead(SCALE6, (0, 0, 1, 0, 0, 0, 1, 0))
    assert f6_eval(z2, fam, lf) == "a"
    with pytest.raises(DepthError):
        f6_eval(OdometerHead(SCALE6, (0, 0, 0, 0)), fam, lf)
    with pytest.raises(DepthError):
        f6_eval(OdometerHead(SCALE6, (0, 1, 0, 0)), fam, lf)


def test_realize_prefix_full_shift():
    lf = build_level_family()
    fam = build_f_family(FullShift(), 6, 4096, lf)
    zhat = default_zhat6(64)
    t_w, letters = realize_prefix("ab", fam, lf, zhat)
    assert letters == "ab"
    assert t_w == 54  # smallest positive choice for the default base point
    t_w, letters = realize_prefix("a", fam, lf, zhat)
    assert letters == "a"


def test_realize_round_trip_both_handles():
    lf = build_level_family()
    fam_full = build_f_family(FullShift(), 6, 4096, lf)
    fam_st = build_f_family(SturmianFibonacci(), 6, 4096, lf)
    sturmian = SturmianFibonacci()
    zhat = default_zhat6(2048)
    for n in range(1, 7):
        for w in map("".join, itertools.product("ab", repeat=n)):
            _, letters = realize_prefix(w, fam_full, lf, zhat)
            assert letters == w
        for w in sorted(sturmian.words(n)):
            _, letters = realize_prefix(w, fam_st, lf, zhat)
            assert letters == w


def test_realize_rejects_non_language_words():
    lf = build_level_family()
    fam = build_f_family(SturmianFibonacci(), 4, 1024, lf)
    with pytest.raises(LanguageError):
        realize_prefix("bb", fam, lf, default_zhat6(256),
                       handle=SturmianFibonacci())


def test_realize_depth_guard():
    lf = build_level_family()
    fam = build_f_family(FullShift(), 4, 1024, lf)
    with pytest.raises(DepthError):
        realize_prefix("abab", fam, lf, default_zhat6(4))


# ---------------------------------------------------------------------------
# oracles: the per-level constructions, the cache-free head sets and the
# eager Sturmian table that the stage memos and lazy factors replaced


def oracle_build_d_stage(i):
    points = [DPoint((), 0)]
    for stage in range(i):
        m = 2 ** stage
        points += [DPoint(tuple(p.exponent(n) for n in range(1, m + l + 1)), m + l)
                   for l, p in enumerate(points)]
    return points


def oracle_head(p, depth):
    return tuple(p.digit(n) for n in range(1, depth + 1))


def oracle_head_set(stage, m):
    return frozenset(oracle_head(p, m) for p in stage.points)


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
    L = 0
    for m in range(1, len(digits) + 1):
        if digits[:m] not in heads(m):
            break
        L = m
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


def oracle_disjointness(stage, t_range, depth, samples, seed):
    rng = random.Random(seed)
    heads = OracleHeads(stage)
    modulus = level_product(SCALE5, depth)
    violations = []
    values = [oracle_value(oracle_head(p, depth)) for p in stage.points]
    for a, b in itertools.combinations(range(len(stage.points)), 2):
        pa, pb = stage.points[a], stage.points[b]
        span = max(len(pa.head_exponents), len(pb.head_exponents)) + 1
        if all(pa.exponent(n) == pb.exponent(n) for n in range(1, span + 1)):
            violations.append({"kind": "duplicate-point", "pair": [a, b]})
            continue
        off = (values[b] - values[a]) % modulus
        t = off if off <= t_range else (off - modulus
                                        if modulus - off <= t_range else None)
        if t is not None and t != 0:
            violations.append({"kind": "integer-translate", "pair": [a, b], "t": t})
    heads_sorted = sorted(heads(depth))
    small = {oracle_integer_head(t, depth)
             for t in range(-4 * t_range, 4 * t_range + 1)}
    checked = 0
    for _ in range(samples):
        ce = rng.randrange(len(heads_sorted))
        di = rng.randrange(len(stage.points))
        t = rng.randint(-t_range, t_range)
        z = oracle_integer_head(
            (oracle_value(heads_sorted[ce]) - values[di] - t) % modulus, depth)
        if len(set(z[depth // 2:])) == 1 or z in small:
            continue
        checked += 1
        source = heads_sorted.index(oracle_head(stage.points[di], depth))
        extra = [hit for hit in oracle_translate_hits(z, t_range, heads)
                 if hit != (source, t)]
        if extra:
            violations.append({"kind": "double-hit", "source": source,
                               "t": t, "z": list(z), "others": extra})
    return {"schema": 1, "stage": stage.index, "depth": depth,
            "t_range": t_range, "samples": samples, "checked": checked,
            "seed": seed, "violations": violations}


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


def test_stage_memos_and_lazy_factors_match_oracles():
    rng = random.Random(7)
    for i in range(2, 8):
        stage = build_d_stage(i)
        heads = OracleHeads(stage)
        assert list(stage.points) == oracle_build_d_stage(i)
        span = max(len(p.head_exponents) for p in stage.points) + 2
        for p in stage.points:
            for depth in (0, 1, len(p.head_exponents), span):
                assert p.head_at(depth).digits == oracle_head(p, depth)
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
                assert check_translate_disjointness(
                    stage, t_range, depth, 60, seed=i) == \
                    oracle_disjointness(stage, t_range, depth, 60, i)
    # a duplicate point and an integer translate (digits 3, 3, ... against
    # 1, 3, 3, ...) give all three violation kinds
    bad = DStage(3, build_d_stage(3).points + (DPoint((0,), 1), DPoint((1,), 1)))
    assert check_translate_disjointness(bad, 16, 12, 20, seed=2) == \
        oracle_disjointness(bad, 16, 12, 20, 2)
    factors = oracle_sturmian_factors()
    handle = SturmianFibonacci()
    for n in rng.sample(range(1, 65), 64):
        assert handle.words(n) == factors[n]
    for n in (0, 65):
        with pytest.raises(ValidationError, match="tabulated up to 64"):
            handle.words(n)
