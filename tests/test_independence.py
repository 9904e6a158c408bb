import itertools
import random

import pytest

from oracles import (fixed_point_window, letter_in_power,
                     oracle_synthesize_scheme)
from toeplitztame.errors import PreconditionError, ToeplitzError
from toeplitztame.independence import (IndependenceScheme, independence_times,
                                       scheme_is_valid, synthesize_scheme,
                                       verify_patterns)
from toeplitztame.substitution import (Substitution, expand, has_naive_order,
                                       is_primitive, substitution_power,
                                       validate)


def pinned_recurrence_times(n_max):
    # frozen specialization: t_n = t_{n-1} - 5 * 16^(2n-1) + 4 * 16^(2n-2)
    times = [0]
    for n in range(1, n_max + 1):
        times.append(times[-1] - 5 * 16 ** (2 * n - 1) + 4 * 16 ** (2 * n - 2))
    return times


def test_synthesize_scheme_example(ex22):
    s = synthesize_scheme(ex22, max_power=3)
    assert (s.power, s.j0, s.j1, s.j2, s.i) == (2, 1, 5, 9, 10)
    assert s.a_set == frozenset("ab")
    assert s.b_set == frozenset("a")
    assert s.delta == 4
    assert s.working_length == 16
    assert scheme_is_valid(s)


def test_each_power_is_built_once_per_op(ex22, monkeypatch):
    # the search builds theta and theta^2; scheme_is_valid and
    # verify_patterns read theta^2 again from the memo on the base
    theta = validate(ex22.rules())
    built = []
    post_init = Substitution.__post_init__

    def counted(self):
        built.append(len(self.words[0]))
        post_init(self)

    monkeypatch.setattr(Substitution, "__post_init__", counted)
    verify_patterns(synthesize_scheme(theta), n_levels=2)
    assert built == [theta.length ** m for m in (1, 2)]


def test_scheme_invariants_by_direct_composition(ex22):
    s = synthesize_scheme(ex22)
    p2 = substitution_power(ex22, 2)
    for a in sorted(s.a_set):
        assert p2.rule(a)[s.j1] == p2.rule(a)[s.j2]
    assert {p2.rule(a)[s.j0] for a in p2.alphabet} == set(s.b_set)
    target = {a for a in s.a_set if p2.rule(a)[s.j1] not in s.b_set}
    assert {p2.rule(a)[s.i] for a in p2.alphabet} <= target


def test_synthesize_requires_non_tame(ex23):
    with pytest.raises(PreconditionError):
        synthesize_scheme(ex23)


def test_synthesize_other_example(ex217b):
    s = synthesize_scheme(ex217b, max_power=6)
    assert s is not None
    assert scheme_is_valid(s)


def test_tampered_scheme_rejected(ex22):
    # a wrong column i = j1, and two outside the L = 16 columns: i = -6
    # would read column 10 by negative indexing, i = 16 lies past the last
    s = synthesize_scheme(ex22)
    assert (s.working_length, s.i) == (16, 10)
    for i in (s.j1, -6, 16):
        bad = IndependenceScheme(s.base, s.power, s.working_length, s.a_set,
                                 s.b_set, s.j0, s.j1, s.j2, i)
        assert not scheme_is_valid(bad)
        with pytest.raises(PreconditionError, match="its own invariants"):
            verify_patterns(bad, n_levels=1)


def test_independence_times(ex22):
    s = synthesize_scheme(ex22)
    assert independence_times(s, 2) == [0, -76, -19532]
    assert independence_times(s, 0) == [0]
    assert independence_times(s, 4) == pinned_recurrence_times(4)
    # with j1 < i the times strictly decrease
    times = independence_times(s, 5)
    assert all(b < a for a, b in zip(times, times[1:]))


def test_verify_patterns_n1(ex22):
    s = synthesize_scheme(ex22)
    report = verify_patterns(s, n_levels=1)
    assert report.complete
    assert len(report.patterns) == 4 * 3
    by_phi = {}
    for p in report.patterns:
        assert p.ok
        by_phi.setdefault(p.phi, set()).add(p.letters)
    # classes are singletons here: B = {a}, A - B = {b}
    assert by_phi[(0, 1)] == {"ab"}
    assert by_phi[(1, 0)] == {"ba"}


def test_verify_patterns_n2(ex22):
    s = synthesize_scheme(ex22)
    report = verify_patterns(s, n_levels=2)
    assert report.complete
    assert len(report.patterns) == 8 * 3
    seen = {p.phi for p in report.patterns}
    assert seen == set(itertools.product((0, 1), repeat=3))
    for p in report.patterns:
        want = "".join("a" if b == 0 else "b" for b in p.phi)
        assert p.letters == want


def test_lazy_and_materialized_agree(ex22):
    # oracle: the depth-4 windows theta^(4m)(v), built whole with expand,
    # read at head positions summed digit by digit
    s = synthesize_scheme(ex22)
    report = verify_patterns(s, n_levels=1)
    theta_m = substitution_power(s.base, s.power)
    words = {v: expand(theta_m, v, 4) for v in theta_m.alphabet}
    times = independence_times(s, 1)
    want = []
    for phi in itertools.product((0, 1), repeat=2):
        digits = [d for b in phi for d in ((s.j0, s.j1)[b], s.i)]
        z = sum(d * s.working_length ** k for k, d in enumerate(digits))
        positions = tuple(z + t for t in times)
        for v in theta_m.alphabet:
            letters = "".join(words[v][q] for q in positions)
            ok = all(c in s.b_set if b == 0 else c in s.a_set - s.b_set
                     for b, c in zip(phi, letters))
            want.append((phi, v, letters, positions, ok))
    assert [(p.phi, p.vertex, p.letters, p.positions, p.ok)
            for p in report.patterns] == want


def test_patterns_occur_in_fixed_point(ex22):
    # every letters-at-times pattern must occur somewhere in the raw shift
    s = synthesize_scheme(ex22)
    report = verify_patterns(s, n_levels=1)
    times = list(report.times)
    radius = s.working_length ** 4
    window = fixed_point_window(ex22, radius)
    text, origin = window.text, window.origin
    found = set()
    lo = -min(times) if min(times) < 0 else 0
    for p0 in range(lo, len(text) - origin - max(times) - 1):
        found.add("".join(text[origin + p0 + t] for t in times))
    for p in report.patterns:
        assert p.letters in found


def test_verify_patterns_n3_lazy_windows(ex22):
    # depth-8 windows (16^8 symbols) are never built; digit descent
    # carries the whole verification
    s = synthesize_scheme(ex22)
    report = verify_patterns(s, n_levels=3)
    assert report.complete
    assert len(report.patterns) == 16 * 3
    assert list(report.times) == pinned_recurrence_times(3)
    for p in report.patterns:
        want = "".join("a" if b == 0 else "b" for b in p.phi)
        assert p.letters == want


def test_window_containment_asserted(ex22):
    s = synthesize_scheme(ex22)
    report = verify_patterns(s, n_levels=2)
    depth = 2 * 2 + 2
    for p in report.patterns:
        for q in p.positions:
            assert 0 <= q < s.working_length ** depth


def _naive_draw(rng, n, l):
    """A primitive substitution drawn as the independence corpus draws
    one: every rule starts with one common letter and ends with another."""
    alphabet = "abcde"[:n]
    while True:
        f, g = rng.choice(alphabet), rng.choice(alphabet)
        words = tuple(f + "".join(rng.choice(alphabet) for _ in range(l - 2)) + g
                      for _ in alphabet)
        theta = Substitution(tuple(alphabet), words)
        if is_primitive(theta):
            return theta


def _outcome(search, theta):
    try:
        return search(theta, max_power=3)
    except ToeplitzError as exc:
        return type(exc), str(exc)


def test_mask_search_matches_frozenset_oracle():
    # every scheme field, the None, or the error agrees with the frozenset
    # search; every pattern letter at N = 1, 2 agrees with the descent
    # oracle reading one letter at a time
    rng = random.Random(26)
    seen = set()
    outcomes = []
    while len(seen) < 800:
        theta = _naive_draw(rng, rng.randint(3, 5), rng.randint(3, 5))
        if theta in seen:
            continue
        seen.add(theta)
        s = _outcome(synthesize_scheme, theta)
        assert s == _outcome(oracle_synthesize_scheme, theta), theta
        outcomes.append(s)
        if not isinstance(s, IndependenceScheme) or not has_naive_order(s.base):
            continue
        theta_m = substitution_power(s.base, s.power)
        for n_levels in (1, 2):
            report = verify_patterns(s, n_levels)
            for p in report.patterns:
                assert p.letters == "".join(
                    letter_in_power(theta_m, p.vertex, 2 * n_levels + 2, q)
                    for q in p.positions), theta
    n_schemes = sum(isinstance(s, IndependenceScheme) for s in outcomes)
    assert n_schemes >= 300
    assert outcomes.count(None) >= 80
