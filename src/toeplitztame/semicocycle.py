"""The two semicocycle counterexample families.

First family (over Z_((4^n))): a recursively defined chain of point sets
D^0 subset D^1 subset ... whose closure D is a Cantor set; every digit of
a D-point is a power of 3, level n carrying an exponent of at most n - 1.
The recursion has a closed form: point p, the same point at every stage
i with p < 2^i, has exponent p beyond level p, and at level n <= p the
exponent p with its leading binary 1s stripped until it is below n.  So
a ``DPoint`` is one int and a ``DStage`` its index; no exponent is
stored, and no digit needs a range check, since 3^(n-1) < 4^n.
The semicocycle reads a when the longest head a D-point shares with z has
odd length, b otherwise.  Evaluation at a finite head is certified by
membership of the truncated heads in the stage's head sets: the head sets
Head_m are stable once the stage holds at least m points.  The same
closed form indexes the heads: the first m exponents of point p are those
of the point ``_exponent(p, m)`` below m, so Head_m holds the heads of
the points below m, each point's depth-m class is that point, and the
longest truncated head in its head set is a walk over the classes.
Distinct points have distinct tail exponents, so no two are equal.

Inside this module a head is one int: a public function turns its
``OdometerHead`` into one at entry.  Over the 4^n scale that is the head
value, each digit in its own bit field, so z + n has the value + n
modulo the level product, and the walk steps at the lowest set bit of
an XOR; over Z_2 it is the binary number of the digits.

Second family (over Z_2): a double sequence l^n_i with first row
l^1_i = 2^i - 1, closed under l^{n+1}_{2i} = l^n_{i + 2^{n-1}} with
midpoint interpolation on odd indices, times t_n = 2^(l^n_0), and a
family f^n of interval-constant functions built from any
right-extendable binary language so that the level-N interval words
enumerate that language.  ``LevelFamily`` reads l^n_i in closed form,
so the one instance ``LEVELS`` serves every reader, and ``FFamily``
keeps, per level, the row below the horizon, the letter of each interval
and each interval's word, built as its parent's word plus that letter.
Realizing a prescribed word y along the times amounts to placing the
orbit inside one interval, which the translation t_w below does exactly;
f^n is then read at the two lowest set bits of each shifted point.

Both constructions pick the concrete choices the output metadata records:
f^1 alternates strictly, below-domain values are constant a, and the
default non-integer base points are all-digits-2 respectively alternating
0,1.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, product
from math import isqrt

from .errors import (DepthError, HorizonError, LanguageError,
                     PreconditionError, ValidationError)
from .odometer import OdometerHead, Scale, level_product

SCALE5 = Scale.powers(4)
SCALE6 = Scale.constant(2)
# level entries an f-family may hold in all its rows together; the rows
# below a horizon H roughly double with each level until 2^(n-1) nears
# log2 H, so a large horizon and n_max can ask for 2^n_max entries
MAX_FAMILY_ENTRIES = 1 << 18


# ---------------------------------------------------------------------------
# the D-set over Z_((4^n))


def _exponent(p: int, n: int) -> int:
    """The exponent of point p at level n >= 1: p with its leading binary
    1s stripped until it is below n.  Every bit at or above the bit
    length k of n goes, and of the rest at most bit k - 1."""
    if p < n:
        return p
    k = n.bit_length()
    r = p & ((1 << k) - 1)
    return r if r < n else r & ((1 << (k - 1)) - 1)


def _runs(p: int, depth: int):
    """(e, count): the exponents of point p at levels 1..depth as runs of
    one value, in order.  The exponent at level n is the largest low part
    of p below n, 0 or p mod 2^(k+1) for a set bit k of p, so it steps up
    once per set bit."""
    e = done = 0
    for k in range(p.bit_length()):
        if p >> k & 1:
            cut = min(e | 1 << k, depth)
            yield e, cut - done
            e, done = e | 1 << k, cut
    yield e, depth - done


@dataclass(frozen=True)
class DPoint:
    """Point p of the D-set: its digit at level n is 3^e with e its
    ``exponent(n)``; its head runs up to level p and its tail exponent
    is p."""

    p: int

    @property
    def head_exponents(self) -> tuple[int, ...]:
        return self.exponents(self.p)

    @property
    def tail_exponent(self) -> int:
        return self.p

    def exponents(self, depth: int) -> tuple[int, ...]:
        """The exponents at levels 1..depth."""
        return tuple(chain.from_iterable((e,) * k for e, k in _runs(self.p, depth)))

    def to_json(self):
        return {"head_exponents": list(self.head_exponents),
                "tail_exponent": self.p}


@dataclass(frozen=True)
class DStage:
    """Stage ``index``: the points 0 .. 2^index - 1, whose heads are read
    from ``_exponent``, so the index is all it holds."""

    index: int

    @property
    def points(self) -> tuple[DPoint, ...]:
        return tuple(map(DPoint, range(1 << self.index)))

    def to_json(self):
        return {"stage": self.index, "points": [p.to_json() for p in self.points]}


def build_d_stage(i: int) -> DStage:
    """Stage i of the recursion: each point l of stage s spawns the point
    2^s + l, which repeats the exponents of l up to level 2^s + l and
    then 2^s + l beyond.  Unwound, that is ``_exponent``: at level n the
    exponent is at most n - 1."""
    if not 0 <= i <= 12:
        raise ValidationError("stages up to 12 are supported (2^i points)")
    return DStage(i)


def _class_points(stage: DStage, m: int) -> range:
    """The points q < min(m, 2^index), one per head in Head_m (at depth
    0, the point 0).  The first m exponents of point p are those of
    c = ``_exponent(p, m)`` < m, p's leading binary 1s being stripped
    before any level up to m reads them, and a point q < m has exponent
    q from level q + 1 on; so c is the depth-m class of p."""
    return range(min(max(m, 1), 1 << stage.index))


def _head_value(digits) -> int:
    """The head_index of a head over the 4^n scale: the digit at level
    k + 1 weighs l_1 ... l_k = 2^(k(k+1)) and is below 4^(k+1), so it
    fills bits k(k+1) .. k(k+1) + 2k + 1 of the value alone.  Blocks of
    fields (block i from level starts[i] + 1) merge in pairs, so each bit
    moves O(log depth) times, not once per digit."""
    values, starts = list(digits), list(range(len(digits)))
    while len(values) > 1:
        merged = [a | b << kb * (kb + 1) - ka * (ka + 1) for a, b, ka, kb in
                  zip(values[::2], values[1::2], starts[::2], starts[1::2])]
        values, starts = merged + values[2 * len(merged):], starts[::2]
    return values[0] if values else 0


def _head_digits(value: int, depth: int, start: int = 0) -> tuple[int, ...]:
    """The digits at levels start + 1 .. depth of the integer ``value`` over
    the 4^n scale, read from the bit fields of ``_head_value``."""
    return tuple(value >> k * (k + 1) & ((4 << 2 * k) - 1)
                 for k in range(start, depth))


def _class_value(c: int, depth: int, values: dict) -> int:
    """The head value at ``depth`` of class c < max(depth, 1), kept in
    ``values`` under (c, depth) for one call.  Class 0 has every digit 1,
    and class c >= 1 has the digits of class ``_exponent(c, c)`` below
    level c + 1 and 3^c from there on."""
    if (c, depth) not in values:
        low = (1 << c * (c + 1)) - 1
        values[c, depth] = (
            _class_value(_exponent(c, c), depth, values) & low
            | 3 ** c * (_class_value(0, depth, values) & ~low)
            if c else _head_value([1] * depth))
    return values[c, depth]


def _head_classes(stage: DStage, depth: int):
    """(the head values of Head_depth in digit order, class of each
    point): the class of point p is the rank of ``_exponent(p, depth)``
    among the points below depth, sorted by their exponents."""
    order = sorted(_class_points(stage, depth),
                   key=lambda q: DPoint(q).exponents(depth))
    rank = {q: r for r, q in enumerate(order)}
    point_class = [rank[_exponent(p, depth)] if depth > 0 else 0
                   for p in range(1 << stage.index)]
    values = {}
    return [_class_value(q, depth, values) for q in order], point_class


def _longest_head(stage: DStage, z: int, depth: int, values: dict) -> int:
    """The largest m <= depth whose first m digits of the head value z
    (modulo the level product) form a head in Head_m.  Past class c of
    those digits (0 at depth 0), Head_{m+1} holds the digit 3^c, and 3^m
    too where point m >= 1 is in the stage and leaves c there; z leaves
    c at the level m of the lowest set bit m(m+1) + r of their XOR."""
    size, c = 1 << stage.index, 0
    z &= (1 << depth * (depth + 1)) - 1
    while x := z ^ _class_value(c, depth, values):
        m = (isqrt(4 * (x & -x).bit_length() - 3) - 1) // 2
        if not (0 < m < size and _exponent(m, m) == c
                and z >> m * (m + 1) & ((4 << 2 * m) - 1) == 3 ** m):
            return m
        c = m
    return depth


def _evaluations(zhat: OdometerHead, n0: int, n1: int, stage: DStage):
    """(letter, confident) of ``f5_eval`` at zhat + n, n0 <= n <= n1: the
    scale is checked at the call, the head packed at the first offset."""
    if zhat.scale != SCALE5:
        raise ValidationError("first-family heads live over the 4^n scale")
    return _walk(zhat, n0, n1, stage)


def _walk(zhat: OdometerHead, n0: int, n1: int, stage: DStage):
    """The walk of ``_evaluations``: the head value of zhat + n is value +
    n modulo the level product, read from the low fields first: the first
    8 levels, then twice as many, until the head ends below them."""
    value, depth, values = _head_value(zhat.digits), zhat.depth, {}
    for n in range(n0, n1 + 1):
        d = min(8, depth)
        while (L := _longest_head(stage, value + n, d, values)) == d < depth:
            d = min(2 * d, depth)
        yield ("a" if L % 2 == 1 else "b"), 2 ** stage.index >= depth > L


def f5_eval(h: OdometerHead, stage: DStage):
    """(letter, confident): a iff the longest D-head matching h is odd.

    L is the largest m with head_m(h) in Head_m.  The value is confident
    when L < depth and the stage certifies every Head_m involved (stage
    points >= depth); a full-depth match could extend, so it is flagged.
    """
    return next(_evaluations(h, 0, 0, stage))


def toeplitz5_window(zhat: OdometerHead, n0: int, n1: int, stage: DStage) -> str:
    """The letters f(zhat + n), n0 <= n <= n1, all confident; positions
    whose evaluation the depth cannot certify are reported.  No position
    is confident past depth 2^i, and then the head is not packed."""
    walk = _evaluations(zhat, n0, n1, stage)
    evaluations = ([(None, False)] * (n1 - n0 + 1)
                   if 2 ** stage.index < zhat.depth else list(walk))
    failures = [n0 + k for k, (_, ok) in enumerate(evaluations) if not ok]
    if failures:
        raise DepthError(
            f"evaluation not certified at offsets {failures}; deepen the head/stage")
    return "".join(letter for letter, _ in evaluations)


def _translate(off: int, modulus: int, t_range: int):
    """The t with |t| <= t_range and t = off modulo modulus (0 <= off <
    modulus), preferring t >= 0; None when there is none."""
    if off <= t_range:
        return off
    if modulus - off <= t_range:
        return off - modulus
    return None


def _wrapped(vals, modulus: int) -> list:
    """The values (each below modulus) and the same values plus modulus,
    sorted: the table that ``_windows`` bisects, built once per check."""
    return sorted([*vals, *(v + modulus for v in vals)])


def _windows(wrapped: list, bases: list, modulus: int, t_range: int) -> list:
    """For each base, the (t, v) with v a value of the ``_wrapped`` table
    below modulus, |t| <= t_range and v = base + t modulo modulus,
    ascending in t.  A window [base - t_range, base + t_range] crossing 0
    or modulus is still one slice of the table.  When 2 t_range + 1 >=
    modulus the window holds every residue, and each value is taken once,
    with the ``_translate`` rule."""
    if 2 * t_range + 1 >= modulus:
        return [sorted((_translate((v - base) % modulus, modulus, t_range), v)
                       for v in wrapped[:len(wrapped) // 2]) for base in bases]
    found = []
    for base in bases:
        if base < t_range:
            base += modulus
        lo = bisect_left(wrapped, base - t_range)
        hi = bisect_right(wrapped, base + t_range, lo)
        found.append([(u - base, u % modulus) for u in wrapped[lo:hi]]
                     if lo < hi else ())
    return found


def _translate_hits(zval, vals, wrapped, modulus: int, t_range: int) -> list:
    """All (source class, t) with |t| <= t_range such that source + t + z
    agrees with some class value, sorted: for each source class, the class
    values within t_range of source + z, by bisection of their ``_wrapped``
    table.  Head arithmetic at a fixed depth is arithmetic modulo the
    product of the moduli, so each candidate is one residue comparison."""
    bases = [(sval + zval) % modulus for sval in vals]
    return [(sc, t) for sc, window in
            enumerate(_windows(wrapped, bases, modulus, t_range))
            for t, _ in window]


def _structural_violations(values: list, modulus: int, t_range: int) -> list:
    """Distinct points whose head values at the working depth differ by a
    small nonzero t, in the order of their index pairs."""
    found = []
    by_value = {}
    for a, v in enumerate(values):
        by_value.setdefault(v, []).append(a)
    near = _windows(_wrapped(by_value, modulus), list(by_value), modulus,
                    t_range)
    for (v, group), window in zip(by_value.items(), near):
        for _, w in window:
            if w <= v:
                continue  # each unordered pair of distinct values once
            for a, b in product(group, by_value[w]):
                a, b = min(a, b), max(a, b)
                t = _translate((values[b] - values[a]) % modulus, modulus, t_range)
                found.append({"kind": "integer-translate", "pair": [a, b], "t": t})
    found.sort(key=lambda f: f["pair"])
    return found


def _violations(head_value: list, point_class: list, depth: int,
                t_range: int, samples: int, seed: int) -> tuple[int, list]:
    """(checked samples, violations) for the points of the head classes
    ``point_class``, whose values at ``depth`` are ``head_value``."""
    rng = random.Random(seed)
    modulus = level_product(SCALE5, depth)
    values = [head_value[ci] for ci in point_class]
    violations = _structural_violations(values, modulus, t_range)
    # the integer t has the head value t mod the level product, so z is a
    # small integer iff zval or zval - modulus is within 4 t_range of 0
    small = 4 * t_range
    wrapped = _wrapped(head_value, modulus)
    checked = 0
    for _ in range(samples):
        ce = rng.randrange(len(head_value))
        di = rng.randrange(len(point_class))
        t = rng.randint(-t_range, t_range)
        zval = (head_value[ce] - values[di] - t) % modulus
        # integer-like samples are excluded (P2 covers those orbits); only
        # the deeper half of z is decoded to test it, and all of z only
        # for a violation
        if zval <= small or modulus - zval <= small \
                or len(set(_head_digits(zval, depth, depth // 2))) == 1:
            continue
        checked += 1
        source_class = point_class[di]
        planted = _translate_hits(zval, head_value, wrapped, modulus, t_range)
        extra = [hit for hit in planted if hit != (source_class, t)]
        if extra:
            violations.append({"kind": "double-hit", "source": source_class,
                               "t": t, "z": list(_head_digits(zval, depth)),
                               "others": extra})
    return checked, violations


def check_translate_disjointness(stage: DStage, t_range: int, depth: int,
                                 samples: int, seed: int = 0) -> dict:
    """Evidence for the unique-translate property: translates of a
    non-integer z hit D at most once.

    A structural pass first rejects stages with distinct points that are
    small nonzero integer translates of each other at the working depth.
    Then each sample aims one translate at a stage head on purpose
    (z = e - d - t) and scans all other (head, t) pairs exhaustively; any
    second hit is a reported violation.  Finite depth makes this
    evidence, not proof.
    """
    if t_range < 0 or samples < 0:
        raise ValidationError("t_range and samples must be non-negative")
    if depth < 0:
        raise ValidationError("depth must be >= 0")
    head_value, point_class = _head_classes(stage, depth)
    checked, violations = _violations(head_value, point_class, depth,
                                      t_range, samples, seed)
    return {"schema": 1, "stage": stage.index, "depth": depth,
            "t_range": t_range, "samples": samples, "checked": checked,
            "seed": seed, "violations": violations}


# ---------------------------------------------------------------------------
# the level family over Z_2


class LevelFamily:
    """The rows l^n_i: l^1_i = 2^i - 1, l^{n+1}_{2i} = l^n_{i + i_n} and
    the odd entries the midpoints; shift offsets are i_n = 2^(n-1) and
    the times are t_n = 2^(l^n_0).

    The recursion has a closed form: l^n_i is the first row, linearly
    interpolated, at the point n - 1 + i/2^(n-1).  The shift moves the
    point by one, a midpoint halves the step, and the two neighbours of
    a midpoint never straddle a first-row entry.  Segment j rises by 2^j,
    so every midpoint is an integer: with j = n - 1 + floor(i / 2^(n-1))
    and r = i mod 2^(n-1), l^n_i = 2^j - 1 + r 2^(j-n+1)."""

    def offset(self, n: int) -> int:
        return 2 ** (n - 1)

    def l(self, n: int, i: int) -> int:
        if n < 1 or i < 0:
            raise ValidationError("need n >= 1 and i >= 0")
        d = n - 1
        j = d + (i >> d)
        return (1 << j) - 1 + ((i & ((1 << d) - 1)) << (j - d))

    def time(self, n: int) -> int:
        return 2 ** self.l(n, 0)

    def row_to(self, n: int, bound: int) -> list[int]:
        """The entries l^n_i <= bound: first-row segment j >= n - 1 holds
        the 2^(n-1) entries range(2^j - 1, 2^(j+1) - 1, 2^(j-n+1)) of
        row n."""
        if n < 1:
            raise ValidationError("need n >= 1 and i >= 0")
        entries, d, j = [], n - 1, n - 1
        while (1 << j) - 1 <= bound:
            entries.extend(range((1 << j) - 1, min((2 << j) - 1, bound + 1),
                                 1 << (j - d)))
            j += 1
        return entries


# the one level family: it holds no state, so every reader shares it
LEVELS = LevelFamily()


# ---------------------------------------------------------------------------
# binary languages


class FullShift:
    """All binary words; every word is right special."""

    name = "full"

    def words(self, n: int) -> frozenset:
        return frozenset("".join(w) for w in product("ab", repeat=n))

    def extensions(self, w: str) -> str:
        return "ab"


class SturmianFibonacci:
    """Factors of the Fibonacci substitution a -> ab, b -> a; the one
    permitted non-constant-length substitution, quarantined here as a
    language source.  Complexity n + 1, one right-special word per length."""

    name = "sturmian"
    max_len = 64

    def __init__(self):
        w = "a"
        while len(w) < 4 * self.max_len + 16:
            w = w.replace("a", "A").replace("b", "a").replace("A", "ab")
        self._word = w
        self._longer = w.replace("a", "A").replace("b", "a").replace("A", "ab")
        self._factors = {}

    def words(self, n: int) -> frozenset:
        """The length-n factors, computed and checked on first request:
        the factor set of the Fibonacci prefix must equal that of the
        next, longer Fibonacci word."""
        if not 1 <= n <= self.max_len:
            raise ValidationError(f"factors only tabulated up to {self.max_len}")
        factors = self._factors.get(n)
        if factors is None:
            w, longer = self._word, self._longer
            factors = frozenset(w[i:i + n] for i in range(len(w) - n + 1))
            if factors != frozenset(longer[i:i + n]
                                    for i in range(len(longer) - n + 1)):
                raise ValidationError("Fibonacci factor set did not stabilize")
            self._factors[n] = factors
        return factors

    def extensions(self, w: str) -> str:
        longer = self.words(len(w) + 1)
        return "".join(c for c in "ab" if w + c in longer)


# ---------------------------------------------------------------------------
# the f-family


@dataclass(frozen=True)
class FFamily:
    """f^1..f^n_max, constant on the level intervals, below a horizon.

    Index n - 1 of each tuple holds level n.  The level-n interval i is
    [l^n_i, l^n_{i+1}); below l^n_0, f^n is the constant a.  ``value``
    bisects a row."""

    handle_name: str
    n_max: int
    horizon: int
    # rows[n-1]: every l^n_i <= horizon
    rows: tuple[tuple[int, ...], ...]
    # letters[n-1][i]: f^n on interval i, for each interval that starts
    # below the horizon
    letters: tuple[str, ...]
    # words[n-1][i]: f^1 ... f^n on interval i, for each interval that ends
    # by the horizon
    words: tuple[tuple[str, ...], ...]

    def _check_level(self, n: int) -> None:
        if not 1 <= n <= self.n_max:
            raise ValidationError(f"f^{n} not built (n_max {self.n_max})")

    def value(self, n: int, x: int) -> str:
        self._check_level(n)
        if x >= self.horizon:
            raise HorizonError(f"f^{n}({x}) beyond horizon {self.horizon}")
        i = bisect_right(self.rows[n - 1], x) - 1
        return self.letters[n - 1][i] if i >= 0 else "a"

    def to_json(self):
        # the choices that pin one shift among the family
        return {"language": self.handle_name, "n_max": self.n_max,
                "horizon": self.horizon,
                "choices": {"f1": "alternating", "below_domain": "a"}}


def build_f_family(handle, n_max: int, horizon: int) -> FFamily:
    """The constructive recursion: f^1 alternates a, b on consecutive
    first-row intervals; f^{N+1} splits the interval pair of a right
    special word a-then-b and otherwise copies the unique extension;
    below its domain it is the constant a.

    The level-(N+1) intervals 2j and 2j+1 split the level-N interval
    j + i_N (l^{N+1}_{2j} = l^N_{j + i_N}), so each interval word is its
    parent's word plus one letter, and the extensions of the parent's
    word give both letters.  The work is linear in the number of
    intervals below the horizon, not in the horizon.

    A horizon at or below l^n_max_1 is refused first; a family whose
    rows would hold more than MAX_FAMILY_ENTRIES entries in all is
    refused before the row that would pass it is built."""
    if n_max < 1:
        raise ValidationError(f"n_max must be >= 1, got {n_max}")
    if horizon <= LEVELS.l(n_max, 1):
        raise HorizonError("horizon too small for the requested levels")
    rows, letters, words = [], [], []
    count = total = 2
    for n in range(1, n_max + 1):
        if total + count > MAX_FAMILY_ENTRIES:
            raise HorizonError(
                f"levels 1..{n} below the horizon need more than "
                f"{MAX_FAMILY_ENTRIES} level entries; lower the horizon "
                f"or n_max")
        row = LEVELS.row_to(n, horizon)
        total += len(row)
        # l^{n+1}_{2m} = l^n_{m + i_n} is the first entry past the horizon
        # for m = len(row) - i_n, so row n + 1 holds at most 2m + 1 entries
        count = 2 * (len(row) - LEVELS.offset(n)) + 1
        started = bisect_left(row, horizon)
        if n == 1:
            level = ("ab" * started)[:started]
            started_words = list(level)
        else:
            # one extension query per distinct parent word, in the order
            # of the first occurrences, so a failing word fails first
            off = LEVELS.offset(n - 1)
            parents = started_words[off:off + (started + 1) // 2]
            pair = {}
            for w in dict.fromkeys(parents):
                exts = handle.extensions(w)
                if not exts:
                    raise LanguageError(f"{w!r} has no right extension")
                pair[w] = "ab" if len(exts) == 2 else exts[0] * 2
            level = "".join(map(pair.__getitem__, parents))[:started]
            started_words = [None] * started
            started_words[0::2] = [w + c for w, c in zip(parents, level[0::2])]
            started_words[1::2] = [w + c for w, c in zip(parents, level[1::2])]
        rows.append(tuple(row))
        letters.append(level)
        words.append(tuple(started_words[:len(row) - 1]))
    return FFamily(getattr(handle, "name", "user"), n_max, horizon,
                   tuple(rows), tuple(letters), tuple(words))


# ---------------------------------------------------------------------------
# evaluation and realization over Z_2


def f6_eval(z: OdometerHead, fam: FFamily) -> str:
    """The second-family semicocycle at a binary head: inside the support
    cylinder of t_n (zeros below the 1-bit of t_n) the value is
    f^n(common head length with t_n); elsewhere it is a.

    The lowest set bit of z decides which support, if any, contains z; the
    head length with t_n is then the index of the second set bit.
    """
    if z.scale != SCALE6:
        raise ValidationError("second-family heads live over Z_2")
    return _f6(int("0" + "".join(map(str, z.digits[::-1])), 2), fam)


def _f6(z: int, fam: FFamily) -> str:
    if not z:
        raise DepthError("all digits zero: membership undecidable at this depth")
    low = (z & -z).bit_length() - 1
    n = (low + 1).bit_length()  # l^n_0 = 2^(n-1) - 1 is low here, if anywhere
    if LEVELS.l(n, 0) != low:
        return "a"
    if not (rest := z & (z - 1)):
        raise DepthError(
            f"inside the level-{n} support but the head length is unresolved")
    return fam.value(n, (rest & -rest).bit_length() - 1)


def realization_interval(y: str, fam: FFamily) -> tuple[int, int]:
    """(lo, hi): the first level-n interval [l^n_i, l^n_{i+1}), i >= 1,
    whose word is y, n = len(y), taken from the family table (i = 0 would
    collide with the 1-bit of t_n).  A base point realizing y needs
    depth > hi + 1."""
    n = len(y)
    if n < 1:
        raise ValidationError("need a non-empty word")
    if set(y) - {"a", "b"}:
        raise LanguageError("words are over the letters a, b")
    fam._check_level(n)
    try:
        i = fam.words[n - 1].index(y, 1)
    except ValueError:
        raise LanguageError(
            f"{y!r} was not realized by any level-{n} interval within the "
            f"horizon") from None
    return LEVELS.l(n, i), LEVELS.l(n, i + 1)


def realize_prefix(y: str, fam: FFamily, interval: tuple[int, int],
                   zhat: OdometerHead):
    """(t_w, letters): a translation t_w such that the shifted base orbit
    reads y along the times t_1..t_N, checked by direct evaluation.

    The interval [lo, hi) is the ``realization_interval`` of y, which the
    caller looks up once; t_w is the smallest positive integer making the
    first lo digits of t_w + zhat zero with the next digit nonzero.
    """
    lo, hi = interval
    if zhat.depth < hi + 2:
        raise DepthError(f"zhat must have depth > {hi + 1}")
    if len(set(zhat.digits[zhat.depth // 2:])) == 1:
        raise PreconditionError("zhat looks eventually constant at this depth")
    zval = int("0" + "".join(map(str, zhat.digits[::-1])), 2)
    t_w = -zval % (1 << lo)
    if not (zval + t_w) >> lo & 1:
        t_w += 1 << lo
    elif not t_w:
        t_w = 2 << lo  # 2^lo would clear bit lo again
    return t_w, "".join(_f6((zval + t_w + LEVELS.time(k)) % (1 << zhat.depth),
                            fam) for k in range(1, len(y) + 1))


def default_zhat6(depth: int) -> OdometerHead:
    """The documented default base point over Z_2: alternating digits
    0, 1, 0, 1, ... (manifestly non-integer)."""
    return OdometerHead(SCALE6, tuple(k % 2 for k in range(depth)))


def default_zhat5(depth: int) -> OdometerHead:
    """The documented default base point over Z_((4^n)): every digit 2 (no
    D-point carries a digit 2 at level 1)."""
    return OdometerHead(SCALE5, tuple(2 for _ in range(depth)))
