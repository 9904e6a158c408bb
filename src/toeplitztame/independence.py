"""Arithmetic-progression independence schemes for non-tame substitution
shifts, the resulting independence times, and desk-scale verification that
every choice function is realized on fibre windows.

A scheme at power m consists of a letter set A, an arithmetic progression
j0 < j1 < j2 of column indices of theta^m whose middle and upper members
restrict to one and the same bijection of A, a proper subset
B = theta^m_{j0}(alphabet) of A, and an index i whose column sends the
whole alphabet into the part of A that j1 moves outside B.  The times
then alternate the digits j_{phi_n} and i in base L = l^m.

The search runs on the subset kernel's masks (bit t is the t-th sorted
letter): the k-sets come from the strata as masks, and each column of
theta^m is its tuple of image bits from ``substitution._column_bits``.

Pattern letters are read from the fibre windows theta^{m(2N+2)}(v) by
base-L digit descent: each position is split into its digits once and
they are walked for every vertex.  No window word is ever built, so
verification costs O(depth) per letter however long the windows are.

The times produced here are two-sided in general.  All-positive or
all-negative variants (witnessing forward or backward non-tameness alone)
require further telescoping until i < j0 < j1 < j2, which is not
implemented; the signs fall where the scheme puts them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import DepthError, PreconditionError, ValidationError
from .extended_bratteli import MAX_POWER_COLUMNS, _tail
from .gtheta import NON_TAME, tameness_verdict
from .substitution import (Substitution, _column_bits, _letters,
                           has_naive_order, substitution_power)


@dataclass(frozen=True)
class IndependenceScheme:
    base: Substitution          # the pure base the scheme lives on
    power: int
    working_length: int         # L = l ** power
    a_set: frozenset
    b_set: frozenset
    j0: int
    j1: int
    j2: int
    i: int

    @property
    def delta(self) -> int:
        return self.j1 - self.j0

    def to_json(self):
        return {"power": self.power, "L": self.working_length,
                "A": sorted(self.a_set), "B": sorted(self.b_set),
                "j0": self.j0, "j1": self.j1, "j2": self.j2,
                "delta": self.delta, "i": self.i}


def scheme_is_valid(s: IndependenceScheme) -> bool:
    """Recheck every invariant by direct column composition, independently
    of the search that produced the scheme."""
    theta_m = substitution_power(s.base, s.power)
    if s.working_length != theta_m.length:
        return False
    if not (0 <= s.j0 < s.j1 < s.j2 < s.working_length
            and 0 <= s.i < s.working_length):
        return False
    if s.j2 - s.j1 != s.j1 - s.j0:
        return False
    col = lambda c, a: theta_m.rule(a)[c]
    m1 = {a: col(s.j1, a) for a in s.a_set}
    m2 = {a: col(s.j2, a) for a in s.a_set}
    if m1 != m2:
        return False
    if frozenset(m1.values()) != s.a_set or len(set(m1.values())) != len(s.a_set):
        return False
    b = frozenset(col(s.j0, a) for a in theta_m.alphabet)
    if b != s.b_set or not b < s.a_set:
        return False
    target = {a for a in s.a_set if m1[a] not in s.b_set}
    image_i = {col(s.i, a) for a in theta_m.alphabet}
    return image_i <= target


def synthesize_scheme(theta, max_power: int = 6):
    """Search powers m <= max_power of the pure base for a scheme, in
    deterministic order (smallest m, then smallest |A|, then lexicographic
    (j0, j1, j2, i)).  Requires a non-tame verdict; None means the search
    was inconclusive, not that no scheme exists.
    """
    if max_power < 1:
        raise ValidationError(f"max_power must be >= 1, got {max_power}")
    report = tameness_verdict(theta)
    if report.verdict != NON_TAME:
        raise PreconditionError(
            f"independence schemes require a non-tame verdict, got {report.verdict}")
    base = report.pure_base
    strata = _tail(base)[1]
    # the extendable k-sets, k >= 2, in the subset order of the strata
    a_masks = [x for k in range(2, len(base.alphabet) + 1)
               for x in strata[k][0]]
    for m in range(1, max_power + 1):
        if base.length ** m > MAX_POWER_COLUMNS:
            break  # exhausted the tractable powers; report inconclusive
        maps = _column_bits(substitution_power(base, m))
        full = [sum(set(g)) for g in maps]
        for a in a_masks:
            found = _scan_progressions(maps, full, a)
            if found is not None:
                j0, j1, j2, i = found
                name = _letters(base.alphabet, (a, full[j0]))
                return IndependenceScheme(
                    base, m, len(maps), frozenset(name[a]),
                    frozenset(name[full[j0]]), j0, j1, j2, i)
    return None


def _scan_progressions(maps, full, a):
    """The first (j0, j1, j2, i) of a scheme on the mask ``a``, in search
    order; full[c] is the image of the alphabet under column c."""
    # k single bits whose OR (the sum of the distinct ones) is the k-bit
    # mask a are distinct, so they restrict the column to a bijection
    ts = [t for t in range(a.bit_length()) if a >> t & 1]
    rs = [tuple(g[t] for t in ts) for g in maps]
    restricted = {c: r for c, r in enumerate(rs) if sum(set(r)) == a}
    for j0, b in enumerate(full):
        if b == a or b & ~a:
            continue  # B must be a proper submask of A
        for j1, r in restricted.items():
            if j1 > j0 and restricted.get(2 * j1 - j0) == r:
                target = sum(1 << t for t, y in zip(ts, r) if not y & b)
                for i, image in enumerate(full):
                    if not image & ~target:
                        return j0, j1, 2 * j1 - j0, i
    return None


def independence_times(s: IndependenceScheme, n_times: int) -> list[int]:
    """t_0 = 0 and t_n = t_{n-1} + (j1 - i) L^{2n-1} + Delta L^{2n-2}.

    This is the stationary specialization of the general times, in which
    level-dependent data j1^{(2n)}, i_{2n}, Delta_{2n-1} appear and the
    powers of L are replaced by the products of the level lengths
    prod_{j<2n} l_j and prod_{j<2n-1} l_j; only the stationary instance is
    executed here.
    """
    if n_times < 0:
        raise ValidationError("need n >= 0")
    L = s.working_length
    times = [0]
    for n in range(1, n_times + 1):
        times.append(times[-1] + (s.j1 - s.i) * L ** (2 * n - 1)
                     + s.delta * L ** (2 * n - 2))
    if len(set(times)) != len(times):
        raise ValidationError("independence times are not pairwise distinct")
    return times


@dataclass(frozen=True)
class PatternWitness:
    phi: tuple[int, ...]
    vertex: str
    letters: str
    positions: tuple[int, ...]
    ok: bool

    def to_json(self):
        return {"phi": list(self.phi), "vertex": self.vertex,
                "letters": self.letters, "positions": list(self.positions),
                "ok": self.ok}


@dataclass(frozen=True)
class IndependenceReport:
    scheme: IndependenceScheme
    times: tuple[int, ...]
    patterns: tuple[PatternWitness, ...]
    complete: bool

    def to_json(self):
        return {"schema": 1, "scheme": self.scheme.to_json(),
                "times": list(self.times),
                "patterns": [p.to_json() for p in self.patterns],
                "complete": self.complete}


def verify_patterns(s: IndependenceScheme,
                    n_levels: int = 2) -> IndependenceReport:
    """For each choice function phi in {0,1}^(N+1) take the head whose
    base-L digits alternate j_{phi_n} and i, with index
    z = sum_n (j_{phi_n} + i L) L^(2n), read the fibre-window letter at
    every position z + t_n for every level vertex, and check it lies in
    B when phi_n = 0 and in A minus B when phi_n = 1.

    Each letter theta^{m(2N+2)}(v)[q] is read by digit descent, which
    walks the 2N+2 base-L digits of q through the columns of theta^m
    without building the window word; q is split into its digits once
    and walked for every vertex.
    """
    if not scheme_is_valid(s):
        raise PreconditionError("scheme fails its own invariants")
    if not has_naive_order(s.base):
        raise PreconditionError(
            "fibre-window verification needs the naive stationary order "
            "(common first and last letters)")
    rule = substitution_power(s.base, s.power).rules()
    L = s.working_length
    depth = 2 * n_levels + 2
    times = independence_times(s, n_levels)
    window_len = L ** depth
    weights = [L ** e for e in reversed(range(depth))]
    classes = (s.b_set, s.a_set - s.b_set)  # the letters phi_n = 0, 1 ask for

    witnesses = []
    complete = True
    for phi in itertools.product((0, 1), repeat=n_levels + 1):
        z = sum(((s.j0, s.j1)[b] + s.i * L) * L ** (2 * n)
                for n, b in enumerate(phi))
        positions = tuple(z + t for t in times)
        for t, q in zip(times, positions):
            if not 0 <= q < window_len:
                raise DepthError(
                    f"time {t} falls outside the depth-{depth} window")
        # each position's base-L digits, most significant first
        descents = [[q // w % L for w in weights] for q in positions]
        for v in rule:
            letters = []
            for digits in descents:
                c = v
                for d in digits:
                    c = rule[c][d]
                letters.append(c)
            ok = all(c in classes[b] for b, c in zip(phi, letters))
            complete = complete and ok
            witnesses.append(PatternWitness(phi, v, "".join(letters),
                                            positions, ok))
    return IndependenceReport(s, tuple(times), tuple(witnesses), complete)
