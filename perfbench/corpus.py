"""Seeded op streams for the four workloads.

One op is one CLI command on one input, given as the argv list that
``toeplitztame.cli.main`` receives.  A stream is drawn from
``random.Random(f"{workload}/{seed}")``, so the same seed gives the
same ops in the same order; a pinned stratum (see ``Stratum``) draws
from ``random.Random(f"{workload}/{stratum}")`` instead, the same for every
seed.  Strata are interleaved by smooth weighted round robin, so every
prefix of a stream holds them in about their weighted shares.  Inputs are
never filtered by how long they take; the only rejections are structural:
not primitive, a first-letter cycle outside the stratum, or a repeat within
the stream.
"""

from __future__ import annotations

import itertools
import json
import random
from math import gcd
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

LETTERS = "abcdefghijklmnop"
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Draws whose inputs the program rejects for a known defect stay in the
# stream; this one is also pinned so every independence run contains it.
KNOWN_DEFECT = {"a": "adaa", "b": "abca", "c": "acda", "d": "adba"}


@dataclass(frozen=True)
class Stratum:
    """Weights follow one rule: every stratum gets the same expected share
    of a run's time.  ``mean_ms`` is the stratum's mean op latency at the
    seed commit, as the first baseline recorded it (``baseline.py`` keeps
    the current figure in ``stratum_mean_ms``), and the weight is the
    number of such ops that fit in 10 s.

    A stratum is pinned when a 25 s run gives it fewer than 130 ops.  The
    standard deviation of op latency within a stratum reaches three times
    its mean (``stratum_cv`` in ``baseline.json``), so with fewer ops the
    few slow inputs a seed happens to draw move the stratum's time by a
    quarter or more, and moved a run's figures from seed to seed by as much
    as the benchmark's bounds.  A pinned stratum draws from a generator of
    its own that the seed does not touch, so every seed runs the same
    inputs of it at the same places of the stream; the other strata draw
    from the seed.  Every thickness stratum is pinned, so that workload's
    inputs do not depend on the seed.
    """
    name: str
    mean_ms: float
    why: str
    draw: Callable[[random.Random], list]   # rng -> argv
    limit: int | None = None                # distinct inputs that exist
    pinned: bool = False

    @property
    def weight(self) -> int:
        return max(1, round(10_000 / self.mean_ms))


def is_primitive(rules: dict) -> bool:
    """The letter graph a -> letters of theta(a) is strongly connected and
    its cycle lengths have gcd 1 (period read off breadth-first levels)."""
    start = next(iter(rules))
    level = {start: 0}
    order = [start]
    for a in order:
        for b in rules[a]:
            if b not in level:
                level[b] = level[a] + 1
                order.append(b)
    if len(level) < len(rules):
        return False
    back = {start}
    stack = [start]
    while stack:
        b = stack.pop()
        for a in rules:
            if a not in back and b in rules[a]:
                back.add(a)
                stack.append(a)
    if len(back) < len(rules):
        return False
    period = 0
    for a in rules:
        for b in rules[a]:
            period = gcd(period, level[a] + 1 - level[b])
    return period == 1


def shortest_first_letter_cycle(rules: dict) -> int:
    """Length q of the shortest cycle of the map a -> first letter of
    theta(a); the fixed-point prefix grows by a factor l^q per round."""
    best = len(rules)
    for a in rules:
        x = rules[a][0]
        for q in range(1, best + 1):
            if x == a:
                best = q
                break
            x = rules[x][0]
    return best


def random_rules(rng, n: int, l: int, q: int | None = None) -> dict:
    """A primitive substitution on n letters of length l.  With q, the
    first-letter map is forced to contain a q-cycle and no other cycle:
    q letters map round the cycle, the others map onto it.  Without q, the
    first letters are free among maps whose shortest cycle has length at
    most 2; longer cycles are the forced strata."""
    alphabet = LETTERS[:n]
    while True:
        first = {}
        if q:
            cycle = rng.sample(alphabet, q)
            first = {cycle[t]: cycle[(t + 1) % q] for t in range(q)}
            for a in alphabet:
                first.setdefault(a, rng.choice(cycle))
        rules = {}
        for a in alphabet:
            word = [rng.choice(alphabet) for _ in range(l)]
            if q:
                word[0] = first[a]
            rules[a] = "".join(word)
        if (q or shortest_first_letter_cycle(rules) <= 2) and is_primitive(rules):
            return rules


def all_free_rules(n: int, l: int) -> list:
    """Every substitution ``random_rules(rng, n, l)`` can draw, in order."""
    alphabet = LETTERS[:n]
    words = ["".join(w) for w in itertools.product(alphabet, repeat=l)]
    found = []
    for image in itertools.product(words, repeat=n):
        rules = dict(zip(alphabet, image))
        if shortest_first_letter_cycle(rules) <= 2 and is_primitive(rules):
            found.append(rules)
    return found


def naive_rules(rng, n: int, l: int) -> dict:
    """A primitive substitution in naive order: every rule starts with one
    common letter and ends with another common letter."""
    alphabet = LETTERS[:n]
    while True:
        f, g = rng.choice(alphabet), rng.choice(alphabet)
        rules = {a: f + "".join(rng.choice(alphabet) for _ in range(l - 2)) + g
                 for a in alphabet}
        if is_primitive(rules):
            return rules


def _inline(rules: dict) -> str:
    return json.dumps(rules, separators=(",", ":"))


def _analyze(n, l, q=None):
    return lambda rng: ["analyze", _inline(random_rules(rng, n, l, q))]


def _analyze_each(inputs):
    """Each input once, in an order drawn at the first op of the stratum."""
    pending = []

    def draw(rng):
        if not pending:
            pending.extend(rng.sample(inputs, len(inputs)))
        return ["analyze", _inline(pending.pop())]
    return draw


def _thickness(n, l):
    return lambda rng: ["thickness", _inline(naive_rules(rng, n, l))]


def _independence(n, l):
    return lambda rng: ["independence", _inline(naive_rules(rng, n, l)),
                        "--n", str(rng.randint(1, 3)), "--max-power", "3"]


# ---------------------------------------------------------------------------
# semicocycle draws

POWERS_OF_3 = {3 ** e for e in range(40)}


def _zhat5(rng) -> str:
    """Three digits over Z_((4^n)); the last one repeats at every deeper
    level and is no power of 3, so no translate is a D-point to full depth."""
    d1 = rng.randrange(4)
    d2 = rng.randrange(16)
    d3 = rng.choice([d for d in range(2, 64) if d not in POWERS_OF_3])
    return f"{d1},{d2},{d3}"


def _window(stage, width):
    def draw(rng):
        lo = rng.randint(-64, 64)
        return ["semicocycle", "window", "--stage", str(stage),
                "--zhat", _zhat5(rng), f"--range={lo}:{lo + width}"]
    return draw


def _disjoint(stage, depth, samples, t_range):
    return lambda rng: [
        "semicocycle", "disjoint", "--stage", str(stage),
        "--t-range", str(t_range), "--depth", str(depth),
        "--samples", str(samples), "--seed", str(rng.randrange(1 << 30))]


def _zhat6(rng) -> str:
    """Three to six binary digits; the command extends them alternately,
    so the deeper half of its first depth-8 probe is never constant."""
    return ",".join(str(rng.randrange(2)) for _ in range(rng.randint(3, 6)))


def _realize_full(rng):
    n = rng.randint(2, 6)
    word = "".join(rng.choice("ab") for _ in range(n))
    return ["semicocycle", "realize", "--lang", "full", "--word", word,
            "--n-max", "6", "--zhat", _zhat6(rng)]


def _fibonacci_factors(n: int) -> list:
    w = "a"
    while len(w) < 8 * n + 16:
        w = "".join("ab" if c == "a" else "a" for c in w)
    return sorted({w[i:i + n] for i in range(len(w) - n + 1)})


def _realize_sturmian(rng):
    n = rng.randint(2, 6)
    word = rng.choice(_fibonacci_factors(n))
    return ["semicocycle", "realize", "--lang", "sturmian", "--word", word,
            "--n-max", "6", "--zhat", _zhat6(rng)]


def _d_set(stages):
    pending = list(stages)
    return lambda rng: ["semicocycle", "d-set", "--stage", str(pending.pop(0))]


# ---------------------------------------------------------------------------
# workloads

def _strata(workload: str) -> list:
    if workload == "analyze-corpus":
        free = "free first letters (shortest cycle <= 2)"
        smallest = all_free_rules(3, 2)
        return [
            Stratum("free-3x2", 3.6, f"{free}, smallest size, each of its "
                    f"{len(smallest)} inputs once: periodic rejections and "
                    "one-column coincidences", _analyze_each(smallest),
                    limit=len(smallest)),
            Stratum("free-3x6", 10.7, f"{free}, longest rules", _analyze(3, 6)),
            Stratum("free-4x4", 8.8, f"{free}, mid size", _analyze(4, 4)),
            Stratum("free-4x5", 12.7, f"{free}, long rules", _analyze(4, 5),
                    pinned=True),
            Stratum("free-5x3", 9.9, f"{free}, 5 letters", _analyze(5, 3)),
            Stratum("free-5x4", 21.4, f"{free}, 5 letters, mid length",
                    _analyze(5, 4), pinned=True),
            Stratum("free-6x2", 9.0, f"{free}, largest alphabet, shortest "
                    "rules: subset-graph work is a large share",
                    _analyze(6, 2)),
            Stratum("free-6x3", 19.4, f"{free}, largest alphabet",
                    _analyze(6, 3), pinned=True),
            Stratum("free-6x4", 59.1, f"{free}, largest alphabet, mid length",
                    _analyze(6, 4), pinned=True),
            Stratum("q2-3x6", 24.3, "forced 2-cycle: each language round "
                    "multiplies the prefix by l^2 = 36", _analyze(3, 6, 2),
                    pinned=True),
            Stratum("q2-5x4", 20.4, "forced 2-cycle, 5 letters",
                    _analyze(5, 4, 2), pinned=True),
            Stratum("q3-3x3", 16.0, "forced 3-cycle: each language round "
                    "multiplies the prefix by l^3 = 27", _analyze(3, 3, 3),
                    pinned=True),
            Stratum("q3-4x3", 42.5, "forced 3-cycle, one letter off the cycle",
                    _analyze(4, 3, 3), pinned=True),
            Stratum("q3-5x3", 52.7, "forced 3-cycle, two letters off the cycle",
                    _analyze(5, 3, 3), pinned=True),
            Stratum("q4-4x2", 26.4, "crafted q = 4: one first-letter cycle "
                    "through the whole alphabet, rounds grow by l^4 = 16",
                    _analyze(4, 2, 4), pinned=True),
        ]
    if workload == "thickness-corpus":
        return [
            Stratum("naive-8x3", 61.8, "smallest subset graph (2^8 vertices)",
                    _thickness(8, 3), pinned=True),
            Stratum("naive-8x4", 110.6, "2^8 subsets with more columns",
                    _thickness(8, 4), pinned=True),
            Stratum("naive-8x5", 171.8, "2^8 subsets with the most columns",
                    _thickness(8, 5), pinned=True),
            Stratum("naive-9x3", 145.3, "2^9 subsets", _thickness(9, 3),
                    pinned=True),
            Stratum("naive-9x4", 249.2, "2^9 subsets, more columns",
                    _thickness(9, 4), pinned=True),
            Stratum("naive-10x3", 372.4, "2^10 subsets", _thickness(10, 3),
                    pinned=True),
            Stratum("naive-10x4", 548.2, "2^10 subsets, more columns",
                    _thickness(10, 4), pinned=True),
            Stratum("naive-11x3", 867.4, "2^11 subsets", _thickness(11, 3),
                    pinned=True),
            Stratum("naive-12x3", 2213.0, "2^12 subsets: each stratum rebuild "
                    "costs seconds", _thickness(12, 3), pinned=True),
            # |A| = 12, l = 4 (2-5 s an op) is left out: its equal share of
            # a 25 s run is at most one op, and naive-12x3 builds the
            # same 2^12 subset graph.
        ]
    if workload == "independence-corpus":
        ex22 = str(FIXTURES / "ex22.sub")
        fixed = [["independence", ex22, "--n", str(n)] for n in (1, 2, 3, 4)]
        fixed.append(["independence", _inline(KNOWN_DEFECT), "--n", "1",
                      "--max-power", "3"])
        return [
            Stratum("fixed", 103.0, "ex22 at N = 1..4 (windows materialised "
                    "up to N = 2, digit descent beyond) and the pinned "
                    "known-defect input", lambda rng: fixed.pop(0), limit=5,
                    pinned=True),
            Stratum("naive-3x4", 41.4, "small alphabet, mid-length rules",
                    _independence(3, 4), pinned=True),
            Stratum("naive-3x5", 8.1, "small alphabet, long rules",
                    _independence(3, 5)),
            Stratum("naive-4x3", 5.5, "4 letters, short rules; L = 9 or 27",
                    _independence(4, 3)),
            Stratum("naive-4x4", 42.9, "4 letters: L = 16 windows are "
                    "materialised", _independence(4, 4), pinned=True),
            Stratum("naive-5x3", 12.4, "largest alphabet, short rules",
                    _independence(5, 3)),
            Stratum("naive-5x5", 14.8, "largest alphabet, long rules",
                    _independence(5, 5)),
        ]
    if workload == "semicocycle-families":
        stages = list(range(2, 10))
        return [
            Stratum("d-set", 24.5, "D-stages 2..9, each once: the stage "
                    "recursion and its JSON", _d_set(stages),
                    limit=len(stages), pinned=True),
            Stratum("window-s5", 9.8, "129-letter f5 windows at stage 5 "
                    "(depth 32) on seeded base points", _window(5, 128)),
            Stratum("window-s7", 26.4, "65-letter f5 windows at stage 7 "
                    "(depth 128): deep head sets and head arithmetic",
                    _window(7, 64)),
            Stratum("disjoint-s3", 44.1, "disjointness evidence, stage 3 at "
                    "depth 24, 300 seeded samples", _disjoint(3, 24, 300, 16),
                    pinned=True),
            Stratum("disjoint-s5", 60.2, "disjointness evidence, stage 5 at "
                    "depth 16, 200 seeded samples", _disjoint(5, 16, 200, 8),
                    pinned=True),
            Stratum("realize-full", 5.4, "full-shift realization up to n = 6 "
                    "on seeded base points", _realize_full),
            Stratum("realize-sturmian", 19.8, "Sturmian realization up to "
                    "n = 6", _realize_sturmian),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("analyze-corpus", "thickness-corpus", "independence-corpus",
             "semicocycle-families")


def ops_per_second(workload: str) -> float:
    """Ops a run makes per second of op time: with the equal-time weights,
    the mean op latency is the number of unlimited strata over the sum of
    their rates."""
    rates = [1000 / s.mean_ms for s in _strata(workload) if s.limit is None]
    return sum(rates) / len(rates)


def strata_table(workload: str) -> list:
    """(name, weight, pinned, why) for each stratum of a workload."""
    return [(s.name, s.weight, s.pinned, s.why) for s in _strata(workload)]


def ops(workload: str, seed: int):
    """Endless stream of (stratum name, argv); argv lists never repeat."""
    rng = random.Random(f"{workload}/{seed}")
    strata = _strata(workload)
    rngs = {s.name: random.Random(f"{workload}/{s.name}") if s.pinned else rng
            for s in strata}
    used = {s.name: 0 for s in strata}
    credit = {s.name: 0 for s in strata}
    seen = set()
    while True:
        live = [s for s in strata if s.limit is None or used[s.name] < s.limit]
        total = sum(s.weight for s in live)
        for s in live:
            credit[s.name] += s.weight
        pick = max(live, key=lambda s: credit[s.name])
        credit[pick.name] -= total
        for _ in range(1000):
            argv = pick.draw(rngs[pick.name])
            key = tuple(argv)
            if key not in seen:
                break
        else:
            raise RuntimeError(f"stratum {pick.name} ran out of distinct inputs")
        seen.add(key)
        used[pick.name] += 1
        yield pick.name, argv
