"""Constant-length substitutions: validation, primitivity, aperiodicity,
height and pure base, coincidences, fixed points, finite languages.

Letters are single characters so that words are plain strings; the pure
base of a height-h substitution relabels its h-blocks to fresh letters and
records the block table.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd

from .errors import (NotPrimitive, ParseError, PureBaseError,
                     StabilizationError, ValidationError)
from .graphs import period

LETTER_POOL = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


@dataclass(frozen=True)
class Substitution:
    """A map theta: A -> A^l, stored as the ordered alphabet plus one image
    word per letter (aligned with the alphabet)."""

    alphabet: tuple[str, ...]
    words: tuple[str, ...]

    def __post_init__(self):
        if not self.alphabet:
            raise ValidationError("empty alphabet")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValidationError("duplicate letters in alphabet")
        if any(len(a) != 1 for a in self.alphabet):
            raise ValidationError("letters must be single characters")
        if len(self.words) != len(self.alphabet):
            raise ValidationError("one image word per letter required")
        l = len(self.words[0])
        if l < 2:
            raise ValidationError("substitution length must be >= 2")
        letters = set(self.alphabet)
        for a, w in zip(self.alphabet, self.words):
            if len(w) != l:
                raise ValidationError(
                    f"rule for {a!r} has length {len(w)}, expected {l}")
            bad = set(w) - letters
            if bad:
                raise ValidationError(
                    f"rule for {a!r} uses letters outside the alphabet: {sorted(bad)}")
        object.__setattr__(self, "_rule", dict(zip(self.alphabet, self.words)))
        object.__setattr__(self, "_table", str.maketrans(self._rule))
        # one memo for everything derived from theta, each under its own key
        object.__setattr__(self, "_memo", {})

    @property
    def length(self) -> int:
        return len(self.words[0])

    def rule(self, a: str) -> str:
        return self._rule[a]

    def rules(self) -> dict:
        return dict(zip(self.alphabet, self.words))

    def to_json(self):
        return {"alphabet": list(self.alphabet), "rules": self.rules()}


def has_naive_order(theta: Substitution) -> bool:
    """Whether all rule words share their first letter and share their
    last letter, which makes the naive stationary order proper."""
    return (len({w[0] for w in theta.words}) == 1
            and len({w[-1] for w in theta.words}) == 1)


# ---------------------------------------------------------------------------
# letter subsets as bitmasks: bit t is the t-th letter of the sorted alphabet

# byte b -> the complement of b with its bits reversed
_FLIP8 = bytes(255 - int(f"{b:08b}"[::-1], 2) for b in range(256))


def _mask_key(x: int):
    """The frozenset order (size, then sorted letters) on masks of any
    width: of two masks of one popcount, the one holding the lowest
    differing bit comes first, and its bytes from the low end, each
    flipped by ``_FLIP8``, form the smaller string (neither string can be
    a prefix of the other)."""
    return x.bit_count(), x.to_bytes((x.bit_length() + 7) // 8,
                                     "little").translate(_FLIP8)


def _column_bits(theta: Substitution) -> list:
    """Per column of theta, the image of each sorted letter as a one-bit
    mask: the only place where letters become bits."""
    bit = {a: 1 << t for t, a in enumerate(sorted(theta.alphabet))}
    return [tuple(bit[c] for c in col) for col in
            zip(*(w for _, w in sorted(zip(theta.alphabet, theta.words))))]


def _letters(alphabet, xs) -> dict:
    """Each mask of ``xs`` to its letters, sorted, in the order given: the
    only place where bits become letters."""
    letters = sorted(alphabet)
    return {x: [a for t, a in enumerate(letters) if x >> t & 1] for x in xs}


def _image_tables(theta: Substitution):
    """Per column of theta, ceil(|A| / 8) byte tables, at least two, with
    the image of a mask x the OR of tables[b][x >> 8b & 255]: table b
    covers letters 8b .. 8b + 7 of the sorted alphabet and is built by
    doubling."""
    tables = []
    for col in _column_bits(theta):
        parts = []
        for start in range(0, max(len(col), 9), 8):
            img = [0]
            for bit in col[start:start + 8]:
                img += [y | bit for y in img]
            parts.append(img)
        tables.append(parts)
    return tables


def _closure(theta: Substitution):
    """The closure of {A} under single columns, memoised on ``theta``: one
    FIFO breadth-first search over masks, columns in increasing order.

    Returns (witness, found, arcs): ``found`` maps A and every reached set
    of more than one letter to the column word that first reached it,
    ``arcs`` lists (X, theta_i(X), i) for every reached X and column i with
    an image of more than one letter, and ``witness`` is the word of the
    first singleton image, or None.  Words are met in order of length, so
    each is a shortest one.  Only reached sets are visited."""
    if "closure" not in theta._memo:
        n = len(theta.alphabet)
        tables = _image_tables(theta)
        found = {(1 << n) - 1: ()}
        queue = deque(found)
        arcs = []
        witness = () if n == 1 else None
        while queue:
            x = queue.popleft()
            for i, parts in enumerate(tables):
                y = 0
                z = x
                for t in parts:
                    y |= t[z & 255]
                    z >>= 8
                if y & (y - 1):
                    arcs.append((x, y, i))
                    if y not in found:
                        found[y] = found[x] + (i,)
                        queue.append(y)
                elif witness is None:
                    witness = found[x] + (i,)
        theta._memo["closure"] = witness, found, arcs
    return theta._memo["closure"]


# ---------------------------------------------------------------------------
# parsing


def validate(raw) -> Substitution:
    """Build a Substitution from a rules mapping, a JSON-style dict, or
    rule-per-line text.  The alphabet is the ordered set of rule keys."""
    if isinstance(raw, Substitution):
        return raw
    if isinstance(raw, str):
        return parse_text(raw)
    if isinstance(raw, dict):
        rules = raw.get("rules", raw)
        if not isinstance(rules, dict) or not rules:
            raise ParseError("expected a non-empty rules mapping")
        for a, w in rules.items():
            if not isinstance(a, str):
                raise ParseError(f"rule key {a!r} must be a string, "
                                 f"got {type(a).__name__}")
            if not isinstance(w, str):
                raise ParseError(f"rule for {a!r} must be a string, "
                                 f"got {type(w).__name__}")
        return Substitution(tuple(rules), tuple(rules.values()))
    raise ParseError(f"cannot interpret {type(raw).__name__} as a substitution")


def parse_text(text: str) -> Substitution:
    """One rule per line: ``a -> aaca`` (whitespace optional)."""
    rules = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "->" not in line:
            raise ParseError(f"line {lineno}: expected 'letter -> word'")
        lhs, rhs = line.split("->", 1)
        a, w = lhs.strip(), rhs.strip()
        if a in rules:
            raise ParseError(f"line {lineno}: duplicate rule for {a!r}")
        rules[a] = w
    if not rules:
        raise ParseError("no rules found")
    alphabet = tuple(rules.keys())
    return Substitution(alphabet, tuple(rules[a] for a in alphabet))


# ---------------------------------------------------------------------------
# primitivity and language


def is_primitive(theta: Substitution) -> bool:
    """True iff the incidence matrix is primitive: the letter graph
    a -> letters of theta(a), one edge per column, has period 1.  The
    answer is memoised on ``theta`` like its languages."""
    if "primitive" not in theta._memo:
        edges = [(a, b, i) for a, w in zip(theta.alphabet, theta.words)
                 for i, b in enumerate(w)]
        theta._memo["primitive"] = period(theta.alphabet, edges) == 1
    return theta._memo["primitive"]


def first_letter_seed(theta: Substitution) -> tuple[int, str]:
    """Smallest power q and first letter (alphabet order) with theta^q(seed)
    starting with seed; exists for every substitution since the first-letter
    map eventually cycles."""
    first = {a: w[0] for a, w in zip(theta.alphabet, theta.words)}
    for q in range(1, len(theta.alphabet) + 1):
        for a in theta.alphabet:
            x = a
            for _ in range(q):
                x = first[x]
            if x == a:
                return q, a
    raise ValidationError("no first-letter cycle found")  # unreachable


def expand(theta: Substitution, word: str, k: int) -> str:
    for _ in range(k):
        word = word.translate(theta._table)
    return word


def fixed_point_prefix(theta: Substitution, min_len: int) -> tuple[str, int, str]:
    """(prefix, q, seed): a prefix of the one-sided fixed point of theta^q."""
    q, seed = first_letter_seed(theta)
    prefix = seed
    while len(prefix) < min_len:
        prefix = expand(theta, prefix, q)
    return prefix, q, seed


def language(theta: Substitution, n: int) -> frozenset:
    """All allowed words of length n for a primitive substitution.

    L_2 is the smallest set that holds the 2-factors of every theta(a) and
    holds theta(a)[-1] theta(b)[0] for each of its words ab.  This is exact:
    a 2-factor of theta^k(c) lies inside some theta(a) or across
    theta(a) theta(b), where ab is a 2-factor of theta^(k-1)(c).  For n >= 3
    every allowed n-word sits inside theta(w) for an allowed w of length
    m = ceil((n - 1) / l) + 1 < n, so L_n is the set of n-factors of those
    images.  Every word of L_m has length m, so L_m is joined into one
    string and expanded by a single translate; the n-factors are then
    sliced inside each l*m block of it, never across two blocks.  Results
    are memoized on ``theta``.
    """
    key = "language", n
    if key not in theta._memo:
        theta._memo[key] = _language(theta, n)
    return theta._memo[key]


def _language(theta: Substitution, n: int) -> frozenset:
    if n == 0:
        return frozenset({""})
    if n == 1:
        return frozenset(theta.alphabet)  # primitivity
    if n == 2:
        out = {w[i:i + 2] for w in theta.words for i in range(len(w) - 1)}
        todo = list(out)
        while todo:
            a, b = todo.pop()
            ab = theta.rule(a)[-1] + theta.rule(b)[0]
            if ab not in out:
                out.add(ab)
                todo.append(ab)
        return frozenset(out)
    m = -(-(n - 1) // theta.length) + 1
    block = theta.length * m
    text = expand(theta, "".join(language(theta, m)), 1)
    return frozenset([text[i:i + n] for start in range(0, len(text), block)
                      for i in range(start, start + block - n + 1)])


def complexity(theta: Substitution, n: int) -> int:
    return len(language(theta, n))


def is_aperiodic(theta: Substitution) -> tuple[bool, int]:
    """(flag, bound): Morse-Hedlund scan of the factor complexity up to
    n* = 2 * l * |A|^2.  Returns False as soon as p(n) <= n (an exact
    periodicity certificate); returns True when p(n) >= n + 1 holds up to
    the bound, which is recorded in the analysis report.

    The scan gallops: after p = p(n) with n < p <= n* it goes straight to
    length p.  The factor complexity of a minimal shift is non-decreasing,
    so every skipped length k (n < k < p) has p(k) >= p > k and cannot
    certify periodicity, and a skipped p(k) >= n* + 1 forces
    p(p) >= n* + 1 as well.  So the flag is that of the scan over every
    length, and the other languages built are the shorter ones that the
    recursion of ``language`` reads.
    """
    if not is_primitive(theta):
        raise NotPrimitive("aperiodicity test requires a primitive substitution")
    bound = 2 * theta.length * len(theta.alphabet) ** 2
    n = 1
    while n <= bound:
        p = complexity(theta, n)
        if p <= n:
            return False, bound
        if p >= bound + 1:
            # p is non-decreasing, so p(m) >= m + 1 for every m <= bound.
            return True, bound
        n = p
    return True, bound


# ---------------------------------------------------------------------------
# height and pure base


def height_and_pure_base(theta: Substitution):
    """(h, theta', blocks): the height and the pure base.

    h is the largest divisor, coprime to l, of the gcd of the return times
    of u_0 in a fixed-point prefix u; the gcd must be unchanged by one more
    application of theta (stabilization check).  For h > 1 the pure base
    acts on the distinct h-blocks of u, relabelled to fresh letters; the
    construction is validated by postconditions (length l, primitive,
    height 1) and never silently trusted.
    """
    l = theta.length
    prefix, q, seed = fixed_point_prefix(theta, l ** 4)
    g = _returns_gcd(prefix)
    if g == 1:
        # theta^q(prefix) starts with prefix, so its gcd divides 1 as well.
        return 1, theta, None
    longer = expand(theta, prefix, q)
    if _returns_gcd(longer) != g:
        raise StabilizationError("height gcd did not stabilize on the prefix")
    h = _coprime_part(g, l)
    if h == 1:
        return 1, theta, None

    u = longer
    blocks = []
    seen = {}
    for j in range(len(u) // h):
        b = u[j * h:(j + 1) * h]
        if b not in seen:
            seen[b] = True
            blocks.append(b)
    allowed = language(theta, h)
    # Close under chopping: theta of a block is l consecutive h-blocks.
    rules = {}
    queue = deque(blocks)
    while queue:
        b = queue.popleft()
        if b in rules:
            continue
        image = expand(theta, b, 1)
        chunks = [image[t * h:(t + 1) * h] for t in range(l)]
        for c in chunks:
            if c not in allowed:
                raise PureBaseError(
                    f"pure-base block {c!r} is not an allowed word")
            if c not in rules and c not in queue and c not in seen:
                seen[c] = True
                blocks.append(c)
                queue.append(c)
        rules[b] = chunks
    if len(blocks) > len(LETTER_POOL):
        raise PureBaseError("pure-base alphabet exceeds the letter pool")
    name = {b: LETTER_POOL[i] for i, b in enumerate(blocks)}
    theta_prime = Substitution(
        tuple(name[b] for b in blocks),
        tuple("".join(name[c] for c in rules[b]) for b in blocks))
    if not is_primitive(theta_prime):
        raise PureBaseError("constructed pure base is not primitive")
    hp, _, _ = height_and_pure_base(theta_prime)
    if hp != 1:
        raise PureBaseError(f"constructed pure base has height {hp}, not 1")
    return h, theta_prime, tuple(blocks)


def _returns_gcd(u: str) -> int:
    g = 0
    n = u.find(u[0], 1)
    while n > 0 and g != 1:
        g = gcd(g, n)
        n = u.find(u[0], n + 1)
    if g == 0:
        raise StabilizationError("no return of the fixed-point seed in the prefix")
    return g


def _coprime_part(g: int, l: int) -> int:
    d = gcd(g, l)
    while d > 1:
        g //= d
        d = gcd(g, l)
    return g


# ---------------------------------------------------------------------------
# coincidence


def shortest_collapsing_word(theta: Substitution):
    """Shortest column-index word collapsing the alphabet to one letter,
    or None: the witness of the memoised closure of {A}."""
    return _closure(theta)[0]


# ---------------------------------------------------------------------------
# powers


def substitution_power(theta: Substitution, m: int) -> Substitution:
    """theta^m, memoised on ``theta`` like its languages."""
    if m < 1:
        raise ValidationError("power must be >= 1")
    key = "power", m
    if key not in theta._memo:
        theta._memo[key] = Substitution(
            theta.alphabet, tuple(expand(theta, a, m) for a in theta.alphabet))
    return theta._memo[key]

