"""Exact digit arithmetic in odometer groups Z_((l_n)).

Digits are stored least-significant first: ``digits[k]`` is the coordinate
at level ``k + 1``, an integer in ``[0, l_{k+1})``.  Carries and borrows
propagate leftward only, so every operation on a depth-m head is exact: it
agrees with the same operation applied to any infinite extension of the
head.  All values are immutable and all operations are pure.

Every digit loop zips the digits with ``Scale.moduli()``, which yields
l_1, l_2, ... in O(1) each (a running product for powers scales), instead
of recomputing ``modulus(n)`` per digit.  ``add_integer`` copies the
remaining digits unchanged once the carry or borrow is 0, so adding a
small integer to a deep head divides only at its low levels.

The ``OdometerHead`` constructor range-checks every digit.  A scale holds
no memo of its moduli or level products: a scale can outlive a command,
as ``semicocycle.SCALE5`` does, and a table of level products would keep
O(depth^3) bits alive.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate, chain, count, islice, repeat

from .errors import ValidationError


def _is_modulus(m) -> bool:
    return type(m) is int and m >= 2


@dataclass(frozen=True)
class Scale:
    """The level moduli (l_n) of an odometer group.

    kind "constant": l_n = l for every n.
    kind "powers":   l_n = b ** n.
    kind "explicit": a finite prefix of moduli, then a constant or powers
    tail rule for every later level.
    """

    kind: str
    l: int | None = None
    b: int | None = None
    prefix: tuple[int, ...] = ()
    tail: "Scale | None" = None

    def __post_init__(self):
        if self.kind == "constant":
            if not _is_modulus(self.l):
                raise ValidationError("constant scale needs a modulus >= 2")
        elif self.kind == "powers":
            if not _is_modulus(self.b):
                raise ValidationError("powers scale needs a base >= 2")
        elif self.kind == "explicit":
            if not self.prefix or not all(map(_is_modulus, self.prefix)):
                raise ValidationError("explicit prefix moduli must be >= 2")
            if self.tail is None or self.tail.kind == "explicit":
                raise ValidationError("explicit tail must be constant or powers")
        else:
            raise ValidationError(f"unknown scale kind {self.kind!r}")

    @staticmethod
    def constant(l: int) -> "Scale":
        return Scale("constant", l=l)

    @staticmethod
    def powers(b: int) -> "Scale":
        return Scale("powers", b=b)

    @staticmethod
    def explicit(prefix, tail: "Scale") -> "Scale":
        return Scale("explicit", prefix=tuple(prefix), tail=tail)

    def modulus(self, n: int) -> int:
        """Modulus l_n at level n >= 1; total for every n."""
        if n < 1:
            raise ValidationError("levels are numbered from 1")
        if self.kind == "constant":
            return self.l
        if self.kind == "powers":
            return self.b ** n
        if n <= len(self.prefix):
            return self.prefix[n - 1]
        return self.tail.modulus(n)

    def moduli(self, start: int = 1):
        """Iterator over l_start, l_{start+1}, ...; O(1) per modulus."""
        if start < 1:
            raise ValidationError("levels are numbered from 1")
        if self.kind == "constant":
            return repeat(self.l)
        if self.kind == "powers":
            return accumulate(repeat(self.b), operator.mul,
                              initial=self.b ** start)
        return chain(self.prefix[start - 1:],
                     self.tail.moduli(max(start, len(self.prefix) + 1)))

    def to_json(self):
        if self.kind == "constant":
            return {"kind": "constant", "l": self.l}
        if self.kind == "powers":
            return {"kind": "powers", "b": self.b}
        return {"kind": "explicit", "prefix": list(self.prefix),
                "tail": self.tail.to_json()}

    @staticmethod
    def from_json(obj) -> "Scale":
        kind = obj.get("kind")
        if kind == "constant":
            return Scale.constant(obj["l"])
        if kind == "powers":
            return Scale.powers(obj["b"])
        if kind == "explicit":
            return Scale.explicit(obj["prefix"], Scale.from_json(obj["tail"]))
        raise ValidationError(f"unknown scale kind {kind!r}")


@dataclass(frozen=True)
class OdometerHead:
    """The first ``depth`` digits of a point of Z_((l_n))."""

    scale: Scale
    digits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple(self.digits))
        for n, d, m in zip(count(1), self.digits, self.scale.moduli()):
            if not 0 <= d < m:
                raise ValidationError(
                    f"digit {d} at level {n} out of range [0, {m})")

    @property
    def depth(self) -> int:
        return len(self.digits)


def add_integer(h: OdometerHead, t: int) -> OdometerHead:
    """Depth-m head of z + t for any point z extending h.

    Exact for positive and negative t alike: digit n of a sum depends only
    on digits <= n, and floor division makes borrows propagate leftward.
    """
    digits = []
    c = t
    for k, (d, m) in enumerate(zip(h.digits, h.scale.moduli())):
        if not c:
            return OdometerHead(h.scale, tuple(digits) + h.digits[k:])
        c, r = divmod(d + c, m)
        digits.append(r)
    return OdometerHead(h.scale, digits)


def head_index(h: OdometerHead) -> int:
    """Sum of z_k * l^(k-1) with l^(k) the product of the first k moduli."""
    total = 0
    weight = 1
    for d, m in zip(h.digits, h.scale.moduli()):
        total += d * weight
        weight *= m
    return total


def level_product(scale: Scale, m: int) -> int:
    """l^(m) = l_1 * ... * l_m."""
    return math.prod(islice(scale.moduli(), max(m, 0)))
