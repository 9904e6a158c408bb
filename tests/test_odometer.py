import random
from itertools import islice

import pytest
from hypothesis import given, strategies as st

from oracles import common_head_length, integer_head, truncate
from toeplitztame.errors import ValidationError
from toeplitztame.odometer import (OdometerHead, Scale, add_integer,
                                   head_index, level_product)

Z2 = Scale.constant(2)
Z4 = Scale.constant(4)
Z16 = Scale.constant(16)
P4 = Scale.powers(4)


def mixed_radix_oracle(t, scale, depth):
    # independent expansion: repeatedly peel the least significant digit
    digits = []
    for n in range(1, depth + 1):
        m = scale.modulus(n)
        digits.append(t % m)
        t //= m
    return tuple(digits)


def test_add_integer_examples():
    assert add_integer(OdometerHead(Z2, (1, 0, 0)), 1).digits == (0, 1, 0)
    assert add_integer(OdometerHead(P4, (3, 3)), 1).digits == (0, 4)
    assert add_integer(OdometerHead(Z4, (0, 0, 0)), -1).digits == (3, 3, 3)


def test_integer_head_examples():
    assert integer_head(5, Z2, 4).digits == (1, 0, 1, 0)
    assert integer_head(2 ** 3, Z2, 5).digits == (0, 0, 0, 1, 0)
    # frozen from the mixed-radix oracle: 76 = 12 + 4*16 + 0*256
    assert mixed_radix_oracle(76, Z16, 3) == (12, 4, 0)
    assert integer_head(76, Z16, 3).digits == (12, 4, 0)


def test_common_head_length_examples():
    a = OdometerHead(P4, (1, 1, 9))
    b = OdometerHead(P4, (1, 1, 1))
    assert common_head_length(a, b) == (2, False)
    c = OdometerHead(Z2, (1, 0, 1, 1))
    assert common_head_length(c, c) == (4, True)
    assert common_head_length(OdometerHead(Z4, (2,)), OdometerHead(Z4, (1,)))[0] == 0


def test_head_index_examples():
    # 1 + 10*16 + 1*256 + 10*4096 = 41377, the depth-4 shift offset used in
    # the worked fibre-window check
    h = OdometerHead(Z16, (1, 10, 1, 10))
    assert head_index(h) == 1 + 160 + 256 + 40960 == 41377
    assert head_index(OdometerHead(Z16, (0, 0, 0))) == 0
    assert head_index(OdometerHead(P4, (1,))) == 1


def test_digit_bounds_enforced():
    with pytest.raises(ValidationError):
        OdometerHead(Z4, (4,))
    with pytest.raises(ValidationError):
        OdometerHead(P4, (1, 16))
    OdometerHead(P4, (1, 15))


def test_explicit_scale():
    s = Scale.explicit([2, 3], Scale.constant(5))
    assert [s.modulus(n) for n in (1, 2, 3, 4)] == [2, 3, 5, 5]
    assert Scale.from_json(s.to_json()) == s
    assert Scale.from_json(Z16.to_json()) == Z16
    assert Scale.from_json(P4.to_json()) == P4


@pytest.mark.parametrize("obj", [
    {"kind": "constant", "l": 2.5}, {"kind": "constant", "l": "4"},
    {"kind": "constant", "l": True}, {"kind": "powers", "b": 4.0},
    {"kind": "explicit", "prefix": [2, 3.5], "tail": {"kind": "constant", "l": 2}},
])
def test_scale_rejects_non_integer_moduli(obj):
    with pytest.raises(ValidationError):
        Scale.from_json(obj)


scales = st.sampled_from([Z2, Z16, P4, Scale.explicit([3, 2], Z2),
                          Scale.explicit([2, 5], P4)])


@st.composite
def heads(draw, max_depth=8):
    scale = draw(scales)
    depth = draw(st.integers(1, max_depth))
    digits = tuple(draw(st.integers(0, scale.modulus(n) - 1))
                   for n in range(1, depth + 1))
    return OdometerHead(scale, digits)


@given(heads(), st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6))
def test_add_integer_associates_with_z(h, s, t):
    assert add_integer(add_integer(h, s), t) == add_integer(h, s + t)


@given(heads())
def test_add_integer_identity(h):
    assert add_integer(h, 0) == h


@given(heads(), st.integers(-10 ** 6, 10 ** 6), st.integers(1, 8))
def test_prefix_determinism(h, t, n):
    n = min(n, h.depth)
    assert truncate(add_integer(h, t), n) == add_integer(truncate(h, n), t)


@given(scales, st.integers(0, 10 ** 9), st.integers(1, 8))
def test_head_index_roundtrip(scale, t, depth):
    t %= level_product(scale, depth)
    assert head_index(integer_head(t, scale, depth)) == t


@given(heads(), st.integers(-10 ** 9, 10 ** 9), scales, st.integers(0, 12))
def test_arithmetic_heads_revalidate(a, t, scale, depth):
    # the heads of add_integer and integer_head pass the digit check
    # again when rebuilt
    for h in (add_integer(a, t), integer_head(t, scale, depth)):
        assert type(h.digits) is tuple
        assert OdometerHead(h.scale, h.digits) == h


# The per-level ``modulus(n)`` arithmetic that ``Scale.moduli()`` replaced,
# kept as an oracle.

def oracle_integer_head(t, scale, depth):
    digits = []
    c = t
    for n in range(1, depth + 1):
        c, d = divmod(c, scale.modulus(n))
        digits.append(d)
    return tuple(digits)


def oracle_add_integer(h, t):
    digits = []
    c = t
    for k, d in enumerate(h.digits):
        c, r = divmod(d + c, h.scale.modulus(k + 1))
        digits.append(r)
    return tuple(digits)


def oracle_head_index(h):
    total = 0
    weight = 1
    for k, d in enumerate(h.digits):
        total += d * weight
        weight *= h.scale.modulus(k + 1)
    return total


def oracle_level_product(scale, m):
    w = 1
    for n in range(1, m + 1):
        w *= scale.modulus(n)
    return w


ORACLE_SCALES = [
    Z2, Z16, P4, Scale.powers(3),
    Scale.explicit([3, 2, 5], Z4),
    Scale.explicit([2, 7], Scale.powers(2)),      # powers tail from level 3
    Scale.explicit([5, 2, 2, 9], Scale.powers(3)),
]


def test_moduli_arithmetic_matches_modulus_oracles():
    rng = random.Random(5)
    for scale in ORACLE_SCALES:
        for start in (1, 2, 3, 5, 8):
            assert list(islice(scale.moduli(start), 45)) == \
                [scale.modulus(n) for n in range(start, start + 45)]
        for depth in range(41):
            P = oracle_level_product(scale, depth)
            assert level_product(scale, depth) == P
            ts = [0, 1, -1, P - 1, P, -P, P + 1, -P - 1,
                  rng.randrange(P), -rng.randrange(1, 3 * P + 1),
                  rng.randrange(P + 1, 4 * P + 2)]
            for t in ts:
                h = integer_head(t, scale, depth)
                assert h.digits == oracle_integer_head(t, scale, depth)
                assert head_index(h) == oracle_head_index(h) == t % P
                s = rng.choice(ts) + rng.randint(-3, 3)
                assert add_integer(h, s).digits == oracle_add_integer(h, s)
            if depth:
                n = rng.randint(1, depth)
                m = scale.modulus(n)
                digits = list(integer_head(rng.randrange(P), scale, depth).digits)
                digits[n - 1] = m
                with pytest.raises(ValidationError) as err:
                    OdometerHead(scale, tuple(digits))
                assert str(err.value) == \
                    f"digit {m} at level {n} out of range [0, {m})"
