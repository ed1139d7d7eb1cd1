import random

import pytest

from groupsmith import perms
from groupsmith.errors import ParseError

from helpers import parity_by_inversions


def test_compose_applies_right_then_left():
    a = (1, 0, 2)
    b = (0, 2, 1)
    # (a*b)(i) = a(b(i))
    assert perms.compose(a, b) == (1, 2, 0)


def test_invert_roundtrip():
    rng = random.Random(1)
    for _ in range(50):
        m = rng.randrange(1, 9)
        p = tuple(rng.sample(range(m), m))
        assert perms.compose(p, perms.invert(p)) == perms.identity_perm(m)
        assert perms.compose(perms.invert(p), p) == perms.identity_perm(m)


def test_cycles_and_type():
    p = (1, 0, 3, 4, 2, 5)
    assert perms.cycles(p) == [(0, 1), (2, 3, 4)]


def test_parity_matches_inversion_oracle():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randrange(1, 12)
        p = tuple(rng.sample(range(m), m))
        assert perms.parity(p) == parity_by_inversions(p)


def test_render_parse_roundtrip():
    rng = random.Random(3)
    for base in (0, 1):
        for _ in range(50):
            m = rng.randrange(1, 10)
            p = tuple(rng.sample(range(m), m))
            s = perms.render_cycles(p, base=base)
            assert perms.parse_cycles(s, m, base=base) == p


def test_parse_cycles_one_based():
    assert perms.parse_cycles("(1 2)", 3, base=1) == (1, 0, 2)
    assert perms.parse_cycles("(1 2 3)", 3, base=1) == (1, 2, 0)
    assert perms.parse_cycles("()", 3, base=1) == (0, 1, 2)
    assert perms.parse_cycles("(0 1 2)", 3, base=0) == (1, 2, 0)


def test_parse_cycles_errors():
    with pytest.raises(ParseError):
        perms.parse_cycles("(1 2", 3, base=1)
    with pytest.raises(ParseError):
        perms.parse_cycles("(1 1)", 3, base=1)
    with pytest.raises(ParseError):
        perms.parse_cycles("(1 9)", 3, base=1)
    with pytest.raises(ParseError):
        perms.parse_cycles("(1)", 3, base=1)
    with pytest.raises(ParseError):
        perms.parse_cycles("1 2", 3, base=1)
