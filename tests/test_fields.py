"""Field axioms and serialization, exhaustively over the finite fields."""

import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from metric_affine import fields
from metric_affine.fields import (GF2, GF3, GF4, GF5, GF7, QQ,
                                  PrimePowerField, field_make)

FINITE = (GF2, GF3, GF4, GF5, GF7)
# the table construction of GF(4) at degree 3 and in odd characteristic:
# GF(8) = F_2[t]/(t^3+t+1) and GF(9) = F_3[t]/(t^2+1), not offered as inputs
PRIME_POWERS = (PrimePowerField(2, (1, 1, 0, 1)), PrimePowerField(3, (1, 0, 1)))


@pytest.mark.parametrize("F", FINITE + PRIME_POWERS, ids=lambda F: F.name)
def test_field_axioms_exhaustive(F):
    els = F.elements()
    assert len(els) == F.order
    assert els[0] == F.zero and els[1] == F.one
    for a in els:
        assert F.add(a, F.zero) == a
        assert F.mul(a, F.one) == a
        assert F.add(a, F.neg(a)) == F.zero
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in els:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


@pytest.mark.parametrize("F", FINITE + PRIME_POWERS, ids=lambda F: F.name)
def test_inverses(F):
    for a in F.units():
        assert F.mul(a, F.inv(a)) == F.one
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero)


@pytest.mark.parametrize("F", (GF2, GF3, GF5, GF7), ids=lambda F: F.name)
def test_degree_one_tables_match_arithmetic_mod_p(F):
    # GF(p) = F_p[t]/(t) runs the tables; the integers mod p are the oracle
    p = F.char
    assert (F.name, F.order) == ("GF(%d)" % p, p)
    for a in range(p):
        assert F.neg(a) == -a % p
        if a:
            assert F.inv(a) == pow(a, p - 2, p)
        for b in range(p):
            assert (F.add(a, b), F.sub(a, b), F.mul(a, b)) == (
                (a + b) % p, (a - b) % p, a * b % p)
    for xs, ys in product(product(range(p), repeat=2), repeat=2):
        assert F.dot(xs, ys) == (xs[0] * ys[0] + xs[1] * ys[1]) % p
    ints = range(-2 * p, 2 * p + 1)
    assert [F.coerce(x) for x in ints] == [x % p for x in ints]


def test_every_finite_field_is_a_prime_power_field():
    finite = {F for F in fields._BY_NAME.values() if F.enumerable}
    assert finite == set(FINITE)
    assert all(type(F) is PrimePowerField for F in finite)


def test_gf4_is_not_z4():
    # additive order 2 everywhere, and the cubic roots of unity multiply
    # as t * t = t + 1, t * (t + 1) = 1
    t = 2
    assert GF4.add(t, t) == 0
    assert GF4.mul(t, t) == 3
    assert GF4.mul(t, 3) == 1
    assert GF4.char == 2 and GF4.order == 4
    # frozen multiplication table
    assert [[GF4.mul(a, b) for b in range(4)] for a in range(4)] == [
        [0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]


def test_characteristic():
    for F in FINITE:
        acc = F.zero
        for _ in range(F.char):
            acc = F.add(acc, F.one)
        assert acc == F.zero
    assert QQ.char == 0


@given(a=st.fractions(), b=st.fractions())
def test_rational_field_matches_fraction_arithmetic(a, b):
    assert QQ.add(a, b) == a + b
    assert QQ.mul(a, b) == a * b
    assert QQ.neg(a) == -a


@given(a=st.fractions())
def test_rational_json_roundtrip(a):
    assert QQ.from_json(QQ.to_json(a)) == a


def test_rational_to_json_prefers_ints():
    assert QQ.to_json(Fraction(4, 2)) == 2
    assert QQ.to_json(Fraction(1, 3)) == "1/3"
    assert QQ.parse("-7/2") == Fraction(-7, 2)


@pytest.mark.parametrize("F,token,value", [
    (GF3, "-1", 2), (GF3, "007", 1), (GF4, "3", 3), (QQ, "-1", Fraction(-1)),
    (QQ, "1/3", Fraction(1, 3)), (QQ, "-7/2", Fraction(-7, 2))])
def test_parse_reads_ascii_integers_and_fractions(F, token, value):
    assert F.parse(token) == value


@pytest.mark.parametrize("F", [GF3, QQ])
@pytest.mark.parametrize("token", ["1_0", "+1", "\u0663", "1e3", "1.5", " 2 ",
                                   "2\n", "", "-", "1/-2", "1e10000000"])
def test_parse_refuses_every_other_spelling(F, token):
    with pytest.raises(ValueError,
                       match=re.escape(F.name) + " numbers are spelt "):
        F.parse(token)


def test_rational_zero_denominator_is_a_value_error():
    for read in (QQ.parse, QQ.from_json):
        with pytest.raises(ValueError, match="^zero denominator in '1/0'$"):
            read("1/0")
    with pytest.raises(ValueError, match="^GF.3. numbers are spelt "):
        GF3.parse("1/3")


def test_field_make():
    assert field_make("GF(5)") is GF5
    assert field_make(" Q ") is QQ
    assert field_make("QQ") is QQ
    with pytest.raises(ValueError):
        field_make("GF(6)")


def test_field_make_shorthands():
    for short, F in (("2", GF2), ("3", GF3), ("4", GF4), ("5", GF5),
                     ("7", GF7), (" 3 ", GF3), ("QQ", QQ), ("rational", QQ)):
        assert field_make(short) is F
    for bad in ("6", "1", "GF(6)", "gf(3)", ""):
        with pytest.raises(ValueError, match="unknown field"):
            field_make(bad)


@pytest.mark.parametrize("bad", [3, 3.0, None, ["GF(3)"]])
def test_field_make_rejects_non_strings(bad):
    with pytest.raises(ValueError, match="must be a string"):
        field_make(bad)


def test_dot():
    assert GF3.dot((1, 2), (2, 2)) == (2 + 4) % 3
    assert GF4.dot((2, 3), (2, 3)) == GF4.add(3, 2)  # t^2 + (t+1)^2
    assert QQ.dot((Fraction(1, 2),), (Fraction(2, 3),)) == Fraction(1, 3)


def test_gf4_coerce_rejects_out_of_range():
    with pytest.raises(ValueError):
        GF4.coerce(4)


def test_gf4_sanity():
    # t * t = t + 1, t * (t + 1) = 1, (t + 1) * (t + 1) = t
    assert GF4.mul(2, 2) == 3 and GF4.mul(2, 3) == 1 and GF4.mul(3, 3) == 2
    assert all(GF4.mul(a, GF4.inv(a)) == 1 for a in (1, 2, 3))
    assert [GF4.inv(a) for a in (1, 2, 3)] == [1, 3, 2]


@pytest.mark.parametrize("F,modulus", zip(PRIME_POWERS + (GF4,), [
    (1, 1, 0, 1), (1, 0, 1), (1, 1, 1)]), ids=lambda v: getattr(v, "name", ""))
def test_t_is_a_root_of_the_modulus(F, modulus):
    # an element's code is its coefficients read as base-p digits, so
    # 1, t, ..., t^(k-1) are coded 1, p, ..., p^(k-1); and t solves the
    # modulus
    k = len(modulus) - 1
    assert (F.name, F.order) == ("GF(%d)" % F.char ** k, F.char ** k)
    powers = [F.one]
    for _ in range(k):
        powers.append(F.mul(powers[-1], F.char))
    assert powers[:k] == [F.char ** i for i in range(k)]
    value = F.zero
    for c, power in zip(modulus, powers):
        value = F.add(value, F.mul(c, power))
    assert value == F.zero


@pytest.mark.parametrize("p,modulus", [(2, (1, 0, 1)), (3, (2, 0, 1)),
                                       (3, (0, 0, 1))])
def test_prime_power_field_refuses_a_reducible_modulus(p, modulus):
    with pytest.raises(ValueError, match="not irreducible"):
        PrimePowerField(p, modulus)
