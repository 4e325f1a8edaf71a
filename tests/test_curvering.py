import random
import sys
import threading

import pytest

from agcodec.code import curve_from_config, rational_points
from agcodec.curvering import (WEIGHT_CAP, Curve, Monomial, Semigroup,
                               _prime_reduce, _reduced)
from agcodec.gf import Field

from support import (LARGE_MK_FAMILIES, MK_FAMILIES, gaps_below,
                     lattice_divides, naive_reduce, random_ring_element,
                     reference_lcms, reference_prime_reduce, schoolbook_mul)

#: semigroups <a, b> the divisibility rules are checked on: Hermitian
#: (a, a + 1) weights, and two with b more than one past a
DIVISIBILITY_SEMIGROUPS = [(2, 3), (3, 4), (4, 5), (5, 6), (3, 7), (7, 8)]


class TestCurveConstruction:
    def test_hermitian_q3(self, curve_q3):
        assert (curve_q3.a, curve_q3.b) == (3, 4)
        assert curve_q3.field.order == 9
        # y^3 + y - x^4 = 0: d = -1, single coefficient c_{0,1} = 1
        assert curve_q3.d == -curve_q3.field.one
        assert curve_q3.coeffs == {Monomial(0, 1): curve_q3.field.one}

    def test_hermitian_q2(self):
        curve = Curve.hermitian(2)
        assert (curve.a, curve.b) == (2, 3)
        assert curve.field.order == 4

    def test_not_coprime(self):
        field = Field(3, 2)
        with pytest.raises(ValueError):
            Curve(field, 2, 2, field.one, {})

    def test_zero_d(self):
        field = Field(3, 2)
        with pytest.raises(ValueError):
            Curve(field, 2, 3, field.zero, {})

    def test_d_from_another_field(self):
        field = Field(3, 2)
        with pytest.raises(ValueError, match="d must belong to the field"):
            Curve(field, 2, 3, Field(2, 2).one, {})

    def test_hermitian_order_cap(self):
        # refused before q is factored by trial division
        with pytest.raises(ValueError, match="exceeds cap"):
            Curve.hermitian(2 ** 61 - 1)
        with pytest.raises(ValueError, match="not a prime power"):
            Curve.hermitian(6)

    def test_weight_cap(self):
        # a and b are refused before the per-weight tables are built; the
        # largest Hermitian weights the field cap admits pass
        with pytest.raises(ValueError, match="exceed cap"):
            Semigroup(10 ** 9, 1)
        with pytest.raises(ValueError, match="exceed cap"):
            Semigroup(2, WEIGHT_CAP + 1)
        assert Semigroup(256, 257).y_degrees[1] == 1
        assert len(Semigroup(WEIGHT_CAP, 1).y_degrees) == WEIGHT_CAP

    @pytest.mark.parametrize("a,b", [(True, 3), (2.0, 3), (2, "3")])
    def test_weights_must_be_integers(self, a, b):
        # True built a curve with a = True, 2.0 raised a TypeError
        field = Field(5)
        with pytest.raises(ValueError, match="weights must be integers"):
            Curve(field, a, b, field.one, {})
        with pytest.raises(ValueError, match="weights must be integers"):
            Semigroup(a, b)

    @pytest.mark.parametrize("a,b", [(0, 1), (-1, 2)])
    def test_weights_must_be_positive(self, a, b):
        with pytest.raises(ValueError, match="weights must be positive"):
            Semigroup(a, b)

    @pytest.mark.parametrize("key", [(0.5, 0), (0,), (0, 0, 0), (True, 0),
                                     "ab"])
    def test_coefficient_key_must_be_an_integer_pair(self, key):
        # (0.5, 0) raised a TypeError and (0,) a bare unpacking ValueError
        field = Field(5)
        with pytest.raises(ValueError, match="coeffs key"):
            Curve(field, 2, 3, field.one, {key: field.one})

    def test_coefficient_must_be_a_field_element(self):
        field = Field(3, 2)
        with pytest.raises(ValueError, match="coeffs entry"):
            Curve(field, 2, 3, field.one, {(0, 0): 1})

    def test_zero_coefficients_are_dropped(self):
        field = Field(3, 2)
        curve = Curve(field, 2, 3, field.one, {(0, 0): field.zero})
        assert curve.coeffs == {}

    def test_coefficient_outside_region(self):
        field = Field(3, 2)
        with pytest.raises(ValueError):
            Curve(field, 2, 3, field.one, {(3, 0): field.one})  # 2*3 >= 6


def mk_a3_gf7():
    """y^3 + 2y + 5xy + y^2 + 4x^2 + 6xy^2 + 3x^4 = 0 over GF(7): the y^3
    rewrite has six terms, three of them with a y factor."""
    field = Field(7)
    coeffs = {(0, 1): 2, (1, 1): 5, (0, 2): 1, (2, 0): 4, (1, 2): 6}
    return Curve(field, 3, 4, field.element(3),
                 {m: field.element(c) for m, c in coeffs.items()})


def mk_a4_gf7():
    """y^4 + x^5 + 2xy = 0 over GF(7): a=4, b=5."""
    field = Field(7)
    return Curve(field, 4, 5, field.one, {(1, 1): field.element(2)})


#: Hermitian curves and every MK_FAMILIES curve, by name
NAMED_CURVES = sorted(MK_FAMILIES) + ["hermitian-q2", "hermitian-q3",
                                      "hermitian-q4"]


def named_curve(name):
    if name.startswith("hermitian"):
        return Curve.hermitian(int(name[-1]))
    curve, _ = curve_from_config(MK_FAMILIES[name])
    return curve


REFERENCE_CURVES = {
    "hermitian-q3": lambda: Curve.hermitian(3),
    "hermitian-q4": lambda: Curve.hermitian(4),
    "mk-a3-gf7": mk_a3_gf7,
    "mk-a4-gf7": mk_a4_gf7,
}

#: REFERENCE_CURVES and the LARGE_MK_FAMILIES curves, whose rewrites of y^a
#: have 2-4 y-terms, over GF(8), GF(16), GF(32) and the list field GF(27)
REDUCTION_CURVES = REFERENCE_CURVES | {
    name: lambda config=config: curve_from_config(config)[0]
    for name, config in LARGE_MK_FAMILIES.items()}


class TestReduction:
    def test_y_cubed(self, curve_q3):
        one = curve_q3.field.one
        reduced = curve_q3.reduce({(0, 3): one})
        assert reduced == curve_q3.monomial(4, 0) - curve_q3.monomial(0, 1)

    def test_y_fourth_matches_multiply_oracle(self, curve_q3):
        one = curve_q3.field.one
        y = curve_q3.monomial(0, 1)
        y3 = curve_q3.reduce({(0, 3): one})
        assert curve_q3.reduce({(0, 4): one}) == y * y3

    def test_idempotent_on_reduced(self, curve_q3):
        f = curve_q3.monomial(5, 0)
        assert curve_q3.reduce({(5, 0): curve_q3.field.one}) == f

    def test_against_naive_long_division(self, curve_q3):
        rng = random.Random(11)
        elems = curve_q3.field.elements()
        for _ in range(40):
            raw = {(rng.randrange(7), rng.randrange(9)):
                   elems[rng.randrange(1, 9)] for _ in range(6)}
            assert curve_q3.reduce(raw) == naive_reduce(curve_q3, raw)

    def test_negative_exponents_rejected(self, curve_q3):
        # without the check x^-1 is keyed by the gap -3 (its str raises),
        # and y^-1 is read as y^2, since -1 % 3 = 2
        one = curve_q3.field.one
        with pytest.raises(ValueError, match="negative exponent"):
            curve_q3.monomial(-1, 0)
        with pytest.raises(ValueError, match="negative exponent"):
            curve_q3.reduce({(2, -1): one})
        # checked before the coefficient, so a zero term is refused too
        with pytest.raises(ValueError, match="negative exponent"):
            curve_q3.reduce({(2, -1): curve_q3.field.zero})

    def test_exponents_must_be_integers(self, curve_q3):
        # a bool is no integer (monomial(True, 0) was x), and a float or a
        # string raised TypeError
        for i, j in ((True, 0), (0, False), (1.0, 0), (0, 2.5), ("1", 0)):
            with pytest.raises(ValueError, match="exponents must be integers"):
                curve_q3.monomial(i, j)
        with pytest.raises(ValueError, match="exponents must be integers"):
            curve_q3.reduce({(True, 0): curve_q3.field.one})

    def test_coefficient_from_another_field_rejected(self):
        # a GF(9) element on a GF(4) curve printed as a^1*x and failed only
        # in leading_coefficient; an int is no element either
        curve = Curve.hermitian(2)
        for coeff in (Field(3, 2).generator, Field(3, 2).zero, 1):
            with pytest.raises(ValueError, match="coefficient"):
                curve.monomial(1, 0, coeff)
        with pytest.raises(ValueError, match="coefficient"):
            curve.reduce({(1, 0): Field(3, 2).one})
        # an equal field built apart is the same field
        assert curve.monomial(1, 0, Field(2, 2).generator) == \
            curve.monomial(1, 0, curve.field.generator)
        # a zero coefficient of the field gives the zero element
        assert curve.monomial(1, 2, curve.field.zero).is_zero

    @pytest.mark.parametrize("name", NAMED_CURVES)
    def test_equation_reduces_to_zero(self, name):
        # every term of the reduced y^a cancels against the other terms
        curve = named_curve(name)
        assert curve.reduce(curve.equation_terms()).is_zero

    def test_high_y_power_is_not_recursive(self):
        # y^5001 is y times (y^2)^2500 folded in a loop, not one call deep
        # per power; it agrees with x * y^5001 at every rational point
        curve, _ = curve_from_config(MK_FAMILIES["a2-gf5"])
        c = curve.field.element(3)
        f = curve.reduce({(1, 5001): c})
        assert f.delta() == 2 + 3 * 5001
        for x, y in rational_points(curve):
            assert f.evaluate(x, y) == c * x * y ** 5001

    def test_general_curve_reduction(self):
        # Curve.reduce against long division, y-degrees up to 3a+1; on a
        # fresh curve a high power of y is asked for first, then lower ones
        for name in sorted(REDUCTION_CURVES):
            curve = REDUCTION_CURVES[name]()
            a, elems = curve.a, curve.field.elements()
            for j in [3 * a + 1, 2 * a, a, 2 * a + 1, 3 * a]:
                raw = {(0, j): curve.field.one}
                assert curve.reduce(raw) == naive_reduce(curve, raw)
            rng = random.Random(name)
            for _ in range(25):
                raw = {(rng.randrange(6), rng.randrange(3 * a + 2)):
                       elems[rng.randrange(1, curve.field.order)]
                       for _ in range(5)}
                assert curve.reduce(raw) == naive_reduce(curve, raw)


class TestRingArithmetic:
    def test_x_times_x(self, curve_q3):
        x = curve_q3.monomial(1, 0)
        assert x * x == curve_q3.monomial(2, 0)

    def test_y2_times_y(self, curve_q3):
        y = curve_q3.monomial(0, 1)
        y2 = curve_q3.monomial(0, 2)
        assert y2 * y == curve_q3.monomial(4, 0) - y

    def test_y2_times_y2(self, curve_q3):
        y2 = curve_q3.monomial(0, 2)
        expected = curve_q3.monomial(4, 1) - curve_q3.monomial(0, 2)
        assert y2 * y2 == expected

    def test_delta_examples(self, curve_q3):
        assert curve_q3.monomial(1, 0).delta() == 3
        assert curve_q3.monomial(0, 1).delta() == 4
        assert curve_q3.one().delta() == 0
        assert curve_q3.zero().delta() is None

    def test_zero_has_no_lead(self, curve_q3):
        with pytest.raises(ValueError, match="no leading monomial"):
            curve_q3.zero().leading_monomial()
        with pytest.raises(ValueError, match="no leading coefficient"):
            curve_q3.zero().leading_coefficient()

    def test_other_operands_are_not_ring_elements(self, curve_q3):
        # the operators return NotImplemented, so Python raises or compares
        # by identity
        y = curve_q3.monomial(0, 1)
        with pytest.raises(TypeError):
            y * "x"
        with pytest.raises(TypeError):
            3 * y
        assert not y == 3
        assert not curve_q3 == 3

    def test_delta_laws(self, curve_q3):
        rng = random.Random(5)
        for _ in range(40):
            f = random_ring_element(curve_q3, rng)
            g = random_ring_element(curve_q3, rng)
            if f.is_zero or g.is_zero:
                continue
            assert (f * g).delta() == f.delta() + g.delta()
            assert (f + g).delta() <= max(f.delta(), g.delta())

    @pytest.mark.parametrize("name", sorted(REFERENCE_CURVES))
    def test_lead_factor_is_the_product_lead(self, name):
        # one, or -d once the y-degrees wrap past a
        curve = REFERENCE_CURVES[name]()
        sg = curve.semigroup
        monos = [Monomial(i, j) for i in range(3) for j in range(curve.a)]
        for r in monos:
            for t in monos:
                product = schoolbook_mul(curve.monomial(*r),
                                         curve.monomial(*t))
                assert product.leading_coefficient() == \
                    curve.lead_factor(sg.degree(r), sg.degree(t))

    def test_threads_racing_for_a_multiple_keep_one_value(self):
        # an element builds each multiple y^j * e on first need and keeps
        # it, and decodes in threads share a code's etas: threads that race
        # to build a multiple may each build it, but must all get y^j * e
        curve = Curve.hermitian(4)
        rng = random.Random(44)
        raw = {(i, j): curve.field.elements()[rng.randrange(1, 16)]
               for i in range(300) for j in range(4)}
        want = [curve.reduce(raw) * curve.monomial(0, j) for j in (1, 2, 3)]
        shared = curve.reduce(raw)
        orders = [(3, 1, 2), (1, 2, 3), (2, 3, 1)] * 3
        got = [[] for _ in orders]
        start = threading.Barrier(len(got))

        def work(out, degrees):
            start.wait(timeout=60)
            out.extend(shared * curve.monomial(0, j) for j in degrees)
        threads = [threading.Thread(target=work, args=args)
                   for args in zip(got, orders)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [[want[j - 1] for j in degrees] for degrees in orders]

    @pytest.mark.parametrize("family", ["hermitian-q2", "norm-trace-gf27"])
    def test_coefficient_reads_refuse_non_integers(self, family):
        # on a byte field and a list field: a bool was read as an order or
        # exponent ((y + 1).coefficient((0, True)) gave y's coefficient),
        # and a float raised the vector's TypeError ("byte indices must be
        # integers", "list indices must be integers")
        curve = (Curve.hermitian(2) if family == "hermitian-q2"
                 else curve_from_config(LARGE_MK_FAMILIES[family])[0])
        f = curve.monomial(0, 1) + curve.one()
        for s in (True, False, 1.0, 0.0, "1", None):
            with pytest.raises(ValueError,
                               match="pole order must be an integer"):
                f.coefficient_at(s)
        for m in ((0, True), (True, 0), (0.0, 0), (0, 1.0), ("0", 0)):
            with pytest.raises(ValueError, match="exponents must be integers"):
                f.coefficient(m)
        # integer orders and exponents out of range still read zero
        one = curve.field.one
        assert f.coefficient_at(0) == f.coefficient_at(curve.b) == one
        assert f.coefficient((0, 1)) == f.coefficient((0, 0)) == one
        for s in (-1, 1, curve.b + 1, 10 ** 6):
            assert f.coefficient_at(s).is_zero
        for m in ((-1, 0), (0, -1), (0, curve.a), (10 ** 6, 0)):
            assert f.coefficient(m).is_zero

    def test_mixed_curves_rejected(self, curve_q3):
        other = Curve.hermitian(2)
        with pytest.raises(ValueError):
            curve_q3.one() + other.one()
        assert curve_q3.one() != other.one()

    @pytest.mark.parametrize("which", ["x", "y", "both"])
    @pytest.mark.parametrize("element", ["zero", "constant", "y"])
    def test_evaluate_refuses_a_foreign_field(self, element, which):
        # every element checks both coordinates, the zero element too,
        # whose value never touches them
        curve = Curve.hermitian(2)
        f = {"zero": curve.zero(), "constant": curve.one(),
             "y": curve.monomial(0, 1)}[element]
        native, foreign = curve.field.one, Field(3).one
        x = foreign if which in ("x", "both") else native
        y = foreign if which in ("y", "both") else native
        with pytest.raises(ValueError, match="different field"):
            f.evaluate(x, y)
        # an equal field built apart is the same field
        same = Field(2, 2).one
        assert f.evaluate(same, same) == f.evaluate(native, native)


class TestZeroMultiples:
    """The zero element is the empty list: its multiples y^j * 0 are too,
    and a product of zero adds nothing to a sum (``RingElement._times_y``,
    ``RingElement._plus``)."""

    @pytest.mark.parametrize("name", NAMED_CURVES)
    def test_times_y_of_zero_is_zero(self, name):
        # asked twice, so a multiple kept from the first ask is checked too
        curve = named_curve(name)
        zero = curve.zero()
        for _ in range(2):
            for j in range(1, curve.a):
                multiple = zero._times_y(j)
                assert multiple.is_zero and multiple.delta() is None
                assert multiple == zero

    @pytest.mark.parametrize("name", NAMED_CURVES)
    def test_plus_skips_zero_products(self, name):
        # a zero product at every y-degree j < a, alone, after a sum and
        # before a nonzero product, which then sets the result's scale
        curve = named_curve(name)
        a, b, c = curve.a, curve.b, curve.field.generator
        zero = curve.zero()
        x = curve.monomial(1, a - 1, c) + curve.one()
        for j in range(a):
            t = a + b * j  # x * y^j
            assert zero._plus((zero, t, c)).is_zero
            assert x._plus((zero, t, c)) == x
            assert zero._plus((zero, t, c), (x, t, c)) == \
                x * curve.monomial(1, j, c)


def mk_a3_gf131():
    """y^3 + 5y + 7xy + 3x^2 + 2x^4 = 0 over the list field GF(131):
    d = 2 != -1, so a product whose y-degrees wrap past 3 leads with -2."""
    field = Field(131)
    coeffs = {(0, 1): 5, (1, 1): 7, (2, 0): 3}
    return Curve(field, 3, 4, field.element(2),
                 {m: field.element(c) for m, c in coeffs.items()})


#: curves the reduction call is checked on: byte fields of characteristic
#: 2 and of odd characteristic, GF(16) and GF(25), with d != -1, and the
#: list fields GF(81), Hermitian, and GF(131), with d != -1
REDUCTION_CALL_CURVES = {
    "twisted-hermitian-gf16": lambda: curve_from_config(
        LARGE_MK_FAMILIES["twisted-hermitian-gf16"])[0],
    "a2-gf25": lambda: curve_from_config(MK_FAMILIES["a2-gf25"])[0],
    "hermitian-q9": lambda: Curve.hermitian(9),
    "mk-a3-gf131": mk_a3_gf131,
}


def two_plus_reduction(up, down, e_up, e_down, t, c, cf):
    """A reduction's two sides as two ``_plus`` calls, none for a zero
    e_up, each scaled by cf: the form ``_reduced`` replaces."""
    if not e_up.is_zero:
        up = up._plus((e_up, t, c))
    return up * cf, down._plus((e_down, t, c)) * cf


class TestReductionCall:
    """``_reduced`` builds both sides of a reduction in one call, equal to
    two ``_plus`` calls and two scalings by cf in value, pole order and
    lead coefficient."""

    @staticmethod
    def assert_matches(*args):
        got, want = _reduced(*args), two_plus_reduction(*args)
        for side, other in zip(got, want):
            assert side == other
            assert side.delta() == other.delta()
            if not other.is_zero:
                assert side.leading_coefficient() == \
                    other.leading_coefficient()
        return got

    @pytest.mark.parametrize("name", sorted(REDUCTION_CALL_CURVES))
    def test_matches_two_plus_calls(self, name):
        curve = REDUCTION_CALL_CURVES[name]()
        sg, a, zero = curve.semigroup, curve.a, curve.zero()
        elems = curve.field.elements()
        rng = random.Random(name)
        nongaps = [s for s in range(3 * a * curve.b) if sg.is_nongap(s)]
        for _ in range(30):
            up, down, e_up, e_down = (random_ring_element(curve, rng)
                                      for _ in range(4))
            t = rng.choice(nongaps)
            c, cf = (elems[rng.randrange(1, curve.field.order)]
                     for _ in range(2))
            self.assert_matches(up, down, e_up, e_down, t, c, cf)
            # a zero G up part: the up side only takes the scale
            up_side, _ = self.assert_matches(up, down, zero, e_down, t, c,
                                             cf)
            assert up_side == up * cf
            # a zero side takes the whole product
            self.assert_matches(zero, zero, e_up, e_down, t, c, cf)

    @pytest.mark.parametrize("name", sorted(REDUCTION_CALL_CURVES))
    def test_wraps_past_a(self, name):
        # phi(t) of y-degree j times a top-row e lands past y^(a-1), so its
        # lead takes -d, which is not one on every curve but the Hermitian
        curve = REDUCTION_CALL_CURVES[name]()
        sg, a, b = curve.semigroup, curve.a, curve.b
        assert (curve.d == -curve.field.one) is (name == "hermitian-q9")
        elems = curve.field.elements()
        e = curve.monomial(2, a - 1, elems[3]) + curve.monomial(1, 1)
        for j in range(1, a):
            t = a + b * j  # x * y^j
            assert sg.y_degrees[t % a] == j
            assert curve.lead_factor(t, e.delta()) == -curve.d
            up = curve.monomial(9, a - 1, elems[5])
            down = curve.monomial(8, a - 1, elems[2]) + curve.one()
            self.assert_matches(up, down, e, e * elems[4], t, elems[2],
                                elems[6])

    @pytest.mark.parametrize("name", sorted(REDUCTION_CALL_CURVES))
    def test_a_sum_that_cancels_is_zero(self, name):
        curve = REDUCTION_CALL_CURVES[name]()
        a, b = curve.a, curve.b
        elems = curve.field.elements()
        rng = random.Random(name)
        e_up = random_ring_element(curve, rng)
        e_down = random_ring_element(curve, rng)
        c, cf = elems[2], elems[5]
        t = a + b * (a - 1)
        term = curve.monomial(1, a - 1, -c)
        up, down = self.assert_matches(term * e_up, term * e_down, e_up,
                                       e_down, t, c, cf)
        assert up.is_zero and down.is_zero
        assert up.delta() is None and down.delta() is None
        # one side cancelling leaves the other
        up, down = self.assert_matches(curve.one(), term * e_down, e_up,
                                       e_down, t, c, cf)
        assert down.is_zero and not up.is_zero


class TestAgainstSchoolbook:
    """Ring products, built from single-term products and the reduced y^j
    table, agree with the raw product followed by long division."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_CURVES))
    def test_products(self, name):
        curve = REFERENCE_CURVES[name]()
        a, elems = curve.a, curve.field.elements()
        rng = random.Random(name)
        for _ in range(40):
            f = random_ring_element(curve, rng)
            c = elems[rng.randrange(1, curve.field.order)]
            term = curve.monomial(rng.randrange(6), rng.randrange(a), c)
            g = random_ring_element(curve, rng, terms=3)
            for x, y in [(f, term), (term, f), (f, g), (term, term)]:
                assert x * y == schoolbook_mul(x, y)
        # the largest y-degree a product of reduced elements reaches
        top = curve.monomial(1, a - 1) + curve.monomial(0, a - 1)
        high = curve.monomial(2, a - 1, elems[2])
        assert top * high == schoolbook_mul(top, high)
        assert high * high == schoolbook_mul(high, high)


class TestSemigroup:
    def test_phi_16(self):
        assert Semigroup(3, 4).phi(16) == Monomial(4, 1)

    def test_phi_0(self):
        assert Semigroup(3, 4).phi(0) == Monomial(0, 0)

    def test_phi_of_gap_raises(self):
        with pytest.raises(ValueError):
            Semigroup(3, 4).phi(5)

    def test_repr(self):
        assert repr(Semigroup(3, 4)) == "Semigroup(3, 4)"

    def test_gaps_below(self):
        assert gaps_below(Semigroup(3, 4), 5) == (1, 2)

    def test_bijection_up_to_500(self):
        sg = Semigroup(3, 4)
        for s in range(501):
            if sg.is_nongap(s):
                m = sg.phi(s)
                assert m.j < 3
                assert sg.degree(m) == s

    def test_divides(self):
        # phi(r) divides phi(t) exactly when t - r is a nongap, and the
        # quotient is phi(t - r)
        sg = Semigroup(3, 4)
        assert sg.is_nongap(9 - 3)
        assert lattice_divides(sg, sg.phi(3), sg.phi(9))
        assert sg.phi(9 - 3) == Monomial(2, 0)
        # 9 - 4 = 5 is a gap
        assert not sg.is_nongap(9 - 4)
        assert not lattice_divides(sg, sg.phi(4), sg.phi(9))
        assert lattice_divides(sg, sg.phi(7), sg.phi(7))
        assert sg.phi(7 - 7) == Monomial(0, 0)

    def test_lcm_examples(self):
        sg = Semigroup(3, 4)
        assert sg.lcms(32, 27) == (35, 36)
        # x^8 y^2 and x^9: x^9 y^2 and x^12
        assert sg.lcms(sg.degree(Monomial(8, 2)), sg.degree(Monomial(9, 0))) \
            == (sg.degree(Monomial(9, 2)), sg.degree(Monomial(12, 0)))
        assert sg.lcms(27, 32) == (35, 36)
        assert sg.lcms(24, 27) == (27,)
        assert sg.lcms(3, 4) == (7, 12)

    def test_lcms_cover_brute_force(self):
        # every common multiple is divisible by a reported lcm, and each
        # reported lcm is itself a common multiple
        def divides(sg, r, c):
            # on pole orders, phi(r) divides phi(c) exactly when c - r is a
            # nongap
            lattice = lattice_divides(sg, sg.phi(r), sg.phi(c))
            assert lattice == sg.is_nongap(c - r)
            return lattice

        for a, b in [(3, 4), (4, 5)]:
            sg = Semigroup(a, b)
            rng = random.Random(a * 100 + b)
            nongaps = sg.nongaps(200)
            for _ in range(80):
                s = rng.choice(nongaps)
                t = rng.choice(nongaps)
                lcms = sg.lcms(s, t)
                bound = s + t + a * b
                for l in lcms:
                    assert divides(sg, s, l) and divides(sg, t, l)
                for c in sg.nongaps(bound):
                    if divides(sg, s, c) and divides(sg, t, c):
                        assert any(divides(sg, l, c) for l in lcms)

    @pytest.mark.parametrize("a, b", DIVISIBILITY_SEMIGROUPS)
    def test_lcms_match_the_formula(self, a, b):
        sg = Semigroup(a, b)
        nongaps = sg.nongaps(3 * a * b - 1)
        for r in nongaps:
            for t in nongaps:
                assert sg.lcms(r, t) == reference_lcms(sg, r, t)

    def test_non_multiples_size(self):
        for a, b in [(3, 4), (4, 5)]:
            sg = Semigroup(a, b)
            for s in sg.nongaps(40):
                assert len(sg.non_multiples(s)) == s


class TestPrimeReduce:
    @pytest.mark.parametrize("a, b", DIVISIBILITY_SEMIGROUPS)
    def test_matches_pairwise_reference(self, a, b):
        # seeded lists of nongap orders, some drawn from a narrow window so
        # that leads share rows and divide each other, with repeats; the
        # items are their positions, so the earlier of equal leads shows
        sg = Semigroup(a, b)
        rng = random.Random(100 * a + b)
        nongaps = sg.nongaps(3 * a * b)
        repeats = kept = 0
        for _ in range(400):
            low = rng.randrange(len(nongaps))
            pool = nongaps[low:low + rng.choice([a, 3 * a, len(nongaps)])]
            orders = [rng.choice(pool) for _ in range(rng.randrange(13))]
            if orders and rng.random() < 0.3:
                orders.insert(rng.randrange(len(orders) + 1),
                              rng.choice(orders))
            repeats += len(set(orders)) < len(orders)
            items = list(range(len(orders)))
            want = reference_prime_reduce(items, orders, sg)
            assert _prime_reduce(items, orders, sg) == want
            kept += len(want) > 1
        assert repeats > 50 and kept > 50

    def test_empty(self):
        assert _prime_reduce([], [], Semigroup(3, 4)) == []


class TestFootprint:
    def test_principal(self):
        sg = Semigroup(3, 4)
        assert len(sg.footprint([Monomial(9, 0)])) == 27

    def test_two_generators_rowwise(self):
        sg = Semigroup(3, 4)
        expected = {Monomial(i, 0) for i in range(9)}
        expected |= {Monomial(i, j) for j in (1, 2) for i in range(7)}
        assert sg.footprint([Monomial(9, 0), Monomial(7, 1)]) == expected

    def test_unit_kills_everything(self):
        sg = Semigroup(3, 4)
        assert sg.footprint([Monomial(0, 0)]) == frozenset()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Semigroup(3, 4).footprint([])


class TestStaircase:
    @pytest.mark.parametrize("a,b", [(2, 3), (3, 4), (4, 5)])
    def test_matches_brute_force(self, a, b):
        sg = Semigroup(a, b)
        rng = random.Random(10 * a + b)
        # a multiple of r sits in every row by column r.i + b, so nothing
        # of a footprint lies right of this box
        box = [Monomial(i, j) for i in range(8 + b) for j in range(a)]

        def random_lms():
            return [Monomial(rng.randrange(8), rng.randrange(a))
                    for _ in range(rng.randrange(1, 5))]

        def brute_footprint(lms):
            return {m for m in box
                    if not any(lattice_divides(sg, r, m) for r in lms)}

        for _ in range(60):
            lms, other = random_lms(), random_lms()
            stair = sg.staircase(map(sg.degree, lms))
            for j in range(a):
                assert stair[j] == min(
                    m.i for m in box if m.j == j
                    and any(lattice_divides(sg, r, m) for r in lms))
            fp = brute_footprint(lms)
            assert sg.footprint(lms) == fp
            assert sum(stair) == len(fp)
            assert sg.covered(stair, map(sg.degree, other)) == \
                len(fp - brute_footprint(other))

    @pytest.mark.parametrize("a,b", [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                                     (3, 7), (7, 8)])
    def test_matches_the_row_by_lead_formula(self, a, b):
        # the barrier of each row, minimised over every lead: a * L steps
        sg = Semigroup(a, b)
        ys = sg.y_degrees

        def row_by_lead(orders):
            leads = [((r - b * ys[r % a]) // a, ys[r % a]) for r in orders]
            return tuple(min(i if row >= j else i + b for i, j in leads)
                         for row in range(a))

        rng = random.Random(100 * a + b)
        nongaps = sg.nongaps(4 * a * b)
        for _ in range(80):
            orders = rng.choices(nongaps, k=rng.randrange(1, 3 * a + 2))
            orders += rng.sample(orders, rng.randrange(len(orders) + 1))
            rng.shuffle(orders)
            expected = row_by_lead(orders)
            assert sg.staircase(orders) == expected
            assert sg.staircase(r for r in orders) == expected
        for empty in ([], iter(())):
            with pytest.raises(ValueError,
                               match="footprint of the empty set is infinite"):
                sg.staircase(empty)

    def test_non_multiples_match_the_numeric_rule(self):
        # phi(t) is a multiple of phi(s) exactly when t - s is a nongap,
        # and every non-multiple has pole order below s + a*b
        for a, b in [(2, 3), (3, 4), (4, 5)]:
            sg = Semigroup(a, b)
            for s in sg.nongaps(40):
                numeric = {sg.phi(t) for t in sg.nongaps(s + a * b)
                           if not sg.is_nongap(t - s)}
                assert sg.non_multiples(s) == numeric


class TestMonomialText:
    def test_formats(self):
        assert str(Monomial(0, 0)) == "1"
        assert str(Monomial(1, 0)) == "x"
        assert str(Monomial(0, 2)) == "y^2"
        assert str(Monomial(4, 1)) == "x^4*y"
        assert str(Monomial(1, 1)) == "x*y"
