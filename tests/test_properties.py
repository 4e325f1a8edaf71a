"""Property tests: ring arithmetic on random Miura-Kamiya curves, and the
decoder on arbitrary received words.

Runs are derandomized and bounded, so the suite stays deterministic."""

import functools
import itertools
import math
import operator

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from agcodec.code import Code, rational_points
from agcodec.curvering import Curve, RingElement
from agcodec.decoder import STATUS_OK, decode, hamming_distance
from agcodec.gf import Field

from support import (MK_FAMILIES, add_vectors, contains, evaluate_raw,
                     mk_code, naive_reduce, schoolbook_mul)

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)

FIELDS = {(p, m): Field(p, m) for p, m in [(2, 2), (3, 1), (3, 2), (5, 1),
                                           (7, 1)]}
CODE_FIELDS = {(p, m): Field(p, m) for p, m in [
    (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (7, 1), (11, 1),
    (13, 1)]}


def test_neg_log_is_minus_one():
    # the kernel value negation adds is that of -1, in every field here
    for field in [*FIELDS.values(), *CODE_FIELDS.values()]:
        assert field.neg_log == field.logs([-field.one])[0]


@st.composite
def mk_curves(draw, fields=FIELDS, top_a=4):
    """y^a + sum(c_ij x^i y^j : a*i + b*j < a*b) + d x^b = 0 with random d
    and up to four random coefficients, a = 2..top_a."""
    field = fields[draw(st.sampled_from(sorted(fields)))]
    a = draw(st.integers(2, top_a))
    b = draw(st.sampled_from([b for b in range(a + 1, a + 4)
                              if math.gcd(a, b) == 1]))
    nonzero = st.sampled_from(field.elements()[1:])
    region = [(i, j) for j in range(a) for i in range(b)
              if a * i + b * j < a * b]
    coeffs = draw(st.dictionaries(st.sampled_from(region), nonzero,
                                  max_size=4))
    return Curve(field, a, b, draw(nonzero), coeffs)


@st.composite
def mk_codes(draw):
    """C_u on a random curve over GF(4), GF(8), GF(16), GF(3), GF(9),
    GF(5), GF(7), GF(11) or GF(13) with a = 2..5, on a random shuffle of
    its rational points with a random number of them dropped, and a random
    0 < u < n."""
    curve = draw(mk_curves(CODE_FIELDS, 5))
    points = rational_points(curve)
    assume(len(points) >= 2)
    points = draw(st.permutations(points))
    n = len(points) - draw(st.integers(0, len(points) - 2))
    return Code(curve, draw(st.integers(1, n - 1)), points[:n])


def raw_maps(curve, max_j=None, max_size=5):
    """Raw exponent maps with y-degrees up to max_j (default a - 1)."""
    top = curve.a - 1 if max_j is None else max_j
    return st.dictionaries(
        st.tuples(st.integers(0, 6), st.integers(0, top)),
        st.sampled_from(curve.field.elements()[1:]), max_size=max_size)


@st.composite
def curve_and_elements(draw, count):
    curve = draw(mk_curves())
    return curve, [curve.reduce(draw(raw_maps(curve))) for _ in range(count)]


class TestRingProperties:
    @PROPERTY
    @given(curve_and_elements(2))
    def test_products_match_schoolbook(self, case):
        _, (f, g) = case
        assert f * g == schoolbook_mul(f, g)

    @PROPERTY
    @given(curve_and_elements(3))
    def test_associative(self, case):
        _, (f, g, h) = case
        assert (f * g) * h == f * (g * h)

    @PROPERTY
    @given(curve_and_elements(3))
    def test_distributive(self, case):
        _, (f, g, h) = case
        assert f * (g + h) == f * g + f * h

    @PROPERTY
    @given(st.data())
    def test_reduce_is_idempotent(self, data):
        curve = data.draw(mk_curves())
        raw = data.draw(raw_maps(curve, max_j=2 * curve.a + 1))
        once = curve.reduce(raw)
        assert once == naive_reduce(curve, raw)
        assert curve.reduce(dict(once.items())) == once

    @PROPERTY
    @given(curve_and_elements(2))
    def test_sums_match_a_term_by_term_merge(self, case):
        # the reference merges the public items() with field + and -, so it
        # is independent of the ring kernel behind the operators
        _, (f, g) = case
        zero = f.curve.field.zero
        for got, op in ((f + g, operator.add), (f - g, operator.sub)):
            want = dict(f.items())
            for m, c in g.items():
                want[m] = op(want.get(m, zero), c)
            assert dict(got.items()) == {m: c for m, c in want.items()
                                         if not c.is_zero}
            assert not any(c.is_zero for _, c in got.items())
        assert (f - f).is_zero

    @PROPERTY
    @given(st.data())
    def test_plus_is_a_sum_of_term_products(self, data):
        # the private kernel against the public operators; multipliers are
        # nonzero, as at every caller
        curve, (x, y, z) = data.draw(curve_and_elements(3))
        sg, one = curve.semigroup, curve.field.one
        terms = st.tuples(st.sampled_from(sg.nongaps(2 * curve.a * curve.b)),
                          st.sampled_from(curve.field.elements()[1:]))
        (t, c), (t2, c2) = data.draw(terms), data.draw(terms)
        m1 = curve.monomial(*sg.phi(t), c)
        m2 = curve.monomial(*sg.phi(t2), c2)
        got = x._plus((y, t, c), (z, t2, c2))
        assert got == x + y * m1 + z * m2
        assert x._plus((y, t, c), (y, t, -c)) == x
        assert x._plus((x, 0, -one)).is_zero
        for f in (got, y * m1, y * z, x + y, x + got):
            # entries by pole order: the last one is nonzero, and every
            # entry at a gap order is zero, so delta is a nongap
            if not f.is_zero:
                assert not f.coefficient_at(f.delta()).is_zero
                assert sg.is_nongap(f.delta())
                assert all(f.coefficient_at(s).is_zero
                           for s in range(f.delta() + 1)
                           if not sg.is_nongap(s))

    @PROPERTY
    @given(st.data())
    def test_plus_matches_products_of_items(self, data):
        # every path of the private kernel (a copy into an empty region,
        # entry by entry for few nonzero entries, one pass otherwise, and
        # the wrap corrections after each) on sparse and dense operands,
        # against schoolbook products of items() summed with boxed field
        # sums; mk_curves draws d and the coefficients, so it draws d != -1
        # and wrap rows with one and with several correction terms
        curve = data.draw(mk_curves())
        sg, zero = curve.semigroup, curve.field.zero
        nonzero = st.sampled_from(curve.field.elements()[1:])
        reach = 3 * curve.a * curve.b

        def element():
            orders = sg.nongaps(data.draw(st.integers(0, reach)))
            if not data.draw(st.booleans()):  # sparse, else every order
                orders = data.draw(st.sets(st.sampled_from(orders),
                                           min_size=1, max_size=3))
            return curve.reduce({sg.phi(s): data.draw(nonzero)
                                  for s in orders})

        x = element() if data.draw(st.booleans()) else curve.zero()
        products = [(element(), data.draw(st.sampled_from(sg.nongaps(reach))),
                     data.draw(nonzero))
                    for _ in range(data.draw(st.integers(1, 3)))]
        want = dict(x.items())
        for e, t, tc in products:
            term = curve.monomial(*sg.phi(t), tc)
            for m, c in schoolbook_mul(e, term).items():
                want[m] = want.get(m, zero) + c
        got = x._plus(*products)
        assert dict(got.items()) == {m: c for m, c in want.items()
                                     if not c.is_zero}
        assert got.is_zero or not got.coefficient_at(got.delta()).is_zero

    @PROPERTY
    @given(st.data())
    def test_products_place_cached_multiples(self, data):
        # one element times terms of every y-degree, each y-degree more
        # than once and every term twice, so most products find the
        # multiple y^j * e built (RingElement._y_step) by an earlier one;
        # also through the -x and x * c views that share its list; against
        # schoolbook products, with mk_curves drawing d != -1 and rewrites
        # of y^a with several terms.  Each element builds its a - 1
        # multiples once: a later product at the same y-degree builds none
        curve = data.draw(mk_curves())
        sg, a, b = curve.semigroup, curve.a, curve.b
        nonzero = st.sampled_from(curve.field.elements()[1:])
        x = curve.reduce({sg.phi(s): c for s, c in data.draw(
            st.dictionaries(st.sampled_from(sg.nongaps(3 * a * b)), nonzero,
                            min_size=1, max_size=12)).items()})
        items = dict(x.items())
        views = [x, -x, x * data.draw(nonzero)]
        terms = [(a * data.draw(st.integers(0, 3)) + b * j, data.draw(nonzero))
                 for j in range(a) for _ in range(2)]
        wants = [[dict(schoolbook_mul(view, curve.monomial(*sg.phi(t), tc)
                                      ).items()) for t, tc in terms]
                 for view in views]
        built = []
        y_step = RingElement._y_step

        def counted(self):
            built.append(self)
            return y_step(self)
        RingElement._y_step = counted
        try:
            for view, want in zip(views, wants):
                for _ in range(2):
                    assert [dict(curve.zero()._plus((view, t, tc)).items())
                            for t, tc in terms] == want
        finally:
            RingElement._y_step = y_step
        assert len(built) == len(views) * (a - 1)
        assert dict(x.items()) == items

    @PROPERTY
    @given(st.data())
    def test_every_result_is_zero_exactly_without_a_lead(self, data):
        # is_zero exactly when delta() is None, and a nonzero result leads
        # with a nonzero coefficient (its list ends with a nonzero entry):
        # for ring sums, differences, products and scalar products, for
        # the kernel with cancelling and zero products, and for the
        # multiples y^j * e, of zero too
        curve, (x, y) = data.draw(curve_and_elements(2))
        sg, field, zero = curve.semigroup, curve.field, curve.zero()
        c = data.draw(st.sampled_from(field.elements()[1:]))
        t = data.draw(st.sampled_from(sg.nongaps(2 * curve.a * curve.b)))
        built = [x + y, x - y, x - x, x * y, y * x, x * zero, x * c, c * x,
                 -x, x * field.zero, x._plus((y, t, c)),
                 (x * c)._plus((x, 0, -c)), x._plus((y, t, c), (y, t, -c)),
                 x._plus((zero, t, c)), zero._plus((zero, t, c), (y, t, c))]
        built += [e._times_y(j) for e in (x, y, zero, x * c)
                  for j in range(1, curve.a)]
        for f in built:
            assert f.is_zero == (f.delta() is None)
            if not f.is_zero:
                assert not f.leading_coefficient().is_zero

    @PROPERTY
    @given(curve_and_elements(2))
    def test_delta_is_additive(self, case):
        _, (f, g) = case
        if not (f.is_zero or g.is_zero):
            assert (f * g).delta() == f.delta() + g.delta()


class TestScaledElements:
    """A ring element is a scale times a term list: reads apply the scale,
    and equality compares values, however they are split."""

    @PROPERTY
    @given(st.data())
    def test_scalar_products_and_negation(self, data):
        curve, (x, y) = data.draw(curve_and_elements(2))
        c = data.draw(st.sampled_from(curve.field.elements()[1:]))
        for got, want in ((x * c, {m: v * c for m, v in x.items()}),
                          (-x, {m: -v for m, v in x.items()}),
                          ((x * c) * c.inverse(), dict(x.items()))):
            assert dict(got.items()) == want
            assert got == curve.reduce(want)
        assert -(x * c) == x * -c
        # a ring product carries both operands' scales, whichever is shorter
        assert (x * c) * y == y * (x * c) == schoolbook_mul(x, y) * c

    @PROPERTY
    @given(st.data())
    def test_plus_over_differently_scaled_operands(self, data):
        # the kernel on scaled operands against the same sum of elements
        # rebuilt from their true coefficients, all at scale one
        curve, elements = data.draw(curve_and_elements(3))
        nonzero = st.sampled_from(curve.field.elements()[1:])
        x, y, z = (e * data.draw(nonzero) for e in elements)
        terms = st.tuples(
            st.sampled_from(curve.semigroup.nongaps(2 * curve.a * curve.b)),
            nonzero)
        (t, c), (t2, c2) = data.draw(terms), data.draw(terms)

        def rebuilt(e):
            return curve.reduce(dict(e.items()))

        for first in (x, curve.zero()):
            got = first._plus((y, t, c), (z, t2, c2))
            want = rebuilt(first)._plus((rebuilt(y), t, c),
                                        (rebuilt(z), t2, c2))
            assert dict(got.items()) == dict(want.items())
            assert got == want

    @PROPERTY
    @given(st.data())
    def test_equality_ignores_the_split(self, data):
        curve, (x, y) = data.draw(curve_and_elements(2))
        c = data.draw(st.sampled_from(curve.field.elements()[1:]))
        # x's coefficients times c, at scale 1 / c
        field = curve.field
        orders = range(x.delta() + 1) if not x.is_zero else ()
        moved = RingElement(curve, field.vector(field.logs(
            x.coefficient_at(s) * c for s in orders)), c.inverse())
        assert moved == x and x == moved
        assert (moved == y) == (x == y)
        if c != curve.field.one and not x.is_zero:
            assert x * c != x

    @PROPERTY
    @given(st.data())
    def test_cancelled_sum_is_zero_at_scale_one(self, data):
        curve, (x,) = data.draw(curve_and_elements(1))
        c = data.draw(st.sampled_from(curve.field.elements()[1:]))
        one = curve.field.one
        for zero in ((x * c) - (x * c), (x * c)._plus((x, 0, -c)),
                     -curve.zero(), curve.zero() * c, x * curve.field.zero):
            assert zero.is_zero and zero == curve.zero()
            assert zero.delta() is None and zero._scale is one


class TestEvaluation:
    """RingElement.evaluate, by rows, against the boxed term-by-term
    reference over items() (``support.evaluate_raw``)."""

    @PROPERTY
    @given(st.data())
    def test_matches_the_term_by_term_reference(self, data):
        # at every pair of the plane, so on the axes x = 0 and y = 0 too,
        # on scaled elements and on zero
        curve, (f, g) = data.draw(curve_and_elements(2))
        c = data.draw(st.sampled_from(curve.field.elements()[1:]))
        plane = list(itertools.product(curve.field.elements(), repeat=2))
        for h in (f, f * c, -f, f * g, curve.zero(), f - f):
            for x, y in plane:
                assert h.evaluate(x, y) == evaluate_raw(h.items(), x, y)

    @PROPERTY
    @given(curve_and_elements(2))
    def test_values_multiply_and_add_at_curve_points(self, case):
        # at every affine zero of the equation, singular ones included
        curve, (f, g) = case
        for x, y in itertools.product(curve.field.elements(), repeat=2):
            if contains(curve, x, y):
                fv, gv = f.evaluate(x, y), g.evaluate(x, y)
                assert (f * g).evaluate(x, y) == fv * gv
                assert (f + g).evaluate(x, y) == fv + gv


@functools.cache
def code(name):
    if name == "hermitian-2":
        return Code(Curve.hermitian(2), 3)
    return mk_code(name, 3)


CODES = ["hermitian-2", *sorted(MK_FAMILIES)]


@st.composite
def messages(draw, c):
    return tuple(draw(st.lists(st.sampled_from(c.field.elements()),
                               min_size=c.k, max_size=c.k)))


@st.composite
def received_words(draw):
    """(code, sent message, received word) with any number of errors."""
    c = code(draw(st.sampled_from(CODES)))
    message = draw(messages(c))
    received = list(c.encode(message))
    nonzero = st.sampled_from(c.field.elements()[1:])
    for pos in draw(st.sets(st.integers(0, c.n - 1))):
        received[pos] = received[pos] + draw(nonzero)
    return c, message, tuple(received)


class TestDecoderProperties:
    @PROPERTY
    @given(received_words())
    def test_decoding_never_raises_and_ok_is_within_radius(self, case):
        c, sent, received = case
        t_max = (c.decoding_distance() - 1) // 2
        result = decode(c, received)
        decoded = c.encode(result.message)
        assert result.distance == hamming_distance(decoded, received)
        if result.status == STATUS_OK:
            assert result.distance <= t_max
        if hamming_distance(c.encode(sent), received) <= t_max:
            assert result.message == sent

    @PROPERTY
    @given(st.data())
    def test_encoding_is_linear(self, data):
        c = code(data.draw(st.sampled_from(CODES)))
        m1, m2 = data.draw(messages(c)), data.draw(messages(c))
        total = tuple(x + y for x, y in zip(m1, m2))
        assert c.encode(total) == add_vectors(c.encode(m1), c.encode(m2))


class TestRandomCodes:
    @settings(PROPERTY, max_examples=200)
    @given(st.data())
    def test_full_radius_decodes_on_random_curves(self, data):
        # exactly (d_u - 1) // 2 errors; on codes with at most 512
        # messages d_u is checked against the brute-force minimum weight
        c = data.draw(mk_codes())
        d_u = c.decoding_distance()
        sent = data.draw(messages(c))
        received = list(c.encode(sent))
        nonzero = st.sampled_from(c.field.elements()[1:])
        t = (d_u - 1) // 2
        for pos in data.draw(st.lists(st.integers(0, c.n - 1), min_size=t,
                                      max_size=t, unique=True)):
            received[pos] = received[pos] + data.draw(nonzero)
        result = decode(c, tuple(received))
        assert result.status == STATUS_OK and result.message == sent
        if c.field.order ** c.k <= 512:
            nonzero_messages = itertools.islice(
                itertools.product(c.field.elements(), repeat=c.k), 1, None)
            assert d_u <= min(sum(not e.is_zero for e in c.encode(m))
                              for m in nonzero_messages)
