import functools
import hashlib
import itertools
import math
import random
import re

import pytest

from agcodec.code import Code
from agcodec.curvering import Curve
from agcodec.decoder import decode
from agcodec.gf import Field, ORDER_CAP, _prime_factors, canonical_key

# prime powers up to 81, for the exhaustive property sweeps
SMALL_ORDERS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                (11, 1), (13, 1), (2, 4), (17, 1), (19, 1), (23, 1), (5, 2),
                (3, 3), (29, 1), (31, 1), (2, 5), (37, 1), (41, 1), (43, 1),
                (47, 1), (7, 2), (53, 1), (59, 1), (61, 1), (2, 6), (67, 1),
                (71, 1), (73, 1), (79, 1), (3, 4)]


def gf9_naive_mul(u, v):
    """(c0 + c1*x)(d0 + d1*x) over GF(3) with x^2 = x + 1."""
    c0, c1 = u
    d0, d1 = v
    e0 = c0 * d0
    e1 = c0 * d1 + c1 * d0
    e2 = c1 * d1
    return ((e0 + e2) % 3, (e1 + e2) % 3)


def vec_add(field, u, v):
    """Sum of two packed vectors, digit by digit mod p."""
    du, dv = field._unpack(u), field._unpack(v)
    packed = 0
    for k in reversed(range(field.m)):
        packed = packed * field.p + (du[k] + dv[k]) % field.p
    return packed


class TestConstruction:
    def test_gf9_default_modulus(self, field9):
        assert field9.modulus == (2, 2, 1)  # x^2 - x - 1
        a = field9.generator
        assert a ** 2 == a + field9.one
        # outside the table: the first primitive monic polynomial
        assert Field(5, 2).modulus == (2, 1, 1)  # x^2 + x + 2
        assert Field(7, 2).modulus == (3, 1, 1)  # x^2 + x + 3

    def test_gf4_default_is_unique_irreducible_quadratic(self):
        # enumerate monic quadratics over GF(2) by hand: x^2, x^2+1,
        # x^2+x all factor; x^2+x+1 is the only irreducible one
        def has_root(c0, c1):
            return any((r * r + c1 * r + c0) % 2 == 0 for r in (0, 1))
        irreducible = [(c0, c1) for c0 in (0, 1) for c1 in (0, 1)
                       if not has_root(c0, c1)]
        assert irreducible == [(1, 1)]
        field = Field(2, 2)
        assert field.modulus == (1, 1, 1)
        assert field == Field(2, 2, modulus=[1, 1, 1])

    def test_prime_field(self):
        field = Field(3)
        assert sorted(str(e) for e in field.elements()) == ["0", "1", "2"]
        two = field.element(2)
        assert two + two == field.one

    def test_generator_spans(self, field9):
        a = field9.generator
        assert a ** 8 == field9.one
        assert all(a ** k != field9.one for k in range(1, 8))

    def test_enumeration_count(self):
        for p, m in [(2, 3), (3, 2), (5, 1)]:
            field = Field(p, m)
            assert len(set(field.elements())) == p ** m

    # sha256 over every field of prime-power order <= 1024 by its default
    # modulus, and GF(3) by x^2 + 1: p, m, the modulus, the generator's
    # packed value and every element's str in ``elements()`` order (so the
    # whole log table), as the trial-power construction gave them
    TABLES_DIGEST = \
        "593d78e20d0596a826ff2c309394029d75dbbd08b455ee73f8657a8f2f1f3b6a"

    def test_tables_pinned_up_to_1024(self):
        digest = hashlib.sha256()
        cases = [(order, ()) for order in range(2, 1025)
                 if len(_prime_factors(order)) == 1] + [(9, ((1, 0, 1),))]
        for order, modulus in cases:
            p = _prime_factors(order)[0]
            m = round(math.log(order, p))
            field = Field(p, m, *modulus)
            line = f"{p} {m} {field.modulus} {field.generator._packed()} " + \
                " ".join(map(str, field.elements()))
            digest.update(line.encode() + b"\n")
        assert len(cases) == 199
        assert digest.hexdigest() == self.TABLES_DIGEST

    def test_modulus_without_primitive_x(self):
        # x^2 + 1 over GF(3) is irreducible, but x^2 = -1 gives x order 4:
        # the generator is found by trial powers, the first packed value of
        # order 8 (x + 1)
        field = Field(3, 2, modulus=[1, 0, 1])
        assert field.modulus == (1, 0, 1)
        assert field._x_powers(field.modulus) is None
        x = field.elements()[3]
        assert x ** 4 == field.one and x ** 2 == -field.one
        a = field.generator
        assert a._packed() == 4
        assert [k for k in range(1, 9) if a ** k == field.one] == [8]
        elems = field.elements()
        for u, v in itertools.product(elems, repeat=2):
            assert u * v is elems[field._raw_mul(u._packed(), v._packed())]
        # a unit x of too small an order on a reducible modulus is refused
        # by the trial division: x^2 - 1 = (x - 1)(x + 1) over GF(3)
        with pytest.raises(ValueError, match="reducible"):
            Field(3, 2, modulus=[2, 0, 1])

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Field(4)
        with pytest.raises(ValueError):
            Field(3, 0)
        with pytest.raises(ValueError):
            Field(2, 17)  # above ORDER_CAP
        # rejected by the cap before any primality test or huge power
        with pytest.raises(ValueError, match="exceeds cap"):
            Field(2 ** 61 - 1)
        with pytest.raises(ValueError, match="exceeds cap"):
            Field(2, 10 ** 12)
        with pytest.raises(ValueError):
            Field(2, 2, modulus=[0, 0, 1])  # x^2 is reducible
        with pytest.raises(ValueError):
            Field(2, 2, modulus=[1, 1])  # wrong degree
        assert 2 ** 17 > ORDER_CAP

    @pytest.mark.parametrize("args, message", [
        ((2.0, 2), "characteristic must be an integer, got 2.0"),
        ((True,), "characteristic must be an integer, got True"),
        ((5, True), "extension degree must be an integer, got True"),
        ((3, 2.0), "extension degree must be an integer, got 2.0"),
        ((2, 2, [1.5, 1, 1]), "modulus must be a list of integers"),
        ((2, 2, [1, True, 1]), "modulus must be a list of integers"),
        ((2, 2, 7), "modulus must be a list of integers, got 7"),
        ((2, 2, "111"), "modulus must be a list of integers"),
        # each built GF(4) after reducing the coefficients mod p
        ((2, 2, [1, 1, 3]), "monic of degree 2, got [1, 1, 3]"),
        ((2, 2, [-1, 1, 1]), "must lie in [0, 2), got [-1, 1, 1]"),
        ((3, 2, [2, 5, 1]), "must lie in [0, 3), got [2, 5, 1]"),
    ])
    def test_arguments_must_be_integers(self, args, message):
        # 2.0 raised a bare TypeError, m = True built GF(5) and 1.5 was
        # truncated to 1
        with pytest.raises(ValueError, match=re.escape(message)):
            Field(*args)

    def test_degree_one_modulus_is_the_prime_field(self):
        # Field(5, 1, [1, 1]) printed as GF(5) but compared unequal to it,
        # and mixing their elements raised "operands from different fields"
        plain = Field(5)
        for modulus in ([1, 1], [0, 1], (4, 1)):
            field = Field(5, 1, modulus)
            assert field.modulus == (0, 1)
            assert field == plain and hash(field) == hash(plain)
            assert field.one + plain.one == plain.element(2)
            assert field.element(3) * plain.element(4) == plain.element(2)
        with pytest.raises(ValueError, match=re.escape(
                "monic of degree 1, got [1, 2]")):
            Field(5, 1, [1, 2])
        with pytest.raises(ValueError, match=re.escape(
                "monic of degree 1, got [1, 0, 1]")):
            Field(5, 1, [1, 0, 1])

    def test_monic_message_quotes_the_modulus_as_given(self):
        # [1, 1, 2] over GF(2) was reported as "got (1, 1, 0)"
        with pytest.raises(ValueError, match=re.escape(
                "monic of degree 2, got [1, 1, 2]")):
            Field(2, 2, [1, 1, 2])
        assert Field(2, 2, (1, 1, 1)).modulus == (1, 1, 1)


class TestArithmetic:
    def test_alpha_4_is_two(self, field9):
        # independent derivation: square x twice with naive coefficient
        # vectors modulo x^2 = x + 1
        sq = gf9_naive_mul((0, 1), (0, 1))
        fourth = gf9_naive_mul(sq, sq)
        assert fourth == (2, 0)
        assert field9.generator ** 4 == field9.element(2)

    def test_neg_inverse_alpha5(self, field9):
        a = field9.generator
        assert -(a ** 5).inverse() == a ** 7

    def test_identity(self, field9):
        rng = random.Random(7)
        for _ in range(20):
            e = field9.elements()[rng.randrange(9)]
            assert e * field9.one == e

    def test_zero_rules(self, field9):
        z = field9.zero
        assert (z ** 0) == field9.one
        assert (z ** 3).is_zero
        with pytest.raises(ZeroDivisionError):
            z.inverse()
        with pytest.raises(ZeroDivisionError):
            field9.one / z

    def test_negative_power_of_zero(self, field9):
        with pytest.raises(ZeroDivisionError, match="negative power"):
            field9.zero ** -1

    def test_other_operands_are_not_elements(self, field9):
        # the operators return NotImplemented, so Python raises or compares
        # by identity
        with pytest.raises(TypeError):
            field9.one * 3
        assert not field9.one == 3
        assert not field9 == 3

    def test_mixed_fields_rejected(self, field9):
        other = Field(2, 2)
        with pytest.raises(ValueError):
            field9.one + other.one
        for x, y in [(field9.zero, other.zero), (field9.generator, other.one)]:
            for op in (lambda u, v: u + v, lambda u, v: u - v,
                       lambda u, v: u * v, lambda u, v: u / v):
                with pytest.raises(ValueError):
                    op(x, y)
            assert x != y

    def test_equal_fields_mix(self):
        # two separately built GF(9)s are equal, so their elements combine
        f, g = Field(3, 2), Field(3, 2)
        assert f is not g and f == g and hash(f) == hash(g)
        fe, ge = f.elements(), g.elements()
        for a, b in itertools.product(range(f.order), repeat=2):
            x, y = fe[a], ge[b]
            assert x + y is fe[a] + fe[b]
            assert x - y is fe[a] - fe[b]
            assert x * y is fe[a] * fe[b]
            if b:
                assert x / y is fe[a] / fe[b]
            assert (x == y) == (a == b)
        for x, y in zip(fe, ge):
            assert hash(x) == hash(y)
            assert {x: 1}[y] == 1

    @staticmethod
    def check_against_vectors(field, x, y):
        """+, *, - and / of x and y against packed-vector arithmetic, which
        shares no table with the operators (elements() is by packed value)."""
        elems = field.elements()
        add = functools.partial(vec_add, field)
        assert x + y is elems[add(x._packed(), y._packed())]
        assert x * y is elems[field._raw_mul(x._packed(), y._packed())]
        assert add((x - y)._packed(), y._packed()) == x._packed()
        assert add((-x)._packed(), x._packed()) == 0
        if not y.is_zero:
            assert (x / y) * y is x

    # p = 2 fields negate by the identity (neg_log 0)
    @pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (5, 2), (2, 8), (7, 1),
                                     (257, 1)])
    def test_zech_addition_exhaustive(self, p, m):
        field = Field(p, m)
        for x, y in itertools.product(field.elements(), repeat=2):
            self.check_against_vectors(field, x, y)

    @pytest.mark.parametrize("p,m", [(17, 2), (2, 9), (65519, 1)])
    def test_zech_addition_random_large_orders(self, p, m):
        # orders 289 and 512, above the old 256 cutoff of the addition table,
        # and the largest prime order below the cap
        field = Field(p, m)
        elems = field.elements()
        rng = random.Random(p * 100 + m)
        for _ in range(4000):
            x, y = elems[rng.randrange(field.order)], \
                elems[rng.randrange(field.order)]
            self.check_against_vectors(field, x, y)
            assert (x - y) + y is x

    def test_operations_return_the_fields_elements(self, field9):
        own = {id(e) for e in field9.elements()}
        elems = field9.elements()
        for x, y in itertools.product(elems, repeat=2):
            results = [x + y, x - y, x * y, -x, x ** 3, x ** 0]
            if not y.is_zero:
                results += [x / y, y.inverse()]
            assert all(id(r) in own for r in results)
        assert {id(field9.zero), id(field9.one), id(field9.generator),
                id(field9.parse("a^5")), id(field9.generator ** 12)} <= own

    def test_axioms_random_triples(self):
        rng = random.Random(2024)
        for p, m in [(2, 3), (3, 2), (5, 1), (7, 1), (2, 4)]:
            field = Field(p, m)
            elems = field.elements()
            for _ in range(60):
                a, b, c = (elems[rng.randrange(len(elems))] for _ in range(3))
                assert (a + b) + c == a + (b + c)
                assert a + b == b + a
                assert a * b == b * a
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert (a + (-a)).is_zero
                if not a.is_zero:
                    assert a * a.inverse() == field.one

    def test_frobenius_exhaustive_up_to_81(self):
        for p, m in SMALL_ORDERS:
            field = Field(p, m)
            for a, b in itertools.product(field.elements(), repeat=2):
                assert (a + b) ** p == a ** p + b ** p


class TestKernel:
    """Field.axpy and Field.scale on kernel values against FieldElement
    arithmetic, and the single-value methods against them."""

    @pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (7, 1), (2, 3),
                                     (3, 2), (2, 4), (5, 2), (3, 3), (7, 2)])
    def test_axpy_and_scale_exhaustive(self, p, m):
        # every (acc, multiplier, entry) triple, zero acc and entry included
        field = Field(p, m)
        elems = field.elements()
        pairs = list(itertools.product(elems, repeat=2))
        acc = field.logs(r for r, _ in pairs)
        vec = field.logs(v for _, v in pairs)
        for a in elems[1:]:
            k, = field.logs([a])
            assert field.from_logs(field.axpy(acc, k, vec)) == \
                [r + a * v for r, v in pairs]
            assert field.from_logs(field.scale(vec, k)) == \
                [a * v for _, v in pairs]

    @pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (5, 2)])
    def test_single_value_methods_match_the_list_methods(self, p, m):
        # on every kernel value, zero_log included: zero stays zero, with no
        # reduction mod n that would turn it into a power of a
        field = Field(p, m)
        n = field.order - 1
        values = [*range(n), field.zero_log]
        assert [field.from_log(v) for v in values] == field.from_logs(values)
        assert field.from_log(field.zero_log) == field.zero

    @pytest.mark.parametrize("order", [289, 512, 65519])
    def test_axpy_random_large_orders(self, order, request):
        if order == 65519:
            field = request.getfixturevalue("field_65519")
        else:
            field = Field(*{289: (17, 2), 512: (2, 9)}[order])
        elems = field.elements()
        rng = random.Random(order)
        for _ in range(4000):
            r, v = (elems[rng.randrange(field.order)] for _ in range(2))
            a = elems[rng.randrange(1, field.order)]
            logs = field.logs([r, a, v])
            assert field.from_logs(field.axpy(logs[:1], logs[1],
                                              logs[2:])) == [r + a * v]
            assert field.from_logs(field.scale(logs[2:], logs[1])) == [a * v]

    def test_log_conversion(self, field9):
        elems = field9.elements()
        logs = field9.logs(elems)
        assert field9.from_logs(logs) == list(elems)
        assert logs[0] == field9.zero_log
        assert not 0 <= field9.zero_log < field9.order - 1
        assert logs[1:] == [e.log for e in elems[1:]]

    def test_tables_built_once(self):
        field = Field(5, 2)
        n = field.order - 1
        tables = (field._zt, field._norm, field._by_log)
        assert [len(t) for t in tables] == [7 * n, 6 * n + 1, 3 * n + 1]
        # y^2 + 2x + 1 + x^3 = 0, 34 points: a Code build and a decode read
        # the Field's tables and build none
        curve = Curve(field, 2, 3, field.one,
                      {(0, 0): field.one, (1, 0): field.element(2)})
        code = Code(curve, 10)
        message = tuple(field.elements()[:code.k])
        received = list(code.encode(message))
        received[0] += field.one
        assert decode(code, tuple(received)).message == message
        assert all(now is then for now, then in zip(
            (field._zt, field._norm, field._by_log), tables))


#: Every field whose vectors are bytes that tier-1 builds a curve over,
#: and the largest of each kind: GF(256), and GF(127), where two digits
#: p - 1 sum to 252 of a byte's 255
BYTE_FIELDS = [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
               (13, 1), (2, 4), (5, 2), (2, 5), (7, 2), (2, 6), (127, 1),
               (2, 8)]
#: fields that keep kernel-value lists, as their codes do not fit a byte
LIST_FIELDS = [(3, 3), (3, 4), (11, 2), (131, 1), (2, 9)]


def reference_combine(field, acc, products):
    """``Field.combine`` on kernel-value lists, one ``Field.axpy`` per
    product over its range: acc + sum(a^k * vec moved up by shift)."""
    zero = field.zero_log
    out = list(acc)
    for k, vec, shift in products:
        end = shift + len(vec)
        out += [zero] * (end - len(out))
        out[shift:end] = field.axpy(out[shift:end], k, vec)
    while out and out[-1] == zero:
        out.pop()
    return out


class TestVectors:
    """The vector operations (``Field.vector`` ... ``Field.combine_row``)
    against ``Field.axpy`` and ``Field.scale`` on kernel-value lists."""

    @pytest.mark.parametrize("p,m,form", [
        (2, 2, bytes), (3, 2, bytes), (5, 2, bytes), (7, 2, bytes),
        (127, 1, bytes), (2, 8, bytes), (3, 3, list), (3, 4, list),
        (11, 2, list), (131, 1, list), (2, 9, list)])
    def test_form_is_chosen_from_p_and_m(self, p, m, form):
        # bytes where a code fits a byte and, for odd p, a sum of two
        # digits fits a digit's 8 // m bits; lists otherwise
        field = Field(p, m)
        for values in ([], [0], [field.zero_log, 0]):
            assert type(field.vector(values)) is form

    @pytest.mark.parametrize("p,m", BYTE_FIELDS + LIST_FIELDS)
    def test_combine_matches_axpy(self, p, m):
        # random vectors, zero entries included, with shifts inside acc,
        # across its end and past it, and up to six products, more than
        # the digits of GF(49) or GF(127) hold before a reduction
        field = Field(p, m)
        n, zero = field.order - 1, field.zero_log
        rng = random.Random(p ** m)

        def values(size):
            return [zero if rng.random() < 0.3 else rng.randrange(n)
                    for _ in range(size)]
        for _ in range(150):
            acc = values(rng.randrange(12))
            products = [(rng.randrange(n), values(rng.randrange(1, 12)),
                         rng.randrange(16)) for _ in range(rng.randrange(7))]
            got = field.combine(field.vector(acc), [
                (k, field.vector(vec), t) for k, vec, t in products])
            assert field.values(got) == reference_combine(field, acc,
                                                          products)
            for k, vec, _ in products:
                scaled = field.scale(vec, k)
                while scaled and scaled[-1] == zero:
                    scaled.pop()
                assert field.values(field.combine(
                    field.vector([]), [(k, field.vector(vec), 0)])) == scaled

    @pytest.mark.parametrize("p,m", BYTE_FIELDS + LIST_FIELDS)
    def test_combine_over_the_whole_list(self, p, m):
        # runs, odd and even, of dense products from entry 0 to the list's
        # end, which lists add two to a pass, broken by short products over
        # the whole list and by shifted ones, some past the end; and a run
        # that cancels the whole sum
        field = Field(p, m)
        n, zero = field.order - 1, field.zero_log
        neg = field.logs([-field.one])[0]
        rng = random.Random(p * 100 + m)
        size = 20

        def dense():
            return [rng.randrange(n) for _ in range(size)]

        def short():
            vec = [zero] * size
            for s in rng.sample(range(size - 1), 3) + [size - 1]:
                vec[s] = rng.randrange(n)
            return vec
        for _ in range(60):
            acc = dense()
            products = []
            for _ in range(rng.randrange(1, 9)):
                kind = rng.randrange(5)
                if kind < 3:
                    products.append((rng.randrange(n), dense(), 0))
                elif kind == 3:
                    products.append((rng.randrange(n), short(), 0))
                else:
                    products.append((rng.randrange(n),
                                     dense()[:rng.randrange(1, size)],
                                     rng.randrange(1, 8)))
            got = field.combine(field.vector(acc), [
                (k, field.vector(vec), t) for k, vec, t in products])
            assert field.values(got) == reference_combine(field, acc,
                                                          products)
        v, w = dense(), dense()
        assert field.combine(field.vector(v), [
            (0, field.vector(w), 0), (neg, field.vector(w), 0),
            (neg, field.vector(v), 0)]) == field.vector([])

    @pytest.mark.parametrize("p,m", BYTE_FIELDS + LIST_FIELDS)
    def test_cancellation_trims(self, p, m):
        # v - v is the empty vector, a sum that cancels its top entry ends
        # at the entry below, and one that cancels all but a low entry ends
        # there
        field = Field(p, m)
        n, neg = field.order - 1, field.logs([-field.one])[0]
        v = field.vector([1 % n, field.zero_log, 0, 2 % n])
        assert field.combine(v, [(neg, v, 0)]) == field.vector([])
        top = field.vector([field.zero_log] * 3 + [2 % n])
        assert field.values(field.combine(v, [(neg, top, 0)])) == \
            [1 % n, field.zero_log, 0]
        low = field.vector([field.zero_log, field.zero_log, 0, 2 % n])
        assert field.values(field.combine(v, [(neg, low, 0)])) == [1 % n]
        # moved past the end, with zeros between
        assert field.values(field.combine(v, [(0, v, 6)])) == \
            field.values(v) + [field.zero_log] * 2 + field.values(v)

    @pytest.mark.parametrize("p,m", BYTE_FIELDS + LIST_FIELDS)
    def test_combine_row_matches_axpy(self, p, m):
        # vec moved up plus multiples of its row vec[start::step] laid out
        # at its stride, every row ending inside the moved vec, against the
        # combine reference; a row that cancels the top entry trims, and
        # one that cancels every entry leaves the empty vector
        field = Field(p, m)
        n, zero = field.order - 1, field.zero_log
        neg, = field.logs([-field.one])
        rng = random.Random(n + 1)
        for _ in range(150):
            size = rng.randrange(1, 20)
            vec = [zero if rng.random() < 0.3 else rng.randrange(n)
                   for _ in range(size - 1)] + [rng.randrange(n)]
            shift, step = rng.randrange(6), rng.randrange(1, 5)
            start = rng.randrange(size)
            row = vec[start::step]
            spread = [zero] * (step * len(row) - step + 1)
            spread[::step] = row
            last = shift + size - len(spread)  # the highest start of a row
            rows = [(rng.randrange(n), rng.randrange(last + 1))
                    for _ in range(rng.randrange(4))]
            if rng.random() < 0.3:  # cancel the top entry
                rows.append((neg, last))
            got = field.combine_row(field.vector(vec), shift, start, step,
                                    rows)
            assert field.values(got) == reference_combine(
                field, [], [(0, vec, shift)] +
                [(k, spread, at) for k, at in rows])
        v = field.vector([1 % n, zero, 0, 2 % n])
        assert field.values(field.combine_row(v, 2, 3, 1, [(neg, 5)])) == \
            [zero, zero, 1 % n, zero, 0]
        assert field.combine_row(field.vector([0]), 0, 0, 1,
                                 [(neg, 0)]) == field.vector([])
        # a start past the end leaves an empty row: vec is only moved up
        assert field.values(field.combine_row(v, 2, 4, 3, [(neg, 0)])) == \
            [zero, zero] + field.values(v)

    @pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (7, 2), (3, 1),
                                     (127, 1)])
    def test_digit_sums_reduce_without_carry(self, p, m):
        # every digit at p - 1, summed with multiplier one far past the
        # sums a digit's field holds: a reduction missed or late would
        # carry into the next digit or byte
        field = Field(p, m)
        top = field.elements()[-1]  # packed p^m - 1: every digit p - 1
        k, = field.logs([top])
        for count in range(1, 3 * p + 2):
            vec = field.vector([k] * 5)
            got = field.combine(vec, [(0, vec, 0)] * (count - 1))
            want = field.logs([field.element(count) * top] * 5)
            assert field.values(got) == ([] if count % p == 0 else want)

    @pytest.mark.parametrize("p,m", BYTE_FIELDS + LIST_FIELDS)
    def test_reads(self, p, m):
        # vector and values invert each other; entry reads one value
        field = Field(p, m)
        n, zero = field.order - 1, field.zero_log
        rng = random.Random(n)
        for size in (1, 2, 7, 20):
            values = [zero if rng.random() < 0.3 else rng.randrange(n)
                      for _ in range(size - 1)] + [rng.randrange(n)]
            vec = field.vector(values)
            assert len(vec) == size and field.values(vec) == values
            assert [field.entry(vec, s) for s in range(size)] == values


class TestTextualForm:
    def test_parse_format_roundtrip(self, field9):
        for e in field9.elements():
            assert field9.parse(str(e)) == e

    def test_reference_tokens(self, field9):
        a7 = field9.parse("a^7")
        assert a7 == field9.generator ** 7
        assert str(a7) == "a^7"
        assert field9.parse("0").is_zero
        assert str(field9.generator ** 4) == "2"
        assert field9.parse("a^8") == field9.one  # k >= n is a power too

    def test_bare_a(self, field9):
        assert field9.parse("a") == field9.generator
        assert str(field9.generator) == "a^1"

    def test_malformed(self, field9):
        # digits are ASCII 0-9 only: no Arabic-Indic one, no superscript two
        for tok in ["", "b", "a^", "a^-1", "2.5", "a ^2", "\u0661", "a^\u00b2"]:
            with pytest.raises(ValueError):
                field9.parse(tok)
        # the grammar's powers of the generator start at k = 1
        for tok in ["a^0", "a^00"]:
            with pytest.raises(ValueError,
                               match="malformed field element token"):
                field9.parse(tok)
        # a decimal token names a prime-subfield element, so it is below p
        for field, tok in [(field9, "3"), (field9, "12"), (Field(7), "9")]:
            with pytest.raises(ValueError,
                               match="malformed field element token"):
                field.parse(tok)

    def test_log_of_zero(self, field9):
        with pytest.raises(ValueError):
            field9.zero.log

    def test_canonical_order(self, field9):
        ordered = sorted(field9.elements(), key=canonical_key)
        assert [str(e) for e in ordered] == \
            ["0", "1", "a^1", "a^2", "a^3", "2", "a^5", "a^6", "a^7"]
