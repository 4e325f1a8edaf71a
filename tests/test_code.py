import hashlib
import random
import re

import pytest

from agcodec import code as code_module
from agcodec.code import (Code, VectorParseError, _fibers, _ideal_generators,
                          _lagrange_polys, checked_points, code_from_config,
                          curve_from_config, format_vector,
                          hermitian_decoding_distance, parse_vector,
                          points_ideal_basis, radius_rows, rational_points)
from agcodec.curvering import Curve, Monomial, Semigroup
from agcodec.decoder import decode
from agcodec.gf import Field, FieldElement

from support import (MK_FAMILIES, add_vectors, contains, ev, is_smooth_at,
                     lattice_divides, mk_code, random_error, random_message,
                     rank, reference_encode, reference_ideal_basis,
                     reference_lagrange, support)

# the interpolation of the bundled received vector, as (token, i, j) terms
H_V_TERMS = [
    ("a^3", 8, 2), ("1", 7, 2), ("a^6", 8, 1), ("a^7", 6, 2), ("1", 7, 1),
    ("2", 8, 0), ("a^5", 5, 2), ("1", 6, 1), ("a^1", 7, 0), ("a^3", 4, 2),
    ("a^1", 5, 1), ("a^6", 6, 0), ("a^6", 3, 2), ("a^6", 4, 1), ("2", 2, 2),
    ("a^7", 3, 1), ("2", 4, 0), ("a^2", 1, 2), ("a^2", 3, 0), ("a^3", 1, 1),
    ("1", 1, 0),
]


@pytest.fixture(scope="module")
def code_q3_shortened(curve_q3):
    """20 of the 27 points, in a shuffled order."""
    pts = rational_points(curve_q3)
    random.Random(3).shuffle(pts)
    return Code(curve_q3, 9, pts[:20])


@pytest.fixture(scope="module")
def code_q4_shuffled():
    """All 64 Hermitian q=4 points in a seeded shuffle, so the fibers
    interleave in the point order."""
    curve = Curve.hermitian(4)
    pts = rational_points(curve)
    random.Random(4).shuffle(pts)
    return Code(curve, 30, pts)


@pytest.fixture(scope="module")
def code_mk7():
    """y^3 + 5y^2 + 6y + 4 + 6x^4 = 0 over GF(7): 12 points, genus 3."""
    field = Field(7)
    curve = Curve(field, 3, 4, field.element(6),
                  {(0, 0): field.element(4), (0, 1): field.element(6),
                   (0, 2): field.element(5)})
    return Code(curve, 6)


CURVES = ["hermitian-2", "hermitian-3", "hermitian-4", *sorted(MK_FAMILIES)]


def curve_and_points(name: str, seed=None):
    """A curve of CURVES with all its rational points, or with a seeded
    shuffle of them cut to a random nonzero count."""
    if name.startswith("hermitian-"):
        curve = Curve.hermitian(int(name.split("-")[1]))
    else:
        curve, _ = curve_from_config(MK_FAMILIES[name])
    points = rational_points(curve)
    if seed is not None:
        rng = random.Random(seed)
        rng.shuffle(points)
        points = points[:rng.randrange(1, len(points))]
    return curve, points


def cusp_curve() -> Curve:
    """y^2 + x^3 = 0 over GF(4), singular at the origin."""
    field = Field(2, 2)
    return Curve(field, 2, 3, field.one, {})


class TestRationalPoints:
    def test_q3_has_27(self, curve_q3):
        assert len(rational_points(curve_q3)) == 27

    def test_q2_matches_exhaustive_scan(self):
        curve = Curve.hermitian(2)
        found = {(str(x), str(y))
                 for x in curve.field.elements()
                 for y in curve.field.elements()
                 if (y ** 2 + y - x ** 3).is_zero}
        assert len(found) == 8
        pts = rational_points(curve)
        assert {(str(x), str(y)) for x, y in pts} == found

    def test_origin_on_curve(self, curve_q3):
        zero = curve_q3.field.zero
        assert (zero, zero) in rational_points(curve_q3)

    def test_rejects_off_curve_point(self, curve_q3):
        one = curve_q3.field.one
        with pytest.raises(ValueError):
            Code(curve_q3, 16, [(one, one)] + rational_points(curve_q3)[1:])

    def test_rejects_duplicates(self, curve_q3):
        pts = rational_points(curve_q3)
        with pytest.raises(ValueError):
            Code(curve_q3, 16, [pts[0]] + list(pts[1:]) + [pts[0]])

    def test_singular_point_excluded_and_rejected(self):
        # the cuspidal curve y^2 + x^3 = 0 over GF(4) is singular at the
        # origin: both partials vanish there
        cusp = cusp_curve()
        field = cusp.field
        origin = (field.zero, field.zero)
        assert contains(cusp, *origin)
        assert not is_smooth_at(cusp, *origin)
        assert origin not in rational_points(cusp)
        smooth = (field.one, field.one)
        assert contains(cusp, *smooth) and is_smooth_at(cusp, *smooth)
        with pytest.raises(ValueError):
            Code(cusp, 1, [origin, smooth])

    def test_singular_point_with_nonzero_partial_terms(self):
        # on a3-gf7 the partials at (2, 5) are sums of nonzero terms that
        # cancel, unlike the cusp's, where every term vanishes at the origin
        curve, _ = curve_from_config(MK_FAMILIES["a3-gf7"])
        x, y = curve.field.element(2), curve.field.element(5)
        assert contains(curve, x, y) and not is_smooth_at(curve, x, y)
        elems = curve.field.elements()
        assert sum(contains(curve, px, py)
                   for px in elems for py in elems) == 9
        assert (x, y) not in rational_points(curve)

    @pytest.mark.parametrize("name", [*CURVES, "cusp"])
    def test_matches_exhaustive_scan(self, name):
        # the per-x listing against contains/is_smooth_at on every (x, y)
        # pair, in the canonical order
        curve = cusp_curve() if name == "cusp" else curve_and_points(name)[0]
        elems = sorted(curve.field.elements(), key=str)
        scan = [(x, y) for x in elems for y in elems
                if contains(curve, x, y) and is_smooth_at(curve, x, y)]
        assert rational_points(curve) == scan
        singular = {"cusp": (0, 0), "a3-gf7": (2, 5)}.get(name)
        if singular is not None:
            point = tuple(map(curve.field.element, singular))
            assert contains(curve, *point) and point not in scan

    def test_listing_tests_only_the_roots(self, monkeypatch):
        # q=5: 125 points among 625 pairs; the equation and the partials at
        # the roots are evaluated on kernel lists, so no pair or point is
        # tested one by one with boxed field arithmetic, when listing or
        # when checking a given list
        curve = Curve.hermitian(5)
        calls = []
        for name in ("__add__", "__sub__", "__mul__", "__truediv__",
                     "__pow__", "__neg__"):
            method = getattr(FieldElement, name)
            monkeypatch.setattr(
                FieldElement, name, lambda *args, method=method:
                calls.append(1) or method(*args))
        points = rational_points(curve)
        assert len(points) == 125
        assert checked_points(curve, points) == points
        assert not calls

    @pytest.mark.parametrize("name", ["cusp", "a3-gf7"])
    def test_checked_points_fails_as_the_point_loop(self, name):
        # the first offending point, in order, and its first failing check
        # (field, then on-curve, then singular, then duplicates) give the
        # same message as checking point by point with contains and
        # is_smooth_at; mixed lists hold the singular point
        curve = cusp_curve() if name == "cusp" else curve_and_points(name)[0]
        field = curve.field

        def point_by_point(points):
            out = []
            for x, y in points:
                if x.field != field or y.field != field:
                    raise ValueError(
                        "point coordinates from a different field")
                if not contains(curve, x, y):
                    raise ValueError(f"point ({x}, {y}) is not on the curve")
                if not is_smooth_at(curve, x, y):
                    raise ValueError(f"point ({x}, {y}) is singular")
                out.append((x, y))
            if len(set(out)) != len(out):
                raise ValueError("duplicate points")
            return out

        def outcome(check, *args):
            try:
                return check(*args)
            except ValueError as exc:
                return str(exc)

        elems, other = field.elements(), Field(3)
        good = rational_points(curve)
        pools = {
            "good": good,
            "off": [(x, y) for x in elems for y in elems
                    if not contains(curve, x, y)],
            "singular": [tuple(map(field.element,
                                   {"cusp": (0, 0), "a3-gf7": (2, 5)}[name]))],
            "foreign": [(other.one, field.one), (field.zero, other.one),
                        (other.one, other.zero)],
        }
        kinds = ("different field", "not on the curve", "singular",
                 "duplicate")
        rng = random.Random(name)
        seen = set()
        for _ in range(300):
            points = rng.sample(good, rng.randrange(1, len(good) + 1))
            for pool in rng.sample(sorted(pools), rng.randrange(4)):
                for _ in range(rng.randrange(1, 3)):
                    points.insert(rng.randrange(len(points) + 1),
                                  rng.choice(pools[pool]))
            expected = outcome(point_by_point, points)
            assert outcome(checked_points, curve, points) == expected
            seen.add(next((k for k in kinds if k in expected), None)
                     if isinstance(expected, str) else "ok")
        assert seen == {"ok", *kinds}

    @pytest.mark.parametrize("entry, message", [
        ("ints", "point coordinates from a different field"),
        ("int-y", "point coordinates from a different field"),
        ("none", "point 2 is not an (x, y) tuple: None"),
        ("one-tuple", "point 2 is not an (x, y) tuple: (1,)"),
        ("triple", "point 2 is not an (x, y) tuple: (1, 1, 1)"),
        ("list", "point 2 is not an (x, y) tuple: [1, 1]"),
    ])
    def test_checked_points_refuses_entries_that_are_no_points(
            self, curve_q3, entry, message):
        # (1, 2) raised an AttributeError, None a TypeError and a 1-tuple
        # an unpacking ValueError, through Code, radius_rows and
        # points_ideal_basis alike; the points before the entry are still
        # checked first
        one = curve_q3.field.one
        bad = {"ints": (1, 2), "int-y": (one, 2), "none": None,
               "one-tuple": (one,), "triple": (one, one, one),
               "list": [one, one]}[entry]
        good = rational_points(curve_q3)
        points = good[:2] + [bad] + good[2:]
        for check in (lambda: checked_points(curve_q3, points),
                      lambda: Code(curve_q3, 16, points),
                      lambda: radius_rows(curve_q3, points),
                      lambda: points_ideal_basis(curve_q3, points)):
            with pytest.raises(ValueError, match=re.escape(message)):
                check()
        off = (one, one)  # y^3 + y - x^4 = 1
        with pytest.raises(ValueError, match=re.escape(
                "point (1, 1) is not on the curve")):
            checked_points(curve_q3, good[:2] + [off, bad])

    @pytest.mark.parametrize("family, count", [
        ("a2-gf5", 9), ("a2-gf7", 9), ("a2-gf25", 34), ("a3-gf7", 8),
        ("a4-gf7", 11)])
    def test_smooth_point_counts(self, family, count):
        curve, _ = curve_from_config(MK_FAMILIES[family])
        assert len(rational_points(curve)) == count


class TestEncoding:
    def test_zero_message(self, code_q3):
        zeros = [code_q3.field.zero] * code_q3.k
        assert all(e.is_zero for e in code_q3.encode(zeros))

    def test_constant_message(self, code_q3):
        msg = [code_q3.field.zero] * code_q3.k
        msg[0] = code_q3.field.one  # coordinate of phi_0 = 1
        assert code_q3.encode(msg) == tuple([code_q3.field.one] * code_q3.n)

    def test_ev_of_x(self, code_q3):
        x = code_q3.curve.monomial(1, 0)
        assert ev(code_q3, x) == tuple(px for px, _ in code_q3.points)

    def test_dimension(self, code_q3):
        assert code_q3.k == 14
        assert len(code_q3.message_orders) == 14

    def test_repr(self, code_q3):
        assert repr(code_q3) == "Code(n=27, k=14, u=16 over GF(3^2))"

    def test_length_validation(self, code_q3):
        with pytest.raises(ValueError):
            code_q3.encode([code_q3.field.zero] * 3)

    def test_refuses_entry_from_another_field(self, code_q3):
        message = [Field(3).one] + [code_q3.field.zero] * (code_q3.k - 1)
        with pytest.raises(ValueError,
                           match="message entry from a different field"):
            code_q3.encode(message)

    @pytest.mark.parametrize("u", [True, 2.5, "3"])
    def test_u_must_be_an_integer(self, code_q2, u):
        with pytest.raises(ValueError, match="u must be an integer"):
            Code(code_q2.curve, u)

    @pytest.mark.parametrize("q, u", [(11, 600), (13, 1000), (16, 2000)])
    def test_large_q_interpolates_back_to_the_message(self, q, u):
        # the message monomials lie in the footprint, so interpolating a
        # codeword gives back mu, with w_s at every message order
        code = Code(Curve.hermitian(q), u)
        message = random_message(code, random.Random(q))
        h = code.lagrange(code.encode(message))
        assert h.delta() <= u
        assert [h.coefficient_at(s) for s in code.message_orders] == \
            list(message)

    def test_rank_is_k_for_all_valid_u(self):
        # for every nongap u < n: the unit message of order s encodes to
        # ev(phi_s) by the ring-element route, and the k codewords of the
        # unit messages have rank k
        for name in ["hermitian-2", "hermitian-3", *sorted(MK_FAMILIES)]:
            curve, pts = curve_and_points(name)
            sg = curve.semigroup
            for u in sg.nongaps(len(pts) - 1):
                if u == 0:
                    continue
                code = Code(curve, u, pts)
                zero, one = code.field.zero, code.field.one
                words = []
                for idx, s in enumerate(code.message_orders):
                    unit = [zero] * code.k
                    unit[idx] = one
                    words.append(code.encode(unit))
                    assert words[-1] == ev(code, curve.monomial(*sg.phi(s)))
                assert rank(words) == code.k, (name, u)


class TestIdealBasis:
    def test_q3_eta(self, code_q3):
        curve = code_q3.curve
        expected = curve.monomial(9, 0) - curve.monomial(1, 0)
        assert code_q3.eta_basis == (expected,)
        assert len(code_q3.delta_monomials) == 27

    def test_q2_eta(self, code_q2):
        curve = code_q2.curve
        expected = curve.monomial(4, 0) - curve.monomial(1, 0)
        assert code_q2.eta_basis == (expected,)
        # independent checks: vanishing at all 8 points, footprint count 8
        for px, py in code_q2.points:
            assert expected.evaluate(px, py).is_zero
        assert len(code_q2.delta_monomials) == 8

    def test_single_point(self, curve_q3):
        zero = curve_q3.field.zero
        etas, delta, _ = points_ideal_basis(curve_q3, [(zero, zero)])
        assert delta == (Monomial(0, 0),)
        assert {e.leading_monomial() for e in etas} == \
            {Monomial(1, 0), Monomial(0, 1)}

    def test_empty_point_set(self, curve_q3):
        # no point: the ideal is all of R, with an empty footprint and table
        assert points_ideal_basis(curve_q3, []) == ((curve_q3.one(),), (), [])
        assert radius_rows(curve_q3, []) == []
        with pytest.raises(ValueError, match=re.escape(
                "u must be an integer with 0 < u < n = 0, got 1")):
            Code(curve_q3, 1, [])

    def test_rejects_repeated_point(self, curve_q3):
        pts = rational_points(curve_q3)[:3]
        pts.append(pts[1])
        with pytest.raises(ValueError, match="duplicate point"):
            points_ideal_basis(curve_q3, pts)

    def test_repeat_in_full_fiber_is_duplicate(self, curve_q3):
        # every fiber of the 27 points is full, and the repeat adds no
        # y-value to its fiber, so only checked_points sees it
        pts = rational_points(curve_q3)
        assert all(len(fiber) == 3 for fiber in _fibers(pts).values())
        pts.append(pts[4])
        with pytest.raises(ValueError, match="duplicate point"):
            points_ideal_basis(curve_q3, pts)

    def test_rejects_point_off_the_curve(self, code_q2):
        one = code_q2.field.one
        assert not contains(code_q2.curve, one, one)
        with pytest.raises(ValueError, match="not on the curve"):
            points_ideal_basis(code_q2.curve,
                               [*code_q2.points[:3], (one, one)])

    def test_rejects_point_from_another_field(self, code_q2):
        one = Field(3).one
        with pytest.raises(ValueError, match="different field"):
            points_ideal_basis(code_q2.curve,
                               [*code_q2.points[:3], (one, one)])

    @pytest.mark.parametrize("name", [
        "hermitian-3-minus-one", "hermitian-4-minus-one", "fixture",
        "shuffled-mixed", *sorted(MK_FAMILIES)])
    def test_full_fiber_seed_matches_reference(self, name, code_q3):
        if name == "fixture":
            curve, points = code_q3.curve, list(code_q3.points)
        elif name == "shuffled-mixed":
            # a point dropped from every other fiber, then shuffled, so
            # full fibers lie between partial ones
            curve, points = curve_and_points("hermitian-3")
            drop = {next(iter(fiber.values()))
                    for fiber in list(_fibers(points).values())[::2]}
            points = [p for c, p in enumerate(points) if c not in drop]
            random.Random(17).shuffle(points)
        else:
            curve, points = curve_and_points(name.removesuffix("-minus-one"))
            if name.endswith("-minus-one"):
                points = points[:11] + points[12:]
        fibers = _fibers(points)
        assert any(len(f) == curve.a for f in fibers.values())
        if name.endswith(("-minus-one", "-mixed")):
            assert any(len(f) < curve.a for f in fibers.values())
        # the seeded build equals the point-by-point update over every point
        assert _ideal_generators(curve, points, fibers) == \
            _ideal_generators(curve, points, {})
        etas, delta, table = points_ideal_basis(curve, points)
        table = [curve.field.from_logs(row) for row in table]
        assert (etas, delta, table) == reference_ideal_basis(curve, points)

    def test_eta_vanishes_everywhere(self, code_q3):
        for eta in code_q3.eta_basis:
            for px, py in code_q3.points:
                assert eta.evaluate(px, py).is_zero

    def test_eta_leads_pairwise_nondivisible(self, curve_q3):
        # a partial point set forces a multi-element basis
        pts = rational_points(curve_q3)[:11]
        etas, delta, _ = points_ideal_basis(curve_q3, pts)
        assert len(delta) == 11
        sg = curve_q3.semigroup
        lms = [e.leading_monomial() for e in etas]
        assert len(lms) > 1
        for i, mi in enumerate(lms):
            for j, mj in enumerate(lms):
                if i != j:
                    assert not lattice_divides(sg, mi, mj)
        for eta in etas:
            for px, py in pts:
                assert eta.evaluate(px, py).is_zero

    @pytest.mark.parametrize("seed", [None, 1, 2, 3, 4])
    @pytest.mark.parametrize("name", CURVES)
    def test_matches_reference_elimination(self, name, seed):
        curve, points = curve_and_points(name, seed)
        etas, delta, table = points_ideal_basis(curve, points)
        table = [curve.field.from_logs(row) for row in table]
        assert (etas, delta, table) == reference_ideal_basis(curve, points)
        for eta in etas:
            for px, py in points:
                assert eta.evaluate(px, py).is_zero

    # sha256 of the etas, the footprint and the table as printed by the
    # dense Gauss-Jordan build, where the reference is too slow to compare
    @pytest.mark.parametrize("q, subset, digest", [
        (5, False,
         "5f99ef72e9e4c25ee65732f537186a5d5082b4035686097acd0a14ae4c20ad10"),
        (5, True,
         "0c45fb904e0fe3d15120038bf77536585dd4c3db0687cd38cb771da71bd2fe90"),
        (7, False,
         "6e38af40244c38faca0997af424ebe2c680cb53347e854d8ba0cdd1014c9aa66"),
    ])
    def test_digest_pinned(self, q, subset, digest):
        curve = Curve.hermitian(q)
        points = rational_points(curve)
        if subset:
            points = random.Random(5).sample(points, 3 * len(points) // 4)
        etas, delta, table = points_ideal_basis(curve, points)
        h = hashlib.sha256()
        for part in (*map(str, etas), " ".join(map(str, delta)), str(table)):
            h.update(part.encode() + b"\n")
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("shortened", [False, True])
    @pytest.mark.parametrize("name", CURVES)
    def test_message_monomials_in_footprint(self, name, shortened):
        # a function of the ideal with pole order s <= u < n would vanish at
        # n > s points, more zeros than its s poles allow, so evaluation is
        # injective on the messages of every u < n
        curve, points = curve_and_points(name)
        if shortened:
            random.Random(7).shuffle(points)
            points = points[:len(points) - max(1, len(points) // 4)]
        code = Code(curve, len(points) - 1, points)
        sg = curve.semigroup
        stair = sg.staircase(eta.delta() for eta in code.eta_basis)
        for s in code.message_orders:
            assert sg.phi(s).i < stair[sg.phi(s).j]


class TestLagrange:
    def test_keeps_no_n_by_n_table(self):
        # interpolation and encoding go through the fibers: after an encode
        # and a decode, which make their vectors on first use, no attribute
        # of a code and nothing its interpolation closes over is a list of
        # more than a rows (lists or bytes) of length n, so neither an
        # n x n nor a k x n table; the vectors made on first use, the l_x0
        # and the x^i at the w distinct x-values, are at most w x w
        code = Code(Curve.hermitian(4), 30)
        rng = random.Random(30)
        sent = code.encode(random_message(code, rng))
        decode(code, add_vectors(sent, random_error(code, rng, 16)))
        interpolate = code._interpolate
        closed = dict(zip(interpolate.__code__.co_freevars,
                          (cell.cell_contents
                           for cell in interpolate.__closure__)))
        for name, value in [*vars(code).items(), *closed.items()]:
            assert not (isinstance(value, (list, tuple))
                        and len(value) > code.curve.a
                        and all(isinstance(row, (list, tuple, bytes))
                                and len(row) == code.n for row in value)), name
        w = len({px for px, _ in code.points})
        assert (w, code.n) == (16, 64)
        for table in (closed["lx"], code._x_powers):
            assert 0 < len(table) <= w
            assert all(isinstance(row, bytes) and len(row) <= w
                       for row in table)

    def test_tables_made_on_first_use(self, monkeypatch):
        # building a code, encoding and reading d_u make no Lagrange
        # polynomial; the first lagrange makes them, in one call for the
        # x-values and one for the fibers, and its closure keeps none of the
        # l_x rows, only the l_x0 vectors; later calls make none
        plain = code_module._lagrange_polys
        calls = []

        def counted(field, root_sets):
            calls.append((len(root_sets), plain(field, root_sets)))
            return calls[-1][1]
        monkeypatch.setattr(code_module, "_lagrange_polys", counted)
        code = Code(Curve.hermitian(4), 30)
        interpolate = code._interpolate
        closed = dict(zip(interpolate.__code__.co_freevars,
                          interpolate.__closure__))
        assert closed["lx"].cell_contents is None
        assert code._x_powers == []
        assert calls == []
        rng = random.Random(35)
        sent = code.encode(random_message(code, rng))
        assert code.decoding_distance() == 34
        assert calls == []
        code.lagrange(sent)
        assert sorted(sets for sets, _ in calls) == [1, 16]
        (_, [(_, lx_rows)]), = [c for c in calls if c[0] == 1]
        held = {id(value) for cell in closed.values()
                if isinstance(cell.cell_contents, list)
                for value in (cell.cell_contents, *cell.cell_contents)}
        assert not held & {id(lx_rows), *map(id, lx_rows)}
        assert len(closed["lx"].cell_contents) == 16
        code.lagrange(sent)
        code.encode(random_message(code, rng))
        decode(code, add_vectors(sent, random_error(code, rng, 16)))
        assert len(calls) == 2

    @pytest.mark.parametrize("name, shape", [
        *[(f"hermitian-{q}", shape) for q in (2, 3, 4, 5)
          for shape in ("full", "shortened", "shuffled")],
        *[(family, "full") for family in sorted(MK_FAMILIES)]])
    def test_many_sets_match_one_set_per_fiber(self, name, shape):
        # the x-values and every fiber in one call, grouped by size, equal
        # one call per set: set group[g]'s coefficients k are entries g,
        # g + len(group), ... of rows[k]; each polynomial is 1 at its root
        # and 0 at the other roots of its set
        curve, points = curve_and_points(name)
        field = curve.field
        if shape != "full":
            random.Random(len(points)).shuffle(points)
        if shape == "shortened":
            points = points[:len(points) * 3 // 4]
        fibers = _fibers(points)
        sets = [list(fibers)] + [list(fiber) for fiber in fibers.values()]
        if (name, shape) == ("hermitian-4", "shortened"):
            assert len(points) == 48
            assert len({len(fiber) for fiber in fibers.values()}) > 1
        many = _lagrange_polys(field, sets)
        assert sorted(c for group, _ in many for c in group) == \
            list(range(len(sets)))
        for group, rows in many:
            for g, index in enumerate(group):
                roots = sets[index]
                alone = [row[g::len(group)] for row in rows]
                assert _lagrange_polys(field, [roots]) == [([0], alone)]
                for r0, poly in zip(roots, zip(*alone)):
                    coeffs = field.from_logs(poly)
                    assert len(coeffs) == len(roots)
                    for r in roots:
                        value = sum((c * r ** i
                                     for i, c in enumerate(coeffs)),
                                    field.zero)
                        assert value == (field.one if r == r0
                                         else field.zero)

    def test_zero(self, code_q3):
        v = tuple([code_q3.field.zero] * 27)
        assert code_q3.lagrange(v).is_zero

    def test_monomial_roundtrip(self, code_q3):
        x = code_q3.curve.monomial(1, 0)
        assert code_q3.lagrange(ev(code_q3, x)) == x

    # the shortened and MK codes put pivot columns out of point order
    @pytest.mark.parametrize("name",
                             ["code_q3", "code_q3_shortened", "code_mk7"])
    def test_interpolates_random_vectors(self, name, request):
        code = request.getfixturevalue(name)
        rng = random.Random(42)
        elems = code.field.elements()
        for _ in range(200):
            v = tuple(elems[rng.randrange(code.field.order)]
                      for _ in range(code.n))
            h = code.lagrange(v)
            assert ev(code, h) == v
            assert support(h) <= set(code.delta_monomials)
        # the table times the evaluation matrix on the footprint is I
        _, delta, table = points_ideal_basis(code.curve, code.points)
        columns = [ev(code, code.curve.monomial(*m)) for m in delta]
        zero, one = code.field.zero, code.field.one
        for k, row in enumerate(table):
            row = code.field.from_logs(row)
            for kk, col in enumerate(columns):
                total = zero
                for t, e in zip(row, col):
                    total = total + t * e
                assert total == (one if k == kk else zero)

    def test_bundled_vector_interpolation(self, code_q3, received_q3):
        field = code_q3.field
        expected = {Monomial(i, j): field.parse(tok)
                    for tok, i, j in H_V_TERMS}
        h = code_q3.lagrange(received_q3)
        assert dict(h.items()) == expected
        assert h.delta() == 32
        assert h.leading_monomial() == Monomial(8, 2)
        assert h.leading_coefficient() == field.parse("a^3")


class TestAgainstReferences:
    """Encoding and interpolation on kernel values against the FieldElement
    routes they replace."""

    # norm-trace-gf27 keeps kernel-value lists as its vectors, the others
    # bytes; the shortened one has fibers of several sizes
    CODES = ["code_q3", "code_q3_shortened", "code_q4_shuffled", "code_mk7",
             *(f"{name}-u3" for name in sorted(MK_FAMILIES)),
             "norm-trace-gf8-u13", "norm-trace-gf27-u41-shortened"]

    @staticmethod
    def named_code(name, request):
        """A fixture, or family-uU[-shortened] for ``mk_code``."""
        match = re.fullmatch(r"(.+)-u(\d+)(-shortened)?", name)
        if match:
            family, u, shortened = match.groups()
            return mk_code(family, int(u), shortened is not None)
        return request.getfixturevalue(name)

    @staticmethod
    def sample_vectors(field, length, rng):
        """Random vectors, sparse ones, zero and all-ones."""
        elems = field.elements()
        out = [tuple([field.zero] * length), tuple([field.one] * length)]
        for density in (1.0, 0.2):
            for _ in range(20):
                out.append(tuple(
                    elems[rng.randrange(1, field.order)]
                    if rng.random() < density else field.zero
                    for _ in range(length)))
        return out

    @pytest.mark.parametrize("name", CODES)
    def test_lagrange_matches_reference(self, name, request):
        code = self.named_code(name, request)
        _, _, table = reference_ideal_basis(code.curve, code.points)
        for v in self.sample_vectors(code.field, code.n, random.Random(5)):
            assert code.lagrange(v) == reference_lagrange(code, table, v)

    @pytest.mark.parametrize("name", CODES)
    def test_encode_matches_reference(self, name, request):
        code = self.named_code(name, request)
        rng = random.Random(6)
        messages = self.sample_vectors(code.field, code.k, rng)
        messages += [random_message(code, rng) for _ in range(20)]
        for message in messages:
            assert code.encode(message) == reference_encode(code, message)

    @pytest.mark.parametrize("name", ["code_q3", "code_q3_shortened",
                                      "norm-trace-gf27-u41-shortened"])
    def test_first_call_matches_later_calls(self, name, request):
        # interpolation and encoding make their vectors on a code's first
        # call: each output on a fresh code's first call equals the one on
        # a code that has made calls before
        code = self.named_code(name, request)
        rng = random.Random(7)
        vectors = self.sample_vectors(code.field, code.n, rng)
        messages = self.sample_vectors(code.field, code.k, rng)
        cases = [(vectors[c], messages[c]) for c in (0, 1, 2, 30)]
        used = Code(code.curve, code.u, code.points)
        for v, message in reversed(cases):
            used.lagrange(v), used.encode(message)
        for v, message in cases:
            fresh = Code(code.curve, code.u, code.points)
            assert fresh.lagrange(v) == used.lagrange(v)
            fresh = Code(code.curve, code.u, code.points)
            assert fresh.encode(message) == used.encode(message)


class TestLargeField:
    """One kernel rule for every order: a ten-point code over GF(65519)."""

    @pytest.fixture(scope="class")
    def code_65519(self, field_65519):
        # y^2 + x^3 + x + 3 = 0; p = 3 mod 4, so a square c has the square
        # roots +-c^((p+1)/4)
        field = field_65519
        p = field.p
        curve = Curve(field, 2, 3, field.one,
                      {(1, 0): field.one, (0, 0): field.element(3)})
        points = []
        x = 0
        while len(points) < 10:
            c = -(x ** 3 + x + 3) % p
            y = pow(c, (p + 1) // 4, p)
            if c and y * y % p == c:
                points += [(field.element(x), field.element(y)),
                           (field.element(x), field.element(p - y))]
            x += 1
        return Code(curve, 4, points)

    def test_ideal_basis_matches_reference(self, code_65519):
        curve, points = code_65519.curve, code_65519.points
        etas, delta, table = points_ideal_basis(curve, points)
        table = [curve.field.from_logs(row) for row in table]
        assert (etas, delta, table) == reference_ideal_basis(curve, points)

    def test_round_trip(self, code_65519):
        code = code_65519
        rng = random.Random(9)
        t = (code.decoding_distance() - 1) // 2
        assert t >= 2
        elems = [code.field.element(rng.randrange(1, code.field.p))
                 for _ in range(code.k + t)]
        message = tuple(elems[:code.k])
        sent = code.encode(message)
        assert sent == reference_encode(code, message)
        received = list(sent)
        for pos, e in zip(rng.sample(range(code.n), t), elems[code.k:]):
            received[pos] = received[pos] + e
        field = code.field
        tables = (field._zt, field._norm)
        assert len(field._zt) == 7 * (field.order - 1)
        result = decode(code, tuple(received))
        assert result.message == message
        assert result.distance == t
        # built once, with the Field
        assert field._zt is tables[0] and field._norm is tables[1]


class TestDistance:
    def test_d16_is_11(self, code_q3):
        assert code_q3.decoding_distance() == 11

    def test_closed_form_examples(self):
        assert hermitian_decoding_distance(3, 16) == 11
        assert hermitian_decoding_distance(3, 24) == 3
        assert hermitian_decoding_distance(3, 15) == 12

    def test_closed_form_rejects_gaps(self):
        with pytest.raises(ValueError):
            hermitian_decoding_distance(3, 5)
        with pytest.raises(ValueError):
            hermitian_decoding_distance(3, 27)
        # no Hermitian curve has these q
        for q, u in [(1, 0), (6, 20), (10, 50)]:
            with pytest.raises(ValueError,
                               match=f"^{q} is not a prime power$"):
                hermitian_decoding_distance(q, u)

    def test_order_bound_rejects_gaps(self, code_q3):
        with pytest.raises(ValueError):
            code_q3.order_bound(5)

    def test_arguments_must_be_integers(self, code_q3):
        # each raised a bare TypeError
        with pytest.raises(ValueError, match="q must be an integer, got 2.0"):
            Curve.hermitian(2.0)
        with pytest.raises(ValueError,
                           match="order s must be an integer, got 16.0"):
            code_q3.order_bound(16.0)
        with pytest.raises(ValueError, match="nongap .* got 16.0"):
            hermitian_decoding_distance(3, 16.0)
        with pytest.raises(ValueError, match="got True"):
            hermitian_decoding_distance(2, True)
        # named the weights (3.0, 4.0) that Semigroup was given
        with pytest.raises(ValueError, match="q must be an integer, got 3.0"):
            hermitian_decoding_distance(3.0, 16)

    def test_matches_closed_form_everywhere(self, curve_q3):
        for curve in (curve_q3, *map(Curve.hermitian,
                                     (4, 5, 7, 8, 9, 11, 13, 16))):
            q, n = curve.a, curve.a ** 3
            rows = dict(radius_rows(curve))
            for u in curve.semigroup.nongaps(n - 1):
                assert rows[u] == hermitian_decoding_distance(q, u)
                assert rows[u] >= n - u

    @pytest.mark.parametrize("name", [
        *(f"{family}-{kind}" for family in sorted(MK_FAMILIES)
          for kind in ("full", "shortened")),
        *(f"hermitian-{q}" for q in range(2, 6))])
    def test_row_ends_and_coverage_count(self, name):
        # beyond full Hermitian sets: every MK_FAMILIES curve on its full
        # and shortened points, and Hermitian q=2..5 on a seeded shuffle
        # with a quarter dropped.  d_u read at the row ends is the prefix
        # minimum over every nongap, and nu(s) is the number of footprint
        # monomials that phi(s) divides, counted one by one
        family, kind = name.rsplit("-", 1)
        if family == "hermitian":
            curve = Curve.hermitian(int(kind))
            points = rational_points(curve)
            random.Random(int(kind)).shuffle(points)
            points = points[:len(points) - len(points) // 4]
        else:
            code = mk_code(family, 1, shortened=kind == "shortened")
            curve, points = code.curve, code.points
        sg, n = curve.semigroup, len(points)
        rows = dict(radius_rows(curve, points))
        for u in sg.nongaps(n - 1)[1:]:
            assert Code(curve, u, points).decoding_distance() == rows[u]
        code = Code(curve, 1, points)
        top = max(map(sg.degree, code.delta_monomials))
        counts = {s: sum(sg.is_nongap(sg.degree(m) - s)
                         for m in code.delta_monomials)
                  for s in sg.nongaps(top + curve.a)}
        assert {s: code.order_bound(s) for s in counts} == counts
        assert counts[0] == n and counts[top] == 1
        assert min(counts.values()) == 0

    def test_no_footprint_monomials_per_build(self, monkeypatch):
        # a build makes no monomial of the footprint (it made 125 at q=5),
        # and d_u builds one staircase per row end, at most a (it built
        # one per message order, 51 here); delta_monomials made on read are
        # phi of the footprint orders
        curve = Curve.hermitian(5)
        calls = {"phi": 0, "staircase": 0}

        def counted(name, method):
            def wrapper(self, *args):
                calls[name] += 1
                return method(self, *args)
            return wrapper
        for name in calls:
            monkeypatch.setattr(Semigroup, name,
                                counted(name, getattr(Semigroup, name)))
        code = Code(curve, 60)
        assert calls["phi"] == 0
        calls["staircase"] = 0
        assert code.decoding_distance() == 65
        assert calls["staircase"] <= curve.a
        assert code.delta_monomials == points_ideal_basis(curve,
                                                          code.points)[1]
        assert len(code.delta_monomials) == 125

    def test_hermitian_order_bound_formula(self, code_q3):
        # nu(s) = s2 * max(s1 - s2 + q + 1 - q^2, 0) + q^3 - s
        # for s = q*s1 + s2, 0 <= s2 < q
        sg = code_q3.curve.semigroup
        for s in sg.nongaps(16):
            s1, s2 = divmod(s, 3)
            expected = s2 * max(s1 - s2 + 4 - 9, 0) + 27 - s
            assert code_q3.order_bound(s) == expected


class TestVectorIO:
    def test_roundtrip(self, code_q3, received_q3):
        text = format_vector(received_q3)
        assert parse_vector(code_q3.field, text) == received_q3

    def test_malformed_token_position(self, field9):
        with pytest.raises(VectorParseError) as err:
            parse_vector(field9, "0,1,zz,2")
        assert err.value.line == 1
        assert err.value.column == 5

    def test_empty_token(self, field9):
        with pytest.raises(VectorParseError):
            parse_vector(field9, "0,,1")

    def test_length_check(self, field9):
        with pytest.raises(VectorParseError):
            parse_vector(field9, "0,1", expect_length=3)

    def test_blank_input_rejected(self, field9):
        with pytest.raises(VectorParseError,
                           match="line 1, column 1: empty input"):
            parse_vector(field9, "  \n\n")

    def test_multiple_lines_rejected(self, field9):
        with pytest.raises(VectorParseError) as err:
            parse_vector(field9, "0,1\n2,0")
        assert err.value.line == 2

    def test_trailing_newline_ok(self, field9):
        assert len(parse_vector(field9, "0,1,a^3\n")) == 3


class TestConfig:
    def test_hermitian_inline(self):
        code = code_from_config({"type": "hermitian", "q": 2, "u": 4})
        assert (code.n, code.k) == (8, 4)

    def test_mk_config_equivalent_to_hermitian(self, code_q2):
        cfg = {
            "type": "mk",
            "field": {"p": 2, "m": 2},
            "a": 2, "b": 3, "d": "1",
            "coeffs": [[0, 1, "1"]],
            "u": 4,
        }
        code = code_from_config(cfg)
        assert code.points == code_q2.points
        assert code.eta_basis == code_q2.eta_basis

    def test_degree_one_modulus_builds_the_same_curve(self):
        # a2-gf5 with "modulus": [1, 1] built a curve over a second GF(5)
        plain = MK_FAMILIES["a2-gf5"]
        curve, _ = curve_from_config(plain)
        other, _ = curve_from_config(
            {**plain, "field": {"p": 5, "modulus": [1, 1]}})
        assert other == curve and hash(other) == hash(curve)
        assert Code(other, 3).eta_basis == Code(curve, 3).eta_basis

    def test_point_override_order(self, code_q3):
        # the bundled fixture carries its own point order
        xs = [str(px) for px, _ in code_q3.points[:4]]
        assert xs == ["0", "0", "0", "1"]

    def test_unknown_type(self):
        with pytest.raises(ValueError):
            code_from_config({"type": "goppa"})

    def test_mk_requires_field(self):
        with pytest.raises(ValueError):
            code_from_config({"type": "mk", "a": 2, "b": 3, "d": "1", "u": 4})
