"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and enforcing its time budget.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import random
import time
from contextlib import contextmanager

from agcodec.cli import trace_lines
from agcodec.code import (Code, hermitian_decoding_distance, radius_rows,
                          rational_points)
from agcodec.curvering import Curve, Monomial, Semigroup
from agcodec.decoder import DOWN, UP, decode
from agcodec.gf import Field
from agcodec.oracle import check_gb, lcm_check, nearest_codeword

from conftest import FIXTURES
from support import (add_vectors, random_error, random_message,
                     tracked_decode)
from test_code import H_V_TERMS
from test_gf import SMALL_ORDERS


@contextmanager
def criterion(number, name, budget_seconds):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    assert elapsed < budget_seconds, \
        f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_golden_trace(code_q3, received_q3):
    with criterion(1, "golden trace", 1.0):
        field = code_q3.field
        curve = code_q3.curve
        lines, result = trace_lines(code_q3, received_q3)

        # interpolation: full polynomial, term for term
        h = code_q3.lagrange(received_q3)
        assert dict(h.items()) == {Monomial(i, j): field.parse(tok)
                                   for tok, i, j in H_V_TERMS}
        assert h.delta() == 32

        result2, records = tracked_decode(code_q3, received_q3)
        states = {s: state for s, state, _, _ in records}
        votes = {rec.s: rec for rec in result.votes}

        # initial basis: {x^9 - x, z - h_v} at weight 32
        init = states[32]
        assert init.weight == 32
        assert [p.down for p in init.g] == \
            [curve.monomial(9, 0) - curve.monomial(1, 0)]
        assert init.f[0].up == curve.one()
        assert init.f[0].down == -h

        # weight 31: F leading terms a^1*x*z and a^1*y*z
        a = field.generator
        f31 = [(ld.coefficient, ld.monomial, ld.location)
               for ld in states[31].f_leads()]
        assert f31 == [(a, Monomial(1, 0), UP), (a, Monomial(0, 1), UP)]

        # weight 28: F leading terms 2*x*z and 2*y*z with the recombined
        # second components
        two = field.element(2)
        s28 = states[28]
        assert [(ld.coefficient, ld.monomial, ld.location)
                for ld in s28.f_leads()] == \
            [(two, Monomial(1, 0), UP), (two, Monomial(0, 1), UP)]
        a6 = field.parse("a^6")
        assert s28.f[0].up.coefficient((0, 0)) == field.parse("a^5")
        assert s28.f[0].down.leading_term() == (Monomial(9, 1), a6)
        assert s28.f[1].down.leading_term() == (Monomial(8, 2), a6)

        # the vote at s = 16
        v16 = votes[16]
        a7 = field.parse("a^7")
        assert v16.candidates == (field.zero, a7)
        assert v16.tallies[field.zero] == 2
        assert v16.tallies[a7] == 1
        assert v16.chosen == field.zero

        # weight 15 basis leading data
        s15 = states[15]
        assert [(ld.coefficient, ld.monomial, ld.location)
                for ld in s15.g_leads()] == [
            (field.parse("a^2"), Monomial(7, 1), DOWN),
            (field.one, Monomial(8, 0), DOWN)]
        assert [(ld.coefficient, ld.monomial, ld.location)
                for ld in s15.f_leads()] == [
            (field.parse("a^2"), Monomial(2, 0), UP),
            (field.parse("a^5"), Monomial(1, 2), UP)]
        assert s15.f[0].down.is_zero

        # final output: the all-zero message of length 14, verified ok
        assert result.message == tuple([field.zero] * 14)
        assert result2.message == result.message
        assert len(result.message) == 14
        assert result.status == "ok"

        # emitted trace matches the bundled golden file token for token
        golden = (FIXTURES / "trace_q3_golden.txt").read_text().split()
        assert "\n".join(lines).split() == golden


def test_criterion_2_radius_closed_form(curve_q3):
    with criterion(2, "radius closed form", 1.0):
        rows = dict(radius_rows(curve_q3))
        sg = curve_q3.semigroup
        nongaps = sg.nongaps(26)
        assert set(rows) == set(nongaps)
        for u in nongaps:
            assert rows[u] == hermitian_decoding_distance(3, u)
            assert rows[u] >= 27 - u
        assert rows[16] == 11


def test_criterion_3_correction_guarantee(code_q3):
    with criterion(3, "correction guarantee", 60.0):
        rng = random.Random(20260810)
        successes = 0
        for _ in range(200):
            message = random_message(code_q3, rng)
            error = random_error(code_q3, rng, 5)
            received = add_vectors(code_q3.encode(message), error)
            if decode(code_q3, received).message == message:
                successes += 1
        assert successes == 200


def test_criterion_4_oracle_equivalence(code_q2):
    with criterion(4, "oracle equivalence", 30.0):
        assert code_q2.n == 8 and code_q2.k == 4
        assert code_q2.decoding_distance() == 4
        rng = random.Random(8086)
        nonzero = code_q2.field.elements()[1:]
        for _ in range(20):
            message = random_message(code_q2, rng)
            c = code_q2.encode(message)
            for pos, val in itertools.product(range(8), nonzero):
                v = list(c)
                v[pos] = v[pos] + val
                best = nearest_codeword(code_q2, tuple(v))
                assert len(best) == 1
                assert decode(code_q2, tuple(v)).message == best[0][0]


def test_criterion_5_groebner_invariants(code_q3):
    with criterion(5, "groebner invariant suite", 120.0):
        rng = random.Random(555)
        sg = code_q3.curve.semigroup
        for _ in range(50):
            message = random_message(code_q3, rng)
            weight = rng.randrange(6)
            error = random_error(code_q3, rng, weight)
            received = add_vectors(code_q3.encode(message), error)
            _, records = tracked_decode(code_q3, received)
            for s, state, _, v_s in records:
                report = check_gb(s, state, code_q3, v_s)
                assert report.passed, (s, report.counterexample)
                upstairs = sg.footprint(
                    [ld.monomial for ld in state.f_leads()])
                assert len(upstairs) <= weight


def test_criterion_6_algebra_properties():
    with criterion(6, "algebra property suite", 30.0):
        # field axioms on random triples
        rng = random.Random(606)
        for p, m in [(2, 3), (3, 2), (5, 1), (7, 2)]:
            field = Field(p, m)
            elems = field.elements()
            for _ in range(50):
                a, b, c = (elems[rng.randrange(len(elems))] for _ in range(3))
                assert (a + b) + c == a + (b + c)
                assert a * (b + c) == a * b + a * c
                assert (a + (-a)).is_zero
                if not a.is_zero:
                    assert a * a.inverse() == field.one

        # Frobenius, exhaustively for every field of order <= 81
        for p, m in SMALL_ORDERS:
            field = Field(p, m)
            for a, b in itertools.product(field.elements(), repeat=2):
                assert (a + b) ** p == a ** p + b ** p

        # pole orders are additive under multiplication
        curve = Curve.hermitian(3)
        elems = curve.field.elements()
        for _ in range(60):
            raw_f = {(rng.randrange(9), rng.randrange(3)):
                     elems[rng.randrange(1, 9)] for _ in range(4)}
            raw_g = {(rng.randrange(9), rng.randrange(3)):
                     elems[rng.randrange(1, 9)] for _ in range(4)}
            f, g = curve.reduce(raw_f), curve.reduce(raw_g)
            if f.is_zero or g.is_zero:
                continue
            assert (f * g).delta() == f.delta() + g.delta()

        # lcm covering for every nongap pair up to 60, both weight systems
        for a, b in [(3, 4), (4, 5)]:
            sg = Semigroup(a, b)
            nongaps = sg.nongaps(60)
            for s in nongaps:
                for t in nongaps:
                    assert lcm_check(sg, s, t, s + t + a * b).passed

        # |monomials not divisible by phi_s| == s
        for a, b in [(3, 4), (4, 5)]:
            sg = Semigroup(a, b)
            for s in sg.nongaps(40):
                assert len(sg.non_multiples(s)) == s


def test_criterion_7_ideal_construction():
    with criterion(7, "ideal construction", 1.0):
        for q, power in [(3, 9), (2, 4)]:
            curve = Curve.hermitian(q)
            points = rational_points(curve)
            code = Code(curve, q, points)  # u = q is always a valid nongap
            expected = curve.monomial(power, 0) - curve.monomial(1, 0)
            assert code.eta_basis == (expected,)
            assert len(code.delta_monomials) == q ** 3
            assert code.n == q ** 3
