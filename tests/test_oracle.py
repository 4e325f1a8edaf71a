import random

import pytest

from agcodec.curvering import Semigroup
from agcodec.decoder import GBState, ModulePair, decode, initial_basis
from agcodec.oracle import check_gb, lcm_check, nearest_codeword

from support import (add_vectors, mk_code, random_error, random_message,
                     tracked_decode)


class TestNearestCodeword:
    def test_codeword_is_its_own_minimizer(self, code_q2):
        rng = random.Random(8)
        message = random_message(code_q2, rng)
        c = code_q2.encode(message)
        result = nearest_codeword(code_q2, c)
        assert result == [(message, c, 0)]

    def test_single_error_unique(self, code_q2):
        rng = random.Random(9)
        message = random_message(code_q2, rng)
        received = add_vectors(code_q2.encode(message),
                               random_error(code_q2, rng, 1))
        result = nearest_codeword(code_q2, received)
        assert len(result) == 1
        assert result[0][0] == message
        assert result[0][2] == 1

    def test_equidistant_tie_reports_all(self, code_q2):
        rng = random.Random(10)
        zero_msg = tuple([code_q2.field.zero] * code_q2.k)
        other_msg = random_message(code_q2, rng)
        while other_msg == zero_msg:
            other_msg = random_message(code_q2, rng)
        c1 = code_q2.encode(zero_msg)
        c2 = code_q2.encode(other_msg)
        differing = [i for i in range(code_q2.n) if c1[i] != c2[i]]
        v = list(c1)
        for i in differing[:len(differing) // 2]:
            v[i] = c2[i]
        result = nearest_codeword(code_q2, tuple(v))
        codewords = {tuple(str(e) for e in cw) for _, cw, _ in result}
        half = len(differing) - len(differing) // 2
        if len(differing) // 2 == half:  # true midpoint
            assert tuple(str(e) for e in c1) in codewords
            assert tuple(str(e) for e in c2) in codewords
        distances = {d for _, _, d in result}
        assert len(distances) == 1

    def test_cap_is_a_hard_error(self, code_q3):
        with pytest.raises(ValueError):
            nearest_codeword(code_q3, tuple([code_q3.field.zero] * 27))


class TestCheckGb:
    def test_initial_state_passes(self, code_q3, received_q3):
        state = initial_basis(code_q3, received_q3)
        report = check_gb(32, state, code_q3, received_q3)
        assert report.passed
        assert report.counterexample is None

    def test_dropping_eta_breaks_footprint(self, code_q3, received_q3):
        state = initial_basis(code_q3, received_q3)
        broken = GBState(state.weight, (), state.f, state.curve)
        report = check_gb(32, broken, code_q3, received_q3)
        assert not report.passed
        assert report.counterexample["check"] == "footprint"

    def test_wrong_vector_breaks_membership(self, code_q3, received_q3):
        state = initial_basis(code_q3, received_q3)
        wrong = list(received_q3)
        wrong[0] = wrong[0] + code_q3.field.one
        report = check_gb(32, state, code_q3, tuple(wrong))
        assert not report.passed
        assert report.counterexample["check"] == "membership"

    def test_unreduced_part_detected(self, code_q3, received_q3):
        state = initial_basis(code_q3, received_q3)
        curve = code_q3.curve
        # x * eta has a leading monomial divisible by eta's
        extra = ModulePair(curve.zero(),
                           state.g[0].down * curve.monomial(1, 0))
        broken = GBState(state.weight, state.g + (extra,), state.f,
                         curve)
        report = check_gb(32, broken, code_q3, received_q3)
        assert not report.passed
        assert report.counterexample["check"] == "reduced"


class TestCheckGbOnAWatchedBasis:
    """A basis the decode watched, each part of two or more elements,
    broken so that every element still lies in the module."""

    @pytest.fixture(scope="class")
    def watched(self, code_q3, received_q3):
        _, records = tracked_decode(code_q3, received_q3)
        s, state, _, v_s = next(r for r in records
                                if len(r[1].g) > 1 and len(r[1].f) > 1)
        assert check_gb(s, state, code_q3, v_s).passed
        return s, state, v_s

    def test_g_pair_in_the_f_part_breaks_location(self, code_q3, watched):
        s, state, v_s = watched
        moved = GBState(state.weight, state.g[1:], state.f + state.g[:1],
                        state.curve)
        report = check_gb(s, moved, code_q3, v_s)
        assert report.passed is False
        assert report.counterexample["check"] == "location"
        assert report.counterexample["element"] == f"F{len(moved.f)}"

    @pytest.mark.parametrize("part", ["g", "f"])
    def test_dropped_element_breaks_the_footprint_count(
            self, code_q3, watched, part):
        s, state, v_s = watched
        g, f = state.g, state.f
        if part == "g":
            g = g[1:]
        else:
            f = f[1:]
        report = check_gb(s, GBState(state.weight, g, f, state.curve),
                          code_q3, v_s)
        assert report.passed is False
        assert report.counterexample["check"] == "footprint"
        assert report.counterexample["size"] > code_q3.n


class TestLcmCheck:
    def test_large_pair(self):
        sg = Semigroup(3, 4)
        report = lcm_check(sg, 32, 27, 100)
        assert report.passed
        assert sg.lcms(32, 27) == (35, 36)

    def test_generators(self):
        sg = Semigroup(3, 4)
        assert lcm_check(sg, 3, 4, 60).passed
        assert sg.lcms(3, 4) == (7, 12)

    def test_self_pair(self):
        sg = Semigroup(3, 4)
        assert lcm_check(sg, 7, 7, 40).passed
        assert sg.lcms(7, 7) == (7,)

    def test_bound_too_small(self):
        with pytest.raises(ValueError):
            lcm_check(Semigroup(3, 4), 3, 4, 10)

    def test_an_order_that_is_no_common_multiple_fails(self, monkeypatch):
        # phi(3) = x does not divide phi(4) = y
        monkeypatch.setattr(Semigroup, "lcms", lambda self, r, t: (4,))
        report = lcm_check(Semigroup(3, 4), 3, 4, 60)
        assert report.passed is False
        assert report.counterexample == {"check": "common-multiple", "lcm": 4}

    def test_lcms_that_miss_a_multiple_fail(self, monkeypatch):
        # the lcms of x and y are xy (7) and x^4 (12); 12 is no multiple
        # of 7
        monkeypatch.setattr(Semigroup, "lcms", lambda self, r, t: (7,))
        report = lcm_check(Semigroup(3, 4), 3, 4, 60)
        assert report.passed is False
        assert report.counterexample == {"check": "covering", "multiple": 12,
                                         "lcms": (7,)}


class TestDecoderAgreement:
    def test_single_errors_match_exhaustive_search(self, code_q2):
        # spot check here; the full 20x24 sweep runs in the acceptance suite
        rng = random.Random(12)
        elems = code_q2.field.elements()
        for _ in range(4):
            message = random_message(code_q2, rng)
            c = code_q2.encode(message)
            pos = rng.randrange(code_q2.n)
            val = elems[rng.randrange(1, 4)]
            v = list(c)
            v[pos] = v[pos] + val
            best = nearest_codeword(code_q2, tuple(v))
            assert len(best) == 1
            assert decode(code_q2, tuple(v)).message == best[0][0]

    # (family, shortened point set, u): message space at most 7^3 = 343 and
    # t >= 1; a2-gf25 has none (its smallest message space is 25^2).  The
    # last four take a gap u (5 of <3,4>, 6 of <4,5>), each with k = 3.  One
    # scan takes up to about 20 ms, the twelve cases about 4 s together
    MK_CASES = [("a2-gf5", False, 3), ("a2-gf5", True, 3),
                ("a2-gf7", False, 3), ("a2-gf7", True, 3),
                ("a3-gf7", False, 4), ("a3-gf7", True, 4),
                ("a4-gf7", False, 5), ("a4-gf7", True, 5),
                ("a3-gf7", False, 5), ("a3-gf7", True, 5),
                ("a4-gf7", False, 6), ("a4-gf7", True, 6)]

    @pytest.mark.parametrize("family,shortened,u", MK_CASES)
    def test_every_weight_matches_exhaustive_search_on_mk(self, family,
                                                          shortened, u):
        code = mk_code(family, u, shortened)
        t_max = (code.decoding_distance() - 1) // 2
        assert t_max >= 1
        rng = random.Random(u)
        for weight in range(1, t_max + 1):
            for _ in range(20):
                received = add_vectors(
                    code.encode(random_message(code, rng)),
                    random_error(code, rng, weight))
                best = nearest_codeword(code, received)
                assert len(best) == 1
                assert decode(code, received).message == best[0][0]
