import random

import pytest

from agcodec.curvering import Semigroup
from agcodec.decoder import GBState, ModulePair, decode, initial_basis
from agcodec.oracle import check_gb, lcm_check, nearest_codeword

from support import add_vectors, mk_code, random_error, random_message


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
