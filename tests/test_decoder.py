import hashlib
import itertools
import json
import random

import pytest

from agcodec.cli import trace_lines
from agcodec.code import (Code, code_from_config, curve_from_config,
                          format_vector, radius_rows, rational_points)
from agcodec.curvering import Curve, Monomial, RingElement, Semigroup
from agcodec import decoder
from agcodec.decoder import (DOWN, STATUS_FAILED, STATUS_OK, UP, ModulePair,
                             decode, initial_basis, leading, shift, spoly,
                             step, vote)
from agcodec.gf import Field, FieldElement
from agcodec.oracle import check_gb

from conftest import FIXTURES
from support import (MK_FAMILIES, add_vectors, lattice_divides, mk_code,
                     random_error, random_message, reference_prime_reduce,
                     tracked_decode)


def decode_counting_products(code, received, monkeypatch):
    """(decode(code, received), its boxed FieldElement products, the ring
    kernel's products of a nonzero entry by a multiplier other than one,
    its ``RingElement._plus`` calls).

    The kernel's products are those of ``Field.combine`` while
    ``RingElement._plus`` runs: per call, the nonzero entries of each
    vector whose multiplier's kernel value is not 0."""
    zero, boxed, kernel, depth = code.field.zero_log, [0], [0], [0]
    calls = [0]
    plain_mul, plain_plus = FieldElement.__mul__, RingElement._plus

    def mul(x, y):
        boxed[0] += 1
        return plain_mul(x, y)

    def plus(self, *products):
        calls[0] += 1
        depth[0] += 1
        try:
            return plain_plus(self, *products)
        finally:
            depth[0] -= 1

    plain_combine = Field.combine

    def combine(field, acc, products):
        products = list(products)
        if depth[0]:
            kernel[0] += sum(v != zero for k, vec, _ in products if k
                             for v in field.values(vec))
        return plain_combine(field, acc, products)

    monkeypatch.setattr(Field, "combine", combine)
    monkeypatch.setattr(FieldElement, "__mul__", mul)
    monkeypatch.setattr(RingElement, "_plus", plus)
    return decode(code, received), boxed[0], kernel[0], calls[0]


@pytest.fixture(scope="module")
def bundled_states(code_q3, received_q3):
    """Basis states entering each weight for the bundled received vector."""
    result, records = tracked_decode(code_q3, received_q3)
    return result, {s: (state, rec) for s, state, rec, _ in records}


class TestLeading:
    def test_initial_f_leads_upstairs(self, code_q3, received_q3):
        state = initial_basis(code_q3, received_q3)
        ld = leading(32, state.f[0])
        assert ld.location is UP
        assert ld.monomial == Monomial(0, 0)  # plain z
        assert ld.coefficient == code_q3.field.one

    def test_drops_downstairs_at_31(self, code_q3, received_q3):
        state = initial_basis(code_q3, received_q3)
        ld = leading(31, state.f[0])
        assert ld.location is DOWN
        assert ld.monomial == Monomial(8, 2)

    def test_zero_up_component(self, code_q3):
        pair = ModulePair(code_q3.curve.zero(), code_q3.curve.monomial(9, 0))
        for s in (-1, 0, 5, 100):
            assert leading(s, pair).location is DOWN

    def test_zero_down_component(self, code_q3):
        pair = ModulePair(code_q3.curve.monomial(9, 0), code_q3.curve.zero())
        for s in (-1, 0, 5, 100):
            assert leading(s, pair).location is UP

    def test_zero_pair_rejected(self, code_q3):
        pair = ModulePair(code_q3.curve.zero(), code_q3.curve.zero())
        with pytest.raises(ValueError):
            leading(3, pair)

    def test_tie_goes_upstairs(self, code_q3):
        # equality delta(up) + s == delta(down) holds exactly when the lead
        # is upstairs at weight s and downstairs at weight s - 1
        rng = random.Random(77)
        curve = code_q3.curve
        elems = curve.field.elements()
        for _ in range(60):
            up = curve.monomial(rng.randrange(4), rng.randrange(3),
                                elems[rng.randrange(1, 9)])
            down = curve.monomial(rng.randrange(6), rng.randrange(3),
                                  elems[rng.randrange(1, 9)])
            pair = ModulePair(up, down)
            for s in range(-2, 10):
                equality = up.delta() + s == down.delta()
                drop = (leading(s, pair).location is UP
                        and leading(s - 1, pair).location is DOWN)
                assert equality == drop


class TestModulePair:
    def test_value_semantics(self, curve_q3):
        # a mutable value: printed by component, equal by component, and
        # unhashable; never equal to a plain tuple
        pair = ModulePair(curve_q3.zero(), curve_q3.one())
        assert repr(pair) == "ModulePair(up=0, down=1)"
        assert pair == ModulePair(curve_q3.zero(), curve_q3.one())
        assert pair != ModulePair(curve_q3.one(), curve_q3.one())
        assert pair != (curve_q3.zero(), curve_q3.one())
        with pytest.raises(TypeError):
            hash(pair)


class TestInitialBasis:
    def test_bundled_vector(self, code_q3, received_q3):
        state = initial_basis(code_q3, received_q3)
        assert state.weight == 32
        curve = code_q3.curve
        assert [p.down for p in state.g] == \
            [curve.monomial(9, 0) - curve.monomial(1, 0)]
        assert all(p.up.is_zero for p in state.g)
        f = state.f[0]
        assert f.up == curve.one()
        assert f.down == -code_q3.lagrange(received_q3)
        assert f.down.leading_coefficient() == code_q3.field.parse("a^7")

    def test_zero_vector(self, code_q3):
        v = tuple([code_q3.field.zero] * 27)
        state = initial_basis(code_q3, v)
        assert state.weight == 0
        assert state.f[0].up == code_q3.curve.one()
        assert state.f[0].down.is_zero
        assert decode(code_q3, v).message == tuple([code_q3.field.zero] * 14)

    def test_all_ones_vector(self, code_q3):
        v = tuple([code_q3.field.one] * 27)
        state = initial_basis(code_q3, v)
        assert state.weight == 0  # h_v = 1 has pole order 0


class TestShift:
    def test_zero_is_identity(self, code_q3, received_q3):
        state = initial_basis(code_q3, received_q3)
        assert shift(state, code_q3.field.zero, 16) is state

    def test_involution(self, code_q3, received_q3):
        state = initial_basis(code_q3, received_q3)
        w = code_q3.field.parse("a^3")
        back = shift(shift(state, w, 9), -w, 9)
        assert back.g == state.g
        assert back.f == state.f

    def test_preserves_leading_data(self, code_q3, received_q3):
        state = initial_basis(code_q3, received_q3)
        w = code_q3.field.parse("a^5")
        shifted = shift(state, w, 16)
        for before, after in zip(state.f_leads(), shifted.f_leads()):
            assert before == after

    def test_gap_rejected(self, code_q3, received_q3):
        state = initial_basis(code_q3, received_q3)
        with pytest.raises(ValueError):
            shift(state, code_q3.field.one, 5)


class TestSpoly:
    def test_splits_at_32(self, bundled_states, code_q3):
        _, states = bundled_states
        state, _ = states[32]
        outs = spoly(32, state.f[0], state.g)
        leads = [leading(31, o) for o in outs]
        assert [ld.location for ld in leads] == [UP, UP]
        a = code_q3.field.generator
        assert [(ld.coefficient, ld.monomial) for ld in leads] == \
            [(a, Monomial(1, 0)), (a, Monomial(0, 1))]

    def test_unchanged_at_31(self, bundled_states):
        _, states = bundled_states
        state, _ = states[31]
        for pair in state.f:
            assert spoly(31, pair, state.g) == [pair]

    def test_single_combination_at_29(self, bundled_states, code_q3):
        _, states = bundled_states
        state, _ = states[29]
        outs = spoly(29, state.f[0], state.g)
        assert len(outs) == 1
        up = outs[0].up
        assert up.leading_term() == (Monomial(1, 0), code_q3.field.element(2))
        assert up.coefficient((0, 0)) == code_q3.field.parse("a^5")

    def test_outputs_lead_upstairs(self, code_q3, received_q3):
        # a pair leading downstairs with mu at s - 1 gives, for a common
        # multiple psi of mu and a G lead, a combination leading upstairs
        # with phi(delta(pair.up) + delta(psi) - delta(mu)); the outputs'
        # leads are exactly the minimal ones among those
        sg = code_q3.curve.semigroup
        _, records = tracked_decode(code_q3, received_q3)
        for s, state, _, _ in records:
            if s < 0:
                continue
            for pair in state.f:
                leads = [leading(s - 1, out) for out in spoly(s, pair, state.g)]
                assert all(ld.location is UP for ld in leads)
                pair_ld = leading(s - 1, pair)
                mu = pair_ld.monomial
                if pair_ld.location is UP:
                    assert [ld.monomial for ld in leads] == [mu]
                    continue
                predicted = {sg.phi(pair.up.delta() + psi - sg.degree(mu))
                             for g in state.g
                             for psi in sg.lcms(sg.degree(mu),
                                                leading(s, g).order)}
                minimal = {m for m in predicted
                           if not any(o != m and lattice_divides(sg, o, m)
                                      for o in predicted)}
                assert sorted(ld.monomial for ld in leads) == sorted(minimal)

    def test_outputs_have_pairwise_nondividing_leads(self, code_q3,
                                                     received_q3):
        sg = code_q3.curve.semigroup
        _, records = tracked_decode(code_q3, received_q3)
        for s, state, _, _ in records:
            if s < 0:
                continue
            for pair in state.f:
                lms = [leading(s - 1, out).monomial
                       for out in spoly(s, pair, state.g)]
                for i, mi in enumerate(lms):
                    for j, mj in enumerate(lms):
                        assert i == j or not lattice_divides(sg, mi, mj)

    def test_every_output_is_its_written_out_combination(self, code_q3,
                                                         received_q3):
        # a pair leading downstairs with mu at s - 1 gives, for each minimal
        # lcm psi of mu and a G lead r (the first such G for an equal psi),
        # pair * cf phi(psi - mu) + g * cg phi(psi - r), where cf and cg
        # make the two products lead with 1 and -1; a G lead dividing mu
        # leaves a single output
        codes = [(code_q3, [received_q3])]
        for family in sorted(MK_FAMILIES):
            code = mk_code(family, 3)
            rng = random.Random(family)
            t = (code.decoding_distance() - 1) // 2
            codes.append((code, [add_vectors(
                code.encode(random_message(code, rng)),
                random_error(code, rng, w)) for w in range(t + 2)]))
        checked, two_outputs = 0, 0
        for code, words in codes:
            for v in words:
                for s, state, _, _ in tracked_decode(code, v)[1]:
                    if s < 0:
                        continue
                    for pair in state.f:
                        if leading(s - 1, pair).location is UP:
                            continue
                        want = written_out_combinations(s, pair, state.g)
                        assert spoly(s, pair, state.g) == want
                        checked += 1
                        two_outputs += len(want) == 2
        assert checked > 0 and two_outputs > 0

    def test_requires_upstairs_lead(self, bundled_states, code_q3):
        _, states = bundled_states
        state, _ = states[32]
        with pytest.raises(ValueError):
            spoly(32, state.g[0], state.g)
        zero = ModulePair(code_q3.curve.zero(), code_q3.curve.zero())
        with pytest.raises(ValueError):
            spoly(32, zero, state.g)


def written_out_combinations(s, pair, g_part):
    """The combinations converting one F element from weight s to s - 1,
    written out: the pair itself while it leads upstairs at s - 1, else,
    for every lcm psi of its down lead mu with a G lead r that no other
    such lcm divides (the first G for an equal psi), pair * cf phi(psi - mu)
    + g * cg phi(psi - r), where cf and cg make the two products lead with
    1 and -1."""
    curve = pair.up.curve
    sg = curve.semigroup
    mu = leading(s - 1, pair)
    if mu.location is UP:
        return [pair]
    lcms = [(g, psi) for g in g_part
            for psi in sg.lcms(mu.order, leading(s, g).order)]
    outs = []
    for g, psi in reference_prime_reduce(lcms, [psi for _, psi in lcms], sg):
        qf = sg.phi(psi - mu.order)
        qg = sg.phi(psi - leading(s, g).order)
        cf = (curve.monomial(*qf) * pair.down).leading_coefficient().inverse()
        cg = -(curve.monomial(*qg) * g.down).leading_coefficient().inverse()
        mf, mg = curve.monomial(*qf, cf), curve.monomial(*qg, cg)
        outs.append(ModulePair(pair.up * mf + g.up * mg,
                               pair.down * mf + g.down * mg))
    return outs


def reference_step(state):
    """(g, f) at weight s - 1 written out, with no decoder step: the old G
    part plus the F elements leading downstairs at s - 1, every F element's
    written-out combinations, each part pruned pair by pair by divisibility
    of its leads."""
    s, sg = state.weight, state.curve.semigroup
    new_g = [*state.g, *(p for p in state.f
                         if leading(s - 1, p).location is DOWN)]
    new_f = [out for p in state.f
             for out in written_out_combinations(s, p, state.g)]
    return tuple(reference_prime_reduce(
        part, [leading(s - 1, p).order for p in part], sg)
        for part in (new_g, new_f))


class TestStep:
    @staticmethod
    def equivalence_words(code_q3, received_q3):
        """(code, received word) pairs: the bundled q=3 decode, the pinned
        q=4 word, q=4 words at 20 errors (past the radius) and at 4 errors
        (G elements with a zero up part are left at the votes), and words
        at full radius on two curves with d != -1, one with a = 4, on a
        shortened Hermitian q=4 point set, and on the norm-trace curve over
        GF(8) (a rewrite of y^4 with two terms) and the Hermitian curve
        twisted to d != -1 over GF(16), full and shortened."""
        words = [(code_q3, received_q3)]
        curve = Curve.hermitian(4)
        code = Code(curve, 30)
        for seed, t in [(4030, 16), (4020, 20), (404, 4)]:
            rng = random.Random(seed)
            words.append((code, add_vectors(
                code.encode(random_message(code, rng)),
                random_error(code, rng, t))))
        mks = [mk_code("a2-gf25", 10), mk_code("a4-gf7", 4)]
        assert all(mk.curve.d != -mk.field.one for mk in mks)
        points = rational_points(curve)
        random.Random(1).shuffle(points)
        large = [mk_code(family, u, shortened)
                 for family, u in [("norm-trace-gf8", 8),
                                   ("twisted-hermitian-gf16", 32)]
                 for shortened in (False, True)]
        for code in [*mks, Code(curve, 20, points[:48]), *large]:
            rng = random.Random(code.n)
            t = (code.decoding_distance() - 1) // 2
            words.append((code, add_vectors(
                code.encode(random_message(code, rng)),
                random_error(code, rng, t))))
        return words

    def test_matches_the_written_out_step(self, code_q3, received_q3):
        # step builds only what changes: the same pairs in the same order
        # as every F element's written-out combinations followed by
        # pruning (``reference_step``), the same tuples
        # when no F element changes side, and shift passes a pair with a
        # zero up part through as the same object; a moved lead and a G
        # lead that divide neither way have two lcms, one past a wrap of
        # y^a, and these are met on the a = 4 curve with d != -1 too
        unchanged = changed = passed_through = 0
        two_lcms = set()
        for code, v in self.equivalence_words(code_q3, received_q3):
            sg = code.curve.semigroup
            for s, state, record, _ in tracked_decode(code, v)[1]:
                if s < 0:
                    continue
                states = [state]
                if record is not None and not record.chosen.is_zero:
                    shifted = shift(state, record.chosen, s)
                    for before, after in zip(state.g + state.f,
                                             shifted.g + shifted.f):
                        if before.up.is_zero:
                            assert after is before
                            passed_through += 1
                        else:
                            assert after is not before
                    states.append(shifted)
                for st in states:
                    got = step(st)
                    want_g, want_f = reference_step(st)
                    assert got.weight == s - 1
                    assert list(got.g) == list(want_g)
                    assert list(got.f) == list(want_f)
                    if all(leading(s - 1, p).location is UP for p in st.f):
                        assert got.g is st.g and got.f is st.f
                        unchanged += 1
                    else:
                        changed += 1
                    moved = [p.down.delta() for p in st.f
                             if leading(s - 1, p).location is DOWN]
                    if any(len(sg.lcms(mu, g.down.delta())) == 2
                           for mu in moved for g in st.g):
                        two_lcms.add((sg.a, code.n))
        assert unchanged > 0 and changed > 0 and passed_through > 0
        assert {(3, 27), (4, 64), (4, 11)} <= two_lcms  # (4, 11): a4-gf7

    def test_prunes_only_where_the_g_footprint_grows(self, code_q3,
                                                      received_q3,
                                                      monkeypatch):
        # a moved F element whose down lead a G lead divides is reduced by
        # the first such G, with no lcm and no prune; a decode prunes only
        # at a weight where some moved down lead has no dividing G lead (the
        # G footprint grows), once on the G part and once on the plans of
        # all F elements together, and takes lcms of those leads only, each
        # with every G lead in order
        weight, prunes, lcms = [None], [], []
        plain_prune, plain_lcms = decoder._prime_reduce, Semigroup.lcms

        def counted_prune(items, orders, sg):
            part = "g" if isinstance(items[0], ModulePair) else "f"
            prunes.append((weight[0], part))
            return plain_prune(items, orders, sg)

        def counted_lcms(sg, r, t):
            lcms.append((weight[0], r, t))
            return plain_lcms(sg, r, t)

        moving, outside = [], []

        def watch(s, state, record):
            weight[0] = s
            if s < 0:
                return
            if record is not None:
                state = shift(state, record.chosen, s)
            sg = state.curve.semigroup
            moved = [p.down.delta() for p in state.f
                     if leading(s - 1, p).location is DOWN]
            if moved:
                moving.append(s)
            g_leads = [g.down.delta() for g in state.g]
            outside.extend((s, mu, r) for mu in moved
                           if not any(sg.is_nongap(mu - r) for r in g_leads)
                           for r in g_leads)

        monkeypatch.setattr(decoder, "_prime_reduce", counted_prune)
        monkeypatch.setattr(Semigroup, "lcms", counted_lcms)
        decode(code_q3, received_q3, watch)
        grown = [32, 26, 24, 18, 16]
        assert len(moving) == 16 and set(grown) <= set(moving)
        assert prunes == [(s, part) for s in grown for part in "gf"]
        assert lcms == outside
        assert sorted({s for s, _, _ in lcms}, reverse=True) == grown

    def test_no_change_rounds(self, bundled_states):
        _, states = bundled_states
        assert states[30][0].g == states[31][0].g
        assert states[30][0].f == states[31][0].f
        assert states[29][0].f == states[31][0].f

    def test_basis_at_15(self, bundled_states, code_q3):
        _, states = bundled_states
        state, _ = states[15]
        field = code_q3.field
        g_leads = state.g_leads()
        assert [(ld.coefficient, ld.monomial) for ld in g_leads] == [
            (field.parse("a^2"), Monomial(7, 1)),
            (field.one, Monomial(8, 0)),
        ]
        assert [ld.location for ld in g_leads] == [DOWN, DOWN]
        # upstairs leading data of the G part
        assert state.g[0].up.leading_monomial() == Monomial(1, 1)
        assert state.g[0].up.leading_coefficient() == field.parse("a^2")
        assert state.g[1].up.leading_monomial() == Monomial(0, 2)
        assert state.g[1].up.leading_coefficient() == field.parse("a^5")
        f_leads = state.f_leads()
        assert [(ld.coefficient, ld.monomial, ld.location) for ld in f_leads] == [
            (field.parse("a^2"), Monomial(2, 0), UP),
            (field.parse("a^5"), Monomial(1, 2), UP),
        ]
        assert state.f[0].down.is_zero
        assert state.f[1].down.leading_term() == \
            (Monomial(7, 1), field.element(2))

    def test_final_basis(self, bundled_states, code_q3):
        _, states = bundled_states
        final = states[-1][0]
        assert final.weight == -1
        assert all(p.down.is_zero for p in final.f)
        assert [p.up.leading_monomial() for p in final.f] == \
            [Monomial(2, 0), Monomial(1, 2)]
        assert final.f[1].up.leading_coefficient() == code_q3.field.one
        assert [ld.monomial for ld in final.g_leads()] == \
            [Monomial(7, 1), Monomial(8, 0)]

    def test_footprint_count_everywhere(self, bundled_states, code_q3):
        _, states = bundled_states
        sg = code_q3.curve.semigroup
        for s, (state, _) in states.items():
            g_fp = sg.footprint([ld.monomial for ld in state.g_leads()])
            f_fp = sg.footprint([ld.monomial for ld in state.f_leads()])
            assert len(g_fp) + len(f_fp) == 27


class TestVote:
    def test_vote_at_16(self, bundled_states, code_q3):
        _, states = bundled_states
        _, record = states[16]
        field = code_q3.field
        a7 = field.parse("a^7")
        assert record.candidates == (field.zero, a7)
        assert record.tallies[field.zero] == 2
        assert record.tallies[a7] == 1
        assert record.chosen == field.zero
        assert record.margin == 1

    def test_missing_monomial_votes_zero(self, bundled_states, code_q3):
        # at s=16 the first F element has no coefficient at the looked-up
        # monomial, so its nomination is 0
        _, states = bundled_states
        state, record = states[16]
        pair = state.f[0]
        target = code_q3.curve.semigroup.phi(pair.up.delta() + 16)
        assert pair.down.coefficient(target).is_zero
        assert code_q3.field.zero in record.candidates

    def test_chosen_minimises_residual_tally(self, code_q3, received_q3):
        result, _ = tracked_decode(code_q3, received_q3)
        for record in result.votes:
            total = sum(record.tallies.values())
            rest = total - record.tallies[record.chosen]
            for c in record.candidates:
                assert rest <= total - record.tallies[c]

    def test_error_free_votes_match_message(self, code_q3):
        rng = random.Random(13)
        for _ in range(5):
            message = random_message(code_q3, rng)
            result = decode(code_q3, code_q3.encode(message))
            by_order = dict(zip(code_q3.message_orders, message))
            for record in result.votes:
                assert record.chosen == by_order[record.s]

    def test_gap_rejected(self, bundled_states, code_q3):
        # each basis is at the vote's weight, so only the gap and u check
        # can refuse it
        _, states = bundled_states
        with pytest.raises(ValueError, match="nongap s <= u, got 5"):
            vote(code_q3, 5, states[5][0])
        with pytest.raises(ValueError, match="nongap s <= u, got 18"):
            vote(code_q3, 18, states[18][0])  # nongap above u

    def test_rejects_a_basis_at_another_weight(self, bundled_states,
                                               code_q3):
        # the basis entering weight 16 would read tallies {0: 4, a^1: 2} at
        # 13, where the decode's own vote reads {0: 4, 2: 0}
        _, states = bundled_states
        field = code_q3.field
        with pytest.raises(ValueError, match="weight 13, got weight 16"):
            vote(code_q3, 13, states[16][0])
        state, record = states[13]
        assert record.tallies == {field.zero: 4, field.element(2): 0}
        assert vote(code_q3, 13, state) == record

    @staticmethod
    def named_word(word, code_q3, received_q3):
        """(code, word): the bundled q=3 word, or the seeded full-radius
        word of test_field_products_pinned_q4."""
        if word == "bundled-q3":
            return code_q3, received_q3
        code = Code(Curve.hermitian(4), 30)
        rng = random.Random(4030)
        return code, add_vectors(code.encode(random_message(code, rng)),
                                 random_error(code, rng, 16))

    @pytest.mark.parametrize("word", ["bundled-q3", "pinned-q4"])
    def test_g_staircase_is_built_once_per_g_part(self, word, code_q3,
                                                   received_q3, monkeypatch):
        # decode calls the module's vote once per nongap s <= u below the
        # start weight, and vote builds the G staircase once per G part it
        # sees, besides one staircase per candidate; both words vote on
        # more than one G part, as the G part changes below u
        code, v = self.named_word(word, code_q3, received_q3)
        sg = code.curve.semigroup
        plain_vote, plain_staircase = decoder.vote, Semigroup.staircase
        calls, voting, stairs = [], [False], [0]

        def counted_vote(code_, s, state):
            calls.append((s, state.g))
            voting[0] = True
            try:
                return plain_vote(code_, s, state)
            finally:
                voting[0] = False

        def counted_staircase(self, lead_orders):
            stairs[0] += voting[0]
            return plain_staircase(self, lead_orders)

        monkeypatch.setattr(decoder, "vote", counted_vote)
        monkeypatch.setattr(Semigroup, "staircase", counted_staircase)
        result = decode(code, v)
        monkeypatch.undo()
        start = initial_basis(code, v).weight
        assert [s for s, _ in calls] == [
            s for s in range(start, -1, -1)
            if s <= code.u and sg.is_nongap(s)] == [r.s for r in result.votes]
        g_parts = sum(1 for c, (_, g) in enumerate(calls)
                      if c == 0 or g is not calls[c - 1][1])
        assert g_parts == 2
        assert stairs[0] == g_parts + sum(len(r.candidates)
                                          for r in result.votes)

    @staticmethod
    def reference_tallies(code, s, state):
        """The tallies of a vote at s, with each nomination read off the
        ring product up * phi_s and the G staircase built afresh."""
        sg, curve = code.curve.semigroup, code.curve
        targets = {}
        for pair in state.f:
            target = pair.up.delta() + s
            product = pair.up * curve.monomial(*sg.phi(s))
            w = -(pair.down.coefficient_at(target)
                  / product.coefficient_at(target))
            targets.setdefault(w, []).append(target)
        stair_g = sg.staircase(ld.order for ld in state.g_leads())
        return {w: sg.staircase_difference(stair_g, sg.staircase(orders))
                for w, orders in targets.items()}

    @pytest.mark.parametrize("word", ["bundled-q3", "pinned-q4"])
    def test_g_staircase_never_goes_stale(self, word, code_q3, received_q3):
        # every vote of an unwatched decode, which reuses the G staircase
        # while the G part stays one tuple, equals the vote recomputed on
        # the watched basis at its weight, and its tallies those of a
        # reference that builds every staircase afresh
        code, v = self.named_word(word, code_q3, received_q3)
        result = decode(code, v)
        watched = {}
        decode(code, v, lambda s, state, record: watched.update({s: state}))
        assert result.votes
        for record in result.votes:
            state = watched[record.s]
            assert vote(code, record.s, state) == record
            assert record.tallies == \
                self.reference_tallies(code, record.s, state)

    def test_a_raising_watch_lets_go_of_the_g_part(self, code_q3,
                                                   received_q3):
        # decode lets go of its G part on a raise as on a return: a watch
        # raising at s = 10 leaves no G part behind, though one was held
        # for the vote there
        held = []

        def watch(s, state, record):
            if s == 10:
                held.append(decoder._last_g[0])
                raise RuntimeError("stop at 10")

        with pytest.raises(RuntimeError, match="stop at 10"):
            decode(code_q3, received_q3, watch)
        assert len(held[0]) == 2
        assert decoder._last_g == (None, None)

    def test_tie_breaks_canonically(self, code_q3):
        # this vector produces a two-way tie at s=13; the winner is the
        # candidate earliest in the order 0, 1, a^1, a^2, ...
        text = ("a^3,2,a^1,2,0,a^3,a^1,2,0,2,1,a^7,2,a^3,a^1,a^6,0,a^5,"
                "a^3,a^7,a^5,1,a^1,a^1,a^7,0,a^7")
        from agcodec.code import parse_vector
        from agcodec.gf import canonical_key
        result = decode(code_q3, parse_vector(code_q3.field, text))
        tied = None
        for record in result.votes:
            top = max(record.tallies.values())
            at_top = [c for c in record.candidates
                      if record.tallies[c] == top]
            if top > 0 and len(at_top) > 1:
                tied = (record, at_top)
                break
        assert tied is not None
        record, at_top = tied
        assert record.margin == 0
        assert record.chosen == min(at_top, key=canonical_key)
        # the output re-encodes 26 away against a radius of 5, so the
        # re-encoding distance flags it: within the radius no vote ties
        assert result.distance == 26
        assert result.status == STATUS_FAILED

    def test_all_empty_tallies_choose_zero(self, code_q2):
        from agcodec.code import parse_vector
        v = parse_vector(code_q2.field, "1,0,a^1,0,a^2,a^2,a^2,a^2")
        result = decode(code_q2, v)
        empty = [r for r in result.votes if max(r.tallies.values()) == 0]
        assert empty
        assert all(r.chosen.is_zero and r.margin == 0 for r in empty)


class TestDecode:
    def test_bundled_vector_decodes_to_zero(self, code_q3, received_q3):
        result = decode(code_q3, received_q3)
        assert result.message == tuple([code_q3.field.zero] * 14)
        assert result.status == STATUS_OK
        assert result.distance == 5
        assert len(result.message) == 14

    def test_roundtrip_without_errors(self, code_q3):
        rng = random.Random(99)
        for _ in range(5):
            message = random_message(code_q3, rng)
            result = decode(code_q3, code_q3.encode(message))
            assert result.message == message
            assert result.distance == 0
            assert result.status == STATUS_OK

    def test_length_validation(self, code_q3):
        with pytest.raises(ValueError):
            decode(code_q3, tuple([code_q3.field.zero] * 5))

    def test_failed_verification_status(self, code_q3):
        # weight-10 corruption of the zero codeword, far outside the radius
        rng = random.Random(0)
        elems = code_q3.field.elements()
        v = [code_q3.field.zero] * 27
        for pos in rng.sample(range(27), 10):
            v[pos] = elems[rng.randrange(1, 9)]
        result = decode(code_q3, tuple(v))
        assert result.status == STATUS_FAILED
        assert result.distance > 5

    def test_exact_recovery_within_radius(self, code_q3):
        rng = random.Random(4242)
        t_max = (code_q3.decoding_distance() - 1) // 2
        for _ in range(30):
            message = random_message(code_q3, rng)
            error = random_error(code_q3, rng, rng.randrange(t_max + 1))
            received = add_vectors(code_q3.encode(message), error)
            assert decode(code_q3, received).message == message

    def test_exact_recovery_across_rates(self, curve_q3):
        # 200 (message, error) pairs split over three pole-order limits
        from agcodec.code import Code, rational_points
        pts = rational_points(curve_q3)
        rng = random.Random(777)
        for u in (12, 16, 20):
            code = Code(curve_q3, u, pts)
            t_max = (code.decoding_distance() - 1) // 2
            for _ in range(67):
                message = random_message(code, rng)
                error = random_error(code, rng, rng.randrange(t_max + 1))
                received = add_vectors(code.encode(message), error)
                assert decode(code, received).message == message

    def test_field_products_pinned(self, received_q3, monkeypatch):
        # the bundled decode on a fresh code makes 295 boxed products, all
        # scalars, by call site: 83 lead coefficients; 53 in the ring
        # kernel, one tc * (e's scale) per product, as each multiplier is
        # divided by the result's scale on logs; in _combine 34 _monic
        # scalars (cg for the 22 reductions, cf and cg for the 6 lcm
        # combinations), 22 products cg * lc and 44 scalings by cf = 1 / lc
        # of the reductions' two sides; 28 _monic scalars and 28
        # nominations of the votes; and 3 coefficient_at reads.  359
        # before: 161 in the kernel, where a multiplier took a second
        # product by the inverse of the result's scale, and 56 _monic
        # scalars in _combine, where a reduction built both its products
        # into an empty side.  The kernel makes 308 products, 295 of
        # entries by their product's multiplier and 13 of the row x^i y^2
        # by the curve's one correction term, in the 8 multiples y^j * e
        # that products build once per element (374 boxed before the
        # multiples; 681 when the ring's entries were FieldElements; 1,326
        # before a unit multiplier in the ring kernel skipped its products;
        # 821 before step stopped building the spoly outputs that pruning
        # drops, and shift stopped passing zero-up pairs through the
        # kernel).  45 _plus calls, all in _combine, as every vote is
        # zero: 33 in the 22 reductions, whose 11 by an eta take none for
        # its zero up part, and 12 in the lcm combinations (56 before)
        code = code_from_config(json.loads(
            (FIXTURES / "hermitian_q3_u16.json").read_text(encoding="utf-8")))
        result, boxed, kernel, calls = decode_counting_products(
            code, received_q3, monkeypatch)
        assert result.status == STATUS_OK
        assert (boxed, kernel, calls) == (295, 308, 45)

    def test_field_products_pinned_q4(self, monkeypatch):
        # one seeded word at the full radius t=16 of Hermitian q=4, u=30 on
        # a fresh code: 1,509 boxed products, all scalars, by call site:
        # 367 lead coefficients; 359 in the ring kernel, one per product;
        # in _combine 154 _monic scalars (cg for the 116 reductions, cf and
        # cg for the 19 lcm combinations), 116 products cg * lc and 232
        # scalings by cf = 1 / lc of the reductions' two sides; 100 _monic
        # scalars and 100 nominations of the votes; and 81 coefficient_at
        # reads.  1,585 when decode settled the G part on return: the 19
        # votes then pending went into the 4 G pairs with a nonzero up
        # part, 76 products boxed in the ring kernel; 2,010 before that,
        # with 1,092 in the kernel and 270 _monic scalars in _combine.  7,145
        # kernel products, all of entries by their multiplier (8,201 with
        # the 1,056 of that settlement on return); the 40 multiples
        # y^j * e built once per element cost none, as the curve's one
        # correction term is one in characteristic 2 (2,628 boxed and
        # 8,461 kernel products before the multiples; 11,143 boxed products
        # when the ring's entries were FieldElements; 12,144 before step
        # stopped building the spoly outputs that pruning drops, and shift
        # stopped passing zero-up pairs through the kernel).  326 _plus
        # calls: 84 substitutions of votes, the F part's at each vote and
        # the G part's once before a step that moves an F element (88 with
        # the 4 of the settlement on return; 160 when each vote went into
        # every pair at once), 204 in the 116 reductions, whose 28 by an
        # eta take none for its zero up part (232 before), and 38 in the
        # lcm combinations
        code = Code(Curve.hermitian(4), 30)
        rng = random.Random(4030)
        message = random_message(code, rng)
        received = add_vectors(code.encode(message),
                               random_error(code, rng, 16))
        result, boxed, kernel, calls = decode_counting_products(
            code, received, monkeypatch)
        assert result.message == message
        assert (boxed, kernel, calls) == (1509, 7145, 326)

    def test_q4_guarantee_at_full_radius(self):
        # Hermitian q=4, u=30: n=64, d=34, so t=16 is the full radius
        from agcodec.code import Code
        from agcodec.curvering import Curve
        code = Code(Curve.hermitian(4), 30)
        assert (code.n, code.k, code.decoding_distance()) == (64, 25, 34)
        rng = random.Random(4016)
        for _ in range(12):
            message = random_message(code, rng)
            received = add_vectors(code.encode(message),
                                   random_error(code, rng, 16))
            result = decode(code, received)
            assert result.message == message
            assert result.status == STATUS_OK
            assert result.distance == 16

    def test_q7_guarantee_at_full_radius(self):
        # Hermitian q=7, u=150: n=343, d=193, so t=96 is the full radius;
        # Hermitian q=8, u=200: n=512, d=312, so t=155 is;
        # Hermitian q=9, u=300: n=729, d=429, so t=214 is; and
        # Hermitian q=11, u=600: n=1331, d=731, so t=365 is
        for q, u, (n, k, d), words in [(7, 150, (343, 130, 193), 2),
                                       (8, 200, (512, 173, 312), 1),
                                       (9, 300, (729, 265, 429), 1),
                                       (11, 600, (1331, 546, 731), 1)]:
            code = Code(Curve.hermitian(q), u)
            assert (code.n, code.k, code.decoding_distance()) == (n, k, d)
            t = (d - 1) // 2
            rng = random.Random(1000 * q + u)
            for _ in range(words):
                message = random_message(code, rng)
                received = add_vectors(code.encode(message),
                                       random_error(code, rng, t))
                result = decode(code, received)
                assert result.message == message
                assert result.status == STATUS_OK
                assert result.distance == t


class TestLargeFamilies:
    """2t < d_u brings the sent message back on large non-Hermitian codes:
    a Hermitian curve twisted to d != -1 (n = 64) and norm-trace curves
    whose rewrite of y^a has four y-terms (n = 512), three (n = 128) and
    two (n = 32, and n = 243 over GF(27))."""

    # (family, u, n): u = 11 is a gap of <4, 5>, u = 89 one of <8, 15>,
    # u = 13 one of <4, 7> and u = 41 one of <9, 13>
    CASES = [("twisted-hermitian-gf16", 11, 64),
             ("twisted-hermitian-gf16", 32, 64),
             ("norm-trace-gf16", 64, 128), ("norm-trace-gf16", 89, 128),
             ("norm-trace-gf8", 8, 32), ("norm-trace-gf8", 13, 32),
             ("norm-trace-gf27", 41, 243), ("norm-trace-gf27", 100, 243)]

    @staticmethod
    def codeword_weights(code) -> list[int]:
        """The weight of every nonzero codeword up to a scalar: of every
        message whose first nonzero entry is one."""
        one, q = code.field.one, code.field.order
        weights = [sum(not e.is_zero for e in code.encode(m))
                   for m in itertools.product(code.field.elements(),
                                              repeat=code.k)
                   if next((e for e in m if not e.is_zero), None) == one]
        assert len(weights) == (q ** code.k - 1) // (q - 1)
        return weights

    @pytest.mark.parametrize("shortened", [False, True])
    @pytest.mark.parametrize("u", [4, 7, 8])
    def test_distance_bounds_the_minimum_weight(self, u, shortened):
        # k = 2, 3 and 4 over GF(8), every codeword up to a scalar: d_u
        # equals the minimum weight on the 32 points (28, 25, 24) and on the
        # 24 shortened ones (20, 16) but at u = 7 (17 against 18)
        code = mk_code("norm-trace-gf8", u, shortened)
        assert code.decoding_distance() <= min(self.codeword_weights(code))

    # (u, shortened): the minimum weight at k = 2 and 3 over GF(27), on the
    # 243 points and on the 183 shortened ones
    GF27_MINIMA = {(9, False): 234, (13, False): 230,
                   (9, True): 174, (13, True): 170}

    @pytest.mark.parametrize("u,shortened", sorted(GF27_MINIMA))
    def test_distance_is_the_minimum_weight_over_gf27(self, u, shortened):
        code = mk_code("norm-trace-gf27", u, shortened)
        assert code.decoding_distance() == min(self.codeword_weights(code)) \
            == self.GF27_MINIMA[u, shortened]

    @pytest.mark.parametrize("shortened", [False, True])
    @pytest.mark.parametrize("family,u,n", CASES)
    def test_guarantee_at_full_radius(self, family, u, n, shortened):
        code = mk_code(family, u, shortened)
        assert code.n == (n - n // 4 if shortened else n)
        t = (code.decoding_distance() - 1) // 2
        rng = random.Random(code.n + u)
        for _ in range(5):
            message = random_message(code, rng)
            received = add_vectors(code.encode(message),
                                   random_error(code, rng, t))
            result = decode(code, received)
            assert result.message == message
            assert result.status == STATUS_OK
            assert all(r.margin >= 1 for r in result.votes)
            assert result.distance == t

    def test_guarantee_at_full_radius_with_a_16(self):
        # the norm-trace curve over GF(32), where a = 16 G leads can be
        # tested against each moved lead; one word, as it takes about 0.6 s
        code = mk_code("norm-trace-gf32", 200)
        assert (code.n, code.decoding_distance()) == (512, 320)
        t = (code.decoding_distance() - 1) // 2
        rng = random.Random(code.n + 200)
        message = random_message(code, rng)
        result = decode(code, add_vectors(code.encode(message),
                                          random_error(code, rng, t)))
        assert result.message == message
        assert result.status == STATUS_OK
        assert all(r.margin >= 1 for r in result.votes)
        assert result.distance == t == 159


class TestSettlement:
    """An unwatched decode substitutes each vote into the F part at once and
    into the G part only before step moves an F element; a watched one
    settles at every weight, before each watch call, and once more for the
    final basis it hands watch at weight -1.  Both return the same message,
    votes, status and distance, and hand step the same F parts as values
    (the F part is exact on both paths) with the same G leads; an unwatched
    decode calls no ``_plus`` after its last step."""

    @staticmethod
    def words(code, seed, count=1):
        """count seeded words at each of the weights 0, t, t + 1 and
        t + 3, t the code's radius."""
        t = (code.decoding_distance() - 1) // 2
        rng = random.Random(seed)
        return [add_vectors(code.encode(random_message(code, rng)),
                            random_error(code, rng, weight))
                for weight in (0, t, t + 1, t + 3) for _ in range(count)]

    @staticmethod
    def stepped(code, v, watch=None):
        """(decode(code, v, watch), the weight, F part and G leads of every
        state that ``decoder.step`` receives, the ``_plus`` calls after the
        last step returns)."""
        plain_step, plain_plus = decoder.step, RingElement._plus
        states, calls = [], [0]

        def recording(state):
            states.append((state.weight, state.f, state.g_leads()))
            out = plain_step(state)
            calls[0] = 0
            return out

        def counted(self, *products):
            calls[0] += 1
            return plain_plus(self, *products)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decoder, "step", recording)
            mp.setattr(RingElement, "_plus", counted)
            return decode(code, v, watch), states, calls[0]

    @staticmethod
    def lazy_settlements():
        """(a watch, and the list it fills with the weights at which an
        unwatched decode settles before step: an F element moves there with
        a nonzero vote since the last such weight)."""
        pending, weights = [False], []

        def watch(s, state, record):
            if s < 0:
                return
            if record is not None and not record.chosen.is_zero:
                pending[0] = True
                state = shift(state, record.chosen, s)
            if any(leading(s - 1, p).location is DOWN for p in state.f):
                if pending[0]:
                    weights.append(s)
                pending[0] = False
        return watch, weights

    @classmethod
    def assert_agree(cls, code, v):
        """The watched and unwatched decodes of v agree; returns the
        weights at or below u at which the unwatched one settles lazily."""
        plain, plain_states, calls = cls.stepped(code, v)
        watch, weights = cls.lazy_settlements()
        watched, watched_states, _ = cls.stepped(code, v, watch)
        assert plain.message == watched.message
        assert plain.votes == watched.votes
        assert (plain.status, plain.distance) == \
            (watched.status, watched.distance)
        assert plain_states == watched_states
        assert calls == 0
        return [s for s in weights if s <= code.u]

    @pytest.mark.parametrize("q,u", [(2, 3), (3, 16), (4, 30), (5, 60)])
    def test_hermitian(self, q, u):
        code = Code(Curve.hermitian(q), u)
        settled = [self.assert_agree(code, v)
                   for v in self.words(code, 100 * q + u, 2)]
        assert any(settled)

    def test_pinned_q4_word_settles_below_u(self):
        # the seeded word of test_field_products_pinned_q4: its F elements
        # move below u with votes pending for the G part
        code = Code(Curve.hermitian(4), 30)
        rng = random.Random(4030)
        v = add_vectors(code.encode(random_message(code, rng)),
                        random_error(code, rng, 16))
        assert self.assert_agree(code, v)

    @pytest.mark.parametrize("shortened", [False, True])
    @pytest.mark.parametrize("family,u,n", TestLargeFamilies.CASES)
    def test_large_families(self, family, u, n, shortened):
        code = mk_code(family, u, shortened)
        for v in self.words(code, code.n + u):
            self.assert_agree(code, v)

    def test_large_family_with_a_16(self):
        code = mk_code("norm-trace-gf32", 200)
        rng = random.Random(code.n + 200)
        t = (code.decoding_distance() - 1) // 2
        self.assert_agree(code, add_vectors(code.encode(
            random_message(code, rng)), random_error(code, rng, t)))


class TestGuaranteeAcrossFamilies:
    """2t < d_u brings the sent message back on curves with d != -1."""

    # (family, shortened point set, u): u = 1 on a=2, u = 2 on a=3 and
    # u = 6 on a=4 are gaps
    CASES = [("a2-gf5", False, 3), ("a2-gf5", True, 1),
             ("a2-gf7", False, 2), ("a2-gf7", True, 2),
             ("a2-gf25", False, 10), ("a2-gf25", True, 1),
             ("a3-gf7", False, 3), ("a3-gf7", False, 2),
             ("a4-gf7", False, 4), ("a4-gf7", True, 6)]

    @pytest.mark.parametrize("family,shortened,u", CASES)
    def test_every_weight_within_radius(self, family, shortened, u):
        code = mk_code(family, u, shortened)
        assert code.curve.d != -code.field.one
        t_max = (code.decoding_distance() - 1) // 2
        rng = random.Random(u)
        for weight in range(t_max + 1):
            for _ in range(8):
                message = random_message(code, rng)
                received = add_vectors(code.encode(message),
                                       random_error(code, rng, weight))
                result = decode(code, received)
                assert result.message == message, (weight, result.votes)
                assert result.status == STATUS_OK
                assert all(r.margin >= 1 for r in result.votes)

    # error patterns of weight 1..t (t = 2) on full point sets at u = 3,
    # and on the shortened a4-gf7 set (n = 9, k = 3) at the gap u = 6
    PATTERNS = {("a2-gf5", False, 3): 612, ("a2-gf7", False, 3): 1350,
                ("a3-gf7", False, 3): 1056, ("a4-gf7", True, 6): 1350}

    @pytest.mark.parametrize("family,shortened,u", sorted(PATTERNS), ids=[
        f"{f}{'-shortened' if s else ''}-u{u}" for f, s, u in sorted(PATTERNS)])
    def test_every_error_pattern_within_radius(self, family, shortened, u):
        # within t the sent word is the unique nearest codeword, so the
        # decoder must return its message whatever the pattern
        code = mk_code(family, u, shortened)
        t_max = (code.decoding_distance() - 1) // 2
        nonzero = code.field.elements()[1:]
        rng = random.Random(13)
        for message in [(code.field.zero,) * code.k,
                        random_message(code, rng)]:
            sent = code.encode(message)
            count = 0
            for weight in range(1, t_max + 1):
                for support in itertools.combinations(range(code.n), weight):
                    for values in itertools.product(nonzero, repeat=weight):
                        received = list(sent)
                        for pos, e in zip(support, values):
                            received[pos] = received[pos] + e
                        result = decode(code, tuple(received))
                        assert result.message == message, (support, values)
                        assert result.status == STATUS_OK
                        assert all(r.margin >= 1 for r in result.votes)
                        count += 1
            assert count == self.PATTERNS[family, shortened, u]

    @pytest.mark.parametrize("family", sorted(MK_FAMILIES))
    def test_basis_invariants_at_full_radius(self, family):
        code = mk_code(family, 3)
        t_max = (code.decoding_distance() - 1) // 2
        rng = random.Random(8)
        message = random_message(code, rng)
        received = add_vectors(code.encode(message),
                               random_error(code, rng, t_max))
        result, records = tracked_decode(code, received)
        assert result.message == message
        for s, state, _, v_s in records:
            report = check_gb(s, state, code, v_s)
            assert report.passed, report.counterexample


class TestTrackedInvariants:
    def test_bundled_vector_full_check(self, code_q3, received_q3):
        _, records = tracked_decode(code_q3, received_q3)
        for s, state, _, v_s in records:
            report = check_gb(s, state, code_q3, v_s)
            assert report.passed, report.counterexample

    def test_random_decodes(self, code_q3):
        rng = random.Random(31337)
        sg = code_q3.curve.semigroup
        for _ in range(6):
            message = random_message(code_q3, rng)
            weight = rng.randrange(6)
            error = random_error(code_q3, rng, weight)
            received = add_vectors(code_q3.encode(message), error)
            result, records = tracked_decode(code_q3, received)
            assert result.message == message
            prev = None
            for s, state, _, v_s in records:
                report = check_gb(s, state, code_q3, v_s)
                assert report.passed, report.counterexample
                f_lms = [ld.monomial for ld in state.f_leads()]
                g_lms = [ld.monomial for ld in state.g_leads()]
                assert len(sg.footprint(f_lms)) <= weight
                if prev is not None:
                    prev_g, prev_f = prev
                    # upstairs leading ideal shrinks, downstairs grows
                    for m in f_lms:
                        assert any(lattice_divides(sg, o, m) for o in prev_f)
                    for m in prev_g:
                        assert any(lattice_divides(sg, n, m) for n in g_lms)
                prev = (g_lms, f_lms)


class TestSweepDigest:
    """A fixed seeded sweep of decodes hashes to a pinned digest, so a change
    to the ring or decoder kernels that alters any output shows here.

    Hashed per code: its ``radius`` rows; per word: the trace lines, the
    message, the status, the re-encoding distance and every vote margin.
    """

    # (curve, shortened point set, u); u = 3 is a gap of <4, 5>
    CASES = [("hermitian-2", False, 3), ("hermitian-2", True, 3),
             ("hermitian-3", False, 10), ("hermitian-3", True, 9)] + \
        [(family, shortened, 3) for family in sorted(MK_FAMILIES)
         for shortened in (False, True)]
    DIGEST = "c20e7d4fa6dd44f40ba3cedf2d66ed3efc1267709a58d8565939410eac8dd545"

    @staticmethod
    def sweep_code(name, shortened, u):
        if name.startswith("hermitian-"):
            curve = Curve.hermitian(int(name.split("-")[1]))
        else:
            curve, _ = curve_from_config(MK_FAMILIES[name])
        points = rational_points(curve)
        if shortened:
            random.Random(1).shuffle(points)
            points = points[:len(points) - max(1, len(points) // 4)]
        return Code(curve, u, points)

    def test_sweep_digest(self):
        digest = hashlib.sha256()
        for index, (name, shortened, u) in enumerate(self.CASES):
            code = self.sweep_code(name, shortened, u)
            rows = radius_rows(code.curve, code.points)
            digest.update(f"{name} {shortened} {u} {rows}\n".encode())
            rng = random.Random(index)
            t_max = (code.decoding_distance() - 1) // 2
            for weight in range(min(t_max + 2, code.n) + 1):
                for _ in range(3):
                    received = add_vectors(
                        code.encode(random_message(code, rng)),
                        random_error(code, rng, weight))
                    lines, result = trace_lines(code, received)
                    margins = ",".join(str(r.margin) for r in result.votes)
                    digest.update("\n".join(lines + [
                        format_vector(result.message), result.status,
                        str(result.distance), margins, ""]).encode())
        assert digest.hexdigest() == self.DIGEST
