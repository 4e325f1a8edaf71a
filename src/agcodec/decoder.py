"""Interpolation-based unique decoding by Groebner bases and majority voting.

The decoder works in the module Rz + R over the coordinate ring: a pair
f = f_up * z + f_down interpolates the received word when it vanishes at
every (P_i, v_i).  Under the weighted order that gives z weight s, a
reduced Groebner basis of the interpolation module splits into

* G elements, leading term downstairs (in R), and
* F elements, leading term upstairs (in Rz).

Decoding starts from {eta_i} plus z - h_v (h_v interpolating v) at weight
N = delta(h_v) and walks the weight down to 0.  At each nongap weight
s <= u ``vote`` tallies votes for the message coordinate w_s: every F
element nominates one field value, weighted by how much of the downstairs
footprint its upstairs cone covers (the staircase of the G leads is built
once per G part tuple: ``step`` makes a new one where the G footprint
grows, and ``_settled`` where the pending votes go in, though no G lead
moves then); the winner is subtracted by the substitution z -> z + w *
phi_s (below).  ``step`` then converts the basis from weight s to s - 1
(``spoly`` is ``step`` on a one-element F part).  An F element whose lead
moves downstairs, to mu, is reduced once by the first G element whose
lead divides mu: a row operation of the F[x]-module view (Lee and
O'Sullivan, 2009).  Only where no G lead divides mu, so that the G
footprint grows, is it combined with every G element at each lcm and are
both parts pruned to the leads no other lead divides (one
``_prime_reduce`` each, by rows in one pass).  ``_planned`` plans on pole
orders, with no field arithmetic, before ``_combine`` builds; ``_monic``
scales a lead to one there and in a nomination.  A weight at which no
lead moves keeps both parts, and a shift leaves a pair with a zero up part
untouched.  The split is kept at every weight, so leads are read off the
basis: a G element leads with its down part, an F element with its up
part, and the one test left is whether an F element still leads upstairs at
s - 1.  ``leading`` and ``Lead`` are the inspection form of a lead, for
traces and checks.

``decode`` substitutes each vote into the F part at once (``shift`` does
it on a whole basis), and the G part takes the votes once per change.
Below u a G element is read only for its down lead, which the
substitution never changes, so the votes wait until ``step`` is about to
move an F element or ``watch`` is called; then each G pair with a nonzero
up part takes them all in one ``_plus``.  The G part differs from the
basis only by that pending substitution, and a decode returns with it
pending unless ``watch`` is to see the final basis.

The guarantee: if the error weight t satisfies 2*t < d_u (the code's
decoding distance), every vote picks the sent coordinate.  Decoding never
aborts; a re-encoding check afterwards flags outputs that land outside the
guaranteed radius.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .code import Code, Vector
from .curvering import (Curve, Monomial, RingElement, Semigroup,
                         _prime_reduce)
from .gf import FieldElement, canonical_key

UP = "up"
DOWN = "down"

STATUS_OK = "ok"
STATUS_LOW_CONFIDENCE = "low-confidence"
STATUS_FAILED = "failed-verification"


class Lead(NamedTuple):
    """A leading term: its side, the pole order of its monomial, its
    coefficient, and the monomial itself."""

    location: str
    order: int
    coefficient: FieldElement
    monomial: Monomial


@dataclasses.dataclass(slots=True)
class ModulePair:
    """f = up * z + down with both components reduced; du and dd are the
    pole orders of up and down (None for zero), read once, when built."""

    up: RingElement
    down: RingElement
    du: Optional[int] = dataclasses.field(init=False, repr=False,
                                          compare=False)
    dd: Optional[int] = dataclasses.field(init=False, repr=False,
                                          compare=False)

    def __post_init__(self) -> None:
        self.du, self.dd = self.up.delta(), self.down.delta()


def leading(s: int, pair: ModulePair) -> Lead:
    """Leading term under the order giving z weight s.

    Upstairs wins when delta(up) + s >= delta(down); ties go upstairs, and
    a zero component never leads.
    """
    if pair.up.is_zero and pair.down.is_zero:
        raise ValueError("the zero pair has no leading term")
    side, location = (pair.up, UP) if _leads_up(s, pair) else (pair.down, DOWN)
    return Lead(location, side.delta(), side.leading_coefficient(),
                side.leading_monomial())


def _leads_up(s: int, pair: ModulePair) -> bool:
    """Whether a nonzero pair leads upstairs at weight s."""
    du, dd = pair.du, pair.dd
    return dd is None or du is not None and du + s >= dd


@dataclasses.dataclass(frozen=True)
class GBState:
    """Groebner basis of the interpolation module at one weight.

    Every g element leads downstairs and every f element upstairs, so a
    lead is read off as ``g.down``'s or ``f.up``'s leading term.  Within g
    the downstairs leading monomials are pairwise non-divisible, within f
    the upstairs ones are (phi(r) divides phi(t) exactly when t - r is a
    nongap); together their footprints count n monomials.
    """

    weight: int
    g: tuple[ModulePair, ...]
    f: tuple[ModulePair, ...]
    curve: Curve

    def g_leads(self) -> list[Lead]:
        return [leading(self.weight, p) for p in self.g]

    def f_leads(self) -> list[Lead]:
        return [leading(self.weight, p) for p in self.f]


@dataclasses.dataclass(frozen=True)
class VoteRecord:
    """One voting round: candidates, their tallies, and the winner."""

    s: int
    candidates: tuple[FieldElement, ...]
    tallies: Mapping[FieldElement, int]
    chosen: FieldElement
    margin: int


@dataclasses.dataclass(frozen=True)
class DecodeResult:
    message: Vector
    votes: tuple[VoteRecord, ...]
    status: str
    distance: int


Watcher = Callable[[int, GBState, Optional[VoteRecord]], None]


def initial_basis(code: Code, v: Sequence[FieldElement]) -> GBState:
    """Basis {0*z + eta_i} + {z - h_v} at weight N = delta(h_v)."""
    h = code.lagrange(v)
    curve = code.curve
    g = tuple(ModulePair(curve.zero(), eta) for eta in code.eta_basis)
    f = (ModulePair(curve.one(), -h),)
    return GBState(0 if h.is_zero else h.delta(), g, f, curve)


#: the G part last voted on and the staircase of its leads, swapped as one
#: tuple: a decode's G part is one tuple until its footprint grows in
#: ``step`` or ``_settled`` takes the pending votes in (with no G lead
#: moved), so ``vote`` builds the staircase once per G part tuple, not once
#: per vote; ``decode`` lets go of its G part when it returns or raises
_last_g: tuple = (None, None)


def vote(code: Code, s: int, state: GBState) -> VoteRecord:
    """Majority vote for the message coordinate at nongap order s <= u, on
    a basis at weight s."""
    global _last_g
    sg = state.curve.semigroup
    if not sg.is_nongap(s) or s > code.u:
        raise ValueError(f"voting requires a nongap s <= u, got {s}")
    if state.weight != s:
        raise ValueError(f"voting at {s} requires a basis at weight {s}, "
                         f"got weight {state.weight}")
    curve = state.curve
    g_part, stair_g = _last_g
    if g_part is not state.g:
        stair_g = sg.staircase(g.dd for g in state.g)
        _last_g = (state.g, stair_g)

    nominations: dict[FieldElement, list[int]] = {}
    for pair in state.f:
        du = pair.du
        target = du + s  # pole order of the leading monomial of up * phi_s
        d = pair.down.coefficient_at(target)
        w_j = -(d * _monic(curve, s, du, pair.up.leading_coefficient()))
        nominations.setdefault(w_j, []).append(target)

    # a candidate weighs the part of the G footprint its targets' cones cover
    tallies = {c: sg.staircase_difference(stair_g, sg.staircase(targets))
               for c, targets in nominations.items()}

    candidates = tuple(sorted(nominations, key=canonical_key))
    top, runner_up = (sorted(tallies.values(), reverse=True) + [0])[:2]
    # the first maximum wins; when all votes are empty any choice ties
    chosen = (max(candidates, key=tallies.__getitem__) if top
              else curve.field.zero)
    return VoteRecord(s, candidates, tallies, chosen, top - runner_up)


def shift(state: GBState, w: FieldElement, s: int) -> GBState:
    """Substitute z -> z + w * phi_s; leading data at weight s is unchanged,
    and a pair with a zero up part is returned as the same object."""
    sg = state.curve.semigroup
    if not sg.is_nongap(s):
        raise ValueError(f"{s} is a gap")
    if w.is_zero:
        return state
    g, f = (_substituted(part, [(s, w)]) for part in (state.g, state.f))
    return GBState(state.weight, g, f, state.curve)


def _substituted(part: Sequence[ModulePair],
                 votes: Sequence[tuple[int, FieldElement]]
                 ) -> tuple[ModulePair, ...]:
    """The pairs under z -> z + sum(w * phi_s for s, w in votes), for
    nonzero w: each down part takes up * w * phi_s for every vote in one
    ``_plus``, and a pair with a zero up part is the same object."""
    return tuple(p if p.up.is_zero else ModulePair(
        p.up, p.down._plus(*[(p.up, s, w) for s, w in votes])) for p in part)


def spoly(s: int, pair: ModulePair, g_part: Sequence[ModulePair]) -> list[ModulePair]:
    """Combinations converting one F element from weight s to weight s - 1:
    ``step`` on a one-element F part, whose new F part is returned.

    The pair must lead upstairs at weight s; the result is the pair, its
    one reduction by a dividing G lead, or its minimal lcm combinations.
    """
    if pair.up.is_zero or not _leads_up(s, pair):
        raise ValueError("spoly needs a pair leading upstairs at weight s")
    return list(step(GBState(s, tuple(g_part), (pair,), pair.up.curve)).f)


def _planned(s: int, pair: ModulePair, g_part: Sequence[ModulePair],
             sg: Semigroup) -> list[tuple]:
    """The combinations converting one F element from weight s to s - 1,
    before they are built: (up lead at weight s - 1, then ``_combine``'s
    arguments) each, g None for the pair itself.  du and mu below are the
    leads of the pair's up and down parts, read off the pair.

    Three cases on the weight-(s-1) leading term of the pair: upstairs ->
    the pair itself; downstairs at an order mu that a G lead of order
    r = delta(g.down) divides (mu - r a nongap) -> one reduction by the
    first such g, psi = mu; downstairs in the G footprint -> one
    elimination per lcm psi of mu with each G lead.  Every combination
    leads upstairs at weight s - 1, at du + psi - mu (pair.up times
    psi / mu), as the G side's up part is strictly lower.  Divisibility of
    monomials depends only on their difference of pole order, so a
    reduction is the pair's one minimal combination (every other plan is a
    multiple of it), and in the last case the minimal ones, those of the
    minimal lcms, are what ``_prime_reduce`` on the planned leads keeps."""
    du, mu = pair.du, pair.dd
    if _leads_up(s - 1, pair):
        return [(du, pair, None, 0, None)]
    lc = pair.down.leading_coefficient()
    for g in g_part:
        if sg.is_nongap(mu - g.dd):
            return [(du, pair, g, mu, lc)]
    return [(du + psi - mu, pair, g, psi, lc)
            for g in g_part for psi in sg.lcms(mu, g.dd)]


def _combine(pair: ModulePair, g: Optional[ModulePair], psi: int,
             lc: Optional[FieldElement]) -> ModulePair:
    """A planned combination: the pair itself when g is None, else
    cf * phi(psi - mu) * pair + cg * phi(psi - r) * g with both products
    monic at psi, for the downstairs leads mu = pair.dd and r = g.dd and
    the pair's downstairs coefficient lc.

    Each side is one ``_plus``.  A reduction (psi = mu) adds (cg / cf) *
    phi(psi - r) * g into the pair's side and scales the sum by cf in O(1);
    there phi(psi - mu) = 1, so cf = 1 / lc and cg / cf = cg * lc.  An
    eta's zero up part adds nothing, so takes no ``_plus``."""
    if g is None:
        return pair
    curve, mu, r = pair.up.curve, pair.dd, g.dd
    qf, qg = psi - mu, psi - r
    cg = -_monic(curve, qg, r, g.down.leading_coefficient())
    if qf:
        cf = _monic(curve, qf, mu, lc)
        zero = curve.zero()
        return ModulePair(zero._plus((pair.up, qf, cf), (g.up, qg, cg)),
                          zero._plus((pair.down, qf, cf), (g.down, qg, cg)))
    c, cf = cg * lc, lc.inverse()
    up = pair.up if g.up.is_zero else pair.up._plus((g.up, qg, c))
    return ModulePair(up * cf, pair.down._plus((g.down, qg, c)) * cf)


def _monic(curve: Curve, q: int, order: int, lc: FieldElement) -> FieldElement:
    """The scalar that makes phi(q) times the lead lc * phi(order) monic."""
    return (lc * curve.lead_factor(q, order)).inverse()


def step(state: GBState) -> GBState:
    """Convert a basis at weight s into the reduced basis at weight s - 1.

    The new G part is the old one plus the F elements that lead downstairs
    at weight s - 1 (``moved``); the new F part collects every F element's
    combinations (``_planned``); both parts are then pruned by divisibility
    of leading terms within the part, which drops every moved F element
    whose lead falls outside the old G footprint (an equal lead keeps the
    old G element).

    Only what changes is built and pruned.  Where nothing moves, or a G
    lead divides every moved down lead, the G part is the same tuple (a G
    lead does not depend on the weight) and each F element has one plan,
    leading at its own up lead, so no plan divides another; with nothing
    moved f is the same tuple too.  Only where the G footprint grows (some
    plan leads higher) is each part pruned by one ``_prime_reduce``, the
    plans on the leads they would be built with, before any is built.
    """
    s = state.weight
    moved = [p for p in state.f if not _leads_up(s - 1, p)]
    if not moved:
        return GBState(s - 1, state.g, state.f, state.curve)
    sg = state.curve.semigroup
    plans = [plan for p in state.f for plan in _planned(s, p, state.g, sg)]
    new_g = state.g
    if any(plan[0] != plan[1].du for plan in plans):  # the G footprint grows
        new_g = (*state.g, *moved)
        new_g = tuple(_prime_reduce(new_g, [g.dd for g in new_g], sg))
        plans = _prime_reduce(plans, [plan[0] for plan in plans], sg)
    new_f = tuple(_combine(*plan[1:]) for plan in plans)
    return GBState(s - 1, new_g, new_f, state.curve)


def _settled(state: GBState,
             pending: list[tuple[int, FieldElement]]) -> GBState:
    """The basis with the pending votes substituted into its G part, each
    pair in one ``_plus``; pending is left empty."""
    if not pending:
        return state
    g = _substituted(state.g, pending)
    pending.clear()
    return GBState(state.weight, g, state.f, state.curve)


def hamming_distance(v: Sequence[FieldElement], w: Sequence[FieldElement]) -> int:
    return sum(1 for a, b in zip(v, w) if a != b)


def decode(code: Code, v: Sequence[FieldElement],
           watch: Optional[Watcher] = None) -> DecodeResult:
    """Decode a received vector; never aborts.

    Runs the weight loop from N down to 0, voting at every nongap weight
    s <= u (coordinates above N, when any, are zero).  When 2 * wt(error)
    is below the decoding distance the output message is the sent one.
    ``watch`` is called as watch(s, basis entering weight s, vote or None)
    for every s, and once more with the final basis at weight -1 (the one
    way to reach it); the G part takes the pending votes before each call,
    so a watched decode settles at every weight.

    The status is ``failed-verification`` when the output re-encodes more
    than the radius (d_u - 1) // 2 away from v.  An output within the
    radius is the unique codeword there, so v is it plus at most that many
    errors and the guarantee applies to it: every vote was a strict
    majority, and the status is ``ok``.  The ``low-confidence`` status of a
    margin-0 vote is therefore not reached within the radius.
    """
    global _last_g
    sg = code.curve.semigroup
    field = code.field
    state = initial_basis(code, v)
    votes: list[VoteRecord] = []
    pending: list[tuple[int, FieldElement]] = []  # votes the G part lacks
    try:
        for s in range(state.weight, -1, -1):
            record = None
            if s <= code.u and sg.is_nongap(s):
                record = vote(code, s, state)
                votes.append(record)
            if watch is not None:
                state = _settled(state, pending)
                watch(s, state, record)
            if record is not None and not record.chosen.is_zero:
                pending.append((s, record.chosen))
                state = GBState(s, state.g,
                                _substituted(state.f, pending[-1:]),
                                state.curve)
            if pending and not all(_leads_up(s - 1, p) for p in state.f):
                state = _settled(state, pending)  # step combines with G
            state = step(state)
        if watch is not None:
            watch(-1, _settled(state, pending), None)
    finally:
        _last_g = (None, None)

    chosen = {r.s: r.chosen for r in votes}
    message = tuple(chosen.get(s, field.zero) for s in code.message_orders)
    distance = hamming_distance(code.encode(message), v)
    if distance > (code.decoding_distance() - 1) // 2:
        status = STATUS_FAILED
    elif any(r.margin == 0 for r in votes):
        status = STATUS_LOW_CONFIDENCE
    else:
        status = STATUS_OK
    return DecodeResult(message, tuple(votes), status, distance)
