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
element nominates one field value, read off its leads alone (it leads
upstairs at s, so its down coefficient at its target du + s is its down
lead coefficient when dd == du + s, and zero otherwise), weighted by how
much of the downstairs footprint its upstairs cone covers
(``Semigroup.covered``, the count of the order bound nu(s), memoised on
pole orders; the staircase of the G leads is built once per change of
their orders, which only ``step`` makes, where the G footprint grows);
the intrinsic fields of a vote, those every basis with these leads gives,
are named in ``VoteRecord``.  A vote with one candidate, the common case
below the radius, returns its record with no sort, and the winner is
subtracted by the substitution z -> z + w * phi_s (below).  ``step``
converts the basis from weight s to s - 1 (``spoly`` is ``step`` on a
one-element F part).  The basis changes only at two kinds of weight: a
vote, and a weight s at which an F element's lead moves downstairs at
s - 1, which is s = dd - du for its down and up leads dd and du; so
``decode`` calls ``step`` only there and at weight 0, and between them
changes only the basis's weight.  An F element whose lead moves
downstairs, to mu, is reduced once by the first G element whose lead
divides mu (``Semigroup.divisor``): a row operation of the F[x]-module
view (Lee and O'Sullivan, 2009), both sides built in one
``curvering._reduced`` call, and the up lead kept.  Only where no G lead
divides mu, so that the G
footprint grows, is it combined with every G element at each lcm and are
both parts pruned to the leads no other lead divides (one
``_prime_reduce`` each, by rows in one pass).  ``_plan`` plans that step
on pole orders, with no field arithmetic, before ``_combine`` builds; the
plan depends on the lead orders alone, so it is memoised on them, and lead
configurations repeat from word to word.  ``_monic`` scales a lead to one
in a combination and in a nomination; a combination's G-side scalar
depends only on its G pair and on whether the y-degrees wrap, so
``_g_scalar`` builds it once per pair and wrap class and keeps it on the
pair.  ``decode`` and ``step`` visit the F part once per event, reading
each pair's leads from its ``du`` and ``dd``.  A weight at which no lead
moves keeps both parts, and a shift leaves a pair with a zero up part
untouched.
The split is kept at every weight, so leads are read off the basis: a G
element leads with its down part, an F element with its up part, and the
one test left is whether an F element still leads upstairs at s - 1,
which ``decode`` makes once per weight it visits.  ``leading`` and
``Lead`` are the inspection form of a lead, for traces and checks.
``Lead``, the basis ``GBState`` and the vote's ``VoteRecord`` are named
tuples, built once per visited weight or vote.

``decode`` substitutes each vote into the F part at once (``shift`` does
it on a whole basis), keeping each pair's up part and its lead, and the G
part takes the votes once per change.
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
import functools
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .code import Code, Vector
from .curvering import (Curve, Memo, Monomial, RingElement, Semigroup,
                         _prime_reduce, _reduced)
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
    pole orders of up and down (None for zero), read once, when built.
    ``_cg`` keeps the G-side scalars of the combinations with this pair as
    their G element (``_g_scalar``), filled on first need."""

    up: RingElement
    down: RingElement
    du: Optional[int] = dataclasses.field(init=False, repr=False,
                                          compare=False)
    dd: Optional[int] = dataclasses.field(init=False, repr=False,
                                          compare=False)
    _cg: Optional[list] = dataclasses.field(init=False, repr=False,
                                            compare=False)

    def __post_init__(self) -> None:
        self.du, self.dd = self.up.delta(), self.down.delta()
        self._cg = None


def _pair(up: RingElement, down: RingElement, du: Optional[int]) -> ModulePair:
    """ModulePair(up, down) for an up part whose pole order du is known, as
    a substitution and a reduction keep the up lead: only down's is read."""
    pair = object.__new__(ModulePair)
    pair.up, pair.down, pair.du, pair.dd = up, down, du, down.delta()
    pair._cg = None
    return pair


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


class GBState(NamedTuple):
    """Groebner basis of the interpolation module at one weight.

    Every g element leads downstairs and every f element upstairs, so a
    lead is read off as ``g.down``'s or ``f.up``'s leading term.  Within g
    the downstairs leading monomials are pairwise non-divisible, within f
    the upstairs ones are (phi(r) divides phi(t) exactly when t - r is a
    nongap); together their footprints count n monomials.

    A named tuple, as ``Lead`` and ``VoteRecord`` are: immutable, and equal
    to a plain tuple (weight, g, f, curve) of the same fields.
    """

    weight: int
    g: tuple[ModulePair, ...]
    f: tuple[ModulePair, ...]
    curve: Curve

    def g_leads(self) -> list[Lead]:
        return [leading(self.weight, p) for p in self.g]

    def f_leads(self) -> list[Lead]:
        return [leading(self.weight, p) for p in self.f]


class VoteRecord(NamedTuple):
    """One voting round: candidates, their tallies, and the winner; a named
    tuple, so equal to a plain tuple of the same five fields.

    s, the chosen value, the margin and the nonzero tallies are intrinsic:
    every basis with the decoder's leads at weight s gives them.  The
    candidates of tally 0 depend on the basis: one comes from an F element
    whose target is in a G lead's cone, and adding a multiple of that G
    element to it changes its nomination freely (``a^3:0`` at s=14 in the
    golden q=3 trace is one)."""

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


@functools.lru_cache(maxsize=1)
def _g_staircase(sg: Semigroup, orders: tuple[int, ...]) -> tuple[int, ...]:
    """The staircase of the G leads of the given orders, memoised on the
    last (semigroup, orders): the G leads change only where ``step`` grows
    the G footprint, so ``vote`` builds it once per change, not once per
    vote, and the memo holds no basis."""
    return sg.staircase(orders)


def vote(code: Code, s: int, state: GBState) -> VoteRecord:
    """Majority vote for the message coordinate at nongap order s <= u, on
    a basis at weight s.

    Each F element nominates one value, read off its leads: it leads
    upstairs at s, so its down part's coefficient at its target du + s
    (the order of up * phi_s's lead) is its down lead coefficient when
    dd == du + s and zero otherwise, and it nominates minus that
    coefficient over up * phi_s's lead coefficient.  A candidate's tally is
    the part of the G footprint that its nominators' targets cover.  The
    winner is the first candidate (in ``canonical_key`` order) of largest
    tally, zero when every tally is 0, and the margin is its lead over the
    runner-up.  A lone candidate is that rule's direct case: it wins
    unless its tally is 0, and its margin is its tally."""
    sg = state.curve.semigroup
    if not sg.is_nongap(s) or s > code.u:
        raise ValueError(f"voting requires a nongap s <= u, got {s}")
    if state.weight != s:
        raise ValueError(f"voting at {s} requires a basis at weight {s}, "
                         f"got weight {state.weight}")
    curve = state.curve
    zero = curve.field.zero
    stair_g = _g_staircase(sg, tuple([g.dd for g in state.g]))

    nominations: dict[FieldElement, tuple[int, ...]] = {}
    for pair in state.f:
        du = pair.du
        target = du + s
        w_j = zero if pair.dd != target else -(
            pair.down.leading_coefficient()
            * _monic(curve, s, du, pair.up.leading_coefficient()))
        nominations[w_j] = nominations.get(w_j, ()) + (target,)

    # a candidate weighs the part of the G footprint its targets' cones cover
    tallies = {c: sg.covered(stair_g, targets)
               for c, targets in nominations.items()}
    if len(tallies) == 1:  # the one candidate wins unless its tally is 0
        (c, top), = tallies.items()
        return VoteRecord(s, (c,), tallies, c if top else curve.field.zero,
                          top)

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
    ``_plus``, and a pair with a zero up part (du None) is the same object.
    One vote is handed to ``_plus`` as its one product, with no list; the
    up part, and so its lead du, is kept."""
    if len(votes) == 1:
        (s, w), = votes
        return tuple([p if p.du is None
                      else _pair(p.up, p.down._plus((p.up, s, w)), p.du)
                      for p in part])
    return tuple([p if p.du is None
                  else _pair(p.up, p.down._plus(
                      *[(p.up, s, w) for s, w in votes]), p.du)
                  for p in part])


def spoly(s: int, pair: ModulePair, g_part: Sequence[ModulePair]) -> list[ModulePair]:
    """Combinations converting one F element from weight s to weight s - 1:
    ``step`` on a one-element F part, whose new F part is returned.

    The pair must lead upstairs at weight s; the result is the pair, its
    one reduction by a dividing G lead, or its minimal lcm combinations.
    """
    if pair.up.is_zero or not _leads_up(s, pair):
        raise ValueError("spoly needs a pair leading upstairs at weight s")
    return list(step(GBState(s, tuple(g_part), (pair,), pair.up.curve)).f)


def _combine(pair: ModulePair, g: ModulePair, psi: int,
             lc: FieldElement) -> ModulePair:
    """A planned combination, cf * phi(psi - mu) * pair + cg * phi(psi - r)
    * g with both products monic at psi, for the downstairs leads
    mu = pair.dd and r = g.dd and the pair's downstairs coefficient lc.

    In an lcm combination each side is one ``_plus``.  A reduction
    (psi = mu) adds (cg / cf) * phi(psi - r) * g into the pair and scales
    the sum by cf, both sides in one ``curvering._reduced`` call; there
    phi(psi - mu) = 1, so cf = 1 / lc and cg / cf = cg * lc, and the up
    lead du is kept, as g's up part is strictly lower."""
    curve, mu, r = pair.up.curve, pair.dd, g.dd
    qf, qg = psi - mu, psi - r
    cg = _g_scalar(curve, g, qg)
    if qf:
        cf = _monic(curve, qf, mu, lc)
        zero = curve.zero()
        return ModulePair(zero._plus((pair.up, qf, cf), (g.up, qg, cg)),
                          zero._plus((pair.down, qf, cf), (g.down, qg, cg)))
    up, down = _reduced(pair.up, pair.down, g.up, g.down, qg, cg * lc,
                        lc.inverse())
    return _pair(up, down, pair.du)


def _monic(curve: Curve, q: int, order: int, lc: FieldElement) -> FieldElement:
    """The scalar that makes phi(q) times the lead lc * phi(order) monic."""
    return (lc * curve.lead_factor(q, order)).inverse()


def _g_scalar(curve: Curve, g: ModulePair, q: int) -> FieldElement:
    """cg = -1 / (lc_g * lead_factor(q, r)), the G-side scalar of a
    combination with g at psi = r + q, for g's down lead lc_g * phi(r).
    It depends only on g and on whether the y-degrees of phi(q) and phi(r)
    wrap (``Curve.lead_factor``), so it is built once per G pair and wrap
    class and kept on the pair (``ModulePair._cg``), which it dies with."""
    factor = curve.lead_factor(q, g.dd)
    kept = g._cg
    if kept is None:
        kept = g._cg = [None, None]
    wrap = factor is not curve.field.one
    cg = kept[wrap]
    if cg is None:
        cg = kept[wrap] = -_monic(curve, q, g.dd,
                                  g.down.leading_coefficient())
    return cg


def step(state: GBState) -> GBState:
    """Convert a basis at weight s into the reduced basis at weight s - 1.

    The new G part is the old one plus the F elements that lead downstairs
    at weight s - 1 (``moved``); the new F part collects every F element's
    combinations; both parts are then pruned by divisibility of leading
    terms within the part, which drops every moved F element whose lead
    falls outside the old G footprint (an equal lead keeps the old G
    element).

    Only what changes is built and pruned, in one pass over the F part
    that finds each moved element, the first G element whose lead divides
    its down lead mu (``Semigroup.divisor``) and its down lead
    coefficient.  Where nothing moves, both parts are the same tuples;
    ``decode`` calls step only where an F element moves and at weight 0.
    A moved element with such a G element is reduced by it in that pass,
    both sides in one ``curvering._reduced`` call, so where every moved
    element has one, that pass builds the new F part and the G part is the
    same tuple (a G lead does not depend on the weight); no plan divides
    another, as each F element still leads at its own up lead.  Only where
    the G footprint grows does ``_plan`` take lcms and prune each part, on
    pole orders; its plan is memoised on the weights, s, the F leads (du,
    dd) and the G leads dd, so a decode meeting a lead configuration again
    only builds the rest.  A reduction's up lead du is minimal among the
    up leads at s, so at s - 1, and the plan keeps it as built.
    """
    s, g, f = state.weight, state.g, state.f
    sg = state.curve.semigroup
    new_f, moved, divisors, lc, reduced = [], [], [], [], []
    g_orders = None
    for p in f:
        mu = p.dd
        if mu is None or p.du + s > mu:  # still leads upstairs at s - 1
            new_f.append(p)
            continue
        if g_orders is None:
            g_orders = [q.dd for q in g]
        j = sg.divisor(mu, g_orders)
        c = p.down.leading_coefficient()
        moved.append(p)
        divisors.append(j)
        lc.append(c)
        if j is not None:
            p = _combine(p, g[j], mu, c)
        reduced.append(p)
        new_f.append(p)
    if not moved:
        return GBState(s - 1, g, f, state.curve)
    if None not in divisors:  # each moved element is reduced in its place
        return GBState(s - 1, g, tuple(new_f), state.curve)
    key = (sg.a, sg.b, s, len(f), *[p.du for p in f], *[p.dd for p in f],
           *g_orders)
    plan = _PLANS.get(key)
    if plan is None:
        plan = _PLANS.keep(key, _plan(g, f, moved, divisors, sg))
    g_kept, f_plans = plan
    it = iter(f_plans)
    # the pass built the reductions; only the lcm combinations are left
    new_f = tuple([f[i] if j is None
                   else reduced[i] if j == divisors[i]
                   else _combine(moved[i], g[j], psi, lc[i])
                   for i, j, psi in zip(it, it, it)])
    grown = (*g, *moved)
    return GBState(s - 1, tuple(map(grown.__getitem__, g_kept)), new_f,
                   state.curve)


#: The plans of ``step`` where the G footprint grows, shared by every
#: semigroup of the same weights.
_PLANS = Memo()


def _plan(g: tuple[ModulePair, ...], f: tuple[ModulePair, ...],
          moved: list[ModulePair], divisors: list[Optional[int]],
          sg: Semigroup
          ) -> tuple[tuple[int, ...], tuple[Optional[int], ...]]:
    """The step from weight s to s - 1 on pole orders, where the G
    footprint grows: ``moved`` are the F elements leading downstairs at
    s - 1, in order, and ``divisors`` the index of the first G element
    whose lead divides each one's down lead, None for none.  Returns (the
    new G part as indices into g + moved; the new F part as one flat tuple
    of triples (i, j, psi): f[i] kept as it is where j is None, else the
    combination of moved[i] with g[j] at psi that ``_combine`` builds).

    An F element that still leads upstairs is kept as it is.  A moved one,
    of leads du up and mu down, is reduced by its dividing G element,
    psi = mu, or, with mu in the G footprint, eliminated once per lcm psi
    of mu with each G lead.  Every combination leads upstairs at weight
    s - 1, at du + psi - mu (pair.up times psi / mu), as the G side's up
    part is strictly lower.  Divisibility of monomials depends only on
    their difference of pole order, so a reduction is the pair's one
    minimal combination (every other plan is a multiple of it), and in the
    last case the minimal ones, those of the minimal lcms, are what
    ``_prime_reduce`` on the planned leads keeps; the G part, with the
    moved elements, is pruned the same way."""
    plans, leads, k = [], [], 0
    for i, p in enumerate(f):
        du, mu = p.du, p.dd
        if k == len(moved) or p is not moved[k]:
            plans.append((i, None, 0))
            leads.append(du)
            continue
        if divisors[k] is not None:
            plans.append((k, divisors[k], mu))
            leads.append(du)
        else:
            for j, r in enumerate(g):
                for psi in sg.lcms(mu, r.dd):
                    plans.append((k, j, psi))
                    leads.append(du + psi - mu)
        k += 1
    grown = (*g, *moved)
    at = {id(p): n for n, p in enumerate(grown)}
    g_kept = tuple([at[id(p)] for p in _prime_reduce(
        grown, [p.dd for p in grown], sg)])
    plans = _prime_reduce(plans, leads, sg)
    return g_kept, tuple([x for plan in plans for x in plan])


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
    """The number of positions at which v and w differ; vectors of
    different lengths are refused."""
    if len(v) != len(w):
        raise ValueError(f"Hamming distance of vectors of lengths {len(v)} "
                         f"and {len(w)}")
    return sum(1 for a, b in zip(v, w) if a is not b and a != b)


def decode(code: Code, v: Sequence[FieldElement],
           watch: Optional[Watcher] = None) -> DecodeResult:
    """Decode a received vector; never aborts.

    Runs the weight loop from N down to 0, voting at every nongap weight
    s <= u (coordinates above N, when any, are zero).  When 2 * wt(error)
    is below the decoding distance the output message is the sent one.
    Each weight tests once whether an F element moves downstairs at s - 1
    (dd == du + s); ``step`` is called only there and at weight 0, so every
    decode ends with one step to weight -1.  With no ``watch`` the loop
    jumps from a weight where nothing moves straight to the next vote
    weight or the largest dd - du of the F part, whichever is higher: no
    weight between changes the basis.  ``watch`` is called as watch(s,
    basis entering weight s, vote or None) for every s, and once more with
    the final basis at weight -1 (the one way to reach it); the G part
    takes the pending votes before each call, so a watched decode settles
    at every weight.

    The status is ``failed-verification`` when the output re-encodes more
    than the radius (d_u - 1) // 2 away from v.  An output within the
    radius is the unique codeword there, so v is it plus at most that many
    errors and the guarantee applies to it: every vote was a strict
    majority, and the status is ``ok``.  The ``low-confidence`` status of a
    margin-0 vote is therefore not reached within the radius.
    """
    sg = code.curve.semigroup
    field = code.field
    state = initial_basis(code, v)
    curve = state.curve
    votes: list[VoteRecord] = []
    pending: list[tuple[int, FieldElement]] = []  # votes the G part lacks
    s = state.weight
    # the vote weights, descending, then -1 for none left
    vote_weights = [r for r in range(min(s, code.u), -1, -1)
                    if sg.is_nongap(r)] + [-1]
    k = 0  # vote_weights[k] is the next vote weight, at or below s
    while s >= 0:
        record = None
        if s == vote_weights[k]:
            record = vote(code, s, state)
            votes.append(record)
            k += 1
        if watch is not None:
            state = _settled(state, pending)
            watch(s, state, record)
        if record is not None and not record.chosen.is_zero:
            won = (s, record.chosen)
            pending.append(won)
            state = GBState(s, state.g, _substituted(state.f, (won,)), curve)
        # an F element moves downstairs at weight dd - du, never above s
        top = -1
        for p in state.f:
            if p.dd is not None and p.dd - p.du > top:
                top = p.dd - p.du
        if top == s or not s:
            if pending and top == s:
                state = _settled(state, pending)  # step combines with G
            state = step(state)
        else:  # no weight down to the next vote or move changes the basis
            state = GBState(s - 1 if watch is not None
                            else max(top, vote_weights[k], 0),
                            state.g, state.f, curve)
        s = state.weight
    if watch is not None:
        watch(-1, _settled(state, pending), None)

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
