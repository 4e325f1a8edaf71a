"""Shared helpers for the test suite: independent oracles and the tracked
decode harness.  Everything here recomputes results by a different route
than the library code it checks."""

from __future__ import annotations

import random

from agcodec import decode
from agcodec.curvering import Curve, Monomial, RingElement, Semigroup
from agcodec.gf import FieldElement


def naive_reduce(curve: Curve, raw: dict) -> RingElement:
    """Remainder of a bivariate polynomial by the defining equation.

    Long division in y with coefficients in F[x]: repeatedly replaces the
    highest y-degree block using the full curve polynomial, instead of the
    library's per-term rewrite of y^a.
    """
    terms = {Monomial(i, j): c for (i, j), c in raw.items() if not c.is_zero}
    eq = curve.equation_terms()  # monic in y of degree a
    a = curve.a
    while True:
        high = [m for m in terms if m.j >= a]
        if not high:
            break
        m = max(high, key=lambda t: t.j)
        c = terms.pop(m)
        # subtract c * x^(m.i) * y^(m.j - a) * (curve polynomial),
        # whose y^a block cancels the term just removed
        for (ei, ej), ec in eq.items():
            if (ei, ej) == (0, a):
                continue
            key = Monomial(m.i + ei, m.j - a + ej)
            total = terms.get(key, curve.field.zero) - c * ec
            if total.is_zero:
                terms.pop(key, None)
            else:
                terms[key] = total
    return RingElement(curve, terms)


def schoolbook_mul(f: RingElement, g: RingElement) -> RingElement:
    """Every term of f times every term of g, summed, then naive_reduce."""
    raw: dict = {}
    for (i1, j1), c1 in f.items():
        for (i2, j2), c2 in g.items():
            key = (i1 + i2, j1 + j2)
            raw[key] = raw.get(key, f.curve.field.zero) + c1 * c2
    return naive_reduce(f.curve, raw)


def lcm_orders(sg: Semigroup, s: int, t: int) -> tuple[int, ...]:
    """Pole orders of the lcms of phi(s) and phi(t), ascending."""
    return tuple(sg.degree(m) for m in sg.monomial_lcms(sg.phi(s), sg.phi(t)))


def random_ring_element(curve: Curve, rng: random.Random,
                        max_i: int = 8, terms: int = 5) -> RingElement:
    elems = curve.field.elements()
    raw = {}
    for _ in range(terms):
        key = (rng.randrange(max_i + 1), rng.randrange(curve.a))
        raw[key] = elems[rng.randrange(1, curve.field.order)]
    return curve.element(raw)


def random_message(code, rng: random.Random) -> tuple[FieldElement, ...]:
    elems = code.field.elements()
    return tuple(elems[rng.randrange(code.field.order)]
                 for _ in range(code.k))


def random_error(code, rng: random.Random, weight: int) -> list[FieldElement]:
    err = [code.field.zero] * code.n
    elems = code.field.elements()
    for pos in rng.sample(range(code.n), weight):
        err[pos] = elems[rng.randrange(1, code.field.order)]
    return err


def add_vectors(v, w):
    return tuple(a + b for a, b in zip(v, w))


def tracked_decode(code, v):
    """Decode while recording (s, state, vote, v_at_s) per iteration.

    The harness maintains its own copy of the residual vector: after a vote
    for w at order s it subtracts ev(w * phi_s), so the recorded vector is
    the one whose interpolation module the recorded basis must generate.
    """
    sg = code.curve.semigroup
    v_cur = tuple(v)
    records = []

    def watch(s, state, record):
        nonlocal v_cur
        records.append((s, state, record, v_cur))
        if record is not None and not record.chosen.is_zero:
            mono = sg.phi(s)
            shift_fn = code.curve.monomial(mono.i, mono.j, record.chosen)
            v_cur = tuple(a - b for a, b in zip(v_cur, code.ev(shift_fn)))

    result = decode(code, v, watch=watch)
    return result, records
