"""Brute-force verifiers, deliberately naive and independent of the decoder.

These back the test suite; neither the CLI nor normal decoding runs
them.  Caps are hard errors: an oracle that
silently shrinks its search space proves nothing.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Optional, Sequence

from .code import Code, Vector
from .curvering import Semigroup
from .decoder import DOWN, UP, GBState, hamming_distance, leading
from .gf import FieldElement

#: Largest message space an exhaustive codeword scan will walk.
NEAREST_CAP = 1 << 20


@dataclasses.dataclass(frozen=True)
class OracleReport:
    subject: str
    passed: bool
    counterexample: Optional[dict] = None


def nearest_codeword(code: Code, v: Sequence[FieldElement]
                     ) -> list[tuple[Vector, Vector, int]]:
    """All (message, codeword, distance) triples at minimum distance from v.

    Scans every message; the message space q^k must stay under NEAREST_CAP.
    """
    space = code.field.order ** code.k
    if space > NEAREST_CAP:
        raise ValueError(f"message space {space} exceeds cap {NEAREST_CAP}")
    best: list[tuple[Vector, Vector, int]] = []
    best_d = None
    for combo in itertools.product(code.field.elements(), repeat=code.k):
        c = code.encode(combo)
        d = hamming_distance(c, v)
        if best_d is None or d < best_d:
            best_d = d
            best = [(combo, c, d)]
        elif d == best_d:
            best.append((combo, c, d))
    return best


def check_gb(s: int, state: GBState, code: Code,
             v_s: Sequence[FieldElement]) -> OracleReport:
    """Verify a basis state against the interpolation module of v_s.

    Checks membership (every element vanishes at every (P_i, v_i)), the
    footprint count (n monomials split between the two components), and
    reducedness (leading monomials pairwise non-divisible within each part,
    G leading downstairs and F upstairs).
    """
    subject = f"gb-state s={s}"
    sg = state.curve.semigroup

    for label, pairs in (("G", state.g), ("F", state.f)):
        for idx, pair in enumerate(pairs):
            for (px, py), vi in zip(code.points, v_s):
                value = pair.up.evaluate(px, py) * vi + pair.down.evaluate(px, py)
                if not value.is_zero:
                    return OracleReport(subject, False, {
                        "check": "membership", "element": f"{label}{idx + 1}",
                        "point": (str(px), str(py)), "value": str(value)})

    g_leads = [leading(s, p) for p in state.g]
    f_leads = [leading(s, p) for p in state.f]
    for label, leads, want in (("G", g_leads, DOWN), ("F", f_leads, UP)):
        for idx, ld in enumerate(leads):
            if ld.location is not want:
                return OracleReport(subject, False, {
                    "check": "location", "element": f"{label}{idx + 1}",
                    "got": ld.location})
        for i, li in enumerate(leads):
            for j, lj in enumerate(leads):
                if i != j and sg.is_nongap(lj.order - li.order):
                    return OracleReport(subject, False, {
                        "check": "reduced", "part": label,
                        "divisor": str(li.monomial),
                        "multiple": str(lj.monomial)})

    if not g_leads or not f_leads:  # an empty part has infinite footprint
        return OracleReport(subject, False, {
            "check": "footprint", "size": "infinite", "expected": code.n})
    count = len(sg.footprint([ld.monomial for ld in g_leads])) + \
        len(sg.footprint([ld.monomial for ld in f_leads]))
    if count != code.n:
        return OracleReport(subject, False, {
            "check": "footprint", "size": count, "expected": code.n})
    return OracleReport(subject, True)


def lcm_check(sg: Semigroup, s: int, t: int, bound: int) -> OracleReport:
    """Enumerate common multiples of s and t up to bound and verify that the
    reported lcms are common multiples dominating all of them."""
    # reference criterion: phi(r) divides phi(c) exactly when c - r is a nongap
    subject = f"lcm s={s} t={t}"
    floor = s + t + sg.a * sg.b
    if bound < floor:
        raise ValueError(f"bound {bound} below required {floor}")
    lcms = sg.lcms(s, t)
    for l in lcms:
        if not (sg.is_nongap(l - s) and sg.is_nongap(l - t)):
            return OracleReport(subject, False, {
                "check": "common-multiple", "lcm": l})
    for c in sg.nongaps(bound):
        if sg.is_nongap(c - s) and sg.is_nongap(c - t):
            if not any(sg.is_nongap(c - l) for l in lcms):
                return OracleReport(subject, False, {
                    "check": "covering", "multiple": c, "lcms": lcms})
    return OracleReport(subject, True)
