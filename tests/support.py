"""Shared helpers for the test suite: independent oracles and the tracked
decode harness.  Everything here recomputes results by a different route
than the library code it checks."""

from __future__ import annotations

import random
from typing import Sequence

from agcodec import curvering, decode, decoder
from agcodec.code import Code, Point, curve_from_config, rational_points
from agcodec.curvering import Curve, Monomial, RingElement, Semigroup
from agcodec.gf import FieldElement

#: Miura-Kamiya curves whose y^a rewrite has d != -1, so a product of
#: monomials whose y-degrees wrap past a leads with -d, not 1.
MK_FAMILIES = {
    # y^2 + 4x + 2x^3 = 0 over GF(5): 9 points
    "a2-gf5": {"type": "mk", "field": {"p": 5}, "a": 2, "b": 3, "d": "2",
               "coeffs": [[1, 0, "4"]]},
    # y^2 + x + 3 + x^3 = 0 over GF(7): 9 points
    "a2-gf7": {"type": "mk", "field": {"p": 7}, "a": 2, "b": 3, "d": "1",
               "coeffs": [[0, 0, "3"], [1, 0, "1"]]},
    # y^2 + 2x + 1 + x^3 = 0 over GF(25): 34 points
    "a2-gf25": {"type": "mk", "field": {"p": 5, "m": 2}, "a": 2, "b": 3,
                "d": "1", "coeffs": [[0, 0, "1"], [1, 0, "2"]]},
    # y^3 + 2y + 5xy + y^2 + 4x^2 + 6xy^2 + 3x^4 = 0 over GF(7): 8 points
    "a3-gf7": {"type": "mk", "field": {"p": 7}, "a": 3, "b": 4, "d": "3",
               "coeffs": [[0, 1, "2"], [1, 1, "5"], [0, 2, "1"],
                          [2, 0, "4"], [1, 2, "6"]]},
    # y^4 + 3 + 2xy + 5x^5 = 0 over GF(7): 11 points
    "a4-gf7": {"type": "mk", "field": {"p": 7}, "a": 4, "b": 5, "d": "5",
               "coeffs": [[0, 0, "3"], [1, 1, "2"]]},
}


#: Large Miura-Kamiya curves over GF(8), GF(16), GF(27) and GF(32), kept
#: apart from MK_FAMILIES, whose small codes the decode sweep digest covers.
LARGE_MK_FAMILIES = {
    # y^4 + y + a^5 x^5 = 0: the Hermitian curve twisted to d = a^5 in
    # GF(4), so d != -1 and a wrap past y^4 keeps a unit term; 64 points
    "twisted-hermitian-gf16": {"type": "mk", "field": {"p": 2, "m": 4},
                               "a": 4, "b": 5, "d": "a^5",
                               "coeffs": [[0, 1, "1"]]},
    # y^8 + y^4 + y^2 + y + x^15 = 0: the norm-trace curve, three y-terms
    # in the rewrite of y^8; 128 points
    "norm-trace-gf16": {"type": "mk", "field": {"p": 2, "m": 4}, "a": 8,
                        "b": 15, "d": "1",
                        "coeffs": [[0, 4, "1"], [0, 2, "1"], [0, 1, "1"]]},
    # y^4 + y^2 + y + x^7 = 0: the norm-trace curve over GF(8), two y-terms
    # in the rewrite of y^4; 32 points, few enough messages at small u to
    # find the minimum weight by brute force
    "norm-trace-gf8": {"type": "mk", "field": {"p": 2, "m": 3}, "a": 4,
                       "b": 7, "d": "1", "coeffs": [[0, 2, "1"], [0, 1, "1"]]},
    # y^9 + y^3 + y = x^13: the norm-trace curve over GF(27), two y-terms in
    # the rewrite of y^9 in odd characteristic (d = 2 = -1); 243 points
    "norm-trace-gf27": {"type": "mk", "field": {"p": 3, "m": 3}, "a": 9,
                        "b": 13, "d": "2",
                        "coeffs": [[0, 3, "1"], [0, 1, "1"]]},
    # y^16 + y^8 + y^4 + y^2 + y + x^31 = 0: the norm-trace curve over
    # GF(32), four y-terms in the rewrite of y^16 and a = 16; 512 points
    "norm-trace-gf32": {"type": "mk", "field": {"p": 2, "m": 5}, "a": 16,
                        "b": 31, "d": "1",
                        "coeffs": [[0, 8, "1"], [0, 4, "1"], [0, 2, "1"],
                                   [0, 1, "1"]]},
}


def mk_code(family: str, u: int, shortened: bool = False) -> Code:
    """The code C_u of an MK_FAMILIES or LARGE_MK_FAMILIES curve on all its
    rational points, or on a seeded shuffle of them with a quarter
    dropped."""
    curve, _ = curve_from_config((MK_FAMILIES | LARGE_MK_FAMILIES)[family])
    points = rational_points(curve)
    if shortened:
        random.Random(1).shuffle(points)
        points = points[:len(points) - max(1, len(points) // 4)]
    return Code(curve, u, points)


def reference_ideal_basis(
    curve: Curve, points: Sequence[Point]
) -> tuple[tuple[RingElement, ...], tuple[Monomial, ...], list[list[FieldElement]]]:
    """The independent dense reference for agcodec.code.points_ideal_basis:
    a Gauss-Jordan elimination over the rows ev(phi_s) in increasing pole
    order, with rows and combinations as ring elements.

    Returns (etas, footprint monomials in increasing pole order, table),
    where table[k][c] is the coefficient of footprint monomial k in the
    Lagrange function of point c.  A row ev(phi_s) that reduces to zero
    gives an eta; any other row is scaled to 1 at its first nonzero column,
    which is cleared from the earlier pivots, so at the end each pivot is a
    Lagrange function.  The footprint has exactly n monomials.
    """
    sg = curve.semigroup
    n = len(points)
    etas: list[RingElement] = []
    eta_lms: list[Monomial] = []
    delta_monos: list[Monomial] = []
    # [col, row, combo]: ev(combo) = row, 1 at col, 0 at other pivots' cols
    pivots: list[list] = []

    s = 0
    cap = 4 * (n + curve.a * curve.b) * (curve.a + curve.b)
    while True:
        if etas and len(delta_monos) == n and \
                sum(sg.staircase(map(sg.degree, eta_lms))) == n:
            break
        if s > cap:
            raise RuntimeError("ideal basis computation failed to close")
        if not sg.is_nongap(s):
            s += 1
            continue
        mono = sg.phi(s)
        s += 1
        if any(lattice_divides(sg, lm, mono) for lm in eta_lms):
            continue
        combo = curve.monomial(*mono)
        row = [combo.evaluate(px, py) for px, py in points]
        for col, vec, prev in pivots:
            factor = row[col]
            if not factor.is_zero:
                row = [r - factor * v for r, v in zip(row, vec)]
                combo = combo - prev * factor
        col = next((idx for idx, r in enumerate(row) if not r.is_zero), None)
        if col is None:
            etas.append(combo)
            eta_lms.append(mono)
            continue
        scale = row[col].inverse()
        row = [r * scale for r in row]
        combo = combo * scale
        for pivot in pivots:
            factor = pivot[1][col]
            if not factor.is_zero:
                pivot[1] = [v - factor * r for v, r in zip(pivot[1], row)]
                pivot[2] = pivot[2] - combo * factor
        pivots.append([col, row, combo])
        delta_monos.append(mono)

    lagrange = [combo for _, _, combo in sorted(pivots, key=lambda p: p[0])]
    table = [[f.coefficient(m) for f in lagrange] for m in delta_monos]
    return tuple(etas), tuple(delta_monos), table


def reference_lagrange(code: Code, table: Sequence[Sequence[FieldElement]],
                       v: Sequence[FieldElement]) -> RingElement:
    """Code.lagrange as a FieldElement matrix-vector product over table
    (table[k][c] as in reference_ideal_basis), kept as the reference the
    kernel-value version is compared to."""
    terms: dict[Monomial, FieldElement] = {}
    for mono, row in zip(code.delta_monomials, table):
        c = code.field.zero
        for coeff, vi in zip(row, v):
            if not vi.is_zero:
                c = c + coeff * vi
        if not c.is_zero:
            terms[mono] = c
    return code.curve.reduce(terms)


def reference_encode(code: Code,
                     message: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
    """Code.encode as ev(mu) of the ring element mu = sum of w_s * phi_s,
    kept as the reference the kernel-value version is compared to."""
    sg = code.curve.semigroup
    terms = {sg.phi(s): w for s, w in zip(code.message_orders, message)
             if not w.is_zero}
    return ev(code, code.curve.reduce(terms))


def rank(vectors: Sequence[Sequence[FieldElement]]) -> int:
    """Rank of equal-length vectors, by row echelon elimination."""
    rows = [list(v) for v in vectors]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero),
                   None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        for i in range(r + 1, len(rows)):
            f = rows[i][c] * inv
            if not f.is_zero:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


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
    return curve.reduce(terms)


def schoolbook_mul(f: RingElement, g: RingElement) -> RingElement:
    """Every term of f times every term of g, summed, then naive_reduce."""
    raw: dict = {}
    for (i1, j1), c1 in f.items():
        for (i2, j2), c2 in g.items():
            key = (i1 + i2, j1 + j2)
            raw[key] = raw.get(key, f.curve.field.zero) + c1 * c2
    return naive_reduce(f.curve, raw)


def lattice_divides(sg: Semigroup, r: Monomial, t: Monomial) -> bool:
    """Whether some monomial times r leads with t, read off the exponent
    lattice: t lies right of and above r, or, as y^a leads with x^b, at least
    b columns right of r in a lower row.  The reference for the library's
    rule on pole orders (t - r a nongap)."""
    if t.j >= r.j:
        return t.i >= r.i
    return t.i >= r.i + sg.b


def reference_prime_reduce(items: list, orders: Sequence[int],
                           sg: Semigroup) -> list:
    """The items whose pole order no other item's divides, tested pair by
    pair: the quadratic reference for the library's rule by rows
    (``_prime_reduce``).  Equal orders keep the earlier item; output order
    follows input order."""
    kept = []
    for i, m in enumerate(orders):
        for j, other in enumerate(orders):
            d = m - other  # phi(other) divides phi(m): d is a nongap
            if j != i and sg.is_nongap(d) and (d or j < i):
                break
        else:
            kept.append(items[i])
    return kept


def reference_lcms(sg: Semigroup, r: int, t: int) -> tuple[int, ...]:
    """The lcm orders of phi(r) and phi(t) by the written-out formula: t or
    r when one divides the other, else, with phi(r) the one of larger
    y-degree, x^(t's i) y^(r's j) and x^(r's i + b) y^(t's j), ascending."""
    if sg.is_nongap(t - r):
        return (t,)
    if sg.is_nongap(r - t):
        return (r,)
    (ri, rj), (ti, tj) = sg.phi(r), sg.phi(t)
    if rj < tj:
        (ri, rj), (ti, tj) = (ti, tj), (ri, rj)
    return tuple(sorted((sg.degree(Monomial(ti, rj)),
                         sg.degree(Monomial(ri + sg.b, tj)))))


def evaluate_raw(terms, x: FieldElement, y: FieldElement) -> FieldElement:
    """sum(c * x^i * y^j) over raw terms ((i, j), c), term by term with
    boxed field arithmetic: the reference for the library's evaluation by
    rows (RingElement.evaluate) and on kernel-value lists (point listing)."""
    total = x.field.zero
    for (i, j), c in terms:
        total = total + c * x ** i * y ** j
    return total


def contains(curve: Curve, x: FieldElement, y: FieldElement) -> bool:
    """Whether the defining polynomial vanishes at (x, y)."""
    return evaluate_raw(curve.equation_terms().items(), x, y).is_zero


def is_smooth_at(curve: Curve, x: FieldElement, y: FieldElement) -> bool:
    """False when both formal partial derivatives vanish at (x, y)."""
    terms, times = curve.equation_terms().items(), curve.field.element
    dx = [((i - 1, j), times(i) * c) for (i, j), c in terms if i]
    dy = [((i, j - 1), times(j) * c) for (i, j), c in terms if j]
    return not (evaluate_raw(dx, x, y).is_zero
                and evaluate_raw(dy, x, y).is_zero)


def ev(code: Code, f: RingElement) -> tuple[FieldElement, ...]:
    """f evaluated at the code's points, in order, over its items() with
    evaluate_raw, so independent of the row slicing behind f.evaluate."""
    return tuple(evaluate_raw(f.items(), px, py) for px, py in code.points)


def gaps_below(sg: Semigroup, s: int) -> tuple[int, ...]:
    return tuple(g for g in range(s) if not sg.is_nongap(g))


def support(f: RingElement) -> frozenset[Monomial]:
    """The monomials with a nonzero coefficient in f."""
    return frozenset(m for m, _ in f.items())


def random_ring_element(curve: Curve, rng: random.Random,
                        max_i: int = 8, terms: int = 5) -> RingElement:
    elems = curve.field.elements()
    raw = {}
    for _ in range(terms):
        key = (rng.randrange(max_i + 1), rng.randrange(curve.a))
        raw[key] = elems[rng.randrange(1, curve.field.order)]
    return curve.reduce(raw)


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


def clear_memos():
    """Empty the decoder's memos of pole-order arithmetic: the vote's G
    staircase, the plans of ``step`` and the tallies of
    ``Semigroup.covered``."""
    decoder._g_staircase.cache_clear()
    decoder._PLANS.clear()
    curvering._TALLIES.clear()


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
            v_cur = tuple(a - b for a, b in zip(v_cur, ev(code, shift_fn)))

    result = decode(code, v, watch=watch)
    return result, records
