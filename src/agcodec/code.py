"""Evaluation codes on Miura-Kamiya curves.

A code is determined by the curve, an ordered list of distinct nonsingular
rational points P_1..P_n, and a pole-order limit u < n.  Messages are
indexed by the nongaps s <= u; encoding evaluates mu = sum(w_s * phi_s) at
the points.

The default points are listed per x-value: the equation's values at every
y are one ``Field.axpy`` per y-degree, and only its roots are tested for
smoothness, all at once on kernel-value lists, as are the points of an
explicit list.

Construction works in R as a free F[x]-module with basis 1, y, ...,
y^(a-1), on lists of kernel values (logs, see ``gf.py``) indexed by pole
order, each update one ``Field.axpy``; they become ring vectors
(``Field.vector``) once, at the etas and at ``Code.lagrange``.  The points
are grouped by x-value, in first-seen order, into fibers of at most a
points each, which all three steps read.  A ``Code`` builds only the point
ideal, its etas and their staircase; every interpolation and encoding table
is made on the first call that reads it.  The l_x0 and x^i tables each
hold at most w vectors of length w, w the number of distinct x-values:

* The reduced F[x]-basis of the ideal J of functions vanishing at all
  points has a generators, one per y-degree.  A full fiber, a points over
  x0, has the ideal (x - x0)R, so the generators start as y^j times the
  product of (x - x0) over the full fibers, and Kötter's point-by-point
  update multiplies one by (x - x_P) or eliminates it at each of the other
  points P.  The generators whose leads are not multiples of other leads
  are the reduced Groebner basis {eta_i} of J, and the monomials below the
  leads are its footprint (exactly n monomials), read off the eta leads
  where it is needed (``_footprint``).
* Interpolation goes through the fibers.  The Lagrange function of a
  point (x0, y0) is l_x(x) * l_y(y), the univariate Lagrange polynomials
  of x0 over the distinct x-values and of y0 over its fiber, so the
  interpolant of a word is the sum of y^j P_j(x): each fiber's values and
  its l_y give the y-coefficients c_j(x0), and P_j is one ``Field.combine``
  of the products c_j(x0) * l_x0, the l_x0 held as vectors.  The l_y of
  the fibers of one size are built side by side, and the c_j are formed in
  that same layout.  The sum is reduced by the basis onto the footprint,
  with no n x n table.  The first interpolation builds the Lagrange
  polynomials and keeps only the l_x0 vectors and the l_y.
* Encoding is the transpose: a message function, the sum of y^j M_j(x), is
  evaluated at the distinct x-values by one ``Field.combine`` per M_j of
  its coefficients times the vectors of the powers x^i there, then by
  Horner's rule in y at each point, with no k x n table.

The point order is part of the code: vectors align index by index with the
stored point list.  The default order is lexicographic in the textual form
of x then y; an explicit point list may be supplied instead (and is what
the bundled fixtures do).
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .curvering import (Curve, Monomial, RingElement, Semigroup,
                        _evaluate_logs, _hermitian_prime, _prime_reduce)
from .gf import Field, FieldElement, _is_int

Point = tuple[FieldElement, FieldElement]
Vector = tuple[FieldElement, ...]


def rational_points(curve: Curve) -> list[Point]:
    """All nonsingular affine rational points, in the canonical order.

    For each x the equation is a polynomial in Y with coefficients C_j(x),
    each evaluated at every x at once (``_evaluate_logs``); its values at
    every y are one ``Field.axpy`` of C_j(x) times the kernel values of y^j
    per Y-degree j, and its roots are tested for smoothness all at once
    (``Curve.smooth_mask``).
    """
    field = curve.field
    elems = sorted(field.elements(), key=str)
    zero = field.zero_log
    by_degree: dict[int, list[tuple[tuple[int, int], FieldElement]]] = {}
    for (i, j), c in curve.equation_terms().items():
        by_degree.setdefault(j, []).append(((i, 0), c))
    logs = field.logs(elems)  # every x, and every y with its powers y^j
    y_pows = list(accumulate([[0] * len(logs)] + [logs] * curve.a,
                             field.multiply))
    degrees = list(by_degree)
    at_x = zip(*(_evaluate_logs(field, by_degree[j], logs, logs)
                 for j in degrees))  # the C_j(x) of each x
    roots = []
    for x, cs in zip(elems, at_x):
        values = [zero] * len(elems)
        for j, cj in zip(degrees, cs):
            if cj != zero:
                values = field.axpy(values, cj, y_pows[j])
        roots += [(x, y) for y, v in zip(elems, values) if v == zero]
    smooth = curve.smooth_mask(field.logs(x for x, _ in roots),
                               field.logs(y for _, y in roots))
    return [pt for pt, ok in zip(roots, smooth) if ok]


def checked_points(curve: Curve,
                   points: Optional[Sequence[Point]] = None) -> list[Point]:
    """The curve's rational points when points is None; otherwise the given
    points, each checked to be a nonsingular curve point over the curve's
    field, with no point repeated.

    The first offending point, in order, raises: for an entry that is no
    (x, y) tuple or a coordinate that is no element of the curve's field,
    then for a point off the curve, then for a singular one, and a
    repeated point only after all of them passed.  The equation and its
    partials are evaluated at all the points before the first foreign
    entry at once (``_evaluate_logs``, ``Curve.smooth_mask``).
    """
    if points is None:
        return rational_points(curve)
    field = curve.field
    out = list(points)
    foreign = next((c for c, pt in enumerate(out) if not (
        isinstance(pt, tuple) and len(pt) == 2 and all(
            isinstance(e, FieldElement) and e.field == field for e in pt))),
        len(out))
    xs = field.logs(x for x, _ in out[:foreign])
    ys = field.logs(y for _, y in out[:foreign])
    values = _evaluate_logs(field, curve.equation_terms().items(), xs, ys)
    for (x, y), v, smooth in zip(out, values, curve.smooth_mask(xs, ys)):
        if v != field.zero_log:
            raise ValueError(f"point ({x}, {y}) is not on the curve")
        if not smooth:
            raise ValueError(f"point ({x}, {y}) is singular")
    if foreign < len(out):
        entry = out[foreign]
        if isinstance(entry, tuple) and len(entry) == 2:
            raise ValueError("point coordinates from a different field")
        raise ValueError(f"point {foreign} is not an (x, y) tuple: {entry!r}")
    if len(set(out)) != len(out):
        raise ValueError("duplicate points")
    return out


def _reduce(curve: Curve, vec: list[int], basis: Sequence[Sequence[int]],
            leads: Sequence[int]) -> None:
    """Reduce vec in place by the F[x]-basis of an ideal of points.

    vec and each basis[j] are kernel values indexed by pole order, and
    basis[j] ends with its monic lead at order leads[j], the barrier of row
    j (the monomials x^i y^j).  Walking the orders of vec down, each term
    c * x^i y^j at or above its row's barrier is cleared by c times
    basis[j] times a power of x, which adds terms of lower order only, so
    at the end every term lies in the footprint.
    """
    field, ys, a = curve.field, curve.semigroup.y_degrees, curve.a
    zero, n, neg_one = field.zero_log, field.order - 1, field.neg_log
    for s in range(len(vec) - 1, min(leads) - 1, -1):
        j = ys[s % a]
        if s >= leads[j] and vec[s] != zero:
            off = s - leads[j]
            vec[off:s + 1] = field.axpy(vec[off:s + 1], (vec[s] + neg_one) % n,
                                        basis[j])


def _times_x_minus(field: Field, g: list[int], neg_x: int,
                   step: int) -> list[int]:
    """(x - x0) * g on kernel values, for neg_x the kernel value of -x0 and
    a factor x moving a coefficient step places up the list."""
    zero = field.zero_log
    up = [zero] * step + g
    return up if neg_x == zero else field.axpy(up, neg_x, g + [zero] * step)


def _fibers(points: Sequence[Point]) -> dict[FieldElement, dict[FieldElement, int]]:
    """The distinct points (``checked_points``) grouped by x-value:
    x0 -> {y0: index of (x0, y0)}, both in first-seen order."""
    fibers: dict[FieldElement, dict[FieldElement, int]] = {}
    for c, (px, py) in enumerate(points):
        fibers.setdefault(px, {})[py] = c
    return fibers


def _ideal_generators(curve: Curve, points: Sequence[Point],
                      fibers: Mapping[FieldElement, Mapping[FieldElement, int]]
                      ) -> tuple[list[list[int]], list[int]]:
    """The reduced F[x]-basis of the ideal of the distinct points
    (``checked_points``) and its leads.

    R is free over F[x] with basis 1, y, ..., y^(a-1), and so is the ideal:
    generator j is a list of kernel values indexed by pole order that ends
    with its monic lead, at order leads[j] in row j (a monomial x^i y^j).

    A full fiber, a distinct points over one x-value x0 (``_fibers``), has
    the ideal (x - x0)R, and the ideal J of the other points meets it in
    (x - x0)J.  So the generators start as g_j = y^j V(x), V the product of
    (x - x0) over the full fibers, and Kötter's update runs over the other
    points only, each generator carrying its values at the points still to
    come: at point P the generator g* of least lead that does not vanish at
    P is eliminated from the others, which keeps their leads, and is then
    multiplied by (x - x_P), which raises its lead by x and keeps it monic.
    Some generator does not vanish at P, as P repeats no earlier point.
    With no full fiber, V = 1 and the update runs over every point.  After
    the last point each generator is reduced by those of smaller lead, in
    increasing lead order, so every term but its lead lies in the
    footprint, the monomials below the leads of their rows.
    """
    field = curve.field
    a, b = curve.a, curve.b
    zero, n, neg_one = field.zero_log, field.order - 1, field.neg_log

    full = [x0 for x0, fiber in fibers.items() if len(fiber) == a]
    seeded = {c for x0 in full for c in fibers[x0].values()}
    rest = [pt for c, pt in enumerate(points) if c not in seeded]
    xs = field.logs(px for px, _ in rest)
    neg_xs = field.logs(-px for px, _ in rest)
    v, v_at = [0], [0] * len(rest)  # V, constant first, and its values
    for neg_x in field.logs(-x0 for x0 in full):
        v = _times_x_minus(field, v, neg_x, 1)
        v_at = field.multiply(v_at, field.axpy(xs, 0, [neg_x] * len(rest)))
    g0 = [zero] * (a * (len(v) - 1) + 1)  # V(x) by pole order
    g0[::a] = v
    leads = [b * j + len(g0) - 1 for j in range(a)]
    gens = [[zero] * (b * j) + g0 for j in range(a)]
    ys = field.logs(py for _, py in rest)  # and y^j V at those points
    values = list(accumulate([v_at] + [ys] * (a - 1), field.multiply))
    for p in reversed(range(len(rest))):  # last first: pop() drops P
        at_p = [vals.pop() for vals in values]
        live = [j for j in range(a) if at_p[j] != zero]
        star = min(live, key=leads.__getitem__)
        g = gens[star]
        for j in live:
            if j != star:
                k = (at_p[j] - at_p[star] + neg_one) % n
                values[j] = field.axpy(values[j], k, values[star])
                gens[j][:len(g)] = field.axpy(gens[j], k, g)
        values[star] = field.multiply(
            values[star], field.axpy(xs[:p], 0, [neg_xs[p]] * p))
        gens[star] = _times_x_minus(field, g, neg_xs[p], a)
        leads[star] += a
    for j in sorted(range(a), key=leads.__getitem__):
        tail = gens[j][:-1]
        _reduce(curve, tail, gens, leads)
        gens[j] = tail + [0]
    return gens, leads


def _lagrange_polys(field: Field, root_sets: Sequence[Sequence[FieldElement]]
                    ) -> list[tuple[list[int], list[list[int]]]]:
    """The Lagrange polynomials of the sets of distinct roots, one (group,
    rows) per set size: group lists the indices of the sets of that size,
    and rows[k] holds the coefficients k (kernel values) of their
    polynomials side by side, entry t * len(group) + g for root t of set
    group[g].  The polynomial of a root r0 is 1 at r0 and 0 at the other
    roots of its set: the quotient of the vanishing polynomial of the set by
    (T - r0), one synthetic division, over its value at r0.

    On the same side-by-side lists the vanishing polynomials, coefficient by
    coefficient, grow by one factor (T - root t) per step t, and the
    divisions of all the roots, and the Horner evaluations of their
    quotients, are one ``Field.axpy`` per coefficient."""
    zero, n = field.zero_log, field.order - 1
    by_size: dict[int, list[int]] = {}
    for c, roots in enumerate(root_sets):
        by_size.setdefault(len(roots), []).append(c)
    out = []
    for size, group in by_size.items():
        width = len(group)
        rs = field.logs(root_sets[c][t] for t in range(size) for c in group)
        neg = field.scale(rs, field.neg_log)
        vanishing = [0] * width  # coefficient k at [k * width:], monic
        for t in range(size):
            at = neg[t * width:(t + 1) * width] * (t + 1)
            pad = [zero] * width
            vanishing = field.axpy(pad + vanishing, 0,
                                   field.multiply(at, vanishing) + pad)
        quotient = at_root = [0] * len(rs)  # the quotient's lead is one
        rows = [quotient]  # quotient coefficients, highest first
        for k in reversed(range(1, size)):
            vk = vanishing[k * width:(k + 1) * width] * size
            quotient = field.axpy(vk, 0, field.multiply(quotient, rs))
            at_root = field.axpy(quotient, 0, field.multiply(at_root, rs))
            rows.append(quotient)
        inverse = [-k % n for k in at_root]
        out.append((group, [field.multiply(row, inverse)
                            for row in reversed(rows)]))
    return out


def points_ideal_basis(
    curve: Curve, points: Sequence[Point]
) -> tuple[tuple[RingElement, ...], tuple[Monomial, ...], list[list[int]]]:
    """Reduced Groebner basis of the ideal of the points (``checked_points``).

    Returns (etas, footprint monomials in increasing pole order, table),
    where table[k][c] is the coefficient of footprint monomial k in the
    Lagrange function of point c, as a kernel value: column c interpolates
    the unit vector of point c (``_ideal_basis_interpolator``).
    """
    points = checked_points(curve, points)
    etas, interpolate = _ideal_basis_interpolator(curve, points,
                                                  _fibers(points))
    footprint = _footprint(curve.semigroup, etas)
    zero = curve.field.zero_log
    columns = [interpolate([zero] * c + [0] + [zero] * (len(points) - c - 1))
               for c in range(len(points))]
    return (etas, footprint,
            [[col[s] if s < len(col) else zero for col in columns]
             for s in map(curve.semigroup.degree, footprint)])


def _footprint(sg: Semigroup, etas: Iterable[RingElement]
               ) -> tuple[Monomial, ...]:
    """The monomials that no eta lead divides, in increasing pole order."""
    return tuple(sorted(sg.footprint(eta.leading_monomial() for eta in etas),
                        key=sg.degree))


def _ideal_basis_interpolator(
    curve: Curve, points: Sequence[Point],
    fibers: Mapping[FieldElement, Mapping[FieldElement, int]]
) -> tuple[tuple[RingElement, ...], Callable[[Sequence[int]], list[int]]]:
    """(etas, interpolate).

    The etas are the generators of the reduced F[x]-basis
    (``_ideal_generators``) whose lead is no other lead times a monomial,
    in increasing lead order; the footprint is the n monomials below the
    leads of their rows (``_footprint``).  interpolate maps kernel values
    v_P at the points to the function with those values, as kernel values
    indexed by pole order up to its last nonzero one: the sum of v_P *
    l_x(x) * l_y(y) (``_lagrange_polys``) is the sum of y^j P_j(x), where
    P_j sums c_j(x0) * l_x0 over the fibers and c_j(x0) is a fiber's values
    times its l_y; it is reduced by the basis (``_reduce``) onto the
    footprint.  The l_y come side by side for the fibers of one size, and
    so are their c_j: one ``Field.multiply`` of the values, laid out as the
    l_y rows, by the l_y coefficients j, then one ``Field.axpy`` per point
    of a fiber to sum them.  P_j is then one ``Field.combine`` of the
    products c_j(x0) * l_x0 over the fibers.

    The first call builds the Lagrange polynomials (``_lagrange_polys``)
    and keeps only the l_x0, as Field vectors, and the l_y batches.  It
    sets lx last, so a racing first call builds them twice and never reads
    half of them.
    """
    sg, field = curve.semigroup, curve.field
    a, b = curve.a, curve.b
    zero = field.zero_log
    gens, leads = _ideal_generators(curve, points, fibers)
    rows = sorted(range(a), key=leads.__getitem__)
    etas = tuple(RingElement(curve, field.vector(gens[j])) for j
                 in _prime_reduce(rows, [leads[j] for j in rows], sg))
    top = max(leads)
    lx: Optional[list] = None  # the l_x0 as Field vectors
    # per group of fibers of one size: its points laid out as its l_y rows
    batches: list = []
    empty = field.vector(())
    size = max(a * len(fibers) + b * (a - 1), top)

    def interpolate(values: Sequence[int]) -> list[int]:
        nonlocal lx, batches
        if lx is None:
            fiber_points = [list(fiber.values()) for fiber in fibers.values()]
            batches = [(group, [fiber_points[x][t] for t in range(len(l_ys))
                                for x in group], l_ys)
                       for group, l_ys in _lagrange_polys(
                           field, [list(fiber) for fiber in fibers.values()])]
            (_, lx_rows), = _lagrange_polys(field, [list(fibers)])
            lx = list(map(field.vector, zip(*lx_rows)))  # constant first
        products: list[list] = [[] for _ in range(a)]  # P_j's c_j(x0), l_x0
        for group, points_at, l_ys in batches:
            w = len(group)
            at = [values[c] for c in points_at]
            for j, l_y in enumerate(l_ys):
                terms = field.multiply(at, l_y)
                cj = terms[:w]
                for t in range(w, len(terms), w):
                    cj = field.axpy(cj, 0, terms[t:t + w])
                products[j] += [(c, lx[x], 0) for x, c in zip(group, cj)
                                if c != zero]
        f = [zero] * size
        for j, terms in enumerate(products):
            poly = field.values(field.combine(empty, terms))
            f[b * j:b * j + a * len(poly):a] = poly  # P_j, constant first
        _reduce(curve, f, gens, leads)
        del f[top:]  # the footprint lies below the top lead
        while f and f[-1] == zero:
            f.pop()
        return f
    return etas, interpolate


class Code:
    """An evaluation code C_u, built with the etas of its point ideal and
    their staircase; interpolation and encoding make their tables on first
    use."""

    def __init__(self, curve: Curve, u: int,
                 points: Optional[Sequence[Point]] = None) -> None:
        self.curve = curve
        self.field = curve.field
        sg = curve.semigroup
        self.points: tuple[Point, ...] = tuple(checked_points(curve, points))
        self.n = len(self.points)
        self.u = _checked_u(u, self.n)
        self.message_orders: tuple[int, ...] = sg.nongaps(u)
        self.k = len(self.message_orders)
        self.eta_basis, self._interpolate = _ideal_basis_interpolator(
            curve, self.points, _fibers(self.points))
        self._staircase = sg.staircase(eta.delta() for eta in self.eta_basis)
        self._distance: Optional[int] = None
        # the x^i at the distinct x-values as Field vectors, i <= u // a:
        # made by the first encode, after each point's x index and y log
        self._x_powers: list = []

    @property
    def delta_monomials(self) -> tuple[Monomial, ...]:
        """The n footprint monomials in increasing pole order, read off the
        eta leads on each read (``_footprint``): nu(s) counts those that
        phi(s) divides."""
        return _footprint(self.curve.semigroup, self.eta_basis)

    # -- encoding ---------------------------------------------------------------

    def encode(self, message: Sequence[FieldElement]) -> Vector:
        """ev(sum of w_s * phi_s) = ev(sum of y^j M_j(x)): M_j at the
        distinct x-values is one ``Field.combine`` of its coefficients times
        the vectors of the x^i there, then Horner's rule in y at each
        point.

        The first call makes each point's x index and y log, then the x^i
        vectors, from the points: the distinct x-values in first-seen
        order, the fibers' order.  It sets ``_x_powers`` last, so a racing
        first call builds them twice and never reads half of them."""
        self._check_vector(message, self.k, "message")
        field, a, b = self.field, self.curve.a, self.curve.b
        zero, empty = field.zero_log, field.vector(())
        if not self._x_powers:
            index: dict[FieldElement, int] = {}  # x-value -> its x index
            self._x_index = [index.setdefault(px, len(index))
                             for px, _ in self.points]
            self._y_logs = field.logs(py for _, py in self.points)
            self._x_powers = list(map(field.vector, accumulate(
                [[0] * len(index)] + [field.logs(index)] * (self.u // a),
                field.multiply)))
        width = len(self._x_powers[0])  # x^0: w ones
        mu = [zero] * (self.u + 1)  # kernel values by pole order
        for s, w in zip(self.message_orders, field.logs(message)):
            mu[s] = w
        acc = None
        for j in reversed(range(min(a, self.u // b + 1))):
            row = mu[b * j::a]  # M_j, constant first: interpolate's P_j slots
            at_x = field.values(field.combine(empty, [
                (c, x_i, 0) for c, x_i in zip(row, self._x_powers)
                if c != zero]))
            at_x += [zero] * (width - len(at_x))
            at_x = [at_x[f] for f in self._x_index]  # M_j at the points
            acc = at_x if acc is None else field.axpy(
                at_x, 0, field.multiply(acc, self._y_logs))
        return tuple(field.from_logs(acc))

    def lagrange(self, v: Sequence[FieldElement]) -> RingElement:
        """The unique function supported on the footprint with ev(h) = v."""
        self._check_vector(v, self.n, "vector")
        return RingElement(self.curve, self.field.vector(
            self._interpolate(self.field.logs(v))))

    def _check_vector(self, v: Sequence[FieldElement], length: int,
                      what: str) -> None:
        if len(v) != length:
            raise ValueError(f"{what} length {len(v)}, expected {length}")
        field = self.field
        for e in v:  # identity first: the common case takes no __eq__ call
            if not isinstance(e, FieldElement) or (
                    e.field is not field and e.field != field):
                raise ValueError(f"{what} entry from a different field")

    # -- distance bounds ----------------------------------------------------------

    def order_bound(self, s: int) -> int:
        """nu(s), the footprint monomials that phi(s) divides, as the vote
        counts a tally (``Semigroup.covered``); voting at order s is
        reliable while nu(s) > 2 * (error weight)."""
        sg = self.curve.semigroup
        if not _is_int(s):
            raise ValueError(f"order s must be an integer, got {s!r}")
        if not sg.is_nongap(s):
            raise ValueError(f"{s} is a gap")
        return sg.covered(self._staircase, [s])

    def decoding_distance(self) -> int:
        """d_u = min of nu(s) over nongaps s <= u (>= n - u), read at the last
        order <= u of each row x^i y^j, as nu never rises with i: a orders."""
        if self._distance is None:
            a, b, u = self.curve.a, self.curve.b, self.u
            self._distance = min(self.order_bound(u - (u - b * j) % a)
                                 for j in range(min(a, u // b + 1)))
        return self._distance

    def __repr__(self) -> str:
        return f"Code(n={self.n}, k={self.k}, u={self.u} over {self.field!r})"


def hermitian_decoding_distance(q: int, u: int) -> int:
    """Closed form of the decoding distance for Hermitian codes.

    For nongap u = aa*q + bb < q^3 with 0 <= bb < q the distance is
    q^3 - aa*q when bb <= aa + q - q^2, and q^3 - u otherwise; a q that
    ``Curve.hermitian`` refuses is refused with its message.
    """
    _hermitian_prime(q)
    sg = Semigroup(q, q + 1)
    if not _is_int(u) or u >= q ** 3 or not sg.is_nongap(u):
        raise ValueError(f"u must be a nongap below q^3 = {q ** 3}, got {u!r}")
    aa, bb = divmod(u, q)
    if bb <= aa + q - q * q:
        return q ** 3 - aa * q
    return q ** 3 - u


def radius_rows(curve: Curve,
                points: Optional[Sequence[Point]] = None) -> list[tuple[int, int]]:
    """Rows (u, d_u) for every nongap u below n: the prefix minima of nu
    (``Semigroup.covered``) over every nongap.  Gap u have no vote and are
    omitted."""
    points = checked_points(curve, points)
    sg = curve.semigroup
    stair = sg.staircase(_ideal_generators(curve, points, _fibers(points))[1])
    orders = sg.nongaps(len(points) - 1)
    return list(zip(orders, accumulate((sg.covered(stair, [u])
                                        for u in orders), min)))


# ---------------------------------------------------------------------------
# Vector and message files: one line of comma-separated element tokens.
# ---------------------------------------------------------------------------

class VectorParseError(ValueError):
    def __init__(self, line: int, column: int, reason: str) -> None:
        super().__init__(f"line {line}, column {column}: {reason}")
        self.line = line
        self.column = column
        self.reason = reason


def parse_vector(field: Field, text: str,
                 expect_length: Optional[int] = None) -> Vector:
    content = None
    line_no = 0
    for ln, raw in enumerate(text.split("\n"), start=1):
        if raw.strip():
            if content is not None:
                raise VectorParseError(ln, 1, "expected a single data line")
            content = raw
            line_no = ln
    if content is None:
        raise VectorParseError(1, 1, "empty input")
    out = []
    col = 1
    for chunk in content.split(","):
        token = chunk.strip()
        tok_col = col + (len(chunk) - len(chunk.lstrip()))
        if not token:
            raise VectorParseError(line_no, tok_col, "empty element token")
        try:
            out.append(field.parse(token))
        except ValueError as exc:
            raise VectorParseError(line_no, tok_col, str(exc)) from None
        col += len(chunk) + 1
    if expect_length is not None and len(out) != expect_length:
        raise VectorParseError(
            line_no, 1,
            f"expected {expect_length} elements, found {len(out)}")
    return tuple(out)


def format_vector(elements: Iterable[FieldElement]) -> str:
    return ",".join(str(e) for e in elements)


# ---------------------------------------------------------------------------
# Code configuration files (JSON).
# ---------------------------------------------------------------------------

def _integer(value) -> int:
    """value itself when it is a JSON integer; no float or string converts."""
    if not _is_int(value):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _required(cfg: Mapping, key: str, prefix: str = "", convert=_integer):
    """convert(cfg[key]), raising a ValueError that names the key when it
    is missing or its value does not convert."""
    if key not in cfg:
        raise ValueError(f'code config requires "{prefix}{key}"')
    try:
        return convert(cfg[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{prefix}{key}: {exc}") from None


def _list_at(cfg: Mapping, key: str, expected: str) -> list:
    """cfg[key] (an empty list when absent), which must be a JSON list."""
    value = cfg.get(key, [])
    if not isinstance(value, list):
        raise ValueError(f"{key}: expected a list of {expected}, got {value!r}")
    return value


def _parse_at(field: Field, token, path: str) -> FieldElement:
    try:
        return field.parse(token)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# the keys a code config of each type accepts, and those of an mk field
_HERMITIAN_KEYS = ("type", "q", "u", "points")
_MK_KEYS = ("type", "field", "a", "b", "d", "coeffs", "u", "points")
_FIELD_KEYS = ("p", "m", "modulus")


def _known_keys(cfg: Mapping, keys: Sequence[str], prefix: str = "") -> None:
    """Raise a ValueError naming the first key of cfg outside keys."""
    for key in cfg:
        if key not in keys:
            raise ValueError(f'unknown code config key "{prefix}{key}"')


def curve_from_config(cfg: Mapping) -> tuple[Curve, Optional[list[Point]]]:
    """Build (curve, explicit point list or None) from a config mapping;
    a key the config's type does not accept is an error."""
    if not isinstance(cfg, Mapping):
        raise ValueError("code config must be a JSON object")
    kind = cfg.get("type")
    if kind == "hermitian":
        _known_keys(cfg, _HERMITIAN_KEYS)
        curve = Curve.hermitian(_required(cfg, "q"))
    elif kind == "mk":
        _known_keys(cfg, _MK_KEYS)
        fld = cfg.get("field")
        if not isinstance(fld, Mapping):
            raise ValueError('mk config requires a "field" object with p, m')
        _known_keys(fld, _FIELD_KEYS, "field.")
        m = _required(fld, "m", "field.") if "m" in fld else 1
        modulus = fld.get("modulus")
        if modulus is not None and not (
                isinstance(modulus, list) and all(map(_is_int, modulus))):
            raise ValueError(
                f"field.modulus: expected a list of integers, got {modulus!r}")
        field = Field(_required(fld, "p", "field."), m, modulus)
        coeffs = {}
        for idx, entry in enumerate(_list_at(cfg, "coeffs", "[i, j, token]")):
            if not (isinstance(entry, list) and len(entry) == 3
                    and _is_int(entry[0]) and _is_int(entry[1])):
                raise ValueError(f"coeffs[{idx}]: expected [i, j, token] "
                                 f"with integer i, j, got {entry!r}")
            term = (entry[0], entry[1])
            if term in coeffs:
                raise ValueError(f"coeffs[{idx}]: duplicate term {term}")
            coeffs[term] = _parse_at(field, entry[2], f"coeffs[{idx}]")
        curve = Curve(field, _required(cfg, "a"), _required(cfg, "b"),
                      _required(cfg, "d", convert=field.parse), coeffs)
    else:
        raise ValueError(f'unknown code type {kind!r}')
    points = None
    if "points" in cfg:
        entries = _list_at(cfg, "points", "[x, y] pairs")
        if not entries:
            raise ValueError("points: expected at least one [x, y] pair, "
                             "got []")
        points = []
        for idx, entry in enumerate(entries):
            if not (isinstance(entry, list) and len(entry) == 2):
                raise ValueError(
                    f"points[{idx}]: expected [x, y], got {entry!r}")
            points.append((_parse_at(curve.field, entry[0], f"points[{idx}]"),
                           _parse_at(curve.field, entry[1], f"points[{idx}]")))
    return curve, points


def _checked_u(u, n: int) -> int:
    """u itself when it is an integer with 0 < u < n, as a code on n points
    needs."""
    if not (_is_int(u) and 0 < u < n):
        raise ValueError(
            f"u must be an integer with 0 < u < n = {n}, got {u!r}")
    return u


def code_from_config(cfg: Mapping) -> Code:
    curve, points = curve_from_config(cfg)
    return Code(curve, _required(cfg, "u"), points)
