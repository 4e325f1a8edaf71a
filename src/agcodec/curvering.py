"""Plane curves of Miura-Kamiya type and their coordinate rings.

A curve here is defined by

    y^a + sum(c_ij * x^i * y^j : a*i + b*j < a*b) + d * x^b = 0

with gcd(a, b) = 1 and d != 0.  Its coordinate ring R has the monomials
x^i y^j with j < a as a basis; the pole order at the unique place at
infinity is delta(x^i y^j) = a*i + b*j, and the pole orders achieved by R
form the numerical semigroup generated by a and b.  These basis monomials
have pairwise distinct pole orders, so everything here names a monomial by
its order s, with phi(s) = x^i y^j the monomial itself.  Everything
downstream (codes, the decoder) runs on three primitives implemented here:

* ring elements as a nonzero scale times a vector of entries indexed by
  pole order (``Field.vector``: bytes of slot codes where a field's element
  code fits a byte, kernel values otherwise), the build's layout: zero at
  gaps and absent orders, the last entry nonzero (delta is its index), so
  negation and scalar products are O(1) and change only the scale, and
  entries are boxed into ``FieldElement``s only when read; and one kernel
  behind every sum, difference and product, ``RingElement._plus``: self +
  sum(c * phi(t) * e) in one ``Field.combine``, a product by x^i y^j
  moving e's multiple y^j * e up by a*i entries, trailing zeros trimmed.
  The entries are reached only through ``Field``'s vector operations
  (``vector``, ``values``, ``entry``, ``combine``, ``combine_row``) and
  their length.  The multiples y^j * e, 0 < j < a, are built once per
  element, on first need, and kept as long as it lives
  (``RingElement._times_y``), so the products by the etas of a ``Code``
  reuse theirs across decodes; each is y times the one below it
  (``RingElement._y_step``), and only there do y-degrees pass a: the row
  x^i y^(a-1) moves to x^i y^a and takes the curve's one correction row,
  the rewrite of y^a minus its unit term (``Curve._y_a_fix``), in one
  ``Field.combine_row``,
* the pole-order function ``delta`` (None for zero, which has no lead),
* divisibility on orders: phi(r) divides phi(t) exactly when t - r is a
  nongap, with quotient phi(t - r); lcms of two orders; the one
  lead-minimality rule, ``_prime_reduce``, which keeps the items whose
  lead no other item's divides (the decoder's pruning and the choice of
  the ideal's etas); and footprints as staircases, one row barrier per
  y-degree j < a, so a footprint's size and the part of it that some
  orders' multiples cover (``Semigroup.covered``) are sums over a rows.
  That count, like the decoder's step plans, is a pure function of pole
  orders, which repeat from word to word, so it is memoised in a bounded
  ``Memo`` keyed by the weights (a, b) and shared by every curve with
  them.

``Monomial`` is the inspection and printing form: monomials print as
"x^i*y^j" with unit factors omitted ("1", "x", "y^2", "x^3*y", ...), a
grammar used verbatim by the CLI trace format.  Raw polynomials with any
y-degrees (``Curve.reduce``) are maps from (i, j), summed in one
``_plus`` over their terms as ``monomial``s: x^i y^j with j >= a is
x^i y^(a-1) taken up by j - a + 1 y-steps.  An element is
evaluated by the rows of its kernel values, values[b*j::a] the
coefficients of x^i y^j, by Horner's rule in x, then in y; only the
equation and its partials are evaluated as raw terms, on kernel-value
lists (``_evaluate_logs``).
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .gf import ORDER_CAP, Field, FieldElement, _is_int, _prime_factors

#: Largest supported curve weight a or b, checked before any per-weight
#: table is built: the largest Hermitian weight the field cap admits
#: (b = q + 1 <= 257).  The ideal build starts from a generators whose
#: lists hold a(a-1)b/2 entries in total, so it also bounds that step.
WEIGHT_CAP = 257


#: Entries each memo of pole-order arithmetic holds at most (``Memo``).
MEMO_SIZE = 512


class Memo(dict):
    """A memo of a pure function of pole orders: keyed and filled with
    ints and tuples only, and emptied when it holds MEMO_SIZE entries.
    Lookups are plain ``get`` calls, None for a key not held; threads that
    race on a key both compute it, and either value is right."""

    def keep(self, key: Hashable, value):
        """Hold value under key and return it."""
        if len(self) >= MEMO_SIZE:
            self.clear()
        self[key] = value
        return value


#: The tallies of ``Semigroup.covered``, shared by every semigroup of the
#: same weights.
_TALLIES = Memo()


class Monomial(NamedTuple):
    i: int
    j: int

    def __str__(self) -> str:
        parts = []
        if self.i == 1:
            parts.append("x")
        elif self.i > 1:
            parts.append(f"x^{self.i}")
        if self.j == 1:
            parts.append("y")
        elif self.j > 1:
            parts.append(f"y^{self.j}")
        return "*".join(parts) if parts else "1"


class Semigroup:
    """The numerical semigroup <a, b> with gcd(a, b) = 1.

    A nongap s corresponds to the unique ring monomial phi(s) = x^i y^j with
    a*i + b*j = s and 0 <= j < a; the y-degree is j = b' * s mod a, where b'
    inverts b mod a, so it depends on s mod a only (``y_degrees``).

    Divisibility is on pole orders: phi(r) divides phi(t), in the sense that
    some monomial times phi(r) leads with phi(t), exactly when t - r is a
    nongap, and the quotient is then phi(t - r).
    """

    def __init__(self, a: int, b: int) -> None:
        if not (_is_int(a) and _is_int(b)):
            raise ValueError(f"weights must be integers, got ({a!r}, {b!r})")
        if a < 1 or b < 1:
            raise ValueError(f"weights must be positive, got ({a}, {b})")
        if max(a, b) > WEIGHT_CAP:
            raise ValueError(f"weights ({a}, {b}) exceed cap {WEIGHT_CAP}")
        if math.gcd(a, b) != 1:
            raise ValueError(f"weights ({a}, {b}) are not coprime")
        self.a = a
        self.b = b
        b_inv = pow(b, -1, a) if a > 1 else 0
        #: y_degrees[s % a] is the y-degree of phi(s)
        self.y_degrees = tuple(b_inv * r % a for r in range(a))

    def is_nongap(self, s: int) -> bool:
        if s < 0:
            return False
        return self.b * self.y_degrees[s % self.a] <= s

    def phi(self, s: int) -> Monomial:
        """The unique monomial of pole order s (s must be a nongap)."""
        if not self.is_nongap(s):
            raise ValueError(f"{s} is a gap of <{self.a},{self.b}>")
        j = self.y_degrees[s % self.a]
        return Monomial((s - self.b * j) // self.a, j)

    def degree(self, m: Monomial) -> int:
        return self.a * m[0] + self.b * m[1]

    def nongaps(self, limit: int) -> tuple[int, ...]:
        """All nongaps s with 0 <= s <= limit."""
        return tuple(s for s in range(limit + 1) if self.is_nongap(s))

    # -- divisibility on pole orders -----------------------------------------

    def lcms(self, r: int, t: int) -> tuple[int, ...]:
        """Pole orders of the least common multiples of phi(r) and phi(t).

        One order when one divides the other; otherwise the unique pair such
        that every common multiple is a multiple of one of them, ascending.
        With phi(r) the one of larger y-degree, they are x^(t's i) y^(r's j)
        and x^(r's i + b) y^(t's j).
        """
        if self.is_nongap(t - r):  # phi(r) divides phi(t)
            return (t,)
        if self.is_nongap(r - t):  # phi(t) divides phi(r)
            return (r,)
        a, b, ys = self.a, self.b, self.y_degrees
        rise = b * (ys[r % a] - ys[t % a])
        if rise < 0:
            r, t, rise = t, r, -rise
        low, high = t + rise, r + a * b - rise
        return (low, high) if low < high else (high, low)

    def divisor(self, t: int, orders: Sequence[int]) -> int | None:
        """The index of the first order r in orders with phi(r) dividing
        phi(t), None when none does."""
        for k, r in enumerate(orders):
            if self.is_nongap(t - r):
                return k
        return None

    def staircase(self, lead_orders: Iterable[int]) -> tuple[int, ...]:
        """Row barriers of the footprint of the monomials of the given pole
        orders: entry j is the first column of row j that holds a multiple,
        so the footprint is the columns left of the barriers and its size is
        their sum.

        A lead x^i y^j has multiples from column i in the rows at or above
        j, and from column i + b in the rows below (y^a = -d x^b + lower).
        So only the least column of each row counts, and barrier j is the
        least column in rows 0..j, or b past the least column above j if
        that is smaller: prefix and suffix minima, O(a + number of leads).
        """
        a, b, ys = self.a, self.b, self.y_degrees
        inf = math.inf
        least = [inf] * a  # per row, the least column of a lead
        for r in lead_orders:
            j = ys[r % a]
            i = (r - b * j) // a
            if i < least[j]:
                least[j] = i
        barriers = [0] * a
        wrap = inf  # b past the least column above row j
        for j in reversed(range(a)):
            barriers[j] = wrap
            if least[j] + b < wrap:
                wrap = least[j] + b
        if wrap == inf:
            raise ValueError("footprint of the empty set is infinite")
        low = inf  # the least column in rows 0..j
        for j in range(a):
            if least[j] < low:
                low = least[j]
            if low < barriers[j]:
                barriers[j] = low
        return tuple(barriers)

    def footprint(self, lead_monomials: Iterable[Monomial]) -> frozenset[Monomial]:
        """All monomials divisible by none of the given leading monomials."""
        stair = self.staircase(self.degree(m) for m in lead_monomials)
        return frozenset(Monomial(i, j) for j, barrier in enumerate(stair)
                         for i in range(barrier))

    def non_multiples(self, s: int) -> frozenset[Monomial]:
        """The monomials not divisible by phi(s); a set of size s."""
        return self.footprint([self.phi(s)])

    def covered(self, stair: tuple[int, ...], orders: Iterable[int]) -> int:
        """The monomials left of the barriers ``stair`` that some phi(t), t
        in orders, divides: the footprint of ``stair`` minus that of the
        orders, counted by rows.  The vote's tally of a candidate (stair the
        G leads', orders its targets) and the order bound nu(s) (stair the
        point ideal's, orders [s]) are this one count, memoised on the
        weights, the stair and the orders."""
        orders = tuple(orders)
        key = (self.a, self.b, stair, orders)
        total = _TALLIES.get(key)
        if total is None:
            total = 0
            for o, i in zip(stair, self.staircase(orders)):
                if o > i:
                    total += o - i
            _TALLIES.keep(key, total)
        return total

    def __repr__(self) -> str:
        return f"Semigroup({self.a}, {self.b})"


def _prime_reduce(items: list, orders: list[int], sg: Semigroup) -> list:
    """Drop the items whose (leading) monomial another item's divides, the
    monomials given by their pole orders.

    Equal monomials keep the earlier item; output order follows input order.
    The rule is by rows, as in ``Semigroup.staircase``: x^c y^k divides
    x^i y^j when c <= i in a row k <= j, or c + b <= i in a row k > j.  So
    an item survives exactly when it is the first item to hold the least
    column of its row, that column is below the least column of every lower
    row, and it is below b past the least column of every upper row: one
    pass over the items and one over the a rows (columns are kept times a,
    as an order minus b times its row).  A row that fails against the upper
    rows can be left out of the lower-row test: what it divides, the row
    that divides it divides too.
    """
    a, b, ys = sg.a, sg.b, sg.y_degrees
    inf = math.inf
    least = [inf] * a  # per row, a times the least column
    first = [0] * a  # and the first item that holds it
    n = 0
    for r in orders:
        j = ys[r % a]
        i = r - b * j
        if i < least[j]:
            least[j] = i
            first[j] = n
        n += 1
    ab = a * b
    rows = []  # rows below b past every upper row's least column, descending
    wrap = inf
    for j in range(a - 1, -1, -1):
        i = least[j]
        if i < wrap:
            rows.append(j)
            if i + ab < wrap:
                wrap = i + ab
    kept = []
    low = inf  # the least column of the rows below
    for j in reversed(rows):
        if least[j] < low:
            low = least[j]
            kept.append(first[j])
    kept.sort()
    return [items[n] for n in kept]


def _hermitian_prime(q: int) -> int:
    """The prime p of a prime power q with q^2 within the field-order cap."""
    if not _is_int(q):
        raise ValueError(f"q must be an integer, got {q!r}")
    if q * q > ORDER_CAP:  # before factoring q by trial division
        raise ValueError(f"field order {q}^2 exceeds cap {ORDER_CAP}")
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise ValueError(f"{q} is not a prime power")
    return factors[0]


class Curve:
    """A Miura-Kamiya plane curve over a finite field."""

    def __init__(self, field: Field, a: int, b: int, d: FieldElement,
                 coeffs: Mapping[tuple[int, int], FieldElement]) -> None:
        self.semigroup = Semigroup(a, b)
        if not isinstance(d, FieldElement) or d.field != field:
            raise ValueError("leading coefficient d must belong to the field")
        if d.is_zero:
            raise ValueError("leading coefficient d must be nonzero")
        clean: dict[Monomial, FieldElement] = {}
        for key, c in coeffs.items():
            if not (isinstance(key, tuple) and len(key) == 2
                    and all(map(_is_int, key))):
                raise ValueError(f"coeffs key {key!r}: not a pair of integers")
            i, j = key
            if not isinstance(c, FieldElement) or c.field != field:
                raise ValueError(f"coeffs entry {(i, j)}: not a field element")
            if c.is_zero:
                continue
            if i < 0 or j < 0 or a * i + b * j >= a * b:
                raise ValueError(
                    f"coefficient index ({i},{j}) outside a*i+b*j < a*b")
            clean[Monomial(i, j)] = c
        self.field = field
        self.a = a
        self.b = b
        self.d = d
        self.coeffs = clean
        # the rewrite rule y^a = -(d x^b + sum c_ij x^i y^j), its one stored
        # form: the correction that an entry x^i y^(a-1), moved up by b onto
        # x^(i+b), takes (``RingElement._y_step``), as (offset, kernel value)
        # pairs: each -c_ij below 0, by offset, and the unit term -d - 1 at 0
        self._y_a_fix = sorted((a * i + b * j - a * b, (-c).log)
                               for (i, j), c in clean.items())
        unit = -d - field.one
        if not unit.is_zero:
            self._y_a_fix.append((0, unit.log))
        # the formal partials in x and y of the defining polynomial as raw
        # terms, built once for point listing and checks (``smooth_mask``)
        terms, times = self.equation_terms().items(), field.element
        self._partials = (
            [((i - 1, j), times(i) * c) for (i, j), c in terms if i],
            [((i, j - 1), times(j) * c) for (i, j), c in terms if j])

    @classmethod
    def hermitian(cls, q: int) -> "Curve":
        """The curve y^q + y - x^(q+1) = 0 over GF(q^2), for prime-power q."""
        p = _hermitian_prime(q)
        e = 0
        qq = q
        while qq > 1:
            qq //= p
            e += 1
        field = Field(p, 2 * e)
        return cls(field, q, q + 1, -field.one, {(0, 1): field.one})

    # -- ring element construction -------------------------------------------

    def zero(self) -> "RingElement":
        return RingElement(self, self.field.vector([]))

    def one(self) -> "RingElement":
        return self.monomial(0, 0)

    def monomial(self, i: int, j: int,
                 coeff: FieldElement | None = None) -> "RingElement":
        if not (_is_int(i) and _is_int(j)):
            raise ValueError(f"exponents must be integers, got ({i!r}, {j!r})")
        if i < 0 or j < 0:
            raise ValueError(f"negative exponent in x^{i}*y^{j}")
        field = self.field
        if coeff is None:
            coeff = field.one
        elif not isinstance(coeff, FieldElement) or coeff.field != field:
            raise ValueError("monomial coefficient must belong to the field")
        if coeff.is_zero:
            return self.zero()
        low = min(j, self.a - 1)
        out = RingElement(self, field.vector(
            [field.zero_log] * (self.a * i + self.b * low) + [0]), coeff)
        for _ in range(j - low):  # each y-degree past a - 1 is one y-step
            out = out._y_step()
        return out

    def lead_factor(self, r: int, t: int) -> FieldElement:
        """Leading coefficient of phi(r) * phi(t): one, or -d when the
        y-degrees wrap past a, since y^a = -d*x^b + lower."""
        ys, a = self.semigroup.y_degrees, self.a
        return -self.d if ys[r % a] + ys[t % a] >= a else self.field.one

    def reduce(self, raw: Mapping[tuple[int, int], FieldElement]) -> "RingElement":
        """Canonical form of a raw exponent map: every y-degree below a.

        The sum of the terms as ``monomial``s, so a term c * x^i * y^j with
        j >= a is c * x^i * y^(a-1) taken up by j - a + 1 y-steps.
        Idempotent, and the result agrees with the input as a function on
        the curve.
        """
        one = self.field.one
        return self.zero()._plus(*((self.monomial(i, j, c), 0, one)
                                   for (i, j), c in raw.items()))

    # -- geometry -------------------------------------------------------------

    def equation_terms(self) -> dict[Monomial, FieldElement]:
        """The defining polynomial as a raw exponent map (a new dict): y^a,
        d x^b, then the terms of ``coeffs``."""
        return {Monomial(0, self.a): self.field.one,
                Monomial(self.b, 0): self.d, **self.coeffs}

    def smooth_mask(self, xs: Sequence[int], ys: Sequence[int]) -> list[bool]:
        """Whether a formal partial of the equation is nonzero at each point
        (xs[c], ys[c]), coordinates as kernel values (``Field.logs``)."""
        zero = self.field.zero_log
        dx, dy = (_evaluate_logs(self.field, terms, xs, ys)
                  for terms in self._partials)
        return [u != zero or v != zero for u, v in zip(dx, dy)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Curve):
            return NotImplemented
        return (self.field, self.a, self.b, self.d, self.coeffs) == \
            (other.field, other.a, other.b, other.d, other.coeffs)

    def __hash__(self) -> int:
        return hash((self.field, self.a, self.b, self.d,
                     frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        return f"Curve(a={self.a}, b={self.b} over {self.field!r})"


def _evaluate_logs(field: Field,
                   terms: Iterable[tuple[tuple[int, int], FieldElement]],
                   xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    """The sum of raw terms c * x^i * y^j at every point (xs[c], ys[c]) at
    once, on kernel values: each term is one ``Field.axpy`` of its
    coefficient times the coordinates' powers, by repeated squaring with
    ``Field.multiply`` (0^0 = 1, as for ``FieldElement``)."""
    ones = [0] * len(xs)

    def power(vs: Sequence[int], e: int) -> Sequence[int]:
        out = ones
        while e:
            if e & 1:
                out = field.multiply(out, vs)
            e >>= 1
            if e:
                vs = field.multiply(vs, vs)
        return out
    total = [field.zero_log] * len(xs)
    for (i, j), c in terms:
        if not c.is_zero:
            total = field.axpy(total, c.log,
                               field.multiply(power(xs, i), power(ys, j)))
    return total


class RingElement:
    """An element of the coordinate ring: a nonzero scalar ``_scale`` times a
    vector ``_terms`` (``Field.vector`` of kernel values: bytes of slot
    codes, or the kernel values themselves where a field's code does not
    fit a byte) indexed by pole order, entry s the coefficient of the
    reduced monomial phi(s) = x^i y^j (j < a), so its value is _scale *
    sum(_terms[s] * phi(s)).  ``Field``'s vector operations are the only
    readers and writers of the entries.

    Reduced monomials have pairwise distinct pole orders, so the index
    names the monomial: entries at gaps and at absent orders are zero, the
    last entry is nonzero, so delta is the last index, and a product by the
    power x^i moves every entry s to s + a*i; a product by y^j is the
    multiple that ``_times_y`` builds once and keeps in ``_by_y``, and
    ``_y_step``, which builds each, is the one place an entry wraps past a.
    Entries are boxed into ``FieldElement``s only at the API edge:
    ``coefficient_at``, ``leading_coefficient``, ``items``, printing and
    ``evaluate``, and every read of a coefficient applies the scale.
    ``Monomial`` appears only in the inspection API (``items``,
    ``coefficient``, ``leading_monomial``, ``leading_term``) and in
    printing.

    Instances are immutable values; arithmetic returns new elements, and
    ``-x`` and ``x * c`` for a scalar c are O(1): they share x's vector,
    not its multiples, and change only the scale.  The zero element is the
    empty vector at scale one and has no leading term, so no pole order:
    its ``delta`` is None.
    """

    __slots__ = ("curve", "_terms", "_scale", "_by_y")

    def __init__(self, curve: Curve, terms: bytes | list[int],
                 scale: FieldElement | None = None) -> None:
        self.curve = curve
        self._terms = terms
        self._scale = curve.field.one if scale is None else scale
        self._by_y: dict[int, RingElement] | None = None

    def _values(self) -> list[int]:
        """The kernel values by pole order, scale applied."""
        field, k = self.curve.field, self._scale
        values = field.values(self._terms)
        return values if k is field.one else field.scale(values, k.log)

    def _nonzero(self) -> Iterator[tuple[int, FieldElement]]:
        """(pole order, coefficient) of each nonzero entry, scale applied."""
        return ((s, c) for s, c
                in enumerate(self.curve.field.from_logs(self._values()))
                if not c.is_zero)

    # -- inspection -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self) -> Iterator[tuple[Monomial, FieldElement]]:
        phi = self.curve.semigroup.phi
        return ((phi(s), c) for s, c in self._nonzero())

    def coefficient(self, m: tuple[int, int]) -> FieldElement:
        """The coefficient of x^i y^j for m = (i, j), zero unless j < a."""
        i, j = m
        if not (_is_int(i) and _is_int(j)):
            raise ValueError(f"exponents must be integers, got ({i!r}, {j!r})")
        if i < 0 or not 0 <= j < self.curve.a:
            return self.curve.field.zero
        return self.coefficient_at(self.curve.a * i + self.curve.b * j)

    def coefficient_at(self, s: int) -> FieldElement:
        """The coefficient of phi(s), zero at a gap or an absent order."""
        if not _is_int(s):
            raise ValueError(f"pole order must be an integer, got {s!r}")
        field = self.curve.field
        if 0 <= s < len(self._terms):
            v = field.entry(self._terms, s)
            if v != field.zero_log:
                return field.from_log(v) * self._scale
        return field.zero

    def delta(self) -> int | None:
        """Pole order at infinity: the last index, None for zero."""
        return len(self._terms) - 1 if self._terms else None

    def leading_monomial(self) -> Monomial:
        """phi(delta), the term of largest pole order."""
        if not self._terms:
            raise ValueError("the zero element has no leading monomial")
        return self.curve.semigroup.phi(len(self._terms) - 1)

    def leading_coefficient(self) -> FieldElement:
        if not self._terms:
            raise ValueError("the zero element has no leading coefficient")
        field, terms = self.curve.field, self._terms
        return field.from_log(field.entry(terms, len(terms) - 1)) * self._scale

    def leading_term(self) -> tuple[Monomial, FieldElement]:
        return self.leading_monomial(), self.leading_coefficient()

    # -- arithmetic -------------------------------------------------------------

    def _require_same_curve(self, other: "RingElement") -> None:
        if other.curve is not self.curve and other.curve != self.curve:
            raise ValueError("operands live on different curves")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._require_same_curve(other)
        return self._plus((other, 0, self.curve.field.one))

    def __neg__(self) -> "RingElement":
        if not self._terms:
            return self
        return RingElement(self.curve, self._terms, -self._scale)

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._require_same_curve(other)
        return self._plus((other, 0, -self.curve.field.one))

    def __mul__(self, other: "RingElement | FieldElement") -> "RingElement":
        if isinstance(other, FieldElement):
            scale = self._scale * other  # a scalar of another field raises
            if other.is_zero or not self._terms:
                return self.curve.zero()
            return RingElement(self.curve, self._terms, scale)
        if not isinstance(other, RingElement):
            return NotImplemented
        self._require_same_curve(other)
        # one pass over the shorter operand's terms, its scale applied
        if len(self._terms) < len(other._terms):
            self, other = other, self
        return self.curve.zero()._plus(*((self, t, c)
                                         for t, c in other._nonzero()))

    def _plus(self, *products: tuple["RingElement", int, FieldElement]
              ) -> "RingElement":
        """self + sum(tc * phi(t) * e for e, t, tc in products), for nonzero
        tc and e on self's curve, in one ``Field.combine``; a product whose e
        is zero adds nothing and is skipped.

        The result takes self's scale, or the first product's tc * e's scale
        when self is zero.  A product's multiplier is m / (that scale) for
        the boxed scalar m = tc * (e's scale), divided on logs: kernel value
        m.log minus the scale's log, mod n, 0 where m is the scale itself.
        A term phi(t) = x^i y^jt is x^i times y^jt, so the product moves
        e's cached multiple y^jt * e (``_times_y``) up by a*i entries, as a
        product by a power of x moves entry s to s + a*i with no y-degree
        past a.
        """
        curve = self.curve
        field, a, ys = curve.field, curve.a, curve.semigroup.y_degrees
        n = field.order - 1
        scale = self._scale if self._terms else None
        moved = []
        for e, t, tc in products:
            if not e._terms:
                continue
            m = tc * e._scale
            if scale is None:
                scale = m
            jt = ys[t % a]
            if jt:
                e, t = e._times_y(jt), t - curve.b * jt
            moved.append(((m.log - scale.log) % n, e._terms, t))
        out = field.combine(self._terms, moved)
        return RingElement(curve, out, scale if out else None)

    def _times_y(self, j: int) -> "RingElement":
        """y^j * self for 0 < j < a, at self's scale: zero for zero, else
        built on first need from y^(j-1) * self by ``_y_step`` and kept in
        ``_by_y`` as long as self.  Keyed by j, the cache holds no self, so
        makes no cycle, and threads that race for a multiple may build it
        twice, never wrong."""
        if not self._terms:
            return self
        by_y = self._by_y
        if by_y is None:
            by_y = self._by_y = {}
        out = by_y.get(j)
        if out is None:
            out = by_y[j] = (self._times_y(j - 1) if j > 1
                             else self)._y_step()
        return out

    def _y_step(self) -> "RingElement":
        """y * self, at self's scale, in one ``Field.combine_row``: every
        entry moves up by b, and the row of y-degree a - 1, now x^i y^a, at
        its stride a from its first nongap b(a - 1), so none lands below 0,
        takes the curve's correction row (``Curve._y_a_fix``), one product
        per term.  The unit term turns a lead x^i y^a into -d x^(i+b), so it
        stays nonzero."""
        curve = self.curve
        a, b = curve.a, curve.b
        out = curve.field.combine_row(self._terms, b, b * (a - 1), a, [
            (k, a * b + off) for off, k in curve._y_a_fix])
        return RingElement(curve, out, self._scale)

    def __rmul__(self, other: FieldElement) -> "RingElement":
        if isinstance(other, FieldElement):
            return self * other
        return NotImplemented

    def evaluate(self, x: FieldElement, y: FieldElement) -> FieldElement:
        """The value at (x, y): Horner's rule in x on each row j of the
        kernel values, values[b*j::a], then in y on the rows, times the
        scale."""
        a, b, field = self.curve.a, self.curve.b, self.curve.field
        if not all(isinstance(e, FieldElement) and e.field == field
                   for e in (x, y)):
            raise ValueError("point coordinates from a different field")
        values = field.values(self._terms)
        total = field.zero
        for j in reversed(range(a)):
            at_x = field.zero
            for c in reversed(field.from_logs(values[b * j::a])):
                at_x = at_x * x + c
            total = total * y + at_x
        return total * self._scale

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        if self.curve != other.curve:
            return False
        if self._scale == other._scale:
            return self._terms == other._terms
        return self._values() == other._values()

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        phi = self.curve.semigroup.phi
        parts = []
        for s, c in reversed(list(self._nonzero())):
            if s == 0:
                parts.append(str(c))
            elif c == self.curve.field.one:
                parts.append(str(phi(s)))
            else:
                parts.append(f"{c}*{phi(s)}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return str(self)


def _reduced(up: RingElement, down: RingElement, e_up: RingElement,
             e_down: RingElement, t: int, c: FieldElement,
             cf: FieldElement) -> tuple[RingElement, RingElement]:
    """Both sides of a reduction of the pair (up, down) by (e_up, e_down),
    (up + c * phi(t) * e_up) * cf and (down + c * phi(t) * e_down) * cf
    for nonzero c and cf, in one call: the sides share the y-multiple
    lookup, the move and ``_plus``'s multiplier rule, each is one
    ``Field.combine``, and cf goes into each result's scale.  Each side
    keeps its own scale, a zero side's too, as the multiplier is taken
    relative to it.  A side whose e is zero takes only the scale, and a
    side that cancels is zero."""
    curve = up.curve
    field, a = curve.field, curve.a
    n = field.order - 1
    jt = curve.semigroup.y_degrees[t % a]
    if jt:
        t -= curve.b * jt
    sides = []
    for x, e in ((up, e_up), (down, e_down)):
        terms, scale = x._terms, x._scale
        if e._terms:
            m = c * e._scale
            if jt:
                e = e._times_y(jt)
            terms = field.combine(terms, [((m.log - scale.log) % n, e._terms,
                                           t)])
        sides.append(RingElement(curve, terms, scale * cf) if terms
                     else RingElement(curve, terms))
    return sides[0], sides[1]
