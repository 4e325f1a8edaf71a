"""Plane curves of Miura-Kamiya type and their coordinate rings.

A curve here is defined by

    y^a + sum(c_ij * x^i * y^j : a*i + b*j < a*b) + d * x^b = 0

with gcd(a, b) = 1 and d != 0.  Its coordinate ring R has the monomials
x^i y^j with j < a as a basis; the pole order at the unique place at
infinity is delta(x^i y^j) = a*i + b*j, and the pole orders achieved by R
form the numerical semigroup generated by a and b.  Everything downstream
(codes, the decoder) runs on three primitives implemented here:

* reduction of arbitrary bivariate polynomials to the canonical basis,
  through a per-curve table of the reduced powers y^j, j >= a,
* the pole-order function ``delta`` (with a BOTTOM sentinel for zero),
* divisibility, quotients and lcms of monomials, computed on the (i, j)
  exponent lattice, and footprints as staircases: one row barrier per
  y-degree j < a, so footprint sizes and differences are sums over a rows.

Monomials print as "x^i*y^j" with unit factors omitted ("1", "x", "y^2",
"x^3*y", ...); this grammar is used verbatim by the CLI trace format.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

from .gf import ORDER_CAP, Field, FieldElement, _prime_factors


class _Bottom:
    """Order of the zero ring element: compares below every integer."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return other is not self

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is self

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __repr__(self):
        return "BOTTOM"


BOTTOM = _Bottom()

Delta = Union[int, _Bottom]


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
    a*i + b*j = s and 0 <= j < a; the exponents come from j = b' * s mod a
    where b' inverts b mod a.
    """

    def __init__(self, a: int, b: int) -> None:
        if a < 1 or b < 1:
            raise ValueError(f"weights must be positive, got ({a}, {b})")
        if math.gcd(a, b) != 1:
            raise ValueError(f"weights ({a}, {b}) are not coprime")
        self.a = a
        self.b = b
        self.b_inv = pow(b, -1, a) if a > 1 else 0
        #: Frobenius number: the largest gap (-1 when there are no gaps).
        self.frobenius = a * b - a - b

    def is_nongap(self, s: int) -> bool:
        if s < 0:
            return False
        return self.b * ((self.b_inv * s) % self.a) <= s

    def phi(self, s: int) -> Monomial:
        """The unique monomial of pole order s (s must be a nongap)."""
        if not self.is_nongap(s):
            raise ValueError(f"{s} is a gap of <{self.a},{self.b}>")
        j = (self.b_inv * s) % self.a
        return Monomial((s - self.b * j) // self.a, j)

    def degree(self, m: Monomial) -> int:
        return self.a * m[0] + self.b * m[1]

    def gaps(self) -> tuple[int, ...]:
        return tuple(s for s in range(self.frobenius + 1)
                     if not self.is_nongap(s))

    def gaps_below(self, s: int) -> tuple[int, ...]:
        return tuple(g for g in self.gaps() if g < s)

    def nongaps(self, limit: int) -> tuple[int, ...]:
        """All nongaps s with 0 <= s <= limit."""
        return tuple(s for s in range(limit + 1) if self.is_nongap(s))

    # -- divisibility on the exponent lattice --------------------------------

    def monomial_divides(self, r: Monomial, t: Monomial) -> bool:
        if t[1] >= r[1]:
            return t[0] >= r[0]
        return t[0] >= r[0] + self.b

    def monomial_quotient(self, r: Monomial, t: Monomial) -> Monomial:
        """The monomial q with leading monomial of q*r equal to t."""
        if not self.monomial_divides(r, t):
            raise ValueError(f"{r} does not divide {t}")
        if t[1] >= r[1]:
            return Monomial(t[0] - r[0], t[1] - r[1])
        return Monomial(t[0] - r[0] - self.b, t[1] - r[1] + self.a)

    def monomial_lcms(self, r: Monomial, t: Monomial) -> tuple[Monomial, ...]:
        """The least common multiples of two monomials.

        One monomial when r and t divide one another; otherwise the unique
        pair (l1, l2) such that every common multiple of r and t is a
        multiple of l1 or l2.  Sorted by pole order.
        """
        if self.monomial_divides(r, t):
            return (t,)
        if self.monomial_divides(t, r):
            return (r,)
        if r[0] > t[0]:
            r, t = t, r
        # neither divides the other, so now r.i < t.i and r.j > t.j
        l1 = Monomial(t[0], r[1])
        l2 = Monomial(r[0] + self.b, t[1])
        return tuple(sorted((l1, l2), key=self.degree))

    def staircase(self, lead_monomials: Iterable[Monomial]) -> tuple[int, ...]:
        """Row barriers of the footprint of the given leading monomials: entry
        j is the first column of row j that holds a multiple, so the footprint
        is the columns left of the barriers and its size is their sum."""
        lms = list(lead_monomials)
        if not lms:
            raise ValueError("footprint of the empty set is infinite")
        return tuple(min(r.i if j >= r.j else r.i + self.b for r in lms)
                     for j in range(self.a))

    def footprint(self, lead_monomials: Iterable[Monomial]) -> frozenset[Monomial]:
        """All monomials divisible by none of the given leading monomials."""
        return frozenset(Monomial(i, j) for j, barrier
                         in enumerate(self.staircase(lead_monomials))
                         for i in range(barrier))

    def non_multiples(self, s: int) -> frozenset[Monomial]:
        """The monomials not divisible by phi(s); a set of size s."""
        return self.footprint([self.phi(s)])

    @staticmethod
    def staircase_difference(outer: Sequence[int], inner: Sequence[int]) -> int:
        """|footprint(outer) minus footprint(inner)| for two staircases."""
        return sum(max(0, o - i) for o, i in zip(outer, inner))

    def __repr__(self) -> str:
        return f"Semigroup({self.a}, {self.b})"


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
        for (i, j), c in coeffs.items():
            if c.field != field:
                raise ValueError("curve coefficient from a different field")
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
        # rewrite rule y^a = -(d x^b + sum c_ij x^i y^j)
        rewrite = {m: -c for m, c in clean.items()}
        rewrite[Monomial(b, 0)] = -d
        self._y_a_rewrite = rewrite
        # j -> reduced form of y^j, for j >= a, filled on first use
        self._y_powers: dict[int, dict[Monomial, FieldElement]] = {}

    @classmethod
    def hermitian(cls, q: int) -> "Curve":
        """The curve y^q + y - x^(q+1) = 0 over GF(q^2), for prime-power q."""
        if q * q > ORDER_CAP:  # before factoring q by trial division
            raise ValueError(f"field order {q}^2 exceeds cap {ORDER_CAP}")
        factors = _prime_factors(q)
        if len(factors) != 1:
            raise ValueError(f"{q} is not a prime power")
        p = factors[0]
        e = 0
        qq = q
        while qq > 1:
            qq //= p
            e += 1
        field = Field(p, 2 * e)
        return cls(field, q, q + 1, -field.one, {(0, 1): field.one})

    # -- ring element construction -------------------------------------------

    def zero(self) -> "RingElement":
        return RingElement(self, {})

    def one(self) -> "RingElement":
        return self.monomial(0, 0)

    def monomial(self, i: int, j: int,
                 coeff: FieldElement | None = None) -> "RingElement":
        if coeff is None:
            coeff = self.field.one
        if coeff.is_zero:
            return RingElement(self, {})
        if j >= self.a:
            return self.reduce({(i, j): coeff})
        return RingElement(self, {Monomial(i, j): coeff})

    def lead_factor(self, r: Monomial, t: Monomial) -> FieldElement:
        """Leading coefficient of the product of the monomials r and t: one,
        or -d when the y-degrees wrap past a, since y^a = -d*x^b + lower."""
        return -self.d if r.j + t.j >= self.a else self.field.one

    def element(self, terms: Mapping[tuple[int, int], FieldElement]) -> "RingElement":
        """Build a ring element from a raw exponent map (any y-degrees)."""
        return self.reduce(terms)

    def reduce(self, raw: Mapping[tuple[int, int], FieldElement]) -> "RingElement":
        """Canonical form: every y-degree below a.

        A term c * x^i * y^j with j >= a becomes c * x^i times the reduced
        form of y^j.  Idempotent, and the result agrees with the input as a
        function on the curve.
        """
        a = self.a
        out: dict[Monomial, FieldElement] = {}
        for (i, j), c in raw.items():
            if c.is_zero:
                continue
            if j < a:
                m = Monomial(i, j)
                prev = out.get(m)
                out[m] = c if prev is None else prev + c
                continue
            for (ri, rj), rc in self._y_power(j).items():
                m = Monomial(i + ri, rj)
                prev = out.get(m)
                out[m] = c * rc if prev is None else prev + c * rc
        return RingElement(self, {m: c for m, c in out.items()
                                  if not c.is_zero})

    def _y_power(self, j: int) -> dict[Monomial, FieldElement]:
        """The reduced form of y^j, j >= a, from the per-curve table.

        Row k is the reduction of y^(k-a) times the y^a rewrite, whose
        y-degrees are all below k, so filling rows in increasing k needs
        only rows already present.  Rows are deterministic, so threads that
        fill the same row concurrently store equal values.
        """
        table = self._y_powers
        if j not in table:
            for k in range(self.a, j + 1):
                if k not in table:
                    table[k] = self.reduce(
                        {(ri, rj + k - self.a): rc
                         for (ri, rj), rc in self._y_a_rewrite.items()})._terms
        return table[j]

    # -- geometry -------------------------------------------------------------

    def equation_terms(self) -> dict[Monomial, FieldElement]:
        """The defining polynomial as a raw exponent map."""
        terms = {Monomial(0, self.a): self.field.one,
                 Monomial(self.b, 0): self.d}
        terms.update(self.coeffs)
        return terms

    def contains(self, x: FieldElement, y: FieldElement) -> bool:
        return _evaluate_raw(self.equation_terms(), x, y).is_zero

    def is_smooth_at(self, x: FieldElement, y: FieldElement) -> bool:
        """False when both formal partial derivatives vanish at (x, y)."""
        dx = _partial(self.equation_terms(), self.field, axis=0)
        dy = _partial(self.equation_terms(), self.field, axis=1)
        return not (_evaluate_raw(dx, x, y).is_zero
                    and _evaluate_raw(dy, x, y).is_zero)

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


def _evaluate_raw(terms: Mapping[Monomial, FieldElement],
                  x: FieldElement, y: FieldElement) -> FieldElement:
    total = x.field.zero
    for (i, j), c in terms.items():
        total = total + c * x ** i * y ** j
    return total


def _partial(terms: Mapping[Monomial, FieldElement], field: Field,
             axis: int) -> dict[Monomial, FieldElement]:
    out: dict[Monomial, FieldElement] = {}
    for (i, j), c in terms.items():
        e = (i, j)[axis]
        if e == 0:
            continue
        scaled = field.element(e) * c
        if scaled.is_zero:
            continue
        key = Monomial(i - 1, j) if axis == 0 else Monomial(i, j - 1)
        out[key] = out.get(key, field.zero) + scaled
    return {m: c for m, c in out.items() if not c.is_zero}


class RingElement:
    """An element of the coordinate ring, as a sparse reduced monomial map.

    Instances are immutable values; arithmetic returns new elements.  The
    pole order of the zero element is the BOTTOM sentinel, which compares
    below every integer.
    """

    __slots__ = ("curve", "_terms", "_delta", "_lead")

    def __init__(self, curve: Curve, terms: dict[Monomial, FieldElement]) -> None:
        self.curve = curve
        self._terms = terms
        self._delta: Delta | None = None
        self._lead: Monomial | None = None

    # -- inspection -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self) -> Iterator[tuple[Monomial, FieldElement]]:
        return iter(self._terms.items())

    def support(self) -> frozenset[Monomial]:
        return frozenset(self._terms)

    def coefficient(self, m: tuple[int, int]) -> FieldElement:
        return self._terms.get(Monomial(*m), self.curve.field.zero)

    def delta(self) -> Delta:
        """Pole order at infinity: max of a*i + b*j, BOTTOM for zero."""
        if self._delta is None:
            if not self._terms:
                self._delta = BOTTOM
            else:
                a, b = self.curve.a, self.curve.b
                self._delta = max(a * i + b * j for i, j in self._terms)
        return self._delta

    def leading_monomial(self) -> Monomial:
        """The term of largest pole order: phi(delta), since the reduced
        monomials x^i y^j (j < a) have pairwise distinct pole orders."""
        if not self._terms:
            raise ValueError("the zero element has no leading monomial")
        if self._lead is None:
            self._lead = self.curve.semigroup.phi(self.delta())
        return self._lead

    def leading_coefficient(self) -> FieldElement:
        return self._terms[self.leading_monomial()]

    def leading_term(self) -> tuple[Monomial, FieldElement]:
        m = self.leading_monomial()
        return m, self._terms[m]

    # -- arithmetic -------------------------------------------------------------

    def _require_same_curve(self, other: "RingElement") -> None:
        if other.curve is not self.curve and other.curve != self.curve:
            raise ValueError("operands live on different curves")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._require_same_curve(other)
        merged = dict(self._terms)
        for m, c in other._terms.items():
            prev = merged.get(m)
            total = c if prev is None else prev + c
            if total.is_zero:
                merged.pop(m, None)
            else:
                merged[m] = total
        return RingElement(self.curve, merged)

    def __neg__(self) -> "RingElement":
        return RingElement(self.curve, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def __mul__(self, other: "RingElement | FieldElement") -> "RingElement":
        if isinstance(other, FieldElement):
            if other.is_zero:
                return RingElement(self.curve, {})
            return RingElement(self.curve,
                               {m: c * other for m, c in self._terms.items()})
        if not isinstance(other, RingElement):
            return NotImplemented
        self._require_same_curve(other)
        # the sum of single-term products over the shorter operand's terms
        if len(self._terms) < len(other._terms):
            self, other = other, self
        if not other._terms:
            return RingElement(self.curve, {})
        first, *rest = other._terms.items()
        product = self._times_term(*first)
        for t, tc in rest:
            product = product + self._times_term(t, tc)
        return product

    def _times_term(self, t: Monomial, tc: FieldElement) -> "RingElement":
        """Product with the single term tc * t: shift every exponent by t,
        scale every coefficient by tc, and reduce only when some y-degree
        reaches a."""
        ti, tj = t
        out = {Monomial(i + ti, j + tj): c * tc
               for (i, j), c in self._terms.items()}
        if tj and any(m[1] >= self.curve.a for m in out):
            return self.curve.reduce(out)
        return RingElement(self.curve, out)

    def __rmul__(self, other: FieldElement) -> "RingElement":
        if isinstance(other, FieldElement):
            return self * other
        return NotImplemented

    def evaluate(self, x: FieldElement, y: FieldElement) -> FieldElement:
        return _evaluate_raw(self._terms, x, y)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.curve == other.curve and self._terms == other._terms

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        sg = self.curve.semigroup
        parts = []
        for m in sorted(self._terms, key=sg.degree, reverse=True):
            c = self._terms[m]
            if m == (0, 0):
                parts.append(str(c))
            elif c == self.curve.field.one:
                parts.append(str(m))
            else:
                parts.append(f"{c}*{m}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return str(self)
