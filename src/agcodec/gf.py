"""Exact arithmetic in small finite fields GF(p^m).

An element is its kernel value: a nonzero element is its discrete log k in
[0, n), n = p^m - 1, with respect to a fixed generator ``a`` of the
multiplicative group, and zero is one sentinel outside that range,
``Field.zero_log`` = 3n.  Every ``Field`` builds its p^m elements once, with
two int tables ZT and NORM, and all arithmetic returns those shared objects.
Sum, product and negation are each one lookup in ZT and NORM, with no
branch and no per-order special case, so one rule covers every order up to
``ORDER_CAP``; ZT folds in the Zech logarithm Z of 1 + a^k = a^Z(k), so that
a^i + a^j = a^(i + Z(j - i)).  Negation adds ``Field.neg_log``, the kernel
value of -1: 0 in characteristic 2, n/2 otherwise.

The code's linear algebra (the build of the ideal of the points and its
Lagrange functions, interpolation, encoding) runs on lists of kernel
values: ``Field.logs`` and ``Field.from_logs`` convert (``Field.from_log``
one value), and ``Field.axpy`` (acc + c * vec), ``Field.scale`` (c * vec)
and ``Field.multiply`` (u * v entrywise) are the same lookups as the
element operators, one list comprehension each.

The coordinate ring's entries (a ``curvering.RingElement``'s, by pole
order) are vectors: ``Field.vector`` builds one from kernel values,
``Field.values`` and ``Field.entry`` read them back, one ``Field.combine``
sums acc and products a^k * vec moved up the vector, and
``Field.combine_row`` adds to a moved vector multiples of one strided row
of it.  The form is chosen at construction from p and m.  Where an
element's code fits a byte, a vector is a ``bytes`` string, one slot code
per entry:

* in characteristic 2 with m <= 8 the code is the packed bit vector, and a
  sum is the XOR of the ``int.from_bytes`` of the vectors;
* for odd p whose sum of two digits fits 8 // m bits (GF(p) for p <= 127,
  GF(9), GF(25) and GF(49)) the code holds the m base-p digits in fields of
  8 // m bits, and a sum is an int addition and one ``translate`` that
  reduces every digit mod p.

A product by a^k is one ``bytes.translate`` by a table built once per
Field, a move up by t entries an int shift by 8t, and the trailing zeros of
a sum go in ``to_bytes``.  Every other field (GF(27), GF(81), GF(121),
GF(169), GF(p) for p >= 131 and GF(2^m) for m >= 9 among them) keeps lists
of kernel values: ``combine`` is ``axpy`` passes, or for a short product
one entry of ``axpy`` per nonzero entry, and ``combine_row`` one strided
``axpy`` per row.

Textual form of an element, used by all vector files and traces:

    "0"            the zero element
    "1", "2", ...  elements of the prime subfield (ASCII digits, below p)
    "a^k"          the k-th power of the generator (k >= 1); "a" == "a^1"

Default moduli: the table ``_DEFAULT_MODULI`` below fixes the reduction
polynomial for common (p, m) pairs; in particular GF(9) is built with
x^2 - x - 1, i.e. a^2 = a + 1.  For any other (p, m) the default is the
first monic polynomial of degree m (coefficient vectors, constant term
first, ordered as base-p integers) that is irreducible with x a generator
of the multiplicative group.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

#: Largest supported field order.  Keeps the exp/log tables small; the codes
#: handled here live over fields of order at most a few hundred anyway.
ORDER_CAP = 1 << 16

# bound once: looking the classmethod up builds a method object per call
_from_bytes = int.from_bytes

# Reduction polynomials, as coefficient tuples (constant term first, monic).
# Past GF(9), every entry is the one the search of ``_default_modulus``
# picks, kept here so that building the field skips the search.
_DEFAULT_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),                    # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),                 # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),              # x^4 + x + 1
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),  # x^8 + x^4 + x^3 + x^2 + 1
    (3, 2): (2, 2, 1),                    # x^2 - x - 1, so a^2 = a + 1
    (2, 5): (1, 0, 1, 0, 0, 1),           # x^5 + x^2 + 1
    (2, 6): (1, 1, 0, 0, 0, 0, 1),        # x^6 + x + 1
    (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),     # x^7 + x + 1
    (2, 9): (1, 0, 0, 0, 1, 0, 0, 0, 0, 1),         # x^9 + x^4 + 1
    (2, 10): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),     # x^10 + x^3 + 1
    (3, 3): (1, 2, 0, 1),                 # x^3 + 2x + 1
    (3, 4): (2, 1, 0, 0, 1),              # x^4 + x + 2
    (3, 5): (1, 2, 0, 0, 0, 1),           # x^5 + 2x + 1
    (3, 6): (2, 1, 0, 0, 0, 0, 1),        # x^6 + x + 2
    (5, 2): (2, 1, 1),                    # x^2 + x + 2
    (5, 3): (2, 3, 0, 1),                 # x^3 + 3x + 2
    (5, 4): (2, 2, 1, 0, 1),              # x^4 + x^2 + 2x + 2
    (7, 2): (3, 1, 1),                    # x^2 + x + 3
    (7, 3): (2, 3, 0, 1),                 # x^3 + 3x + 2
    (11, 2): (7, 1, 1),                   # x^2 + x + 7
    (13, 2): (2, 1, 1),                   # x^2 + x + 2
    (17, 2): (3, 1, 1),                   # x^2 + x + 3
    (19, 2): (2, 1, 1),                   # x^2 + x + 2
    (23, 2): (7, 1, 1),                   # x^2 + x + 7
    (29, 2): (3, 1, 1),                   # x^2 + x + 3
    (31, 2): (12, 1, 1),                  # x^2 + x + 12
}


def _is_int(value) -> bool:
    """Whether value is an int proper (a bool is not): the library's one
    integer rule, for every argument that counts or indexes something."""
    return isinstance(value, int) and not isinstance(value, bool)


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Polynomial helpers over GF(p).  Polynomials are sequences of ints in [0, p),
# constant term first.  A remainder by a monic divisor of degree e is its e
# low coefficients, trailing zeros kept.
# ---------------------------------------------------------------------------

def _poly_mod(num: Sequence[int], den: Sequence[int], p: int) -> list[int]:
    """Remainder of num / den over GF(p), for a monic den: the deg(den)
    low coefficients."""
    num = list(num)
    dd = len(den) - 1
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c:
            for i, d in enumerate(den):
                num[k - dd + i] = (num[k - dd + i] - c * d) % p
    return num[:dd]


def _is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(modulus) - 1
    for d in range(1, deg // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            divisor = tuple(low) + (1,)
            if not any(_poly_mod(modulus, divisor, p)):
                return False
    return True


class Field:
    """The finite field GF(p^m).

    Construction builds the exp and log tables, the tables ZT and NORM of
    every operation, the p^m element objects and, where an element's code
    fits a byte, the slot codes and translate tables of vectors
    (``_build_slots``), all at once; arithmetic afterwards only looks these
    up and never creates an element.  Immutable after construction, so a
    Field and its elements can be shared freely across threads.  Two Fields
    with the same p, m and modulus are equal and their elements mix freely;
    the identity test comes first, so elements of one Field object pay no
    comparison of moduli.  Every GF(p) has the modulus (0, 1), whichever
    degree-one modulus it was given.
    """

    __slots__ = ("p", "m", "order", "modulus", "zero_log", "neg_log", "_exp",
                 "_log", "_zt", "_norm", "_by_log", "_elements", "_slot",
                 "_slot_log", "_times", "_mod_p", "_room")

    def __init__(self, p: int, m: int = 1,
                 modulus: Optional[Sequence[int]] = None) -> None:
        for name, value in (("characteristic", p), ("extension degree", m)):
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if m <= 0:
            raise ValueError(f"extension degree must be positive, got {m}")
        # bound the order before the primality test, which is trial division
        if m >= ORDER_CAP.bit_length() or p ** m > ORDER_CAP:
            raise ValueError(f"field order {p}^{m} exceeds cap {ORDER_CAP}")
        if _prime_factors(p) != [p]:
            raise ValueError(f"characteristic {p} is not prime")
        order = p ** m
        self.p = p
        self.m = m
        self.order = order
        if modulus is not None:
            if not (isinstance(modulus, (list, tuple))
                    and all(map(_is_int, modulus))):
                raise ValueError(
                    f"modulus must be a list of integers, got {modulus!r}")
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError(
                    f"modulus must be monic of degree {m}, got {modulus!r}")
            if not all(0 <= c < p for c in modulus):
                raise ValueError(f"modulus coefficients must lie in "
                                 f"[0, {p}), got {modulus!r}")
        if m == 1:
            # every degree-one modulus gives GF(p) itself, stored as (0, 1)
            modulus, powers = (0, 1), None
        elif modulus is None:
            modulus, powers = self._default_modulus()
        else:
            modulus = tuple(modulus)
            powers = self._x_powers(modulus)
            if powers is None and not _is_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.modulus = modulus
        self._build_tables(powers)

    # -- construction internals --------------------------------------------

    def _default_modulus(self) -> tuple[tuple[int, ...], Optional[list[int]]]:
        """The default modulus of GF(p^m), m > 1, and its ``_x_powers``;
        runs once p, m and order are set.  Every GF(p^m) has a primitive
        polynomial of degree m, and the loop tries every monic one; trial
        division rejects a reducible one before ``_x_powers`` walks up to
        p^m - 2 powers of x for it."""
        p, m = self.p, self.m
        table = _DEFAULT_MODULI.get((p, m))
        if table is not None:
            return table, self._x_powers(table)
        for packed in range(p ** m):
            low = tuple((packed // p ** k) % p for k in range(m))
            candidate = low + (1,)
            if not _is_irreducible(candidate, p):
                continue
            powers = self._x_powers(candidate)
            if powers is not None:
                return candidate, powers

    def _x_powers(self, modulus: Sequence[int]) -> Optional[list[int]]:
        """The packed x^0, ..., x^(n-1) modulo a modulus of degree m > 1
        when x has order n = p^m - 1 there, else None.

        Each power is the last times x, then one reduction of the x^m term.
        A unit x whose powers do not reach 1 before x^n has n distinct unit
        powers, which only a field holds: a primitive x also proves the
        modulus irreducible.
        """
        p, m = self.p, self.m
        if modulus[0] == 0:  # x divides the modulus: no unit
            return None
        neg = [-c % p for c in modulus[:m]]  # x^m = sum(neg[k] * x^k)
        weights = [p ** k for k in range(m)]
        digits = [1] + [0] * (m - 1)
        powers = [1]
        for _ in range(self.order - 2):
            top = digits[-1]
            digits = [0] + digits[:-1]
            if top:
                digits = [(d + top * c) % p for d, c in zip(digits, neg)]
            packed = sum(d * w for d, w in zip(digits, weights))
            if packed == 1:
                return None
            powers.append(packed)
        return powers

    def _unpack(self, v: int) -> list[int]:
        digits = []
        for _ in range(self.m):
            v, r = divmod(v, self.p)
            digits.append(r)
        return digits

    def _raw_mul(self, u: int, v: int) -> int:
        """Product of two packed vectors, reduced by the modulus."""
        p, m = self.p, self.m
        if m == 1:
            return u * v % p
        du, dv = self._unpack(u), self._unpack(v)
        prod = [0] * (2 * m - 1)
        for i, a in enumerate(du):
            if a:
                for j, b in enumerate(dv):
                    prod[i + j] = (prod[i + j] + a * b) % p
        prod = _poly_mod(prod, self.modulus, p)
        packed = 0
        for k in range(m - 1, -1, -1):
            packed = packed * p + prod[k]
        return packed

    def _raw_pow(self, v: int, e: int) -> int:
        out = 1
        while e:
            if e & 1:
                out = self._raw_mul(out, v)
            v = self._raw_mul(v, v)
            e >>= 1
        return out

    def _packed_order(self, start: int) -> int:
        """Multiplicative order of the packed value ``start``."""
        n = self.order - 1
        order = n
        for ell in _prime_factors(n):
            while order % ell == 0 and self._raw_pow(start, order // ell) == 1:
                order //= ell
        return order

    def _build_tables(self, powers: Optional[list[int]]) -> None:
        """The exp/log tables, the elements, and the tables ZT and NORM.

        The generator is the first packed value of order n = order - 1.
        Given the powers of a primitive x (``_x_powers``), that is x itself:
        the packed values below x's, p, are the prime field, whose orders
        divide p - 1 < n.  Otherwise it is found by trial powers.

        With n = order - 1 and zero Z = 3n, acc + a^k * v for a multiplier k
        in [0, n) is NORM[r + ZT[3n + k + v - r]]; the index into ZT lies in

        * [0, 2n) when r is zero: ZT = index - 3n, so NORM sees k + v;
        * (2n, 5n) when neither is zero: ZT = zech((k + v - r) mod n), with
          Z for a zero sum, so NORM sees r + zech or a value in [3n, 4n);
        * [3n, 4n) also when both are zero: NORM sees [3n, 4n) or 6n;
        * (5n, 7n) when v is zero: ZT = 0, so NORM sees r.

        NORM reduces [0, 2n) mod n and sends [3n, 6n] to Z (NORM[2n:3n] is
        never read), so NORM[r + k] is the product a^k * r, zero included.
        The element operators read the same tables: a sum is the case k = 0,
        a product of kernel values i and j is NORM[i + j] (6n for two zeros),
        and -a^i is NORM[i + neg], neg being the log of -1.
        """
        q = self.order
        n = q - 1
        z = self.zero_log = 3 * n
        if powers is not None:
            exp = powers
        else:
            # the multiplicative group is cyclic, so this search succeeds
            generator = next(v for v in range(1, q)
                             if self._packed_order(v) == n)
            exp = [1]
            for _ in range(n - 1):
                exp.append(self._raw_mul(exp[-1], generator))
        log = [z] * q  # packed value -> kernel value
        for k, v in enumerate(exp):
            log[v] = k
        self._exp = exp
        self._log = log
        # Zech logarithms: 1 + a^k = a^zech[k], with Z when the sum is zero;
        # adding 1 steps the constant digit mod p
        p = self.p
        zech = [log[v + 1 if v % p != p - 1 else v + 1 - p] for v in exp]
        self._zt = list(range(-z, -n)) + zech * 3 + [0] * (2 * n)
        self._norm = list(range(n)) * 2 + [z] * (4 * n + 1)
        self.neg_log = 0 if self.p == 2 else n // 2  # of -1
        # element of kernel value k at index k: every index >= n is zero
        self._by_log = [FieldElement(self, k) for k in range(n)]
        self._by_log += [FieldElement(self, z)] * (2 * n + 1)
        self._elements = tuple(self._from_packed(v) for v in range(q))
        self._build_slots()

    def _build_slots(self) -> None:
        """The byte form of vectors (``vector``), when an element code fits a
        byte: ``_slot`` and ``_slot_log`` map kernel values to slot codes
        and back, ``_times[k]`` is the ``bytes.translate`` table of a
        product by a^k, and in odd characteristic ``_mod_p`` reduces every
        digit mod p, ``_room`` vectors of reduced digits summing within a
        digit's field.

        In characteristic 2 with m <= 8 the code is the packed bit vector,
        and a sum is XOR.  For odd p the code holds the m base-p digits in
        fields of 8 // m bits; a sum is an int addition, carry-free while
        a digit stays in its field, so the form needs at least two addends
        to fit, 2(p - 1) < 2^(8 // m): GF(p) for p <= 127, GF(9), GF(25)
        and GF(49), so m <= 2, and a packed v = d0 + p * d1 has the code
        v + (2^(8 // m) - p) * d1.  Every other field keeps kernel-value
        lists (``_slot`` None)."""
        p, m, n = self.p, self.m, self.order - 1
        width = 1 if p == 2 else 8 // m
        self._slot = None
        if m * width > 8 or p > 2 and 2 * (p - 1) >= 1 << width:
            return
        spare = (1 << width) - p  # 0 for p = 2, and v // p is 0 for m = 1
        codes = bytes(v + spare * (v // p) for v in self._exp)  # by log
        # a^k moves the code of a^i to that of a^(i+k)
        self._times = [bytes.maketrans(codes, codes[k:] + codes[:k])
                       for k in range(n)]
        if p > 2:
            digit = (bytes(range(p)) * (256 // p + 1))[:1 << width]  # mod p
            self._mod_p = digit
            if m == 2:  # byte c: digit[c >> width] over digit[c % 2^width]
                high = b"".join(bytes((d << width,)) * len(digit)
                                for d in digit)
                self._mod_p = (_from_bytes(high, "little") | _from_bytes(
                    digit * len(digit), "little")).to_bytes(256, "little")
            self._room = ((1 << width) - 1) // (p - 1)
        slot_log = [self.zero_log] * 256
        for k, c in enumerate(codes):
            slot_log[c] = k
        self._slot = list(codes) + [0] * (2 * n + 1)  # zero at 3n
        self._slot_log = slot_log

    # -- public surface ------------------------------------------------------

    @property
    def zero(self) -> "FieldElement":
        return self._by_log[self.zero_log]

    @property
    def one(self) -> "FieldElement":
        return self._by_log[0]

    @property
    def generator(self) -> "FieldElement":
        """The generator ``a``: first element (in enumeration order) whose
        multiplicative order is p^m - 1."""
        return self._by_log[1 if self.order > 2 else 0]

    def element(self, value: int) -> "FieldElement":
        """The prime-subfield element value mod p."""
        return self._from_packed(value % self.p)

    def logs(self, elements: Iterable["FieldElement"]) -> list[int]:
        """Kernel values of the elements: logs, and ``zero_log`` for zero."""
        return [e._k for e in elements]

    def from_logs(self, values: Iterable[int]) -> list["FieldElement"]:
        """The elements of a list of kernel values."""
        by_log = self._by_log
        return [by_log[k] for k in values]

    def from_log(self, k: int) -> "FieldElement":
        """The element of one kernel value, ``zero_log`` giving zero."""
        return self._by_log[k]

    def axpy(self, acc: Sequence[int], k: int, vec: Sequence[int]) -> list[int]:
        """acc + a^k * vec on kernel values, for a nonzero multiplier a^k
        (k in [0, n)): the caller skips zero multipliers."""
        zt, norm = self._zt, self._norm
        base = self.zero_log + k
        return [norm[r + zt[base + v - r]] for r, v in zip(acc, vec)]

    def scale(self, vec: Sequence[int], k: int) -> list[int]:
        """a^k * vec on kernel values, for k in [0, n)."""
        norm = self._norm
        return [norm[r + k] for r in vec]

    def multiply(self, u: Sequence[int], v: Sequence[int]) -> list[int]:
        """u * v entrywise on kernel values."""
        norm = self._norm
        return [norm[i + j] for i, j in zip(u, v)]

    # -- vectors: bytes of slot codes, or kernel-value lists -----------------

    def vector(self, values: Iterable[int]) -> bytes | list[int]:
        """The vector of the kernel values: one slot code per entry, or a
        list of the values for a field whose code does not fit a byte."""
        if self._slot is None:
            return list(values)
        return bytes(map(self._slot.__getitem__, values))

    def values(self, vec: bytes | list[int]) -> list[int]:
        """The kernel values of a vector (``vector`` inverted)."""
        if self._slot is None:
            return list(vec)
        return list(map(self._slot_log.__getitem__, vec))

    def entry(self, vec: bytes | list[int], s: int) -> int:
        """The kernel value of entry s of a vector, 0 <= s < len(vec)."""
        if self._slot is None:
            return vec[s]
        return self._slot_log[vec[s]]

    def combine(self, acc: bytes | list[int],
                products: Iterable[tuple[int, bytes | list[int], int]]
                ) -> bytes | list[int]:
        """acc + sum(a^k * vec moved up by shift entries, for (k, vec, shift)
        in products) with k in [0, n), trailing zeros trimmed.

        In bytes a product is one ``translate`` by ``_times[k]``, a move an
        int shift by 8 * shift, and the sum of the vectors as ints is XOR,
        or in odd characteristic an addition with one ``translate`` by
        ``_mod_p`` at the end, and before an addend that could overflow a
        digit; the trailing zeros go in the int's ``to_bytes``, or, where
        digits reduce to zero, by ``rstrip``."""
        if self._slot is None:
            return self._combine_lists(acc, products)
        times = self._times
        total = _from_bytes(acc, "little")
        if self.p == 2:
            for k, vec, shift in products:
                total ^= _from_bytes(vec.translate(times[k]),
                                     "little") << 8 * shift
            return total.to_bytes((total.bit_length() + 7) // 8, "little")
        mod_p, room = self._mod_p, self._room
        left = room - 1  # acc is one addend
        for k, vec, shift in products:
            if not left:
                total = _from_bytes(total.to_bytes(
                    (total.bit_length() + 7) // 8, "little").translate(mod_p),
                    "little")
                left = room - 1
            total += _from_bytes(vec.translate(times[k]),
                                 "little") << 8 * shift
            left -= 1
        return total.to_bytes((total.bit_length() + 7) // 8,
                              "little").translate(mod_p).rstrip(b"\0")

    def combine_row(self, vec: bytes | list[int], shift: int, start: int,
                    step: int, rows: Iterable[tuple[int, int]]
                    ) -> bytes | list[int]:
        """vec moved up by shift entries plus, for each (k, at) in rows, a^k
        times its row vec[start::step] laid out at stride step from entry
        at, with k in [0, n) and every row ending below shift + len(vec);
        trailing zeros trimmed.

        In bytes this is one ``combine``, the row spread to its stride with
        zero bytes between its entries.  On lists each row is one strided
        ``axpy`` over its own entries, as a spread row would cost a lookup
        for every zero between them."""
        row = vec[start::step]
        if self._slot is not None:
            spread = bytearray(step * len(row))
            spread[::step] = row
            return self.combine(b"", [(0, vec, shift)] + [
                (k, spread, at) for k, at in rows])
        zero = self.zero_log
        out = [zero] * shift + vec
        for k, at in rows:
            end = at + step * len(row)
            out[at:end:step] = self.axpy(out[at:end:step], k, row)
        while out and out[-1] == zero:
            out.pop()
        return out

    def _combine_lists(self, acc: list[int],
                       products: Iterable[tuple[int, list[int], int]]
                       ) -> list[int]:
        """``combine`` on kernel-value lists.  Each product goes in one of
        four ways, chosen from where it lands and its number of nonzero
        entries:

        * into an empty region, past the end of the list, as a copy, or one
          ``scale``;
        * for a short product, with fewer than eight nonzero entries, entry
          by entry, one entry of ``axpy`` per nonzero entry, as a pass has a
          fixed cost and a cost for every entry it crosses (cut points of
          four and sixteen decoded as fast, CHANGES.md);
        * over the whole list, from entry 0 to its end, two at a time: a
          pair shares one pass, and so its cost for every entry, and an
          unpaired one is one ``axpy``;
        * otherwise as one ``axpy`` over the shifted range.

        A product with eight nonzero entries among its first sixteen is not
        short, with no count over the rest.  The list is extended to each
        product's reach, and the trailing zeros of a cancelled sum are
        trimmed once, at the end.
        """
        zero, zt, norm = self.zero_log, self._zt, self._norm
        out = acc[:]
        held = None  # a product over the whole list, waiting for a second
        for k, terms, t in products:
            size, have = len(terms), len(out)
            head = terms[:16]
            dense = len(head) - head.count(zero) >= 8
            if dense and not t and size == have:
                if held is None:
                    held = k, terms
                    continue
                (j, first), held = held, None
                bj, bk = zero + j, zero + k
                out = [norm[(m := norm[r + zt[bj + u - r]]) + zt[bk + v - m]]
                       for r, u, v in zip(out, first, terms)]
                continue
            if held is not None:
                out, held = self.axpy(out, *held), None
            end = t + size
            if have <= t:  # into an empty region
                out += [zero] * (t - have)
                out += self.scale(terms, k) if k else terms
                continue
            if have < end:
                out += [zero] * (end - have)
            if not dense and size - terms.count(zero) < 8:
                base = zero + k
                for s, v in enumerate(terms, t):
                    if v != zero:
                        r = out[s]
                        out[s] = norm[r + zt[base + v - r]]
            else:
                out[t:end] = self.axpy(out[t:end], k, terms)
        if held is not None:
            out = self.axpy(out, *held)
        while out and out[-1] == zero:
            out.pop()
        return out

    def _from_packed(self, v: int) -> "FieldElement":
        return self._by_log[self._log[v]]

    def elements(self) -> tuple["FieldElement", ...]:
        """All p^m elements, zero first, then by packed coefficient vector."""
        return self._elements

    def parse(self, text: str) -> "FieldElement":
        """Parse the textual element grammar ("0", "2", "a", "a^5", ...)."""
        if not isinstance(text, str) or not text.strip().isascii():
            raise ValueError(f"malformed field element token {text!r}")
        tok = text.strip()  # ASCII, so isdigit() accepts 0-9 only
        if tok.isdigit() and int(tok) < self.p:
            return self.element(int(tok))
        if tok == "a":
            return self.generator
        if tok.startswith("a^") and tok[2:].isdigit() and int(tok[2:]) > 0:
            return self.generator ** int(tok[2:])
        raise ValueError(f"malformed field element token {text!r}")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Field):
            return NotImplemented
        return (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"


class FieldElement:
    """A field element: zero, or a power a^k of the field generator.

    It holds its kernel value ``_k``: the log k, or ``Field.zero_log`` for
    zero.  The Field holds one instance per value and every operation
    returns one of those; an element built here directly is equal to the
    Field's own.
    """

    __slots__ = ("field", "_k", "is_zero")

    def __init__(self, field: Field, k: int) -> None:
        self.field = field
        self._k = k
        self.is_zero = k == field.zero_log

    @property
    def log(self) -> int:
        """Discrete logarithm; undefined (raises) for zero."""
        if self.is_zero:
            raise ValueError("the zero element has no discrete logarithm")
        return self._k

    def _packed(self) -> int:
        return 0 if self.is_zero else self.field._exp[self._k]

    def _require_same_field(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement) or other.field != self.field:
            raise ValueError(f"operands from different fields: {self!r}, {other!r}")

    # The operators test ``other.field is f`` inline and call
    # _require_same_field only when that fails, so the common case costs one
    # identity test.

    def __add__(self, other: "FieldElement") -> "FieldElement":
        f = self.field
        if other.__class__ is not FieldElement or other.field is not f:
            self._require_same_field(other)
        i = self._k
        return f._by_log[f._norm[i + f._zt[f.zero_log + other._k - i]]]

    def __neg__(self) -> "FieldElement":
        f = self.field
        return f._by_log[f._norm[self._k + f.neg_log]]

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        f = self.field
        if other.__class__ is not FieldElement or other.field is not f:
            if not isinstance(other, FieldElement):
                return NotImplemented
            self._require_same_field(other)
        return f._by_log[f._norm[self._k + other._k]]

    def inverse(self) -> "FieldElement":
        if self.is_zero:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        f = self.field
        return f._by_log[-self._k % (f.order - 1)]

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        self._require_same_field(other)
        return self * other.inverse()

    def __pow__(self, e: int) -> "FieldElement":
        if self.is_zero:
            if e > 0:
                return self
            if e == 0:
                return self.field.one  # 0^0 == 1, so monomials evaluate sanely
            raise ZeroDivisionError("negative power of zero")
        f = self.field
        return f._by_log[(self._k * e) % (f.order - 1)]

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self._k == other._k and self.field == other.field

    def __hash__(self) -> int:
        return hash((self._k, self.field.p, self.field.m))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        packed = self._packed()
        if packed < self.field.p:
            return str(packed)
        return f"a^{self._k}"

    def __repr__(self) -> str:
        return str(self)


def canonical_key(elem: FieldElement) -> tuple[int, int]:
    """Sort key for the documented element order: 0, 1, a^1, a^2, ..."""
    if elem.is_zero:
        return (0, 0)
    return (1, elem.log)
