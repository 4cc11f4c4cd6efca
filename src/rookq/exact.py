"""Exact scalar arithmetic: Laurent polynomials over the integers.

Every value the package computes lies in Z[q] (or Z[t]), so there is one
scalar type,

    LaurentPoly   integer coefficients, one tagged variable (q or t)

and a coefficient is always a plain ``int``: anything else, a rational number
or a ``float`` included, is refused with ``TypeError``.  A division is exact
or it raises: ``exact_div`` raises ``NonExactDivision`` unless the quotient
lies in the Laurent ring over Z.  The one denominator is in ``symfunc``, which
takes and stores each power-sum expansion as integer numerators over one
positive ``int`` and divides by it, exactly, only in its two pairings.
Exponents are plain integers: the key ``h`` stands for ``var**h``.

Each operator has one path.  ``+`` and ``*`` read the other operand through
``_coerce`` (``_make`` wraps an ``int`` as a constant, any other number is
refused), run their loop, and tag the result by ``_result_var`` (a constant
adopts the other tag); ``-`` is negation and ``+``.  There is no separate
integer multiple: ``p * 3`` is ``*``.

Two routes run on plain ints by Kronecker substitution (von zur Gathen and
Gerhard, Modern Computer Algebra, 8.4): the Murnaghan-Nakayama route
(``characters.chi_mn``) and the seminormal traces evaluate at q = 2^k, with
2^k above twice an l1 bound of the result, and ``balanced_digits`` reads the
polynomial back.  The iterative route, the a/b families, the bitrace matrix
route (``bitrace.btr_matrix``) and ``symfunc``'s power-sum engine, its two
pairings included, each sum in their own ``int`` dicts, and ``div_qm1``
divides by (q-1)^l by running sums over a dense ``int`` list.  The rest stay
on ``__mul__`` and ``__add__``.

``RationalFunction`` only puts a quotient of two Laurent polynomials into
canonical reduced form over Z[q], by a primitive gcd; it has no arithmetic.

No floating point is used anywhere; all arithmetic is exact.
"""

from __future__ import annotations

import math
from itertools import accumulate
from numbers import Number
from typing import Dict, List, Mapping, Tuple

from .errors import DivisionByZero, DomainError, NonExactDivision

_VALID_VARS = ("q", "t")
_TAG_SWAP = {"t": "q", "q": "t"}


def _as_int(x) -> int:
    """``x`` as a plain ``int``; anything that is not an integer is refused."""
    if type(x) is int:
        return x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected an integer coefficient, got {type(x).__name__}")


class LaurentPoly:
    """Laurent polynomial in one formal variable with integer coefficients.

    ``_terms`` maps integer exponents to nonzero plain ``int`` coefficients.
    Instances are immutable (by convention: internal dicts are never touched
    after construction) and hashable, so they can be used as cache keys.
    """

    __slots__ = ("var", "_terms")

    def __init__(self, var: str, terms: Mapping[int, int] | None = None):
        if var not in _VALID_VARS:
            raise ValueError(f"unknown variable tag {var!r}")
        out: Dict[int, int] = {}
        if terms:
            for h, c in terms.items():
                if not isinstance(h, int):
                    raise TypeError(f"expected an integer exponent, got {type(h).__name__}")
                c = _as_int(c)
                if c:
                    out[int(h)] = c
        self.var = var
        self._terms = out

    @classmethod
    def _make(cls, var: str, terms: Dict[int, int]) -> "LaurentPoly":
        """Wrap a dict of valid nonzero coefficients without re-checking it."""
        self = object.__new__(cls)
        self.var, self._terms = var, terms
        return self

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, var: str = "q") -> "LaurentPoly":
        return cls(var, {})

    @classmethod
    def one(cls, var: str = "q") -> "LaurentPoly":
        return cls(var, {0: 1})

    @classmethod
    def const(cls, value: int, var: str = "q") -> "LaurentPoly":
        return cls(var, {0: value})

    @classmethod
    def monomial(cls, var: str, exp: int, coeff: int = 1) -> "LaurentPoly":
        """``coeff * var**exp`` for an integer exponent."""
        return cls(var, {exp: coeff})

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self._terms

    def is_ordinary(self) -> bool:
        """True iff no exponent is negative."""
        return all(h >= 0 for h in self._terms)

    def min_exp(self) -> int:
        if not self._terms:
            return 0
        return min(self._terms)

    def items(self) -> List[Tuple[int, int]]:
        return sorted(self._terms.items(), reverse=True)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _is_const(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and 0 in self._terms)

    def _coerce(self, other) -> "LaurentPoly | None":
        """``other`` as a polynomial; None for a non-number, TypeError for a
        number that is not an integer."""
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, Number):
            c = _as_int(other)
            return LaurentPoly._make(self.var, {0: c} if c else {})
        return None

    def _result_var(self, other: "LaurentPoly") -> str:
        if self.var == other.var:
            return self.var
        # constants carry no real variable dependency and adopt the other tag
        if self._is_const():
            return other.var
        if other._is_const():
            return self.var
        raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self._terms)
        get = terms.get
        for h, c in other._terms.items():
            terms[h] = get(h, 0) + c
        return LaurentPoly._make(self._result_var(other), {h: c for h, c in terms.items() if c})

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        return NotImplemented if other is None else other + -self

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._make(self.var, {h: -c for h, c in self._terms.items()})

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: Dict[int, int] = {}
        get = out.get
        terms2 = other._terms.items()
        for h1, c1 in self._terms.items():
            for h2, c2 in terms2:
                h = h1 + h2
                out[h] = get(h, 0) + c1 * c2
        return LaurentPoly._make(self._result_var(other), {h: c for h, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        """``self**n`` by repeated squaring, starting from the base: floor(log2 n)
        squarings and one product for each further set bit of n, so ``p**1``
        makes no product, ``p**2`` one and ``p**3`` two; ``p**0`` is ``one``."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are supported")
        if not n:
            return LaurentPoly.one(self.var)
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        result = base
        while n > 1:
            base = base * base
            n >>= 1
            if n & 1:
                result = result * base
        return result

    def times_power(self, exp: int) -> "LaurentPoly":
        """Multiply by ``var**exp``."""
        return LaurentPoly._make(self.var, {h + exp: c for h, c in self._terms.items()})

    # ------------------------------------------------------------------
    # the operations of the scalar layer
    # ------------------------------------------------------------------
    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / other in the Laurent ring over Z.

        Raises NonExactDivision unless the quotient has integer coefficients,
        which signals a violated divisibility invariant upstream.  The tags
        combine as in ``*``: a constant of either tag divides.
        """
        other = self._coerce(other)
        if other is None:
            raise TypeError("exact_div expects a LaurentPoly")
        var = self._result_var(other)
        if other.is_zero:
            raise DivisionByZero("division by the zero polynomial")
        if self.is_zero:
            return LaurentPoly(var, {})
        ma, mb = self.min_exp(), other.min_exp()
        a = {h - ma: c for h, c in self._terms.items()}
        b = {h - mb: c for h, c in other._terms.items()}
        quot, rem = _divmod(a, b)
        if rem:
            raise NonExactDivision(f"({self}) is not divisible by ({other})")
        return LaurentPoly._make(var, {h + ma - mb: c for h, c in quot.items()})

    def div_qm1(self, l: int) -> "LaurentPoly":
        """Exact quotient self / (var - 1)^l by l passes of synthetic division.

        On the dense coefficients, highest exponent first, one division by
        var - 1 is a running sum: the partial sums are the quotient and the
        full sum, the value at 1, is the remainder.  A nonzero remainder
        raises NonExactDivision, with the message of ``exact_div``.
        """
        if not isinstance(l, int) or l < 0:
            raise ValueError("only nonnegative integer powers are supported")
        if not self._terms:
            return self
        lo, hi = min(self._terms), max(self._terms)
        coeffs = [self._terms.get(h, 0) for h in range(hi, lo - 1, -1)]
        for _ in range(l):
            coeffs = list(accumulate(coeffs))
            if coeffs.pop():
                qm1 = LaurentPoly._make(self.var, {1: 1, 0: -1})
                raise NonExactDivision(f"({self}) is not divisible by ({qm1**l})")
        return LaurentPoly._make(self.var, {hi - l - i: c for i, c in enumerate(coeffs) if c})

    def evaluate(self, x: int) -> int:
        """Exact value at an integer point; a negative exponent is refused."""
        x = _as_int(x)
        if self.min_exp() < 0:
            raise DomainError(f"cannot evaluate {self} at an integer: negative exponent")
        return sum(c * x**h for h, c in self._terms.items())

    def substitute_inverse(self) -> "LaurentPoly":
        """Substitute the reciprocal variable and swap the tag t <-> q.

        Each ``t**e`` becomes ``q**(-e)`` (and vice versa); applying the map
        twice returns the original polynomial.
        """
        return LaurentPoly._make(_TAG_SWAP[self.var], {-h: c for h, c in self._terms.items()})

    # ------------------------------------------------------------------
    # equality / hashing
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self._terms != other._terms:
            return False
        # equal nonzero polynomials must share a tag unless both are constants
        return self._is_const() or self.var == other.var

    def __hash__(self):
        # a constant equals itself under either tag and as a plain number
        if self._is_const():
            return hash(self._terms.get(0, 0))
        return hash((self.var, tuple(sorted(self._terms.items()))))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # ------------------------------------------------------------------
    # text forms
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        """The one text form (``3*q^2 - q + 1``); distinct polynomials give distinct strings."""
        if not self._terms:
            return "0"
        chunks: List[str] = []
        for h, c in self.items():
            body = self._term_body(h, abs(c))
            if not chunks:
                chunks.append(body if c > 0 else "-" + body)
            else:
                chunks.append((" + " if c > 0 else " - ") + body)
        return "".join(chunks)

    def _term_body(self, h: int, mag: int) -> str:
        if h == 0:
            return str(mag)
        vpart = self.var if h == 1 else f"{self.var}^{h}"
        if mag == 1:
            return vpart
        return f"{mag}*{vpart}"

    def __repr__(self) -> str:
        return f"LaurentPoly({self.var!r}, {self!s})"

    def terms_json(self) -> List[List[int]]:
        """``[[exponent, coefficient, 1], ...]`` with exponents descending; the
        trailing 1 fills the JSON format's denominator slot."""
        return [[h, c, 1] for h, c in self.items()]


def balanced_digits(value: int, k: int) -> LaurentPoly:
    """The unique T in Z[q] with T(2^k) = value and every coefficient in
    [-2^(k-1), 2^(k-1)): value's balanced base-2^k digits.  So T is the
    polynomial evaluated at 2^k if twice its l1 norm is below 2^k; k >= 2."""
    mask, half = (1 << k) - 1, 1 << (k - 1)
    terms: Dict[int, int] = {}
    h = 0
    while value:
        digit = ((value + half) & mask) - half
        if digit:
            terms[h] = digit
        value = (value - digit) >> k
        h += 1
    return LaurentPoly._make("q", terms)


# ----------------------------------------------------------------------
# dict-level helpers (keys are exponents >= 0)
# ----------------------------------------------------------------------
def _divmod(a: Dict[int, int], b: Dict[int, int]):
    """Long division of ordinary term dicts over Z; returns (quotient,
    remainder).  It stops early, with a nonzero remainder, at the first
    leading coefficient that the divisor's does not divide, since the
    quotient then leaves Z[q]."""
    a = dict(a)
    q: Dict[int, int] = {}
    db = max(b)
    lb = b[db]
    while a:
        da = max(a)
        f, r = divmod(a[da], lb)
        if da < db or r:
            break
        q[da - db] = f
        for h, c in b.items():
            nh = h + da - db
            nc = a.get(nh, 0) - f * c
            if nc:
                a[nh] = nc
            else:
                a.pop(nh, None)
    return q, a


def _primitive(a: Dict[int, int]) -> Dict[int, int]:
    """``a`` divided by its content, signed so that the leading coefficient is positive."""
    g = math.gcd(*a.values())
    if a[max(a)] < 0:
        g = -g
    return {h: c // g for h, c in a.items()}


def _gcd(a: Dict[int, int], b: Dict[int, int]) -> Dict[int, int]:
    """gcd in Z[q] of nonzero ordinary term dicts, with positive leading
    coefficient: the gcd of the contents times the gcd of the primitive parts,
    taken by primitive pseudo-remainders (von zur Gathen & Gerhard, *Modern
    Computer Algebra*, ch. 6)."""
    content = math.gcd(*a.values(), *b.values())
    a, b = _primitive(a), _primitive(b)
    if max(a) < max(b):
        a, b = b, a
    while b:
        # lc(b)^(deg a - deg b + 1) * a divides by b step by step over Z
        k = b[max(b)] ** (max(a) - max(b) + 1)
        _, r = _divmod({h: c * k for h, c in a.items()}, b)
        a, b = b, (_primitive(r) if r else {})
    return {h: c * content for h, c in a.items()}


class RationalFunction:
    """Quotient of Laurent polynomials in canonical reduced form.

    Canonical form over Z[q], a UFD: the denominator is an ordinary polynomial
    (nonnegative exponents, nonzero constant term) with a positive leading
    coefficient, and shares no factor in Z[q], integer content included, with
    the ordinary part of the numerator.  Equality of canonical forms is
    therefore plain syntactic equality.  Zero has the one form 0/1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1, var: str | None = None):
        if not isinstance(num, LaurentPoly):
            num = LaurentPoly.const(num, var or (den.var if isinstance(den, LaurentPoly) else "q"))
        if not isinstance(den, LaurentPoly):
            den = LaurentPoly.const(den, num.var)
        # a constant adopts the other tag, as in arithmetic
        v = num._result_var(den)
        if den.is_zero:
            raise DivisionByZero("rational function with zero denominator")
        if num.is_zero:
            self.num = LaurentPoly.zero(v)
            self.den = LaurentPoly.one(v)
            return
        # make the denominator ordinary with a nonzero constant term
        md = den.min_exp()
        if md:
            num = num.times_power(-md)
            den = den.times_power(-md)
        mn = num.min_exp()
        n_ord = {h - mn: c for h, c in num._terms.items()}
        d_ord = dict(den._terms)
        g = _gcd(n_ord, d_ord)
        if g != {0: 1}:
            n_ord, r1 = _divmod(n_ord, g)
            d_ord, r2 = _divmod(d_ord, g)
            if r1 or r2:
                raise NonExactDivision(f"gcd ({LaurentPoly(v, g)}) failed to divide exactly")
        if d_ord[max(d_ord)] < 0:
            n_ord = {h: -c for h, c in n_ord.items()}
            d_ord = {h: -c for h, c in d_ord.items()}
        self.num = LaurentPoly(v, {h + mn: c for h, c in n_ord.items()})
        self.den = LaurentPoly(v, d_ord)

    def is_polynomial(self) -> bool:
        return self.den._terms == {0: 1}

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num})/({self.den})"
