"""Exact scalar arithmetic: rationals, Laurent polynomials, rational functions.

The scalar tower is

    coefficient   int, or fractions.Fraction when not integral
    LaurentPoly                            (one tagged variable, q or t)
    RationalFunction                       (quotient of two LaurentPoly)

A stored coefficient is a plain ``int`` whenever it is integral and a
``Fraction`` only otherwise; a ``Fraction`` with denominator 1 is folded back
to ``int`` on construction, and a ``float`` is refused.  Character values and
border-strip weights therefore run on ``int`` arithmetic, while the 1/z_lambda
coefficients of the power-sum basis and the seminormal entries keep their
fractions.

Exponents of a ``LaurentPoly`` are stored in half-integer units: the internal
key ``h`` stands for ``var**(h/2)``.  This makes ``q**(1/2)`` a first-class
monomial (needed by the seminormal matrices) without a separate field
extension type.  Operations that must land in ordinary polynomials check
that all exponents are even in these units.

``LaurentPoly.sum_of_products`` sums a*b over many pairs into one dict and
folds it once, where ``__mul__`` and ``__add__`` would build a dict for every
product and every partial sum.  Only the Murnaghan-Nakayama route
(``characters.chi_mn``) uses it; the routes it is cross-checked against stay
on ``__mul__`` and ``__add__``, so no two compared routes share the kernel.

A ``RationalFunction`` is kept in a canonical reduced form, normalised by a
Euclidean gcd in its constructor.  Its arithmetic skips that gcd when the
result is canonical by construction: polynomial with polynomial, a monomial
times anything, a sum over one shared denominator that is 1, and negation
(see ``RationalFunction``).  The seminormal traces are mostly such products
and sums.

No floating point is used anywhere; all arithmetic is exact.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Mapping, Tuple, Union

from .errors import DivisionByZero, DomainError, NonExactDivision

Scalar = Union[int, Fraction]

_VALID_VARS = ("q", "t")
_TAG_SWAP = {"t": "q", "q": "t"}


def _as_coeff(x: Scalar) -> Scalar:
    """A valid coefficient: ``int`` when integral, ``Fraction`` otherwise."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


def _fold(terms: Mapping[int, Scalar]) -> Dict[int, Scalar]:
    """Drop zero terms and fold integral Fractions of valid coefficients to int."""
    return {
        h: c if type(c) is int or c.denominator != 1 else c.numerator
        for h, c in terms.items()
        if c
    }


def _div(a: Scalar, b: Scalar) -> Scalar:
    """Exact quotient of two coefficients (``a / b`` on two ints gives a float)."""
    if type(a) is int and type(b) is int:
        quot, rem = divmod(a, b)
        if not rem:
            return quot
    return _as_coeff(Fraction(a) / b)


class LaurentPoly:
    """Laurent polynomial in one formal variable with rational coefficients.

    ``_terms`` maps half-unit exponents to nonzero coefficients, each an
    ``int`` when integral and a ``Fraction`` otherwise, never a ``float``.
    Instances are immutable (by convention: internal dicts are never touched
    after construction) and hashable, so they can be shared freely across
    threads and used as cache keys.
    """

    __slots__ = ("var", "_terms", "_hash")

    def __init__(self, var: str, half_terms: Mapping[int, Scalar] | None = None):
        if var not in _VALID_VARS:
            raise ValueError(f"unknown variable tag {var!r}")
        terms: Dict[int, Scalar] = {}
        if half_terms:
            for h, c in half_terms.items():
                c = _as_coeff(c)
                if c:
                    terms[int(h)] = c
        self.var = var
        self._terms = terms
        self._hash = None

    @classmethod
    def _make(cls, var: str, terms: Dict[int, Scalar]) -> "LaurentPoly":
        """Wrap a dict of valid nonzero coefficients without re-checking it."""
        self = object.__new__(cls)
        self.var = var
        self._terms = terms
        self._hash = None
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
    def const(cls, value: Scalar, var: str = "q") -> "LaurentPoly":
        return cls(var, {0: value})

    @classmethod
    def monomial(cls, var: str, exp: int, coeff: Scalar = 1) -> "LaurentPoly":
        """``coeff * var**exp`` for an integer exponent."""
        return cls(var, {2 * exp: coeff})

    @classmethod
    def half_monomial(cls, var: str, half_exp: int, coeff: Scalar = 1) -> "LaurentPoly":
        """``coeff * var**(half_exp/2)``; ``half_monomial('q', 1)`` is q^(1/2)."""
        return cls(var, {half_exp: coeff})

    @classmethod
    def from_dict(cls, var: str, terms: Mapping[int, Scalar]) -> "LaurentPoly":
        """Build from a mapping of integer exponents to coefficients."""
        return cls(var, {2 * e: c for e, c in terms.items()})

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self._terms

    def is_ordinary(self) -> bool:
        """True iff all exponents are nonnegative integers."""
        return all(h >= 0 and h % 2 == 0 for h in self._terms)

    def has_half_exponents(self) -> bool:
        return any(h % 2 for h in self._terms)

    def min_half_exp(self) -> int:
        if not self._terms:
            return 0
        return min(self._terms)

    def half_items(self) -> List[Tuple[int, Scalar]]:
        return sorted(self._terms.items(), reverse=True)

    def has_integer_coefficients(self) -> bool:
        return all(c.denominator == 1 for c in self._terms.values())

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _is_const(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and 0 in self._terms)

    def _coerce(self, other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly(self.var, {0: other})
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
        var = self._result_var(other)
        terms = dict(self._terms)
        get = terms.get
        for h, c in other._terms.items():
            terms[h] = get(h, 0) + c
        return LaurentPoly._make(var, _fold(terms))

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._make(self.var, {h: -c for h, c in self._terms.items()})

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        var = self._result_var(other)
        out: Dict[int, Scalar] = {}
        get = out.get
        terms2 = other._terms.items()
        for h1, c1 in self._terms.items():
            for h2, c2 in terms2:
                h = h1 + h2
                out[h] = get(h, 0) + c1 * c2
        return LaurentPoly._make(var, _fold(out))

    __rmul__ = __mul__

    @classmethod
    def sum_of_products(
        cls, pairs: Iterable[Tuple["LaurentPoly", "LaurentPoly"]]
    ) -> "LaurentPoly":
        """sum a*b over the pairs, the same polynomial as folding
        ``total = total + a * b`` from ``zero("q")``.

        Every product is accumulated into one dict and folded once at the
        end, instead of a fresh dict for each product and each partial sum.
        Each pair's tags go through ``_result_var``; when a product's tag
        differs from the running one, the running sum and that product are
        built as ``__add__`` would see them, so a mismatch raises and a
        constant adopts the other tag exactly as in the fold.
        """
        var = "q"
        out: Dict[int, Scalar] = {}
        get = out.get
        for a, b in pairs:
            if a._result_var(b) != var:
                var = cls._make(var, _fold(out))._result_var(a * b)
            terms2 = b._terms.items()
            for h1, c1 in a._terms.items():
                for h2, c2 in terms2:
                    h = h1 + h2
                    out[h] = get(h, 0) + c1 * c2
        return cls._make(var, _fold(out))

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = LaurentPoly.one(self.var)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c: Scalar) -> "LaurentPoly":
        c = _as_coeff(c)
        return LaurentPoly._make(self.var, _fold({h: cc * c for h, cc in self._terms.items()}))

    def shifted(self, half_steps: int) -> "LaurentPoly":
        """Multiply by ``var**(half_steps/2)``."""
        return LaurentPoly._make(self.var, {h + half_steps: c for h, c in self._terms.items()})

    def times_power(self, exp: int) -> "LaurentPoly":
        """Multiply by ``var**exp`` for an integer exponent."""
        return self.shifted(2 * exp)

    # ------------------------------------------------------------------
    # the operations of the scalar layer
    # ------------------------------------------------------------------
    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self / other in the Laurent ring.

        Raises NonExactDivision when the remainder is nonzero, which signals
        a violated divisibility invariant upstream.
        """
        other = self._coerce(other)
        if other is None or not isinstance(other, LaurentPoly):
            raise TypeError("exact_div expects a LaurentPoly")
        if other.is_zero:
            raise DivisionByZero("division by the zero polynomial")
        if self.is_zero:
            return LaurentPoly(self.var, {})
        ma, mb = self.min_half_exp(), other.min_half_exp()
        a = {h - ma: c for h, c in self._terms.items()}
        b = {h - mb: c for h, c in other._terms.items()}
        quot, rem = _divmod_half(a, b)
        if rem:
            raise NonExactDivision(f"({self}) is not divisible by ({other})")
        return LaurentPoly._make(self.var, {h + ma - mb: c for h, c in quot.items()})

    def evaluate(self, x: Scalar) -> Fraction:
        """Exact value at a rational point.

        Polynomials with half-integer exponents are rejected (no square-root
        semantics), and negative exponents require ``x != 0``.
        """
        if self.has_half_exponents():
            raise DomainError("cannot evaluate a polynomial with half-integer exponents")
        x = Fraction(_as_coeff(x))
        if x == 0 and self.min_half_exp() < 0:
            raise DomainError("evaluation at 0 with negative exponents present")
        total = Fraction(0)
        for h, c in self._terms.items():
            total += c * x ** (h // 2)
        return total

    def substitute_inverse(self) -> "LaurentPoly":
        """Substitute the reciprocal variable and swap the tag t <-> q.

        Each ``t**e`` becomes ``q**(-e)`` (and vice versa); applying the map
        twice returns the original polynomial.
        """
        return LaurentPoly._make(_TAG_SWAP[self.var], {-h: c for h, c in self._terms.items()})

    # ------------------------------------------------------------------
    # equality / hashing / pickling
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly(self.var, {0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self._terms != other._terms:
            return False
        # equal nonzero polynomials must share a tag unless both are constants
        if self._terms and not (len(self._terms) == 1 and 0 in self._terms):
            return self.var == other.var
        return True

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.var, tuple(sorted(self._terms.items()))))
        return self._hash

    def __reduce__(self):
        return (LaurentPoly, (self.var, self._terms))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # ------------------------------------------------------------------
    # text forms
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks: List[str] = []
        for h, c in self.half_items():
            body = self._term_body(h, abs(c))
            if not chunks:
                chunks.append(body if c > 0 else "-" + body)
            else:
                chunks.append((" + " if c > 0 else " - ") + body)
        return "".join(chunks)

    def _term_body(self, h: int, mag: Scalar) -> str:
        if h == 0:
            return str(mag)
        if h % 2 == 0:
            e = h // 2
            vpart = self.var if e == 1 else f"{self.var}^{e}"
        else:
            vpart = f"{self.var}^({h}/2)"
        if mag == 1:
            return vpart
        return f"{mag}*{vpart}"

    def __repr__(self) -> str:
        return f"LaurentPoly({self.var!r}, {self!s})"

    def to_latex(self) -> str:
        if not self._terms:
            return "0"
        chunks: List[str] = []
        for h, c in self.half_items():
            if h == 0:
                body = _frac_latex(abs(c))
            else:
                e = f"{h // 2}" if h % 2 == 0 else f"{h}/2"
                vpart = self.var if e == "1" else f"{self.var}^{{{e}}}"
                body = vpart if abs(c) == 1 else _frac_latex(abs(c)) + vpart
            if not chunks:
                chunks.append(body if c > 0 else "-" + body)
            else:
                chunks.append(("+" if c > 0 else "-") + body)
        return "".join(chunks)

    def terms_json(self) -> List[List[int]]:
        """``[[exponent, numerator, denominator], ...]`` with exponents descending."""
        if self.has_half_exponents():
            raise DomainError("JSON form is defined for integer exponents only")
        return [[h // 2, c.numerator, c.denominator] for h, c in self.half_items()]

    _TERM_RE = re.compile(
        r"^(?P<coeff>\d+(?:/\d+)?)?"
        r"(?:\*?(?P<var>[qt])"
        r"(?:\^(?P<exp>-?\d+|\(-?\d+/2\)))?)?$"
    )

    @classmethod
    def parse(cls, text: str, var: str | None = None) -> "LaurentPoly":
        """Parse the canonical string form produced by ``str``."""
        s = text.strip().replace(" ", "")
        if not s:
            raise ValueError("empty polynomial string")
        terms: Dict[int, Scalar] = {}
        seen_var = var
        for piece in _split_terms(s):
            sign = 1
            if piece.startswith("-"):
                sign, piece = -1, piece[1:]
            m = cls._TERM_RE.match(piece)
            if not m or (m.group("coeff") is None and m.group("var") is None):
                raise ValueError(f"cannot parse polynomial term {piece!r}")
            coeff = Fraction(m.group("coeff")) if m.group("coeff") else 1
            v = m.group("var")
            if v is not None:
                if seen_var is None:
                    seen_var = v
                elif v != seen_var:
                    raise ValueError(f"mixed variables {seen_var!r} and {v!r}")
                exp = m.group("exp")
                if exp is None:
                    h = 2
                elif exp.startswith("("):
                    h = int(exp[1:].split("/")[0])
                else:
                    h = 2 * int(exp)
            else:
                h = 0
            terms[h] = terms.get(h, 0) + sign * coeff
        return cls(seen_var or "q", terms)


def _split_terms(s: str) -> Iterator[str]:
    """Split on top-level +/- (respecting exponent minus signs and parens)."""
    depth = 0
    start = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > start and s[i - 1] != "^":
            yield s[start:i] if s[start] != "+" else s[start + 1 : i]
            start = i
    last = s[start:]
    yield last if not last.startswith("+") else last[1:]


def _frac_latex(c: Scalar) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"\\tfrac{{{c.numerator}}}{{{c.denominator}}}"


# ----------------------------------------------------------------------
# dict-level helpers (keys are half-unit exponents >= 0)
# ----------------------------------------------------------------------
def _divmod_half(a: Dict[int, Scalar], b: Dict[int, Scalar]):
    """Long division of ordinary term dicts; returns (quotient, remainder)."""
    a = dict(a)
    q: Dict[int, Scalar] = {}
    db = max(b)
    lb = b[db]
    while a:
        da = max(a)
        if da < db:
            break
        f = _div(a[da], lb)
        q[da - db] = f
        for h, c in b.items():
            nh = h + da - db
            nc = a.get(nh, 0) - f * c
            if nc:
                a[nh] = _as_coeff(nc)
            else:
                a.pop(nh, None)
    return q, a


def _gcd_half(a: Dict[int, Scalar], b: Dict[int, Scalar]) -> Dict[int, Scalar]:
    """Monic polynomial gcd of ordinary term dicts (Euclid over Q)."""
    a, b = dict(a), dict(b)
    while b:
        _, r = _divmod_half(a, b)
        a, b = b, r
    if a:
        lc = a[max(a)]
        if lc != 1:
            a = {h: _div(c, lc) for h, c in a.items()}
    return a


class RationalFunction:
    """Quotient of Laurent polynomials in canonical reduced form.

    Canonical form: the denominator is an ordinary polynomial (nonnegative
    exponents, nonzero constant term) made monic, and shares no polynomial
    factor with the ordinary part of the numerator.  Equality of canonical
    forms is therefore plain syntactic equality.

    The constructor is the one place that normalises.  Arithmetic wraps its
    result with ``_make`` instead, skipping the gcd, only where the result is
    canonical already, both operands sharing a variable tag:

    - polynomial * polynomial and polynomial + polynomial give a Laurent
      polynomial over 1, which is canonical;
    - c*q^(h/2) * (num/den) gives (c*q^(h/2)*num)/den: den(0) != 0, so the
      monomial shares no factor with den, and num/den was reduced;
    - -(num/den) is (-num)/den.

    A sum over one shared denominator other than 1 is normalised from
    (num1 + num2)/den, which skips the product of the denominators and the
    larger gcd.  A zero result always goes through the constructor, so zero
    has the one form 0/1.  Since the canonical form of a value is unique,
    every shortcut gives the same fields as the full normalisation.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1, var: str | None = None):
        if not isinstance(num, LaurentPoly):
            num = LaurentPoly.const(num, var or (den.var if isinstance(den, LaurentPoly) else "q"))
        if not isinstance(den, LaurentPoly):
            den = LaurentPoly.const(den, num.var)
        if num.var != den.var:
            if num._is_const():
                num = LaurentPoly(den.var, num._terms)
            elif den._is_const():
                den = LaurentPoly(num.var, den._terms)
            else:
                raise ValueError("numerator and denominator variable mismatch")
        if den.is_zero:
            raise DivisionByZero("rational function with zero denominator")
        v = num.var
        if num.is_zero:
            self.num = LaurentPoly.zero(v)
            self.den = LaurentPoly.one(v)
            return
        # make the denominator ordinary with a nonzero constant term
        md = den.min_half_exp()
        num = num.shifted(-md)
        den = den.shifted(-md)
        mn = num.min_half_exp()
        n_ord = {h - mn: c for h, c in num._terms.items()}
        d_ord = dict(den._terms)
        g = _gcd_half(n_ord, d_ord)
        if g and not (len(g) == 1 and 0 in g and g[0] == 1):
            n_ord, r1 = _divmod_half(n_ord, g)
            d_ord, r2 = _divmod_half(d_ord, g)
            if r1 or r2:
                raise NonExactDivision(f"gcd ({LaurentPoly(v, g)}) failed to divide exactly")
        lc = d_ord[max(d_ord)]
        if lc != 1:
            n_ord = {h: _div(c, lc) for h, c in n_ord.items()}
            d_ord = {h: _div(c, lc) for h, c in d_ord.items()}
        self.num = LaurentPoly(v, {h + mn: c for h, c in n_ord.items()})
        self.den = LaurentPoly(v, d_ord)

    @classmethod
    def _make(cls, num: LaurentPoly, den: LaurentPoly) -> "RationalFunction":
        """Wrap a pair already in canonical form without normalising it.

        A zero numerator still goes through ``__init__``, so zero keeps its
        one form (0 over 1).
        """
        if not num._terms:
            return cls(num, den)
        self = object.__new__(cls)
        self.num = num
        self.den = den
        return self

    # ------------------------------------------------------------------
    @property
    def var(self) -> str:
        return self.num.var if not self.num.is_zero else self.den.var

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def is_polynomial(self) -> bool:
        # the denominator is ordinary, monic and has a nonzero constant term,
        # so a one-term denominator is 1
        return len(self.den._terms) == 1

    # ------------------------------------------------------------------
    def _coerce(self, other) -> "RationalFunction | None":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return RationalFunction(other, 1, var=self.var)
        return None

    def __add__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.num.var == other.num.var and self.den == other.den:
            if self.is_polynomial():
                return RationalFunction._make(self.num + other.num, self.den)
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> "RationalFunction":
        return RationalFunction._make(-self.num, self.den)

    def __mul__(self, other) -> "RationalFunction":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.num.var == other.num.var:
            # a polynomial times a polynomial, or a monomial c*q^(h/2) times
            # anything: c*q^(h/2) shares no factor with a denominator whose
            # constant term is nonzero
            if self.is_polynomial() and (other.is_polynomial() or len(self.num._terms) == 1):
                return RationalFunction._make(self.num * other.num, other.den)
            if other.is_polynomial() and len(other.num._terms) == 1:
                return RationalFunction._make(self.num * other.num, self.den)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = RationalFunction(other, 1, var=self.var)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __reduce__(self):
        return (RationalFunction, (self.num, self.den))

    def __str__(self) -> str:
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__
