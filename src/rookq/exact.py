"""Exact scalar arithmetic: rationals and Laurent polynomials.

The scalar tower is

    coefficient   int, or fractions.Fraction when not integral
    LaurentPoly                            (one tagged variable, q or t)

A stored coefficient is a plain ``int`` whenever it is integral and a
``Fraction`` only otherwise; a ``Fraction`` with denominator 1 is folded back
to ``int`` on construction, and a ``float`` is refused.  Character values,
border-strip weights, the seminormal entries and the power-sum expansions of
``symfunc`` (integer polynomials over one common denominator) therefore run
on ``int`` arithmetic.  A ``Fraction`` is stored where a rational value is
read out of such an expansion (``terms``, ``inner_product``, and
``schur_pairing``, whose one division by the denominator ``chi_oracle``
requires to be exact), and otherwise only by the coefficient parser,
``characters.perm_sum_closed_forms``, the random data of ``verify`` and the
gcd of ``RationalFunction``.  Exponents are plain integers: the key ``h``
stands for ``var**h``.

``LaurentPoly.sum_of_products`` sums a*b over many pairs into one dict and
folds it once, where ``__mul__`` and ``__add__`` would build a dict for every
product and every partial sum.  Only the Murnaghan-Nakayama route
(``characters.chi_mn``) uses it; the routes it is cross-checked against stay
on ``__mul__`` and ``__add__``, so no two compared routes share the kernel.

``RationalFunction`` only puts a quotient of two Laurent polynomials into
canonical reduced form, by a Euclidean gcd; it has no arithmetic.

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

    ``_terms`` maps integer exponents to nonzero coefficients, each an
    ``int`` when integral and a ``Fraction`` otherwise, never a ``float``.
    Instances are immutable (by convention: internal dicts are never touched
    after construction) and hashable, so they can be used as cache keys.
    """

    __slots__ = ("var", "_terms", "_hash")

    def __init__(self, var: str, terms: Mapping[int, Scalar] | None = None):
        if var not in _VALID_VARS:
            raise ValueError(f"unknown variable tag {var!r}")
        out: Dict[int, Scalar] = {}
        if terms:
            for h, c in terms.items():
                if not isinstance(h, int):
                    raise TypeError(f"expected an integer exponent, got {type(h).__name__}")
                c = _as_coeff(c)
                if c:
                    out[int(h)] = c
        self.var = var
        self._terms = out
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

    def items(self) -> List[Tuple[int, Scalar]]:
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

    def times_power(self, exp: int) -> "LaurentPoly":
        """Multiply by ``var**exp``."""
        return LaurentPoly._make(self.var, {h + exp: c for h, c in self._terms.items()})

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
        ma, mb = self.min_exp(), other.min_exp()
        a = {h - ma: c for h, c in self._terms.items()}
        b = {h - mb: c for h, c in other._terms.items()}
        quot, rem = _divmod(a, b)
        if rem:
            raise NonExactDivision(f"({self}) is not divisible by ({other})")
        return LaurentPoly._make(self.var, {h + ma - mb: c for h, c in quot.items()})

    def evaluate(self, x: Scalar) -> Fraction:
        """Exact value at a rational point; negative exponents require ``x != 0``."""
        x = Fraction(_as_coeff(x))
        if x == 0 and self.min_exp() < 0:
            raise DomainError("evaluation at 0 with negative exponents present")
        total = Fraction(0)
        for h, c in self._terms.items():
            total += c * x**h
        return total

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
        # a constant equals itself under either tag and as a plain number
        if self._hash is None:
            if self._is_const():
                self._hash = hash(self._terms.get(0, 0))
            else:
                self._hash = hash((self.var, tuple(sorted(self._terms.items()))))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    # ------------------------------------------------------------------
    # text forms
    # ------------------------------------------------------------------
    def __str__(self) -> str:
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

    def _term_body(self, h: int, mag: Scalar) -> str:
        if h == 0:
            return str(mag)
        vpart = self.var if h == 1 else f"{self.var}^{h}"
        if mag == 1:
            return vpart
        return f"{mag}*{vpart}"

    def __repr__(self) -> str:
        return f"LaurentPoly({self.var!r}, {self!s})"

    def to_latex(self) -> str:
        if not self._terms:
            return "0"
        chunks: List[str] = []
        for h, c in self.items():
            if h == 0:
                body = _frac_latex(abs(c))
            else:
                vpart = self.var if h == 1 else f"{self.var}^{{{h}}}"
                body = vpart if abs(c) == 1 else _frac_latex(abs(c)) + vpart
            if not chunks:
                chunks.append(body if c > 0 else "-" + body)
            else:
                chunks.append(("+" if c > 0 else "-") + body)
        return "".join(chunks)

    def terms_json(self) -> List[List[int]]:
        """``[[exponent, numerator, denominator], ...]`` with exponents descending."""
        return [[h, c.numerator, c.denominator] for h, c in self.items()]

    _TERM_RE = re.compile(
        r"^(?P<coeff>\d+(?:/\d+)?)?"
        r"(?:\*?(?P<var>[qt])"
        r"(?:\^(?P<exp>-?\d+))?)?$"
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
                h = 1 if exp is None else int(exp)
            else:
                h = 0
            terms[h] = terms.get(h, 0) + sign * coeff
        return cls(seen_var or "q", terms)


def _split_terms(s: str) -> Iterator[str]:
    """Split on +/- signs, except the minus sign of an exponent."""
    start = 0
    for i, ch in enumerate(s):
        if ch in "+-" and i > start and s[i - 1] != "^":
            yield s[start:i] if s[start] != "+" else s[start + 1 : i]
            start = i
    last = s[start:]
    yield last if not last.startswith("+") else last[1:]


def _frac_latex(c: Scalar) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"\\tfrac{{{c.numerator}}}{{{c.denominator}}}"


# ----------------------------------------------------------------------
# dict-level helpers (keys are exponents >= 0)
# ----------------------------------------------------------------------
def _divmod(a: Dict[int, Scalar], b: Dict[int, Scalar]):
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


def _gcd(a: Dict[int, Scalar], b: Dict[int, Scalar]) -> Dict[int, Scalar]:
    """Monic polynomial gcd of ordinary term dicts (Euclid over Q)."""
    a, b = dict(a), dict(b)
    while b:
        _, r = _divmod(a, b)
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
    forms is therefore plain syntactic equality.  Zero has the one form 0/1.
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
        md = den.min_exp()
        if md:
            num = num.times_power(-md)
            den = den.times_power(-md)
        mn = num.min_exp()
        n_ord = {h - mn: c for h, c in num._terms.items()}
        d_ord = dict(den._terms)
        g = _gcd(n_ord, d_ord)
        if g and not (len(g) == 1 and 0 in g and g[0] == 1):
            n_ord, r1 = _divmod(n_ord, g)
            d_ord, r2 = _divmod(d_ord, g)
            if r1 or r2:
                raise NonExactDivision(f"gcd ({LaurentPoly(v, g)}) failed to divide exactly")
        lc = d_ord[max(d_ord)]
        if lc != 1:
            n_ord = {h: _div(c, lc) for h, c in n_ord.items()}
            d_ord = {h: _div(c, lc) for h, c in d_ord.items()}
        self.num = LaurentPoly(v, {h + mn: c for h, c in n_ord.items()})
        self.den = LaurentPoly(v, d_ord)

    def is_polynomial(self) -> bool:
        # the denominator is ordinary, monic and has a nonzero constant term,
        # so a one-term denominator is 1
        return len(self.den._terms) == 1

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
