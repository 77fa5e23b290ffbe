"""Exact arithmetic in Q and in the rational function field Q(kappa).

A field element is stored as a reduced fraction of integer-coefficient
polynomials in kappa (coefficient tuples, ascending powers).  The canonical
form is unique: the polynomial parts share no factor over Q, the integer
contents of numerator and denominator are coprime, and the denominator has
positive leading coefficient.  Two elements are equal iff their stored tuples
are equal, so hashing and exact comparison are cheap.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class PoleAtKappa(ArithmeticError):
    """Specialization hit a vanishing denominator at the requested value."""

    def __init__(self, kappa, detail=""):
        self.kappa = kappa
        super().__init__(f"pole at kappa = {kappa}" + (f": {detail}" if detail else ""))


# ---------------------------------------------------------------------------
# integer polynomial helpers (tuples, ascending powers, no trailing zeros)
# ---------------------------------------------------------------------------


def _trim(coeffs) -> tuple[int, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _add(f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return _trim(out)


def _neg(f):
    return tuple(-c for c in f)


def _mul(f, g):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _trim(out)


def _scale(f, c: int):
    if c == 0:
        return ()
    return tuple(a * c for a in f)


def _content(f) -> int:
    c = 0
    for a in f:
        c = gcd(c, a)
        if c == 1:
            return 1
    return c


def _primitive(f):
    """(content, primitive part with positive leading coefficient)."""
    if not f:
        return 0, ()
    c = _content(f)
    if f[-1] < 0:
        c = -c
    return c, tuple(a // c for a in f)


def _pseudo_rem(f, g):
    """Pseudo-remainder of f by g over the integers (deg f >= deg g >= 0)."""
    dg = len(g) - 1
    lg = g[-1]
    r = list(f)
    while len(r) - 1 >= dg:
        lf = r[-1]
        shift = len(r) - 1 - dg
        r = [c * lg for c in r[:-1]]
        for i in range(dg):
            r[shift + i] -= lf * g[i]
        while r and r[-1] == 0:
            r.pop()
        if not r:
            break
    return tuple(r)


def _gcd_poly(f, g):
    """Primitive gcd over Z of the primitive parts (positive leading coeff)."""
    if len(f) <= 1 or len(g) <= 1:
        # a constant is coprime to everything after taking primitive parts
        if not f:
            return _primitive(g)[1]
        if not g:
            return _primitive(f)[1]
        return (1,)
    _, f = _primitive(f)
    _, g = _primitive(g)
    if len(f) < len(g):
        f, g = g, f
    while g:
        r = _pseudo_rem(f, g)
        f, g = g, _primitive(r)[1]
    return f


def _exact_div(f, g):
    """Exact quotient of integer polynomials; raises if not divisible."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if not f:
        return ()
    df, dg = len(f) - 1, len(g) - 1
    if df < dg:
        raise ValueError("not divisible")
    out = [0] * (df - dg + 1)
    rem = list(f)
    for shift in range(df - dg, -1, -1):
        lead = rem[shift + dg]
        if lead % g[-1]:
            raise ValueError("not divisible")
        q = lead // g[-1]
        out[shift] = q
        if q:
            for i, b in enumerate(g):
                rem[shift + i] -= q * b
    if any(rem):
        raise ValueError("not divisible")
    return _trim(out)


def _eval_homogeneous(f, p: int, q: int) -> int:
    """q^(len(f) - 1) * f(p/q), by Horner steps on the homogenised form."""
    out, qk = 0, 1
    for c in reversed(f):
        out = out * p + c * qk
        qk *= q
    return out


# ---------------------------------------------------------------------------
# the field
# ---------------------------------------------------------------------------


class RatFunc:
    """Element of Q(kappa) in canonical reduced form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,), *, _canonical=False):
        num = _trim(tuple(num))
        den = _trim(tuple(den))
        if not den:
            raise ZeroDivisionError("zero denominator in Q(kappa)")
        if not _canonical:
            num, den = _canonicalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "RatFunc":
        return RatFunc((n,) if n else (), (1,), _canonical=True)

    @staticmethod
    def from_fraction(q) -> "RatFunc":
        q = Fraction(q)
        return RatFunc(
            (q.numerator,) if q.numerator else (), (q.denominator,), _canonical=True
        )

    @staticmethod
    def kappa() -> "RatFunc":
        return RatFunc((0, 1), (1,), _canonical=True)

    @staticmethod
    def kappa_inverse() -> "RatFunc":
        return RatFunc((1,), (0, 1), _canonical=True)

    # -- predicates ------------------------------------------------------------

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and len(self.den) == 1

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return Fraction(self.num[0] if self.num else 0, self.den[0])

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, int):
            return RatFunc.from_int(other)
        if isinstance(other, Fraction):
            return RatFunc.from_fraction(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(
            _add(_mul(self.num, other.den), _mul(other.num, self.den)),
            _mul(self.den, other.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(_neg(self.num), self.den, _canonical=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RatFunc(_mul(self.num, other.num), _mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def inverse(self) -> "RatFunc":
        if not self.num:
            raise ZeroDivisionError("division by zero in Q(kappa)")
        return RatFunc(self.den, self.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    # -- evaluation and I/O ------------------------------------------------------

    def evaluate(self, kappa0) -> Fraction:
        """Exact value at kappa = kappa0; raises PoleAtKappa on a vanishing
        denominator (removable singularities cannot occur in reduced form)."""
        kappa0 = Fraction(kappa0)
        p, q = kappa0.numerator, kappa0.denominator
        num = _eval_homogeneous(self.num, p, q)
        den = _eval_homogeneous(self.den, p, q)
        if den == 0:
            if num == 0:
                raise ValueError(f"{self} is not reduced: 0/0 at kappa = {kappa0}")
            raise PoleAtKappa(kappa0)
        # the value is num / den times q^(deg den - deg num)
        shift = len(self.den) - len(self.num)
        if shift >= 0:
            return Fraction(num * q**shift, den)
        return Fraction(num, den * q**-shift)

    def to_json(self):
        return {
            "num": [str(c) for c in self.num],
            "den": [str(c) for c in self.den],
        }

    @staticmethod
    def from_json(obj) -> "RatFunc":
        """The inverse of ``to_json``; a ValueError unless "num" and "den"
        are lists of ints or integer strings."""
        num, den = obj["num"], obj["den"]
        for seq in (num, den):
            if not isinstance(seq, list) or any(type(c) not in (int, str) for c in seq):
                raise ValueError(f"coefficients {seq!r} are not a list of integers")
        return RatFunc(tuple(map(int, num)), tuple(map(int, den)))

    def __repr__(self):
        return f"RatFunc({_poly_str(self.num)!r}, {_poly_str(self.den)!r})"

    def __str__(self):
        if self.den == (1,):
            return _poly_str(self.num)
        return f"({_poly_str(self.num)})/({_poly_str(self.den)})"


def _exact_div_primitive(f, g):
    """f / g where primitive g divides the primitive part of f."""
    c, p = _primitive(f)
    return _scale(_exact_div(p, g), c)


def _canonicalize(num, den):
    if not num:
        return (), (1,)
    g = _gcd_poly(num, den)
    if len(g) > 1:
        num = _exact_div_primitive(num, g)
        den = _exact_div_primitive(den, g)
    # coprime polynomial parts: only the contents remain to be scaled
    cn, pn = _primitive(num)
    cd, pd = _primitive(den)
    scalar = Fraction(cn, cd)
    return _scale(pn, scalar.numerator), _scale(pd, scalar.denominator)


def clear_denominators(values) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """(q, numerators) with q the lcm in Z[kappa] of the distinct
    denominators of ``values`` and each numerator c * q in Z[kappa].

    One polynomial gcd and two exact divisions per distinct denominator;
    nothing is canonicalized.
    """
    values = list(values)
    parts = {}
    content, prim = 1, (1,)
    for den in {c.den for c in values}:
        c, p = _primitive(den)
        parts[den] = (c, p)
        content = lcm(content, c)
        prim = _mul(prim, _exact_div(p, _gcd_poly(prim, p)))
    cofactor = {
        den: _scale(_exact_div(prim, p), content // c) for den, (c, p) in parts.items()
    }
    return _scale(prim, content), [_mul(c.num, cofactor[c.den]) for c in values]


KAPPA = RatFunc.kappa()


def _poly_str(f) -> str:
    if not f:
        return "0"
    parts = []
    for i, c in enumerate(f):
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(f"{c}*k" if abs(c) != 1 else ("k" if c > 0 else "-k"))
        else:
            parts.append(f"{c}*k^{i}" if abs(c) != 1 else (f"k^{i}" if c > 0 else f"-k^{i}"))
    return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# rationals as "p/q" strings (the only exchange format for kappa values)
# ---------------------------------------------------------------------------


def parse_rational(text: str) -> Fraction:
    """The integer ``p`` or rational ``p/q`` of text; ZeroDivisionError if q = 0."""
    p, slash, q = text.strip().partition("/")
    try:
        return Fraction(int(p), int(q) if slash else 1)
    except ValueError:
        raise ValueError("expected an integer or p/q") from None


def format_rational(q) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)
