"""Multivariate Laurent polynomials with integer coefficients, and
rational functions as pairs of them.

These are the coefficients of the twisted Laurent ring: rational
functions in the k commuting fiber variables. A rational constant such
as 1/2 lives in the pair, as (1, 2); no polynomial holds a fraction.

A `LaurentPoly` keys its integer coefficients by one packed integer per
monomial, the layout of Monagan and Pearce (J. Symbolic Comput. 46,
2011). An exponent vector e is stored as e - lo, where lo is the
polynomial's vector of minimal exponents, so every field is >= 0. The
fields are `width` bits wide and the first variable is the most
significant, so integer order on keys is lex order on monomials. The
width depends only on the largest exponent span, and keeps every span
below 2^(width - 1): the top bit of each field stays free. So a product
packed at the width of its own span never carries across a field, and a
difference of keys is tested field by field under a mask of those top
bits, never by the sign of the packed integer.

A pair is reduced by its integer content always, and by a full
polynomial gcd once the term count passes a threshold. The gcd in
`poly_gcd` is native GCDHEU over Z, each candidate accepted only when
exact division confirms it; the package needs no sympy.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, isqrt
from operator import add, mul, sub
from types import SimpleNamespace

GCD_TERM_THRESHOLD = 4

Monomial = tuple[int, ...]

_WIDTH0 = 15  # bits per field: two variables pack below 2^30


def _width(span) -> int:
    """Bits per field for exponent spans `span`: the least 15 * 2^j with
    every span below 2^(width - 1)."""
    top = max(span, default=0)
    w = _WIDTH0
    while top >> (w - 1):
        w *= 2
    return w


def _shifts(n: int, w: int) -> range:
    """Bit offsets of the n fields, most significant first."""
    return range(w * (n - 1), -1, -w) if n else range(0)


def _pack(fields, w: int) -> int:
    key = 0
    for x in fields:
        key = (key << w) | x
    return key


def _unpack(key: int, n: int, w: int) -> list[int]:
    mask = (1 << w) - 1
    return [(key >> s) & mask for s in _shifts(n, w)]


def _rekey(terms: dict, n: int, w: int, off, nw: int) -> dict:
    """terms with every key's fields moved by off, repacked at width nw.
    Every moved field must lie in [0, 2^(nw - 1))."""
    if nw == w:
        # packing is linear, so moving all fields is one signed addition
        delta = sum(o << s for o, s in zip(off, _shifts(n, w)))
        return {k + delta: c for k, c in terms.items()} if delta else terms
    mask = (1 << w) - 1
    shifts = list(zip(_shifts(n, w), off))
    out = {}
    for k, c in terms.items():
        key = 0
        for s, o in shifts:
            key = (key << nw) | (((k >> s) & mask) + o)
        out[key] = c
    return out


def _integer(c) -> int:
    if type(c) is int:
        return c
    i = int(c)
    if i != c:
        raise ValueError(f"Laurent coefficients are integers, not {c!r}")
    return i


class LaurentPoly:
    """A Laurent polynomial over Z in `nvars` variables.

    `terms` maps the packed key of e - lo to the nonzero coefficient of
    x^e; `lo` and `span` are the exact minimal exponents and the exponent
    spans, and `width` = `_width(span)`. The representation is canonical,
    and a polynomial is never changed after it is made.
    """

    __slots__ = ("nvars", "lo", "span", "width", "terms")

    def __init__(self, nvars: int, lo: Monomial, span: Monomial, width: int,
                 terms: dict):
        self.nvars = nvars
        self.lo = lo
        self.span = span
        self.width = width
        self.terms = terms

    @staticmethod
    def from_dict(nvars: int, d: dict) -> "LaurentPoly":
        """From {exponent: integer}."""
        return _from_exponents(nvars, {tuple(e): _integer(c) for e, c in d.items()})

    @staticmethod
    def zero(nvars: int) -> "LaurentPoly":
        return LaurentPoly(nvars, (0,) * nvars, (0,) * nvars, _WIDTH0, {})

    @staticmethod
    def const(nvars: int, c) -> "LaurentPoly":
        return LaurentPoly.monomial(nvars, (0,) * nvars, c)

    @staticmethod
    def monomial(nvars: int, exp, c=1) -> "LaurentPoly":
        c = _integer(c)
        if not c:
            return LaurentPoly.zero(nvars)
        return LaurentPoly(nvars, tuple(exp), (0,) * nvars, _WIDTH0, {0: c})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def nterms(self) -> int:
        return len(self.terms)

    def items(self) -> list[tuple[Monomial, int]]:
        """(exponent, coefficient) pairs in lex order."""
        n, w, lo = self.nvars, self.width, self.lo
        return [(tuple(map(add, _unpack(k, n, w), lo)), self.terms[k])
                for k in sorted(self.terms)]

    def min_exponents(self) -> Monomial:
        return self.lo

    def leading(self) -> tuple[Monomial, int]:
        """(exponent, coefficient) of the lexicographically largest term."""
        k = max(self.terms)
        return tuple(map(add, _unpack(k, self.nvars, self.width), self.lo)), self.terms[k]

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return (self.terms == other.terms and self.lo == other.lo
                and self.width == other.width and self.nvars == other.nvars)

    def __hash__(self):
        return hash((self.nvars, self.lo, self.width, frozenset(self.terms.items())))

    def __repr__(self):
        return f"LaurentPoly({self.nvars}, {dict(self.items())!r})"

    def __add__(self, other):
        if not other.terms:
            return self
        if not self.terms:
            return other
        n = self.nvars
        if self.lo == other.lo and self.width == other.width:
            lo, w = self.lo, self.width
            span = tuple(map(max, self.span, other.span))
            ta, tb = self.terms, other.terms
        else:
            lo = tuple(map(min, self.lo, other.lo))
            span = tuple(max(a + s, b + t) - m for a, s, b, t, m in
                         zip(self.lo, self.span, other.lo, other.span, lo))
            w = _width(span)
            ta = _rekey(self.terms, n, self.width, tuple(map(sub, self.lo, lo)), w)
            tb = _rekey(other.terms, n, other.width, tuple(map(sub, other.lo, lo)), w)
        if len(ta) < len(tb):
            ta, tb = tb, ta
        d = dict(ta)
        get = d.get
        cancelled = False
        for k, c in tb.items():
            c += get(k, 0)
            if c:
                d[k] = c
            else:
                del d[k]
                cancelled = True
        if cancelled:
            return _settle_bounds(n, lo, w, d)
        return LaurentPoly(n, lo, span, w, d)

    def __neg__(self):
        return LaurentPoly(self.nvars, self.lo, self.span, self.width,
                           {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        ta, tb = self.terms, other.terms
        n = self.nvars
        if not ta or not tb:
            return LaurentPoly.zero(n)
        lo = tuple(map(add, self.lo, other.lo))
        # a one-term factor has key 0: only lo and the coefficients move
        if len(tb) == 1:
            return LaurentPoly(n, lo, self.span, self.width, _times(ta, tb[0]))
        if len(ta) == 1:
            return LaurentPoly(n, lo, other.span, other.width, _times(tb, ta[0]))
        # the extreme exponents of a product are sums of the factors' ones
        span = tuple(map(add, self.span, other.span))
        w = _width(span)
        zero = (0,) * n
        if self.width != w:
            ta = _rekey(ta, n, self.width, zero, w)
        if other.width != w:
            tb = _rekey(tb, n, other.width, zero, w)
        if len(ta) < len(tb):
            ta, tb = tb, ta
        d: dict = {}
        get = d.get
        tb = list(tb.items())
        for ka, ca in ta.items():
            for kb, cb in tb:
                k = ka + kb
                d[k] = get(k, 0) + ca * cb
        if not all(d.values()):
            d = {k: c for k, c in d.items() if c}
        return LaurentPoly(n, lo, span, w, d)

    def substitute_matrix(self, m) -> "LaurentPoly":
        """Monomial substitution x^e -> x^(M e); a ring automorphism for
        unimodular M."""
        n = self.nvars
        if not self.terms or m == _identity(n):
            return self
        if len(self.terms) == 1:
            lo = tuple(sum(map(mul, row, self.lo)) for row in m)
            return LaurentPoly(n, lo, self.span, self.width, self.terms)
        mask, lo = (1 << self.width) - 1, self.lo
        shifts = _shifts(n, self.width)
        d: dict = {}
        for k, c in self.terms.items():
            e = [((k >> s) & mask) + l for s, l in zip(shifts, lo)]
            ne = tuple(sum(map(mul, row, e)) for row in m)
            d[ne] = d.get(ne, 0) + c
        return _from_exponents(n, d)


_IDENTITY: dict[int, list] = {}


def _identity(n: int) -> list:
    if n not in _IDENTITY:
        _IDENTITY[n] = [[int(i == j) for j in range(n)] for i in range(n)]
    return _IDENTITY[n]


def _times(terms: dict, c: int) -> dict:
    return terms if c == 1 else {k: v * c for k, v in terms.items()}


def _from_exponents(n: int, d: dict) -> LaurentPoly:
    """The polynomial of {exponent tuple: integer}, zeros dropped."""
    if not all(d.values()):
        d = {e: c for e, c in d.items() if c}
    if not d:
        return LaurentPoly.zero(n)
    cols = list(zip(*d))
    lo = tuple(map(min, cols))
    span = tuple(max(col) - low for col, low in zip(cols, lo))
    w = _width(span)
    # packing is linear: the key of e - lo is pack(e) - pack(lo)
    weights = [1 << s for s in _shifts(n, w)]
    base = sum(map(mul, lo, weights))
    return LaurentPoly(n, lo, span, w,
                       {sum(map(mul, e, weights)) - base: c for e, c in d.items()})


def _settle_bounds(n: int, lo, w: int, d: dict) -> LaurentPoly:
    """The polynomial of keys d relative to lo at width w, after terms
    cancelled: the exact minimal exponents and spans are read again."""
    if not d:
        return LaurentPoly.zero(n)
    mask = (1 << w) - 1
    mins, spans = [], []
    for s in _shifts(n, w):
        fields = [(k >> s) & mask for k in d]
        low = min(fields)
        mins.append(low)
        spans.append(max(fields) - low)
    span = tuple(spans)
    nw = _width(span)
    if any(mins) or nw != w:
        d = _rekey(d, n, w, [-x for x in mins], nw)
    return LaurentPoly(n, tuple(map(add, lo, mins)), span, nw, d)


def poly_divide_exact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly | None:
    """a / b when b divides a over Z up to a monomial unit, else None.

    Both are taken relative to their minimal exponents, and a is divided
    by b's lex-leading term. A quotient q = a / b has minimal exponents
    lo(a) - lo(b) and spans span(a) - span(b) (Newton polytopes add), so
    a quotient exponent outside that box, or a quotient coefficient that
    is not an integer, means b does not divide a. Returning there is
    what stops the loop; inside the box every field stays below the
    free top bit, so each field is tested under a mask.
    """
    if not b.terms:
        raise ZeroDivisionError("division by zero polynomial")
    n = a.nvars
    if not a.terms:
        return LaurentPoly.zero(n)
    lo = tuple(map(sub, a.lo, b.lo))
    if len(b.terms) == 1:
        c = b.terms[0]
        if c == 1:
            return LaurentPoly(n, lo, a.span, a.width, a.terms)
        q = {}
        for k, v in a.terms.items():
            x, r = divmod(v, c)
            if r:
                return None
            q[k] = x
        return LaurentPoly(n, lo, a.span, a.width, q)
    span = tuple(map(sub, a.span, b.span))
    if any(s < 0 for s in span):
        return None
    w = a.width
    tb = b.terms if b.width == w else _rekey(b.terms, n, b.width, (0,) * n, w)
    guard = _pack([1 << (w - 1)] * n, w)
    box = _pack(span, w) + guard
    lead = max(tb)
    lc = tb[lead]
    rest = [(k, c) for k, c in tb.items() if k != lead]
    lead -= guard
    rem = dict(a.terms)
    heap = [-k for k in rem]
    heapify(heap)
    q = {}
    while heap:
        e = -heappop(heap)
        c = rem.pop(e, 0)
        if not c:
            continue                      # a key that cancelled
        qe = e - lead                     # field i: e_i - lead_i + 2^(w-1)
        if qe & guard != guard:
            return None                   # some e_i < lead_i
        qe -= guard
        if (box - qe) & guard != guard:
            return None                   # some qe_i > span_i
        qc, r = divmod(c, lc)
        if r:
            return None
        q[qe] = qc
        for kb, cb in rest:
            k = qe + kb
            v = rem.get(k)
            if v is None:
                rem[k] = -qc * cb
                heappush(heap, -k)
            else:
                v -= qc * cb
                if v:
                    rem[k] = v
                else:
                    del rem[k]
    nw = _width(span)
    if nw != w:
        q = _rekey(q, n, w, (0,) * n, nw)
    return LaurentPoly(n, lo, span, nw, q)


HEU_TRIES = 6              # evaluation points before GCDHEU gives up
HEU_BITS = 1 << 20         # nor may an evaluated integer pass this size


def _heu_gcd(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly | None:
    """GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989):
    the gcd in Z[x] of f and g taken relative to their minimal exponents,
    with minimal exponents 0 and a positive lex-leading coefficient; None
    when it gives up.

    The last variable is evaluated at xi, the gcd of the images is found
    by recursion down to integers, and a candidate is read back by
    symmetric xi-adic expansion. Its primitive part is the gcd when it
    divides both operands, so exact division decides; otherwise xi
    grows as in sympy's heugcd, HEU_TRIES times at most.

    The recursion drops the images' monomial content. xi exceeds 1 + |p|
    for the operand p of smaller norm, so by Cauchy's root bound no part
    of p free of some variable vanishes at xi: p's image has no monomial
    content to share.
    """
    n = f.nvars
    ft, gt = f.terms, g.terms
    cf, cg = gcd(*ft.values()), gcd(*gt.values())
    c = gcd(cf, cg)
    if len(ft) == 1 or len(gt) == 1:
        return LaurentPoly.const(n, c)
    zero = (0,) * n
    # the operands at the gcd's scale: primitive, with no monomial content
    f = LaurentPoly(n, zero, f.span, f.width,
                    ft if cf == 1 else {k: v // cf for k, v in ft.items()})
    g = LaurentPoly(n, zero, g.span, g.width,
                    gt if cg == 1 else {k: v // cg for k, v in gt.items()})
    w = max(f.width, g.width)
    ft, gt = _rekey(f.terms, n, f.width, zero, w), _rekey(g.terms, n, g.width, zero, w)
    norms = [max(map(abs, t.values())) for t in (ft, gt)]
    top = min(f.span[-1], g.span[-1])      # the gcd's degree in the last variable
    xi = 2 * min(norms) + 29
    for _ in range(HEU_TRIES):
        # an image's coefficients have about |f| * xi^deg bits
        if max(norms).bit_length() + max(f.span[-1], g.span[-1]) * xi.bit_length() \
                > HEU_BITS:
            return None
        ff, gg = _evaluate_last(ft, n, w, xi), _evaluate_last(gt, n, w, xi)
        if ff.terms and gg.terms:
            h = _heu_gcd(ff, gg)
            if h is None:
                return None
            h = _interpolate(h, n, w, xi, top)
            if h is not None and poly_divide_exact(f, h) is not None \
                    and poly_divide_exact(g, h) is not None:
                return h if c == 1 else LaurentPoly(n, zero, h.span, h.width,
                                                    _times(h.terms, c))
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def _evaluate_last(terms: dict, n: int, w: int, xi: int) -> LaurentPoly:
    """The polynomial of keys `terms` at width w, relative to exponents 0,
    with its last variable set to xi."""
    mask = (1 << w) - 1
    powers: dict = {}
    d: dict = {}
    get = d.get
    for k, c in terms.items():
        e = k & mask
        p = powers.get(e)
        if p is None:
            p = powers[e] = xi ** e
        k >>= w
        d[k] = get(k, 0) + c * p
    if not all(d.values()):
        d = {k: c for k, c in d.items() if c}
    return _settle_bounds(n - 1, (0,) * (n - 1), w, d)


def _interpolate(h: LaurentPoly, n: int, w: int, xi: int, top: int):
    """The primitive part, with a positive lex-leading coefficient, of the
    polynomial in n variables whose value at x_n = xi is h, read by
    symmetric xi-adic expansion of each coefficient; None when that
    needs a degree above `top`, as no gcd of the operands can."""
    half = xi >> 1
    out = {}
    for k, c in _rekey(h.terms, n - 1, h.width, (0,) * (n - 1), w).items():
        k <<= w
        for i in range(top + 1):
            r = c % xi
            if r > half:
                r -= xi
            if r:
                out[k | i] = r
            c = (c - r) // xi
            if not c:
                break
        else:
            return None
    p = _settle_bounds(n, (0,) * n, w, out)
    c = gcd(*p.terms.values())
    if p.terms[max(p.terms)] < 0:
        c = -c
    if c == 1:
        return p
    return LaurentPoly(n, p.lo, p.span, p.width, {k: v // c for k, v in p.terms.items()})


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Gcd over Z up to a monomial unit; gcd(0, b) = b. A monomial
    operand gives 1, which is a gcd over Q. When GCDHEU gives up the
    result is 1: still a common divisor, so a pair it reduces stays
    correct but unreduced."""
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    if a.nvars == 0 or a.nterms() == 1 or b.nterms() == 1:
        return LaurentPoly.const(a.nvars, 1)
    # most operands met in elimination divide one another
    if poly_divide_exact(a, b) is not None:
        return b
    if poly_divide_exact(b, a) is not None:
        return a
    g = _heu_gcd(a, b)
    return LaurentPoly.const(a.nvars, 1) if g is None else g


def poly_lcm(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    g = poly_gcd(a, b)
    q = poly_divide_exact(b, g)
    return a * q


def _sympy_gcd(*args, **kwargs):
    import sympy
    return sympy.gcd(*args, **kwargs)


def _sympy_div(*args, **kwargs):
    import sympy
    return sympy.div(*args, **kwargs)


# Only the benchmark's tracer uses this: it wraps `sympy.gcd` and
# `sympy.div` here as layers. Nothing in the package calls them, and
# each imports sympy only when called. The next benchmark change drops
# this namespace together with the tracer's SYMPY_LAYERS.
sympy = SimpleNamespace(gcd=_sympy_gcd, div=_sympy_div)


def _settle(num: LaurentPoly, den: LaurentPoly) -> "RationalFunction":
    """The normal form of num / den: the denominator's monomial content
    moves into the numerator, the pair is divided by its integer content,
    and the denominator's lex-leading coefficient is made positive."""
    n = num.nvars
    if any(den.lo):
        num = LaurentPoly(n, tuple(map(sub, num.lo, den.lo)), num.span, num.width,
                          num.terms)
        den = LaurentPoly(n, (0,) * n, den.span, den.width, den.terms)
    c = gcd(*num.terms.values(), *den.terms.values())
    if den.terms[max(den.terms)] < 0:
        c = -c
    if c != 1:
        num = LaurentPoly(n, num.lo, num.span, num.width,
                          {k: v // c for k, v in num.terms.items()})
        den = LaurentPoly(n, den.lo, den.span, den.width,
                          {k: v // c for k, v in den.terms.items()})
    return RationalFunction(num, den)


class RationalFunction:
    """num / den with num, den in Z[x^±1]: den has minimal exponents 0 and
    a positive lex-leading coefficient, and no integer > 1 divides every
    coefficient of both. The pair is reduced by a polynomial gcd when
    either part has more than GCD_TERM_THRESHOLD terms."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        self.num = num
        self.den = den

    @staticmethod
    def make(num: LaurentPoly, den: LaurentPoly) -> "RationalFunction":
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            return RationalFunction(LaurentPoly.zero(num.nvars),
                                    LaurentPoly.const(num.nvars, 1))
        if (num.nterms() > GCD_TERM_THRESHOLD or den.nterms() > GCD_TERM_THRESHOLD) \
                and den.nterms() > 1:
            g = poly_gcd(num, den)
            num, den = poly_divide_exact(num, g), poly_divide_exact(den, g)
        return _settle(num, den)

    @staticmethod
    def from_poly(p: LaurentPoly) -> "RationalFunction":
        return RationalFunction.make(p, LaurentPoly.const(p.nvars, 1))

    @staticmethod
    def const(nvars: int, c) -> "RationalFunction":
        return RationalFunction.from_poly(LaurentPoly.const(nvars, c))

    @property
    def nvars(self) -> int:
        return self.num.nvars

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other):
        return RationalFunction.make(self.num * other.den + other.num * self.den,
                                     self.den * other.den)

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RationalFunction.make(self.num * other.num, self.den * other.den)

    def inverse(self) -> "RationalFunction":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero rational function")
        # make's gcd would be 1: a pair past the threshold is reduced
        # already, and a constant denominator shares no factor
        return _settle(self.den, self.num)

    def __truediv__(self, other):
        return self * other.inverse()

    def substitute_matrix(self, m) -> "RationalFunction":
        # a unimodular substitution keeps term counts and coprimality, so
        # the pair needs only its normal form again, as in `inverse`
        return _settle(self.num.substitute_matrix(m), self.den.substitute_matrix(m))

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return (self.num * other.den) == (other.num * self.den)

    def __hash__(self):
        # (num, den) is reduced by a gcd only past GCD_TERM_THRESHOLD
        # terms, so hash what a common factor g leaves alone: lex is a
        # monomial order, so the lex-leading term of num * g over that of
        # den * g is the same for every g, and likewise the trailing term;
        # each coefficient ratio is hashed as a reduced integer pair
        if self.num.is_zero:
            return hash((self.nvars, 0))
        num, den = self.num, self.den
        out = []
        for pick in (min, max):
            kn, kd = pick(num.terms), pick(den.terms)
            en = map(add, _unpack(kn, num.nvars, num.width), num.lo)
            ed = map(add, _unpack(kd, den.nvars, den.width), den.lo)
            cn, cd = num.terms[kn], den.terms[kd]
            g = gcd(cn, cd) if cd > 0 else -gcd(cn, cd)
            out += [tuple(map(sub, en, ed)), cn // g, cd // g]
        return hash(tuple(out))

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def nterms(self) -> int:
        return self.num.nterms() + self.den.nterms()
