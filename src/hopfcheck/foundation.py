"""Exact scalars, scalar matrices, words, and noncommutative polynomials.

Everything downstream computes over these types: arbitrary-precision
rationals, matrices with exact inverses, words in a weighted alphabet
(tuples of generator indices), and finitely supported rational linear
combinations of words.
"""

import itertools
import operator
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

from .errors import (
    NeedsFieldExtension,
    NotInvertible,
    NotNormalized,
    NotScalarMultiple,
    NotSquare,
)

def frac(x):
    """Coerce an int, Fraction or "p/q" string to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def frac_str(x):
    """Canonical "p/q" form used in every external format."""
    return f"{x.numerator}/{x.denominator}"


def rational_sqrt(x):
    """Exact square root of a nonnegative rational, or None if irrational."""
    if x < 0:
        return None
    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


# ---------------------------------------------------------------------------
# scalar matrices


class Mat:
    """Immutable matrix of exact rationals in integer form: integer rows c
    over one denominator den > 0, gcd(den, *entries) = 1."""

    __slots__ = ("rows", "cols", "c", "den")

    def __init__(self, rows_of_entries):
        ratios = [[ratio(x) for x in row] for row in rows_of_entries]
        den = lcm(*(q for row in ratios for _, q in row))
        m = Mat.of([[p * (den // q) for p, q in row] for row in ratios], den)
        self.c, self.den, self.rows, self.cols = m.c, m.den, m.rows, m.cols
        if any(len(row) != self.cols for row in self.c):
            raise ValueError("ragged matrix")

    @classmethod
    def of(cls, c, den=1):
        """The matrix c/den of integer rows c and den > 0, in lowest terms."""
        g = gcd(den, *itertools.chain.from_iterable(c))
        m = object.__new__(cls)
        m.c = tuple(tuple(x // g for x in row) for row in c)
        m.den, m.rows, m.cols = den // g, len(m.c), len(m.c[0]) if m.c else 0
        return m

    @classmethod
    def identity(cls, n):
        return cls.of([[int(i == j) for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return Fraction(self.c[i][j], self.den)

    def __eq__(self, other):
        return isinstance(other, Mat) and self.den == other.den and self.c == other.c

    def __hash__(self):
        return hash((self.c, self.den))

    def __repr__(self):
        return f"Mat({[[str(self[i, j]) for j in range(self.cols)] for i in range(self.rows)]})"

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        cols = list(zip(*other.c))
        return Mat.of([[sum(map(operator.mul, row, col)) for col in cols] for row in self.c],
                      self.den * other.den)

    def transpose(self):
        return Mat.of(list(zip(*self.c)), self.den)

    def trace(self):
        if self.rows != self.cols:
            raise NotSquare("trace of a non-square matrix")
        return Fraction(sum(self.c[i][i] for i in range(self.rows)), self.den)

    def inverse(self):
        """Fraction-free Gauss-Jordan (Bareiss 1968): [c | I] ends as
        [p*I | p*c^-1], p the last pivot, and (c/den)^-1 = den*(p*c^-1)/p."""
        if self.rows != self.cols:
            raise NotSquare("inverse of a non-square matrix")
        n = self.rows
        work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(self.c)]
        prev = 1
        for col in range(n):
            piv = next((r for r in range(col, n) if work[r][col]), None)
            if piv is None:
                raise NotInvertible("singular matrix")
            work[col], work[piv] = work[piv], work[col]
            top = work[col]
            p = top[col]
            for r in range(n):
                if r != col:
                    f = work[r][col]
                    work[r] = [(p * x - f * y) // prev for x, y in zip(work[r], top)]
            prev = p
        scale = self.den if prev > 0 else -self.den
        return Mat.of([[scale * x for x in row[n:]] for row in work], abs(prev))

    def scalar_of_identity(self):
        """The scalar c with self = c*I, or None."""
        if self.rows != self.cols:
            return None
        x = self.c[0][0]
        if any(v != (x if i == j else 0)
               for i, row in enumerate(self.c) for j, v in enumerate(row)):
            return None
        return Fraction(x, self.den)

    def to_lists(self):
        return [[frac_str(self[i, j]) for j in range(self.cols)] for i in range(self.rows)]


# ---------------------------------------------------------------------------
# pair invariants of (A, B)


def matrix_invariants(A, B):
    """lambda with B^t A^t B A = lambda*I, and tr(A B^t).

    Also checks the transposed identity A^t B^t A B = lambda*I, which holds
    whenever the first does.
    """
    if A.rows != A.cols or B.rows != B.cols:
        raise NotSquare("A and B must be square")
    if A.rows != B.rows or A.rows < 2:
        raise NotSquare("A and B must have equal size n >= 2")
    A.inverse()
    B.inverse()
    M = B.transpose() * A.transpose() * B * A
    lam = M.scalar_of_identity()
    if lam is None or lam == 0:
        raise NotScalarMultiple("B^t A^t B A is not a nonzero multiple of I")
    M2 = A.transpose() * B.transpose() * A * B
    if M2.scalar_of_identity() != lam:
        raise NotScalarMultiple("A^t B^t A B != lambda*I")
    return {"lambda": lam, "trace": (A * B.transpose()).trace()}


def genericity_check(inv, q):
    """Rational-root genericity report for X^2 - tr(AB^t)X + 1, from the
    matrix_invariants ``inv`` of (A, B).

    The source also uses the sign variant X^2 + tr(AB^t)X + 1 in one place;
    both are reported.  "generic" means no rational root is a root of unity,
    and 1, -1 are the only rational roots of unity.  Requires lambda = 1.
    """
    if inv["lambda"] != 1:
        raise NotNormalized("genericity check requires lambda = 1")
    t = inv["trace"]
    q = frac(q)
    disc = t * t - 4
    s = rational_sqrt(disc)
    if s is None:
        raise NeedsFieldExtension(f"discriminant {disc} is not a rational square")
    roots = sorted({(t + s) / 2, (t - s) / 2})
    roots_alt = sorted({(-t + s) / 2, (-t - s) / 2})
    generic = all(r not in (1, -1) for r in roots)
    return {
        "trace": t,
        "satisfies_quadratic": q * q - t * q + 1 == 0,
        "satisfies_quadratic_alt": q * q + t * q + 1 == 0,
        "roots": roots,
        "roots_alt": roots_alt,
        "generic": generic,
    }


# ---------------------------------------------------------------------------
# words and monomial order

# A word is a tuple of generator indices; () is the unit.


class MonomialOrder:
    """Weight-graded order on words, total, multiplicative, well-founded.

    Comparison key, most significant first:
      1. total weight,
      2. length,
      3. positions of the heaviest-class letters pushed left (a word with a
         localized letter further left is larger, so rewriting moves it right),
      4. letter content (descending-sorted multiset of precedence ranks),
      5. left-to-right lexicographic on precedence ranks.

    Stages 1-2 and 4-5 are the usual graded refinements; stage 3 is what makes
    every normality rule "D*g -> sigma(g)*D" orient with D*g as the lead, so
    normal words keep localized letters rightmost.
    """

    __slots__ = ("weights", "precedence", "rank", "heavy")

    def __init__(self, weights, precedence=None, heavy=()):
        self.weights = tuple(weights)
        n = len(self.weights)
        self.precedence = tuple(precedence) if precedence is not None else tuple(range(n))
        if sorted(self.precedence) != list(range(n)):
            raise ValueError(f"precedence {list(self.precedence)} is not a permutation "
                             f"of the {n} letters")
        rank = [0] * n
        for pos, g in enumerate(self.precedence):
            rank[g] = pos
        self.rank = tuple(rank)
        # letters whose position dominates content (the localized letters)
        self.heavy = frozenset(heavy)

    def weight(self, word):
        return sum(map(self.weights.__getitem__, word))

    def key(self, word):
        ranks = tuple(self.rank[g] for g in word)
        heavy_pos = tuple(-i for i, g in enumerate(word) if g in self.heavy)
        return (
            self.weight(word),
            len(word),
            heavy_pos,
            tuple(sorted(ranks, reverse=True)),
            ranks,
        )

    def to_dict(self):
        return {
            "weights": list(self.weights),
            "precedence": list(self.precedence),
            "heavy": sorted(self.heavy),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["weights"], d["precedence"], d.get("heavy", ()))


# ---------------------------------------------------------------------------
# the integer form: nonzero integer numerators c over one denominator den > 0,
# gcd(den, *c) = 1, zero being ({}, 1).  The reducer works in it, arithmetic
# is fraction-free (Bareiss 1968), and only the .d view makes Fractions.  A
# stored c is never mutated.


def ratio(x):
    """(numerator, denominator) of an int or Fraction."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    raise TypeError(f"not an exact rational: {x!r}")


def lowest_ratio(n, d):
    """n/d, d != 0, as (p, q) in lowest terms with q > 0."""
    if not d:
        raise ZeroDivisionError(f"{n}/0")
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    return n // g, d // g


def ratios_form(ratios):
    """Integer ratios (p, q), q > 0, as a list of numerators over one
    denominator, in lowest terms."""
    ratios = list(ratios)
    den = lcm(*(q for _, q in ratios))
    c = [p * (den // q) for p, q in ratios]
    g = gcd(den, *c)
    return [x // g for x in c] if g != 1 else c, den // g


def int_form(d):
    """A rational dict as (c, den), zeros dropped."""
    c, den = ratios_form(map(ratio, d.values()))
    return {k: x for k, x in zip(d, c) if x}, den


def lowest_terms(c, den):
    """(c, den), nonzero integers c over den > 0, divided by gcd(den, *c)."""
    if den != 1:
        g = gcd(den, *c.values())
        if g != 1:
            return {k: x // g for k, x in c.items()}, den // g
    return c, den


def combine(den, parts):
    """The sum of n/den * c/d over parts [(n, (c, d)), ...], c a dict of
    nonzero integers and d > 0, in integer form.  Keys come in the order
    that summing the terms as Fractions gives, a cancelled key deleted."""
    if len(parts) == 1 and den == 1 and parts[0][0] == 1:
        return lowest_terms(*parts[0][1])
    common = 1
    for _, (_, d) in parts:
        if d != 1:
            common = lcm(common, d)
    out = {}
    for n, (c, d) in parts:
        f = n * (common // d)
        for k, x in c.items():
            nx = out.get(k, 0) + f * x
            if nx:
                out[k] = nx
            else:
                del out[k]
    return lowest_terms(out, den * common)


class _IntForm:
    """NCPoly's and TensorPoly's arithmetic; a subclass gives _like(c, den),
    its element of that form, and _join(k1, k2), the key of a product."""

    __slots__ = ("c", "den")

    @property
    def d(self):
        """A fresh {key: Fraction} dict of the coefficients."""
        den = self.den
        return {k: Fraction(n, den) for k, n in self.c.items()}

    def terms(self):
        return self.d.items()

    def is_zero(self):
        return not self.c

    def __eq__(self, other):
        return type(other) is type(self) and self.den == other.den and self.c == other.c

    def __hash__(self):
        return hash((frozenset(self.c.items()), self.den))

    def __add__(self, other):
        return self._like(*combine(1, [(1, (self.c, self.den)), (1, (other.c, other.den))]))

    def __sub__(self, other):
        return self._like(*combine(1, [(1, (self.c, self.den)), (-1, (other.c, other.den))]))

    def __neg__(self):
        return self._like({k: -n for k, n in self.c.items()}, self.den)

    def scale(self, p, q=1):
        """p/q times self, for integers p and q > 0."""
        return self._like(*lowest_terms({k: p * n for k, n in self.c.items()} if p else {},
                                        self.den * q))

    def __rmul__(self, x):
        return self.scale(*ratio(x))

    def __mul__(self, other):
        if not isinstance(other, _IntForm):
            return self.__rmul__(other)
        join, out = self._join, {}
        for k1, x1 in self.c.items():
            for k2, x2 in other.c.items():
                k = join(k1, k2)
                nx = out.get(k, 0) + x1 * x2
                if nx:
                    out[k] = nx
                else:
                    del out[k]
        return self._like(*lowest_terms(out, self.den * other.den))


# ---------------------------------------------------------------------------
# noncommutative polynomials


class NCPoly(_IntForm):
    """Finitely supported map word -> rational, in integer form (c, den);
    NCPoly(d) takes a dict of ints and Fractions."""

    __slots__ = ()
    _join = operator.add

    def __init__(self, d=None):
        self.c, self.den = int_form(d) if d else ({}, 1)

    @classmethod
    def of(cls, c, den=1):
        """The polynomial of (c, den), which must be in integer form."""
        p = object.__new__(cls)
        p.c, p.den = c, den
        return p

    def _like(self, c, den):
        return NCPoly.of(c, den)

    @classmethod
    def zero(cls):
        return cls.of({})

    @classmethod
    def one(cls):
        return cls.of({(): 1})

    @classmethod
    def term(cls, word, coeff=1):
        p, q = ratio(coeff)
        return cls.of({tuple(word): p}, q) if p else cls.of({})

    @classmethod
    def gen(cls, g):
        return cls.of({(g,): 1})

    def weight(self, order):
        """Largest word weight in the support (0 for the zero polynomial)."""
        return max(map(order.weight, self.c), default=0)

    def pretty(self, names):
        if not self.c:
            return "0"
        d = self.d
        bits = []
        for w in sorted(d, key=lambda w: (len(w), w)):
            mono = "*".join(names[g] for g in w) if w else "1"
            bits.append(f"({d[w]})*{mono}" if w else f"({d[w]})")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# componentwise tensor polynomials


class TensorPoly(_IntForm):
    """Finitely supported map (word, ..., word) -> rational, fixed arity, in
    integer form (c, den); TensorPoly(arity, d) takes a rational dict.

    Multiplication is componentwise concatenation; this is the free tensor
    power of the free algebra.  Reduction modulo relations happens upstream.
    """

    __slots__ = ("arity",)

    def __init__(self, arity, d=None):
        self.arity = arity
        self.c, self.den = int_form(d) if d else ({}, 1)
        if any(len(k) != arity for k in self.c):
            raise ValueError("arity mismatch")

    @classmethod
    def of(cls, arity, c, den=1):
        """The tensor of (c, den), which must be in integer form."""
        t = object.__new__(cls)
        t.arity, t.c, t.den = arity, c, den
        return t

    def _like(self, c, den):
        return TensorPoly.of(self.arity, c, den)

    @staticmethod
    def _join(k1, k2):
        return tuple(w1 + w2 for w1, w2 in zip(k1, k2))

    @classmethod
    def unit(cls, arity):
        return cls.of(arity, {((),) * arity: 1})

    @classmethod
    def term(cls, words, coeff=1):
        words = tuple(tuple(w) for w in words)
        return cls(len(words), {words: coeff})

    @classmethod
    def outer(cls, polys):
        """p_0 (x) ... (x) p_{k-1} of NCPolys."""
        c = {tuple(w for w, _ in combo): prod(n for _, n in combo)
             for combo in itertools.product(*(p.c.items() for p in polys))}
        return cls.of(len(polys), *lowest_terms(c, prod(p.den for p in polys)))

    def __eq__(self, other):
        return super().__eq__(other) and self.arity == other.arity

    def map_slot(self, i, f):
        """The image under f, a linear map of NCPolys, applied to slot i: the
        terms are grouped by their other slots and f maps each group once."""
        groups = {}
        for ks, n in self.c.items():
            groups.setdefault(ks[:i] + ks[i + 1 :], {})[ks[i]] = n
        images = [(rest, f(NCPoly.of(*lowest_terms(c, self.den)))) for rest, c in groups.items()]
        return TensorPoly.of(self.arity, *combine(1, [
            (1, ({rest[:i] + (w,) + rest[i:]: x for w, x in p.c.items()}, p.den))
            for rest, p in images]))
