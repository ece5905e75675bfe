"""Exact scalars, scalar matrices, words, and noncommutative polynomials.

Everything downstream computes over these types: arbitrary-precision
rationals, matrices with exact inverses, words in a weighted alphabet
(tuples of generator indices), and finitely supported rational linear
combinations of words.
"""

import math
from fractions import Fraction

from .errors import (
    LambdaNotSquare,
    NeedsFieldExtension,
    NotInvertible,
    NotNormalized,
    NotScalarMultiple,
    NotSquare,
)

ZERO = Fraction(0)
ONE = Fraction(1)


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
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


# ---------------------------------------------------------------------------
# scalar matrices


class Mat:
    """Immutable matrix of exact rationals."""

    __slots__ = ("rows", "cols", "a")

    def __init__(self, rows_of_entries):
        a = tuple(tuple(frac(x) for x in row) for row in rows_of_entries)
        self.a = a
        self.rows = len(a)
        self.cols = len(a[0]) if a else 0
        for row in a:
            assert len(row) == self.cols, "ragged matrix"

    @classmethod
    def identity(cls, n):
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.a[i][j]

    def __eq__(self, other):
        return isinstance(other, Mat) and self.a == other.a

    def __hash__(self):
        return hash(self.a)

    def __repr__(self):
        return f"Mat({[[str(x) for x in row] for row in self.a]})"

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            return Mat(
                [
                    [
                        sum((self.a[i][k] * other.a[k][j] for k in range(self.cols)), ZERO)
                        for j in range(other.cols)
                    ]
                    for i in range(self.rows)
                ]
            )
        c = frac(other)
        return Mat([[c * x for x in row] for row in self.a])

    def __rmul__(self, other):
        c = frac(other)
        return Mat([[c * x for x in row] for row in self.a])

    def __add__(self, other):
        return Mat(
            [
                [self.a[i][j] + other.a[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def transpose(self):
        return Mat([[self.a[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def trace(self):
        if self.rows != self.cols:
            raise NotSquare("trace of a non-square matrix")
        return sum((self.a[i][i] for i in range(self.rows)), ZERO)

    def inverse(self):
        if self.rows != self.cols:
            raise NotSquare("inverse of a non-square matrix")
        n = self.rows
        work = [list(row) + [ONE if i == j else ZERO for j in range(n)]
                for i, row in enumerate(self.a)]
        for col in range(n):
            piv = next((r for r in range(col, n) if work[r][col] != 0), None)
            if piv is None:
                raise NotInvertible("singular matrix")
            work[col], work[piv] = work[piv], work[col]
            p = work[col][col]
            work[col] = [x / p for x in work[col]]
            for r in range(n):
                if r != col and work[r][col] != 0:
                    f = work[r][col]
                    work[r] = [x - f * y for x, y in zip(work[r], work[col])]
        return Mat([row[n:] for row in work])

    def scalar_of_identity(self):
        """The scalar c with self = c*I, or None."""
        if self.rows != self.cols:
            return None
        c = self.a[0][0]
        for i in range(self.rows):
            for j in range(self.cols):
                if self.a[i][j] != (c if i == j else 0):
                    return None
        return c

    def to_lists(self):
        return [[frac_str(x) for x in row] for row in self.a]


# ---------------------------------------------------------------------------
# pair invariants of (A, B)


def matrix_invariants(A, B):
    """lambda with B^t A^t B A = lambda*I, and tr(A B^t).

    Also asserts the transposed identity A^t B^t A B = lambda*I, which holds
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


def normalize_pair(A, B):
    """Rescale A by sqrt(1/lambda) so the new pair has lambda = 1."""
    lam = matrix_invariants(A, B)["lambda"]
    if lam == 1:
        return A, B
    s = rational_sqrt(1 / lam)
    if s is None:
        raise LambdaNotSquare(f"sqrt(1/lambda) irrational for lambda={lam}")
    return s * A, B


def genericity_check(A, B, q):
    """Rational-root genericity report for X^2 - tr(AB^t)X + 1.

    The source also uses the sign variant X^2 + tr(AB^t)X + 1 in one place;
    both are reported.  "generic" means no rational root is a root of unity,
    and 1, -1 are the only rational roots of unity.  Requires lambda = 1.
    """
    inv = matrix_invariants(A, B)
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
        return sum(self.weights[g] for g in word)

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

    def greater(self, w1, w2):
        return self.key(w1) > self.key(w2)

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
# noncommutative polynomials


class NCPoly:
    """Finitely supported map word -> rational; zero coefficients dropped."""

    __slots__ = ("d",)

    def __init__(self, d=None):
        self.d = {w: c for w, c in (d or {}).items() if c != 0}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(): ONE})

    @classmethod
    def term(cls, word, coeff=ONE):
        return cls({tuple(word): frac(coeff)})

    @classmethod
    def gen(cls, g):
        return cls({(g,): ONE})

    def is_zero(self):
        return not self.d

    def __eq__(self, other):
        return isinstance(other, NCPoly) and self.d == other.d

    def __hash__(self):
        return hash(frozenset(self.d.items()))

    def __add__(self, other):
        d = dict(self.d)
        for w, c in other.d.items():
            nc = d.get(w, ZERO) + c
            if nc:
                d[w] = nc
            else:
                d.pop(w, None)
        return NCPoly(d)

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, c):
        c = frac(c)
        if c == 0:
            return NCPoly()
        return NCPoly({w: c * x for w, x in self.d.items()})

    def __mul__(self, other):
        if not isinstance(other, NCPoly):
            return frac(other) * self
        d = {}
        for w1, c1 in self.d.items():
            for w2, c2 in other.d.items():
                w = w1 + w2
                nc = d.get(w, ZERO) + c1 * c2
                if nc:
                    d[w] = nc
                else:
                    del d[w]
        return NCPoly(d)

    def terms(self):
        return self.d.items()

    def max_word(self, order):
        return max(self.d, key=order.key)

    def weight(self, order):
        """Largest word weight in the support (0 for the zero polynomial)."""
        if not self.d:
            return 0
        return max(order.weight(w) for w in self.d)

    def coeff(self, word):
        return self.d.get(tuple(word), ZERO)

    def pretty(self, names):
        if not self.d:
            return "0"
        bits = []
        for w in sorted(self.d, key=lambda w: (len(w), w)):
            c = self.d[w]
            mono = "*".join(names[g] for g in w) if w else "1"
            bits.append(f"({c})*{mono}" if w else f"({c})")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# componentwise tensor polynomials


class TensorPoly:
    """Finitely supported map (word, ..., word) -> rational, fixed arity.

    Multiplication is componentwise concatenation; this is the free tensor
    power of the free algebra.  Reduction modulo relations happens upstream.
    """

    __slots__ = ("arity", "d")

    def __init__(self, arity, d=None):
        self.arity = arity
        self.d = {k: c for k, c in (d or {}).items() if c != 0}
        for k in self.d:
            assert len(k) == arity

    @classmethod
    def unit(cls, arity):
        return cls(arity, {((),) * arity: ONE})

    @classmethod
    def term(cls, words, coeff=ONE):
        words = tuple(tuple(w) for w in words)
        return cls(len(words), {words: frac(coeff)})

    def is_zero(self):
        return not self.d

    def __eq__(self, other):
        return (
            isinstance(other, TensorPoly)
            and self.arity == other.arity
            and self.d == other.d
        )

    def __add__(self, other):
        assert self.arity == other.arity
        d = dict(self.d)
        for k, c in other.d.items():
            nc = d.get(k, ZERO) + c
            if nc:
                d[k] = nc
            else:
                del d[k]
        return TensorPoly(self.arity, d)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, c):
        c = frac(c)
        if c == 0:
            return TensorPoly(self.arity)
        return TensorPoly(self.arity, {k: c * x for k, x in self.d.items()})

    def __mul__(self, other):
        if not isinstance(other, TensorPoly):
            return frac(other) * self
        assert self.arity == other.arity
        d = {}
        for k1, c1 in self.d.items():
            for k2, c2 in other.d.items():
                k = tuple(w1 + w2 for w1, w2 in zip(k1, k2))
                nc = d.get(k, ZERO) + c1 * c2
                if nc:
                    d[k] = nc
                else:
                    del d[k]
        return TensorPoly(self.arity, d)

    def terms(self):
        return self.d.items()
