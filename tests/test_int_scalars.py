"""Scalar matrices and characters in integer form against Fraction references.

Mat keeps integer rows over one positive denominator, in lowest terms, and
a Character keeps its generator values the same way.  _FractionMat below is
Mat as it was, rows of Fractions with a Gauss-Jordan inverse over Fractions.
sandwich and the character maps are compared with the Fraction
constructions they replaced.  Values must agree exactly, and sandwich's keys
must come in the same order.
"""

from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcheck.errors import NotInvertible, NotSquare
from hopfcheck.foundation import Mat, NCPoly, frac_str
from hopfcheck.hopf import Character, LocalizedElement, sandwich


# -- frozen reference ----------------------------------------------------------

class _FractionMat:
    """Mat as it was: Fraction rows, products summed entry by entry and
    Gauss-Jordan inversion over Fractions (None for a singular matrix)."""

    def __init__(self, rows):
        self.a = tuple(tuple(Fraction(x) for x in row) for row in rows)
        self.rows, self.cols = len(self.a), len(self.a[0])

    def __mul__(self, other):
        return _FractionMat([[sum((self.a[i][k] * other.a[k][j] for k in range(self.cols)),
                                  Fraction(0))
                              for j in range(other.cols)] for i in range(self.rows)])

    def transpose(self):
        return _FractionMat([[self.a[i][j] for i in range(self.rows)]
                             for j in range(self.cols)])

    def trace(self):
        return sum((self.a[i][i] for i in range(self.rows)), Fraction(0))

    def inverse(self):
        n = self.rows
        work = [list(row) + [Fraction(int(i == j)) for j in range(n)]
                for i, row in enumerate(self.a)]
        for col in range(n):
            piv = next((r for r in range(col, n) if work[r][col] != 0), None)
            if piv is None:
                return None
            work[col], work[piv] = work[piv], work[col]
            p = work[col][col]
            work[col] = [x / p for x in work[col]]
            for r in range(n):
                if r != col and work[r][col] != 0:
                    f = work[r][col]
                    work[r] = [x - f * y for x, y in zip(work[r], work[col])]
        return _FractionMat([row[n:] for row in work])

    def scalar_of_identity(self):
        c = self.a[0][0]
        if self.rows != self.cols or any(self.a[i][j] != (c if i == j else 0)
                                         for i in range(self.rows) for j in range(self.cols)):
            return None
        return c


def _same(m, ref):
    """m is in integer form and holds ref's entries."""
    assert (m.rows, m.cols) == (ref.rows, ref.cols)
    assert all(type(x) is int for row in m.c for x in row) and type(m.den) is int
    assert m.den > 0 and gcd(m.den, *(x for row in m.c for x in row)) == 1
    got = [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]
    assert got == [list(row) for row in ref.a]
    assert all(type(x) is Fraction for row in got for x in row)
    assert m.to_lists() == [[frac_str(x) for x in row] for row in ref.a]


SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def _rows(r, c):
    return st.lists(st.lists(RATIONALS, min_size=c, max_size=c), min_size=r, max_size=r)


@st.composite
def _squares(draw):
    """A 2x2 or 3x3 matrix; every third one has its last row a multiple of
    its first, so it is singular."""
    n = draw(st.integers(2, 3))
    rows = draw(_rows(n, n))
    if draw(st.integers(0, 2)) == 0:
        k = draw(RATIONALS)
        rows[-1] = [k * x for x in rows[0]]
    return rows


# -- Mat -----------------------------------------------------------------------

@SETTINGS
@given(_squares(), _squares(), RATIONALS, st.integers(1, 6))
def test_mat_matches_fraction_reference(a, b, x, k):
    A, B = Mat(a), Mat(b)
    Af, Bf = _FractionMat(a), _FractionMat(b)
    _same(A, Af)
    _same(A.transpose(), Af.transpose())
    assert A.trace() == Af.trace() and type(A.trace()) is Fraction
    if A.rows == B.rows:
        _same(A * B, Af * Bf)
    inv = Af.inverse()
    if inv is None:
        with pytest.raises(NotInvertible):
            A.inverse()
    else:
        _same(A.inverse(), inv)
        assert A * A.inverse() == Mat.identity(A.rows)
    assert A.scalar_of_identity() == Af.scalar_of_identity()
    # x * I, built from its numerators, is scalar, and so is A * xI where A is
    xI = Mat.of([[x.numerator * (i == j) for j in range(A.rows)] for i in range(A.rows)],
                x.denominator)
    xIf = _FractionMat([[x * (i == j) for j in range(A.rows)] for i in range(A.rows)])
    _same(xI, xIf)
    assert xI.scalar_of_identity() == x
    assert (A * xI).scalar_of_identity() == (Af * xIf).scalar_of_identity()
    # equal values give equal matrices and hashes however they are written
    scaled = Mat.of([[y * k for y in row] for row in A.c], A.den * k)
    assert scaled == A and hash(scaled) == hash(A)
    assert (A == B) == (Af.a == Bf.a)
    changed = [list(row) for row in a]
    changed[0][0] += 1
    assert Mat(changed) != A


@SETTINGS
@given(st.integers(2, 3).flatmap(lambda r: st.integers(2, 3).flatmap(
    lambda c: st.tuples(_rows(r, c), _rows(c, r)))))
def test_rectangular_mat_matches_fraction_reference(ab):
    a, b = ab
    A, B = Mat(a), Mat(b)
    _same(A * B, _FractionMat(a) * _FractionMat(b))
    _same(A.transpose(), _FractionMat(a).transpose())
    if A.rows != A.cols:
        for op in (A.inverse, A.trace):
            with pytest.raises(NotSquare):
                op()
        assert A.scalar_of_identity() is None


def test_singular_and_non_square_raise():
    with pytest.raises(NotInvertible):
        Mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]]).inverse()
    with pytest.raises(NotInvertible):
        Mat([[0, 0], [0, 0]]).inverse()
    with pytest.raises(NotSquare):
        Mat([[1, 2, 3], [4, 5, 6]]).inverse()


# -- sandwich ------------------------------------------------------------------

def _ref_sandwich(L, R, i, j, transpose):
    """(L u R)_ij as the dict of Fraction products it was built from."""
    Lf, Rf = _FractionMat(L), _FractionMat(R)
    return NCPoly({((l * Lf.cols + k if transpose else k * Rf.rows + l),):
                   Lf.a[i][k] * Rf.a[l][j] for k in range(Lf.cols) for l in range(Rf.rows)})


@SETTINGS
@given(_squares(), _squares(), st.booleans(), st.data())
def test_sandwich_matches_fraction_products(a, b, transpose, data):
    L, R = Mat(a), Mat(b)
    i = data.draw(st.integers(0, L.rows - 1))
    j = data.draw(st.integers(0, R.cols - 1))
    got, want = sandwich(L, R, i, j, transpose), _ref_sandwich(a, b, i, j, transpose)
    assert (list(got.c.items()), got.den) == (list(want.c.items()), want.den)


# -- characters ----------------------------------------------------------------

def _ref_value(values, le):
    """le = p D^-e under the character with these Fraction values."""
    v = sum((Fraction(n, le.num.den) * prod((values[g] for g in w), start=Fraction(1))
             for w, n in le.num.c.items()), Fraction(0))
    return v / values[le.alg.loc] ** le.exp if le.exp else v


def _elements(alg, data):
    """A few raw localized elements of alg: up to three words of length at
    most three with small rational coefficients, at exponent 0 to 2."""
    words = st.lists(st.integers(0, alg.ngens() - 1), max_size=3).map(tuple)
    return [LocalizedElement(alg, NCPoly(data.draw(st.dictionaries(words, RATIONALS, max_size=3))),
                             data.draw(st.integers(0, 2)))
            for _ in range(3)]


@pytest.mark.parametrize("name", ["glq8", "n3"])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_character_matches_fraction_arithmetic(name, request, data):
    """values, apply_loc and compose_map of ε and of a character with
    fractional values (the localized letter's nonzero) against Fractions."""
    alg = request.getfixturevalue(name)
    H = request.getfixturevalue(f"{name}_hopf")
    nonzero = RATIONALS.filter(bool)
    values = data.draw(st.lists(RATIONALS, min_size=alg.ngens() - 1, max_size=alg.ngens() - 1))
    values.append(data.draw(nonzero))
    for chi, vals in ((H.eps, H.eps.values), (Character(alg, values, name="χ"), values)):
        assert chi.values == vals and all(type(v) is Fraction for v in chi.values)
        for le in _elements(alg, data) + list(H.antipode.images):
            n, d = chi.apply_loc(le)
            want = _ref_value(vals, le)
            assert (type(n), type(d)) == (int, int)
            assert (n, d) == (want.numerator, want.denominator)
        for f in (H.antipode, H.antipode_squared):
            composed = chi.compose_map(f)
            assert composed.values == [_ref_value(vals, img) for img in f.images]
