import random
from fractions import Fraction

import pytest

from hopfcheck.errors import (
    NeedsFieldExtension,
    NotInvertible,
    NotScalarMultiple,
    NotSquare,
)
from hopfcheck.foundation import (
    Mat,
    MonomialOrder,
    NCPoly,
    TensorPoly,
    frac,
    frac_str,
    genericity_check,
    matrix_invariants,
    rational_sqrt,
)
from hopfcheck.hopf import a_q_matrix


def test_frac_roundtrip():
    assert frac("3/4") == Fraction(3, 4)
    assert frac(5) == 5
    assert frac_str(Fraction(-3, 4)) == "-3/4"
    assert frac_str(Fraction(2)) == "2/1"


def test_mat_inverse_exact():
    A = Mat([[1, 2], [3, 5]])
    assert A * A.inverse() == Mat.identity(2)
    with pytest.raises(NotInvertible):
        Mat([[1, 2], [2, 4]]).inverse()
    with pytest.raises(NotSquare):
        Mat([[1, 2, 3], [4, 5, 6]]).inverse()


def test_ragged_matrix_raises():
    """A ragged matrix is refused, also under python -O."""
    with pytest.raises(ValueError, match="ragged"):
        Mat([[1, 2], [3]])


def test_matrix_invariants_glq():
    A = a_q_matrix(2)
    inv = matrix_invariants(A, A.inverse())
    assert inv["lambda"] == 1
    assert inv["trace"] == Fraction(-5, 2)


def test_matrix_invariants_identity():
    inv = matrix_invariants(Mat.identity(2), Mat.identity(2))
    assert inv["lambda"] == 1 and inv["trace"] == 2
    # lambda need not be 1, nor a rational square
    assert matrix_invariants(Mat.identity(2), Mat([[1, 1], [-1, 1]]))["lambda"] == 2


def test_matrix_invariants_transpose_inverse_family():
    # B = (A^t)^{-1} gives lambda = 1 and trace = n for any invertible A
    rng = random.Random(4242)
    for _ in range(3):
        while True:
            A = Mat([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
            try:
                A.inverse()
                break
            except NotInvertible:
                continue
        inv = matrix_invariants(A, A.transpose().inverse())
        assert inv["lambda"] == 1 and inv["trace"] == 3


def test_matrix_invariants_rejects_bad_pairs():
    with pytest.raises(NotScalarMultiple):
        matrix_invariants(Mat.identity(2), Mat([[1, 0], [0, 2]]))
    with pytest.raises(NotSquare):
        matrix_invariants(Mat([[1]]), Mat([[1]]))


def test_genericity_q2():
    A = a_q_matrix(2)
    rep = genericity_check(matrix_invariants(A, A.inverse()), 2)
    assert rep["roots"] == [Fraction(-2), Fraction(-1, 2)]
    assert rep["generic"] is True
    # q itself solves the sign-flipped variant, not the first form
    assert rep["satisfies_quadratic"] is False
    assert rep["satisfies_quadratic_alt"] is True


def test_genericity_q1_not_generic():
    A = a_q_matrix(1)
    rep = genericity_check(matrix_invariants(A, A.inverse()), 1)
    assert rep["roots"] == [Fraction(-1)]
    assert rep["generic"] is False


def test_genericity_trace3_needs_extension():
    A = Mat([[2, 0, 1], [0, 1, 0], [1, 0, 1]])
    with pytest.raises(NeedsFieldExtension):
        genericity_check(matrix_invariants(A, A.transpose().inverse()), 2)


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None


def _random_poly(rng, ngens, terms=4, maxlen=3):
    p = NCPoly.zero()
    for _ in range(terms):
        w = tuple(rng.randrange(ngens) for _ in range(rng.randint(0, maxlen)))
        p = p + NCPoly.term(w, rng.randint(-5, 5))
    return p


def test_ncpoly_ring_axioms_randomized():
    rng = random.Random(11)
    for _ in range(25):
        p, q, r = (_random_poly(rng, 3) for _ in range(3))
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert (p + q) * r == p * r + q * r
    assert NCPoly.one() * p == p
    assert (p - p).is_zero()


def test_monomial_order_total_and_multiplicative():
    order = MonomialOrder([1, 1, 1, 1, 2], heavy={4})
    rng = random.Random(23)

    def rand_word():
        return tuple(rng.randrange(5) for _ in range(rng.randint(0, 4)))

    for _ in range(300):
        w1, w2 = rand_word(), rand_word()
        k1, k2 = order.key(w1), order.key(w2)
        assert (k1 == k2) == (w1 == w2)
        if k1 < k2:
            u, v = rand_word(), rand_word()
            assert order.key(u + w1 + v) < order.key(u + w2 + v)


def test_monomial_order_pins_the_quantum_leads():
    # ad and da must both exceed bc and cb, and D x must exceed y D
    order = MonomialOrder([1, 1, 1, 1, 2], heavy={4})
    a, b, c, d, D = range(5)
    assert order.key((a, d)) > order.key((b, c))
    assert order.key((d, a)) > order.key((c, b))
    assert order.key((a, d)) > order.key((D,))
    for g in (a, b, c, d):
        for h in (a, b, c, d):
            assert order.key((D, g)) > order.key((h, D))


def test_tensorpoly_componentwise():
    t1 = TensorPoly.term(((0,), (1,)))
    t2 = TensorPoly.term(((1,), ()), 3)
    prod = t1 * t2
    assert prod == TensorPoly.term(((0, 1), (1,)), 3)
    assert (t1 - t1).is_zero()
