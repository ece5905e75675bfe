"""The integer form of NCPoly and TensorPoly against a frozen copy of their
Fraction arithmetic.

Polynomials and tensors keep integer numerators over one positive
denominator, in lowest terms.  The reference below is the arithmetic they
had when they held a dict of Fractions: sums, scalar multiples and
products term by term, normal forms word by word from the rules' tails,
and the Hopf layer's sums, products and slotwise reduction on top of them.
The values must agree exactly, sums and products with their keys in the
same order, and every result must satisfy the form's invariant.
"""

import functools
import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcheck.foundation import NCPoly, TensorPoly
from hopfcheck.hopf import (
    LocalizedElement,
    TensorElt,
    build_gab,
    build_glq,
    build_slq_laurent,
    seeded_pair,
)


# -- frozen reference ----------------------------------------------------------

class _FracPoly:
    """The Fraction dict arithmetic of NCPoly (join = concatenation) and of
    TensorPoly (join = slotwise concatenation), as it was."""

    def __init__(self, d, join):
        self.d = {k: c for k, c in d.items() if c != 0}
        self.join = join

    def __add__(self, other):
        d = dict(self.d)
        for k, c in other.d.items():
            nc = d.get(k, Fraction(0)) + c
            if nc:
                d[k] = nc
            else:
                d.pop(k, None)
        return _FracPoly(d, self.join)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, c):
        c = Fraction(c)
        if c == 0:
            return _FracPoly({}, self.join)
        return _FracPoly({k: c * x for k, x in self.d.items()}, self.join)

    def __mul__(self, other):
        d = {}
        for k1, c1 in self.d.items():
            for k2, c2 in other.d.items():
                k = self.join(k1, k2)
                nc = d.get(k, Fraction(0)) + c1 * c2
                if nc:
                    d[k] = nc
                else:
                    del d[k]
        return _FracPoly(d, self.join)


def _concat(w1, w2):
    return w1 + w2


def _slotwise(k1, k2):
    return tuple(w1 + w2 for w1, w2 in zip(k1, k2))


def _ref_nf(alg, d):
    """Normal form of {word: Fraction} from the rules' tails as Fractions."""
    reducer = alg.rs._reducer
    memo = {}

    def nf_word(w):
        if w not in memo:
            red = reducer.find_redex(w)
            if red is None:
                memo[w] = {w: Fraction(1)}
            else:
                pos, seq = red
                rule = reducer.rules[seq]
                pre, post = w[:pos], w[pos + len(rule.lead):]
                acc = _FracPoly({}, _concat)
                for tw, tc in rule.tail.d.items():
                    acc = acc + tc * _FracPoly(nf_word(pre + tw + post), _concat)
                memo[w] = acc.d
        return memo[w]

    acc = _FracPoly({}, _concat)
    for w, c in d.items():
        acc = acc + c * _FracPoly(nf_word(w), _concat)
    return acc.d


def _ref_sigma(alg, d, k):
    """sigma^k of {word: Fraction}, letter by letter from the images."""
    images = alg.sigma_images if k > 0 else alg.sigma_inv_images
    for _ in range(abs(k)):
        acc = _FracPoly({}, _concat)
        for w, c in d.items():
            p = _FracPoly({(): Fraction(1)}, _concat)
            for g in w:
                p = p * _FracPoly(images[g].d, _concat)
            acc = acc + c * p
        d = acc.d
    return d


def _ref_sum(alg, terms):
    """(numerator dict, exponent) of a sum of (numerator dict, exponent)."""
    terms = [(d, e) for d, e in terms if d]
    if not terms:
        return {}, 0
    m = max(e for _, e in terms)
    acc = _FracPoly({}, _concat)
    for d, e in terms:
        acc = acc + _FracPoly({w + (alg.loc,) * (m - e): c for w, c in d.items()}, _concat)
    return _cancel_trailing(alg, _ref_nf(alg, acc.d), m)


def _ref_product(alg, x, y):
    (p, e), (q, f) = x, y
    q = _ref_sigma(alg, q, -e) if e else q
    return _cancel_trailing(alg, _ref_nf(alg, (_FracPoly(p, _concat) * _FracPoly(q, _concat)).d),
                            e + f)


def _cancel_trailing(alg, d, m):
    while m > 0 and d and all(w and w[-1] == alg.loc for w in d):
        d = {w[:-1]: c for w, c in d.items()}
        m -= 1
    return d, (m if d else 0)


def _ref_tensor_reduce(te):
    acc = _FracPoly({}, _slotwise)
    for ws, c in te.tp.d.items():
        nfs = [_ref_nf(alg, {w: Fraction(1)}) for alg, w in zip(te.algs, ws)]
        for combo in itertools.product(*(nf.items() for nf in nfs)):
            coeff = c
            for _, cc in combo:
                coeff *= cc
            acc = acc + _FracPoly({tuple(w for w, _ in combo): coeff}, _slotwise)
    return acc.d


# -- the invariant -------------------------------------------------------------

def _assert_form(p):
    """Integer numerators, none zero, over a positive integer denominator,
    in lowest terms; the zero element is ({}, 1)."""
    assert type(p.den) is int and p.den > 0
    assert all(type(n) is int and n != 0 for n in p.c.values())
    assert gcd(p.den, *p.c.values()) == 1


# -- strategies ----------------------------------------------------------------

COEFFS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([Fraction(n, d) for d in (2, 3, 4, 5, 7) for n in (-3, -1, 1, 2)]))
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@functools.lru_cache(maxsize=None)
def _alg(name):
    """glq8, the seeded n = 2 G(A,B) (σ ≠ id) at degree 6, and
    O(SL_q(2))[z^±1] at degree 6, whose relations are inhomogeneous."""
    if name == "glq8":
        return build_glq(2, 8)
    if name == "gab2":
        return build_gab(*seeded_pair(1, n=2), 6, name="G(A2,B2)")
    return build_slq_laurent(2, 6)


ALGS = ["glq8", "gab2", "slql"]


def _words(ngens, max_len):
    return st.lists(st.integers(0, ngens - 1), max_size=max_len).map(tuple)


def _dicts(keys):
    return st.dictionaries(keys, COEFFS, max_size=4)


def _tensor_keys(ngens, arity, max_len):
    return st.tuples(*[_words(ngens, max_len)] * arity)


# -- polynomial and tensor arithmetic --------------------------------------------

def _check_ops(make, ref, a, b, x):
    """+, -, scalar * on both sides, and *: the same Fractions with the
    keys in the same order, each result in the integer form."""
    p, q = make(a), make(b)
    rp, rq = ref(a), ref(b)
    _assert_form(p)
    assert list(p.d.items()) == list(rp.d.items())
    for got, want in [(p + q, rp + rq), (p - q, rp - rq), (x * p, x * rp),
                      (p * x, x * rp), (p * q, rp * rq)]:
        _assert_form(got)
        assert list(got.d.items()) == list(want.d.items())
        assert all(type(c) is Fraction for c in got.d.values())


@SETTINGS
@given(_dicts(_words(3, 3)), _dicts(_words(3, 3)), COEFFS)
def test_ncpoly_arithmetic_matches_fractions(a, b, x):
    _check_ops(NCPoly, lambda d: _FracPoly(d, _concat), a, b, x)


@SETTINGS
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(
    st.just(k), _dicts(_tensor_keys(2, k, 2)), _dicts(_tensor_keys(2, k, 2)))), COEFFS)
def test_tensorpoly_arithmetic_matches_fractions(args, x):
    k, a, b = args
    _check_ops(lambda d: TensorPoly(k, d), lambda d: _FracPoly(d, _slotwise), a, b, x)


def test_cancellation_leaves_the_zero_form():
    p = NCPoly({(0,): Fraction(1, 2), (1,): Fraction(2, 3)})
    for z in (p - p, 0 * p, p * NCPoly.zero(), NCPoly({(0,): Fraction(0, 5)})):
        assert (z.c, z.den) == ({}, 1)
    half = NCPoly({(0,): Fraction(1, 2)})
    assert ((half + half).c, (half + half).den) == ({(0,): 1}, 1)


def test_float_coefficients_raise_type_error():
    p = NCPoly.gen(0)
    for make in (lambda: NCPoly({(0,): 0.5}), lambda: NCPoly.term((0,), 1.0),
                 lambda: 0.5 * p, lambda: p * 2.0, lambda: TensorPoly(1, {((0,),): 1.5}),
                 lambda: 0.5 * TensorPoly.unit(2)):
        with pytest.raises(TypeError):
            make()


# -- normal forms and the Hopf layer ---------------------------------------------

def _alg_words(alg, max_weight):
    return _words(alg.ngens(), max_weight).filter(
        lambda w: alg.order.weight(w) <= max_weight)


def _loc(alg, max_weight, max_exp):
    return st.tuples(st.dictionaries(_alg_words(alg, max_weight), COEFFS, max_size=3),
                     st.integers(0, max_exp))


def _elt(alg, d, e):
    le = alg.elt(NCPoly(d), e)
    _assert_form(le.num)
    return le


def _value(le):
    return le.num.d, le.exp


@pytest.mark.parametrize("name", ALGS)
@SETTINGS
@given(data=st.data())
def test_normal_form_matches_fraction_reduction(name, data):
    alg = _alg(name)
    d = data.draw(st.dictionaries(_alg_words(alg, 6), COEFFS, max_size=5))
    got = alg.rs.normal_form(NCPoly(d))
    _assert_form(got)
    assert got.d == _ref_nf(alg, d)


@pytest.mark.parametrize("name", ALGS)
@SETTINGS
@given(data=st.data())
def test_localized_sums_match_fraction_sums(name, data):
    """sum and sum_of_products of light elements: every padded word stays
    within degree 6, so nothing raises."""
    alg = _alg(name)
    terms = data.draw(st.lists(_loc(alg, 1, 1), max_size=4))
    pairs = data.draw(st.lists(st.tuples(_loc(alg, 1, 1), _loc(alg, 1, 1)), max_size=4))
    elts = [_elt(alg, d, e) for d, e in terms]
    got = LocalizedElement.sum(alg, elts)
    _assert_form(got.num)
    assert _value(got) == _ref_sum(alg, [_value(le) for le in elts])

    epairs = [(_elt(alg, *x), _elt(alg, *y)) for x, y in pairs]
    got = LocalizedElement.sum_of_products(alg, epairs)
    _assert_form(got.num)
    want = _ref_sum(alg, [_ref_product(alg, _value(x), _value(y)) for x, y in epairs])
    assert _value(got) == want


@pytest.mark.parametrize("name", ALGS)
@SETTINGS
@given(data=st.data())
def test_tensor_reduce_matches_fraction_reduction(name, data):
    alg = _alg(name)
    d = data.draw(st.dictionaries(st.tuples(_alg_words(alg, 3), _alg_words(alg, 3)),
                                  COEFFS, max_size=4))
    te = TensorElt((alg, alg), (0, 1), TensorPoly(2, d))
    got = te.reduce()
    _assert_form(got.tp)
    assert got.exps == te.exps and got.tp.d == _ref_tensor_reduce(te)
