"""certified_lifts against exact elimination: same membership, exact preimages."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfcheck.linalg as linalg
from hopfcheck.linalg import P, RR_BOUND, RowSpace, certified_lifts, rational_reconstruction

# dyadic denominators, as the powers of q in the probe, and odd ones
DENOMINATORS = [1, 2, 4, 8, 1024, 3, 5, 7, 9, 2**40 * 3]
coefficients = st.builds(Fraction, st.integers(-9, 9), st.sampled_from(DENOMINATORS))


def sparse_vectors(keys, max_size):
    return st.dictionaries(st.integers(0, keys - 1), coefficients, max_size=max_size).map(
        lambda v: {k: x for k, x in v.items() if x})


@st.composite
def lift_problems(draw):
    keys = draw(st.integers(1, 8))
    n = draw(st.integers(0, 10))
    columns = [(("c", i), draw(sparse_vectors(keys, 4))) for i in range(n)]
    targets = []
    for _ in range(draw(st.integers(1, 5))):
        if columns and draw(st.booleans()):
            # a combination of the columns: always in the span
            target = {}
            for label, vec in columns:
                c = draw(coefficients)
                if c:
                    target = linalg.vec_add(target, vec, c)
        else:
            target = draw(sparse_vectors(keys, 5))
        targets.append(target)
    return columns, targets


def exact_answers(columns, targets):
    space = RowSpace()
    for label, vec in columns:
        space.insert(vec, label)
    return [space.express(t) for t in targets]


def image(columns, beta):
    images = dict(columns)
    out = {}
    for label, c in beta.items():
        out = linalg.vec_add(out, images[label], c)
    return out


def assert_same_as_exact(columns, targets, answers):
    for target, beta, exact in zip(targets, answers, exact_answers(columns, targets)):
        assert (beta is None) == (exact is None)
        if beta is not None:
            assert image(columns, beta) == target


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lift_problems())
def test_certified_lifts_agree_with_exact(problem):
    columns, targets = problem
    assert_same_as_exact(columns, targets, certified_lifts(columns, targets))


def counting_express(monkeypatch):
    calls = []
    express = RowSpace.express

    def counted(self, vec):
        calls.append(vec)
        return express(self, vec)

    monkeypatch.setattr(RowSpace, "express", counted)
    return calls


COLUMNS = [("a", {0: Fraction(1, 2), 1: Fraction(3)}),
           ("b", {1: Fraction(1, 3), 2: Fraction(-1, 8)}),
           ("c", {0: Fraction(1), 1: Fraction(6)}),  # 2a, a dependent column
           ("d", {3: Fraction(5, 7)})]
TARGETS = [{0: Fraction(1), 1: Fraction(7), 2: Fraction(-3, 8)},  # 2a + 3b
           {2: Fraction(1)},                                      # outside the span
           {3: Fraction(1)},                                      # 7/5 d
           {}]


def test_modular_answers_need_no_fallback(monkeypatch):
    calls = counting_express(monkeypatch)
    answers = certified_lifts(COLUMNS, TARGETS)
    # only the target outside the span is asked of the exact space
    assert calls == [TARGETS[1]]
    assert_same_as_exact(COLUMNS, TARGETS, answers)


def test_failed_reconstruction_falls_back_to_exact(monkeypatch):
    calls = counting_express(monkeypatch)
    monkeypatch.setattr(linalg, "rational_reconstruction", lambda a: None)
    answers = certified_lifts(COLUMNS, TARGETS)
    # {} needs no coefficient, so it still lifts mod P
    assert len(calls) == 3
    assert_same_as_exact(COLUMNS, TARGETS, answers)


def test_large_coefficient_falls_back_to_exact(monkeypatch):
    """beta = 2^100/3^70 is past the reconstruction bound."""
    calls = counting_express(monkeypatch)
    beta = Fraction(2**100, 3**70)
    columns = [("x", {0: Fraction(1), 1: Fraction(1, 2)})]
    targets = [{0: beta, 1: beta / 2}]
    assert certified_lifts(columns, targets) == [{"x": beta}]
    assert len(calls) == 1


def test_denominator_divisible_by_p_falls_back_to_exact(monkeypatch):
    calls = counting_express(monkeypatch)
    # in a column: nothing is reduced mod P, every target is answered exactly
    columns = COLUMNS + [("e", {4: Fraction(1, P)})]
    targets = TARGETS + [{4: Fraction(3)}]
    answers = certified_lifts(columns, targets)
    assert len(calls) == len(targets)
    assert_same_as_exact(columns, targets, answers)
    assert answers[-1] == {"e": Fraction(3 * P)}
    # in a target only: that target alone
    calls.clear()
    targets = [TARGETS[0], {0: Fraction(1, 2 * P), 1: Fraction(3, P)}]  # a / P
    answers = certified_lifts(COLUMNS, targets)
    assert calls == [targets[1]]
    assert_same_as_exact(COLUMNS, targets, answers)
    assert answers[1] is not None


def test_rank_drop_mod_p_is_answered_exactly():
    """The column P vanishes mod P, yet 1 = (1/P) * P over the rationals."""
    assert certified_lifts([("x", {0: Fraction(P)})], [{0: Fraction(1)}]) == [
        {"x": Fraction(1, P)}]


@pytest.mark.parametrize("x", [Fraction(0), Fraction(1), Fraction(-7, 2**43),
                               Fraction(2**62, 3**39), Fraction(-(2**62), 2**62 + 1)])
def test_rational_reconstruction_roundtrip(x):
    a = x.numerator * pow(x.denominator, -1, P) % P
    assert rational_reconstruction(a) == x


def test_rational_reconstruction_rejects_out_of_bound():
    x = Fraction(2**100, 3)
    a = x.numerator * pow(x.denominator, -1, P) % P
    assert rational_reconstruction(a) != x
    # a residue that no n/d with |n|, d <= RR_BOUND represents
    assert rational_reconstruction(136498326688907047595659928587492241909) is None


@given(st.integers(0, P - 1))
@settings(max_examples=200, derandomize=True)
def test_rational_reconstruction_is_small_or_none(a):
    x = rational_reconstruction(a)
    if x is not None:
        assert abs(x.numerator) <= RR_BOUND and x.denominator <= RR_BOUND
        assert x.numerator * pow(x.denominator, -1, P) % P == a
