"""RowSpaceModP and kernel_and_lifts against exact elimination: the same
echelon mod P, the same kernel, the same membership, exact preimages."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfcheck.linalg as linalg
from hopfcheck.foundation import int_form
from hopfcheck.linalg import (P, RR_BOUND, RowSpace, RowSpaceModP, kernel_and_lifts, kernel_basis,
                              rational_reconstruction, residues)

# dyadic denominators, as the powers of q in the probe, and odd ones
DENOMINATORS = [1, 2, 4, 8, 1024, 3, 5, 7, 9, 2**40 * 3]
coefficients = st.builds(Fraction, st.integers(-9, 9), st.sampled_from(DENOMINATORS))


def vec_add(v, w, c):
    """v + c*w, sparse."""
    out = dict(v)
    for k, x in w.items():
        out[k] = out.get(k, 0) + c * x
    return {k: x for k, x in out.items() if x}


def sparse_vectors(keys, max_size):
    return st.dictionaries(st.integers(0, keys - 1), coefficients, max_size=max_size).map(
        lambda v: {k: x for k, x in v.items() if x})


@st.composite
def lift_problems(draw):
    keys = draw(st.integers(1, 8))
    n = draw(st.integers(0, 10))
    columns = [(("c", i), draw(sparse_vectors(keys, 4))) for i in range(n)]
    targets = []
    for _ in range(draw(st.integers(0, 5))):
        if columns and draw(st.booleans()):
            # a combination of a prefix of the columns: always in the span,
            # and its lift may need columns past the split
            target = {}
            for label, vec in columns[:draw(st.integers(1, n))]:
                c = draw(coefficients)
                if c:
                    target = vec_add(target, vec, c)
        else:
            target = draw(sparse_vectors(keys, 5))
        targets.append(target)
    return columns, draw(st.integers(0, n)), targets


def echelon(columns, targets, split=0, asked=None, rest=None):
    """kernel_and_lifts over Fraction columns, whose residues and integer
    forms are taken here, the first ``split`` of them the kernel domain;
    ``asked`` records the labels whose residues are requested, in order,
    and ``rest`` replaces the iterable of the other labels."""
    forms = {label: int_form(vec) for label, vec in columns}
    labels = [label for label, _ in columns]
    asked = [] if asked is None else asked

    def residues_of(label):
        asked.append(label)
        return residues(*forms[label], {})

    return kernel_and_lifts(labels[:split], iter(labels[split:]) if rest is None else rest,
                            residues_of, forms.__getitem__, targets)


def exact_answers(columns, targets):
    space = RowSpace()
    for label, vec in columns:
        space.insert(vec, label)
    return [space.express(t) for t in targets]


def image(columns, beta):
    images = dict(columns)
    out = {}
    for label, c in beta.items():
        out = vec_add(out, images[label], c)
    return out


def assert_same_as_exact(columns, targets, answers):
    for target, beta, exact in zip(targets, answers, exact_answers(columns, targets)):
        assert (beta is None) == (exact is None)
        if beta is not None:
            assert image(columns, beta) == target


def columns_needed(columns, target):
    """The length of the shortest prefix of columns whose span holds target,
    or None."""
    space = RowSpace()
    for i, (label, vec) in enumerate(columns):
        if space.express(target) is not None:
            return i
        space.insert(vec, label)
    return None if space.express(target) is None else len(columns)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lift_problems())
def test_certified_lifts_agree_with_exact(problem):
    columns, split, targets = problem
    asked = []
    kernel, lifts = echelon(columns, targets, split, asked)
    assert kernel == kernel_basis(columns[:split])
    assert_same_as_exact(columns, targets, lifts)
    # columns are asked for in order until the last lift is found
    needed = [columns_needed(columns, t) for t in targets]
    stop = len(columns) if None in needed else max([split] + needed)
    assert asked == [label for label, _ in columns[:stop]]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lift_problems())
def test_modular_echelon_is_the_residue_of_the_exact_one(problem):
    """Fed the same columns (denominators prime to P), RowSpace and
    RowSpaceModP choose the same pivots, and each stored tail, combination
    and dependency of the modular echelon is the residue of the exact one."""
    columns, _, _ = problem

    def mod_p(vec):
        return residues(*int_form(vec), {})

    exact, modular = RowSpace(), RowSpaceModP()
    for label, vec in columns:
        dep = exact.insert(vec, label)
        mod_dep = modular.insert(mod_p(vec), label)
        assert (mod_dep is None) == (dep is None)
        if dep is not None:
            assert mod_dep == mod_p(dep)
    assert modular.pivots == exact.pivots
    assert modular.rows == [mod_p(row) for row in exact.rows]
    assert modular.combos == [mod_p(combo) for combo in exact.combos]


def counting(monkeypatch, owner, name):
    """Record the first argument of each call of owner.name."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args):
        calls.append(args[1] if owner is RowSpace else args[0])
        return fn(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


COLUMNS = [("a", {0: Fraction(1, 2), 1: Fraction(3)}),
           ("b", {1: Fraction(1, 3), 2: Fraction(-1, 8)}),
           ("c", {0: Fraction(1), 1: Fraction(6)}),  # 2a, a dependent column
           ("d", {3: Fraction(5, 7)})]
TARGETS = [{0: Fraction(1), 1: Fraction(7), 2: Fraction(-3, 8)},  # 2a + 3b
           {2: Fraction(1)},                                      # outside the span
           {3: Fraction(1)},                                      # 7/5 d
           {}]
KERNEL = [{"c": Fraction(1), "a": Fraction(-2)}]


def test_modular_answers_need_no_fallback(monkeypatch):
    calls = counting(monkeypatch, RowSpace, "express")
    exact_kernels = counting(monkeypatch, linalg, "kernel_basis")
    kernel, answers = echelon(COLUMNS, TARGETS, split=4)
    # only the target outside the span is asked of the exact space
    assert calls == [TARGETS[1]]
    assert_same_as_exact(COLUMNS, TARGETS, answers)
    assert kernel == KERNEL and not exact_kernels


def test_failed_reconstruction_falls_back_to_exact(monkeypatch):
    calls = counting(monkeypatch, RowSpace, "express")
    exact_kernels = counting(monkeypatch, linalg, "kernel_basis")
    monkeypatch.setattr(linalg, "rational_reconstruction", lambda a: None)
    kernel, answers = echelon(COLUMNS, TARGETS, split=4)
    # {} needs no coefficient, so it still lifts mod P
    assert len(calls) == 3
    assert_same_as_exact(COLUMNS, TARGETS, answers)
    assert kernel == KERNEL and len(exact_kernels) == 1


def test_corrupted_kernel_candidate_is_rejected(monkeypatch):
    """A kernel candidate with one doubled entry fails the exact check and
    the kernel comes from exact elimination; so do the lifts."""
    calls = counting(monkeypatch, RowSpace, "express")
    exact_kernels = counting(monkeypatch, linalg, "kernel_basis")
    reconstruct = linalg._reconstruct

    def doubled(combo, rationals):
        out = reconstruct(combo, rationals)
        if out:
            k = next(iter(out))
            out[k] = 2 * out[k]
        return out

    monkeypatch.setattr(linalg, "_reconstruct", doubled)
    kernel, answers = echelon(COLUMNS, TARGETS, split=4)
    assert len(calls) == 3  # every target with a nonempty lift
    assert kernel == KERNEL and len(exact_kernels) == 1
    assert_same_as_exact(COLUMNS, TARGETS, answers)


def test_large_coefficient_falls_back_to_exact(monkeypatch):
    """beta = 2^100/3^70 is past the reconstruction bound."""
    calls = counting(monkeypatch, RowSpace, "express")
    beta = Fraction(2**100, 3**70)
    columns = [("x", {0: Fraction(1), 1: Fraction(1, 2)})]
    targets = [{0: beta, 1: beta / 2}]
    assert echelon(columns, targets) == ([], [{"x": beta}])
    assert len(calls) == 1
    # a kernel entry past the bound: y = beta * x
    columns.append(("y", {0: beta, 1: beta / 2}))
    assert echelon(columns, [], split=2) == ([{"y": Fraction(1), "x": -beta}], [])


def test_denominator_divisible_by_p_falls_back_to_exact(monkeypatch):
    calls = counting(monkeypatch, RowSpace, "express")
    exact_kernels = counting(monkeypatch, linalg, "kernel_basis")
    # in a column: nothing is reduced mod P, every question is answered exactly
    columns = COLUMNS + [("e", {4: Fraction(1, P)})]
    targets = TARGETS + [{4: Fraction(3)}]
    kernel, answers = echelon(columns, targets, split=5)
    assert len(calls) == len(targets)
    assert_same_as_exact(columns, targets, answers)
    assert answers[-1] == {"e": Fraction(3 * P)}
    assert kernel == KERNEL and len(exact_kernels) == 1
    # in a column past the kernel domain: the targets still without a lift
    # there are answered exactly
    calls.clear()
    columns = COLUMNS + [("e", {4: Fraction(1, P)}), ("f", {5: Fraction(1)})]
    targets = [TARGETS[0], {5: Fraction(2)}]
    asked = []
    kernel, answers = echelon(columns, targets, 4, asked)
    assert asked == ["a", "b", "c", "d", "e"] and calls == [targets[1]]
    assert answers == [{"a": 2, "b": 3}, {"f": 2}]
    assert kernel == KERNEL and len(exact_kernels) == 1
    # in a target only: that target alone
    calls.clear()
    targets = [TARGETS[0], {0: Fraction(1, 2 * P), 1: Fraction(3, P)}]  # a / P
    kernel, answers = echelon(COLUMNS, targets, split=4)
    assert calls == [targets[1]]
    assert_same_as_exact(COLUMNS, targets, answers)
    assert answers[1] is not None
    assert kernel == KERNEL and len(exact_kernels) == 1


def test_rank_drop_mod_p_is_answered_exactly(monkeypatch):
    """The column P vanishes mod P, yet 1 = (1/P) * P over the rationals."""
    assert echelon([("x", {0: Fraction(P)})], [{0: Fraction(1)}]) == ([], [
        {"x": Fraction(1, P)}])
    # x reduces to zero mod P, a kernel candidate that the exact check
    # rejects: the kernel y - x/P comes from exact elimination
    exact_kernels = counting(monkeypatch, linalg, "kernel_basis")
    columns = [("x", {0: Fraction(P)}), ("y", {0: Fraction(1)})]
    kernel, _ = echelon(columns, [], split=2)
    assert kernel == [{"y": Fraction(1), "x": Fraction(-1, P)}] == kernel_basis(columns)
    assert len(exact_kernels) == 1


# a, b: the kernel domain of the examples below; d and f are needed late
LATE = [("a", {0: Fraction(1, 2), 1: Fraction(3)}),
        ("b", {1: Fraction(1, 3), 2: Fraction(-1, 8)}),
        ("c", {0: Fraction(1), 1: Fraction(6)}),  # 2a
        ("d", {2: Fraction(1), 3: Fraction(5, 7)}),
        ("e", {4: Fraction(1)}),
        ("f", {3: Fraction(1)}),
        ("g", {5: Fraction(1)})]
LABELS = [label for label, _ in LATE]


def test_lifts_in_the_kernel_domain_ask_for_no_later_column():
    asked = []
    targets = [{0: Fraction(1), 1: Fraction(7), 2: Fraction(-3, 8)}, {}]  # 2a + 3b, 0
    kernel, lifts = echelon(LATE, targets, 2, asked)
    assert asked == LABELS[:2]
    assert kernel == [] and lifts == [{"a": 2, "b": 3}, {}]


@pytest.mark.parametrize("target, needed, beta", [
    ({0: Fraction(1, 2), 1: Fraction(3), 2: Fraction(1), 3: Fraction(5, 7)}, 4, {"a": 1, "d": 1}),
    ({1: Fraction(1, 3), 2: Fraction(-1, 8), 3: Fraction(1)}, 6, {"b": 1, "f": 1})])
def test_a_late_lift_stops_at_its_column(target, needed, beta, monkeypatch):
    """The lift of a target past the kernel domain is the one elimination
    of every column gives, found mod P, and no column after the one it
    needs is asked for."""
    calls = counting(monkeypatch, RowSpace, "express")
    asked = []
    kernel, lifts = echelon(LATE, [target], 2, asked)
    assert asked == LABELS[:needed] and not calls
    assert lifts == [beta] == exact_answers(LATE, [target])
    # a lift found before the kernel domain is complete waits for it
    asked.clear()
    calls.clear()
    kernel, lifts = echelon(LATE, [target], 5, asked)
    assert asked == LABELS[:max(needed, 5)] and not calls
    assert kernel == kernel_basis(LATE[:5]) and lifts == [beta]


def test_a_target_outside_the_span_asks_for_every_column():
    asked = []
    kernel, lifts = echelon(LATE, [{4: Fraction(2)}, {6: Fraction(1)}], 2, asked)
    assert asked == LABELS
    assert lifts == [{"e": 2}, None]


def test_no_targets_ask_only_for_the_kernel_domain():
    for split in (0, 2, 4):
        asked = []
        kernel, lifts = echelon(LATE, [], split, asked)
        assert asked == LABELS[:split]
        assert kernel == kernel_basis(LATE[:split]) and lifts == []


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


class Recording:
    """An iterator over labels that records each label drawn from it."""

    def __init__(self, labels):
        self.labels, self.drawn = iter(labels), []

    def __iter__(self):
        return self

    def __next__(self):
        label = next(self.labels)
        self.drawn.append(label)
        return label


def test_rest_is_drawn_lazily_and_drained_by_the_fallback(monkeypatch):
    """No label past the last one a lift needs is drawn from ``rest``; the
    exact fallback reads the labels drawn and drains the rest."""
    late = {0: Fraction(1, 2), 1: Fraction(3), 2: Fraction(1), 3: Fraction(5, 7)}  # a + d
    rest = Recording(LABELS[2:])
    kernel, lifts = echelon(LATE, [late], 2, rest=rest)
    assert rest.drawn == LABELS[2:4] and lifts == [{"a": 1, "d": 1}]
    # a / P has no residues, so it goes to the exact fallback
    calls = counting(monkeypatch, RowSpace, "express")
    asked, rest = [], Recording(LABELS[2:])
    by_p = {0: Fraction(1, 2 * P), 1: Fraction(3, P)}
    kernel, lifts = echelon(LATE, [late, by_p], 2, asked, rest=rest)
    assert asked == LABELS[:4] and rest.drawn == LABELS[2:]
    assert calls == [by_p]
    assert lifts == [{"a": 1, "d": 1}, {"a": Fraction(1, P)}] == exact_answers(LATE, [late, by_p])
