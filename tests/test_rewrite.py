import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from hopfcheck.errors import ExceedsCertifiedDegree, NoRelations, UnitCollapse
from hopfcheck.foundation import Mat, MonomialOrder, NCPoly
from hopfcheck.hopf import (
    a_q_matrix,
    build_gab,
    build_gabcd,
    build_glq,
    build_slq,
    build_slq_laurent,
    seeded_pair,
)
import hopfcheck.rewrite as rewrite
from hopfcheck.rewrite import (
    RewriteRule,
    RewriteSystem,
    _interreduce,
    _Keys,
    _overlaps,
    _Reducer,
    _spoly,
    complete_truncated,
    complete_with_cache,
    system_cache_key,
)


def _rule_dict(rs, names):
    out = {}
    for r in rs.rules:
        lead = "".join(names[g] for g in r.lead)
        out[lead] = r.tail
    return out


def test_glq_completion_has_cb_to_bc():
    alg = build_glq(2, 4)
    rules = _rule_dict(alg.rs, alg.names)
    assert rules["cb"] == NCPoly.term((1, 2))  # bc


def test_slq_rule_table_q2():
    alg = build_slq(2, 3)
    rules = _rule_dict(alg.rs, alg.names)
    a, b, c, d = (NCPoly.gen(i) for i in range(4))
    one = NCPoly.one()
    half = Fraction(1, 2)
    assert rules["ba"] == half * (a * b)
    assert rules["ca"] == half * (a * c)
    assert rules["cb"] == b * c
    assert rules["db"] == half * (b * d)
    assert rules["dc"] == half * (c * d)
    assert rules["ad"] == one + 2 * (b * c)
    assert rules["da"] == one + half * (b * c)
    # exactly these seven rules at weight 2
    leads2 = {lead for lead in rules if len(lead) == 2}
    assert leads2 == {"ba", "ca", "cb", "db", "dc", "ad", "da"}


def test_single_generator_unit_rule():
    order = MonomialOrder([1])
    rs = complete_truncated([NCPoly.gen(0) - NCPoly.one()], order, 3)
    assert not rs.collapsed
    assert rs.nonzero_witness()["nonzero_up_to"] == 3
    assert rs.normal_form(NCPoly.gen(0)) == NCPoly.one()


def test_collapse_on_unit_relation():
    order = MonomialOrder([1])
    rs = complete_truncated([NCPoly.one()], order, 3)
    assert rs.collapsed
    with pytest.raises(UnitCollapse):
        rs.nonzero_witness()


def test_normal_forms(glq8, slq6):
    a, b, c, d = (NCPoly.gen(i) for i in range(4))
    assert slq6.rs.normal_form(a * d) == NCPoly.one() + 2 * (b * c)
    assert glq8.rs.normal_form(NCPoly.one()) == NCPoly.one()
    D = NCPoly.gen(glq8.loc)
    assert glq8.rs.normal_form(D * a - a * D).is_zero()


def test_ideal_member(glq8):
    a, b, c, d = (NCPoly.gen(i) for i in range(4))
    D = NCPoly.gen(glq8.loc)
    assert glq8.rs.normal_form(a * d - 2 * (b * c) - D).is_zero()
    assert not glq8.rs.normal_form(a - NCPoly.one()).is_zero()
    heavy = NCPoly.term((0,) * 20)
    with pytest.raises(ExceedsCertifiedDegree):
        glq8.rs.normal_form(heavy)


def test_enumerate_normal_words(glq8, slq6):
    assert len(slq6.rs.enumerate_normal_words(2)) == 14
    assert slq6.rs.enumerate_normal_words(0) == [()]
    order = glq8.order
    names = glq8.names
    w2 = ["".join(names[g] for g in w)
          for w in glq8.rs.enumerate_normal_words(2) if order.weight(w) == 2]
    assert sorted(w2) == ["D", "aa", "ab", "ac", "bb", "bc", "bd", "cc", "cd", "dd"]


def test_enumerate_normal_words_above_bound_raises(slq6):
    with pytest.raises(ExceedsCertifiedDegree):
        slq6.rs.enumerate_normal_words(slq6.rs.certified_degree + 1)


def test_slq_filtration_matches_classical_dimension(slq6):
    # graded quotient k[a..d]/(det) has dim_j = C(j+3,3) - C(j+1,3)
    def choose3(k):
        return k * (k - 1) * (k - 2) // 6 if k >= 3 else 0

    for N in range(6):
        want = sum(choose3(j + 3) - choose3(j + 1) for j in range(N + 1))
        got = len(slq6.rs.enumerate_normal_words(N))
        assert got == want


def test_input_relations_reduce_to_zero(glq8, n3):
    for alg in (glq8, n3):
        for rel in alg.relations:
            assert alg.rs.reduce(rel).is_zero()


def test_normal_form_idempotent_and_multiplicative(glq8):
    rng = random.Random(5)
    rs = glq8.rs
    for _ in range(20):
        p = NCPoly.zero()
        q = NCPoly.zero()
        for _ in range(3):
            w = tuple(rng.randrange(5) for _ in range(rng.randint(0, 3)))
            if rs.order.weight(w) <= 4:
                p = p + NCPoly.term(w, rng.randint(-3, 3))
            w = tuple(rng.randrange(5) for _ in range(rng.randint(0, 3)))
            if rs.order.weight(w) <= 4:
                q = q + NCPoly.term(w, rng.randint(-3, 3))
        nfp = rs.normal_form(p)
        assert rs.normal_form(nfp) == nfp
        assert rs.normal_form(p * q) == rs.normal_form(rs.normal_form(p) * rs.normal_form(q))


def test_confluence_witness(glq8):
    rep = glq8.rs.verify_confluence()
    assert rep["overlaps_checked"] > 0
    assert rep["failures"] == []


def test_confluence_recheck_finds_a_changed_tail(glq8):
    """glq8's system with cb -> bc changed to cb -> 2bc: the recheck still
    checks 151 overlaps, and its failures are ambiguity words of the rules."""
    d = glq8.rs.to_dict()
    (rule,) = [r for r in d["rules"] if r["lead"] == [2, 1]]
    assert rule["tail"] == [{"word": [1, 2], "coeff": "1/1"}]
    rule["tail"][0]["coeff"] = "2/1"
    rs = RewriteSystem.from_dict(d)
    rep = rs.verify_confluence()
    assert rep["overlaps_checked"] == 151
    assert rep["failures"]
    ambiguities = {r1.lead + r2.lead[pos:] if kind == "olap" else r1.lead
                   for r1 in rs.rules for r2 in rs.rules for kind, pos in _overlaps(r1, r2)}
    assert all(word in ambiguities and not p.is_zero() for word, p in rep["failures"])


def test_nonzero_witness_instances(glq8, galois6):
    assert glq8.rs.nonzero_witness() == {"nonzero_up_to": 8}
    gal, _ = galois6
    assert gal.rs.nonzero_witness() == {"nonzero_up_to": 6}


def test_mismatched_invariants_build_is_syntactic():
    A2 = a_q_matrix(2)
    A3 = a_q_matrix(3)
    g = build_gabcd(A2, A2.inverse(), A3, A3.inverse(), 4)
    assert g.rs.certified_degree == 4
    try:
        g.rs.nonzero_witness()
    except UnitCollapse:
        pass  # a collapse within the bound is a legitimate outcome


def test_serialization_roundtrip_and_determinism(slq6):
    d = slq6.rs.to_dict()
    rs2 = RewriteSystem.from_dict(d)
    a, b, c, dd = (NCPoly.gen(i) for i in range(4))
    probe = a * dd * b - 3 * (c * b)
    assert slq6.rs.normal_form(probe) == rs2.normal_form(probe)
    blob1 = json.dumps(d, sort_keys=True)
    blob2 = json.dumps(build_slq(2, 6).rs.to_dict(), sort_keys=True)
    assert blob1 == blob2


_TAILS = st.lists(st.tuples(st.lists(st.integers(0, 3), max_size=3).map(tuple),
                            st.integers(-50, 50), st.integers(1, 60)),
                  max_size=6, unique_by=lambda t: t[0])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tails=st.lists(_TAILS, min_size=1, max_size=3))
def test_from_dict_parses_coefficients_as_fraction_does(tails):
    """Each "p/q" is parsed with int into the tail's integer form over the
    lcm of the q, in lowest terms: the coefficients, their key order and the
    denominator are those of parsing every coefficient as a Fraction, also
    for a p/q not in lowest terms and for a zero coefficient."""
    payload = {
        "version": 1, "order": MonomialOrder([1, 1, 1, 1]).to_dict(), "certified_degree": 4,
        "collapsed": False,
        "rules": [{"lead": [3, 3, 3, i], "tail": [{"word": list(w), "coeff": f"{p}/{q}"}
                                               for w, p, q in tail]}
                  for i, tail in enumerate(tails)],
    }
    rs = RewriteSystem.from_dict(payload)
    for rule, r in zip(rs.rules, payload["rules"]):
        want = NCPoly({tuple(t["word"]): Fraction(t["coeff"]) for t in r["tail"]})
        assert (list(rule.tail.c.items()), rule.tail.den) == (list(want.c.items()), want.den)


def test_all_zero_relations_raise():
    order = MonomialOrder([1, 1])
    with pytest.raises(NoRelations):
        complete_truncated([NCPoly.zero(), NCPoly.gen(0) - NCPoly.gen(0)], order, 3)


# sha256 of the canonical JSON of RewriteSystem.to_dict(), as the completion
# loop that absorbed one rule per fresh reducer produced them
RULE_SET_PINS = {
    "glq2-d6": "0ef7e1948809e001da5a9e8264b7caf2200e2be1bb201ebbf55f9b7483738257",
    "glq2-d7": "2af529259796aef2bd5ac5bdf6178dbdbaa665f9a7fadc34ea66a2d86147b762",
    "glq2-d8": "29fc21c389114565c6bf99100eb7a956cde4e3d497125f3ab95f1c952f7f8c5c",
    "glq2-d9": "25d99701afe3651974533aeec9be73265695304b8b8366304cd88cd7bdab2eb6",
    "glq2-d10": "d7b54f0d68373c0696805fa7f05a1d2c2e3b4d2aa7325704aaaad45f12065fd7",
    "slq-d6": "15cc35c3d34633477e31d71b1cd4aa83774f321352fe3716ca3dcaf248caeac3",
    "slql-d6": "1c37deb4d1d123e2be6583bebc3f3f074a2e6ece791970567bd6b27235dcd16a",
    "slql-d8": "27b327f740a9c0d4eadeb8bc99639c19b7ba608d373519981c759bce564a0874",
    "galois-d8": "008c3f0a9670d9fc3269bc88515e83bf5fe8ba59b899e8a8ee8211d31c0d863b",
    "galois-op-d8": "de25745f13d09ec3c45b4d51e67a5fe7797ca502b43b0bd8952a71606b317fd2",
    "n3-d6": "62ad64c5ea73241c835d0c4af5c883b90cad6ee82098374c9b4e6395e176400f",
    "n3-diagonal-d6": "0e225a0168831cb0d4ce0a95648d50dab33003477133eb2b0cc40b16ba54fd82",
    "n3-transposition-d6": "5f2e5920b6708208afc1a0ea4c499b810ab157f39e232f5e8c92e12295c1f638",
    "galois-k-3-d6": "16a5beb0a1664de17911503d37e15f0385f4a6eb702fe4d7192357a88f0e2561",
    "galois-op-k-3-d6": "88cd149bdbad2b7cc24badfb91bc7d03fb6512229040ace0b336b47452da8b07",
}


def _rule_set_sha(rs):
    blob = json.dumps(rs.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_rule_sets_pinned(glq8, glq9, slq6, slql8, n3, conj_pair):
    A, B, C, D = conj_pair
    # the conjugate of (A_q, A_q^-1) by [[1,-3],[0,1]]: G(C,D|A,B) has tail
    # denominators up to 217
    F = Mat([[1, -3], [0, 1]])
    C3 = F.transpose() * A * F
    D3 = F.inverse() * B * F.transpose().inverse()
    systems = {
        "glq2-d6": build_glq(2, 6).rs,
        "glq2-d7": build_glq(2, 7).rs,
        "glq2-d8": glq8.rs,
        "glq2-d9": glq9.rs,
        "glq2-d10": build_glq(2, 10).rs,
        "slq-d6": slq6.rs,
        "slql-d6": build_slq_laurent(slq6).rs,
        "slql-d8": slql8.rs,
        "galois-d8": build_gabcd(A, B, C, D, 8).rs,
        "galois-op-d8": build_gabcd(C, D, A, B, 8).rs,
        "n3-d6": n3.rs,
        # seed 5 draws a diagonal signed permutation
        "n3-diagonal-d6": build_gab(*seeded_pair(5), 6).rs,
        # seed 4 draws a transposition: 631 rules
        "n3-transposition-d6": build_gab(*seeded_pair(4), 6).rs,
        "galois-k-3-d6": build_gabcd(A, B, C3, D3, 6).rs,
        "galois-op-k-3-d6": build_gabcd(C3, D3, A, B, 6).rs,
    }
    assert {name: _rule_set_sha(rs) for name, rs in systems.items()} == RULE_SET_PINS


def test_confluence_overlap_count_pinned(glq8):
    assert glq8.rs.verify_confluence()["overlaps_checked"] == 151


def test_completion_multiplies_no_polynomials(glq8, monkeypatch):
    """Completion builds its S-polynomials from the rules' integer tails:
    glq2 at degree 6 makes no NCPoly product."""
    calls = []
    real = NCPoly.__mul__

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(NCPoly, "__mul__", counting)
    rs = complete_truncated(glq8.relations, glq8.order, 6)
    assert not calls
    monkeypatch.undo()
    assert _rule_set_sha(rs) == RULE_SET_PINS["glq2-d6"]


class _FractionReducer:
    """The reduction engine as it was before normal forms went fraction-free
    and rule leads were indexed: a linear scan for redexes and Fraction
    coefficients throughout.  Kept as the reference the engine is compared
    against."""

    def __init__(self, rules):
        self.rules = rules
        by_letter = {}
        self.has_empty = False
        for i, r in enumerate(rules):
            if not r.lead:
                self.has_empty = True
            else:
                by_letter.setdefault(r.lead[0], []).append(i)
        self.by_letter = by_letter
        self.cache = {}

    def find_redex(self, word):
        for pos in range(len(word)):
            for i in self.by_letter.get(word[pos], ()):
                lead = self.rules[i].lead
                if word[pos : pos + len(lead)] == lead:
                    return pos, i
        return None

    def nf_word(self, word):
        if self.has_empty:
            return {}
        cache = self.cache
        stack = [word]
        while stack:
            w = stack[-1]
            if w in cache:
                stack.pop()
                continue
            red = self.find_redex(w)
            if red is None:
                cache[w] = {w: Fraction(1)}
                stack.pop()
                continue
            pos, i = red
            rule = self.rules[i]
            pre, post = w[:pos], w[pos + len(rule.lead) :]
            children = [(pre + tw + post, tc) for tw, tc in rule.tail.d.items()]
            missing = [cw for cw, _ in children if cw not in cache]
            if missing:
                stack.extend(missing)
                continue
            out = {}
            for cw, tc in children:
                for rw, rc in cache[cw].items():
                    nc = out.get(rw, 0) + tc * rc
                    if nc:
                        out[rw] = nc
                    else:
                        del out[rw]
            cache[w] = out
            stack.pop()
        return cache[word]

    def reduce(self, p):
        out = {}
        for w, c in p.d.items():
            for rw, rc in self.nf_word(w).items():
                nc = out.get(rw, 0) + c * rc
                if nc:
                    out[rw] = nc
                else:
                    del out[rw]
        return NCPoly(out)


def rule_from_poly(p, order):
    """Monic rule with the order-maximal word of p as lead, made in Fractions,
    as completion made its rules before it went fraction-free."""
    lead = max(p.c, key=order.key)
    c = p.d[lead]
    tail = NCPoly({w: -x / c for w, x in p.d.items() if w != lead})
    return RewriteRule(lead, tail)


def _fraction_spoly(r1, r2, kind, pos):
    """Difference of the two one-step reductions of the ambiguity word, as
    NCPoly products: the S-polynomial as completion built it before it went
    fraction-free."""
    L1, L2 = r1.lead, r2.lead
    if kind == "olap":
        k = pos
        left = r1.tail * NCPoly.term(L2[k:])
        right = NCPoly.term(L1[: len(L1) - k]) * r2.tail
    else:
        i = pos
        left = r1.tail
        right = NCPoly.term(L1[:i]) * r2.tail * NCPoly.term(L1[i + len(L2) :])
    return left - right


def _reference_interreduce(rules, order):
    """Reduce the first rule that changes against a fresh reducer over all
    the others, and start again, until no rule changes."""
    queue = True
    while queue:
        queue = False
        for i in range(len(rules)):
            r = rules[i]
            nf = _FractionReducer(rules[:i] + rules[i + 1 :]).reduce(r.poly())
            if nf == r.poly():
                continue
            queue = True
            if nf.is_zero():
                rules.pop(i)
            else:
                rules[i] = rule_from_poly(nf, order)
            break
    return rules


def _signature(rule):
    return rule.lead, frozenset(rule.tail.c.items()), rule.tail.den


def _reference_complete(relations, order, degree_bound):
    """The completion loop that re-reduces every pending polynomial against a
    fresh reducer after each absorbed rule, and builds every S-polynomial
    before testing the weight of its ambiguity word."""
    rules = []
    pending = [p for p in relations if not p.is_zero()]
    seen = set()
    while True:
        while pending:
            reducer = _FractionReducer(rules)
            reduced = [reducer.reduce(p) for p in pending]
            reduced = [p for p in reduced if not p.is_zero()]
            pending = []
            if not reduced:
                break
            reduced.sort(key=lambda p: order.key(max(p.c, key=order.key)))
            rules.append(rule_from_poly(reduced[0], order))
            pending = reduced[1:]
        rules = _reference_interreduce(rules, order)
        reducer = _FractionReducer(rules)
        new = []
        for r1 in rules:
            for r2 in rules:
                for kind, pos in _overlaps(r1, r2):
                    key = (_signature(r1), _signature(r2), kind, pos)
                    if key in seen:
                        continue
                    seen.add(key)
                    s = _fraction_spoly(r1, r2, kind, pos)
                    word = r1.lead + r2.lead[pos:] if kind == "olap" else r1.lead
                    if order.weight(word) > degree_bound:
                        continue
                    nf = reducer.reduce(s)
                    if not nf.is_zero():
                        new.append(nf)
        if not new:
            break
        pending = new
    return RewriteSystem(order, rules, degree_bound)


@st.composite
def _presentations(draw):
    """2-3 generators, optionally a heavy weight-2 last letter, 1-3 relations
    of weight <= 5 with small integer coefficients, a bound of at most 5."""
    ngens = draw(st.integers(2, 3))
    if draw(st.booleans()):
        order = MonomialOrder([1] * (ngens - 1) + [2], heavy={ngens - 1})
    else:
        order = MonomialOrder([1] * ngens)
    word = st.lists(st.integers(0, ngens - 1), min_size=2, max_size=3).map(
        tuple).filter(lambda w: order.weight(w) <= 5)
    term = st.tuples(word, st.integers(-3, 3).filter(bool))
    poly = st.lists(term, min_size=2, max_size=4).map(
        lambda ts: sum((NCPoly.term(w, c) for w, c in ts), NCPoly.zero()))
    relations = draw(st.lists(poly, min_size=2, max_size=3))
    if draw(st.booleans()):
        relations[0] = relations[0] + NCPoly.one()
    assume(any(not p.is_zero() for p in relations))
    maxw = max(p.weight(order) for p in relations if not p.is_zero())
    bound = draw(st.integers(max(maxw, 1), 5))
    return relations, order, bound


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_presentations())
def test_completion_matches_reference_loop(presentation):
    relations, order, bound = presentation
    got = complete_truncated(relations, order, bound)
    want = _reference_complete(relations, order, bound)
    assert got.to_dict() == want.to_dict()


def _within(word, order, bound):
    """The longest prefix of word of weight <= bound."""
    while order.weight(word) > bound:
        word = word[:-1]
    return word


@st.composite
def _homogeneous_queries(draw):
    """2-3 letters of weights 1-2, a weight-2 letter possibly heavy, 1-3
    relations homogeneous in those weights, of weight <= 4, a bound of at
    most 5, and words and polynomials of weight <= bound to ask about, in
    drawn order."""
    ngens = draw(st.integers(2, 3))
    weights = draw(st.lists(st.integers(1, 2), min_size=ngens, max_size=ngens))
    heavy = {weights.index(2)} if 2 in weights and draw(st.booleans()) else ()
    order = MonomialOrder(weights, heavy=heavy)
    word = st.lists(st.integers(0, ngens - 1), min_size=1, max_size=3).map(
        lambda w: _within(tuple(w), order, 4))
    term = st.tuples(word, st.integers(-3, 3).filter(bool))

    def homogeneous(terms):
        w = order.weight(terms[0][0])
        return sum((NCPoly.term(x, c) for x, c in terms if order.weight(x) == w), NCPoly.zero())

    relations = draw(st.lists(st.lists(term, min_size=1, max_size=4).map(homogeneous),
                              min_size=1, max_size=3))
    assume(any(not p.is_zero() for p in relations))
    bound = draw(st.integers(max(p.weight(order) for p in relations), 5))
    asked = st.lists(st.integers(0, ngens - 1), max_size=6).map(
        lambda w: _within(tuple(w), order, bound))
    query = st.one_of(asked, st.lists(st.tuples(asked, st.integers(-3, 3)), min_size=1,
                                      max_size=3).map(
        lambda ts: sum((NCPoly.term(w, c) for w, c in ts), NCPoly.zero())))
    return relations, order, bound, draw(st.lists(query, min_size=1, max_size=6))


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_homogeneous_queries())
def test_on_demand_completion_matches_eager(presentation):
    """A system of homogeneous relations completes as far as each query
    reads, in the order asked: its normal forms and normal words are those of
    the system completed to the bound at once, a query above the bound still
    raises, and forcing it gives the same rules, as does forcing the system
    resumed from its snapshot after the queries."""
    relations, order, bound, queries = presentation
    lazy = complete_truncated(relations, order, bound)
    eager = complete_truncated(relations, order, bound)
    eager.rules  # completes to the bound in one window
    for q in queries:
        if isinstance(q, tuple):
            assert lazy.is_normal_word(q) == eager.is_normal_word(q)
        else:
            assert lazy.normal_form(q) == eager.normal_form(q)
    with pytest.raises(ExceedsCertifiedDegree):
        lazy.enumerate_normal_words(bound + 1)
    assert lazy.enumerate_normal_words(bound) == eager.enumerate_normal_words(bound)
    resumed = RewriteSystem.from_dict(lazy.snapshot(), relations)
    assert resumed.completed_weight == lazy.completed_weight
    assert lazy.to_dict() == eager.to_dict() == resumed.to_dict()


def test_completion_waits_for_a_query_only_on_homogeneous_relations(glq8):
    """GL_q(2)'s relations are homogeneous in its weights (1 for u, 2 for
    D): its system completes to the weight a query reads.  O(SL_q(2))'s
    ad - qbc - 1 is not, so a heavy overlap can yield a light rule, and its
    system is complete when built."""
    rs = complete_truncated(glq8.relations, glq8.order, 6)
    assert rs.completed_weight == -1
    rs.normal_form(NCPoly.term((3, 2, 1)))
    assert rs.completed_weight == 3 and rs.snapshot()["done"] == 3
    with pytest.raises(ExceedsCertifiedDegree):
        rs.normal_form(NCPoly.term((4, 4, 4, 4)))
    assert rs.completed_weight == 3
    assert _rule_set_sha(rs) == RULE_SET_PINS["glq2-d6"] and rs.completed_weight == 6
    slq = build_slq(2, 4).rs
    assert slq.completed_weight == 4 and "done" not in slq.snapshot()


def test_laurent_over_slq_is_the_system_from_scratch(monkeypatch):
    """O(SL_q(2))[z^±1] completed over O(SL_q(2))'s system is, at degrees
    4-8, the system completed from scratch.  At degree 6 it reduces 16
    S-polynomials, the overlaps of a rule of z's, against 80 from scratch."""
    for d in range(4, 9):
        slql = build_slq_laurent(build_slq(2, d))
        assert slql.rs.to_dict() == complete_truncated(slql.relations, slql.order, d).to_dict()
    spolys = []
    real = rewrite._spoly
    monkeypatch.setattr(rewrite, "_spoly", lambda *args: spolys.append(1) or real(*args))
    slq = build_slq(2, 6)
    spolys.clear()
    slql = build_slq_laurent(slq)
    assert len(spolys) == 16
    spolys.clear()
    complete_truncated(slql.relations, slql.order, 6)
    assert len(spolys) == 80


class _DictCache:
    """The cache protocol of complete_with_cache over a dict of systems."""

    def __init__(self):
        self.systems = {}

    def load(self, key, order, degree_bound, relations):
        return self.systems.get(key)

    def store(self, key, rs):
        self.systems[key] = rs


def _laurent(slq, weights=(1, 1, 1, 1, 1), precedence=None, heavy=(4,)):
    """O(SL_q(2))[z^±1]'s relations over the algebra slq, and an order of
    its letters, by default its own."""
    z = NCPoly.gen(4)
    return (slq.relations + [z * x - x * z for x in map(NCPoly.gen, range(4))],
            MonomialOrder(weights, precedence, heavy))


def _refused(base, relations, order, bound, hit, match):
    """complete_truncated over base, or on hit complete_with_cache over base
    with the request's system in the cache, raises ValueError matching match."""
    if hit:
        cache = _DictCache()
        cache.store(system_cache_key(relations, order, bound),
                    complete_truncated(relations, order, bound))
        with pytest.raises(ValueError, match=match):
            complete_with_cache(relations, order, bound, cache, base)
    else:
        with pytest.raises(ValueError, match=match):
            complete_truncated(relations, order, bound, base)


_HIT = pytest.mark.parametrize("hit", [False, True], ids=["built", "cache-hit"])


@_HIT
def test_a_base_incomplete_to_the_bound_is_refused(hit):
    """A base complete to another bound, or not yet completed, is refused."""
    slq = build_slq(2, 4)
    _refused(slq.rs, *_laurent(slq), 5, hit, "complete to weight 4 of 4, not to 5")
    a, b = NCPoly.gen(0), NCPoly.gen(1)
    order = MonomialOrder([1, 1])
    lazy = complete_truncated([a * b - b * a], order, 4)
    _refused(lazy, [a * b - b * a, a * a - b * b], order, 4, hit,
             "complete to weight -1 of 4, not to 4")


@_HIT
def test_a_base_on_more_letters_is_refused(hit):
    """A base whose letters are not the first letters of the order, because
    it has more than the order, is refused."""
    slq = build_slq(2, 4)
    rels, order = _laurent(slq)
    base = complete_truncated(slq.relations, order, 4)
    _refused(base, slq.relations, slq.order, 4, hit, "not among the order's 4 letters")


@_HIT
@pytest.mark.parametrize("order", [{"weights": (2, 1, 1, 1, 1)},
                                   {"precedence": (1, 0, 2, 3, 4)},
                                   {"heavy": (0, 4)}],
                         ids=["weights", "precedence", "heavy"])
def test_a_base_whose_order_disagrees_is_refused(order, hit):
    """An order that weighs, ranks or makes heavy a letter of the base
    unlike the base's order is refused."""
    slq = build_slq(2, 4)
    _refused(slq.rs, *_laurent(slq, **order), 4, hit, "disagrees with the base's order")


@_HIT
def test_a_base_whose_relations_do_not_come_first_is_refused(hit):
    """Relations that do not begin with the base's, in its order, are refused."""
    slq = build_slq(2, 4)
    rels, order = _laurent(slq)
    _refused(slq.rs, [rels[1], rels[0], *rels[2:]], order, 4, hit,
             "relations are not the first")
    from_entry = RewriteSystem.from_dict(slq.rs.to_dict())
    _refused(from_entry, rels, order, 4, hit, "relations are not the first")


def _extension(rng):
    """A base and its extension, drawn from rng, at a bound of at most 4.
    The base has 2-3 letters of weights 1-2 under a drawn precedence, a
    weight-2 letter possibly heavy, and 1-2 relations of weight <= 3,
    homogeneous or not.  It is extended either by a central letter of weight
    1-2, anywhere in the precedence and possibly heavy, or by 1-2 more
    relations on its letters."""
    k = rng.randint(2, 3)
    weights = [rng.randint(1, 2) for _ in range(k)]
    precedence = rng.sample(range(k), k)
    heavy = {weights.index(2)} if 2 in weights and rng.random() < 0.5 else set()
    base_order = MonomialOrder(weights, precedence, heavy)

    def term(below):
        word = tuple(rng.randrange(k) for _ in range(rng.randint(1, 3)))
        return _within(word, base_order, below), rng.choice([-3, -2, -1, 1, 2, 3])

    def relation():
        """2-3 terms of one weight, and maybe one of a lower weight."""
        terms = [term(3) for _ in range(rng.randint(2, 3))]
        top = base_order.weight(terms[0][0])
        terms = [(w, c) for w, c in terms if base_order.weight(w) == top]
        if rng.random() < 0.5:
            terms.append(term(top - 1))
        return sum((NCPoly.term(w, c) for w, c in terms), NCPoly.zero())

    base_rels = [relation() for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.5:
        z = NCPoly.gen(k)
        at = rng.randint(0, k)
        order = MonomialOrder(weights + [rng.randint(1, 2)],
                              precedence[:at] + [k] + precedence[at:],
                              heavy | ({k} if rng.random() < 0.5 else set()))
        extra = [z * NCPoly.gen(g) - NCPoly.gen(g) * z for g in range(k)]
    else:
        order = base_order
        extra = [relation() for _ in range(rng.randint(1, 2))]
    relations = base_rels + extra
    bound = rng.randint(max(p.weight(order) for p in relations), 4)
    return base_rels, base_order, relations, order, bound


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(st.randoms(use_true_random=False))
def test_completion_over_a_base_matches_scratch(rng):
    """A system completed over a base complete to the bound has the normal
    words, asked weight by weight, and the rules of the system completed
    from scratch."""
    base_rels, base_order, relations, order, bound = _extension(rng)
    assume(any(not p.is_zero() for p in base_rels))
    base = complete_truncated(base_rels, base_order, bound)
    base.rules  # completes the base to the bound
    over = complete_truncated(relations, order, bound, base)
    scratch = complete_truncated(relations, order, bound)
    for w in range(bound + 1):
        assert over.enumerate_normal_words(w) == scratch.enumerate_normal_words(w)
    assert over.to_dict() == scratch.to_dict()


# tail coefficients over 2, 3, 5 and 7, with repeats so that terms cancel
_SPOLY_COEFFS = st.sampled_from([Fraction(n, d) for d in (1, 2, 3, 5, 7) for n in (-2, -1, 1, 3)])


@st.composite
def _rule_pairs(draw):
    """Two rules over two letters with leads of length 1-4, so that their
    leads often overlap or one contains the other, and arbitrary tails."""
    word = st.lists(st.integers(0, 1), max_size=3).map(tuple)
    tail = st.dictionaries(word, _SPOLY_COEFFS, max_size=4).map(NCPoly)
    lead = st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple)
    return [RewriteRule(draw(lead), draw(tail)) for _ in range(2)]


def _fraction_poly(nf):
    """The NCPoly of an integer form (coefficients, denominator)."""
    coeffs, den = nf
    return NCPoly({w: Fraction(c, den) for w, c in coeffs.items()})


def _assert_spolys_agree(rules):
    """Both orders of the pair, every olap and incl descriptor: the integer
    S-polynomial has the Fraction one's coefficients, with the keys in the
    same order.  Returns the kinds of descriptor compared."""
    kinds = set()
    for r1, r2 in (rules, rules[::-1]):
        for kind, pos in _overlaps(r1, r2):
            got = _fraction_poly(_spoly(r1, r2, kind, pos))
            want = _fraction_spoly(r1, r2, kind, pos)
            assert list(got.d.items()) == list(want.d.items())
            kinds.add(kind)
    return kinds


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_rule_pairs())
def test_integer_spoly_matches_fraction_spoly(rules):
    _assert_spolys_agree(rules)


def test_integer_spoly_cancels_like_fraction_spoly():
    """aba contains ba, and ba overlaps aba: in the incl S-polynomial the
    word a, first in r1's tail, cancels against r2's, and tails over 2, 3,
    5 and 7 meet."""
    r1 = RewriteRule((0, 1, 0), NCPoly({(0,): Fraction(1, 2), (): Fraction(3, 7)}))
    r2 = RewriteRule((1, 0), NCPoly({(0,): Fraction(1, 3), (1, 1): Fraction(2, 5),
                                     (): Fraction(1, 2)}))
    assert _assert_spolys_agree([r1, r2]) == {"olap", "incl"}
    assert list(_fraction_poly(_spoly(r1, r2, "incl", 1)).d) == [(), (0, 0), (0, 1, 1)]


_COEFFS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([Fraction(1, 3), Fraction(-2, 5), Fraction(1, 2), Fraction(-3, 4),
                     Fraction(7, 6)]),
)


@st.composite
def _rule_lists(draw, ngens=3):
    """Rules made monic from random polynomials over ngens weight-1
    letters, neither interreduced nor free of repeated leads."""
    order = MonomialOrder([1] * ngens)
    word = st.lists(st.integers(0, ngens - 1), max_size=3).map(tuple)
    poly = st.dictionaries(word, _COEFFS.filter(bool), min_size=1, max_size=4).map(
        lambda d: NCPoly({w: Fraction(c) for w, c in d.items()}))
    polys = draw(st.lists(poly.filter(lambda p: max(p.c, key=order.key)), min_size=1, max_size=8))
    return [rule_from_poly(p, order) for p in polys]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_rule_lists(), st.lists(st.tuples(
    st.lists(st.integers(0, 2), max_size=6).map(tuple), _COEFFS), max_size=5))
def test_integer_normal_forms_match_fraction_reducer(rules, terms):
    """Mixed int and Fraction input, non-dyadic rule tails: the same
    Fractions, with the keys in the same order."""
    d = {}
    for w, c in terms:
        d[w] = d.get(w, 0) + c
    p = NCPoly(d)
    got = _Reducer(rules).reduce(p)
    want = _FractionReducer(rules).reduce(p)
    assert list(got.d.items()) == list(want.d.items())
    assert all(type(c) is Fraction for c in got.d.values())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.integers(0, 1), min_size=1, max_size=3).map(tuple),
                min_size=1, max_size=8),
       st.lists(st.integers(0, 1), max_size=8).map(tuple),
       st.sets(st.integers(0, 7)))
@example(leads=[(0, 1), (0,), (0, 1)], word=(1, 0, 1), unlinked={0})
def test_indexed_find_redex_matches_linear_scan(leads, word, unlinked):
    """Leads over two letters often match at one position (a lead and its
    prefix, or a repeated lead): the first in list order wins, before and
    after some leads are taken out of the index."""
    rules = [RewriteRule(lead, NCPoly({})) for lead in leads]
    reducer = _Reducer(rules)
    want = _FractionReducer(rules).find_redex(word)
    assert reducer.find_redex(word) == want
    unlinked = sorted(unlinked & set(range(len(rules))))
    for seq in unlinked:
        reducer.unlink(seq)
    kept = [seq for seq in range(len(rules)) if seq not in unlinked]
    want = _FractionReducer([rules[seq] for seq in kept]).find_redex(word)
    got = reducer.find_redex(word)
    assert got == (want and (want[0], kept[want[1]]))
    for seq in unlinked:
        reducer.link(seq)
    assert reducer.find_redex(word) == _FractionReducer(rules).find_redex(word)


def test_memo_survives_an_append():
    """Every word of length <= 3 over a, b, c is memoized under ba -> 2ab - c,
    then bc -> a/3 is appended.  The two leads do not overlap, so normal
    forms are unique, and the stale memo gives each word the normal form of
    a fresh reducer over both rules, with the keys in the same order."""
    r0 = RewriteRule((1, 0), NCPoly({(0, 1): 2, (2,): -1}))
    r1 = RewriteRule((1, 2), NCPoly({(0,): Fraction(1, 3)}))
    reducer = _Reducer([r0])
    words = [w for k in range(4) for w in itertools.product(range(3), repeat=k)]
    for w in words:
        reducer.nf_word(w)
    reducer.append(r1)
    assert not reducer.cache and len(reducer.stale) >= len(words)
    fresh = _Reducer([r0, r1])
    for w in words:
        got, want = reducer.nf_word(w), fresh.nf_word(w)
        assert (list(got[0].items()), got[1]) == (list(want[0].items()), want[1]), w


def test_stale_normal_word_is_reduced():
    """ac is normal under ba -> ab, and its memoized form is itself; once
    ac -> b is appended, that stale entry is recomputed, not followed."""
    reducer = _Reducer([RewriteRule((1, 0), NCPoly.term((0, 1)))])
    assert reducer.nf_word((0, 2)) == ({(0, 2): 1}, 1)
    reducer.append(RewriteRule((0, 2), NCPoly.term((1,))))
    assert reducer.stale[(0, 2)] == ({(0, 2): 1}, 1)
    assert reducer.nf_word((0, 2)) == ({(1,): 1}, 1)


def test_interreduce_keeps_a_rule_whose_lead_was_memoized():
    """ba -> c and c -> a, with ba memoized as a through ba -> c: interreducing
    ba -> c reduces ba - c with its own rule unlinked, so it becomes ba -> a
    and is not dropped as ba - c = a - a."""
    reducer = _Reducer([RewriteRule((1, 0), NCPoly.term((2,))),
                        RewriteRule((2,), NCPoly.term((0,)))])
    assert reducer.nf_word((1, 0)) == ({(0,): 1}, 1)
    _interreduce(reducer, _Keys(MonomialOrder([1, 1, 1])))
    assert [(r.lead, r.tail) for r in reducer.rules.values()] == [
        ((1, 0), NCPoly.term((0,))), ((2,), NCPoly.term((0,)))]
