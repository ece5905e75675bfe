"""Degree-truncated two-sided noncommutative Groebner bases.

Completion resolves every overlap ambiguity whose overlap word has weight
at most the requested bound (diamond lemma, truncated).  Reduction never
increases weight, so the resulting system certifies normal forms and ideal
membership for all inputs within that weight.
"""

import hashlib
import json
from fractions import Fraction

from .errors import ExceedsCertifiedDegree, NoRelations, UnitCollapse
from .foundation import MonomialOrder, NCPoly, frac, frac_str

ONE = Fraction(1)


class RewriteRule:
    """lead -> tail, with lead the order-maximal monomial and tail below it."""

    __slots__ = ("lead", "tail", "_sig")

    def __init__(self, lead, tail):
        self.lead = tuple(lead)
        self.tail = tail
        self._sig = None

    def poly(self):
        return NCPoly.term(self.lead) - self.tail

    def signature(self):
        if self._sig is None:
            self._sig = (self.lead, frozenset(self.tail.d.items()))
        return self._sig

    def __repr__(self):
        return f"RewriteRule({self.lead} -> {self.tail.d})"


def rule_from_poly(p, order):
    """Monic rule with the order-maximal word of p as lead."""
    lead = p.max_word(order)
    c = p.d[lead]
    tail = NCPoly({w: -x / c for w, x in p.d.items() if w != lead})
    return RewriteRule(lead, tail)


class _Reducer:
    """Reduction engine over a fixed rule list, memoized per word.

    Deterministic: each word is rewritten at its leftmost redex, using the
    first matching rule in the (order-sorted) rule list, and the reduction
    recurses on the resulting words.
    """

    __slots__ = ("rules", "order", "by_letter", "has_empty", "cache")

    def __init__(self, rules, order):
        self.rules = rules
        self.order = order
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
            ids = self.by_letter.get(word[pos])
            if not ids:
                continue
            for i in ids:
                lead = self.rules[i].lead
                if word[pos : pos + len(lead)] == lead:
                    return pos, i
        return None

    def nf_word(self, word):
        """Normal form of a single word as a coefficient dict."""
        if self.has_empty:
            return {}
        cache = self.cache
        hit = cache.get(word)
        if hit is not None:
            return hit
        # iterative post-order over the rewrite dag rooted at word
        stack = [word]
        while stack:
            w = stack[-1]
            if w in cache:
                stack.pop()
                continue
            red = self.find_redex(w)
            if red is None:
                cache[w] = {w: ONE}
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


def reduce_poly(p, rules, order):
    """One-shot full normal form (builds a throwaway reducer)."""
    return _Reducer(rules, order).reduce(p)


def _overlaps(r1, r2):
    """Overlap descriptors between the leads of r1 (left) and r2 (right).

    Yields ("olap", k) when a length-k proper suffix of r1.lead equals a
    prefix of r2.lead, and ("incl", i) when r2.lead sits inside r1.lead at
    position i.
    """
    L1, L2 = r1.lead, r2.lead
    n1, n2 = len(L1), len(L2)
    for k in range(1, min(n1, n2)):
        if L1[n1 - k :] == L2[:k]:
            yield ("olap", k)
    if n2 < n1:
        for i in range(n1 - n2 + 1):
            if L1[i : i + n2] == L2:
                yield ("incl", i)


def _ambiguity_word(r1, r2, kind, pos):
    """The word on which the two leads of an overlap descriptor meet."""
    return r1.lead + r2.lead[pos:] if kind == "olap" else r1.lead


def _spoly(r1, r2, kind, pos):
    """Difference of the two one-step reductions of the ambiguity word."""
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


def _has_subword(word, sub):
    n = len(sub)
    return any(word[i : i + n] == sub for i in range(len(word) - n + 1))


class RewriteSystem:
    """A frozen, interreduced, degree-certified rewrite system."""

    FORMAT_VERSION = 1

    def __init__(self, order, rules, certified_degree, collapsed=False):
        self.order = order
        self.rules = sorted(rules, key=lambda r: order.key(r.lead))
        self.certified_degree = certified_degree
        self.collapsed = collapsed
        self._reducer = _Reducer(self.rules, order)

    # -- queries ------------------------------------------------------------

    def reduce(self, p):
        """Normal form without the certification guard (internal use)."""
        return self._reducer.reduce(p)

    def normal_form(self, p):
        if p.weight(self.order) > self.certified_degree:
            raise ExceedsCertifiedDegree(
                f"weight {p.weight(self.order)} > certified {self.certified_degree}"
            )
        return self.reduce(p)

    def is_normal_word(self, word):
        return not self.collapsed and self._reducer.find_redex(word) is None

    def ideal_member(self, p):
        if p.weight(self.order) > self.certified_degree:
            return "uncertified"
        return "yes" if self.reduce(p).is_zero() else "no"

    def nonzero_witness(self):
        """Certified degree up to which the algebra is provably nonzero."""
        if self.collapsed or not self.reduce(NCPoly.one()).d:
            raise UnitCollapse("1 reduces to 0")
        return {"nonzero_up_to": self.certified_degree}

    def enumerate_normal_words(self, max_weight):
        """All irreducible words of weight <= max_weight, sorted by order."""
        assert max_weight <= self.certified_degree
        if self.collapsed:
            return []
        out = [()]
        frontier = [()]
        ngens = len(self.order.weights)
        lead_lengths = sorted({len(r.lead) for r in self.rules})
        by_letter = self._reducer.by_letter
        while frontier:
            new = []
            for w in frontier:
                for g in range(ngens):
                    w2 = w + (g,)
                    if self.order.weight(w2) > max_weight:
                        continue
                    # only a suffix of w2 can be a fresh redex
                    bad = False
                    for L in lead_lengths:
                        if L <= len(w2):
                            suf = w2[len(w2) - L :]
                            ids = by_letter.get(suf[0], ())
                            if any(self.rules[i].lead == suf for i in ids):
                                bad = True
                                break
                    if not bad:
                        new.append(w2)
            out.extend(new)
            frontier = new
        out.sort(key=self.order.key)
        return out

    def verify_confluence(self):
        """Recheck that every in-bound overlap of the final rules resolves."""
        checked = 0
        failures = []
        for r1 in self.rules:
            for r2 in self.rules:
                for kind, pos in _overlaps(r1, r2):
                    word = _ambiguity_word(r1, r2, kind, pos)
                    if self.order.weight(word) > self.certified_degree:
                        continue
                    checked += 1
                    nf = self.reduce(_spoly(r1, r2, kind, pos))
                    if not nf.is_zero():
                        failures.append((word, nf))
        return {"overlaps_checked": checked, "failures": failures}

    # -- serialization --------------------------------------------------------

    def to_dict(self):
        return {
            "version": self.FORMAT_VERSION,
            "order": self.order.to_dict(),
            "certified_degree": self.certified_degree,
            "collapsed": self.collapsed,
            "rules": [
                {
                    "lead": list(r.lead),
                    "tail": [
                        {"word": list(w), "coeff": frac_str(c)}
                        for w, c in sorted(
                            r.tail.d.items(), key=lambda t: self.order.key(t[0])
                        )
                    ],
                }
                for r in self.rules
            ],
        }

    @classmethod
    def from_dict(cls, d):
        order = MonomialOrder.from_dict(d["order"])
        rules = [
            RewriteRule(
                tuple(r["lead"]),
                NCPoly({tuple(t["word"]): frac(t["coeff"]) for t in r["tail"]}),
            )
            for r in d["rules"]
        ]
        return cls(order, rules, d["certified_degree"], d.get("collapsed", False))


def _interreduce(rules, order):
    """Reduce every rule against the others until stable; drop zeros."""
    queue = True
    while queue:
        queue = False
        for i in range(len(rules)):
            r = rules[i]
            others = rules[:i] + rules[i + 1 :]
            nf = reduce_poly(r.poly(), others, order)
            if nf == r.poly():
                continue
            queue = True
            if nf.is_zero():
                rules.pop(i)
            else:
                rules[i] = rule_from_poly(nf, order)
            break
    return rules


def _absorb(rules, pending, order):
    """Append rules made from pending polynomials, smallest lead first.

    Every pending polynomial must be normal for ``rules``.  Each new rule is
    made from the pending polynomial with the least leading word; the rest
    are then normal for every rule but the new one, so only those with a
    word containing its lead are re-reduced (and re-keyed).  The others
    keep their polynomial and key, and the stable sort sees the same list
    as a full re-reduction would give.
    """
    items = [(order.key(p.max_word(order)), p) for p in pending]
    while items:
        items.sort(key=lambda t: t[0])
        rule = rule_from_poly(items[0][1], order)
        rules.append(rule)
        reducer = None
        rest = []
        for k, p in items[1:]:
            if any(_has_subword(w, rule.lead) for w in p.d):
                if reducer is None:
                    reducer = _Reducer(rules, order)
                p = reducer.reduce(p)
                if p.is_zero():
                    continue
                k = order.key(p.max_word(order))
            rest.append((k, p))
        items = rest


def complete_truncated(relations, order, degree_bound):
    """Truncated two-sided completion of the given relation polynomials.

    Returns a RewriteSystem whose overlaps of weight <= degree_bound all
    resolve to zero.  Deterministic for a fixed order and input sequence:
    pending polynomials are absorbed in (weight, lead) ascending order and
    the rule set is interreduced after every batch.

    A collapse of the algebra (1 reducible to 0) is recorded on the system,
    not raised.
    """
    relations = [p for p in relations if not p.is_zero()]
    if not relations:
        raise NoRelations("completion needs at least one nonzero relation")
    maxw = max(p.weight(order) for p in relations)
    if degree_bound < maxw:
        raise ExceedsCertifiedDegree(
            f"degree_bound {degree_bound} below max relation weight {maxw}")

    rules = []
    pending = list(relations)
    seen = set()
    while True:
        _absorb(rules, pending, order)
        rules = _interreduce(rules, order)

        reducer = _Reducer(rules, order)
        new = []
        for r1 in rules:
            for r2 in rules:
                for kind, pos in _overlaps(r1, r2):
                    key = (r1.signature(), r2.signature(), kind, pos)
                    if key in seen:
                        continue
                    seen.add(key)
                    if order.weight(_ambiguity_word(r1, r2, kind, pos)) > degree_bound:
                        continue
                    nf = reducer.reduce(_spoly(r1, r2, kind, pos))
                    if not nf.is_zero():
                        new.append(nf)
        if not new:
            break
        pending = new

    collapsed = any(not r.lead for r in rules)
    return RewriteSystem(order, rules, degree_bound, collapsed)


def content_hash(payload):
    """sha256 of the canonical JSON of payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _relations_payload(relations):
    return [
        sorted(
            ([list(w), frac_str(c)] for w, c in p.d.items()),
            key=lambda t: (len(t[0]), t[0], t[1]),
        )
        for p in relations
    ]


def system_cache_key(relations, order, degree_bound):
    """Content hash of (relations, order, bound), for persistent caches."""
    return content_hash({
        "order": order.to_dict(),
        "bound": degree_bound,
        "relations": _relations_payload(relations),
    })


def relations_digest(relations):
    """Content hash of the relations alone; a cache entry stores it to be
    checked against the request on load."""
    return content_hash(_relations_payload(relations))


def complete_with_cache(relations, order, degree_bound, cache=None):
    """complete_truncated behind an optional cache (see cli.GBCache, cli.RunMemo)."""
    if cache is None:
        return complete_truncated(relations, order, degree_bound)
    key = system_cache_key(relations, order, degree_bound)
    rs = cache.load(key, relations)
    if rs is None:
        rs = complete_truncated(relations, order, degree_bound)
        cache.store(key, rs, relations)
    return rs
