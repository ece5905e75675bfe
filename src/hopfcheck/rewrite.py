"""Degree-truncated two-sided noncommutative Groebner bases.

Completion resolves every overlap ambiguity whose overlap word has weight
at most the requested bound (diamond lemma, truncated).  Reduction never
increases weight, so the resulting system certifies normal forms and ideal
membership for all inputs within that weight.  Weight-homogeneous relations
are completed weight by weight, as far as the queries read.

Completion is fraction-free (Bareiss 1968) from end to end: S-polynomials,
normal forms and rule tails are all in foundation's integer form.  The
rule leads are indexed in a trie (the goto function of Aho & Corasick
1975), which finds redexes and overlap partners.  Completion adopts each
new rule as soon as it is found, and keeps the trie up to date as it
appends, replaces and drops rules.
"""

import hashlib
import json
from bisect import insort
from heapq import heappop, heappush
from math import lcm

from .errors import ExceedsCertifiedDegree, NoRelations, UnitCollapse
from .foundation import MonomialOrder, NCPoly, combine, frac_str, lowest_terms

# trie key under which a node lists the serials of the leads ending there;
# letters are generator indices, so never negative
_END = -1


class RewriteRule:
    """lead -> tail, with lead the order-maximal monomial and tail below it."""

    __slots__ = ("lead", "tail", "_spelt")

    def __init__(self, lead, tail):
        self.lead = tuple(lead)
        self.tail = tail
        self._spelt = None

    def poly(self):
        return NCPoly.term(self.lead) - self.tail

    def text(self):
        """The lead and tail words as one _text, spelt on first use."""
        if self._spelt is None:
            self._spelt = _text((self.lead, *self.tail.c))
        return self._spelt

    def __repr__(self):
        return f"RewriteRule({self.lead} -> {self.tail.d})"


def _monic_rule(nf, keys):
    """Monic rule of a nonzero (coefficients, denominator): its order-maximal
    word is the lead, and a word with coefficient n gets -n/c in the tail,
    for the lead's c."""
    coeffs, _ = nf
    lead = max(coeffs, key=keys.__getitem__)
    c = coeffs[lead]
    s = -1 if c > 0 else 1
    return RewriteRule(lead, NCPoly.of(*lowest_terms(
        {w: s * n for w, n in coeffs.items() if w != lead}, abs(c))))


class _Keys(dict):
    """order.key of every word looked up, each computed once."""

    __slots__ = ("order",)

    def __init__(self, order):
        super().__init__()
        self.order = order

    def __missing__(self, word):
        key = self[word] = self.order.key(word)
        return key


class _Reducer:
    """Reduction engine over an ordered, editable rule list.

    ``rules`` maps serial numbers to rules; list order is serial order.  The
    trie ``root`` indexes the leads of the linked rules.  Each word is
    rewritten at its leftmost redex, using the matching rule that comes
    first in list order, and the reduction recurses on the resulting words.
    Normal forms are memoized per word.  An append makes the memo stale: a
    stale form still equals its word modulo the rules, and is revalidated on
    first use.  Linking and unlinking leave the memo alone.
    """

    __slots__ = ("rules", "root", "empty", "maxlen", "cache", "stale", "_next")

    def __init__(self, rules):
        self.rules = {}
        self.root = {}
        self.empty = []  # serials of linked rules with the empty lead
        self.maxlen = 0  # no linked lead is longer
        self.cache = {}
        self.stale = {}
        self._next = 0
        for r in rules:
            self.append(r)

    def append(self, rule):
        """Add rule at the end of the list and index its lead."""
        seq = self._next
        self._next += 1
        self.rules[seq] = rule
        self.link(seq)
        self.age()

    def age(self):
        """Make the memo stale, as linking a lead must."""
        self.stale.update(self.cache)
        self.cache.clear()

    def link(self, seq):
        """Index the lead of rule seq."""
        lead = self.rules[seq].lead
        if lead:
            node = self.root
            for g in lead:
                node = node.setdefault(g, {})
            insort(node.setdefault(_END, []), seq)
            self.maxlen = max(self.maxlen, len(lead))
        else:
            insort(self.empty, seq)

    def unlink(self, seq):
        """Take the lead of rule seq out of the index; the rule keeps its place."""
        lead = self.rules[seq].lead
        if lead:
            path = [self.root]
            for g in lead:
                path.append(path[-1][g])
            ends = path[-1][_END]
            ends.remove(seq)
            if not ends:
                del path[-1][_END]
                for i in range(len(lead), 0, -1):
                    if path[i]:
                        break
                    del path[i - 1][lead[i - 1]]
        else:
            self.empty.remove(seq)

    def partners(self, lead, weights, room):
        """Serials of the linked leads that start inside lead and end inside
        it or run past its end by letters of weight at most room (weights are
        not negative): the rules that overlap lead or lie in it, and more."""
        out = set(self.empty)
        for i in range(len(lead)):
            node = self.root
            for g in lead[i:]:
                node = node.get(g)
                if node is None:
                    break
                out.update(node.get(_END, ()))
            else:
                below = [(node, 0)]
                while below:
                    node, w = below.pop()
                    for g, v in node.items():
                        if g != _END and w + weights[g] <= room:
                            below.append((v, w + weights[g]))
                            out.update(v.get(_END, ()))
        return out

    def find_redex(self, word, start=0):
        """(position, serial) of the leftmost redex of word, by the first
        matching rule in list order, or None if word is normal.

        The search begins at start, so word must hold no redex that starts
        before it.  An empty lead makes every word reducible.
        """
        if self.empty:
            return start, self.empty[0]
        root = self.root
        n = len(word)
        for pos in range(start, n):
            node = root.get(word[pos])
            best = None
            j = pos + 1
            while node is not None:
                ends = node.get(_END)
                if ends is not None and (best is None or ends[0] < best):
                    best = ends[0]
                if j == n:
                    break
                node = node.get(word[j])
                j += 1
            if best is not None:
                return pos, best
        return None

    def nf_word(self, word):
        """Normal form of a single word, as (coefficients, denominator)."""
        if self.empty:
            return {}, 1
        cache = self.cache
        hit = cache.get(word)
        if hit is not None:
            return hit
        rules = self.rules
        stale = self.stale
        # iterative post-order over the rewrite dag rooted at word; an entry
        # is (word, start, None) until its redex is found, then
        # (word, denominator, children)
        stack = [(word, 0, None)]
        while stack:
            w, x, children = stack[-1]
            if children is not None:
                stack.pop()
                cache[w] = combine(x, [(n, cache[cw]) for cw, n in children])
                continue
            if w in cache:
                stack.pop()
                continue
            old = stale.get(w)
            if old is not None and w not in old[0]:
                # a stale form of a reducible word: current if its words
                # are still normal, else one rewrite step to them
                coeffs = old[0]
                for cw in coeffs:
                    hit = cache.get(cw)
                    if hit is None:
                        if self.find_redex(cw) is not None:
                            break
                        cache[cw] = ({cw: 1}, 1)
                    elif cw not in hit[0]:
                        break
                else:
                    cache[w] = old
                    stack.pop()
                    continue
                stack[-1] = (w, old[1], list(coeffs.items()))
                stack.extend((cw, 0, None) for cw in coeffs if cw not in cache)
                continue
            red = self.find_redex(w, x)
            if red is None:
                cache[w] = ({w: 1}, 1)
                stack.pop()
                continue
            pos, seq = red
            rule = rules[seq]
            pre, post = w[:pos], w[pos + len(rule.lead) :]
            children = [(pre + tw + post, n) for tw, n in rule.tail.c.items()]
            stack[-1] = (w, rule.tail.den, children)
            # w[:pos] holds no redex, so one in a child ends past pos
            start = max(0, pos + 1 - self.maxlen)
            stack.extend((cw, start, None) for cw, _ in children if cw not in cache)
        return cache[word]

    def nf(self, coeffs, den):
        """Normal form of the sum of n/den * word over coeffs {word: n}."""
        return combine(den, [(n, self.nf_word(w)) for w, n in coeffs.items()])

    def reduce(self, p):
        """Normal form of the NCPoly p."""
        return NCPoly.of(*self.nf(p.c, p.den))


def _resolve_overlaps(reducer, rules, fresh, order, lo, hi):
    """(ambiguity word, normal form of its S-polynomial) for every overlap
    of weight in the window (lo, hi] between two of rules, at least one of
    them in fresh, in the order of rules, which maps serials to linked rules
    of reducer.  A lead trie names each rule's partners: the reducer's for a
    fresh rule, which may grow meanwhile, and one of the fresh leads for the
    others.
    """
    index = _Reducer([])
    for seq, r in rules.items():
        if r in fresh:
            index.rules[seq] = r
            index.link(seq)
    for r1 in rules.values():
        trie = reducer if r1 in fresh else index
        room = hi - order.weight(r1.lead)
        for seq in sorted(trie.partners(r1.lead, order.weights, room)):
            r2 = rules.get(seq)
            if r2 is None:
                continue
            for kind, pos in _overlaps(r1, r2):
                word = r1.lead + r2.lead[pos:] if kind == "olap" else r1.lead
                if lo < order.weight(word) <= hi:
                    yield word, reducer.nf(*_spoly(r1, r2, kind, pos))


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


def _spoly(r1, r2, kind, pos):
    """Difference left - right of the two one-step reductions of the ambiguity
    word, r1's minus r2's, in integer form.

    r1's words come first, then r2's, and a word whose coefficient cancels
    is deleted, so the keys come out in the order of the Fraction
    difference.
    """
    L1 = r1.lead
    if kind == "olap":
        post1, pre2, post2 = r2.lead[pos:], L1[: len(L1) - pos], ()
    else:
        post1, pre2, post2 = (), L1[:pos], L1[pos + len(r2.lead) :]
    t1, t2 = r1.tail, r2.tail
    return combine(1, [(1, ({w + post1: n for w, n in t1.c.items()}, t1.den)),
                       (-1, ({pre2 + w + post2: n for w, n in t2.c.items()}, t2.den))])


def _text(words):
    """words spelt for substring search: letter g as chr(g + 1), the words
    joined by chr(0), which is no letter, so a lead's _text occurs in it
    only inside a word."""
    return "\0".join(["".join([chr(g + 1) for g in w]) for w in words])


def _by_lead(rules, keys):
    """rules sorted by the order's key of their leads, from the memo keys."""
    return sorted(rules, key=lambda r: keys[r.lead])


class RewriteSystem:
    """An interreduced, degree-certified rewrite system.

    A system of weight-homogeneous relations keeps its completion state and
    is completed only as far as a query reads.  For such relations every
    S-polynomial of an overlap of weight w is homogeneous of weight w, so
    the rules and normal forms of weight <= w are those of the system
    completed to any larger bound (Bergman 1978, truncated by degree).
    normal_form, reduce, is_normal_word, enumerate_normal_words,
    nonzero_witness and collapsed complete it to the weight they read;
    rules, to_dict and verify_confluence complete it to the certified
    degree; completed_weight, completed_rules and snapshot read it as far
    as it is completed.  Every other system is complete from the start.
    """

    FORMAT_VERSION = 1

    def __init__(self, order, rules, certified_degree, relations=None, done=-1):
        """The system of rules, complete to certified_degree; or, given
        relations, the system that completes them, of which rules are the
        rules of weight <= done."""
        self.order = order
        self.certified_degree = certified_degree
        keys = _Keys(order)
        self._rules = _by_lead(rules, keys)
        self._reducer = _Reducer(self._rules)
        # the relations still to complete and the keys of their words, None
        # once complete; every relation and overlap of weight <= _done is
        # resolved
        self._relations = relations
        self._keys = None if relations is None else keys
        self._done = certified_degree if relations is None else done
        self._ready = None  # the polynomial normal_form has just completed for
        self._write_back = None  # (cache, key) that stores each completed window

    def _complete_to(self, weight):
        """Resolve every relation and overlap of weight in the window (done,
        weight], weight capped at the certified degree.

        Each nonzero normal form of a relation, or of the S-polynomial of an
        overlap of the rules a round starts with, becomes a rule at once.  A
        round first interreduces the rules of this window; the first round
        that adds no rule is the last.  The rules below the window cannot
        change, since the relations are homogeneous or the window starts
        below every weight.  The queries' memo of normal forms, all of
        weight <= done, stays valid and is set aside meanwhile.  A system
        with a write-back (complete_with_cache) is stored after the window.
        """
        if self._relations is None:
            return
        lo, hi = self._done, min(weight, self.certified_degree)
        if hi <= lo:
            return
        reducer, keys, order = self._reducer, self._keys, self.order
        memo = reducer.cache
        reducer.cache, reducer.stale = {}, {}
        start = reducer._next  # the serials of this window's rules
        forms = (reducer.nf(p.c, p.den) for p in self._relations if lo < p.weight(order) <= hi)
        rules = {}
        while True:
            for nf in forms:
                if nf[0]:
                    reducer.append(_monic_rule(nf, keys))
            if len(reducer.rules) == len(rules):
                break
            # every overlap between two of the last round's rules is resolved
            done = set(rules.values())
            _interreduce(reducer, keys, start)
            rules = dict(reducer.rules)
            fresh = {r for r in rules.values() if r not in done}
            forms = (nf for _, nf in _resolve_overlaps(reducer, rules, fresh, order, lo, hi))
        reducer.cache, reducer.stale = memo, {}
        reducer.maxlen = max((len(r.lead) for r in reducer.rules.values()), default=0)
        self._done = hi
        if hi == self.certified_degree:
            self._rules = _by_lead(reducer.rules.values(), keys)
            self._relations = self._keys = None
        # a window below every relation resolves nothing and is not stored
        if self._write_back is not None and reducer.rules:
            cache, key = self._write_back
            cache.store(key, self)

    # -- queries ------------------------------------------------------------

    @property
    def completed_weight(self):
        """The weight up to which every relation and overlap is resolved."""
        return self._done

    @property
    def completed_rules(self):
        """The rules completed so far, every one of weight <= completed_weight,
        sorted by lead."""
        if self._relations is None:
            return self._rules
        return _by_lead(self._reducer.rules.values(), self._keys)

    @property
    def rules(self):
        """Every rule, completed to the certified degree, sorted by lead."""
        self._complete_to(self.certified_degree)
        return self._rules

    @property
    def collapsed(self):
        """1 reduces to 0: some rule has the empty lead."""
        self._complete_to(0)
        return bool(self._reducer.empty)

    def reduce(self, p):
        """Normal form without the certification guard (internal use)."""
        if self._relations is not None and p is not self._ready:
            self._complete_to(p.weight(self.order))
        return self._reducer.reduce(p)

    def normal_form(self, p):
        weight = p.weight(self.order)
        if weight > self.certified_degree:
            raise ExceedsCertifiedDegree(
                f"weight {weight} > certified {self.certified_degree}"
            )
        self._complete_to(weight)
        self._ready = p
        return self.reduce(p)

    def is_normal_word(self, word):
        if self._relations is not None:
            self._complete_to(self.order.weight(word))
        return not self.collapsed and self._reducer.find_redex(word) is None

    def nonzero_witness(self):
        """Certified degree up to which the algebra is provably nonzero."""
        if self.collapsed or self.reduce(NCPoly.one()).is_zero():
            raise UnitCollapse("1 reduces to 0")
        return {"nonzero_up_to": self.certified_degree}

    def enumerate_normal_words(self, max_weight):
        """All irreducible words of weight <= max_weight, sorted by order."""
        if max_weight > self.certified_degree:
            raise ExceedsCertifiedDegree(
                f"weight {max_weight} > certified {self.certified_degree}")
        if self.collapsed:
            return []
        self._complete_to(max_weight)
        out = [()]
        frontier = [((), 0)]  # (normal word, its weight)
        letters = list(enumerate(self.order.weights))
        find_redex = self._reducer.find_redex
        maxlen = self._reducer.maxlen
        while frontier:
            new = []
            for w, weight in frontier:
                for g, x in letters:
                    if weight + x > max_weight:
                        continue
                    w2 = w + (g,)
                    # w is normal, so only a suffix of w2 can be a redex
                    if find_redex(w2, max(0, len(w2) - maxlen)) is None:
                        new.append((w2, weight + x))
            out.extend(w for w, _ in new)
            frontier = new
        out.sort(key=self.order.key)
        return out

    def verify_confluence(self):
        """Recheck that every in-bound overlap of the final rules resolves."""
        resolved = list(_resolve_overlaps(self._reducer, self._reducer.rules, set(self.rules),
                                          self.order, -1, self.certified_degree))
        return {"overlaps_checked": len(resolved),
                "failures": [(word, NCPoly.of(*nf)) for word, nf in resolved if nf[0]]}

    # -- serialization --------------------------------------------------------

    def snapshot(self):
        """The to_dict payload of the rules completed so far; while the system
        is incomplete, with "done", its completed weight."""
        d = {
            "version": self.FORMAT_VERSION,
            "order": self.order.to_dict(),
            "certified_degree": self.certified_degree,
            "collapsed": bool(self._reducer.empty),
            "rules": [{"lead": list(r.lead), "tail": _poly_payload(r.tail, self.order)}
                      for r in self.completed_rules],
        }
        if self._relations is not None:
            d["done"] = self._done
        return d

    def to_dict(self):
        """The snapshot of the system completed to the certified degree."""
        self._complete_to(self.certified_degree)
        return self.snapshot()

    @classmethod
    def from_dict(cls, d, relations=None):
        """The system of a snapshot; one with "done" resumes completing the
        given relations from there.  ValueError or TypeError on a coefficient
        that is not a string "p/q" with q > 0, ValueError on a letter that is
        not an int in range(len(order.weights)), on a "collapsed" flag that
        is not the bool the rules decide, and, for a snapshot with "done", on
        a done that is not an int in [-1, certified_degree), on relations
        that are not homogeneous in the order's weights, and on a rule whose
        lead weighs more than done."""
        order = MonomialOrder.from_dict(d["order"])
        ngens = len(order.weights)
        rules = [RewriteRule(_parse_word(r["lead"], ngens), _parse_tail(r["tail"], ngens))
                 for r in d["rules"]]
        if "done" not in d:
            rs = cls(order, rules, d["certified_degree"])
        else:
            done = d["done"]
            if type(done) is not int or not -1 <= done < d["certified_degree"]:
                raise ValueError(f"done {done!r} is not an int in [-1, certified degree)")
            relations = [p for p in relations or () if not p.is_zero()]
            if not relations or not _homogeneous(relations, order):
                raise ValueError("an incomplete system needs homogeneous relations")
            heavy = [r.lead for r in rules if order.weight(r.lead) > done]
            if heavy:
                raise ValueError(f"lead {list(heavy[0])} weighs more than done {done}")
            rs = cls(order, rules, d["certified_degree"], relations, done)
        collapsed = bool(rs._reducer.empty)
        if d.get("collapsed") is not collapsed:
            raise ValueError(f"collapsed flag {d.get('collapsed')!r} is not {collapsed}")
        return rs


def _parse_word(letters, ngens):
    """The word of a list of letters, each an int (not a bool) in range(ngens)."""
    word = tuple(letters)
    for g in word:
        if type(g) is not int or not 0 <= g < ngens:
            raise ValueError(f"letter {g!r} is not one of the {ngens} generators")
    return word


def _parse_tail(terms, ngens):
    """The NCPoly of [{"word": w, "coeff": "p/q"}, ...], in integer form
    over the lcm of the q, built with int alone."""
    parsed = []
    for t in terms:
        coeff = t["coeff"]
        if not isinstance(coeff, str):
            raise TypeError(f"coefficient {coeff!r} is not a string")
        p, q = coeff.split("/")
        p, q = int(p), int(q)
        if q <= 0:
            raise ValueError(f"coefficient {coeff!r} has a denominator <= 0")
        parsed.append((_parse_word(t["word"], ngens), p, q))
    den = lcm(*(q for _, _, q in parsed))
    return NCPoly.of(*lowest_terms({w: p * (den // q) for w, p, q in parsed if p}, den))


def _interreduce(reducer, keys, start=0):
    """Reduce every rule of serial >= start against the others until
    stable; drop zeros.

    Each step takes the first rule, in list order, with a word that contains
    another rule's lead, and reduces its lead minus tail with its own lead
    unlinked and the memo emptied; the monic rule of that normal form
    replaces it, or it is dropped if that is zero.  A rule is tested again
    only when a lead it contains has been linked since its last test
    (dropping a lead makes no rule reducible), by one search of its text().
    The rules below start must contain no lead of the others.
    """
    rules = reducer.rules
    heap = [s for s in rules if s >= start]
    queued = set(heap)
    while heap:
        seq = heappop(heap)
        queued.discard(seq)
        rule = rules[seq]
        reducer.unlink(seq)
        if all(reducer.find_redex(w) is None for w in (rule.lead, *rule.tail.c)):
            reducer.link(seq)
            continue
        den = rule.tail.den
        coeffs = {rule.lead: den}
        coeffs.update((w, -n) for w, n in rule.tail.c.items())
        reducer.cache.clear()
        reducer.stale.clear()
        nf = reducer.nf(coeffs, den)
        if not nf[0]:
            del rules[seq]
            continue
        rule = rules[seq] = _monic_rule(nf, keys)
        reducer.link(seq)
        reducer.age()
        lead = _text((rule.lead,))
        for s, r in rules.items():
            if s >= start and s not in queued and s != seq and lead in r.text():
                heappush(heap, s)
                queued.add(s)


def complete_truncated(relations, order, degree_bound):
    """Truncated two-sided completion of the given relation polynomials.

    Returns a RewriteSystem whose overlaps of weight <= degree_bound all
    resolve to zero: the interreduced, monic system of the relations, order
    and bound, whatever the order of the work.  Relations that are all
    homogeneous in the order's weights are completed on demand, as far as
    the system's queries read (see RewriteSystem); any others at once.

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
    rs = RewriteSystem(order, (), degree_bound, relations)
    if not _homogeneous(relations, order):
        rs._complete_to(degree_bound)
    return rs


def _homogeneous(relations, order):
    """Whether every relation's words have one weight in the order's weights."""
    return all(len({order.weight(w) for w in p.c}) == 1 for p in relations)


def _poly_payload(p, order):
    """The terms of p as [{"word": w, "coeff": "p/q"}, ...], words sorted by order.key."""
    return [{"word": list(w), "coeff": frac_str(c)}
            for w, c in sorted(p.d.items(), key=lambda t: order.key(t[0]))]


def canonical_json(payload):
    """The canonical text of payload: sorted keys, no spaces (the C encoder)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def text_hash(text):
    """sha256 of a text, also of one with a lone surrogate read from a tampered file."""
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()


def content_hash(payload):
    """sha256 of the canonical JSON of payload."""
    return text_hash(canonical_json(payload))


def system_cache_key(relations, order, degree_bound):
    """Content hash of (relations, order, bound), for persistent caches."""
    return content_hash({
        "order": order.to_dict(),
        "bound": degree_bound,
        "relations": [_poly_payload(p, order) for p in relations],
    })


def complete_with_cache(relations, order, degree_bound, cache=None):
    """complete_truncated behind an optional cache (see cli.GBCache and cli.Refill).

    The key, ``system_cache_key``, is computed here once per build and names
    the request: relations, order and bound.  A cache has ``load(key, order,
    degree_bound, relations)``, which returns a stored system or None, and
    ``store(key, rs)``, which stores ``rs.snapshot()``.  It binds an entry
    to the request by the key, the hash of the stored text, and the order
    and certified degree of the stored system.  An entry of homogeneous
    relations holds the system as far as it was completed, and load resumes
    it with the request's relations, which the key hashes.  A system
    complete when built is stored at once; an incomplete one is stored
    again after each window its queries complete, inside the query.
    """
    if cache is None:
        return complete_truncated(relations, order, degree_bound)
    key = system_cache_key(relations, order, degree_bound)
    rs = cache.load(key, order, degree_bound, relations)
    if rs is None:
        rs = complete_truncated(relations, order, degree_bound)
        if rs.completed_weight == degree_bound:
            cache.store(key, rs)
    if rs.completed_weight < degree_bound:
        rs._write_back = (cache, key)
    return rs
