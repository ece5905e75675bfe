"""Finite-dimensional comodules, free Yetter-Drinfeld modules, Hom spaces.

A comodule is a coaction matrix c over the algebra, rho(v_i) = sum_k v_k (x)
c[k][i].  The free Yetter-Drinfeld module V ⊠ H is V (x) H with right
multiplication and the twisted coaction
    v (x) h  |->  v_(0) (x) h_(2) (x) S(h_(1)) v_(1) h_(3),
and elements of V (x) H (x) H are carried as one arity-2 tensor per module
basis vector (the h-slot and the coaction slot).
"""

from fractions import Fraction

from .errors import IdentityFailed
from .foundation import NCPoly
from .hopf import TensorElt, apply_slot
from .linalg import kernel_basis


class Comodule:
    """Coaction matrix c over hopf.alg with rho(v_i) = sum_k v_k (x) c[k][i];
    it never changes, so verify keeps its verdict."""

    def __init__(self, hopf, c, labels=None, name=""):
        self.hopf = hopf
        self.alg = hopf.alg
        self.c = c
        self.dim = len(c)
        self.labels = labels or [f"v{i}" for i in range(self.dim)]
        self.name = name
        self._report = None

    def verify(self):
        """Counit and coassociativity of the coaction matrix, entry by entry."""
        if self._report is None:
            failures = self._counit_failures() + self._coassoc_failures()
            self._report = {"ok": not failures, "failures": failures}
        return self._report

    def _counit_failures(self):
        eps = self.hopf.eps
        return [("counit", (k, i)) for k in range(self.dim) for i in range(self.dim)
                if eps.apply_loc(self.c[k][i]) != (int(k == i), 1)]

    def _coassoc_failures(self):
        alg = self.alg
        delta = self.hopf.delta
        failures = []
        for k in range(self.dim):
            for i in range(self.dim):
                lhs = delta.apply_loc(self.c[k][i])
                rhs = TensorElt.sum((alg, alg), [TensorElt.from_locs((self.c[k][j], self.c[j][i]))
                                                 for j in range(self.dim)])
                if not (lhs - rhs).is_zero():
                    failures.append(("coassoc", (k, i)))
        return failures


def build_comodule(kind, hopf, parts=None):
    """trivial | fundamental | dual_fundamental | tensor(list of comodules) over hopf.alg.

    Raises IdentityFailed if the result breaks the comodule axioms.  A
    tensor product's counit is checked entry by entry; its coassociativity
    is decided by what implies it (``_tensor_coassoc_failures``).
    """
    alg = hopf.alg
    n = alg.n
    if kind == "trivial":
        V = Comodule(hopf, [[alg.one()]], labels=["1"], name="k")
    elif kind == "fundamental":
        c = [[alg.u_elt(k, i) for i in range(n)] for k in range(n)]
        V = Comodule(hopf, c, labels=[f"v{i+1}" for i in range(n)], name="V")
    elif kind == "dual_fundamental":
        S = hopf.antipode
        c = [[S.apply_loc(alg.u_elt(i, j)) for i in range(n)] for j in range(n)]
        V = Comodule(hopf, c, labels=[f"v{i+1}*" for i in range(n)], name="V*")
    elif kind == "tensor":
        Vs = parts
        dims = [W.dim for W in Vs]
        index = [tuple(idx) for idx in _cartesian(dims)]
        c = []
        for kk in index:
            row = []
            for ii in index:
                e = Vs[0].alg.one()
                for W, k_, i_ in zip(Vs, kk, ii):
                    e = e * W.c[k_][i_]
                row.append(e)
            c.append(row)
        labels = ["(x)".join(W.labels[i] for W, i in zip(Vs, idx)) for idx in index]
        V = Comodule(hopf, c, labels=labels, name="(x)".join(W.name for W in Vs))
    else:
        raise ValueError(f"unknown comodule kind {kind!r}")
    if kind == "tensor":
        failures = V._counit_failures() + _tensor_coassoc_failures(hopf, parts)
    else:
        failures = V.verify()["failures"]
    if failures:
        raise IdentityFailed(f"comodule axioms failed: {failures[:3]}")
    return V


def _tensor_coassoc_failures(hopf, parts):
    """The premises that make a tensor product of comodules coassociative.

    Each part is a comodule over hopf, and Δ is an algebra map: it respects
    the relations, and the localized letter is group-like, which is how
    ``DeltaMap.apply_loc`` extends Δ to D^-1.  Then the entry c_ki * c'_lj
    of the product has Δ(c_ki)Δ(c'_lj) = sum_ab c_ka c'_lb (x) c_ai c'_bj,
    which is the coassociativity of the product.  Returns the premises that
    fail, each named.
    """
    alg = hopf.alg
    delta = hopf.delta
    failures = []
    for W in parts:
        if W.hopf is not hopf:
            failures.append(("part_hopf", W.name))
        else:
            rep = W.verify()
            if not rep["ok"]:
                failures.append(("part_axioms", W.name, rep["failures"][:2]))
    rep = delta.respects_relations()
    if not rep["ok"]:
        failures.append(("delta_relations", rep["failures"][:2]))
    if alg.loc is not None:
        D = alg.loc_elt()
        if not (delta.images[alg.loc] - TensorElt.from_locs((D, D))).is_zero():
            failures.append(("delta_grouplike", alg.names[alg.loc]))
    return failures


def _cartesian(dims):
    out = [()]
    for d in dims:
        out = [t + (i,) for t in out for i in range(d)]
    return out


def direct_sum(comods):
    """Block-diagonal coaction matrix."""
    alg = comods[0].alg
    dim = sum(V.dim for V in comods)
    c = [[alg.zero() for _ in range(dim)] for _ in range(dim)]
    labels = []
    off = 0
    for V in comods:
        for k in range(V.dim):
            for i in range(V.dim):
                c[off + k][off + i] = V.c[k][i]
        labels.extend(V.labels)
        off += V.dim
    return Comodule(comods[0].hopf, c, labels=labels, name="+".join(V.name for V in comods))


def _yd_act(hopf, coaction, h):
    """The right action of h on a coaction of V ⊠ H, H = hopf.alg.

    coaction holds one arity-2 tensor per module basis vector; each of its
    terms t (x) s becomes t h_(2) (x) S(h_(1)) s h_(3).
    """
    alg = hopf.alg
    d3 = apply_slot(hopf.delta.apply_loc(h), 0, hopf.delta)  # (Delta (x) id)Delta(h)
    e = d3.exps
    sweedler = [(c, hopf.antipode.apply_loc(alg.elt(NCPoly.term(w1), e[0])),
                 alg.elt(NCPoly.term(w2), e[1]), alg.elt(NCPoly.term(w3), e[2]))
                for (w1, w2, w3), c in d3.tp.terms()]
    out = []
    for te in coaction:
        terms = []
        for (t, s), c in te.tp.terms():
            tl = alg.elt(NCPoly.term(t), te.exps[0])
            sl = alg.elt(NCPoly.term(s), te.exps[1])
            terms.extend((c * cc) * TensorElt.from_locs((tl * h2, s1 * sl * h3))
                         for cc, s1, h2, h3 in sweedler)
        out.append(TensorElt.sum((alg, alg), terms))
    return out


def boxtimes_coact(V, h, v_index):
    """Coaction of V ⊠ H on v_index (x) h.

    Returns one arity-2 tensor per module basis vector k: the h_(2) slot and
    the coaction slot S(h_(1)) c[k][v_index] h_(3).
    """
    one = V.alg.one()
    return _yd_act(V.hopf, [TensorElt.from_locs((one, V.c[k][v_index])) for k in range(V.dim)], h)


def boxtimes_counit_contract(V, h, v_index):
    """(id (x) id (x) eps) of the coaction: must return v (x) h."""
    return [apply_slot(te, 1, V.hopf.eps).to_loc() for te in boxtimes_coact(V, h, v_index)]


def check_boxtimes_yd(V, g, h):
    """Yetter-Drinfeld compatibility delta(x . h) for x = v (x) g.

    Compares the coaction of v (x) gh against the action of h on the
    coaction of v (x) g.
    """
    failures = []
    for i in range(V.dim):
        lhs = boxtimes_coact(V, g * h, i)
        rhs = _yd_act(V.hopf, boxtimes_coact(V, g, i), h)
        failures.extend((i, k) for k in range(V.dim) if not (lhs[k] - rhs[k]).is_zero())
    return {"ok": not failures, "failures": failures}


def check_yd_morphism(psi, src, tgt):
    """The comodule condition, on the module generators v (x) 1, for a map
    psi between the free YD modules on the comodules src and tgt.

    psi.entries[b][t] is the coefficient of basis vector t in the image of b;
    right-linearity holds by shape.
    """
    if (psi.src_rank, psi.tgt_rank) != (src.dim, tgt.dim):
        raise IdentityFailed(f"{psi.name or 'map'} is {psi.src_rank}x{psi.tgt_rank}, "
                             f"the comodules have dimensions {src.dim} and {tgt.dim}")
    alg = src.alg
    algs = (alg, alg)
    failures = []
    for b in range(src.dim):
        coacts = [boxtimes_coact(tgt, psi.entries[b][t], t) for t in range(tgt.dim)]
        for t in range(tgt.dim):
            lhs = TensorElt.sum(algs, [co[t] for co in coacts])
            rhs = TensorElt.sum(algs, [TensorElt.from_locs((psi.entries[k][t], src.c[k][b]))
                                       for k in range(src.dim)])
            if not (lhs - rhs).is_zero():
                failures.append((b, t))
    return {"ok": not failures, "failures": failures}


def hom_to_trivial(V):
    """Basis rows of the comodule maps V -> k: the exact solution space of
    sum_k f_k c[k][i] = f_i for all i."""
    alg = V.alg
    order = alg.order
    columns = []
    # the equation for column i is cleared of denominators by D^{M_i}
    Ms = [max(V.c[k][i].exp for k in range(V.dim)) for i in range(V.dim)]
    loc = alg.loc

    def cleared(le, M):
        # without D every exponent is 0, so pad is 0
        pad = M - le.exp
        p = le.num * NCPoly.term((loc,) * pad) if pad else le.num
        return alg.rs.normal_form(p)

    for k in range(V.dim):
        vec = {}
        for i in range(V.dim):
            p = cleared(V.c[k][i], Ms[i])
            if k == i:
                unit = alg.rs.normal_form(NCPoly.term((loc,) * Ms[i]))
                p = p - unit
            # distinct (i, word) give distinct keys
            vec.update(((i,) + order.key(w), c) for w, c in p.terms())
        columns.append((k, vec))
    return [[v.get(k, Fraction(0)) for k in range(V.dim)] for v in kernel_basis(columns)]
