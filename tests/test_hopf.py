import hashlib
import json
from fractions import Fraction
from math import prod

import pytest

from hopfcheck.foundation import Mat, NCPoly, TensorPoly, frac_str
from hopfcheck.hopf import (
    AlgebraMap,
    Character,
    DeltaMap,
    HopfStructure,
    LocalizedElement,
    TensorElt,
    a_q_matrix,
    antipode_squared_sovereign,
    apply_slot,
    build_gab,
    build_gabcd,
    build_slq_laurent,
    cocomposition,
    cogroupoid_suite,
    commutation_check,
    convolve_chars,
    galois_s_map,
    glq_slq_laurent_iso,
    hopf_structure,
    nakayama_G,
    nakayama_galois,
    sandwich,
    seeded_pair,
    verify_hopf_axioms,
    winding,
)

Q = Fraction(2)


def test_gab_relations_include_quantum_plane(glq8):
    a, b, c, d = (NCPoly.gen(i) for i in range(4))
    D = NCPoly.gen(glq8.loc)
    rels = glq8.relations
    assert (a * d - 2 * (c * b) - D) in rels
    assert (b * a - Fraction(1, 2) * (a * b)) in rels


def test_localized_mul_glq(glq8):
    a = glq8.gen_elt(0)
    dinv = glq8.loc_inv_elt()
    assert dinv * a == a * dinv  # D central for GL_q(2)
    x = glq8.elt(NCPoly.gen(1) * NCPoly.gen(2), 1)
    assert x * glq8.one() == x


def test_localized_conjugation_matches_sigma(n3):
    # D^-1 u D = sigma^-1(u), with sigma(u) = A^-1 A^t u (A^t)^-1 A here
    A = n3.mats["A"]
    L = A.inverse() * A.transpose()
    R = A.transpose().inverse() * A
    for i in range(3):
        for j in range(3):
            lhs = n3.loc_inv_elt() * n3.u_elt(i, j) * n3.loc_elt()
            rhs = n3.elt(n3.sigma_word((n3.u_idx(i, j),), -1))
            assert lhs == rhs
            # and sigma itself is the sandwich by (BA)^{-1}, (BA)
            assert n3.elt(n3.sigma_word((n3.u_idx(i, j),), 1)) == \
                n3.elt(sandwich(L, R, i, j))


def test_localized_equality_cross_multiplication(glq8):
    # a = (a D) D^-1
    a = glq8.gen_elt(0)
    aD = glq8.elt(NCPoly.gen(0) * NCPoly.gen(glq8.loc), 1)
    assert a == aD


def test_map_respects_relations_failure_witness(glq8):
    images = [glq8.gen_elt(0) + glq8.one(), glq8.gen_elt(1),
              glq8.gen_elt(2), glq8.gen_elt(3), glq8.loc_elt()]
    bad = AlgebraMap(glq8, glq8, images, 1, glq8.loc_inv_elt(), name="a+1")
    rep = bad.respects_relations()
    assert not rep["ok"]
    # the stored a-c relation is ac - q ca; substituting a+1 leaves -c
    witnessed = dict((i, w) for i, w in rep["failures"])
    ca_idx = next(i for i, r in enumerate(glq8.relations)
                  if r == NCPoly.gen(0) * NCPoly.gen(2) -
                  2 * (NCPoly.gen(2) * NCPoly.gen(0)))
    assert ca_idx in witnessed
    assert witnessed[ca_idx] == glq8.elt(-1 * NCPoly.gen(2)).pretty()


def test_hopf_axioms(glq8_hopf, n3_hopf, slq6_hopf, slql8_hopf):
    for H in (glq8_hopf, n3_hopf, slq6_hopf, slql8_hopf):
        rep = verify_hopf_axioms(H)
        assert rep["ok"], rep["failures"][:3]


def test_galois_object_has_no_hopf_structure(galois6):
    """G(A,B|C,D) is refused, so no Hopf check can be handed one."""
    gal, _ = galois6
    assert not hasattr(gal, "hopf")
    with pytest.raises(ValueError, match="no Hopf structure"):
        hopf_structure(gal)


def test_hopf_axioms_detect_corrupted_antipode(glq8, glq8_hopf):
    H = glq8_hopf
    bad_images = list(H.antipode.images)
    bad_images[glq8.loc] = glq8.loc_elt()  # S(D) := D
    badS = AlgebraMap(glq8, glq8, bad_images, -1, glq8.loc_inv_elt(), name="badS")
    rep = verify_hopf_axioms(HopfStructure(glq8, H.delta, H.eps, badS))
    assert not rep["ok"]
    assert any("antipode" in f[0] and "D" in str(f[1]) for f in rep["failures"])


def _hopf_axioms_with(H, delta=None, eps=None):
    """verify_hopf_axioms of H with Δ or ε replaced."""
    return verify_hopf_axioms(HopfStructure(H.alg, delta or H.delta, eps or H.eps, H.antipode))


@pytest.mark.parametrize("name", ["slq6", "glq8"])
def test_hopf_axioms_detect_corrupted_coproduct_and_counit(name, request):
    H = request.getfixturevalue(name + "_hopf")
    alg, delta, eps = H.alg, H.delta, H.eps
    swapped = list(delta.images)
    swapped[0], swapped[1] = swapped[1], swapped[0]  # Δ(a) and Δ(b) exchanged
    rep = _hopf_axioms_with(H, delta=DeltaMap(alg, delta.targets, swapped, name="badΔ"))
    assert not rep["ok"]
    assert {"cocomposition_relations", "coassoc", "counit"} <= {f[0] for f in rep["failures"]}
    values = list(eps.values)
    values[0] = 0  # ε(a) = 0
    rep = _hopf_axioms_with(H, eps=Character(alg, values, name="badε"))
    assert not rep["ok"]
    assert {"counit_relations", "counit"} <= {f[0] for f in rep["failures"]}


# The three slot functions apply_slot replaced, one per kind of map, kept as
# the reference it is compared against.

def _ref_char_slot(te, slot, chi):
    """Contract one tensor slot with a character."""
    k = te.arity()
    algs = te.algs[:slot] + te.algs[slot + 1 :]
    exps = te.exps[:slot] + te.exps[slot + 1 :]
    vals = chi.values
    scale = vals[te.algs[slot].loc] ** -te.exps[slot] if te.exps[slot] else Fraction(1)
    d = {}
    for ws, c in te.tp.terms():
        v = prod((vals[g] for g in ws[slot]), start=Fraction(1))
        if not v:
            continue
        key = ws[:slot] + ws[slot + 1 :]
        nc = d.get(key, 0) + c * v * scale
        if nc:
            d[key] = nc
        else:
            del d[key]
    return TensorElt(algs, exps, TensorPoly(k - 1, d))


def _ref_map_slot(te, slot, f):
    """Apply an algebra map to one tensor slot."""
    algs = te.algs[:slot] + f.targets + te.algs[slot + 1 :]
    out = TensorElt.zero(algs)
    for ws, c in te.tp.terms():
        le = f.apply_loc(LocalizedElement(te.algs[slot], NCPoly.term(ws[slot]), te.exps[slot]))
        exps = te.exps[:slot] + (le.exp,) + te.exps[slot + 1 :]
        d = {}
        for w, cc in le.num.terms():
            d[ws[:slot] + (w,) + ws[slot + 1 :]] = c * cc
        out = out + TensorElt(algs, exps, TensorPoly(te.arity(), d))
    return out


def _ref_delta_slot(te, slot, dmap):
    """Apply a comultiplication-type map to one slot (arity grows by one)."""
    algs = te.algs[:slot] + dmap.targets + te.algs[slot + 1 :]
    out = TensorElt.zero(algs)
    for ws, c in te.tp.terms():
        inner = dmap.apply_word(ws[slot])  # arity-2 TensorElt
        e = te.exps[slot]
        exps = te.exps[:slot] + (inner.exps[0] + e, inner.exps[1] + e) + te.exps[slot + 1 :]
        d = {}
        for (v1, v2), cc in inner.tp.terms():
            d[ws[:slot] + (v1, v2) + ws[slot + 1 :]] = c * cc
        out = out + TensorElt(algs, exps, TensorPoly(te.arity() + 1, d))
    return out


_REF_SLOT = {Character: _ref_char_slot, AlgebraMap: _ref_map_slot, DeltaMap: _ref_delta_slot}


def _hopf_maps(H):
    """ε, S and Δ of H, and ε scaled by 2^weight, which unlike ε does not
    send the localized letter to 1 and so shows how D^-m is handled."""
    alg, eps = H.alg, H.eps
    scaled = Character(alg, [2 ** w * v for w, v in zip(alg.weights, eps.values)], name="2^wt ε")
    return [eps, scaled, H.antipode, H.delta]


@pytest.mark.parametrize("name", ["glq8", "n3", "slql8", "C(0,1)"])
def test_apply_slot_matches_reference(name, request):
    """apply_slot against the old slot functions, with ε, S and Δ at every
    slot of the Δ and (Δ ⊗ id)Δ images of each generator g and of g D^-1
    (and with a second character, see _hopf_maps)."""
    if name == "C(0,1)":
        # C(0,1) of cogroupoid_suite's conjugated pair, whose Δ lands in
        # C(0,0) (x) C(0,1); C(0,1) has no counit
        A, B, _, _ = request.getfixturevalue("conj_pair")
        c01, c10 = request.getfixturevalue("galois6")
        c00 = build_gab(A, B, 6, name="C(0,0)")
        delta = cocomposition(c01, c00, c01)
        maps = {c00: _hopf_maps(hopf_structure(c00)), c01: [galois_s_map(c01, c10), delta]}
    else:
        H = request.getfixturevalue(name + "_hopf")
        delta = H.delta
        maps = {H.alg: _hopf_maps(H)}
    src = delta.source
    cases = 0
    for g in range(src.ngens()):
        for img in (delta.images[g], delta.apply_loc(src.elt(NCPoly.gen(g), 1))):
            outer = _ref_delta_slot(img, 0, maps[img.algs[0]][-1])
            for te in (img, outer):
                for slot, alg in enumerate(te.algs):
                    for f in maps[alg]:
                        assert apply_slot(te, slot, f) == _REF_SLOT[type(f)](te, slot, f), \
                            (g, te.exps, slot, f.name)
                        cases += 1
    assert cases == 2 * src.ngens() * sum(len(maps[a]) for a in img.algs + outer.algs)


def test_antipode_squared_closed_forms(glq8, glq8_hopf, n3_hopf):
    rep = antipode_squared_sovereign(glq8_hopf)
    assert rep["ok"], rep["failures"][:3]
    assert rep["lambda"] == 1
    S = glq8_hopf.antipode
    S2 = S.then(S)
    a, b, c, d = (glq8.gen_elt(i) for i in range(4))
    assert S2.images[0] == a
    assert S2.images[1] == Fraction(1, 4) * b
    assert S2.images[2] == 4 * c
    assert S2.images[3] == d
    assert S2.images[glq8.loc] == glq8.loc_elt()
    assert antipode_squared_sovereign(n3_hopf)["ok"]


def test_commutation(glq8, n3, galois6):
    assert commutation_check(glq8)["ok"]
    assert commutation_check(n3)["ok"]
    gal, _ = galois6
    assert commutation_check(gal)["ok"]


def test_winding_identity_and_values(glq8, glq8_hopf):
    assert winding(glq8_hopf, glq8_hopf.eps, "left").eq_on_gens(AlgebraMap.identity(glq8))
    xi = Character(glq8, [4, 0, 0, Fraction(1, 4), 1], name="ξ")
    wl = winding(glq8_hopf, xi, "left")
    assert wl.images[0] == 4 * glq8.gen_elt(0)
    assert wl.respects_relations()["ok"]


def test_winding_composition_is_convolution(glq8_hopf):
    H = glq8_hopf
    nk = nakayama_G(H)
    xi, eta = nk["xi"], nk["eta"]
    lhs = winding(H, eta, "left").then(winding(H, xi, "left"))
    rhs = winding(H, convolve_chars(H, eta, xi), "left")
    assert lhs.eq_on_gens(rhs)


def test_nakayama_glq(glq8, glq8_hopf):
    nk = nakayama_G(glq8_hopf)
    assert nk["report"]["ok"], nk["report"]["failures"]
    mu = nk["mu"]
    a, b, c, d = (glq8.gen_elt(i) for i in range(4))
    assert mu.images[0] == 4 * a
    assert mu.images[1] == b
    assert mu.images[2] == c
    assert mu.images[3] == Fraction(1, 4) * d
    assert mu.images[glq8.loc] == glq8.loc_elt()
    assert mu.loc_inv_image == glq8.loc_inv_elt()
    assert nk["xi"].values == [4, 0, 0, Fraction(1, 4), 1]
    # for GL_q(2) the S^2-winding form agrees on the nose
    assert nk["inner_power"] == 0


def test_nakayama_n3(n3_hopf):
    nk = nakayama_G(n3_hopf)
    assert nk["report"]["ok"], nk["report"]["failures"]
    assert nk["inner_power"] is not None


def test_nakayama_galois_conjugated(galois6):
    gal, gal_op = galois6
    ng = nakayama_galois(gal, gal_op)
    assert ng["report"]["ok"], ng["report"]["failures"]
    assert ng["report"]["warnings"] == []
    assert ng["mu"].images[gal.loc] == gal.loc_elt()
    assert ng["mu"].loc_inv_image == gal.loc_inv_elt()


def test_nakayama_galois_diagonal_case(glq8, glq8_hopf):
    ng = nakayama_galois(glq8, glq8)
    assert ng["report"]["ok"]
    nk = nakayama_G(glq8_hopf)
    assert ng["mu"].eq_on_gens(nk["mu"])


def _cogroupoid(objects, degree_bound):
    """C(x,y) = G(A_x,B_x|A_y,B_y) for every ordered pair of the (A,B)
    objects, and the Hopf structure of each C(x,x)."""
    objs = range(len(objects))
    algs = {(x, y): build_gabcd(*objects[x], *objects[y], degree_bound)
            for x in objs for y in objs}
    return algs, {x: hopf_structure(algs[(x, x)]) for x in objs}


def test_cogroupoid_suite_pair(conj_pair):
    A, B, C, D = conj_pair
    rep = cogroupoid_suite(*_cogroupoid([(A, B), (C, D)], 5))
    assert rep["ok"], rep["failures"][:4]
    assert rep["checks"] == 196


def test_cogroupoid_suite_single_object():
    A = a_q_matrix(2)
    rep = cogroupoid_suite(*_cogroupoid([(A, A.inverse())], 5))
    assert rep["ok"], rep["failures"][:4]
    assert rep["checks"] == 28


def test_glq_slq_laurent_iso(glq8, slql8):
    iso = glq_slq_laurent_iso(glq8, slql8)
    assert iso["report"]["ok"], iso["report"]["failures"]
    assert iso["fwd"].images[glq8.loc] == slql8.gen_elt(4)
    # bwd(fwd(a)) = a is part of the round trip
    assert iso["fwd"].then(iso["bwd"]).images[0] == glq8.gen_elt(0)


def test_sigma_is_invertible_on_generators(n3, galois6):
    gal, _ = galois6
    for alg in (n3, gal):
        for g in range(alg.ngens()):
            back = alg.zero()
            for w, c in alg.sigma_word((g,), 1).terms():
                back = back + c * alg.elt(alg.sigma_word(w, -1))
            assert back == alg.gen_elt(g)


def test_presentation_manifest_deterministic(slq6):
    import json
    from hopfcheck.hopf import build_slq, presentation_manifest
    m1 = presentation_manifest(slq6)
    m2 = presentation_manifest(build_slq(2, 6))
    assert json.dumps(m1, sort_keys=True) == json.dumps(m2, sort_keys=True)
    assert m1["kind"] == "SLq" and len(m1["rules"]) == len(slq6.rs.rules)


def test_seeded_pair_reproducible():
    A1, B1 = seeded_pair(12345)
    A2, B2 = seeded_pair(12345)
    assert A1 == A2 and B1 == B2
    assert A1 * A1.inverse() == Mat.identity(3)
    assert B1 == A1.transpose().inverse()


def _loc_json(le):
    return {"num": sorted([list(w), frac_str(c)] for w, c in le.num.terms()), "exp": le.exp}


def _tensor_json(te):
    return {"exps": list(te.exps),
            "terms": sorted([[list(w) for w in ws], frac_str(c)] for ws, c in te.tp.terms())}


def _hopf_json(H):
    """Generator images of Δ, ε and S, as unreduced JSON."""
    S = H.antipode
    return {"delta": [_tensor_json(te) for te in H.delta.images],
            "eps": [frac_str(v) for v in H.eps.values],
            "S": [_loc_json(le) for le in S.images],
            "S_loc_inv": None if S.loc_inv_image is None else _loc_json(S.loc_inv_image),
            "variance": S.variance}


def _sha(blob):
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()


# sha256 of _hopf_json: the Hopf structure of G(A,B) as built before it was
# taken from the cogroupoid's cocomposition and antipode
GAB_HOPF_SHA256 = {
    "glq8": "872e0631813921c2696a71ed5abf9b620597b5031b3e224b349c3732b3c6f417",
    "n3": "bfd70717929cb4bf879e922520038b657578e69b9653087721a302c769a8d651",
}

# sha256 of the generators, relations and Hopf table of O(SL_q(2)) and
# O(SL_q(2))[z^±1] at q = 2, from before the two shared one table
SLQ_TABLE_SHA256 = {
    "slq6": "b31adeb606a795ecc7b1a18f11574c986ec58fa7f64071a4387fdf2455d7b6cf",
    "slql8": "090f3c3ae6a1dac66aa5c501f1f7b4e3758cf72268e1e97508058c4ee9975faa",
}


def test_gab_hopf_structure_pinned(glq8_hopf, n3_hopf):
    for name, H in (("glq8", glq8_hopf), ("n3", n3_hopf)):
        assert _sha(_hopf_json(H)) == GAB_HOPF_SHA256[name], name


def test_slq_hopf_tables_pinned(slq6_hopf, slql8_hopf):
    for name, H in (("slq6", slq6_hopf), ("slql8", slql8_hopf)):
        alg = H.alg
        table = _hopf_json(H)
        table["generators"] = alg.names
        table["relations"] = [sorted([list(w), frac_str(c)] for w, c in r.terms())
                              for r in alg.relations]
        assert _sha(table) == SLQ_TABLE_SHA256[name], name


def _run_one(check, degree):
    from hopfcheck.cli import run_config
    report, code = run_config({"instance": {"kind": "GLq", "q": "2"}, "degree_bound": degree,
                               "probe": {"N": 3}, "checks": [check]})
    (entry,) = report["checks"]
    return entry, code


def test_broken_sigma_raises_identity_failed(monkeypatch):
    """A twisting automorphism sigma that does not realize D x = sigma(x) D
    raises IdentityFailed at build time, which a run reports as a fail."""
    import hopfcheck.hopf as hopf
    from hopfcheck.errors import IdentityFailed
    init = hopf.PresentedAlgebra.__init__

    def doubled_sigma(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.kind == "GAB":
            self.sigma_images = [2 * self.sigma_images[0]] + self.sigma_images[1:]

    monkeypatch.setattr(hopf.PresentedAlgebra, "__init__", doubled_sigma)
    with pytest.raises(IdentityFailed):
        hopf.build_glq(2, 4)
    entry, code = _run_one("hopf", 4)
    assert code == 1 and entry["status"] == "fail"
    assert entry["witnesses"][0].startswith("IdentityFailed: ")


def test_nakayama_galois_lets_programming_errors_through(glq8, monkeypatch):
    """Only a HopfcheckError from the invariant comparison becomes a warning."""
    import hopfcheck.hopf as hopf
    from hopfcheck.errors import NotScalarMultiple

    def raising(exc):
        # a property on the class shadows the value cached on the instance
        def invariants(alg):
            raise exc
        return property(invariants)

    monkeypatch.setattr(hopf.PresentedAlgebra, "invariants", raising(NotScalarMultiple("x")))
    ng = nakayama_galois(glq8, glq8)
    assert ng["report"]["warnings"] == ["invariant check failed: x"]
    monkeypatch.setattr(hopf.PresentedAlgebra, "invariants", raising(KeyError("A")))
    with pytest.raises(KeyError):
        nakayama_galois(glq8, glq8)
