from fractions import Fraction

import pytest

from hopfcheck.errors import IdentityFailed
from hopfcheck.foundation import NCPoly
from hopfcheck.hopf import AlgebraMap, DeltaMap, HopfStructure, LocalizedElement, TensorElt
from hopfcheck.complexes import FreeModuleMap, build_yd_resolution, gamma_maps
from hopfcheck.ydmod import (
    Comodule,
    _tensor_coassoc_failures,
    boxtimes_coact,
    boxtimes_counit_contract,
    build_comodule,
    check_boxtimes_yd,
    check_yd_morphism,
    direct_sum,
    hom_to_trivial,
)


def test_trivial_and_fundamental(glq8, glq8_hopf):
    triv = build_comodule("trivial", glq8_hopf)
    assert triv.dim == 1 and triv.c[0][0] == glq8.one()
    fund = build_comodule("fundamental", glq8_hopf)
    for k in range(2):
        for i in range(2):
            assert fund.c[k][i] == glq8.u_elt(k, i)


def test_dual_fundamental_entries(glq8, glq8_hopf):
    dual = build_comodule("dual_fundamental", glq8_hopf)
    # rho(v_1*) has coefficient S(u_11) = d D^-1 on v_1*
    d = glq8.gen_elt(3)
    assert dual.c[0][0] == glq8.loc_inv_elt() * d


def test_comodule_axioms_enforced(glq8_hopf, n3_hopf):
    for H in (glq8_hopf, n3_hopf):
        dual = build_comodule("dual_fundamental", H)
        fund = build_comodule("fundamental", H)
        vxv = build_comodule("tensor", H, parts=[dual, fund])
        assert vxv.verify()["ok"]


def test_boxtimes_with_unit_is_plain_coaction(glq8, glq8_hopf):
    fund = build_comodule("fundamental", glq8_hopf)
    co = boxtimes_coact(fund, glq8.one(), 1)
    for k in range(2):
        want = TensorElt.from_locs((glq8.one(), fund.c[k][1]))
        assert (co[k] - want).is_zero()


def test_boxtimes_trivial_on_grouplike(glq8, glq8_hopf):
    triv = build_comodule("trivial", glq8_hopf)
    co = boxtimes_coact(triv, glq8.loc_elt(), 0)
    want = TensorElt.from_locs((glq8.loc_elt(), glq8.one()))
    assert (co[0] - want).is_zero()


def test_boxtimes_yd_compatibility(glq8, glq8_hopf):
    fund = build_comodule("fundamental", glq8_hopf)
    a = glq8.gen_elt(0)
    c = glq8.gen_elt(2)
    assert check_boxtimes_yd(fund, glq8.one(), c)["ok"]
    assert check_boxtimes_yd(fund, a, c)["ok"]


def test_boxtimes_yd_detects_a_broken_antipode(glq8, glq8_hopf):
    """With S(a) doubled, S no longer respects the relations, and the
    compatibility check must fail rather than compare S with itself."""
    H = glq8_hopf
    S = H.antipode
    images = list(S.images)
    images[0] = 2 * images[0]
    badS = AlgebraMap(glq8, glq8, images, S.variance, S.loc_inv_image, name="badS")
    fund = build_comodule("fundamental", HopfStructure(glq8, H.delta, H.eps, badS))
    rep = check_boxtimes_yd(fund, glq8.gen_elt(0), glq8.gen_elt(2))
    assert not rep["ok"]


def test_boxtimes_counit_contraction(glq8, glq8_hopf):
    fund = build_comodule("fundamental", glq8_hopf)
    h = glq8.gen_elt(1) * glq8.loc_inv_elt()
    out = boxtimes_counit_contract(fund, h, 0)
    assert out[0] == h
    assert out[1].is_zero()


def test_comodule_maps(glq8, glq8_hopf):
    triv = build_comodule("trivial", glq8_hopf)
    dual = build_comodule("dual_fundamental", glq8_hopf)
    fund = build_comodule("fundamental", glq8_hopf)
    vxv = build_comodule("tensor", glq8_hopf, parts=[dual, fund])

    def column(entries):
        # the map v_ij (x) 1 -> 1 (x) entries[ij] of V*(x)V ⊠ H into k ⊠ H
        return FreeModuleMap(glq8, "right", [[e] for e in entries])

    g6 = FreeModuleMap(glq8, "right", [[glq8.elt(NCPoly.gen(glq8.loc) - NCPoly.one())]])
    assert check_yd_morphism(g6, triv, triv)["ok"]

    pairs = [(p, q) for p in range(2) for q in range(2)]
    g2 = column([glq8.u_elt(i, j) for (i, j) in pairs])
    assert check_yd_morphism(g2, vxv, triv)["ok"]

    # adding delta_ij*D still intertwines: D is a coinvariant of the twisted
    # coaction and sum_k S(u_ik) u_kj collapses to delta_ij, so the map is a
    # genuine morphism and must pass
    still_good = column([glq8.u_elt(i, j) + (glq8.loc_elt() if i == j else glq8.zero())
                         for (i, j) in pairs])
    assert check_yd_morphism(still_good, vxv, triv)["ok"]

    # a non-coinvariant summand genuinely breaks the intertwining
    bad = column([glq8.u_elt(i, j) + (glq8.gen_elt(0) if i == j else glq8.zero())
                  for (i, j) in pairs])
    assert not check_yd_morphism(bad, vxv, triv)["ok"]


def test_yd_morphism_psi1_psi4(glq9, glq9_hopf):
    C = build_yd_resolution(gamma_maps(glq9), glq9_hopf.eps)
    triv = build_comodule("trivial", glq9_hopf)
    dual = build_comodule("dual_fundamental", glq9_hopf)
    fund = build_comodule("fundamental", glq9_hopf)
    vxv = build_comodule("tensor", glq9_hopf, parts=[dual, fund])
    # psi1: [W*W, k] -> [k]; psi4: [k] -> [V*V, k]
    assert check_yd_morphism(C.maps[3], direct_sum([vxv, triv]), triv)["ok"]
    assert check_yd_morphism(C.maps[0], triv, direct_sum([vxv, triv]))["ok"]


def test_sign_flip_is_comodule_map_but_breaks_complex(glq9, glq9_hopf):
    C = build_yd_resolution(gamma_maps(glq9), glq9_hopf.eps)
    triv = build_comodule("trivial", glq9_hopf)
    dual = build_comodule("dual_fundamental", glq9_hopf)
    fund = build_comodule("fundamental", glq9_hopf)
    vxv = build_comodule("tensor", glq9_hopf, parts=[dual, fund])
    psi4 = C.maps[0]
    flipped = [[psi4.entries[0][t] * (-1 if t == psi4.tgt_rank - 1 else 1)
                for t in range(psi4.tgt_rank)]]
    psi4_flip = FreeModuleMap(glq9, "right", flipped)
    # the comodule condition is sign-blind ...
    assert check_yd_morphism(psi4_flip, triv, direct_sum([vxv, triv]))["ok"]
    # ... but the composite with psi3 no longer vanishes
    assert not psi4_flip.compose(C.maps[1]).is_zero()


def test_hom_to_trivial_dimensions(glq8_hopf, n3_hopf):
    for H in (glq8_hopf, n3_hopf):
        triv = build_comodule("trivial", H)
        assert len(hom_to_trivial(triv)) == 1
        dual = build_comodule("dual_fundamental", H)
        fund = build_comodule("fundamental", H)
        vxv = build_comodule("tensor", H, parts=[dual, fund])
        h = hom_to_trivial(vxv)
        assert len(h) == 1
        # the solution is the trace functional, normalized on v1* (x) v1
        n = H.alg.n
        row = h[0]
        scale = row[0]
        assert scale != 0
        for k in range(n):
            for l in range(n):
                want = scale if k == l else 0
                assert row[k * n + l] == want
        assert len(hom_to_trivial(fund)) == 0


def test_direct_sum_coaction(glq8, glq8_hopf):
    triv = build_comodule("trivial", glq8_hopf)
    fund = build_comodule("fundamental", glq8_hopf)
    both = direct_sum([triv, fund])
    assert both.dim == 3
    assert both.verify()["ok"]


def test_free_yd_wrapper(glq8, glq8_hopf):
    """The free Yetter-Drinfeld module V ⊠ H on the fundamental comodule:
    contracting the coaction with the counit gives back v_1 (x) d D^-1, and
    the coaction is compatible with right multiplication by a and c."""
    fund = build_comodule("fundamental", glq8_hopf)
    h = glq8.gen_elt(3) * glq8.loc_inv_elt()
    out = boxtimes_counit_contract(fund, h, 1)
    assert all(out[k] == (h if k == 1 else glq8.zero()) for k in range(fund.dim))
    assert check_boxtimes_yd(fund, glq8.gen_elt(0), glq8.gen_elt(2))["ok"]


def test_broken_comodule_raises_identity_failed(monkeypatch):
    """With S(a) doubled, the dual fundamental comodule breaks its counit
    axiom: build_comodule raises IdentityFailed and cohomology fails."""
    import hopfcheck.hopf as hopf
    from hopfcheck.cli import run_config
    from hopfcheck.errors import IdentityFailed
    real = hopf.galois_s_map

    def doubled(src, tgt):
        S = real(src, tgt)
        S.images[0] = 2 * S.images[0]
        return S

    monkeypatch.setattr(hopf, "galois_s_map", doubled)
    H = hopf.hopf_structure(hopf.build_glq(2, 6))
    with pytest.raises(IdentityFailed, match="comodule axioms"):
        build_comodule("dual_fundamental", H)
    report, code = run_config({"instance": {"kind": "GLq", "q": "2"}, "degree_bound": 6,
                               "checks": ["cohomology"]})
    (entry,) = report["checks"]
    assert code == 1 and entry["status"] == "fail"
    assert entry["witnesses"][0].startswith("IdentityFailed: comodule axioms failed")


# -- the tensor product's coassociativity, from its factors --------------------

def _dual_and_fund(H):
    return build_comodule("dual_fundamental", H), build_comodule("fundamental", H)


def test_tensor_verdict_agrees_with_entrywise_check(glq8_hopf, n3_hopf):
    """V*⊗V and V⊗V* are built on the factors' axioms and a multiplicative Δ;
    the entry-by-entry check agrees on GL_q(2), the seeded n = 3 G(A,B) and
    the seeded n = 2 G(A,B), whose σ is not the identity."""
    from hopfcheck.hopf import build_gab, hopf_structure, seeded_pair
    gab2 = hopf_structure(build_gab(*seeded_pair(1, n=2), 6, name="G(A2,B2)"))
    for H in (glq8_hopf, n3_hopf, gab2):
        dual, fund = _dual_and_fund(H)
        for parts in ([dual, fund], [fund, dual]):
            assert _tensor_coassoc_failures(H, parts) == []
            vxv = build_comodule("tensor", H, parts=parts)
            assert vxv.verify()["ok"]


def test_tensor_counit_is_checked_entrywise(glq8, glq8_hopf, monkeypatch):
    """Both factors and Δ are sound, but the tensor's coaction has entry
    (0, 0) doubled: only its counit can see it."""
    import hopfcheck.ydmod as ydmod
    dual, fund = _dual_and_fund(glq8_hopf)

    class Doubled(Comodule):
        def __init__(self, hopf, c, **kw):
            c[0][0] = 2 * c[0][0]
            super().__init__(hopf, c, **kw)

    monkeypatch.setattr(ydmod, "Comodule", Doubled)
    with pytest.raises(IdentityFailed, match=r"comodule axioms failed: \[\('counit', \(0, 0\)\)\]"):
        build_comodule("tensor", glq8_hopf, parts=[dual, fund])


def test_tensor_rejects_a_part_that_is_no_comodule(glq8, glq8_hopf):
    """u_12 + (u_11 - 1) in place of u_12 keeps every counit (ε(u_11 - 1) = 0),
    so the tensor's counit passes, but the part is not coassociative."""
    dual, fund = _dual_and_fund(glq8_hopf)
    c = [list(row) for row in fund.c]
    c[0][1] = c[0][1] + glq8.u_elt(0, 0) - glq8.one()
    bad = Comodule(glq8_hopf, c, labels=fund.labels, name="V'")
    assert {f[0] for f in bad.verify()["failures"]} == {"coassoc"}
    with pytest.raises(IdentityFailed, match=r"\('part_axioms', \"V'\""):
        build_comodule("tensor", glq8_hopf, parts=[dual, bad])
    # the entry-by-entry check of the tensor fails as well
    idx = [(k, l) for k in range(2) for l in range(2)]
    tensor = Comodule(glq8_hopf, [[dual.c[k][i] * bad.c[l][j] for i, j in idx] for k, l in idx])
    assert not tensor._counit_failures() and not tensor.verify()["ok"]


def test_tensor_rejects_a_part_over_another_structure(glq8, glq8_hopf):
    dual, _ = _dual_and_fund(glq8_hopf)
    other = HopfStructure(glq8, glq8_hopf.delta, glq8_hopf.eps, glq8_hopf.antipode)
    fund = build_comodule("fundamental", other)
    with pytest.raises(IdentityFailed, match=r"\('part_hopf', 'V'\)"):
        build_comodule("tensor", glq8_hopf, parts=[dual, fund])


def test_tensor_rejects_a_delta_that_breaks_the_relations(glq8_hopf, monkeypatch):
    dual, fund = _dual_and_fund(glq8_hopf)
    monkeypatch.setattr(glq8_hopf.delta, "respects_relations",
                        lambda: {"ok": False, "failures": [0]})
    with pytest.raises(IdentityFailed, match=r"\('delta_relations', \[0\]\)"):
        build_comodule("tensor", glq8_hopf, parts=[dual, fund])


def test_tensor_rejects_a_delta_with_d_not_grouplike(glq8, glq8_hopf):
    """Δ(D) = 2 D⊗D leaves Δ on the letters a..d, and so both factors,
    alone; apply_loc still sends D^-1 to D^-1⊗D^-1, so Δ is no algebra map."""
    H = glq8_hopf
    images = list(H.delta.images)
    images[glq8.loc] = 2 * images[glq8.loc]
    bad = HopfStructure(glq8, DeltaMap(glq8, (glq8, glq8), images, name="Δ'"), H.eps, H.antipode)
    dual, fund = _dual_and_fund(bad)
    with pytest.raises(IdentityFailed, match="delta_grouplike"):
        build_comodule("tensor", bad, parts=[dual, fund])


def test_cohomology_fails_when_delta_breaks_the_relations(monkeypatch):
    """A run whose Δ fails the relations cannot build V*⊗V: the cohomology
    check reports fail, with the premise that broke."""
    import hopfcheck.hopf as hopf
    from hopfcheck.cli import run_config
    monkeypatch.setattr(hopf.DeltaMap, "respects_relations",
                        lambda self: {"ok": False, "failures": [0]})
    report, code = run_config({"instance": {"kind": "GLq", "q": "2"}, "degree_bound": 6,
                               "checks": ["cohomology"]})
    (entry,) = report["checks"]
    assert code == 1 and entry["status"] == "fail"
    assert entry["witnesses"][0].startswith("IdentityFailed: comodule axioms failed")
    assert "delta_relations" in entry["witnesses"][0]
