"""Acceptance suite: every criterion at its stated tolerance (all exact).

Each test prints one pass/fail line; run with `pytest -s tests/test_acceptance.py`
to see them.
"""

import hashlib
import json
import os
import time
from fractions import Fraction

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "configs")

from hopfcheck.cli import run_config
from hopfcheck.cohomology import bialgebra_cohomology, gs_dimension_report
from hopfcheck.complexes import (
    build_glq_complexes,
    build_slq_resolution,
    build_yd_resolution,
    gamma_identity_suite,
    gamma_maps,
    identity_map,
    laurent_cone,
    probe_exactness,
)
from hopfcheck.foundation import NCPoly
from hopfcheck.hopf import (
    antipode_squared_sovereign,
    build_gab,
    build_gabcd,
    build_glq,
    cogroupoid_suite,
    commutation_check,
    glq_slq_laurent_iso,
    hopf_structure,
    nakayama_G,
    nakayama_galois,
    seeded_pair,
    verify_hopf_axioms,
)

PASS = "ACCEPTANCE %d %-12s PASS  (%.1fs)"


def _hopf_instance(alg):
    H = hopf_structure(alg)
    reports = [
        verify_hopf_axioms(H),
        antipode_squared_sovereign(H),
        commutation_check(alg),
    ]
    for rep in reports:
        assert rep["ok"], rep["failures"][:3]
        assert rep["failures"] == []


def test_criterion_1_hopf_suite():
    t0 = time.monotonic()
    glq = build_glq(2, 6)
    _hopf_instance(glq)
    t_glq = time.monotonic() - t0
    assert t_glq < 60, f"GL_q(2) hopf suite took {t_glq:.1f}s"

    t0 = time.monotonic()
    A, B = seeded_pair(12345)
    g3 = build_gab(A, B, 6)
    _hopf_instance(g3)
    t_n3 = time.monotonic() - t0
    assert t_n3 < 60, f"n=3 hopf suite took {t_n3:.1f}s"
    print(PASS % (1, "hopf", t_glq + t_n3))


def test_criterion_2_resolution_complex():
    t0 = time.monotonic()
    glq = build_glq(2, 8)
    eps = hopf_structure(glq).eps
    C = build_yd_resolution(gamma_maps(glq), eps)
    rep = C.is_complex()
    assert rep["ok"] and rep["failures"] == []
    # eps . psi_1 = 0 stands on its own as well
    for s in range(C.maps[-1].src_rank):
        assert eps.apply_loc(C.maps[-1].entries[s][0]) == (0, 1)
    gam = gamma_identity_suite(gamma_maps(glq))
    assert gam["ok"] and gam["identities"] == 15
    t_n2 = time.monotonic() - t0
    assert t_n2 < 300, f"n=2 resolution checks took {t_n2:.1f}s"

    t0 = time.monotonic()
    A, B = seeded_pair(12345)
    g3 = build_gab(A, B, 6)
    rep3 = build_yd_resolution(gamma_maps(g3), hopf_structure(g3).eps).is_complex()
    assert rep3["ok"], rep3["failures"][:2]
    print(PASS % (2, "resolution", t_n2 + time.monotonic() - t0))


def test_criterion_3_exactness_probe():
    t0 = time.monotonic()
    glq = build_glq(2, 8)
    C = build_yd_resolution(gamma_maps(glq), hopf_structure(glq).eps)
    rep = probe_exactness(C, N=6, slack=2, window=2)
    assert rep["ok"]
    for pos in rep["positions"]:
        assert pos["cycles_lifted"] == pos["cycles_found"] or \
            (pos["position"] == 4 and pos["cycles_found"] == 0)
    # the two stated preimages at the augmentation
    psi1 = C.maps[-1]
    coords = [glq.zero()] * 5
    coords[0] = -1 * glq.one()
    assert psi1.apply(coords)[0] == glq.elt(NCPoly.gen(0) - NCPoly.one())
    coords = [glq.zero()] * 5
    coords[4] = glq.one()
    assert psi1.apply(coords)[0] == glq.elt(NCPoly.gen(glq.loc) - NCPoly.one())
    print(PASS % (3, "probe", time.monotonic() - t0))


def test_criterion_4_bialgebra_cohomology():
    t0 = time.monotonic()
    glq = build_glq(2, 8)
    H = hopf_structure(glq)
    C = build_yd_resolution(gamma_maps(glq), H.eps)
    coh = bialgebra_cohomology(H, C)
    assert coh["dims"] == [1, 1, 0, 1, 1]
    assert coh["ranks"] == [0, 1, 1, 0]
    gs = gs_dimension_report(coh)
    assert gs["upper"] == 4 and gs["lower"] == 4
    assert gs["verdict"] == "cd_GS = 4"
    print(PASS % (4, "cohomology", time.monotonic() - t0))


def test_criterion_5_nakayama():
    t0 = time.monotonic()
    glq = build_glq(2, 6)
    nk = nakayama_G(hopf_structure(glq))
    assert nk["report"]["ok"], nk["report"]["failures"]
    mu = nk["mu"]
    a, b, c, d = (glq.gen_elt(i) for i in range(4))
    assert mu.images[0] == 4 * a
    assert mu.images[1] == b
    assert mu.images[2] == c
    assert mu.images[3] == Fraction(1, 4) * d
    assert mu.images[glq.loc] == glq.loc_elt()
    assert mu.loc_inv_image == glq.loc_inv_elt()
    assert mu.respects_relations()["ok"]
    # the S^-2 [eta S]^r = conj_D . mu identity is part of the report;
    # the character eps . mu is the diag(4, 1/4) pattern
    assert nk["xi"].values == [4, 0, 0, Fraction(1, 4), 1]
    print(PASS % (5, "nakayama", time.monotonic() - t0))


def test_criterion_6_galois_objects(conj_pair, galois6):
    t0 = time.monotonic()
    A, B, C, D = conj_pair
    gal, gal_op = galois6
    assert gal.rs.nonzero_witness()["nonzero_up_to"] == 6
    ng = nakayama_galois(gal, gal_op)
    assert ng["report"]["ok"], ng["report"]["failures"]
    assert ng["mu"].respects_relations()["ok"]
    assert ng["mu_prime"].respects_relations()["ok"]
    objects = [(A, B), (C, D)]
    algs = {(x, y): build_gabcd(*objects[x], *objects[y], 5) for x in range(2) for y in range(2)}
    suite = cogroupoid_suite(algs, {x: hopf_structure(algs[(x, x)]) for x in range(2)})
    assert suite["ok"], suite["failures"][:4]
    print(PASS % (6, "galois", time.monotonic() - t0))


def test_criterion_7_glq_slq_machinery(glq8, glq8_hopf, slq6_hopf, slql8, slql8_hopf):
    t0 = time.monotonic()
    iso = glq_slq_laurent_iso(glq8, slql8)
    assert iso["report"]["ok"], iso["report"]["failures"]
    S = build_slq_resolution(slq6_hopf)
    assert S.is_complex()["ok"]
    lc = laurent_cone(slql8_hopf)
    assert lc["report"]["ok"]
    assert lc["cone"].is_complex()["ok"]
    probe = probe_exactness(lc["cone"], N=5, slack=2, window=2)
    assert probe["ok"], probe["positions"]
    gc = build_glq_complexes(glq8_hopf, slql8_hopf)
    assert gc["report"]["ok"], gc["report"]["failures"][:4]
    for gmap, inv in zip(gc["g"].verticals, gc["inverses"]):
        ident = identity_map(glq8, "right", gmap.src_rank)
        assert gmap.compose(inv).eq(ident) and inv.compose(gmap).eq(ident)
    print(PASS % (7, "machinery", time.monotonic() - t0))


# sha256 of each shipped config's report body (perfbench/gate.report_body),
# ROADMAP's standing byte-identity pins; perfbench/pins.json holds the
# benchmark configs' pins
REPORT_BODY_SHA256 = {
    "glq2.json": "830c93f18bd5755ef81862d89e646ee9b4db988c1788ef6c4f4ce4c623e88097",
    "n3seed.json": "57ce49705f892e1d85972a5459693f038d9f0cfd3cede3077eb9b63bb88039b0",
}


def test_criterion_8_determinism():
    t0 = time.monotonic()
    for cfg_name, pin in REPORT_BODY_SHA256.items():
        cfg_path = os.path.join(CONFIG_DIR, cfg_name)
        rep1, code1 = run_config(cfg_path)
        rep2, code2 = run_config(cfg_path)
        assert code1 == code2 == 0, (cfg_path, code1, code2)
        body1 = json.dumps({k: v for k, v in rep1.items() if k != "timings"},
                           sort_keys=True, indent=1)
        body2 = json.dumps({k: v for k, v in rep2.items() if k != "timings"},
                           sort_keys=True, indent=1)
        assert body1.encode() == body2.encode(), f"{cfg_path} not byte-identical"
        assert hashlib.sha256(body1.encode()).hexdigest() == pin, cfg_path
    print(PASS % (8, "determinism", time.monotonic() - t0))
