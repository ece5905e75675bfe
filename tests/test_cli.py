import functools
import json
import os
import shutil
from fractions import Fraction

import pytest

import hopfcheck.cli as cli
import hopfcheck.complexes as complexes
import hopfcheck.hopf as hopf
import hopfcheck.rewrite as rewrite
from hopfcheck.cli import (
    GBCache,
    emit_report,
    report_json,
    report_markdown,
    run_config,
    validate_config,
)
from hopfcheck.errors import CacheCorrupt, ConfigInvalid, VersionMismatch
from hopfcheck.foundation import NCPoly
from hopfcheck.hopf import build_gabcd, build_glq
from hopfcheck.rewrite import complete_truncated, system_cache_key

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def small_config(**over):
    cfg = {
        "instance": {"kind": "GLq", "q": "2"},
        "degree_bound": 6,
        "checks": ["invariants", "nakayama", "resolution", "cohomology"],
    }
    cfg.update(over)
    return cfg


def test_validate_rejects_unknown_keys():
    with pytest.raises(ConfigInvalid):
        validate_config(small_config(bogus=1))
    with pytest.raises(ConfigInvalid):
        validate_config(small_config(checks=["hopf", "nope"]))
    cfg = small_config()
    cfg["instance"] = {"kind": "GLq", "q": "2", "extra": 1}
    with pytest.raises(ConfigInvalid):
        validate_config(cfg)


def test_validate_requires_seed_for_random():
    with pytest.raises(ConfigInvalid):
        validate_config({"instance": {"kind": "GAB", "n": 3},
                         "degree_bound": 6, "checks": ["hopf"]})


def test_validate_check_applicability():
    with pytest.raises(ConfigInvalid):
        validate_config(small_config(checks=["galois"]))


def test_run_small_config_passes():
    rep, code = run_config(small_config())
    assert code == 0
    assert all(c["status"] == "pass" for c in rep["checks"])
    coh = next(c for c in rep["checks"] if c["name"] == "cohomology")
    assert coh["details"]["H_b"] == [1, 1, 0, 1, 1]


def test_empty_checks_exit_zero():
    rep, code = run_config(small_config(checks=[]))
    assert code == 0
    assert rep["checks"] == []


@pytest.mark.parametrize("checks", [["invariants", "cohomology"], ["cohomology"]],
                         ids=["after_invariants", "alone"])
def test_q1_genericity_fails_and_cohomology_skipped(checks):
    """q = 1 is not generic: cohomology is skipped with the same witness
    whether or not the invariants check, which reports genericity, runs."""
    cfg = small_config(checks=checks)
    cfg["instance"] = {"kind": "GLq", "q": "1"}
    rep, code = run_config(cfg)
    assert code == (1 if "invariants" in checks else 2)
    if "invariants" in checks:
        inv = next(c for c in rep["checks"] if c["name"] == "invariants")
        assert inv["status"] == "fail"
    coh = next(c for c in rep["checks"] if c["name"] == "cohomology")
    assert coh["status"] == "uncertified"
    assert coh["witnesses"] == ["skipped: genericity failed"]


def test_low_degree_bound_is_uncertified():
    cfg = small_config(degree_bound=2, checks=["resolution"])
    rep, code = run_config(cfg)
    assert code == 2
    res = rep["checks"][0]
    assert res["status"] == "uncertified"


def test_reports_deterministic():
    cfg = small_config(checks=["invariants", "nakayama"])
    rep1, _ = run_config(cfg)
    rep2, _ = run_config(cfg)
    body1 = json.dumps({k: v for k, v in rep1.items() if k != "timings"},
                       sort_keys=True)
    body2 = json.dumps({k: v for k, v in rep2.items() if k != "timings"},
                       sort_keys=True)
    assert body1 == body2


def test_markdown_report_contents():
    rep, _ = run_config(small_config())
    md = report_markdown(rep)
    assert "H_b: 1,1,0,1,1" in md
    assert "Nakayama automorphism" in md
    assert "| invariants | pass |" in md


def test_exit_code_contract_synthetic():
    import itertools
    from hopfcheck.cli import exit_code_of

    assert exit_code_of([]) == 0
    for n in (1, 2, 3):
        for combo in itertools.product(["pass", "fail", "uncertified"], repeat=n):
            got = exit_code_of(list(combo))
            if "fail" in combo:
                assert got == 1
            elif "uncertified" in combo:
                assert got == 2
            else:
                assert got == 0


def _stored_slq6(tmp_path, slq6):
    """A GBCache in tmp_path holding slq6's system; (cache, key, entry path)."""
    cache = GBCache(str(tmp_path))
    rs = slq6.rs
    key = system_cache_key([r.poly() for r in rs.rules], rs.order, rs.certified_degree)
    return cache, key, cache.store(key, rs)


def _load_slq6(cache, key, slq6):
    return cache.load(key, slq6.rs.order, slq6.rs.certified_degree)


def _edit_payload(path, edit, rehash=True):
    """Apply edit to the parsed payload of the cache entry at path and store
    its canonical text back, with the hash recomputed unless rehash is False,
    so that only the edit can break the hash."""
    with open(path) as fh:
        blob = json.load(fh)
    payload = json.loads(blob["payload"])
    edit(payload)
    blob["payload"] = rewrite.canonical_json(payload)
    if rehash:
        blob["hash"] = rewrite.text_hash(blob["payload"])
    with open(path, "w") as fh:
        json.dump(blob, fh)


def test_cache_tamper_detected(tmp_path, slq6):
    cache, key, path = _stored_slq6(tmp_path, slq6)

    def tamper(payload):
        payload["rules"][0]["tail"][0]["coeff"] = "9/1"
    _edit_payload(path, tamper, rehash=False)
    with pytest.raises(CacheCorrupt, match="does not match its hash"):
        _load_slq6(cache, key, slq6)


def test_cache_version_mismatch(tmp_path, slq6):
    cache, key, path = _stored_slq6(tmp_path, slq6)
    with open(path) as fh:
        blob = json.load(fh)
    blob["version"] = 0
    with open(path, "w") as fh:
        json.dump(blob, fh)
    with pytest.raises(VersionMismatch):
        _load_slq6(cache, key, slq6)


@pytest.mark.parametrize("coeff", ["1/0", "-3/-1", "1/2/3", "one/2", "1.5/2", "3", "", 3, None])
def test_malformed_cache_coefficient_is_a_bad_payload(tmp_path, slq6, coeff):
    """An entry whose hash matches but whose coefficient is not a string
    "p/q" with integers p and q > 0 is CacheCorrupt, as a bad payload, not a
    traceback."""
    cache, key, path = _stored_slq6(tmp_path, slq6)

    def malform(payload):
        payload["rules"][0]["tail"][0]["coeff"] = coeff
    _edit_payload(path, malform)
    with pytest.raises(CacheCorrupt, match="bad payload"):
        _load_slq6(cache, key, slq6)


def test_cached_run_matches_fresh(tmp_path):
    cfg = small_config(checks=["invariants", "resolution"],
                       cache_dir=str(tmp_path))
    rep1, code1 = run_config(cfg)
    assert code1 == 0
    assert os.listdir(tmp_path)  # the GB landed in the cache
    rep2, code2 = run_config(cfg)
    assert code2 == 0
    body1 = json.dumps({k: v for k, v in rep1.items() if k != "timings"}, sort_keys=True)
    body2 = json.dumps({k: v for k, v in rep2.items() if k != "timings"}, sort_keys=True)
    assert body1 == body2


def test_emit_report_file(tmp_path):
    rep, _ = run_config(small_config(checks=["invariants"]))
    out = tmp_path / "report.json"
    emit_report(rep, "json", str(out))
    blob = json.loads(out.read_text())
    assert "report" in blob and "timings" in blob
    md = emit_report(rep, "markdown")
    assert md.startswith("# verification report")


def test_cli_entry_point(tmp_path):
    from hopfcheck.cli import main
    cfg = small_config(checks=["invariants", "nakayama"],
                       report_path=str(tmp_path / "out.json"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["run", str(cfg_path), "--md", str(tmp_path / "out.md")])
    assert code == 0
    assert (tmp_path / "out.json").exists()
    assert "Nakayama" in (tmp_path / "out.md").read_text()
    code = main(["report", str(tmp_path / "out.json"), "--md"])
    assert code == 0
    # gb prebuild populates the cache from the env override
    import os
    os.environ["HOPFCHECK_CACHE"] = str(tmp_path / "cache")
    try:
        code = main(["gb", str(cfg_path)])
    finally:
        del os.environ["HOPFCHECK_CACHE"]
    assert code == 0
    assert os.listdir(tmp_path / "cache")


def test_cache_entry_under_other_key_rejected(tmp_path):
    """A valid GL_q(2) q=2 entry copied under the q=3 key is not trusted."""
    cache = GBCache(str(tmp_path))
    q2 = build_glq(2, 4, cache=cache)
    (entry,) = os.listdir(tmp_path)
    q3_key = system_cache_key(build_glq(3, 4).relations, q2.order, 4)
    shutil.copy(tmp_path / entry, tmp_path / f"gb-{q3_key}.json")
    with pytest.raises(CacheCorrupt):
        build_glq(3, 4, cache=cache)


def test_cache_entry_for_other_relations_rejected(tmp_path, slq6):
    """The key names the relations: under the key of other relations the
    entry is a miss, and a copy of it placed under that key is not its key's."""
    cache, key, path = _stored_slq6(tmp_path, slq6)
    rs = slq6.rs
    other = system_cache_key([r.poly() for r in rs.rules[1:]], rs.order, rs.certified_degree)
    assert _load_slq6(cache, key, slq6) is not None
    assert _load_slq6(cache, other, slq6) is None
    shutil.copy(path, os.path.join(tmp_path, f"gb-{other}.json"))
    with pytest.raises(CacheCorrupt, match="stored under key"):
        _load_slq6(cache, other, slq6)


def test_half_written_cache_entry_is_corrupt(tmp_path, slq6):
    cache, key, path = _stored_slq6(tmp_path, slq6)
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text[: len(text) // 2])
    with pytest.raises(CacheCorrupt):
        _load_slq6(cache, key, slq6)


def test_bad_cache_entry_is_a_failed_check(tmp_path):
    """A truncated or old-format entry fails the checks that read it, in a report."""
    cfg = small_config(degree_bound=4, checks=["invariants", "hopf"],
                       cache_dir=str(tmp_path))
    _, code = run_config(cfg)
    assert code == 0
    (entry,) = os.listdir(tmp_path)
    path = tmp_path / entry
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    rep, code = run_config(cfg)
    assert code == 1
    inv, hopf = rep["checks"]
    assert inv["status"] == "pass"
    assert hopf["status"] == "fail" and hopf["witnesses"][0].startswith("CacheCorrupt: ")
    blob = json.loads(text)
    blob["version"] = 0
    path.write_text(json.dumps(blob))
    rep, code = run_config(cfg)
    assert code == 1
    assert rep["checks"][1]["witnesses"][0].startswith("VersionMismatch: ")


def test_gb_replaces_a_bad_cache_entry(tmp_path, monkeypatch, capsys):
    """`verify gb` recomputes over a truncated or old-format entry (format 0,
    2 or 3) and stores a good one, which the next run reads."""
    cfg = small_config(degree_bound=4, checks=["invariants", "hopf"],
                       cache_dir=str(tmp_path / "cache"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["gb", str(cfg_path)]) == 0
    (entry,) = os.listdir(tmp_path / "cache")
    path = tmp_path / "cache" / entry
    good = path.read_text()
    blob = json.loads(good)
    # a version-2 entry: the parsed payload, a relations digest, no text
    v2 = {"version": 2, "key": blob["key"], "relations": "0" * 64, "hash": blob["hash"],
          "payload": json.loads(blob["payload"])}
    # a version-3 entry: the same layout, read as a system complete to the bound
    v3 = json.dumps(blob | {"version": 3})
    blob["version"] = 0
    for bad, error in [(good[: len(good) // 2], "CacheCorrupt"),
                       (json.dumps(blob), "VersionMismatch"),
                       (json.dumps(v2), "VersionMismatch"),
                       (v3, "VersionMismatch")]:
        path.write_text(bad)
        capsys.readouterr()
        assert cli.main(["gb", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert f"replaced corrupt cache entry ({error}: " in out
        assert os.listdir(tmp_path / "cache") == [entry]
        assert path.read_text() == good
    completions = []
    monkeypatch.setattr(rewrite, "complete_truncated",
                        lambda *a, **kw: completions.append(a))
    rep, code = run_config(cfg)
    assert code == 0 and not completions
    assert [c["status"] for c in rep["checks"]] == ["pass", "pass"]


@pytest.mark.parametrize("field, error", [("certified_degree", "is not its key's"),
                                          ("weights", "is not its key's"),
                                          ("precedence", "bad payload"),
                                          ("lead 99", "bad payload"),
                                          ("lead -1", "bad payload"),
                                          ("collapsed true", "bad payload"),
                                          ("collapsed no", "bad payload")])
def test_cache_entry_claiming_another_order_or_degree_rejected(tmp_path, field, error, capsys):
    """An entry whose payload claims a certified degree of 40, other weights,
    a precedence that orders no words, a rule lead with a letter that is
    no generator (99, or -1, the lead trie's end key), or a collapsed flag
    that is not the False its rules decide (true, or the string "no"), with
    its hash recomputed, is not its key's: the checks that read it fail,
    and `verify gb` replaces it with a good one."""
    cfg = small_config(degree_bound=4, checks=["invariants", "hopf"],
                       cache_dir=str(tmp_path / "cache"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["gb", str(cfg_path)]) == 0
    (entry,) = os.listdir(tmp_path / "cache")
    path = tmp_path / "cache" / entry
    good = path.read_text()

    def claim(payload):
        if field == "certified_degree":
            payload["certified_degree"] = 40
        elif field == "weights":
            payload["order"]["weights"][0] = 3
        elif field == "precedence":
            payload["order"]["precedence"][0] = 1
        elif field.startswith("collapsed"):
            payload["collapsed"] = True if field == "collapsed true" else "no"
        else:
            payload["rules"][0]["lead"][0] = int(field.split()[1])
    _edit_payload(path, claim)
    rep, code = run_config(cfg)
    assert code == 1
    inv, hopf = rep["checks"]
    assert inv["status"] == "pass"
    assert hopf["status"] == "fail"
    assert hopf["witnesses"][0].startswith("CacheCorrupt: ")
    assert error in hopf["witnesses"][0]
    capsys.readouterr()
    assert cli.main(["gb", str(cfg_path)]) == 0
    assert "replaced corrupt cache entry (CacheCorrupt: " in capsys.readouterr().out
    assert path.read_text() == good


def test_cache_store_is_atomic(tmp_path, slq6, monkeypatch):
    """A store that dies mid-write leaves the previous entry whole and no
    temp file, and raises CacheCorrupt naming the entry."""
    cache, key, path = _stored_slq6(tmp_path, slq6)
    with open(path) as fh:
        before = fh.read()

    real_fdopen = os.fdopen

    class DiesMidWrite:
        def __init__(self, fd, mode):
            self.fh = real_fdopen(fd, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:100])
            raise OSError("disk full")

    monkeypatch.setattr(cli.os, "fdopen", DiesMidWrite)
    with pytest.raises(CacheCorrupt, match="unwritable"):
        cache.store(key, slq6.rs)
    monkeypatch.undo()
    assert os.listdir(tmp_path) == [os.path.basename(path)]
    with open(path) as fh:
        assert fh.read() == before
    assert _load_slq6(cache, key, slq6).to_dict() == slq6.rs.to_dict()


def test_cache_entry_that_is_a_directory(tmp_path, capsys):
    """An entry path that is a directory can be neither read nor replaced:
    a run fails the check that reads it with CacheCorrupt naming the path,
    and `verify gb` exits 3 with an invalid config, not a traceback."""
    cfg = small_config(degree_bound=4, checks=["invariants", "hopf"],
                       cache_dir=str(tmp_path / "cache"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["gb", str(cfg_path)]) == 0
    (entry,) = os.listdir(tmp_path / "cache")
    path = tmp_path / "cache" / entry
    path.unlink()
    path.mkdir()
    rep, code = run_config(cfg)
    assert code == 1
    assert [c["status"] for c in rep["checks"]] == ["pass", "fail"]
    assert rep["checks"][1]["witnesses"][0].startswith(f"CacheCorrupt: {path}: unreadable")
    capsys.readouterr()
    assert cli.main(["gb", str(cfg_path)]) == 3
    assert capsys.readouterr().err.startswith(f"invalid config: cache entry {path}: unwritable")
    assert os.listdir(tmp_path / "cache") == [entry]


def test_warm_build_hashes_once(tmp_path, n3, monkeypatch):
    """A warm build of the n=3 G(A,B) computes its key once and its load
    serializes nothing: one content_hash, one json.dumps, no completion."""
    cache = GBCache(str(tmp_path))
    cache.store(system_cache_key(n3.relations, n3.order, 6), n3.rs)
    hashes = _recording(monkeypatch, rewrite, "content_hash")
    dumps = _recording(monkeypatch, json, "dumps")
    completed = _recording(monkeypatch, rewrite, "complete_truncated")
    warm = hopf.build_gab(n3.mats["A"], n3.mats["B"], 6, cache=cache)
    assert len(hashes) == len(dumps) == 1 and not completed
    assert warm.rs.to_dict() == n3.rs.to_dict()


def _partial_entry(tmp_path, alg, weight):
    """A GBCache in tmp_path holding alg's system at degree 6, completed to
    weight; (cache, key, entry path)."""
    cache = GBCache(str(tmp_path))
    rs = complete_truncated(alg.relations, alg.order, 6)
    rs.is_normal_word((0,) * weight)
    assert rs.completed_weight == weight
    key = system_cache_key(alg.relations, alg.order, 6)
    return cache, key, cache.store(key, rs)


def _payload(path):
    with open(path) as fh:
        return json.loads(json.load(fh)["payload"])


@pytest.mark.parametrize("name", ["C(0,1)", "n3"])
def test_an_entry_stored_at_any_weight_resumes_to_the_eager_system(name, galois6, n3,
                                                                   tmp_path):
    """glq2's C(0,1) and the n=3 G(A,B), stored at each weight 2 to 5: the
    entry holds the rules of weight <= w and "done" w, and its system, loaded
    and forced to the bound, is the system completed at once."""
    alg = galois6[0] if name == "C(0,1)" else n3
    eager = alg.rs.to_dict()
    for w in range(2, 6):
        cache, key, path = _partial_entry(tmp_path / str(w), alg, w)
        payload = _payload(path)
        assert payload["done"] == w
        assert {alg.order.weight(r["lead"]) for r in payload["rules"]} <= set(range(w + 1))
        loaded = cache.load(key, alg.order, 6, alg.relations)
        assert loaded.completed_weight == w and loaded.snapshot() == payload
        assert loaded.to_dict() == eager
    assert "done" not in eager


def test_a_query_past_the_stored_weight_writes_back_once(galois6, tmp_path, monkeypatch):
    """A build that loads glq2's C(0,1) at weight 3 stores nothing; a normal
    form of weight 5 completes the window (3, 5] and stores the entry once,
    at 5; a query within 5 stores nothing; the rules complete it to the
    bound and store it once more, with no "done"."""
    alg = galois6[0]
    cache, key, path = _partial_entry(tmp_path, alg, 3)
    stores = _recording(monkeypatch, GBCache, "store")
    windows = _windows(monkeypatch)
    rs = rewrite.complete_with_cache(alg.relations, alg.order, 6, cache)
    assert rs.completed_weight == 3 and not stores
    rs.normal_form(NCPoly.term((0,) * 5))
    assert len(stores) == 1 and windows == [(3, 5)] and _payload(path)["done"] == 5
    rs.normal_form(NCPoly.term((1,) * 4))
    assert len(stores) == 1
    eager = complete_truncated(alg.relations, alg.order, 6)
    assert len(rs.rules) == len(eager.rules) and len(stores) == 2
    assert _payload(path) == eager.to_dict()


@pytest.mark.parametrize("done", [True, False, 3.0, "3", None, -2, 6, 7])
def test_an_entry_with_a_bad_done_is_corrupt(galois6, tmp_path, done):
    """A done that is not an int in [-1, bound), also a bool or a float, on
    an entry at weight 1, below the relations, so that it holds no rule for a
    done to exceed, with the hash recomputed, is a bad payload."""
    alg = galois6[0]
    cache, key, path = _partial_entry(tmp_path, alg, 1)
    assert _payload(path)["rules"] == []

    def claim(payload):
        payload["done"] = done
    _edit_payload(path, claim)
    with pytest.raises(CacheCorrupt, match="bad payload"):
        cache.load(key, alg.order, 6, alg.relations)


def test_an_entry_with_a_lead_above_done_is_corrupt(galois6, tmp_path):
    """An entry at weight 3 that claims done 2 holds leads of weight 3: a
    bad payload."""
    alg = galois6[0]
    cache, key, path = _partial_entry(tmp_path, alg, 3)

    def claim(payload):
        payload["done"] = 2
    _edit_payload(path, claim)
    with pytest.raises(CacheCorrupt, match="weighs more than done 2"):
        cache.load(key, alg.order, 6, alg.relations)


@pytest.mark.parametrize("name", ["slq", "slql"])
def test_an_incomplete_entry_of_inhomogeneous_relations_is_corrupt(name, slq6, slql8,
                                                                  tmp_path):
    """O(SL_q(2)) and O(SL_q(2))[z^±1] complete at once, so an entry of
    theirs with a "done", its rules cut to that weight, is a bad payload; so
    is an incomplete entry loaded without relations."""
    alg = slq6 if name == "slq" else slql8
    bound = alg.rs.certified_degree
    cache = GBCache(str(tmp_path))
    key = system_cache_key(alg.relations, alg.order, bound)
    path = cache.store(key, alg.rs)

    def cut(payload):
        payload["done"] = 2
        payload["rules"] = [r for r in payload["rules"] if alg.order.weight(r["lead"]) <= 2]
    _edit_payload(path, cut)
    for relations in (alg.relations, None):
        with pytest.raises(CacheCorrupt, match="bad payload.*homogeneous relations"):
            cache.load(key, alg.order, bound, relations)


def test_warm_n3_run_stores_and_completes_nothing(tmp_path, monkeypatch, capsys):
    """The n3-warm check list after `verify gb`: gb caches G(A,B) to weight
    3, and the run loads it, completes no window and stores nothing."""
    cfg = _n3_warm() | {"cache_dir": str(tmp_path / "cache")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["gb", str(cfg_path)]) == 0
    assert capsys.readouterr().out == "cached C(0,0) GAB: 39 rules to weight 3\n"
    completed = _recording(monkeypatch, rewrite, "complete_truncated")
    windows = _windows(monkeypatch)
    stores = _recording(monkeypatch, GBCache, "store")
    loads = _recording(monkeypatch, GBCache, "load")
    rep, code = run_config(cfg)
    assert code == 0, rep["checks"]
    assert not completed and not windows and not stores
    ((_, rs),) = loads
    assert rs.completed_weight == 3


def _glq2(degree_bound, **instance):
    with open(os.path.join(CONFIGS, "glq2.json")) as fh:
        cfg = json.load(fh)
    cfg["degree_bound"] = degree_bound
    cfg["probe"]["N"] = 3
    cfg["instance"].update(instance)
    return cfg


def _windows(monkeypatch):
    """Patch RewriteSystem._complete_to to record (from, to) of each window
    it completes; returns the record."""
    windows = []
    real = rewrite.RewriteSystem._complete_to

    def recorded(rs, weight):
        before = rs.completed_weight
        real(rs, weight)
        if rs.completed_weight != before:
            windows.append((before, rs.completed_weight))

    monkeypatch.setattr(rewrite.RewriteSystem, "_complete_to", recorded)
    return windows


def _recording(monkeypatch, module, name):
    """Patch module.name to record the (args, result) of each call; returns the record."""
    calls = []
    real = getattr(module, name)

    def recorded(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(module, name, recorded)
    return calls


def test_run_completes_each_presentation_once(monkeypatch):
    """glq2 at degree 6: the run builds the cogroupoid's C(0,0) = G(A,B),
    C(0,1), C(1,0) and C(1,1) once each, and completes them, O(SL_q(2)) and
    O(SL_q(2))[z^±1], and builds the Hopf structures of C(0,0), C(1,1),
    O(SL_q(2)) and O(SL_q(2))[z^±1] once each.  hopf, nakayama, cogroupoid
    and galois read the same algebras and structures, and a second run
    shares none of them.  No check reads a C(x,y) above weight 3."""
    cfg = _glq2(6)
    completed = _recording(monkeypatch, rewrite, "complete_truncated")
    built = _recording(monkeypatch, cli, "build_gabcd")
    built_gab = _recording(monkeypatch, cli, "build_gab")
    structures = _recording(monkeypatch, cli, "hopf_structure")
    calls = {name: _recording(monkeypatch, cli, name) for name in
             ("verify_hopf_axioms", "nakayama_G", "cogroupoid_suite", "nakayama_galois")}
    _, code = run_config(cfg)
    assert code == 0
    assert len(built_gab) == len(built) == 2 and len(completed) == 6
    ((algs, hopfs), _), = calls["cogroupoid_suite"]
    assert [algs[xy] for xy in [(0, 0), (1, 1)]] == [a for _, a in built_gab]
    assert [algs[xy] for xy in [(0, 1), (1, 0)]] == [a for _, a in built]
    (c00, c11, slq, slql) = [alg for (alg,), _ in structures]
    assert (c00, c11) == (algs[(0, 0)], algs[(1, 1)])
    assert (slq.kind, slql.kind) == ("SLq", "SLqLaurent")
    # the cogroupoid's homogeneous presentations are completed only to the
    # weight the run reads; O(SL_q(2)) and O(SL_q(2))[z^±1] are not
    # homogeneous, so they are completed to the bound when built
    assert [algs[xy].rs.completed_weight for xy in [(0, 0), (0, 1), (1, 0), (1, 1)]] \
        == [3] * 4
    assert (slq.rs.completed_weight, slql.rs.completed_weight) == (6, 6)
    assert all(H.alg is alg for (alg,), H in structures)
    assert [hopfs[0], hopfs[1]] == [H for _, H in structures[:2]]
    # the slq check calls verify_hopf_axioms too, on O(SL_q(2))
    for name in ("verify_hopf_axioms", "nakayama_G"):
        (H,), _ = calls[name][0]
        assert H is hopfs[0]
    (H,), _ = calls["verify_hopf_axioms"][1]
    assert H is structures[2][1]
    (gal, gal_op), _ = calls["nakayama_galois"][0]
    assert gal is algs[(0, 1)] and gal_op is algs[(1, 0)]
    first = completed + built + built_gab + structures
    for record in (completed, built, built_gab, structures):
        record.clear()
    _, code = run_config(cfg)
    assert code == 0
    assert len(built_gab) == len(built) == 2 and len(completed) == 6 and len(structures) == 4
    assert not {id(x) for _, x in first} & {id(x) for _, x in
                                             completed + built + built_gab + structures}


def test_n3seed_run_builds_one_hopf_structure(monkeypatch):
    """configs/n3seed.json reads one Hopf algebra, G(A,B): its hopf and
    nakayama checks and its resolution share one structure."""
    structures = _recording(monkeypatch, cli, "hopf_structure")
    calls = {name: _recording(monkeypatch, cli, name) for name in
             ("verify_hopf_axioms", "nakayama_G", "build_yd_resolution")}
    _, code = run_config(os.path.join(CONFIGS, "n3seed.json"))
    assert code == 0
    ((alg,), H), = structures
    assert alg.kind == "GAB"
    assert [args for name in ("verify_hopf_axioms", "nakayama_G") for args, _ in calls[name]] \
        == [(H,), (H,)]
    ((_, eps), _), = calls["build_yd_resolution"]
    assert eps is H.eps


# the check list of perfbench's n3-warm workload
N3_WARM_CHECKS = ["invariants", "hopf", "nakayama", "resolution", "gamma", "dual", "twist",
                  "cohomology"]


def _n3_warm():
    with open(os.path.join(CONFIGS, "n3seed.json")) as fh:
        return json.load(fh) | {"checks": N3_WARM_CHECKS}


def test_run_reduces_each_sum_once(monkeypatch):
    """The n3-warm check list on seed 12345 takes no normal form of what is
    known to be normal: sums of known-normal elements at one exponent, sums
    of scalars times known-normal elements, 1, the generators and one-term
    images skip it, and module maps sum only their nonzero products.  It
    makes at most 1,768 RewriteSystem.reduce calls and 717 sums of
    products, against 4,845 reduce calls when every sum was reduced, and
    2,215 and 1,305 when compose summed every (row, k, column) pair."""
    calls = _recording(monkeypatch, rewrite.RewriteSystem, "reduce")
    sums = _recording(monkeypatch, hopf.LocalizedElement, "sum_of_products")
    _, code = run_config(_n3_warm())
    assert code == 0
    assert len(calls) <= 1768
    assert len(sums) <= 717


def test_run_builds_few_fractions():
    """The n3-warm check list on seed 12345 keeps its scalars in integer
    form: matrices, sandwiches, the γ and twist blocks, the characters and
    the cohomology's counits build no Fraction, so the run builds at most
    2,000 of them, against 6,902 when those held Fractions."""
    new, built = Fraction.__new__, [0]

    def counted(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    Fraction.__new__ = counted
    try:
        _, code = run_config(_n3_warm())
    finally:
        Fraction.__new__ = new
    assert code == 0
    assert built[0] <= 2000


def test_hopf_structure_builds_each_derived_map_once(monkeypatch):
    """S∘S and (ν, η) live on the Hopf structure: an n3-warm run composes S
    with itself once and builds ν once, although hopf, nakayama and twist
    all read them."""
    composed = []
    real_then = hopf.AlgebraMap.then

    def then(self, outer):
        composed.append((self, outer))
        return real_then(self, outer)

    monkeypatch.setattr(hopf.AlgebraMap, "then", then)
    nus = _recording(monkeypatch, hopf, "nakayama_nu")
    structures = _recording(monkeypatch, cli, "hopf_structure")
    _, code = run_config(_n3_warm())
    assert code == 0
    (_, H), = structures
    assert [(s, o) for s, o in composed if s is o] == [(H.antipode, H.antipode)]
    assert len(nus) == 1 and nus[0][0] == (H,)


def test_equal_objects_share_one_algebra(monkeypatch):
    """A conjugator that fixes (A,B) makes (C,D) = (A,B): the four C(x,y) are
    one presentation, built and completed once."""
    built = _recording(monkeypatch, cli, "build_gab")
    completed = _recording(monkeypatch, rewrite, "complete_truncated")
    rep, code = run_config(_glq2(5, conjugator=[["1", "0"], ["0", "1"]]) | {
        "checks": ["hopf", "cogroupoid", "galois"]})
    assert code == 0, rep["checks"]
    assert len(built) == len(completed) == 1


def test_corrupt_galois_entry_fails_only_its_checks(tmp_path):
    """A truncated cache entry for C(0,1) fails cogroupoid and galois, the
    two checks that read C(0,1), with CacheCorrupt; hopf reads only C(0,0)."""
    cfg = _glq2(5) | {"checks": ["hopf", "cogroupoid", "galois"],
                      "cache_dir": str(tmp_path)}
    _, code = run_config(cfg)
    assert code == 0
    assert len(os.listdir(tmp_path)) == 4
    m = cli._instance_matrices(cfg)
    c01 = build_gabcd(m["A"], m["B"], m["C"], m["D"], 5)
    path = tmp_path / f"gb-{system_cache_key(c01.relations, c01.order, 5)}.json"
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    rep, code = run_config(cfg)
    assert code == 1
    hopf, cogroupoid, galois = rep["checks"]
    assert hopf["status"] == "pass"
    for entry in (cogroupoid, galois):
        assert entry["status"] == "fail"
        assert entry["witnesses"][0].startswith("CacheCorrupt: ")


def _config_checks(name):
    with open(os.path.join(CONFIGS, name)) as fh:
        return json.load(fh)["checks"]


# `verify gb`'s lines on glq2 at degree 6 (probe N = 3): the presentations in
# the order printed before CHECKS declared what each check reads, for every
# single check, then for the check lists of configs/glq2.json and
# configs/n3seed.json.  Each is cached as far as its build read it: the four
# C(x,y) to weight 3 (25, 25, 42 and 42 rules at weight 6), O(SL_q(2)) and
# O(SL_q(2))[z^±1], which are complete when built, to the bound.
_C00, _C01, _C10, _C11 = ("cached C(0,0) GAB: 13 rules to weight 3",
                          "cached C(0,1) GABCD: 13 rules to weight 3",
                          "cached C(1,0) GABCD: 18 rules to weight 3",
                          "cached C(1,1) GAB: 18 rules to weight 3")
_SLQ, _SLQL = ("cached SLq(2),q=2: 21 rules to weight 6",
               "cached SLq(2)[z±1],q=2: 25 rules to weight 6")
GB_LINES = [
    (["invariants"], []),
    (["hopf"], [_C00]),
    (["nakayama"], [_C00]),
    (["cogroupoid"], [_C00, _C01, _C10, _C11]),
    (["galois"], [_C01, _C10]),
    (["resolution"], [_C00]),
    (["gamma"], [_C00]),
    (["dual"], [_C00]),
    (["twist"], [_C00]),
    (["slq"], [_SLQ]),
    (["cone"], [_SLQL]),
    (["glq_iso"], [_C00, _SLQL]),
    (["probe"], [_C00]),
    (["cohomology"], [_C00]),
    (_config_checks("glq2.json"), [_C00, _C01, _C10, _C11, _SLQ, _SLQL]),
    (_config_checks("n3seed.json"), [_C00]),
]


class _ReadsRecorder(cli._Run):
    """A run that records the presentations each check reads: the pairs it
    passes to C, and slq and slql.  Reading an object the run caches (the γ
    blocks, ψ, its dual) reads what building it read."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = [set()]
        self.built = {}  # cached attribute -> (value, what building it read)

    def C(self, x, y):
        self.reads[-1].add((x, y))
        return super().C(x, y)


def _recorded(name, build):
    """A property that builds the run's attribute name once, with build, and
    adds what building it read (and name itself, for a presentation) to the
    reads of every access."""
    def get(self):
        if name not in self.built:
            self.reads.append({name} if name in cli.PRESENTATIONS else set())
            try:
                value = build(self)
            finally:
                read = self.reads.pop()
            self.built[name] = value, read
        value, read = self.built[name]
        self.reads[-1] |= read
        return value
    return property(get)


for _name, _attr in list(vars(cli._Run).items()):
    if isinstance(_attr, functools.cached_property):
        setattr(_ReadsRecorder, _name, _recorded(_name, _attr.func))


@pytest.fixture(scope="session")
def glq2_d6_run():
    """glq2 at degree 6, probe N = 3, after a run of every check; its
    by_check maps each check to its status and the presentations it read."""
    cfg = _glq2(6)
    run = _ReadsRecorder(cfg, cli._checked_instance(cfg), None)
    run.by_check = {}
    for name, (_, check) in cli.CHECKS.items():
        run.reads = [set()]
        status, _, _ = check(run)
        run.by_check[name] = status, run.reads[0]
    return run


@pytest.fixture(scope="session")
def gb_cache(glq2_d6_run, tmp_path_factory):
    """A cache directory holding every glq2 presentation at degree 6, stored
    from the session run's algebras, so that no GB_LINES case completes one."""
    cache = GBCache(str(tmp_path_factory.mktemp("gb-cache")))
    for alg in glq2_d6_run.presentations(cli.CHECKS).values():
        cache.store(system_cache_key(alg.relations, alg.order, 6), alg.rs)
    return cache.directory


def test_checks_read_what_they_declare(glq2_d6_run):
    """Each check of a glq2 run reads exactly the presentations its CHECKS
    entry declares, and passes."""
    for name, (reads, _) in cli.CHECKS.items():
        declared = {xy for key in reads for xy in cli._PAIRS.get(key, [key])}
        assert glq2_d6_run.by_check[name] == ("pass", declared), name


# system_cache_key of the glq2 presentations at degree 6 and of the seeded
# n=3 G(A,B) at degree 6, as computed when the quadrics were built from
# Fraction entries
CACHE_KEY_PINS = {
    "C(0,0) GAB": "6baa393946b14a9f25f1dff9a049e2b37e6689b6a68b89c3cf30e2076d84cf92",
    "C(0,1) GABCD": "cfde6c343c11a8a8c1fcf9e12a24f7fff15c2d5416da6923eaa39061ffbf7201",
    "C(1,0) GABCD": "7224751959f2b3c310486065b0eb52f9e54efb4572b017cb442874a474d84a86",
    "C(1,1) GAB": "2ba791b47a91fd90ccb7442cf13c09c15dcab386a647af85f02655a4d477dc02",
    "SLq(2),q=2": "6a2a58a69a2e3226051e95cf6c04be2450b15576a97d6e65133da02ca3b4de43",
    "SLq(2)[z±1],q=2": "6ef56d596d499d96389fc981312d5e51473401897aa06122050f6dbe7eaafcc7",
    "n3seed G(A,B)": "ca6f4e4f4bfe68e8092548522490e0e7daa056028ed8d2b71f75f9ddb13ebfc7",
}


def test_relations_keep_their_cache_keys(glq2_d6_run, n3):
    algs = glq2_d6_run.presentations(cli.CHECKS) | {"n3seed G(A,B)": n3}
    assert {label: system_cache_key(alg.relations, alg.order, 6)
            for label, alg in algs.items()} == CACHE_KEY_PINS


def _gb_config(checks, tmp_path, cache_dir):
    """glq2 at degree 6 with checks and cache_dir; (config, path of its file)."""
    cfg = _glq2(6) | {"checks": checks, "cache_dir": cache_dir}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    return cfg, str(cfg_path)


@pytest.mark.parametrize("checks, lines", GB_LINES,
                         ids=[checks[0] for checks, _ in GB_LINES[:-2]] + ["glq2.json",
                                                                          "n3seed.json"])
def test_gb_prints_the_frozen_lines(checks, lines, gb_cache, tmp_path, capsys):
    """`verify gb` prints the presentations of each check list in the order
    it printed them before CHECKS declared what each check reads."""
    _, cfg_path = _gb_config(checks, tmp_path, gb_cache)
    assert cli.main(["gb", cfg_path]) == 0
    assert capsys.readouterr().out.splitlines() == lines


@pytest.mark.parametrize("checks", [checks for checks, _ in GB_LINES])
def test_gb_prebuilds_every_presentation_a_run_reads(checks, gb_cache, tmp_path, monkeypatch,
                                                    capsys):
    """After `verify gb`, a run of the same config completes nothing, not
    even a window of a loaded system, stores nothing, and loads only entries
    gb loaded: gb built each presentation its checks read, as far as any of
    them reads it, one `cached` line and entry each."""
    cfg, cfg_path = _gb_config(checks, tmp_path, gb_cache)
    loads = _recording(monkeypatch, GBCache, "load")
    assert cli.main(["gb", cfg_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.startswith("cached ") for line in lines)
    prebuilt = {args[1] for args, _ in loads}
    assert len(lines) == len(prebuilt) == len(loads)
    loads.clear()
    completed = _recording(monkeypatch, rewrite, "complete_truncated")
    windows = _windows(monkeypatch)
    stores = _recording(monkeypatch, GBCache, "store")
    rep, code = run_config(cfg)
    assert code == 0, rep["checks"]
    assert not completed and not windows and not stores
    assert {args[1] for args, _ in loads} <= prebuilt


def test_gb_builds_only_gab_for_the_n3_checks(tmp_path, capsys):
    """The seeded n=3 instance with the checks that read G(A,B) alone: gb
    builds G(A,B) and nothing else."""
    cfg = {"instance": {"kind": "GAB", "n": 3}, "degree_bound": 4, "seed": 12345,
           "checks": ["invariants", "hopf", "nakayama", "resolution", "gamma",
                      "dual", "twist", "cohomology"], "cache_dir": str(tmp_path / "cache")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["gb", str(cfg_path)]) == 0
    # the build reads G(A,B) to weight 3, where it has 39 of its 156 rules at degree 6
    assert capsys.readouterr().out == "cached C(0,0) GAB: 39 rules to weight 3\n"
    assert len(os.listdir(tmp_path / "cache")) == 1


def test_gb_below_the_relation_weight_is_uncertified(tmp_path, capsys):
    """GL_q(2) at degree 2, below the weight 3 of its relations: `verify gb`
    prints one uncertified line, stores nothing and exits 2, as `verify run`
    reports the hopf check uncertified."""
    cfg = small_config(degree_bound=2, checks=["hopf"], cache_dir=str(tmp_path / "cache"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["gb", str(cfg_path)]) == 2
    assert capsys.readouterr().out == "uncertified: degree_bound 2 below max relation weight 3\n"
    assert os.listdir(tmp_path / "cache") == []
    rep, code = run_config(cfg)
    assert code == 2 and [c["status"] for c in rep["checks"]] == ["uncertified"]


def test_cone_square_failure_has_a_witness(monkeypatch):
    """A (z-1) square that fails on a cone that is still a complex: cone
    fails, and its witness names the square."""
    monkeypatch.setattr(complexes.ChainMap, "verify_squares",
                        lambda self: {"ok": False, "failures": [("square1", ["w"])]})
    rep, code = run_config({"instance": {"kind": "GLq", "q": "2"}, "degree_bound": 6,
                            "probe": {"N": 3, "slack": 2}, "checks": ["cone"]})
    assert code == 1
    (cone,) = rep["checks"]
    assert cone["status"] == "fail"
    assert cone["witnesses"] == [str(("square1", ["w"]))]


@pytest.mark.parametrize("N", [1, 2])
def test_probe_of_no_cycle_is_uncertified(N):
    """GL_q(2), q = 2, at degree 6 with slack 2: at N = 1 the kernel domain
    (degree <= N - slack) is empty, and at N = 2 it holds no cycle, so every
    position of probe and cone finds 0 cycles.  Neither checked anything, so
    both are uncertified, with a witness that says so, not pass."""
    rep, code = run_config({"instance": {"kind": "GLq", "q": "2"}, "degree_bound": 6,
                            "probe": {"N": N, "slack": 2}, "checks": ["cone", "probe"]})
    assert code == 2
    for check in rep["checks"]:
        assert check["status"] == "uncertified"
        assert check["witnesses"] == [f"no cycle checked: no position found a cycle of "
                                      f"degree <= N - slack = {N - 2}"]
        positions = check["details"].get("positions") or check["details"]["probe"]
        assert [p["cycles_found"] for p in positions] == [0] * 5


def test_run_leaves_no_cyclic_garbage():
    """Ownership runs one way (run -> Hopf structure -> maps -> algebra ->
    rewrite system), so reference counting frees what a run built: with the
    collector off, nothing is left in a cycle after configs/n3seed.json,
    glq2 at degree 6, and glq2 at degree 5, where five checks are uncertified."""
    import gc
    configs = [os.path.join(CONFIGS, "n3seed.json"), _glq2(6), _glq2(5)]
    found, uncertified = [], []
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for cfg in configs:
            rep, _ = run_config(cfg)
            uncertified.append(rep["summary"]["uncertified"])
            found.append(gc.collect())
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert uncertified == [0, 0, 5]
    assert found == [0, 0, 0]


def test_pair_with_lambda_four_passes():
    """BᵗAᵗBA = 4·I: ψ, the γ identities and the dual run γ7's division by
    λ, and φ is read from (Bᵗ, Aᵗ), away from λ = 1."""
    cfg = {"instance": {"kind": "GAB", "A": [["0", "1"], ["-2", "0"]],
                        "B": [["0", "-1"], ["2", "0"]]},
           "degree_bound": 6, "checks": ["invariants", "resolution", "gamma", "dual", "twist"]}
    rep, code = run_config(cfg)
    assert code == 0
    assert rep["checks"][0]["details"]["lambda"] == "4/1"
    assert [(c["name"], c["status"]) for c in rep["checks"]] == [
        (name, "pass") for name in cfg["checks"]]


def test_run_builds_the_gamma_blocks_once(monkeypatch):
    """The seeded n=3 instance with resolution, gamma and twist: ψ, the γ
    identities and φ share one gamma_maps(G(A,B)) per run."""
    real = complexes.gamma_maps
    calls = []

    def counting(alg):
        calls.append(alg)
        return real(alg)

    monkeypatch.setattr(complexes, "gamma_maps", counting)
    monkeypatch.setattr(cli, "gamma_maps", counting)
    cfg = {"instance": {"kind": "GAB", "n": 3}, "degree_bound": 6, "seed": 12345,
           "checks": ["invariants", "hopf", "nakayama", "resolution", "gamma",
                      "dual", "twist", "cohomology"]}
    _, code = run_config(cfg)
    assert code == 0
    assert len(calls) == 1


def _glq(**inst):
    return small_config(instance={"kind": "GLq", "q": "2", **inst}, checks=["hopf"])


def _gab(A, B):
    return small_config(instance={"kind": "GAB", "A": A, "B": B}, checks=["hopf"])


INVALID_CONFIGS = {
    "float_q": (_glq(q=2.0), "q must be an integer"),
    "zero_q": (_glq(q="0"), "q must be nonzero"),
    "singular_A": (_gab([["1", "2"], ["2", "4"]], [["1", "0"], ["0", "1"]]), "NotInvertible"),
    "non_scalar_BtAtBA": (_gab([["1", "0"], ["0", "1"]], [["1", "0"], ["0", "2"]]),
                          "NotScalarMultiple"),
    "string_probe_N": (small_config(probe={"N": "6"}), "probe N must be an integer"),
    "checks_string": (small_config(checks="hopf"), "checks must be a list"),
    "probe_not_object": (small_config(probe=6), "probe must be an object"),
    "cache_dir_number": (small_config(cache_dir=5), "cache_dir must be a string"),
    "report_path_true": (small_config(report_path=True), "report_path must be a string"),
    "report_path_number": (small_config(report_path=5), "report_path must be a string"),
    "report_path_list": (small_config(report_path=["r.json"]), "report_path must be a string"),
    "string_n": (small_config(instance={"kind": "GAB", "n": "3"}, seed=1), "n must be"),
    "list_seed": (small_config(instance={"kind": "GAB", "n": 3}, seed=[1]), "seed must be"),
    "A_without_B": (small_config(instance={"kind": "GAB", "A": [["1", "0"], ["0", "1"]]}),
                    "A and B must be given together"),
    "conjugator_3x3": (_glq(conjugator=[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
                       "conjugator must be 2 x 2"),
    "no_second_object": (small_config(checks=["galois", "hopf", "cogroupoid"]),
                         r"^\['cogroupoid', 'galois'\] need \(C,D\) or a conjugator$"),
    "GABCD_with_conjugator": (small_config(instance={
        "kind": "GABCD", **{X: [["1", "0"], ["0", "1"]] for X in "ABCD"},
        "conjugator": [["1", "1"], ["0", "1"]]}, checks=["hopf"]),
        r"^give C and D or a conjugator, not both$"),
    "slq_without_q": (_gab([["1", "0"], ["0", "1"]], [["1", "0"], ["0", "1"]])
                      | {"checks": ["glq_iso", "hopf", "slq", "cone"]},
                      r"^\['cone', 'glq_iso', 'slq'\] require a GLq instance$"),
}


@pytest.mark.parametrize("case", sorted(INVALID_CONFIGS))
def test_invalid_config_is_config_invalid(case):
    cfg, message = INVALID_CONFIGS[case]
    with pytest.raises(ConfigInvalid, match=message):
        run_config(cfg)


@pytest.mark.parametrize("cmd", ["run", "gb"])
def test_invalid_config_exits_3(cmd, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HOPFCHECK_CACHE", str(tmp_path / "cache"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_glq(q="0")))
    assert cli.main([cmd, str(cfg_path)]) == 3
    assert capsys.readouterr().err == "invalid config: q must be nonzero\n"


@pytest.mark.parametrize("cmd", ["run", "gb"])
@pytest.mark.parametrize("via", ["env", "config"])
def test_cache_path_that_is_a_file_exits_3(cmd, via, tmp_path, monkeypatch, capsys):
    """HOPFCHECK_CACHE or cache_dir naming a file is an invalid config, not
    a FileExistsError traceback from creating the directory."""
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    cfg = small_config(checks=["invariants"])
    if via == "env":
        monkeypatch.setenv("HOPFCHECK_CACHE", str(blocker))
    else:
        monkeypatch.delenv("HOPFCHECK_CACHE", raising=False)
        cfg["cache_dir"] = str(blocker)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main([cmd, str(cfg_path)]) == 3
    assert capsys.readouterr().err.startswith(
        f"invalid config: cache directory {blocker}: FileExistsError: ")
    with pytest.raises(ConfigInvalid, match="cache directory"):
        run_config(cfg)


def test_report_path_true_exits_3(tmp_path, capsys):
    """report_path true is an invalid config: nothing runs, and the report
    does not go to file descriptor 1."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_config(checks=["invariants"], report_path=True)))
    assert cli.main(["run", str(cfg_path)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "invalid config: report_path must be a string\n"


@pytest.mark.parametrize("via", ["report_path", "--report", "--md"])
def test_unwritable_report_exits_3(via, tmp_path, capsys):
    """A report that cannot be written prints one line and exits 3, although
    every check passed."""
    blocker = tmp_path / "a-directory"
    blocker.mkdir()
    cfg = small_config(checks=["invariants"])
    flags = []
    if via == "report_path":
        cfg["report_path"] = str(blocker)
    else:
        flags = [via, str(blocker)]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(cfg_path)] + flags) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"cannot write report: {blocker}: IsADirectoryError: ")
    assert out.err.count("\n") == 1


@pytest.mark.parametrize("content", [None, "{not json"])
def test_unreadable_config_exits_3(content, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    if content is not None:
        cfg_path.write_text(content)
    assert cli.main(["run", str(cfg_path)]) == 3
    assert capsys.readouterr().err.startswith(f"invalid config: {cfg_path}: ")


def _one_check(**fields):
    """A stored report of one check entry, ``fields`` over a passing one."""
    entry = {"name": "hopf", "status": "pass", "witnesses": [], **fields}
    return json.dumps({"report": {"checks": [entry]}})


@pytest.mark.parametrize("content, error", [(None, "FileNotFoundError"),
                                            ("{not json", "JSONDecodeError"),
                                            ('{"timings": {}}', "KeyError"),
                                            ('{"report": {}}', "ValueError"),
                                            ('{"report": {"checks": [{}]}}', "ValueError"),
                                            ('{"report": {"checks": 5}}', "ValueError"),
                                            (_one_check(details=5), "ValueError"),
                                            (_one_check(witnesses=[1]), "ValueError"),
                                            (_one_check(details={"H_b": 5}), "ValueError"),
                                            (_one_check(details={"H_b": [1], "gs": {"upper": 4}}),
                                             "ValueError"),
                                            (_one_check(details={"gs": [4]}), "ValueError"),
                                            (_one_check(details={"mu": ["a"]}), "ValueError")])
def test_unreadable_report_exits_3(content, error, tmp_path, capsys):
    path = tmp_path / "report.json"
    if content is not None:
        path.write_text(content)
    for md in ([], ["--md"]):
        assert cli.main(["report", str(path)] + md) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"invalid report: {path}: {error}: ")
