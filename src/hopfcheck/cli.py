"""Config-driven verification runs, persistent GB caches, and reports.

A run executes the requested checks in dependency order against one
instance.  Reports are deterministic for a fixed config and seed: all
timing data is quarantined in a separate section so the rest of the JSON
is byte-identical across runs.
"""

import argparse
import json
import os
import sys
import tempfile
import time
from functools import cached_property

from .cohomology import bialgebra_cohomology, gs_dimension_report
from .complexes import (
    build_twist_chainmap,
    build_left_resolution,
    build_slq_resolution,
    build_yd_resolution,
    dualize_resolution,
    gamma_identity_suite,
    gamma_maps,
    laurent_cone,
    probe_exactness,
)
from .errors import (
    CacheCorrupt,
    ConfigInvalid,
    ExceedsCertifiedDegree,
    IdentityFailed,
    NeedsFieldExtension,
    NotInvertible,
    NotScalarMultiple,
    NotSquare,
    ProbeInvalid,
    UnexpectedHomDimension,
    UnitCollapse,
    VersionMismatch,
)
from .foundation import Mat, MonomialOrder, frac, frac_str, genericity_check, matrix_invariants
from .hopf import (
    a_q_matrix,
    antipode_squared_sovereign,
    build_gab,
    build_gabcd,
    build_slq,
    build_slq_laurent,
    cogroupoid_suite,
    commutation_check,
    glq_slq_laurent_iso,
    hopf_structure,
    nakayama_G,
    nakayama_galois,
    seeded_pair,
    verify_hopf_axioms,
)
from .rewrite import RewriteSystem, canonical_json, text_hash

_INSTANCE_KEYS = {"kind", "A", "B", "C", "D", "q", "n", "conjugator"}
_PROBE_KEYS = {"N", "slack", "laurent_window"}
_TOP_KEYS = {"instance", "degree_bound", "probe", "checks", "cache_dir",
             "report_path", "seed"}


class GBCache:
    """Content-addressed store of rewrite systems, each as far as it was completed.

    An entry is one JSON object: the format version, the key it was stored
    under, and the canonical text of the system's ``snapshot`` with its
    sha256.  ``load`` binds the entry to the request: the stored key is the
    requested one, the text has its hash, and the parsed system has the
    requested order and certified degree, else ``CacheCorrupt``, as for a
    file that cannot be read or written.  A snapshot with ``done`` is of an
    incomplete system; it must be an int in [-1, bound), the request's
    relations homogeneous, and no rule's lead heavier than ``done``, else
    ``CacheCorrupt``.  An entry of another format version raises
    ``VersionMismatch``.
    """

    FORMAT_VERSION = 4

    def __init__(self, directory):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, key):
        return os.path.join(self.directory, f"gb-{key}.json")

    def load(self, key, order, degree_bound, relations=None):
        """The system stored under key, checked against the request, an
        incomplete one resumed with relations; None on a miss."""
        path = self._path(key)
        if not os.path.exists(path):
            return None
        try:
            with open(path) as fh:
                blob = json.load(fh)
        except (OSError, ValueError) as e:
            raise CacheCorrupt(f"{path}: unreadable ({type(e).__name__}: {e})") from e
        if not isinstance(blob, dict):
            raise CacheCorrupt(f"{path}: not a cache entry")
        if blob.get("version") != self.FORMAT_VERSION:
            raise VersionMismatch(f"cache format {blob.get('version')}")
        if blob.get("key") != key:
            raise CacheCorrupt(f"{path}: stored under key {blob.get('key')}")
        text = blob.get("payload")
        if not isinstance(text, str) or text_hash(text) != blob.get("hash"):
            raise CacheCorrupt(f"{path}: payload does not match its hash")
        # the order and degree first: the rules and done are read in them
        try:
            payload = json.loads(text)
            stored = MonomialOrder.from_dict(payload["order"]).to_dict(), \
                payload["certified_degree"]
        except (KeyError, TypeError, ValueError) as e:
            raise CacheCorrupt(f"{path}: bad payload ({e})") from e
        # repr, not ==, so that a degree of 4.0 or True is not read as 4
        if repr(stored) != repr((order.to_dict(), degree_bound)):
            raise CacheCorrupt(f"{path}: order or certified degree is not its key's")
        try:
            return RewriteSystem.from_dict(payload, relations)
        except (KeyError, TypeError, ValueError) as e:
            raise CacheCorrupt(f"{path}: bad payload ({e})") from e

    def store(self, key, rs):
        """Write the entry to a temp file beside it, then rename it into place;
        its path.  The payload, the system as far as it is completed, is
        serialized once, as canonical text, so the entry's bytes are
        deterministic."""
        text = canonical_json(rs.snapshot())
        entry = {"version": self.FORMAT_VERSION, "key": key,
                 "hash": text_hash(text), "payload": text}
        path = self._path(key)
        try:
            fd, tmp = tempfile.mkstemp(prefix=".gb-", suffix=".tmp", dir=self.directory)
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(json.dumps(entry))
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError as e:
            raise CacheCorrupt(f"{path}: unwritable ({type(e).__name__}: {e})") from e
        return path


class Refill(GBCache):
    """A ``GBCache`` that reads an entry that is corrupt or of another version as a miss.

    ``verify gb`` completes through it, so the following ``store`` replaces
    a bad entry atomically; ``replaced`` names the errors read as misses.
    """

    def __init__(self, directory):
        super().__init__(directory)
        self.replaced = []

    def load(self, key, order, degree_bound, relations=None):
        try:
            return super().load(key, order, degree_bound, relations)
        except (CacheCorrupt, VersionMismatch) as e:
            self.replaced.append(f"{type(e).__name__}: {e}")
            return None


# ---------------------------------------------------------------------------
# configuration


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _rational(x, what):
    """An exact rational from an integer or a "p/q" string, else ConfigInvalid."""
    if not (_is_int(x) or isinstance(x, str)):
        raise ConfigInvalid(f'{what} must be an integer or a "p/q" string, not {x!r}')
    try:
        return frac(x)
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigInvalid(f"{what} is not a rational: {x!r}") from e


def _matrix(rows, what):
    """A square matrix with at least two rows, else ConfigInvalid."""
    if (not isinstance(rows, list) or len(rows) < 2
            or any(not isinstance(r, list) or len(r) != len(rows) for r in rows)):
        raise ConfigInvalid(f"{what} must be a square list of at least two rows")
    return Mat([[_rational(x, what) for x in r] for r in rows])


def _load_config(path):
    """The parsed JSON config at path; ConfigInvalid if it is unreadable or not JSON."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        raise ConfigInvalid(f"{path}: {e}") from e


def validate_config(cfg):
    """cfg itself if it names a valid run, else ConfigInvalid."""
    _checked_instance(cfg)
    return cfg


def _checked_instance(cfg):
    """_instance_matrices(cfg) and the "pair_invariants" of each pair, if cfg
    names a valid run, else ConfigInvalid.  Besides the keys, it checks the
    types and ranges of q, the matrices (each pair must satisfy
    B^t A^t B A = lambda I), the check list and the probe parameters.
    """
    if not isinstance(cfg, dict):
        raise ConfigInvalid("config must be an object")
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
    for req in ("instance", "degree_bound", "checks"):
        if req not in cfg:
            raise ConfigInvalid(f"missing config key: {req}")
    inst = cfg["instance"]
    if not isinstance(inst, dict) or "kind" not in inst:
        raise ConfigInvalid("instance must be an object with a kind")
    unknown = set(inst) - _INSTANCE_KEYS
    if unknown:
        raise ConfigInvalid(f"unknown instance keys: {sorted(unknown)}")
    kind = inst["kind"]
    if kind not in ("GLq", "GAB", "GABCD"):
        raise ConfigInvalid(f"unsupported instance kind: {kind}")
    if kind == "GLq" and "q" not in inst:
        raise ConfigInvalid("GLq instance needs q")
    if kind == "GAB" and "A" not in inst and "seed" not in cfg:
        raise ConfigInvalid("seed is mandatory for seeded random matrices")
    if "seed" in cfg and not (_is_int(cfg["seed"]) or isinstance(cfg["seed"], str)):
        raise ConfigInvalid("seed must be an integer or a string")
    if not _is_int(inst.get("n", 3)) or inst.get("n", 3) < 2:
        raise ConfigInvalid("n must be an integer >= 2")
    for X, Y in (("A", "B"), ("C", "D")):
        if (X in inst) != (Y in inst):
            raise ConfigInvalid(f"{X} and {Y} must be given together")
    if kind == "GABCD" and not {"A", "C"} <= set(inst):
        raise ConfigInvalid("GABCD instance needs A, B, C and D")
    if "conjugator" in inst and "C" in inst:
        raise ConfigInvalid("give C and D or a conjugator, not both")
    if not _is_int(cfg["degree_bound"]) or cfg["degree_bound"] < 2:
        raise ConfigInvalid("degree_bound must be an integer >= 2")
    checks = cfg["checks"]
    if not isinstance(checks, list) or not all(isinstance(c, str) for c in checks):
        raise ConfigInvalid("checks must be a list of check names")
    bad = [c for c in checks if c not in CHECKS]
    if bad:
        raise ConfigInvalid(f"unknown checks: {bad}")
    for key in ("cache_dir", "report_path"):
        if not isinstance(cfg.get(key, ""), str):
            raise ConfigInvalid(f"{key} must be a string")
    probe = cfg.get("probe", {})
    if not isinstance(probe, dict):
        raise ConfigInvalid("probe must be an object")
    unknown = set(probe) - _PROBE_KEYS
    if unknown:
        raise ConfigInvalid(f"unknown probe keys: {sorted(unknown)}")
    for key, low in (("N", 1), ("slack", 0), ("laurent_window", 0)):
        if key in probe and (not _is_int(probe[key]) or probe[key] < low):
            raise ConfigInvalid(f"probe {key} must be an integer >= {low}")
    reads = {c: CHECKS[c][0] for c in checks}
    needs_cd = sorted(c for c, r in reads.items()
                      if any(1 in xy for k in r for xy in _PAIRS.get(k, ())))
    if needs_cd and "conjugator" not in inst and "C" not in inst:
        raise ConfigInvalid(f"{needs_cd} need (C,D) or a conjugator")
    needs_q = sorted(c for c, r in reads.items() if set(r) - set(_PAIRS))
    if needs_q and kind != "GLq":
        raise ConfigInvalid(f"{needs_q} require a GLq instance")
    try:
        mats = _instance_matrices(cfg)
        mats["pair_invariants"] = [matrix_invariants(mats[X], mats[Y])
                                   for X, Y in (("A", "B"), ("C", "D")) if X in mats]
    except (NotInvertible, NotScalarMultiple, NotSquare) as e:
        raise ConfigInvalid(f"{type(e).__name__}: {e}") from e
    return mats


def _instance_matrices(cfg):
    inst = cfg["instance"]
    kind = inst["kind"]
    out = {"q": _rational(inst["q"], "q") if "q" in inst else None}
    if out["q"] == 0:
        raise ConfigInvalid("q must be nonzero")
    if kind == "GLq":
        A = a_q_matrix(out["q"])
        B = A.inverse()
    elif "A" in inst:
        A, B = _matrix(inst["A"], "A"), _matrix(inst["B"], "B")
    else:
        A, B = seeded_pair(cfg["seed"], inst.get("n", 3))
    out["A"], out["B"] = A, B
    if "conjugator" in inst:
        F = _matrix(inst["conjugator"], "conjugator")
        if F.rows != A.rows:
            raise ConfigInvalid(f"conjugator must be {A.rows} x {A.rows}")
        out["C"] = F.transpose() * A * F
        out["D"] = F.inverse() * B * F.transpose().inverse()
    elif "C" in inst:
        out["C"], out["D"] = _matrix(inst["C"], "C"), _matrix(inst["D"], "D")
    return out


# ---------------------------------------------------------------------------
# the individual checks


def _fails_to_witnesses(failures):
    return [str(f) for f in failures[:5]]


# What a check reads, in the order `verify gb` builds it: C(x,y) for the
# pairs of a key, then the _Run attributes slq and slql (GLq only).
_PAIRS = {"C(0,0)": [(0, 0)], "C(x,y)": [(0, 0), (0, 1), (1, 0), (1, 1)],
          "C(0,1)": [(0, 1)], "C(1,0)": [(1, 0)]}
PRESENTATIONS = (*_PAIRS, "slq", "slql")


class _Run:
    """The instance of one run, and the objects its checks share, each built once.

    The cogroupoid's objects are (A,B) and, where the config gives one,
    (C,D).  ``C(x, y)`` is G(A_x,B_x|A_y,B_y), built on first use; C(x,x) is
    G(A_x,B_x), and C(0,0) is ``alg``.  An object equal to an earlier one
    shares its algebras, so a presentation is built once per run, and each
    takes its invariants from ``mats``.
    ``hopf(alg)`` builds a Hopf algebra's structure once, so every check
    shares its Δ, ε and S and their word caches.
    """

    def __init__(self, cfg, mats, cache):
        self.mats = m = mats
        self.objects = [(m["A"], m["B"])] + ([(m["C"], m["D"])] if "C" in m else [])
        self.bound = cfg["degree_bound"]
        probe = cfg.get("probe", {})
        self.N = probe.get("N", 6)
        self.slack = probe.get("slack", 2)
        self.window = probe.get("laurent_window", 2)
        self.cache = cache
        self._cogroupoid = {}
        self._hopf = {}

    def C(self, x, y):
        x, y = (self.objects.index(self.objects[i]) for i in (x, y))
        alg = self._cogroupoid.get((x, y))
        if alg is None:
            if x == y:
                alg = build_gab(*self.objects[x], self.bound, cache=self.cache)
            else:
                alg = build_gabcd(*self.objects[x], *self.objects[y], self.bound,
                                  cache=self.cache)
            alg.invariants = self.mats["pair_invariants"][x]
            self._cogroupoid[(x, y)] = alg
        return alg

    def hopf(self, alg):
        if alg not in self._hopf:
            self._hopf[alg] = hopf_structure(alg)
        return self._hopf[alg]

    @property
    def alg(self):
        return self.C(0, 0)

    @cached_property
    def gamma(self):
        return gamma_maps(self.alg)

    @cached_property
    def resolution(self):
        return build_yd_resolution(self.gamma, self.hopf(self.alg).eps)

    @cached_property
    def dual(self):
        return dualize_resolution(self.resolution)

    @cached_property
    def slq(self):
        return build_slq(self.mats["q"], self.bound, cache=self.cache)

    @cached_property
    def slql(self):
        return build_slq_laurent(self.mats["q"], self.bound, cache=self.cache)

    @cached_property
    def genericity(self):
        """genericity_check of (A,B) at q, or its NeedsFieldExtension; None
        unless q is given and lambda = 1."""
        inv, q = self.mats["pair_invariants"][0], self.mats["q"]
        if q is None or inv["lambda"] != 1:
            return None
        try:
            return genericity_check(inv, q)
        except NeedsFieldExtension as e:
            return e

    def read(self, key):
        """[(label, algebra)] of a key of PRESENTATIONS."""
        if key not in _PAIRS:
            alg = getattr(self, key)
            return [(alg.name, alg)]
        return [(f"C({x},{y}) {self.C(x, y).name}", self.C(x, y)) for x, y in _PAIRS[key]]

    def presentations(self, checks):
        """{label: algebra} of what a run of checks reads, in the order of
        PRESENTATIONS; an object equal to an earlier one is read once."""
        reads = {key for c in checks for key in CHECKS[c][0]}
        out = {}
        for key in PRESENTATIONS:
            for label, alg in self.read(key) if key in reads else ():
                if all(a is not alg for a in out.values()):
                    out[label] = alg
        return out


def _verdict(rep, extras):
    """(status, witnesses, details) of a check from its report."""
    if not rep["ok"]:
        return "fail", _fails_to_witnesses(rep["failures"]), extras
    return "pass", [], extras


def _first_failing(reps):
    return next((r for r in reps if not r["ok"]), reps[0])


def _check_invariants(run):
    inv, gen = run.mats["pair_invariants"][0], run.genericity
    extras = {"lambda": frac_str(inv["lambda"]), "trace": frac_str(inv["trace"])}
    if isinstance(gen, NeedsFieldExtension):
        extras["generic"] = None
        return "pass", [f"irrational roots: {gen}"], extras
    if gen is not None:
        extras["generic"] = gen["generic"]
        extras["roots"] = [frac_str(r) for r in gen["roots"]]
        if not gen["generic"]:
            return "fail", [f"non-generic roots {extras['roots']}"], extras
    return "pass", [], extras


def _check_hopf(run):
    H = run.hopf(run.alg)
    reps = [verify_hopf_axioms(H), antipode_squared_sovereign(H), commutation_check(run.alg)]
    return _verdict(_first_failing(reps), {})


def _check_nakayama(run):
    alg = run.alg
    nk = nakayama_G(run.hopf(alg))
    return _verdict(nk["report"], {
        "mu": {alg.names[g]: nk["mu"].images[g].pretty() for g in range(alg.ngens())},
        "xi": [frac_str(v) for v in nk["xi"].values],
        "inner_power": nk["inner_power"],
    })


def _check_cogroupoid(run):
    rep = cogroupoid_suite({xy: run.C(*xy) for xy in _PAIRS["C(x,y)"]},
                           {x: run.hopf(run.C(x, x)) for x in (0, 1)})
    return _verdict(rep, {"checks": rep["checks"]})


def _check_galois(run):
    gal, gal_op = run.C(0, 1), run.C(1, 0)
    try:
        extras = {"nonzero_up_to": gal.rs.nonzero_witness()["nonzero_up_to"]}
    except UnitCollapse:
        return "fail", ["algebra collapsed (UnitCollapse)"], {}
    ng = nakayama_galois(gal, gal_op)
    extras["warnings"] = ng["report"]["warnings"]
    return _verdict(ng["report"], extras)


def _check_gamma(run):
    rep = gamma_identity_suite(run.gamma)
    return _verdict(rep, {"identities": rep["identities"]})


def _check_twist(run):
    H = run.hopf(run.alg)
    tw = build_twist_chainmap(run.dual, build_left_resolution(run.gamma, H.eps), H)
    return _verdict(tw["report"], {})


def _check_slq(run):
    H = run.hopf(run.slq)
    reps = [verify_hopf_axioms(H), build_slq_resolution(H).is_complex()]
    return _verdict(_first_failing(reps), {})


def _probe_verdict(pr, failure, extras):
    """(status, witnesses, details) of a probe report; one that found no
    cycle (e.g. N - slack < 0: no kernel domain) is uncertified."""
    if not any(p["cycles_found"] for p in pr["positions"]):
        return "uncertified", [f"no cycle checked: no position found a cycle of degree "
                               f"<= N - slack = {pr['N'] - pr['slack']}"], extras
    if not pr["ok"]:
        return "fail", [failure], extras
    return "pass", [], extras


def _check_cone(run):
    lc = laurent_cone(run.hopf(run.slql))
    rep = lc["cone"].is_complex()
    if not lc["report"]["ok"] or not rep["ok"]:
        return "fail", _fails_to_witnesses(lc["report"]["squares"]["failures"]
                                           + rep["failures"]), {}
    pr = probe_exactness(lc["cone"], N=min(run.N, 5), slack=run.slack, window=run.window)
    return _probe_verdict(pr, "cone probe lift failure", {"probe": pr["positions"]})


def _check_probe(run):
    pr = probe_exactness(run.resolution, N=run.N, slack=run.slack, window=run.window)
    return _probe_verdict(pr, "lift failure; see positions",
                          {"positions": pr["positions"], "lift_window": pr["lift_window"]})


def _check_cohomology(run):
    if isinstance(run.genericity, dict) and not run.genericity["generic"]:
        return "uncertified", ["skipped: genericity failed"], {}
    coh = bialgebra_cohomology(run.hopf(run.alg), run.resolution)
    gs = gs_dimension_report(coh)
    extras = {"H_b": coh["dims"], "ranks": coh["ranks"],
              "gs": {"upper": gs["upper"], "lower": gs["lower"], "verdict": gs["verdict"]}}
    want = [1, 1, 0, 1, 1]
    if coh["dims"] != want:
        return "fail", [f"H_b dims {coh['dims']} != {want}"], extras
    return "pass", [], extras


# Every check, in the order a run executes them: name -> (the PRESENTATIONS
# it reads, function of the run giving (status, witnesses, details)).
CHECKS = {
    "invariants": ((), _check_invariants),
    "hopf": (("C(0,0)",), _check_hopf),
    "nakayama": (("C(0,0)",), _check_nakayama),
    "cogroupoid": (("C(x,y)",), _check_cogroupoid),
    "galois": (("C(0,1)", "C(1,0)"), _check_galois),
    "resolution": (("C(0,0)",), lambda run: _verdict(run.resolution.is_complex(), {})),
    "gamma": (("C(0,0)",), _check_gamma),
    "dual": (("C(0,0)",), lambda run: _verdict(run.dual.is_complex(), {})),
    "twist": (("C(0,0)",), _check_twist),
    "slq": (("slq",), _check_slq),
    "cone": (("slql",), _check_cone),
    "glq_iso": (("C(0,0)", "slql"),
                lambda run: _verdict(glq_slq_laurent_iso(run.alg, run.slql)["report"], {})),
    "probe": (("C(0,0)",), _check_probe),
    "cohomology": (("C(0,0)",), _check_cohomology),
}


def _run_checks(cfg, mats, cache):
    run = _Run(cfg, mats, cache)
    results = []
    timings = {}
    for name, (_, check) in CHECKS.items():
        if name not in cfg["checks"]:
            continue
        t0 = time.monotonic()
        try:
            status, witnesses, extras = check(run)
        except ExceedsCertifiedDegree as e:
            status, witnesses, extras = "uncertified", [str(e)], {}
        except UnexpectedHomDimension as e:
            status, witnesses, extras = "fail", [str(e)], {}
        except (UnitCollapse, CacheCorrupt, VersionMismatch, ProbeInvalid, IdentityFailed) as e:
            status, witnesses, extras = "fail", [f"{type(e).__name__}: {e}"], {}
        timings[name] = round(time.monotonic() - t0, 3)
        entry = {"name": name, "status": status, "witnesses": witnesses,
                 "certified_degree": run.bound}
        if extras:
            entry["details"] = extras
        results.append(entry)
    return results, timings


def exit_code_of(statuses):
    """0 iff all pass; any failure dominates; else uncertified."""
    if "fail" in statuses:
        return 1
    if "uncertified" in statuses:
        return 2
    return 0


def _cache_of(cfg):
    """The GBCache in HOPFCHECK_CACHE or else the config's cache_dir, its
    directory created if missing; None if neither is set.  A path that
    cannot be a directory is ConfigInvalid."""
    directory = os.environ.get("HOPFCHECK_CACHE") or cfg.get("cache_dir")
    if not directory:
        return None
    try:
        return GBCache(directory)
    except OSError as e:
        raise ConfigInvalid(f"cache directory {directory}: {type(e).__name__}: {e}") from e


def run_config(cfg_or_path):
    """Execute a config; returns (report, exit_code)."""
    cfg = _load_config(cfg_or_path) if isinstance(cfg_or_path, str) else cfg_or_path
    mats = _checked_instance(cfg)
    checks, timings = _run_checks(cfg, mats, _cache_of(cfg))
    statuses = [c["status"] for c in checks]
    code = exit_code_of(statuses)
    report = {
        "config": cfg,
        "checks": checks,
        "summary": {
            "pass": statuses.count("pass"),
            "fail": statuses.count("fail"),
            "uncertified": statuses.count("uncertified"),
            "exit_code": code,
        },
        "timings": timings,
    }
    return report, code


def report_json(report):
    """Deterministic JSON, timings quarantined at the end."""
    body = {k: v for k, v in report.items() if k != "timings"}
    blob = {"report": body, "timings": report.get("timings", {})}
    return json.dumps(blob, sort_keys=True, indent=1) + "\n"


def report_markdown(report):
    lines = ["# verification report", "", "| check | status | notes |", "|---|---|---|"]
    lines += [f"| {c['name']} | {c['status']} | {'; '.join(c['witnesses'])} |"
              for c in report["checks"]]
    for c in report["checks"]:
        d = c.get("details", {})
        if "H_b" in d:
            dims = [str(x) for x in d["H_b"]]
            lines += ["", "## bialgebra cohomology", "| n | 0 | 1 | 2 | 3 | 4 |",
                      "|---|---|---|---|---|---|", f"| H_b | {' | '.join(dims)} |", "",
                      f"H_b: {','.join(dims)}"]
            gs = d.get("gs")
            if gs:
                lines.append(f"cd_GS: upper={gs['upper']} lower={gs['lower']} -> {gs['verdict']}")
        if "mu" in d:
            lines += ["", "## Nakayama automorphism", "| generator | mu |", "|---|---|"]
            lines += [f"| {g} | {img} |" for g, img in d["mu"].items()]
    lines.append("")
    return "\n".join(lines)


def emit_report(report, fmt="json", path=None):
    text = report_json(report) if fmt == "json" else report_markdown(report)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _main_run(args):
    report, code = run_config(args.config)
    target = args.report or report["config"].get("report_path")
    for fmt, path in (("json", target), ("markdown", args.md)):
        if path:
            try:
                emit_report(report, fmt, path)
            except OSError as e:
                sys.stderr.write(f"cannot write report: {path}: {type(e).__name__}: {e}\n")
                return 3
    sys.stdout.write(report_markdown(report))
    return code


def _main_gb(args):
    cfg = _load_config(args.config)
    mats = _checked_instance(cfg)
    cache = _cache_of(cfg)
    if cache is None:
        raise ConfigInvalid("gb prebuild needs cache_dir or HOPFCHECK_CACHE")
    cache = Refill(cache.directory)
    try:
        algs = _Run(cfg, mats, cache).presentations(cfg["checks"])
    except ExceedsCertifiedDegree as e:
        sys.stdout.write(f"uncertified: {e}\n")
        return 2
    except CacheCorrupt as e:  # only a store raises it through Refill
        raise ConfigInvalid(f"cache entry {e}") from e
    for err in cache.replaced:
        sys.stdout.write(f"replaced corrupt cache entry ({err})\n")
    for label, alg in algs.items():
        rs = alg.rs
        sys.stdout.write(f"cached {label}: {len(rs.completed_rules)} rules "
                         f"to weight {rs.completed_weight}\n")
    return 0


def _details_problem(d):
    """What is wrong with a check's details for report_markdown, or None."""
    if not isinstance(d, dict):
        return "details is not an object"
    if not isinstance(d.get("H_b", []), list):
        return "details.H_b is not a list"
    gs = d.get("gs")
    if gs and not (isinstance(gs, dict) and all(k in gs for k in ("upper", "lower", "verdict"))):
        return "details.gs is not an object with upper, lower and verdict"
    if not isinstance(d.get("mu", {}), dict):
        return "details.mu is not an object"
    return None


def _stored_report(blob):
    """The "report" object of a stored report, checked for the shape both
    renderings read: a checks list of objects with name, status, a list of
    string witnesses and, optionally, details (see _details_problem)."""
    report = blob["report"]
    checks = report.get("checks") if isinstance(report, dict) else None
    if not isinstance(checks, list) or not all(
            isinstance(c, dict) and "name" in c and "status" in c
            and isinstance(c.get("witnesses"), list)
            and all(isinstance(w, str) for w in c["witnesses"]) for c in checks):
        raise ValueError("a report needs a checks list of objects with name, status "
                         "and a list of string witnesses")
    for c in checks:
        problem = _details_problem(c.get("details", {}))
        if problem:
            raise ValueError(f"check {c['name']!r}: {problem}")
    return dict(report)


def main(argv=None):
    ap = argparse.ArgumentParser(prog="verify",
                                 description="symbolic verification suites")
    sub = ap.add_subparsers(dest="cmd", required=True)
    runp = sub.add_parser("run", help="run the checks of a config")
    runp.add_argument("config")
    runp.add_argument("--report", help="write the JSON report here")
    runp.add_argument("--md", help="write a markdown report here")
    gbp = sub.add_parser("gb", help="prebuild the Groebner cache of a config")
    gbp.add_argument("config")
    repp = sub.add_parser("report", help="render a stored JSON report")
    repp.add_argument("report_file")
    repp.add_argument("--md", action="store_true")
    args = ap.parse_args(argv)

    try:
        if args.cmd == "run":
            return _main_run(args)
        if args.cmd == "gb":
            return _main_gb(args)
    except ConfigInvalid as e:
        sys.stderr.write(f"invalid config: {e}\n")
        return 3
    if args.cmd == "report":
        try:
            with open(args.report_file) as fh:
                blob = json.load(fh)
            report = _stored_report(blob)
        except (OSError, ValueError, KeyError, TypeError) as e:
            sys.stderr.write(f"invalid report: {args.report_file}: {type(e).__name__}: {e}\n")
            return 3
        report["timings"] = blob.get("timings", {})
        sys.stdout.write(report_markdown(report) if args.md
                         else report_json(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
