"""Tooling: the traced benchmark's targets exist, committed benchmark results
name its metrics, a python -O run is unchanged, pinned report bodies are
byte-identical, the package has no unused imports or dead locals, and
only the rewrite module reads a rewrite system's reducer and completion
state."""

import ast
import glob
import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys

from hopfcheck.cli import report_json, run_config

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def test_traced_benchmark_targets_resolve():
    spans = _load_perfbench("spans")
    assert spans.TARGETS
    for modname, name, _ in spans.TARGETS:
        owner = importlib.import_module(modname)
        if "." in name:
            cls, attr = name.split(".")
            # Tracer.install reads methods from the class dict
            assert attr in vars(getattr(owner, cls)), (modname, name)
        else:
            assert callable(getattr(owner, name, None)), (modname, name)


def _metrics_objects(blob):
    """Every value stored under a "metrics" key, at any depth."""
    if isinstance(blob, dict):
        for key, value in blob.items():
            if key == "metrics":
                yield value
            else:
                yield from _metrics_objects(value)
    elif isinstance(blob, list):
        for value in blob:
            yield from _metrics_objects(value)


def test_bench_results_name_benchmark_metrics():
    """Each BENCH_<label>.json at the root parses, holds result lines of
    perfbench/run.py, and names only metrics that BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    assert paths
    for path in paths:
        with open(path) as fh:
            found = list(_metrics_objects(json.load(fh)))
        assert found, path
        for metrics in found:
            assert isinstance(metrics, dict) and metrics, path
            assert set(metrics) <= known, (path, sorted(set(metrics) - known))


# probe and cone positions of configs/glq2.json at degree 6, probe N=3, as
# computed before the probe's lifts were searched modulo a prime
GLQ2_D6_PROBE = [(4, 4), (7, 7), (1, 1), (0, 0), (0, 0)]
GLQ2_D6_CONE = [(6, 6), (11, 11), (5, 5), (1, 1), (0, 0)]


def test_run_under_python_O_matches(tmp_path):
    """With asserts stripped (python -O), verify run gives the same report body."""
    with open(os.path.join(ROOT, "configs", "glq2.json")) as fh:
        cfg = json.load(fh)
    cfg["degree_bound"] = 6
    cfg["probe"]["N"] = 3
    cfg_path = tmp_path / "glq2-d6.json"
    cfg_path.write_text(json.dumps(cfg))
    env = {k: v for k, v in os.environ.items() if k != "HOPFCHECK_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    script = ("import sys\n"
              "from hopfcheck.cli import main\n"
              "assert False, 'asserts are on'\n"  # stripped by -O, as the program's are
              "sys.exit(main(sys.argv[1:]))\n")
    out = tmp_path / "report.json"
    proc = subprocess.run([sys.executable, "-O", "-c", script, "run", str(cfg_path),
                           "--report", str(out)],
                          env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr

    report, code = run_config(cfg)
    assert code == 0
    assert json.loads(out.read_text())["report"] == json.loads(report_json(report))["report"]
    details = {c["name"]: c.get("details") for c in report["checks"]}
    for got, pin in [(details["probe"]["positions"], GLQ2_D6_PROBE),
                     (details["cone"]["probe"], GLQ2_D6_CONE)]:
        assert got == [{"position": p, "cycles_found": found, "cycles_lifted": lifted,
                        "ok": found == lifted, "unlifted": found - lifted}
                       for p, (found, lifted) in enumerate(pin)]


def _load_perfbench(name):
    path = os.path.join(ROOT, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_bodies_match_pins():
    """The report body (perfbench/gate.report_body) of each perfbench/pins.json
    config hashes to its pin; test_criterion_8_determinism pins the shipped
    configs'."""
    gate = _load_perfbench("gate")
    with open(os.path.join(ROOT, "perfbench", "pins.json")) as fh:
        pins = [(p["config"], p["sha256"]) for p in json.load(fh)]
    for cfg, pin in pins:
        report, code = run_config(cfg)
        assert code == 0
        digest = hashlib.sha256(gate.report_body(report_json(report)).encode()).hexdigest()
        assert digest == pin, cfg


# sha256 of the report body of configs/n3seed.json run with the probe alone
# at N = 4, as computed when the probe eliminated every lift column
N3_PROBE_N4_SHA256 = "6ef11cfad590781a688b24b4904cb1cb60f0321dc49b370f41c842c81c88af90"


def test_n3_probe_at_n4_lifts_every_cycle():
    """The exactness probe of the n = 3 seed at N = 4 through verify run:
    every cycle lifts at every position, and the report body is pinned."""
    gate = _load_perfbench("gate")
    with open(os.path.join(ROOT, "configs", "n3seed.json")) as fh:
        cfg = json.load(fh)
    cfg["checks"] = ["probe"]
    cfg["probe"] = {"N": 4}
    report, code = run_config(cfg)
    assert code == 0
    positions = report["checks"][0]["details"]["positions"]
    assert [p["cycles_found"] for p in positions] == [75, 161, 19, 1, 0]
    assert all(p["cycles_lifted"] == p["cycles_found"] for p in positions)
    digest = hashlib.sha256(gate.report_body(report_json(report)).encode()).hexdigest()
    assert digest == N3_PROBE_N4_SHA256


def _unused_imports(tree):
    """Module-level imports whose name is never loaded in the module."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                bound[name] = node.lineno
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
              and isinstance(n.ctx, ast.Load)}
    return [(line, name) for name, line in bound.items() if name not in loaded]


def _own_scope(fn):
    """The nodes of a function body, not descending into nested scopes."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                      ast.ClassDef)):
                stack.append(child)


def _dead_locals(tree):
    """Names a function assigns with a plain assignment and never reads,
    neither in its own body nor in a nested function."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        declared = set()
        assigned = {}
        for node in _own_scope(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for n in ast.walk(target):
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                            assigned.setdefault(n.id, node.lineno)
        loaded = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                  and isinstance(n.ctx, ast.Load)}
        out.extend((line, f"{fn.name}: {name}") for name, line in assigned.items()
                   if name not in loaded and name not in declared and name != "_")
    return out


def _names_read(trees):
    """Every name the given module trees load, or read as an attribute."""
    read = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return read


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def test_no_unused_imports_or_locals():
    """A stdlib-ast lint of src/hopfcheck: unused imports and dead locals (the
    package __init__ re-exports, so it is not linted for imports), _private
    module-level functions and classes nothing in the package reads, public
    ones that neither the package nor tests/ reads, and non-dunder methods of
    the package's classes that neither reads."""
    found = []
    trees = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "hopfcheck", "*.py"))):
        tree = _parse(path)
        mod = os.path.basename(path)
        trees[mod] = tree
        if mod == "__init__.py":
            continue
        found += [f"{mod}:{line}: unused import {name}" for line, name in _unused_imports(tree)]
        found += [f"{mod}:{line}: dead local {what}" for line, what in _dead_locals(tree)]
    read = _names_read(trees.values())
    read_or_tested = read | _names_read(
        _parse(path) for path in glob.glob(os.path.join(ROOT, "tests", "*.py")))
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    or node.name.startswith("__"):
                continue
            private = node.name.startswith("_")
            if node.name not in (read if private else read_or_tested):
                found.append(f"{mod}:{node.lineno}: unread {'private' if private else 'public'} "
                             f"{node.name}")
            if isinstance(node, ast.ClassDef):
                found += [f"{mod}:{m.lineno}: unread method {node.name}.{m.name}"
                          for m in node.body
                          if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                          and not m.name.startswith("__") and m.name not in read_or_tested]
    assert not found, "\n".join(found)


def _raises_assertion_error(node):
    """Whether node is `raise AssertionError` or `raise AssertionError(...)`."""
    exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
    exc = exc.func if isinstance(exc, ast.Call) else exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_package_has_no_assert():
    """No verdict depends on an assert: python -O strips them.  Nor does the
    package raise AssertionError itself, which -O keeps: a failure it
    detects raises a typed error."""
    found = [f"{os.path.basename(path)}:{node.lineno}"
             for path in sorted(glob.glob(os.path.join(ROOT, "src", "hopfcheck", "*.py")))
             for node in ast.walk(_parse(path))
             if isinstance(node, ast.Assert) or _raises_assertion_error(node)]
    assert not found


def test_one_overlap_pass():
    """_overlaps and _spoly are named in one place in the package, the overlap
    pass that completion and the confluence recheck share."""
    names = {"_overlaps", "_spoly"}

    def named(nodes):
        return sorted(n.id if isinstance(n, ast.Name) else n.attr for n in nodes
                      if getattr(n, "id", getattr(n, "attr", None)) in names)

    everywhere, in_functions = [], []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "hopfcheck", "*.py"))):
        tree = _parse(path)
        mod = os.path.basename(path)
        everywhere += [(mod, name) for name in named(ast.walk(tree))]
        in_functions += [(mod, fn.name, name) for fn in ast.walk(tree)
                         if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                         for name in named(_own_scope(fn))]
    assert everywhere == [("rewrite.py", "_overlaps"), ("rewrite.py", "_spoly")]
    assert in_functions == [("rewrite.py", "_resolve_overlaps", "_overlaps"),
                            ("rewrite.py", "_resolve_overlaps", "_spoly")]


def test_rewrite_imports_no_fractions():
    """The reducer and completion work in foundation's integer form only."""
    tree = _parse(os.path.join(ROOT, "src", "hopfcheck", "rewrite.py"))
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(m and m.split(".")[0] == "fractions" for m in modules)


def test_rules_are_read_through_queries():
    """Only rewrite.py reads a system's reducer, its completion state
    (_done, _relations) or _complete_to, searches for a redex, or touches
    the seeding of a base (_base, _check_base): a system of homogeneous
    relations completes on demand, and every other module reads its rules
    through a query that completes it first, how far it is completed
    through completed_weight and completed_rules, and completes over a base
    through complete_with_cache, which checks the base."""
    names = {"_reducer", "find_redex", "_done", "_relations", "_complete_to", "_base",
             "_check_base"}
    found = [f"{os.path.basename(path)}:{node.lineno}: {name}"
             for path in sorted(glob.glob(os.path.join(ROOT, "src", "hopfcheck", "*.py")))
             if os.path.basename(path) != "rewrite.py"
             for node in ast.walk(_parse(path))
             for name in [getattr(node, "attr", getattr(node, "id", None))]
             if name in names]
    assert not found
