"""Tooling: the traced benchmark's targets exist, and a python -O run is unchanged."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

from hopfcheck.cli import report_json, run_config

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")
ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def test_traced_benchmark_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for modname, name, _ in spans.TARGETS:
        owner = importlib.import_module(modname)
        if "." in name:
            cls, attr = name.split(".")
            # Tracer.install reads methods from the class dict
            assert attr in vars(getattr(owner, cls)), (modname, name)
        else:
            assert callable(getattr(owner, name, None)), (modname, name)


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
