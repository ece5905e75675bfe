"""Closed-loop benchmark of hopfcheck's ``run_config``.

    python3 perfbench/run.py --workload glq2-d6 --seed 0 --seconds 50 --trace 0

One client, one verification at a time, no threads.  Run from the root of
a checkout; the package is imported from ``src/``.  The run

1. sets up: imports, workload generation from ``--seed``, config
   validation and, for ``n3-warm``, a ``verify gb`` child that fills the
   Groebner-basis cache.  The untraced run repeats this in child processes
   spread over the measured time, and ``setup_s`` is the median.  The
   traced run fills the cache in its own process instead, under a tracer:
   that fill is the only call of the cache's store path, and the
   ``cli.cache_store*`` metrics come from it;
2. verifies the workload's configs round-robin for about ``--seconds``;
3. judges every check entry with the correctness gate (``gate.py``);
4. prints a table of the metrics, then one JSON line with ``correct``,
   ``attempted``, ``failed`` and ``metrics``.

Times are host-scaled: each set-up and each verification is followed or
preceded, on the same CPU, by ``REF_CHUNKS`` runs of a fixed reference
block, and its wall time is multiplied by ``REF_S`` over the reference's
median time (``host_speed``).  Other tenants of the host slow this program
by up to 1.8 times for minutes at a time, and the reference about as much:
the ratio moves by up to about 15% (see README.md).  ``verify_s`` is the
median host-scaled time of the untraced verifications; their wall times
are printed beside it.

With ``--trace 0`` the metrics are the end-to-end ones and come from
unpatched code.  With ``--trace 1`` every second verification runs with
wrappers installed (``spans.py``) and the metrics are the per-layer ones:
the median over traced verifications of each span sum or counter, plus
``trace.overhead_s``, the traced minus the untraced median wall time.
The spans of the traced cache fill (verification id -1) and of the first
three traced verifications are written to
``.bench_traces/<workload>-<seed>.jsonl`` when the run ends.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before the other imports

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
REF_CHUNKS = 10
REF_S = 0.01  # host-scaled seconds are wall seconds at this reference time
# taken from the traced cache fill, the only place the store path runs
STORE_METRICS = ("cli.cache_stores", "cli.cache_store_s", "cli.cache_bytes")
# n3-warm makes ~16k spans per verification; the file keeps the first few
SPAN_FILE_VERIFICATIONS = 3

PREFILL = ("import sys\n"
           "from hopfcheck.cli import main\n"
           "sys.exit(main(['gb', sys.argv[1]]))\n")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print {\"setup_s\": ...} and exit")
    return ap.parse_args(argv)


def child_env(cache_dir=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("HOPFCHECK_CACHE", None)
    if cache_dir:
        env["HOPFCHECK_CACHE"] = cache_dir
    return env


def set_up(workload, seed, workdir, traced=False):
    """Configs of the run, validated; n3-warm's cache filled in ``workdir/cache``.

    Also returns the tracer that watched the cache fill of a traced run, or None.
    """
    import hopfcheck.cli as cli
    from spans import Tracer
    from workloads import WORKLOADS

    configs = [cli.validate_config(c) for c in WORKLOADS[workload](seed)]
    prefill = None
    if workload == "n3-warm":
        cache_dir = os.path.join(workdir, "cache")
        prefill = Tracer(-1) if traced else None
        for i, cfg in enumerate(configs):
            path = os.path.join(workdir, f"config-{i}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            if prefill is None:
                subprocess.run([sys.executable, "-c", PREFILL, path], check=True,
                               env=child_env(cache_dir), stdout=subprocess.DEVNULL)
                continue
            os.environ["HOPFCHECK_CACHE"] = cache_dir
            prefill.install()
            try:
                cli.main(["gb", path])
            finally:
                prefill.uninstall()
    return configs, prefill


def reference():
    """The reference block: Fraction and dict work, about 10 ms."""
    d, x = {}, Fraction(1, 3)
    for i in range(3000):
        x = x * Fraction(i + 1, i + 2) + 1
        d[i % 97] = x
    return d


def host_speed():
    """Median wall time of ``REF_CHUNKS`` reference blocks, without the
    cyclic collector, so that the heap the program left does not count."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        samples = []
        for _ in range(REF_CHUNKS):
            t0 = time.perf_counter()
            reference()
            samples.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(samples)


def setup_probe(args):
    """Host-scaled time of one more complete set-up, in a fresh process."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        check=True, capture_output=True, text=True, cwd=ROOT, env=child_env())
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def measure(cli, configs, args, gate, probes):
    """Verify round-robin until the next verification would end more than
    half a typical verification after ``--seconds``.

    ``probes`` more set-ups are timed in fresh processes at even intervals
    of the run (their time is not counted in it), so that ``setup_s`` does
    not rest on the host's state in a single second.

    The process is held on one CPU for a verification and the reference
    blocks before it, so that both see the same CPU; each pair of
    verifications moves to the next CPU it may use, since the host slows
    one CPU at a time."""
    from hopfcheck.rewrite import system_cache_key
    from spans import Tracer, verification_metrics

    times = {False: [], True: []}
    scaled = []  # host-scaled times of the untraced verifications
    layers = []
    tracers = []
    setups = []
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    paused = 0.0
    i = 0
    while True:
        os.sched_setaffinity(0, {cpus[i // 2 % len(cpus)]})
        ref = host_speed()
        cfg = configs[i % len(configs)]
        traced = bool(args.trace) and i % 2 == 1
        tracer = Tracer(i) if traced else None
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            report, code = cli.run_config(cfg)
        except Exception as exc:  # counted as failed checks, run goes on
            report = None
            traceback.print_exc()
            gate.raised(cfg, exc)
        finally:
            dt = time.perf_counter() - t0
            if tracer:
                tracer.uninstall()
        times[traced].append(dt)
        if report is not None:
            gate.judge(cfg, cli.report_json(report), code)
            if not traced:
                scaled.append(dt * REF_S / ref)
            if tracer:
                m = verification_metrics(tracer.spans, system_cache_key)
                for name, t in report["timings"].items():
                    m[f"cli.check.{name}_s"] = t
                layers.append(m)
        if tracer and len(tracers) < SPAN_FILE_VERIFICATIONS:
            tracer.drop_extras()
            tracers.append(tracer)
        i += 1
        elapsed = time.perf_counter() - start - paused
        if len(setups) < probes and elapsed > (len(setups) + 1) * args.seconds / (probes + 1):
            t0 = time.perf_counter()
            setups.append(setup_probe(args))
            paused += time.perf_counter() - t0
        typical = statistics.median(times[False] + times[True])
        if elapsed + typical / 2 > args.seconds and (i >= 2 or not args.trace):
            break
    setups += [setup_probe(args) for _ in range(probes - len(setups))]
    os.sched_setaffinity(0, cpus)
    return times, scaled, layers, tracers, setups


def write_spans(args, tracers):
    os.makedirs(os.path.join(ROOT, ".bench_traces"), exist_ok=True)
    path = os.path.join(ROOT, ".bench_traces", f"{args.workload}-{args.seed}.jsonl")
    with open(path, "w") as fh:
        for tracer in tracers:
            tracer.write(fh)


def per_layer(times, layers, names):
    """Median over traced verifications of each per-layer metric."""
    values = {name: statistics.median([m.get(name, 0) for m in layers] or [0])
              for name in names}
    values["trace.overhead_s"] = (
        statistics.median(times[True]) - statistics.median(times[False])
        if times[True] and times[False] else 0.0)
    return values


def layer_shares(values):
    """Share of the traced run_config self time spent in each layer."""
    from spans import LAYERS, TIMES

    per = {layer: sum(values[t] for t in TIMES if t.startswith(layer + "."))
           for layer in LAYERS}
    total = sum(per.values()) or 1.0
    return {layer: t / total for layer, t in per.items()}


def print_table(workload, metrics, shares):
    print(f"# {workload}")
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}")
    if shares:
        print(f"# {workload}: layer self-time share of traced run_config")
        for layer, share in shares.items():
            print(f"{layer:12s} {100 * share:6.1f}%")


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    # the program under test is the checkout's source, never an installed copy
    if not os.path.isfile(os.path.join(SRC, "hopfcheck", "cli.py")):
        sys.stderr.write(f"no hopfcheck source under {SRC}\n")
        return 2
    import hopfcheck.cli as cli
    from gate import Gate
    from hopfcheck.rewrite import system_cache_key
    from spans import verification_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload}; "
                         f"choose from {sorted(WORKLOADS)}\n")
        return 2
    os.environ.pop("HOPFCHECK_CACHE", None)
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        configs, prefill = set_up(args.workload, args.seed, workdir, bool(args.trace))
        setup = [(time.perf_counter() - T0) * REF_S / host_speed()]
        if args.setup_only:
            print(json.dumps({"setup_s": setup[0]}))
            return 0
        filled = {}
        if prefill:
            filled = verification_metrics(prefill.spans, system_cache_key)
            prefill.drop_extras()
        if args.workload == "n3-warm":
            os.environ["HOPFCHECK_CACHE"] = os.path.join(workdir, "cache")
        with open(os.path.join(HERE, "pins.json")) as fh:
            gate = Gate(json.load(fh))
        times, scaled, layers, tracers, probed = measure(
            cli, configs, args, gate, 0 if args.trace else SETUP_REPEATS - 1)
        setup += probed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    shares = {}
    if args.trace:
        spec_metrics = spec["per_layer"]
        values = per_layer(times, layers, [m["name"] for m in spec_metrics])
        shares = layer_shares(values)
        values.update((name, filled[name]) for name in STORE_METRICS if name in filled)
        write_spans(args, ([prefill] if prefill else []) + tracers)
    else:
        spec_metrics = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(setup),
            "verify_s": statistics.median(scaled) if scaled else min(times[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_frac": 1 - gate.fail_frac(),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec_metrics}
    print_table(args.workload, metrics, shares)
    for traced, label in ((False, "untraced"), (True, "traced")):
        if times[traced]:
            print(f"{label} verifications: {len(times[traced])}, "
                  f"median {statistics.median(times[traced]):.3f} s, wall s: "
                  + " ".join(f"{t:.3f}" for t in times[traced]))
    print(f"setup samples: {len(setup)}, s: " + " ".join(f"{s:.3f}" for s in setup))
    for problem in gate.problems[:20]:
        print(f"gate: {problem}")
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
