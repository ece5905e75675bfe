"""Spans recorded from outside the program, by wrapping its public functions.

``Tracer.install`` replaces each listed function in every ``hopfcheck``
module that bound the name (several are called through another module's
globals, e.g. ``cli.probe_exactness`` or ``hopf.complete_with_cache``) and
each listed method on its class.  ``uninstall`` restores the originals, so
untraced verifications in the same process run unpatched code.

A span is ``[name, start, end, parent, vid, extra]``: ``parent`` is the
index of the enclosing span or -1, ``vid`` the verification it belongs to,
and ``extra`` whatever the target's ``after`` hook took from its result.
"""

import functools
import json
import os
import sys
import time

# (module, function or Class.method, group).  The group's prefix is the layer;
# a span is named by the function or Class.method it times.
TARGETS = [
    ("hopfcheck.cli", "run_config", "cli.self"),
    ("hopfcheck.cli", "GBCache.load", "cli.cache_load"),
    ("hopfcheck.cli", "GBCache.store", "cli.cache_store"),
    ("hopfcheck.rewrite", "complete_truncated", "rewrite.complete"),
    ("hopfcheck.rewrite", "RewriteSystem.normal_form", "rewrite.nf"),
    ("hopfcheck.rewrite", "RewriteSystem.reduce", "rewrite.nf"),
    ("hopfcheck.hopf", "build_gabcd", "hopf.build"),
    ("hopfcheck.hopf", "build_slq", "hopf.build"),
    ("hopfcheck.hopf", "build_slq_laurent", "hopf.build"),
    ("hopfcheck.hopf", "verify_hopf_axioms", "hopf.check"),
    ("hopfcheck.hopf", "antipode_squared_sovereign", "hopf.check"),
    ("hopfcheck.hopf", "commutation_check", "hopf.check"),
    ("hopfcheck.hopf", "nakayama_G", "hopf.check"),
    ("hopfcheck.hopf", "nakayama_galois", "hopf.check"),
    ("hopfcheck.hopf", "glq_slq_laurent_iso", "hopf.check"),
    ("hopfcheck.hopf", "cogroupoid_suite", "hopf.check"),
    ("hopfcheck.ydmod", "build_comodule", "ydmod.s"),
    ("hopfcheck.ydmod", "hom_to_trivial", "ydmod.s"),
    ("hopfcheck.complexes", "build_yd_resolution", "complexes.build"),
    ("hopfcheck.complexes", "dualize_resolution", "complexes.build"),
    ("hopfcheck.complexes", "build_left_resolution", "complexes.build"),
    ("hopfcheck.complexes", "build_twist_chainmap", "complexes.build"),
    ("hopfcheck.complexes", "build_slq_resolution", "complexes.build"),
    ("hopfcheck.complexes", "laurent_cone", "complexes.build"),
    ("hopfcheck.complexes", "gamma_identity_suite", "complexes.build"),
    ("hopfcheck.complexes", "Complex.is_complex", "complexes.is_complex"),
    ("hopfcheck.complexes", "probe_exactness", "complexes.probe"),
    ("hopfcheck.linalg", "RowSpace.insert", "linalg.insert"),
    ("hopfcheck.linalg", "RowSpace.express", "linalg.express"),
    ("hopfcheck.linalg", "kernel_basis", "linalg.kernel"),
    ("hopfcheck.cohomology", "bialgebra_cohomology", "cohomology.s"),
    ("hopfcheck.cohomology", "gs_dimension_report", "cohomology.s"),
]
GROUP = {name: group for _, name, group in TARGETS}
LAYERS = ["rewrite", "cli", "hopf", "ydmod", "complexes", "linalg", "cohomology"]


def _time_metric(group):
    """Self-time metric of a group: ``ydmod.s`` stays, ``hopf.build`` -> ``hopf.build_s``."""
    return group if group.endswith(".s") else group + "_s"


TIMES = sorted({_time_metric(g) for g in GROUP.values()})


def _complete_after(args, result):
    relations, order, bound = args[:3]
    return (relations, order, bound, len(result.rules))


def _store_after(args, result):
    return os.path.getsize(result)


def _insert_after(args, result):
    # the row just stored, when the insert enlarged the space
    return args[0].rows[-1] if result is None else None


AFTER = {
    "complete_truncated": _complete_after,
    "GBCache.load": lambda a, r: r is not None,
    "GBCache.store": _store_after,
    "RowSpace.insert": _insert_after,
    "RowSpace.express": lambda a, r: r is None,
    "probe_exactness": lambda a, r: r["positions"],
}


class Tracer:
    """Records the spans of one verification while installed."""

    def __init__(self, vid):
        self.spans = []
        self.vid = vid
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, clock, vid = self.spans, self._stack, time.perf_counter, self.vid
        after = AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, vid, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                span[5] = after(args, result)
            return result
        return wrapper

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "hopfcheck" or n.startswith("hopfcheck.")]
        for modname, name, _ in TARGETS:
            owner = sys.modules[modname]
            if "." in name:
                cls, attr = name.split(".")
                owner = getattr(owner, cls)
                orig = owner.__dict__[attr]
                self._undo.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(name, orig))
                continue
            orig = getattr(owner, name)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo = []

    def drop_extras(self):
        """Release what the ``after`` hooks kept (rows, relations, positions)."""
        for span in self.spans:
            span[5] = None

    def write(self, fh):
        """Append the spans as JSON lines; ids and parents are per verification."""
        for i, (name, t0, t1, parent, vid, _) in enumerate(self.spans):
            fh.write(json.dumps({"vid": vid, "id": i, "parent": parent,
                                 "name": name, "start": t0, "end": t1}) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the time covered by its children."""
    selfs = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            selfs[s[3]] -= s[2] - s[1]
    return selfs


def _bits(x):
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def verification_metrics(spans, cache_key):
    """Per-layer metrics of the spans of one verification.

    ``cache_key`` is ``rewrite.system_cache_key``, applied to the arguments
    of every completion to count the distinct ones.
    """
    selfs = self_times(spans)
    m = dict.fromkeys(TIMES, 0.0)
    for s, st in zip(spans, selfs):
        m[_time_metric(GROUP[s[0]])] += st

    def named(name):
        return [s for s in spans if s[0] == name]

    # ``extra`` stays None when the call raised
    completions = named("complete_truncated")
    keys = [cache_key(*c[5][:3]) for c in completions if c[5]]
    m["rewrite.completions"] = len(completions)
    m["rewrite.completions_distinct"] = len(set(keys))
    m["rewrite.distinct_ratio"] = len(set(keys)) / len(keys) if keys else 0.0
    m["rewrite.rules"] = sum(c[5][3] for c in completions if c[5])
    m["rewrite.nf_calls"] = sum(1 for s in spans if GROUP[s[0]] == "rewrite.nf"
                                and (s[3] < 0 or GROUP[spans[s[3]][0]] != "rewrite.nf"))
    loads = named("GBCache.load")
    m["cli.cache_loads"] = len(loads)
    m["cli.cache_hits"] = sum(1 for s in loads if s[5])
    m["cli.cache_hit_ratio"] = m["cli.cache_hits"] / len(loads) if loads else 0.0
    stores = named("GBCache.store")
    m["cli.cache_stores"] = len(stores)
    m["cli.cache_bytes"] = sum(s[5] or 0 for s in stores)
    m["hopf.builds"] = sum(1 for s in spans if GROUP[s[0]] == "hopf.build")
    m["complexes.is_complex_calls"] = len(named("Complex.is_complex"))
    positions = [p for s in named("probe_exactness") for p in s[5] or []]
    m["complexes.probe_cycles"] = sum(p["cycles_found"] for p in positions)
    m["complexes.probe_lifted"] = sum(p["cycles_lifted"] for p in positions)
    inserts = named("RowSpace.insert")
    rows = [s[5] for s in inserts if s[5] is not None]
    m["linalg.inserts"] = len(inserts)
    m["linalg.rank"] = len(rows)
    m["linalg.useful_ratio"] = len(rows) / len(inserts) if inserts else 0.0
    m["linalg.row_nnz"] = sum(len(r) for r in rows)
    m["linalg.max_coeff_bits"] = max((_bits(x) for r in rows for x in r.values()),
                                     default=0)
    express = named("RowSpace.express")
    m["linalg.express_calls"] = len(express)
    m["linalg.express_none"] = sum(1 for s in express if s[5])
    return m
