"""Correctness gate: every check entry of every verification is judged here.

An entry fails the gate when its status is not ``pass``, when the run's
exit code is not 0, when a cohomology entry does not give H_b = (1,1,0,1,1)
and cd_GS = 4, when a probe position leaves a cycle unlifted, or when the
entry differs from the same config's first verification in this run.  A
report body whose sha256 differs from its pin fails every entry, and so
does a verification that raised.
"""

import hashlib
import json

EXPECTED_HB = [1, 1, 0, 1, 1]
EXPECTED_GS = "cd_GS = 4"


def report_body(report_text):
    """The report_json output without its timings section."""
    return json.dumps(json.loads(report_text)["report"], sort_keys=True, indent=1)


def _key(cfg):
    return json.dumps(cfg, sort_keys=True)


class Gate:
    """``pins`` is a list of ``{"config": ..., "sha256": ...}`` (see pins.json)."""

    def __init__(self, pins=(), expected_hb=EXPECTED_HB, expected_gs=EXPECTED_GS):
        self.pins = {_key(p["config"]): p["sha256"] for p in pins}
        self.expected_hb = expected_hb
        self.expected_gs = expected_gs
        self.reference = {}  # config key -> entries of its first verification
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0

    def _entry_problem(self, entry, ref):
        if entry["status"] != "pass":
            return f"status {entry['status']}: {entry['witnesses'][:2]}"
        details = entry.get("details", {})
        if entry["name"] == "cohomology":
            if details.get("H_b") != self.expected_hb:
                return f"H_b {details.get('H_b')} != {self.expected_hb}"
            if details.get("gs", {}).get("verdict") != self.expected_gs:
                return f"gs verdict {details.get('gs')}"
        positions = details.get("positions", []) + details.get("probe", [])
        for p in positions:
            if p["cycles_found"] != p["cycles_lifted"]:
                return f"position {p['position']}: {p['cycles_lifted']} of " \
                       f"{p['cycles_found']} cycles lifted"
        if json.dumps(entry, sort_keys=True) != ref:
            return "entry differs from the first verification of this config"
        return None

    def judge(self, cfg, report_text, code):
        """Count one finished verification."""
        body = json.loads(report_text)["report"]
        entries = body["checks"]
        ckey = _key(cfg)
        refs = self.reference.setdefault(
            ckey, [json.dumps(e, sort_keys=True) for e in entries])
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if len(entries) != len(cfg["checks"]) or len(refs) != len(entries):
            problems.append("check entries missing")
        pin = self.pins.get(ckey)
        digest = hashlib.sha256(report_body(report_text).encode()).hexdigest()
        if pin is not None and digest != pin:
            problems.append(f"body sha256 {digest} != pin {pin}")
        if problems:
            self._count(cfg, len(cfg["checks"]), problems)
            return
        bad = []
        for entry, ref in zip(entries, refs):
            why = self._entry_problem(entry, ref)
            if why:
                bad.append(f"{entry['name']}: {why}")
        self._count(cfg, len(bad), bad)

    def raised(self, cfg, exc):
        """Count a verification that raised: all of its checks failed."""
        self._count(cfg, len(cfg["checks"]), [f"raised {exc!r}"])

    def _count(self, cfg, nfailed, problems):
        self.attempted += len(cfg["checks"])
        self.failed += nfailed
        self.problems.extend(problems)
