"""The one check runner and the report structures the suites share."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .printing import print_element


@dataclass
class Identity:
    """One claimed equality; lhs and rhs support '-' and is_zero()."""

    id: str
    anchor: str
    lhs: object
    rhs: object


@dataclass
class Check:
    id: str
    anchor: str
    status: str                 # "pass" | "fail"
    witness: str | None = None


@dataclass
class Report:
    suite: str
    params: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    elapsed_ms: int = 0

    @property
    def ok(self):
        return all(c.status == "pass" for c in self.checks)

    @property
    def n_failed(self):
        return sum(1 for c in self.checks if c.status != "pass")

    def to_dict(self):
        return {
            "suite": self.suite,
            "params": self.params,
            "checks": [{"id": c.id, "anchor": c.anchor, "status": c.status,
                        "witness": c.witness} for c in self.checks],
            "elapsed_ms": self.elapsed_ms,
        }

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent)

    def summary_lines(self, verbose=False):
        lines = []
        for c in self.checks:
            if verbose or c.status != "pass":
                mark = "ok  " if c.status == "pass" else "FAIL"
                line = f"  {mark} {c.id}  [{c.anchor}]"
                if c.witness:
                    line += f"\n       witness: {c.witness}"
                lines.append(line)
        state = "pass" if self.ok else "FAIL"
        lines.append(f"suite {self.suite}: {state} "
                     f"({len(self.checks)} checks, {self.n_failed} failed, "
                     f"{self.elapsed_ms} ms)")
        return lines


def run_exact(suite, identities, params=None, min_prec=None):
    """Evaluate each identity by exact subtraction; collect a Report.

    With ``min_prec`` set, a difference whose tracked window ``prec`` is
    below it fails before the zero test: over truncated series a zero
    on too shallow a window proves nothing.
    """
    t0 = time.perf_counter()
    checks = []
    for ident in identities:
        diff = ident.lhs - ident.rhs
        if min_prec is not None and diff.prec < min_prec:
            checks.append(Check(ident.id, ident.anchor, "fail",
                                f"window {diff.prec} below required {min_prec}"))
        elif diff.is_zero():
            checks.append(Check(ident.id, ident.anchor, "pass"))
        else:
            checks.append(Check(ident.id, ident.anchor, "fail",
                                print_element(diff)))
    ms = int((time.perf_counter() - t0) * 1000)
    return Report(suite, params or {}, checks, ms)
