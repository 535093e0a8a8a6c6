"""The one check runner and the report structures the suites share."""

from __future__ import annotations

import time

from .printing import print_element


class Identity:
    """One claimed equality; lhs and rhs support '-' and is_zero()."""

    __slots__ = ("id", "anchor", "lhs", "rhs")

    def __init__(self, id, anchor, lhs, rhs):
        self.id = id
        self.anchor = anchor
        self.lhs = lhs
        self.rhs = rhs


def tagged(idbase, rows):
    """An Identity ``idbase.tag`` for each row (tag, anchor, lhs, rhs)."""
    for tag, anchor, lhs, rhs in rows:
        yield Identity(f"{idbase}.{tag}", anchor, lhs, rhs)


def matrix_identities(idbase, anchor, lhs, rhs):
    """The four blocks of two supermatrices, tagged 11, 12, 21, 22."""
    return tagged(idbase, ((tag, anchor, le, re) for tag, le, re in zip(
        ("11", "12", "21", "22"), lhs.entries(), rhs.entries())))


class Check:
    __slots__ = ("id", "anchor", "status", "witness")

    def __init__(self, id, anchor, status, witness=None):
        self.id = id
        self.anchor = anchor
        self.status = status        # "pass" | "fail"
        self.witness = witness


class Report:
    __slots__ = ("suite", "params", "checks", "elapsed_ms")

    def __init__(self, suite, params=None, checks=None, elapsed_ms=0):
        self.suite = suite
        self.params = {} if params is None else params
        self.checks = [] if checks is None else checks
        self.elapsed_ms = elapsed_ms

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
        import json     # only --json output needs it: a shorter CLI start
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
