"""Workload definitions, the normalize query generator and the gate.

Nothing here imports glpq: the generator hands the package only
expression strings, and the gate judges reports sent back by a worker
process as plain data.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_IDS = os.path.join(HERE, "expected_ids.json")

# (label, module, identity generator, verifier, verifier arguments)
EXACT_SUITES = (
    ("section2", "tside", "section2_identities", "verify_section2", (10, 6)),
    ("section3", "tside", "section3_identities", "verify_section3", (12,)),
    ("appendix", "tside", "appendix_identities", "verify_appendix", (10,)),
    ("mside", "mside", "mside_identities", "verify_mside", (10,)),
)
# rays (alpha, beta) of the series suite; SeriesConfig defaults N=6,
# K=12, weight=8 apply
SERIES_RAYS = ((1, 1), (1, 2))

NORMALIZE_QUERIES = 4000
CONTEXT_MIX = (("tside", 0.7), ("mside", 0.2), ("series", 0.1))
COMMUTATOR_SHARE = 0.3

WORKLOADS = ("exact", "series", "normalize")


def series_label(ray):
    return f"series[{ray[0]},{ray[1]}]"


def suite_labels(workload):
    if workload == "exact":
        return [s[0] for s in EXACT_SUITES]
    if workload == "series":
        return [series_label(r) for r in SERIES_RAYS]
    return []


# -- normalize query stream ---------------------------------------------------

# Short words over each context's generators.  The vocabulary is small on
# purpose: most products in the stream repeat a monomial pair already
# seen, so the stream reads the word caches far more than it fills them.
_VOCAB = {
    "tside": {
        "atoms": ("beta", "gamma") + tuple(
            f"{g}^{k}" if k != 1 else g
            for g in ("a", "d") for k in (1, 2, 3, -1, -2)),
        "scalars": ("2", "3", "3/2", "p", "q", "q^-1", "(p - q^-1)",
                    "(p*q - 1)"),
    },
    "mside": {
        "atoms": ("x", "y", "mu", "nu", "x^2", "y^2"),
        "scalars": ("2", "3", "p", "q", "phi", "E1", "E2", "(x - y)"),
    },
    "series": {
        "atoms": ("A", "D", "beta", "gamma", "A^2", "D^2"),
        "scalars": ("2", "3", "1/2", "q", "p", "t"),
    },
}


def _word(rng, vocab, max_len, nest=True):
    factors = []
    for _ in range(rng.randint(1, max_len)):
        if nest and rng.random() < 0.25:
            factors.append(f"({_sum(rng, vocab, 2, 2, nest=False)})")
        else:
            factors.append(rng.choice(vocab["atoms"]))
    if rng.random() < 0.5:
        factors.insert(0, rng.choice(vocab["scalars"]))
    return "*".join(factors)


def _sum(rng, vocab, max_terms, max_len, nest=True):
    out = _word(rng, vocab, max_len, nest)
    for _ in range(rng.randint(0, max_terms - 1)):
        out += rng.choice((" + ", " - ")) + _word(rng, vocab, max_len, nest)
    return out


def normalize_queries(seed, n=NORMALIZE_QUERIES):
    """The seeded query stream: a list of (context, expression) pairs.

    The context mix and the commutator share are exact counts, shuffled
    by the seed, so streams of different seeds differ only in their
    words and order.
    """
    rng = random.Random(seed)
    kinds = []
    left = n
    for i, (ctx, weight) in enumerate(CONTEXT_MIX):
        k = left if i == len(CONTEXT_MIX) - 1 else round(n * weight)
        left -= k
        n_comm = round(k * COMMUTATOR_SHARE)
        kinds += [(ctx, True)] * n_comm + [(ctx, False)] * (k - n_comm)
    rng.shuffle(kinds)
    out = []
    for ctx, comm in kinds:
        vocab = _VOCAB[ctx]
        if comm:
            expr = f"[{_sum(rng, vocab, 2, 2)}, {_word(rng, vocab, 2)}]"
        else:
            expr = _sum(rng, vocab, 3, 3)
        out.append((ctx, expr))
    return out


# -- correctness gate -----------------------------------------------------------


def load_expected_ids(path=EXPECTED_IDS):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def digest(rows):
    """sha256 over canonical JSON rows; timings must not be part of rows."""
    h = hashlib.sha256()
    for row in rows:
        h.update(json.dumps(row, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def gate_suites(workload, checks, expected):
    """Judge the checks one suite process reported.

    ``checks`` is a list of [suite, id, status, witness] rows, which may
    be truncated if the process died.  Returns (attempted, failed,
    problems): every expected check id counts as attempted, and fails
    when it is missing, duplicated or not passing; a reported check
    outside the expected list counts too and fails unless it passes.
    """
    seen = {}
    for suite, cid, status, _ in checks:
        key = (suite, cid)
        seen[key] = "duplicate" if key in seen else status
    problems = []
    attempted = 0
    for suite in suite_labels(workload):
        for cid in expected[suite]:
            attempted += 1
            status = seen.pop((suite, cid), "missing")
            if status != "pass":
                problems.append(f"{suite}:{cid} {status}")
    for (suite, cid), status in sorted(seen.items()):
        attempted += 1
        if status != "pass":
            problems.append(f"{suite}:{cid} {status}")
    return attempted, len(problems), problems


def suites_digest(checks):
    return digest(sorted(checks, key=lambda row: (row[0], row[1])))
