"""Canonical deterministic printer for algebra elements.

Terms are ordered by odd content, then by descending even exponents, so
pure even words print before their odd corrections.  Output reparses in
the expression grammar of :mod:`glpq.dsl`.

Each presentation keeps a table (``Presentation.print_table``, shared
with its capped views) from a canonical monomial to its sort key and
string, bounded like every printer table (:func:`glpq.poly.remember`).
"""

from __future__ import annotations

from operator import itemgetter

from .poly import mono_str, remember

_first = itemgetter(0)


def _term_sort_key(pres, mono):
    odd = mono[pres.n_even:]
    even = mono[:pres.n_even]
    return (sum(odd), tuple(-e for e in even), odd)


def scalar_term(coeff, word, first):
    s = str(coeff)
    if s.startswith("-"):
        sign = "-"
        body = s[1:] if " " not in s else None
        if body is None:
            # re-render the negated scalar so the sign can be folded out
            body = str(-coeff)
    else:
        sign = "+"
        body = s
    if " " in body:
        body = f"({body})"
    if word:
        term = word if body == "1" else f"{body}*{word}"
    else:
        term = body
    if first:
        return term if sign == "+" else f"-{term}"
    return f"{sign} {term}"


def print_element(e):
    """Deterministic canonical rendering of an Element."""
    if not e.terms:
        return "0"
    pres = e.pres
    table = pres.print_table
    rows = []
    for m, c in e.terms.items():
        row = table.get(m)
        if row is None:
            row = remember(table, m, (_term_sort_key(pres, m),
                                      mono_str(zip(pres.gen_names, m))))
        rows.append((row[0], row[1], c))
    rows.sort(key=_first)
    return " ".join([scalar_term(c, s, i == 0)
                     for i, (_, s, c) in enumerate(rows)])
