"""Trace probes: which glpq functions are spans, and the work counters.

Imported only inside a traced worker process, after glpq itself.
"""

from __future__ import annotations

from bisect import bisect_right

from glpq import coeff, dsl, nc, poly, printing, series, supermatrix

from tracer import rebind

# span name -> (owner, attribute); owner is a class or a module
SPANS = {
    "poly.gcd": (poly, "poly_gcd"),
    "poly.mul": (poly.Pol, "__mul__"),
    "poly.divexact": (poly.Pol, "divexact"),
    "coeff.ratfunc.new": (coeff.RatFunc, "__init__"),
    "coeff.laurent.mul": (coeff.TruncLaurent, "__mul__"),
    "coeff.laurent.add": (coeff.TruncLaurent, "__add__"),
    "nc.element_mul": (nc.Element, "__mul__"),
    "nc.invert_even_unit": (nc, "invert_even_unit"),
    "supermatrix.mul": (supermatrix.SuperMatrix, "__mul__"),
    "supermatrix.sinverse": (supermatrix, "sinverse"),
    "series.truncelement_mul": (series.TruncElement, "__mul__"),
    "series.trim": (series, "_trim"),
    "dsl.parse": (dsl, "parse"),
    "dsl.eval": (dsl, "evaluate"),
    "printing.print_element": (printing, "print_element"),
}


def install(tracer):
    """Wrap every span of :data:`SPANS` plus the word-product split."""
    count = tracer.count

    def gcd_result(fn):
        def probe(f, g):
            h = fn(f, g)
            if not h.is_one():
                count("poly.gcd.non_unit")
            return h
        return probe

    def element_pairs(args):
        count("nc.element_mul.pairs", len(args[0].terms) * len(args[1].terms))

    def window_pairs(args):
        # a term pair whose combined minimum weight exceeds the cap only
        # yields terms that the trim discards
        a, b = args
        cap = a.ctx.W
        wa = [sum(m) + c.valuation() for m, c in a.element.terms.items()]
        wb = sorted(sum(m) + c.valuation() for m, c in b.element.terms.items())
        inside = sum(bisect_right(wb, cap - w) for w in wa)
        count("series.mul.pairs", len(wa) * len(wb))
        count("series.mul.pairs_in_window", inside)

    def trim_terms(fn):
        def probe(element, prec):
            out = fn(element, prec)
            count("series.trim.terms_in", len(element.terms))
            count("series.trim.terms_kept", len(out[0].terms))
            return out
        return probe

    hooks = {"nc.element_mul": element_pairs,
             "series.truncelement_mul": window_pairs}
    inner = {"poly.gcd": gcd_result, "series.trim": trim_terms}
    for name, (owner, attr) in SPANS.items():
        orig = getattr(owner, attr)
        fn = inner[name](orig) if name in inner else orig
        rebind("glpq", orig, tracer.wrap(name, fn, hooks.get(name)))

    # first-seen versus repeated (m1, m2) keys, split into two spans so
    # that their per-call costs stay apart
    orig = nc.Presentation.word_product
    miss = tracer.wrap("nc.word_product.miss", orig)
    hit = tracer.wrap("nc.word_product.hit", orig)
    seen = set()

    def word_product(pres, m1, m2):
        key = (id(pres), m1, m2)
        if key in seen:
            return hit(pres, m1, m2)
        seen.add(key)
        return miss(pres, m1, m2)

    rebind("glpq", orig, word_product)
