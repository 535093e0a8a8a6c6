"""The GL_{p,q}(1|1) algebra over exact rational functions in p, q.

Provides the defining presentation (generators a, d, beta, gamma with
invertible diagonal generators), the closed power-block forms, and the
verification suites for the superdeterminant, power and block-recurrence
identities.
"""

from __future__ import annotations

from functools import lru_cache

from .coeff import RatFunc
from .errors import UnsupportedNegativeN
from .nc import Presentation, commutator, invert_even_unit
from .poly import SymbolSet
from .report import Identity, matrix_identities, run_exact, tagged
from .supermatrix import (SuperMatrix, crout, sdet, sdet_factorizations,
                          sinverse)


class TSide:
    """Presentation bundle: generators, parameter scalars, helpers."""

    def __init__(self):
        syms = SymbolSet(("p", "q"))
        one = RatFunc.const(syms, 1)
        p = RatFunc.symbol(syms, "p")
        q = RatFunc.symbol(syms, "q")
        p_inv, q_inv = p.inv(), q.inv()
        eps = q - p_inv                      # scalar of the d.a correction
        pq = p * q
        bg = (("beta", 1), ("gamma", 1))
        corrections = {
            ("d", "a", 1, 1): (one, [(eps, bg)]),
            ("d", "a", 1, -1): (one, [(-(eps * pq), (("a", -2),) + bg)]),
            ("d", "a", -1, 1): (one, [(-(eps * pq), (("d", -2),) + bg)]),
            ("d", "a", -1, -1): (one, [(eps * pq * pq,
                                        (("a", -2), ("d", -2)) + bg)]),
        }
        self.pres = Presentation(
            one,
            evens=[("a", True), ("d", True)],
            odds=["beta", "gamma"],
            twists={
                ("beta", "a"): q_inv,
                ("beta", "d"): q_inv,
                ("gamma", "a"): p_inv,
                ("gamma", "d"): p_inv,
                ("gamma", "beta"): -(q * p_inv),
            },
            corrections=corrections,
            name="tside",
        )
        self.syms = syms
        self.one = one
        self.p, self.q = p, q
        self.p_inv, self.q_inv = p_inv, q_inv
        self.pq = pq
        self.a = self.pres.gen("a")
        self.d = self.pres.gen("d")
        self.beta = self.pres.gen("beta")
        self.gamma = self.pres.gen("gamma")

    # -- defining matrix and superdeterminant data ------------------------

    def T(self):
        return SuperMatrix(self.a, self.beta, self.gamma, self.d)

    def delta1(self):
        return self.a * self.d - (self.beta * self.gamma).smul(self.p_inv)

    def delta2(self):
        return self.d * self.a - (self.gamma * self.beta).smul(self.q_inv)

    def scalar(self, q):
        return RatFunc.const(self.syms, q)

    def word(self, letters, coeff=None):
        return self.pres.word_elt(letters, coeff)

    # -- closed forms -----------------------------------------------------

    def bracket(self, n):
        """(1 - (pq)^-n) / (1 - (pq)^-1)."""
        return (self.one - self.pq ** (-n)) / (self.one - self.pq.inv())

    def closed_power_blocks(self, n):
        if n < 1:
            raise UnsupportedNegativeN(f"closed blocks need n >= 1, got {n}")
        an = self.a ** n
        dn = self.d ** n
        bn = self.pres.zero_elt()
        cn = self.pres.zero_elt()
        for k in range(n):
            bn = bn + self.word([("a", n - k - 1), ("d", k), ("beta", 1)],
                                self.q_inv ** k)
            cn = cn + self.word([("d", n - k - 1), ("a", k), ("gamma", 1)],
                                self.p_inv ** k)
        for k in range(n - 1):
            coef = self.bracket(n - k - 1)
            an = an + self.word([("a", n - k - 2), ("d", k),
                                 ("beta", 1), ("gamma", 1)],
                                coef * self.q_inv ** k)
            dn = dn + self.word([("d", n - k - 2), ("a", k),
                                 ("gamma", 1), ("beta", 1)],
                                coef * self.p_inv ** k)
        return SuperMatrix(an, bn, cn, dn)

    def schur_power_rhs(self, n):
        coef = (self.q ** n - self.p ** (-n)) / (self.q - self.p_inv)
        return self.a ** n - self.word(
            [("beta", 1), ("a", n - 1), ("d", -1), ("gamma", 1)], coef)

    def reorder_power_rhs(self, n, m):
        coef = ((self.p ** n - self.q ** (-n))
                * (self.p ** m - self.q ** (-m)) / (self.p - self.q_inv))
        return self.word([("d", m), ("a", n)]) + self.word(
            [("gamma", 1), ("a", n - 1), ("d", m - 1), ("beta", 1)], coef)

    def sdet_power_rhs(self, n):
        coef = self.p * (self.p ** (-n) - self.q ** n) / (self.p - self.q_inv)
        return self.word([("a", n), ("d", -n)]) - self.word(
            [("a", n - 1), ("gamma", 1), ("d", -n - 1), ("beta", 1)], coef)


@lru_cache(maxsize=1)
def tside():
    return TSide()


# -- relation checks shared by the power suites -----------------------------


def gl_relation_identities(idbase, A, B, C, D, pn, qn, *, with_commutator=True):
    """The defining exchange relations at deformation parameters (pn, qn)."""
    cb = C * B
    rel = [
        ("AB", "A*B = q^n*B*A", A * B, (B * A).smul(qn)),
        ("DB", "D*B = q^n*B*D", D * B, (B * D).smul(qn)),
        ("AC", "A*C = p^n*C*A", A * C, (C * A).smul(pn)),
        ("DC", "D*C = p^n*C*D", D * C, (C * D).smul(pn)),
        ("B2", "B^2 = 0", B * B, A.pres.zero_elt()),
        ("C2", "C^2 = 0", C * C, A.pres.zero_elt()),
        ("BC", "q^n*B*C + p^n*C*B = 0",
         (B * C).smul(qn) + cb.smul(pn), A.pres.zero_elt()),
    ]
    if with_commutator:
        rel.append(("AD", "[A, D] = (p^n - q^-n)*C*B",
                    commutator(A, D), cb.smul(pn - qn.inv())))
    yield from tagged(idbase, rel)


# -- suite: defining relations, inverse and superdeterminant ------------------


def section2_identities(n_bound=6, m_bound=4):
    ctx = tside()
    pres = ctx.pres
    T = ctx.T()
    Tinv = sinverse(T)
    d1_inv = invert_even_unit(ctx.delta1())
    d2_inv = invert_even_unit(ctx.delta2())
    display = SuperMatrix(ctx.d * d1_inv,
                          -(ctx.beta * d2_inv).smul(ctx.q_inv),
                          -(ctx.gamma * d1_inv).smul(ctx.p_inv),
                          ctx.a * d2_inv)
    yield from matrix_identities(
        "inverse.display",
        "T^-1 = (d*D1^-1, -q^-1*beta*D2^-1; -p^-1*gamma*D1^-1, a*D2^-1)",
        Tinv, display)
    ident = SuperMatrix.identity(pres)
    yield from matrix_identities("inverse.right", "T*T^-1 = I", T * Tinv, ident)
    yield from matrix_identities("inverse.left", "T^-1*T = I", Tinv * T, ident)

    sd = sdet(T)
    sd_inv_mat = sdet(Tinv)
    yield Identity("sdet.delta2", "sdet(T) = a^2*D2^-1",
                   sd, ctx.a * ctx.a * d2_inv)
    yield Identity("sdet.inverse.delta1", "sdet(T^-1) = d^2*D1^-1",
                   sd_inv_mat, ctx.d * ctx.d * d1_inv)
    yield Identity("sdet.reciprocal", "(a^2*D2^-1)^-1 = d^2*D1^-1",
                   invert_even_unit(ctx.a * ctx.a * d2_inv),
                   ctx.d * ctx.d * d1_inv)
    yield Identity("sdet.inverse.product", "sdet(T^-1)*sdet(T) = 1",
                   sd_inv_mat * sd, pres.one_elt())

    central = [("a", ctx.a), ("a_inv", invert_even_unit(ctx.a)),
               ("d", ctx.d), ("d_inv", invert_even_unit(ctx.d)),
               ("beta", ctx.beta), ("gamma", ctx.gamma)]
    for name, g in central:
        yield Identity(f"sdet.central.{name}", f"[sdet(T), {name}] = 0",
                       commutator(sd, g), pres.zero_elt())

    base = ctx.a - ctx.beta * invert_even_unit(ctx.d) * ctx.gamma
    base_inv = invert_even_unit(base)
    for n in range(-n_bound, n_bound + 1):
        lhs = base ** n if n >= 0 else base_inv ** (-n)
        yield Identity(
            f"power.schur.n={n}",
            "(a - beta*d^-1*gamma)^n = a^n - <n>_qp*beta*a^(n-1)*d^-1*gamma",
            lhs, ctx.schur_power_rhs(n))

    for n in range(-m_bound, m_bound + 1):
        for m in range(-m_bound, m_bound + 1):
            yield Identity(
                f"reorder.power.n={n}.m={m}",
                "a^n*d^m = d^m*a^n + (p^n - q^-n)<m>*gamma*a^(n-1)*d^(m-1)*beta",
                ctx.word([("a", n), ("d", m)]), ctx.reorder_power_rhs(n, m))

    sd_pow_inv = invert_even_unit(sd)
    for n in range(-n_bound, n_bound + 1):
        lhs = sd ** n if n >= 0 else sd_pow_inv ** (-n)
        yield Identity(
            f"sdet.power.n={n}",
            "sdet(T)^n = a^n*d^-n - p*(p^-n - q^n)/(p - q^-1)*a^(n-1)*gamma*d^(-n-1)*beta",
            lhs, ctx.sdet_power_rhs(n))


# -- suite: powers of T ----------------------------------------------------------


def section3_identities(n_max=8):
    ctx = tside()
    T = ctx.T()
    powers = {1: T}
    for n in range(2, n_max + 1):
        powers[n] = powers[n - 1] * T
    sd = sdet(T)
    sd_powers = {1: sd}
    for n in range(2, n_max + 1):
        sd_powers[n] = sd_powers[n - 1] * sd

    for n in range(1, n_max + 1):
        blocks = ctx.closed_power_blocks(n)
        yield from matrix_identities(
            f"blocks.n={n}",
            "T^n = (a^n + F_n*beta*gamma, G_n*beta; G_n~*gamma, d^n + F_n~*gamma*beta)",
            powers[n], blocks)
        pn, qn = ctx.p ** n, ctx.q ** n
        yield from gl_relation_identities(
            f"relations.n={n}", *blocks.entries(), pn, qn)
        sd_n = sdet(powers[n])
        yield Identity(f"sdet.closed.n={n}",
                       "sdet(T^n) = a^n*d^-n - p*(p^-n - q^n)/(p - q^-1)*...",
                       sd_n, ctx.sdet_power_rhs(n))
        yield Identity(f"sdet.multiplicative.n={n}",
                       "sdet(T)^n = sdet(T^n)", sd_powers[n], sd_n)
        first, second = sdet_factorizations(powers[n])
        yield Identity(f"sdet.crout.first.n={n}",
                       "sdet(T^n) = A_n*(D_n - C_n*A_n^-1*B_n)^-1", first, sd_n)
        yield Identity(f"sdet.crout.second.n={n}",
                       "sdet(T^n) = (A_n - B_n*D_n^-1*C_n)*D_n^-1", second, sd_n)
        lower, upper = crout(powers[n])
        yield from matrix_identities(f"crout.product.n={n}",
                                     "lower*upper = T^n",
                                     lower * upper, powers[n])

    # closure under inversion: the blocks of T^-1 satisfy the relations
    # with both deformation parameters inverted
    Tinv = sinverse(T)
    yield from gl_relation_identities(
        "relations.inverse", Tinv.a11, Tinv.a12, Tinv.a21, Tinv.a22,
        ctx.p.inv(), ctx.q.inv())


# -- suite: block recurrences and the commutator cancellation ---------------------


def appendix_identities(k_max=6):
    ctx = tside()
    T = ctx.T()
    powers = {1: T}
    for n in range(2, k_max + 2):
        powers[n] = powers[n - 1] * T

    def blocks(n):
        m = powers[n]
        return m.a11, m.a12, m.a21, m.a22

    A1, B1, C1, D1 = blocks(1)
    p, q = ctx.p, ctx.q
    pq = ctx.pq
    for k in range(1, k_max + 1):
        Ak, Bk, Ck, Dk = blocks(k)
        An, Bn, Cn, Dn = blocks(k + 1)
        yield from tagged("recurrence", [
            (f"A.k={k}", "A_(k+1) = A_1*A_k + B_1*C_k", An, A1 * Ak + B1 * Ck),
            (f"B.k={k}", "B_(k+1) = A_1*B_k + B_1*D_k", Bn, A1 * Bk + B1 * Dk),
            (f"C.k={k}", "C_(k+1) = C_1*A_k + D_1*C_k", Cn, C1 * Ak + D1 * Ck),
            (f"D.k={k}", "D_(k+1) = D_1*D_k + C_1*B_k", Dn, D1 * Dk + C1 * Bk),
        ])

        big_k = ((C1 * Ak * B1 * Dk).smul(p ** (2 * k + 1) * q ** k
                                          - q ** (-k - 1))
                 + (Ck * A1 * Bk * D1).smul(p ** (k + 1) - p * q ** (-k))
                 + (Ck * A1 * Ak * B1 - C1 * Ak * A1 * Bk).smul(p ** (k + 1))
                 + (Dk * C1 * Bk * D1 - D1 * Ck * B1 * Dk).smul(p ** (k + 1)))
        big_l = ((Ck * A1 * Bk * D1).smul(p ** (k + 2) * q - p * q ** (-k))
                 + (C1 * Ak * B1 * Dk).smul(p ** (k + 1) - q ** (-k - 1)))
        yield Identity(f"cancellation.k={k}", "K - L = 0",
                       big_k - big_l, ctx.pres.zero_elt())
        display = ((C1 * Bk * A1 * Ak
                    - (D1 * Dk * B1 * Ck).smul(pq ** (-k - 1)))
                   .smul(pq ** (k + 1) - ctx.one) + big_k)
        yield Identity(
            f"commutator.expansion.k={k}",
            "[A_(k+1), D_(k+1)] = ((pq)^(k+1) - 1)*(C_1*B_k*A_1*A_k - (pq)^(-k-1)*D_1*D_k*B_1*C_k) + K",
            commutator(An, Dn), display)

    for k in range(1, k_max + 1):
        Ak, Bk, Ck, Dk = blocks(k)
        yield Identity(f"commutator.closed.k={k}",
                       "[A_k, D_k] = (p^k - q^-k)*C_k*B_k",
                       commutator(Ak, Dk),
                       (Ck * Bk).smul(p ** k - q ** (-k)))


def verify_section2(n_bound=6, m_bound=4):
    return run_exact("section2", section2_identities(n_bound, m_bound),
                     {"n_bound": n_bound, "m_bound": m_bound})


def verify_section3(n_max=8):
    return run_exact("section3", section3_identities(n_max), {"n_max": n_max})


def verify_appendix(k_max=6):
    return run_exact("appendix", appendix_identities(k_max), {"k_max": k_max})
