"""The GL_{p,q}(1|1) algebra over exact rational functions in p, q.

Provides the defining presentation (generators a, d, beta, gamma with
invertible diagonal generators), the closed power-block forms, and the
verification suites for the superdeterminant, power and block-recurrence
identities.

Shared products.  Each suite call makes every value that it reads more
than once a single time: one :class:`~glpq.supermatrix.Schur` per power
T^n serves its sdet, both Crout forms and the Crout pair (and, for T,
the block inverse); the appendix builds C_1*A_k*B_1*D_k and
C_k*A_1*B_k*D_1 once for K and L, from prefixes that the recurrences
share, and reads each [A_k, D_k] back from the expansion at k - 1; the
closed blocks read one table of brackets, and the reorder family one
quotient (p^k - q^-k)/(p - q^-1) per exponent.  A reused value equals
the one it replaces: coefficients are canonical rational functions and
elements canonical normal forms, and a product is a function of its
operands, so neither its order nor its reuse can change a result.
Unlike the series sector there is no weight window to track.
"""

from __future__ import annotations

from functools import lru_cache

from .coeff import RatFunc
from .errors import UnsupportedNegativeN
from .nc import Presentation, commutator, invert_even_unit
from .poly import SymbolSet, power_table
from .report import Identity, matrix_identities, run_exact, tagged
from .supermatrix import Schur, SuperMatrix, sdet, sinverse


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

    def closed_power_blocks(self, n_max):
        """The closed blocks of T^n for n = 1..n_max, in one list.  The
        brackets <j> and the powers of p^-1 and q^-1 that they read are
        made once for the whole list."""
        if n_max < 1:
            raise UnsupportedNegativeN(
                f"closed blocks need n >= 1, got {n_max}")
        brackets = [None] + [self.bracket(j) for j in range(1, n_max)]
        p_pows = [self.p_inv ** k for k in range(n_max)]
        q_pows = [self.q_inv ** k for k in range(n_max)]
        out = []
        for n in range(1, n_max + 1):
            an = self.word([("a", n)])
            dn = self.word([("d", n)])
            bn = self.pres.zero_elt()
            cn = self.pres.zero_elt()
            for k in range(n):
                bn = bn + self.word([("a", n - k - 1), ("d", k), ("beta", 1)],
                                    q_pows[k])
                cn = cn + self.word([("d", n - k - 1), ("a", k), ("gamma", 1)],
                                    p_pows[k])
            for k in range(n - 1):
                coef = brackets[n - k - 1]
                an = an + self.word([("a", n - k - 2), ("d", k),
                                     ("beta", 1), ("gamma", 1)],
                                    coef * q_pows[k])
                dn = dn + self.word([("d", n - k - 2), ("a", k),
                                     ("gamma", 1), ("beta", 1)],
                                    coef * p_pows[k])
            out.append(SuperMatrix(an, bn, cn, dn))
        return out

    def schur_power_rhs(self, n):
        coef = (self.q ** n - self.p ** (-n)) / (self.q - self.p_inv)
        return self.a ** n - self.word(
            [("beta", 1), ("a", n - 1), ("d", -1), ("gamma", 1)], coef)

    def reorder_scalars(self, bound):
        """p^k - q^-k and <k> = (p^k - q^-k)/(p - q^-1) for |k| <= bound,
        as two dicts keyed by k: one division per k."""
        den = self.p - self.q_inv
        diffs = {k: self.p ** k - self.q ** (-k)
                 for k in range(-bound, bound + 1)}
        return diffs, {k: v / den for k, v in diffs.items()}

    def reorder_power_rhs(self, n, m, scalars):
        """d^m*a^n + (p^n - q^-n)<m>*gamma*a^(n-1)*d^(m-1)*beta, the
        scalars read from the :meth:`reorder_scalars` pair."""
        diffs, quotients = scalars
        return self.word([("d", m), ("a", n)]) + self.word(
            [("gamma", 1), ("a", n - 1), ("d", m - 1), ("beta", 1)],
            diffs[n] * quotients[m])

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


def _signed_powers(x, x_inv, bound):
    """{n: x^n} for |n| <= bound, from one power table of x and one of
    its inverse ``x_inv``."""
    pos, neg = power_table(x, bound), power_table(x_inv, bound)
    out = {0: x.pres.one_elt()}
    for n in range(1, bound + 1):
        out[n], out[-n] = pos[n], neg[n]
    return out


def section2_identities(n_bound=6, m_bound=4):
    ctx = tside()
    pres = ctx.pres
    T = ctx.T()
    t_split = Schur(T)
    Tinv = sinverse(t_split)
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

    sd = t_split.sdet
    sd_inv_mat = sdet(Tinv)
    a2_d2 = ctx.a * ctx.a * d2_inv
    d2_d1 = ctx.d * ctx.d * d1_inv
    yield Identity("sdet.delta2", "sdet(T) = a^2*D2^-1", sd, a2_d2)
    yield Identity("sdet.inverse.delta1", "sdet(T^-1) = d^2*D1^-1",
                   sd_inv_mat, d2_d1)
    yield Identity("sdet.reciprocal", "(a^2*D2^-1)^-1 = d^2*D1^-1",
                   invert_even_unit(a2_d2), d2_d1)
    yield Identity("sdet.inverse.product", "sdet(T^-1)*sdet(T) = 1",
                   sd_inv_mat * sd, pres.one_elt())

    # the inverses of a and d, and a - beta*d^-1*gamma with its inverse,
    # are pieces of T's block inverse
    central = [("a", ctx.a), ("a_inv", t_split.a_inv),
               ("d", ctx.d), ("d_inv", t_split.d_inv),
               ("beta", ctx.beta), ("gamma", ctx.gamma)]
    for name, g in central:
        yield Identity(f"sdet.central.{name}", f"[sdet(T), {name}] = 0",
                       commutator(sd, g), pres.zero_elt())

    base_powers = _signed_powers(t_split.a_minus_bdc,
                                 t_split.a_minus_bdc_inv, n_bound)
    for n in range(-n_bound, n_bound + 1):
        yield Identity(
            f"power.schur.n={n}",
            "(a - beta*d^-1*gamma)^n = a^n - <n>_qp*beta*a^(n-1)*d^-1*gamma",
            base_powers[n], ctx.schur_power_rhs(n))

    scalars = ctx.reorder_scalars(m_bound)
    for n in range(-m_bound, m_bound + 1):
        for m in range(-m_bound, m_bound + 1):
            yield Identity(
                f"reorder.power.n={n}.m={m}",
                "a^n*d^m = d^m*a^n + (p^n - q^-n)<m>*gamma*a^(n-1)*d^(m-1)*beta",
                ctx.word([("a", n), ("d", m)]),
                ctx.reorder_power_rhs(n, m, scalars))

    sd_powers = _signed_powers(sd, invert_even_unit(sd), n_bound)
    for n in range(-n_bound, n_bound + 1):
        yield Identity(
            f"sdet.power.n={n}",
            "sdet(T)^n = a^n*d^-n - p*(p^-n - q^n)/(p - q^-1)*a^(n-1)*gamma*d^(-n-1)*beta",
            sd_powers[n], ctx.sdet_power_rhs(n))


# -- suite: powers of T ----------------------------------------------------------


def section3_identities(n_max=8):
    ctx = tside()
    T = ctx.T()
    powers = power_table(T, n_max)
    # one Schur per power: sdet, both Crout forms and the Crout pair of
    # T^n read its A_n^-1, D_n^-1 and Schur products
    t_split = Schur(T)
    sd_powers = power_table(t_split.sdet, n_max)
    closed = ctx.closed_power_blocks(n_max) if n_max >= 1 else []

    for n, blocks in enumerate(closed, 1):
        split = t_split if n == 1 else Schur(powers[n])
        yield from matrix_identities(
            f"blocks.n={n}",
            "T^n = (a^n + F_n*beta*gamma, G_n*beta; G_n~*gamma, d^n + F_n~*gamma*beta)",
            powers[n], blocks)
        pn, qn = ctx.p ** n, ctx.q ** n
        yield from gl_relation_identities(
            f"relations.n={n}", *blocks.entries(), pn, qn)
        sd_n = split.sdet
        yield Identity(f"sdet.closed.n={n}",
                       "sdet(T^n) = a^n*d^-n - p*(p^-n - q^n)/(p - q^-1)*...",
                       sd_n, ctx.sdet_power_rhs(n))
        yield Identity(f"sdet.multiplicative.n={n}",
                       "sdet(T)^n = sdet(T^n)", sd_powers[n], sd_n)
        first, second = split.factorizations()
        yield Identity(f"sdet.crout.first.n={n}",
                       "sdet(T^n) = A_n*(D_n - C_n*A_n^-1*B_n)^-1", first, sd_n)
        yield Identity(f"sdet.crout.second.n={n}",
                       "sdet(T^n) = (A_n - B_n*D_n^-1*C_n)*D_n^-1", second, sd_n)
        lower, upper = split.crout()
        yield from matrix_identities(f"crout.product.n={n}",
                                     "lower*upper = T^n",
                                     lower * upper, powers[n])

    # closure under inversion: the blocks of T^-1 satisfy the relations
    # with both deformation parameters inverted
    Tinv = sinverse(t_split)
    yield from gl_relation_identities(
        "relations.inverse", Tinv.a11, Tinv.a12, Tinv.a21, Tinv.a22,
        ctx.p.inv(), ctx.q.inv())


# -- suite: block recurrences and the commutator cancellation ---------------------


def appendix_identities(k_max=6):
    ctx = tside()
    T = ctx.T()
    powers = power_table(T, k_max + 1)
    A1, B1, C1, D1 = T.entries()
    p, q = ctx.p, ctx.q
    pq = ctx.pq
    # [A_n, D_n]: the expansion at k = n - 1 makes it for the closed form
    commutators = {1: commutator(A1, D1)}
    for k in range(1, k_max + 1):
        Ak, Bk, Ck, Dk = powers[k].entries()
        An, Bn, Cn, Dn = powers[k + 1].entries()
        # products that the recurrences, K, L and the display share
        c1ak, d1ck, c1bk, d1dk = C1 * Ak, D1 * Ck, C1 * Bk, D1 * Dk
        cka1 = Ck * A1
        c1akb1dk, cka1bkd1 = c1ak * B1 * Dk, cka1 * Bk * D1
        yield from tagged("recurrence", [
            (f"A.k={k}", "A_(k+1) = A_1*A_k + B_1*C_k", An, A1 * Ak + B1 * Ck),
            (f"B.k={k}", "B_(k+1) = A_1*B_k + B_1*D_k", Bn, A1 * Bk + B1 * Dk),
            (f"C.k={k}", "C_(k+1) = C_1*A_k + D_1*C_k", Cn, c1ak + d1ck),
            (f"D.k={k}", "D_(k+1) = D_1*D_k + C_1*B_k", Dn, d1dk + c1bk),
        ])

        p_k1, q_k1, pq_k = p ** (k + 1), q ** (-k - 1), p * q ** (-k)
        big_k = (c1akb1dk.smul(p ** (2 * k + 1) * q ** k - q_k1)
                 + cka1bkd1.smul(p_k1 - pq_k)
                 + (cka1 * Ak * B1 - c1ak * A1 * Bk).smul(p_k1)
                 + (Dk * C1 * Bk * D1 - d1ck * B1 * Dk).smul(p_k1))
        big_l = (cka1bkd1.smul(p ** (k + 2) * q - pq_k)
                 + c1akb1dk.smul(p_k1 - q_k1))
        yield Identity(f"cancellation.k={k}", "K - L = 0",
                       big_k - big_l, ctx.pres.zero_elt())
        display = ((c1bk * A1 * Ak - (d1dk * B1 * Ck).smul(pq ** (-k - 1)))
                   .smul(pq ** (k + 1) - ctx.one) + big_k)
        commutators[k + 1] = commutator(An, Dn)
        yield Identity(
            f"commutator.expansion.k={k}",
            "[A_(k+1), D_(k+1)] = ((pq)^(k+1) - 1)*(C_1*B_k*A_1*A_k - (pq)^(-k-1)*D_1*D_k*B_1*C_k) + K",
            commutators[k + 1], display)

    for k in range(1, k_max + 1):
        Ak, Bk, Ck, Dk = powers[k].entries()
        yield Identity(f"commutator.closed.k={k}",
                       "[A_k, D_k] = (p^k - q^-k)*C_k*B_k",
                       commutators[k],
                       (Ck * Bk).smul(p ** k - q ** (-k)))


def verify_section2(n_bound=6, m_bound=4):
    return run_exact("section2", section2_identities(n_bound, m_bound),
                     {"n_bound": n_bound, "m_bound": m_bound})


def verify_section3(n_max=8):
    return run_exact("section3", section3_identities(n_max), {"n_max": n_max})


def verify_appendix(k_max=6):
    return run_exact("appendix", appendix_identities(k_max), {"k_max": k_max})
