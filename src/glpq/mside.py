"""Exact model of the exponent algebra behind the group parametrization.

Coefficients are rational functions in x, y over Q(p, q, phi) extended by
central invertible symbols E1, E2 (standing for the exponentials of h.x
and h.y); the odd generators mu, nu act on coefficients through shift
automorphisms, so the bracket relations hold exactly without any series
truncation.  psi is always materialized as 2 - phi.
"""

from __future__ import annotations

from functools import lru_cache

from .coeff import RatFunc, power_at
from .errors import NotAUnit
from .nc import Element, Presentation, add_products, commutator
from .poly import Pol, SymbolSet
from .report import Identity, run_exact
from .supermatrix import SuperMatrix, matrix_power, sdet

M_SYMS = SymbolSet(("p", "q", "phi", "x", "y"))


def _rf(name, exp=1):
    return RatFunc.symbol(M_SYMS, name, exp)


def _rconst(c):
    return RatFunc.const(M_SYMS, c)


_ONE = _rconst(1)       # the exact unit that add_products multiplies past


class MCoefficient:
    """Finite sum r(x,y,p,q,phi) * E1^k * E2^l with exact RatFunc weights."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {kl: r for kl, r in terms.items() if not r.is_zero()}

    @staticmethod
    def const(c):
        return MCoefficient({(0, 0): _rconst(c)})

    @staticmethod
    def of(r, k=0, l=0):
        return MCoefficient({(k, l): r})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        t = dict(self.terms)
        add_products(t, _ONE, _ONE, _ONE, other.terms.items())
        return MCoefficient(t)

    def __neg__(self):
        return MCoefficient({kl: -r for kl, r in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, RatFunc):
            other = MCoefficient.of(other)
        t = {}
        for (k1, l1), r1 in self.terms.items():
            add_products(t, _ONE, r1, _ONE,
                         (((k1 + k2, l1 + l2), r2)
                          for (k2, l2), r2 in other.terms.items()))
        return MCoefficient(t)

    def inv(self):
        if len(self.terms) != 1:
            raise NotAUnit("only single exponential terms are invertible")
        ((k, l), r), = self.terms.items()
        return MCoefficient({(-k, -l): r.inv()})

    def __eq__(self, other):
        return isinstance(other, MCoefficient) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def subst_shift(self, mapping, factor_base):
        """Apply the x/y substitution and the E-rescaling of one inverse
        shift: E1^k E2^l picks up factor_base^-(k + l)."""
        out = {}
        for (k, l), r in self.terms.items():
            fac = factor_base ** (-(k + l))
            out[(k, l)] = r.subst(mapping) * fac
        return MCoefficient(out)

    def eval_float(self, assignment):
        total = 0.0
        for (k, l), r in self.terms.items():
            total += (r.eval_float(assignment) * power_at(assignment, "E1", k)
                      * power_at(assignment, "E2", l))
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (k, l) in sorted(self.terms):
            r = self.terms[(k, l)]
            rs = str(r)
            es = []
            if k:
                es.append("E1" if k == 1 else f"E1^{k}")
            if l:
                es.append("E2" if l == 1 else f"E2^{l}")
            if not es:
                body = rs
            elif rs == "1":
                body = "*".join(es)
            elif rs == "-1":
                body = "-" + "*".join(es)
            else:
                if " " in rs:
                    rs = f"({rs})"
                body = "*".join([rs] + es)
            if parts:
                if body.startswith("-"):
                    parts.append("- " + body[1:])
                else:
                    parts.append("+ " + body)
            else:
                parts.append(body)
        return " ".join(parts)

    def __repr__(self):
        return f"MCoefficient({self})"


def _pol(name):
    return Pol.symbol(M_SYMS, name)


_X, _Y, _PHI = _pol("x"), _pol("y"), _pol("phi")
_TWO = Pol.const(M_SYMS, 2)
_PSI = _TWO - _PHI

_SHIFT_MU_INV = {"x": _X - _PHI, "y": _Y - _PHI}
_SHIFT_NU_INV = {"x": _X - _PSI, "y": _Y - _PSI}
_TAU_MAP = {"x": _Y, "y": _X, "p": _pol("q"), "q": _pol("p"), "phi": _PSI}


class MSide:
    """Bundle: presentation, generators and the closed power forms."""

    def __init__(self):
        one = MCoefficient.const(1)
        q = _rf("q")
        p = _rf("p")

        def smu_inv(c):
            return c.subst_shift(_SHIFT_MU_INV, q)

        def snu_inv(c):
            return c.subst_shift(_SHIFT_NU_INV, p)

        self.pres = Presentation(
            one,
            evens=[],
            odds=["mu", "nu"],
            twists={("nu", "mu"): MCoefficient.const(-1)},
            shifts={"mu": smu_inv, "nu": snu_inv},
            name="mside",
        )
        self.p, self.q = p, q
        self.phi = _rf("phi")
        self.psi = _rconst(2) - self.phi
        self.x_rf, self.y_rf = _rf("x"), _rf("y")
        self.s = self.x_rf - self.y_rf
        self.one_c = one
        self.mu = self.pres.gen("mu")
        self.nu = self.pres.gen("nu")
        self.x = self.pres.scalar_elt(MCoefficient.of(self.x_rf))
        self.y = self.pres.scalar_elt(MCoefficient.of(self.y_rf))
        self.E1 = MCoefficient.of(_rconst(1), 1, 0)
        self.E2 = MCoefficient.of(_rconst(1), 0, 1)

    # -- basic builders ------------------------------------------------

    def scalar(self, r):
        if isinstance(r, RatFunc):
            r = MCoefficient.of(r)
        return self.pres.scalar_elt(r)

    def M(self):
        return SuperMatrix(self.x, self.mu, self.nu, self.y)

    def m_power(self, n):
        return matrix_power(self.M(), n)

    # -- closed forms ----------------------------------------------------

    def f_closed(self, n):
        """Rational closed form of the even correction in the n-th power."""
        s, phi, psi = self.s, self.phi, self.psi
        num = (self.x_rf ** n * (s + phi)
               - (self.x_rf + _rconst(2)) ** n * (s - psi)
               - (self.y_rf + psi) ** n * _rconst(2))
        return num / ((s + phi) * (s - psi) * _rconst(2))

    def g_closed(self, n):
        s, phi = self.s, self.phi
        return ((self.x_rf + phi) ** n - self.y_rf ** n) / (s + phi)

    def tau_rf(self, r):
        return r.subst(_TAU_MAP)

    def tau_coeff(self, c):
        return MCoefficient({(l, k): self.tau_rf(r)
                             for (k, l), r in c.terms.items()})

    def tau_elt(self, e):
        t = {}
        for (em, en), c in e.terms.items():
            nc = self.tau_coeff(c)
            if em and en:
                nc = -nc        # swapping both odd letters costs a sign
            t[(en, em)] = nc
        return Element(self.pres, t)

    # -- matrix of the group element --------------------------------------

    def build_T_from_M(self):
        s, phi, psi, p, q = self.s, self.phi, self.psi, self.p, self.q
        pq = p * q
        half = _rconst(1) / _rconst(2)
        den = ((s + phi) * (s - psi)).inv()
        w_a = self.scalar(MCoefficient({
            (1, 0): (phi + pq * psi) * half - (pq - _rconst(1)) * half * s,
            (0, 1): -p,
        }))
        w_d = self.scalar(MCoefficient({
            (0, 1): (psi + pq * phi) * half + (pq - _rconst(1)) * half * s,
            (1, 0): -q,
        }))
        mu_nu = self.mu * self.nu
        nu_mu = self.nu * self.mu
        a = self.scalar(self.E1) - (mu_nu * w_a).smul(MCoefficient.of(den))
        d = self.scalar(self.E2) - (nu_mu * w_d).smul(MCoefficient.of(den))
        b = (self.mu * self.scalar(MCoefficient({(1, 0): q,
                                                 (0, 1): -_rconst(1)})))\
            .smul(MCoefficient.of((s + phi).inv()))
        c = (self.nu * self.scalar(MCoefficient({(0, 1): p,
                                                 (1, 0): -_rconst(1)})))\
            .smul(MCoefficient.of((psi - s).inv()))
        return SuperMatrix(a, b, c, d)


@lru_cache(maxsize=1)
def mside():
    return MSide()


def _shift_mu_inv_rf(r):
    return r.subst(_SHIFT_MU_INV)


def _shift_nu_inv_rf(r):
    return r.subst(_SHIFT_NU_INV)


def _shift_munu_inv_rf(r):
    return r.subst({"x": _X - _TWO, "y": _Y - _TWO})


def power_block_identities(n_max=8):
    """Iterated powers of M against the displayed closed forms.

    The displayed corrections sit to the right of the odd words; moving
    them into canonical left position applies the inverse shifts, which
    is what the closed-form sides below do explicitly.
    """
    ctx = mside()
    powers = {1: ctx.M()}
    for n in range(2, n_max + 1):
        powers[n] = powers[n - 1] * ctx.M()
    for n in range(1, n_max + 1):
        m = powers[n]
        f = ctx.f_closed(n)
        g = ctx.g_closed(n)
        f_tau = ctx.tau_rf(f)
        g_tau = ctx.tau_rf(g)
        lhs_a = ctx.scalar(MCoefficient.of(ctx.x_rf ** n)) - \
            (ctx.mu * ctx.nu).smul(MCoefficient.of(_shift_munu_inv_rf(f)))
        lhs_d = ctx.scalar(MCoefficient.of(ctx.y_rf ** n)) - \
            (ctx.nu * ctx.mu).smul(MCoefficient.of(_shift_munu_inv_rf(f_tau)))
        lhs_b = ctx.mu.smul(MCoefficient.of(_shift_mu_inv_rf(g)))
        lhs_c = ctx.nu.smul(MCoefficient.of(_shift_nu_inv_rf(g_tau)))
        yield Identity(f"power.A.n={n}", "M^n_11 = x^n - mu*nu*F_n",
                       m.a11, lhs_a)
        yield Identity(f"power.B.n={n}", "M^n_12 = mu*G_n", m.a12, lhs_b)
        yield Identity(f"power.C.n={n}", "M^n_21 = nu*G_n^tau", m.a21, lhs_c)
        yield Identity(f"power.D.n={n}", "M^n_22 = y^n - nu*mu*F_n^tau",
                       m.a22, lhs_d)


def resolve_f_placement(n_probe=4):
    """Decide whether the even correction multiplies from the right.

    Returns 'right' when the displayed placement (correction to the
    right of mu*nu, shifted on normalization) matches iterated powers,
    'left' when the unshifted coefficient does, 'ambiguous' otherwise.
    """
    ctx = mside()
    m = ctx.m_power(n_probe)
    f = ctx.f_closed(n_probe)
    target = m.a11 - ctx.scalar(MCoefficient.of(ctx.x_rf ** n_probe))
    right = (ctx.mu * ctx.nu).smul(
        MCoefficient.of(_shift_munu_inv_rf(f))).__neg__()
    left = (ctx.mu * ctx.nu).smul(MCoefficient.of(f)).__neg__()
    right_ok = (target - right).is_zero()
    left_ok = (target - left).is_zero()
    if right_ok and not left_ok:
        return "right"
    if left_ok and not right_ok:
        return "left"
    return "ambiguous"


def relation_identities():
    """The defining brackets of the exponent algebra, plus their tau images."""
    ctx = mside()
    phi_c = MCoefficient.of(ctx.phi)
    psi_c = MCoefficient.of(ctx.psi)
    zero = ctx.pres.zero_elt()
    rels = [
        ("x.mu", "[x, mu] = phi*mu", commutator(ctx.x, ctx.mu),
         ctx.mu.smul(phi_c)),
        ("y.mu", "[y, mu] = phi*mu", commutator(ctx.y, ctx.mu),
         ctx.mu.smul(phi_c)),
        ("mu.sq", "mu^2 = 0", ctx.mu * ctx.mu, zero),
        ("x.nu", "[x, nu] = psi*nu", commutator(ctx.x, ctx.nu),
         ctx.nu.smul(psi_c)),
        ("y.nu", "[y, nu] = psi*nu", commutator(ctx.y, ctx.nu),
         ctx.nu.smul(psi_c)),
        ("nu.sq", "nu^2 = 0", ctx.nu * ctx.nu, zero),
        ("x.y", "x*y - y*x = 0", commutator(ctx.x, ctx.y), zero),
        ("mu.nu", "mu*nu + nu*mu = 0",
         ctx.mu * ctx.nu + ctx.nu * ctx.mu, zero),
    ]
    for tag, anchor, lhs, rhs in rels:
        yield Identity(f"bracket.{tag}", anchor, lhs, rhs)
    for tag, anchor, lhs, rhs in rels:
        yield Identity(f"bracket.tau.{tag}", f"tau of: {anchor}",
                       ctx.tau_elt(lhs), ctx.tau_elt(rhs))


def centrality_identities():
    ctx = mside()
    st = ctx.x - ctx.y
    zero = ctx.pres.zero_elt()
    for name, g in (("x", ctx.x), ("y", ctx.y), ("mu", ctx.mu),
                    ("nu", ctx.nu)):
        yield Identity(f"supertrace.central.{name}",
                       f"[x - y, {name}] = 0", commutator(st, g), zero)


def group_matrix_identities():
    """Relations of the reconstructed group matrix plus its sdet."""
    ctx = mside()
    T = ctx.build_T_from_M()
    a, b, c, d = T.a11, T.a12, T.a21, T.a22
    p_c = MCoefficient.of(ctx.p)
    q_c = MCoefficient.of(ctx.q)
    pq_inv = MCoefficient.of(ctx.p * ctx.q.inv())
    zero = ctx.pres.zero_elt()
    rels = [
        ("a.beta", "a*beta = q*beta*a", a * b, (b * a).smul(q_c)),
        ("d.beta", "d*beta = q*beta*d", d * b, (b * d).smul(q_c)),
        ("a.gamma", "a*gamma = p*gamma*a", a * c, (c * a).smul(p_c)),
        ("d.gamma", "d*gamma = p*gamma*d", d * c, (c * d).smul(p_c)),
        ("beta.gamma", "beta*gamma + p*q^-1*gamma*beta = 0",
         b * c + (c * b).smul(pq_inv), zero),
        ("beta.sq", "beta^2 = 0", b * b, zero),
        ("gamma.sq", "gamma^2 = 0", c * c, zero),
        ("ad.commutator", "a*d - d*a = (p - q^-1)*gamma*beta",
         commutator(a, d),
         (c * b).smul(MCoefficient.of(ctx.p - ctx.q.inv()))),
    ]
    for tag, anchor, lhs, rhs in rels:
        yield Identity(f"group.{tag}", anchor, lhs, rhs)
    yield Identity("group.sdet", "sdet(T) = E1*E2^-1",
                   sdet(T), ctx.scalar(ctx.E1 * ctx.E2.inv()))
    # the tau involution squares to the identity on the entries
    for name, e in (("a", a), ("beta", b), ("gamma", c), ("d", d)):
        yield Identity(f"tau.involution.{name}", "tau(tau(e)) = e",
                       ctx.tau_elt(ctx.tau_elt(e)), e)


def mside_identities(n_max=8):
    yield from power_block_identities(n_max)
    yield from relation_identities()
    yield from centrality_identities()
    yield from group_matrix_identities()


def verify_mside(n_max=8):
    params = {"n_max": n_max, "f_placement": resolve_f_placement()}
    return run_exact("mside", mside_identities(n_max), params)
