"""Exact model of the exponent algebra behind the group parametrization.

A coefficient is a :class:`~glpq.coeff.RatFunc` over p, q, phi, x, y and
the central invertible E1, E2 (the exponentials of h.x and h.y), which
are Laurent symbols: they stay out of denominators, and only a single
monomial in them is invertible.  The odd generators mu, nu act on
coefficients through shift automorphisms, one substitution each: moving
a coefficient left across mu maps x, y -> x - phi, y - phi and E1, E2 ->
q^-1 E1, q^-1 E2 (across nu: psi and p).  So the bracket relations hold
exactly, without any series truncation.  psi is always materialized as
2 - phi.
"""

from __future__ import annotations

from functools import lru_cache

from .coeff import RatFunc
from .nc import Element, Presentation, commutator
from .poly import Pol, SymbolSet
from .report import Identity, run_exact
from .supermatrix import SuperMatrix, matrix_power, sdet

M_SYMS = SymbolSet(("p", "q", "phi", "x", "y", "E1", "E2"),
                   laurent=("E1", "E2"))


def _rf(name, exp=1):
    return RatFunc.symbol(M_SYMS, name, exp)


def _rconst(c):
    return RatFunc.const(M_SYMS, c)


def _pol(name, exp=1):
    return Pol.symbol(M_SYMS, name, exp)


_X, _Y, _PHI, _E1, _E2 = map(_pol, ("x", "y", "phi", "E1", "E2"))
_TWO = Pol.const(M_SYMS, 2)
_PSI = _TWO - _PHI

# a coefficient moved left across mu (nu): the inverse shift
_SHIFT_MU_INV = {"x": _X - _PHI, "y": _Y - _PHI,
                 "E1": _pol("q", -1) * _E1, "E2": _pol("q", -1) * _E2}
_SHIFT_NU_INV = {"x": _X - _PSI, "y": _Y - _PSI,
                 "E1": _pol("p", -1) * _E1, "E2": _pol("p", -1) * _E2}
_TAU_MAP = {"x": _Y, "y": _X, "p": _pol("q"), "q": _pol("p"), "phi": _PSI,
            "E1": _E2, "E2": _E1}


def _shift_mu_inv_rf(r):
    return r.subst(_SHIFT_MU_INV)


def _shift_nu_inv_rf(r):
    return r.subst(_SHIFT_NU_INV)


def _shift_munu_inv_rf(r):
    """Both inverse shifts at once, for a coefficient free of E1, E2."""
    return r.subst({"x": _X - _TWO, "y": _Y - _TWO})


class MSide:
    """Bundle: presentation, generators and the closed power forms."""

    def __init__(self):
        one = _rconst(1)
        self.pres = Presentation(
            one,
            evens=[],
            odds=["mu", "nu"],
            twists={("nu", "mu"): _rconst(-1)},
            shifts={"mu": _shift_mu_inv_rf, "nu": _shift_nu_inv_rf},
            name="mside",
        )
        self.p, self.q = _rf("p"), _rf("q")
        self.phi = _rf("phi")
        self.psi = _rconst(2) - self.phi
        self.x_rf, self.y_rf = _rf("x"), _rf("y")
        self.s = self.x_rf - self.y_rf
        self.one_c = one
        self.mu = self.pres.gen("mu")
        self.nu = self.pres.gen("nu")
        self.x = self.pres.scalar_elt(self.x_rf)
        self.y = self.pres.scalar_elt(self.y_rf)
        self.E1, self.E2 = _rf("E1"), _rf("E2")

    # -- basic builders ------------------------------------------------

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

    def tau_elt(self, e):
        t = {}
        for (em, en), c in e.terms.items():
            nc = self.tau_rf(c)
            if em and en:
                nc = -nc        # swapping both odd letters costs a sign
            t[(en, em)] = nc
        return Element(self.pres, t)

    # -- matrix of the group element --------------------------------------

    def build_T_from_M(self):
        s, phi, psi, p, q = self.s, self.phi, self.psi, self.p, self.q
        E1, E2 = self.E1, self.E2
        pq = p * q
        half = _rconst(1) / _rconst(2)
        den = ((s + phi) * (s - psi)).inv()
        sc = self.pres.scalar_elt
        w_a = sc(((phi + pq * psi) * half - (pq - _rconst(1)) * half * s) * E1
                 - p * E2)
        w_d = sc(((psi + pq * phi) * half + (pq - _rconst(1)) * half * s) * E2
                 - q * E1)
        a = sc(E1) - (self.mu * self.nu * w_a).smul(den)
        d = sc(E2) - (self.nu * self.mu * w_d).smul(den)
        b = (self.mu * sc(q * E1 - E2)).smul((s + phi).inv())
        c = (self.nu * sc(p * E2 - E1)).smul((psi - s).inv())
        return SuperMatrix(a, b, c, d)


@lru_cache(maxsize=1)
def mside():
    return MSide()


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
        lhs_a = ctx.pres.scalar_elt(ctx.x_rf ** n) - \
            (ctx.mu * ctx.nu).smul(_shift_munu_inv_rf(f))
        lhs_d = ctx.pres.scalar_elt(ctx.y_rf ** n) - \
            (ctx.nu * ctx.mu).smul(_shift_munu_inv_rf(f_tau))
        lhs_b = ctx.mu.smul(_shift_mu_inv_rf(g))
        lhs_c = ctx.nu.smul(_shift_nu_inv_rf(g_tau))
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
    target = m.a11 - ctx.pres.scalar_elt(ctx.x_rf ** n_probe)
    right = -(ctx.mu * ctx.nu).smul(_shift_munu_inv_rf(f))
    left = -(ctx.mu * ctx.nu).smul(f)
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
    zero = ctx.pres.zero_elt()
    rels = [
        ("x.mu", "[x, mu] = phi*mu", commutator(ctx.x, ctx.mu),
         ctx.mu.smul(ctx.phi)),
        ("y.mu", "[y, mu] = phi*mu", commutator(ctx.y, ctx.mu),
         ctx.mu.smul(ctx.phi)),
        ("mu.sq", "mu^2 = 0", ctx.mu * ctx.mu, zero),
        ("x.nu", "[x, nu] = psi*nu", commutator(ctx.x, ctx.nu),
         ctx.nu.smul(ctx.psi)),
        ("y.nu", "[y, nu] = psi*nu", commutator(ctx.y, ctx.nu),
         ctx.nu.smul(ctx.psi)),
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
    zero = ctx.pres.zero_elt()
    rels = [
        ("a.beta", "a*beta = q*beta*a", a * b, (b * a).smul(ctx.q)),
        ("d.beta", "d*beta = q*beta*d", d * b, (b * d).smul(ctx.q)),
        ("a.gamma", "a*gamma = p*gamma*a", a * c, (c * a).smul(ctx.p)),
        ("d.gamma", "d*gamma = p*gamma*d", d * c, (c * d).smul(ctx.p)),
        ("beta.gamma", "beta*gamma + p*q^-1*gamma*beta = 0",
         b * c + (c * b).smul(ctx.p * ctx.q.inv()), zero),
        ("beta.sq", "beta^2 = 0", b * b, zero),
        ("gamma.sq", "gamma^2 = 0", c * c, zero),
        ("ad.commutator", "a*d - d*a = (p - q^-1)*gamma*beta",
         commutator(a, d),
         (c * b).smul(ctx.p - ctx.q.inv())),
    ]
    for tag, anchor, lhs, rhs in rels:
        yield Identity(f"group.{tag}", anchor, lhs, rhs)
    yield Identity("group.sdet", "sdet(T) = E1*E2^-1",
                   sdet(T), ctx.pres.scalar_elt(ctx.E1 * ctx.E2.inv()))
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
