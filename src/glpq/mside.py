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

Each shift and the involution tau are substitutions of symbols by
polynomials, and a substitution is a ring homomorphism: sigma(F(x, y,
phi, psi)) = F(sigma x, sigma y, sigma phi, sigma psi) for every
rational expression F whose denominator sigma keeps nonzero.  The power
suite therefore evaluates its closed forms F_n, G_n at the mapped
scalars x, y, phi, psi (one or two terms each) instead of mapping the
expanded forms; canonical forms are unique, so both routes give the
same coefficient.  The maps are the presentation's own, so a wrong
shift or tau map fails the same checks either way.
"""

from __future__ import annotations

from functools import lru_cache

from .coeff import RatFunc
from .nc import Element, Presentation, commutator
from .poly import Pol, SymbolSet, power_table
from .report import Identity, run_exact, tagged
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

    def f_closed(self, n, args=None):
        """Rational closed form F_n of the even correction in the n-th
        power, evaluated at ``args`` = (x, y, phi, psi), by default the
        plain symbols (see :meth:`mapped_args`)."""
        x, y, phi, psi = args or self.mapped_args()
        s = x - y
        two = _rconst(2)
        num = x ** n * (s + phi) - (x + two) ** n * (s - psi) - \
            (y + psi) ** n * two
        return num / ((s + phi) * (s - psi) * two)

    def g_closed(self, n, args=None):
        """Closed form G_n of the odd blocks, at ``args`` as for
        :meth:`f_closed`."""
        x, y, phi, _ = args or self.mapped_args()
        return ((x + phi) ** n - y ** n) / (x - y + phi)

    def mapped_args(self, *maps):
        """x, y, phi and psi, each sent through the coefficient maps in
        order.  The maps are substitutions, so ring homomorphisms (see
        the module docstring): the closed forms at these arguments equal
        the maps of the expanded closed forms."""
        args = (self.x_rf, self.y_rf, self.phi, self.psi)
        for m in maps:
            args = tuple(map(m, args))
        return args

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
    them into canonical left position applies the inverse shifts (after
    tau for the tau images), which the closed-form sides below do by
    evaluating F_n and G_n at the shifted arguments (the homomorphism
    argument of the module docstring).
    """
    ctx = mside()
    tau = ctx.tau_rf
    # the mapped arguments of each block, made once for every n; the maps
    # are read here, per call, so a patched map reaches them
    args_a = ctx.mapped_args(_shift_munu_inv_rf)
    args_d = ctx.mapped_args(tau, _shift_munu_inv_rf)
    args_b = ctx.mapped_args(_shift_mu_inv_rf)
    args_c = ctx.mapped_args(tau, _shift_nu_inv_rf)
    mu_nu, nu_mu = ctx.mu * ctx.nu, ctx.nu * ctx.mu
    powers = power_table(ctx.M(), n_max)
    for n in range(1, n_max + 1):
        m = powers[n]
        lhs_a = ctx.pres.scalar_elt(ctx.x_rf ** n) - \
            mu_nu.smul(ctx.f_closed(n, args_a))
        lhs_d = ctx.pres.scalar_elt(ctx.y_rf ** n) - \
            nu_mu.smul(ctx.f_closed(n, args_d))
        lhs_b = ctx.mu.smul(ctx.g_closed(n, args_b))
        lhs_c = ctx.nu.smul(ctx.g_closed(n, args_c))
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
    target = m.a11 - ctx.pres.scalar_elt(ctx.x_rf ** n_probe)
    mu_nu = ctx.mu * ctx.nu
    right = -mu_nu.smul(ctx.f_closed(n_probe,
                                     ctx.mapped_args(_shift_munu_inv_rf)))
    left = -mu_nu.smul(ctx.f_closed(n_probe))
    right_ok = (target - right).is_zero()
    left_ok = (target - left).is_zero()
    if right_ok and not left_ok:
        return "right"
    if left_ok and not right_ok:
        return "left"
    return "ambiguous"


def entry_products(x, mu, nu, y):
    """Every product of two of the entries x, mu, nu, y, keyed by their
    names, as ``prod["x", "mu"]`` for x*mu: each is made once and read
    by :func:`bracket_rows` and :func:`central_rows` (and by the series
    sector's M^2)."""
    entries = {"x": x, "mu": mu, "nu": nu, "y": y}
    return {(a, b): ea * eb for a, ea in entries.items()
            for b, eb in entries.items()}


def bracket_rows(mu, nu, prod, phi, psi, zero):
    """The defining brackets of the exponent algebra as (tag, anchor, lhs,
    rhs) rows, for the entry products ``prod`` of :func:`entry_products`
    and scalars phi, psi; the series sector states them for h*M."""
    def comm(a, b):
        # nc.commutator's a*b - b*a, from the table
        return prod[a, b] - prod[b, a]

    return [
        ("x.mu", "[x, mu] = phi*mu", comm("x", "mu"), mu.smul(phi)),
        ("y.mu", "[y, mu] = phi*mu", comm("y", "mu"), mu.smul(phi)),
        ("mu.sq", "mu^2 = 0", prod["mu", "mu"], zero),
        ("x.nu", "[x, nu] = psi*nu", comm("x", "nu"), nu.smul(psi)),
        ("y.nu", "[y, nu] = psi*nu", comm("y", "nu"), nu.smul(psi)),
        ("nu.sq", "nu^2 = 0", prod["nu", "nu"], zero),
        ("x.y", "x*y - y*x = 0", comm("x", "y"), zero),
        ("mu.nu", "mu*nu + nu*mu = 0", prod["mu", "nu"] + prod["nu", "mu"],
         zero),
    ]


def central_rows(prod, zero):
    """The supertrace x - y commutes with each generator: (tag, anchor,
    lhs, rhs) rows, as in :func:`bracket_rows`, with each commutator
    [x - y, g] read from the table as (x*g - y*g) - (g*x - g*y)."""
    return [(g, f"[x - y, {g}] = 0",
             (prod["x", g] - prod["y", g]) - (prod[g, "x"] - prod[g, "y"]),
             zero)
            for g in ("x", "y", "mu", "nu")]


def relation_identities(prod):
    """The defining brackets of the exponent algebra, plus their tau
    images, for the entry products ``prod`` of the generators."""
    ctx = mside()
    rels = bracket_rows(ctx.mu, ctx.nu, prod, ctx.phi, ctx.psi,
                        ctx.pres.zero_elt())
    yield from tagged("bracket", rels)
    yield from tagged("bracket.tau", (
        (tag, f"tau of: {anchor}", ctx.tau_elt(lhs), ctx.tau_elt(rhs))
        for tag, anchor, lhs, rhs in rels))


def centrality_identities(prod):
    return tagged("supertrace.central",
                  central_rows(prod, mside().pres.zero_elt()))


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
    yield from tagged("group", rels)
    yield Identity("group.sdet", "sdet(T) = E1*E2^-1",
                   sdet(T), ctx.pres.scalar_elt(ctx.E1 * ctx.E2.inv()))
    # the tau involution squares to the identity on the entries
    for name, e in (("a", a), ("beta", b), ("gamma", c), ("d", d)):
        yield Identity(f"tau.involution.{name}", "tau(tau(e)) = e",
                       ctx.tau_elt(ctx.tau_elt(e)), e)


def mside_identities(n_max=8):
    # one table of the generator products for the bracket and supertrace
    # rows
    ctx = mside()
    prod = entry_products(ctx.x, ctx.mu, ctx.nu, ctx.y)
    yield from power_block_identities(n_max)
    yield from relation_identities(prod)
    yield from centrality_identities(prod)
    yield from group_matrix_identities()


def verify_mside(n_max=8):
    params = {"n_max": n_max, "f_placement": resolve_f_placement()}
    return run_exact("mside", mside_identities(n_max), params)
