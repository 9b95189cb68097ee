"""Named example configurations used by the CLI and the acceptance suite.

Each preset builds the full object graph (spec, declared moduli, domains)
from a handful of scalar parameters, so an experiment is reproducible
from its name plus the parameter values echoed into every report header.
"""

from __future__ import annotations

import math

import numpy as np

from .boxes import Box
from .errors import RangeError
from .fields import Const, parse_field
from .forms import one_form
from .geometry import Distribution, FrameSection
from .moduli import Hoelder, Lipschitz, LogLip, MaxModulus, ModuliDecl
from .odelab import OdeSpec
from .pdelab import PdeSpec, SpecialFormSpec
from .dynsys import DiffeoSpec

__all__ = [
    "ode_example_1", "ode_peano", "ode_contraction", "pde_example_2",
    "pde_example_3", "contact_distribution", "involutive_distribution",
    "cat_map", "skew_product", "cat_contracting_direction",
    "cat_expanding_direction",
]


def ode_example_1(alpha=0.9, beta=0.5, gamma=0.5, delta=0.5) -> OdeSpec:
    """Two-component ODE mixing log-Lipschitz and Hoelder terms.

    dx/dt = -t log(t^beta) - x log(x^gamma)
    dy/dt = 1 + y^alpha - x log(x^delta)
    with 0 < beta, gamma, delta < alpha < 1: log-Lipschitz in (t, x),
    Hoelder-alpha in y, and nonvanishing second state component at 0.
    """
    if not 0.0 < max(beta, gamma, delta) < alpha < 1.0:
        raise RangeError(f"example 1 needs 0 < max(beta, gamma, delta) < "
                         f"alpha < 1, got alpha={alpha}, beta={beta}, "
                         f"gamma={gamma}, delta={delta}")
    f1 = parse_field(f"-t*log(t^{beta}) - x*log(x^{gamma})")
    f2 = parse_field(f"1 + y^{alpha} - x*log(x^{delta})")
    domain = Box.from_dict({"t": (0.0, 0.6), "x": (0.0, 0.7),
                            "y": (0.0, 1.5)})
    sigma_x = max(gamma, delta)
    moduli = ModuliDecl(
        overall=Hoelder(alpha, 1.0),
        per_variable={"t": LogLip(beta, 1.0), "x": LogLip(sigma_x, 1.0),
                      "y": Hoelder(alpha, 1.0)})
    return OdeSpec("t", ("x", "y"), [f1, f2], domain, moduli)


def ode_peano(horizon=1.1) -> OdeSpec:
    """dy/dt = (y^2)^(1/3): the classical non-unique equilibrium leaver."""
    f = parse_field("(y^2)^(1/3)")
    domain = Box.from_dict({"t": (0.0, horizon), "y": (-0.6, 0.6)})
    moduli = ModuliDecl(overall=Hoelder(2.0 / 3.0, 1.0),
                        per_variable={"t": Lipschitz(0.0),
                                      "y": Hoelder(2.0 / 3.0, 1.0)})
    return OdeSpec("t", ("y",), [f], domain, moduli)


def ode_contraction(rate=1.0) -> OdeSpec:
    """dy/dt = -rate * y: Lipschitz control case."""
    f = parse_field(f"-{rate}*y")
    domain = Box.from_dict({"t": (0.0, 1.1), "y": (-2.0, 2.0)})
    moduli = ModuliDecl(overall=Lipschitz(rate),
                        per_variable={"t": Lipschitz(0.0),
                                      "y": Lipschitz(rate)})
    return OdeSpec("t", ("y",), [f], domain, moduli)


def pde_example_2(alpha=0.8, beta=0.4, m=2, n=2,
                  x_range=(0.2, 0.7), y_range=(0.15, 0.9)):
    """Separable system dy_i/dx_j = -(x_j)^alpha * y_i log(y_i^beta).

    Returns (SpecialFormSpec, PdeSpec): G_i(y_i) = -y_i log(y_i^beta),
    H_i(x) = sum_j x_j^{alpha+1}/(alpha+1).  beta < alpha gives the
    uniqueness-favorable regularity split.  The default box keeps a
    smoothing margin away from the x = 0 and y = 0 singular axes.
    """
    if not 0.0 < beta < alpha < 1.0:
        raise RangeError(f"example 2 needs 0 < beta < alpha < 1, got "
                         f"alpha={alpha}, beta={beta}")
    x_names = tuple(f"x{j+1}" for j in range(m))
    y_names = tuple(f"y{i+1}" for i in range(n))
    ranges = {xn: x_range for xn in x_names}
    ranges.update({yn: y_range for yn in y_names})
    domain = Box.from_dict(ranges)
    G = [parse_field(f"-{yn}*log({yn}^{beta})") for yn in y_names]
    h_terms = " + ".join(f"{xn}^{alpha + 1.0}/{alpha + 1.0}"
                         for xn in x_names)
    H = [parse_field(h_terms) for _ in range(n)]
    sf = SpecialFormSpec(x_names, y_names, G, H, domain)
    per_var = {xn: Hoelder(alpha, 1.0) for xn in x_names}
    per_var.update({yn: LogLip(beta, 1.0) for yn in y_names})
    moduli = ModuliDecl(overall=MaxModulus(LogLip(beta, 1.0),
                                           Hoelder(alpha, 1.0)),
                        per_variable=per_var)
    return sf, sf.pde_spec(moduli)


def pde_example_3(a11=0.4, a21=0.4, b2=0.4, a12=0.9, a22=0.9, b1=0.9):
    """Four-entry system with the invertible (2,3) column pair at 0.

    dy1/dx1 = (1 - x1 log(x1^a11)) (y1^b1 + 1)
    dy1/dx2 = x2^a12 (1 + y1^b1)
    dy2/dx1 = y2 log(y2^a21-exponent) x1 log(x1^a21)
    dy2/dx2 = -y2 log(y2^b2) x2^a22

    The log-Lipschitz group {x1, y2} must have coefficients below the
    Hoelder exponents of {x2, y1} for the limit criterion to hold; the
    defaults satisfy that ordering.
    """
    F = [
        [parse_field(f"(1 - x1*log(x1^{a11})) * (y1^{b1} + 1)"),
         parse_field(f"x2^{a12} * (1 + y1^{b1})")],
        [parse_field(f"y2*log(y2^{b2}) * x1*log(x1^{a21})"),
         parse_field(f"-y2*log(y2^{b2}) * x2^{a22}")],
    ]
    domain = Box.from_dict({"x1": (0.0, 0.5), "x2": (0.0, 0.5),
                            "y1": (0.0, 0.5), "y2": (0.0, 0.5)})
    moduli = ModuliDecl(
        overall=Hoelder(min(a12, a22, b1), 1.0),
        per_variable={"x1": LogLip(max(a11, a21), 1.0),
                      "x2": Hoelder(min(a12, a22), 1.0),
                      "y1": Hoelder(b1, 1.0),
                      "y2": LogLip(b2, 1.0)})
    return PdeSpec(("x1", "x2"), ("y1", "y2"), F, domain, moduli)


def contact_distribution(extent=0.5) -> Distribution:
    """dz - y dx annihilator: the standard non-integrable example."""
    box = Box.from_dict({"x": (-extent, extent), "y": (-extent, extent),
                         "z": (-extent, extent)})
    return Distribution(("x", "y"), ("z",),
                        [[parse_field("y")], [Const(0.0)]], box)


def involutive_distribution(extent=0.5) -> Distribution:
    """dz - x dx annihilator: integrable with surfaces z = x^2/2 + c."""
    box = Box.from_dict({"x": (-extent, extent), "y": (-extent, extent),
                         "z": (-extent, extent)})
    return Distribution(("x", "y"), ("z",),
                        [[parse_field("x")], [Const(0.0)]], box)


# ---------------------------------------------------------------------------
# torus dynamics


def cat_map() -> DiffeoSpec:
    """Hyperbolic toral automorphism [[2, 1], [1, 1]]."""
    fwd = [parse_field("2*x1 + x2"), parse_field("x1 + x2")]
    inv = [parse_field("x1 - x2"), parse_field("-x1 + 2*x2")]
    return DiffeoSpec(("x1", "x2"), fwd, inv)


def cat_eigenvalues():
    lam_plus = (3.0 + math.sqrt(5.0)) / 2.0
    return 1.0 / lam_plus, lam_plus


def cat_contracting_direction():
    """Unit eigenvector for the eigenvalue (3 - sqrt(5))/2."""
    lam_minus = (3.0 - math.sqrt(5.0)) / 2.0
    v = np.array([1.0, lam_minus - 2.0])
    return v / np.linalg.norm(v)


def cat_expanding_direction():
    lam_plus = (3.0 + math.sqrt(5.0)) / 2.0
    v = np.array([1.0, lam_plus - 2.0])
    return v / np.linalg.norm(v)


def skew_product(tau_amp=0.1) -> DiffeoSpec:
    """Cat map driving a circle rotation: (x, theta) -> (Ax, theta + tau(x))."""
    fwd = [parse_field("2*x1 + x2"), parse_field("x1 + x2"),
           parse_field(f"x3 + {tau_amp}*sin(2*{math.pi}*x1)")]
    inv = [parse_field("x1 - x2"), parse_field("-x1 + 2*x2"),
           parse_field(f"x3 - {tau_amp}*sin(2*{math.pi}*(x1 - x2))")]
    return DiffeoSpec(("x1", "x2", "x3"), fwd, inv)


def skew_center_stable_bases():
    """Orthonormal basis of span{contracting cat direction, d/dtheta}."""
    es = cat_contracting_direction()
    b = np.zeros((3, 2))
    b[:2, 0] = es
    b[2, 1] = 1.0
    return b


def skew_seed_bases():
    """Non-invariant seed span{d/dx1, d/dtheta} for pullback experiments."""
    b = np.zeros((3, 2))
    b[0, 0] = 1.0
    b[2, 1] = 1.0
    return b


def constant_annihilator_frame(normal, coords, y_names) -> FrameSection:
    """Orthonormal constant frame with rows spanning the given conormals."""
    normal = np.atleast_2d(np.asarray(normal, dtype=float))
    rows = []
    for row in normal:
        row = row / np.linalg.norm(row)
        rows.append(one_form(coords, {coords[i]: Const(row[i])
                                      for i in range(len(coords))
                                      if row[i] != 0.0}))
    return FrameSection(tuple(rows), tuple(coords), tuple(y_names))
