import numpy as np
import pytest

from contfrob.boxes import Box
from contfrob.errors import RangeError
from contfrob.fields import Const, eval_fields
from contfrob.moduli import (FAILS, HOLDS, Hoelder, Lipschitz,
                             estimate_modulus, fit_loglog_slope)
from contfrob.odelab import (ModuliDecl, OdeSpec, extend, funnel,
                             funnel_to_csv, theorem1_check)
from contfrob.presets import ode_contraction, ode_example_1, ode_peano
from contfrob.surface import FlowConfig


def test_extend_first_component_is_one():
    for spec in (ode_example_1(), ode_peano(), ode_contraction()):
        ext = extend(spec)
        assert ext[0] == Const(1.0)
        assert len(ext) == spec.n + 1


def test_extend_zero_field():
    spec = OdeSpec("t", ("y",), [Const(0.0)],
                   Box.from_dict({"t": (0, 1), "y": (-1, 1)}),
                   ModuliDecl(Lipschitz(1.0), {"t": Lipschitz(0.0),
                                               "y": Lipschitz(1.0)}))
    assert extend(spec) == [Const(1.0), Const(0.0)]


def test_theorem1_example_1():
    spec = ode_example_1(alpha=0.9, beta=0.5, gamma=0.5, delta=0.5)
    env = {"t": 0.0, "x": 0.0, "y": 0.0}
    vals = [f.evaluate(env) for f in extend(spec)]
    assert vals == [1.0, 0.0, 1.0]  # extended field (1, 0, 1) at the origin

    cert = theorem1_check(spec, [0.0, 0.0, 0.0])
    assert cert.component == 3  # the y-slot, tie broken to the larger index
    assert cert.verdict == HOLDS
    slope = fit_loglog_slope(cert.report.trace, window=(1e-8, 1e-3))
    assert slope == pytest.approx(0.9 - 0.5, abs=0.05)


def test_theorem1_lipschitz_always_holds():
    cert = theorem1_check(ode_contraction(), [0.0, 1.0])
    assert cert.verdict == HOLDS


def test_theorem1_peano_fails():
    spec = ode_peano()
    cert = theorem1_check(spec, [0.0, 0.0])
    assert cert.component == 1  # only the time slot is nonzero at y = 0
    assert isinstance(cert.w2, Hoelder)
    assert cert.verdict == FAILS


def test_validate_declared_moduli():
    # along each variable, the empirical modulus of |F| on a 7^3 lattice
    # stays within twice the declared one at every scale inside its cap
    spec = ode_example_1()
    pts = spec.domain.lattice(7)
    norm = np.linalg.norm(eval_fields(spec.F, spec.coords, pts), axis=-1)
    for i, name in enumerate(spec.coords):
        declared = spec.moduli.per_variable[name]
        tab = estimate_modulus(pts, norm, direction_mask=[i])
        ratios = [v / declared(s) for s, v in tab.breakpoints
                  if s <= declared.domain_cap and declared(s) > 0.0]
        assert ratios and max(ratios) <= 2.0


def test_funnel_contraction_unique_like():
    spec = ode_contraction()
    rep = funnel(spec, [0.0, 1.0], 1.0, [1e-2, 1e-3, 1e-4], ensemble=6,
                 cfg=FlowConfig(step=2e-3), seed=0)
    assert rep.verdict == "UniqueLike"
    assert rep.params["fit_exponent"] == pytest.approx(1.0, abs=0.1)


def test_funnel_peano_detects():
    spec = ode_peano()
    rep = funnel(spec, [0.0, 0.0], 1.0, [1e-3, 1e-4, 1e-5, 1e-6], ensemble=6,
                 cfg=FlowConfig(step=2e-3), seed=0)
    assert rep.verdict == "FunnelDetected"
    plateau = rep.dispersions[-1]
    envelope = (1.0 / 3.0) ** 3
    assert envelope / 3.0 <= plateau <= envelope * 3.0


def test_funnel_dispersion_nondecreasing_in_delta():
    spec = ode_peano()
    rep = funnel(spec, [0.0, 0.0], 1.0, [1e-3, 1e-4, 1e-5], ensemble=6,
                 cfg=FlowConfig(step=2e-3), seed=1)
    # delta_list is stored descending: dispersion must not increase
    assert rep.dispersions[0] >= rep.dispersions[1] >= rep.dispersions[2]


def test_funnel_deterministic():
    spec = ode_contraction()
    reps = [funnel(spec, [0.0, 1.0], 0.5, [1e-2, 1e-3], ensemble=5,
                   cfg=FlowConfig(step=2e-3), seed=42) for _ in range(2)]
    assert funnel_to_csv(reps[0]) == funnel_to_csv(reps[1])


def test_funnel_example_1_unique_like():
    spec = ode_example_1()
    rep = funnel(spec, [0.0, 0.0, 0.0], 0.5, [1e-2, 1e-3, 1e-4], ensemble=6,
                 cfg=FlowConfig(step=2e-3), seed=0)
    assert rep.verdict == "UniqueLike"
    # draws leaving the positive-orthant domain are recorded, not fatal
    assert all(v >= 0 for v in rep.escapes.values())


def test_funnel_csv_shape():
    spec = ode_contraction()
    rep = funnel(spec, [0.0, 1.0], 0.5, [1e-2, 1e-3], ensemble=4,
                 cfg=FlowConfig(step=2e-3), seed=7)
    text = funnel_to_csv(rep)
    body = [ln for ln in text.strip().splitlines()
            if not ln.startswith("#")]
    assert body[0] == "delta,dispersion,escaped"
    assert len(body) == 3


@pytest.mark.parametrize("T", [-1.0, 0.0])
def test_funnel_rejects_non_positive_horizon(T):
    with pytest.raises(RangeError, match="horizon T must be positive"):
        funnel(ode_peano(), [0.0, 0.0], T, [1e-3, 1e-4])


def test_funnel_is_one_engine_call(monkeypatch):
    from contfrob import odelab
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[2]))
        return engine(*args, **kwargs)
    engine = odelab._integrate
    monkeypatch.setattr(odelab, "_integrate", counted)
    funnel(ode_peano(), [0.0, 0.0], 1.0, [1e-3, 1e-4, 1e-5], ensemble=4,
           cfg=FlowConfig(step=0.01))
    # the base start once, then per delta 4 ensemble and 2 offset rows
    assert calls == [1 + 3 * (4 + 2)]


def test_ode_spec_mismatch_is_range_error():
    box = Box.from_dict({"t": (0.0, 1.0), "y": (-1.0, 1.0)})
    with pytest.raises(RangeError, match="one field per state variable"):
        OdeSpec("t", ("y",), [Const(1.0), Const(2.0)], box)
    with pytest.raises(RangeError, match=r"ode spec needs a domain box over "
                       r"\('t', 'z'\)"):
        OdeSpec("t", ("z",), [Const(1.0)], box)


def test_theorem1_point_of_wrong_length_is_range_error():
    with pytest.raises(RangeError, match=r"^points over \('t', 'y'\) need 2 "
                                         r"coordinates, got 1$"):
        theorem1_check(ode_peano(), [0.1])


def test_group_modulus_without_declaration_names_the_variables():
    decl = ModuliDecl(Lipschitz(1.0), {"t": Lipschitz(1.0)})
    with pytest.raises(RangeError, match=r"^no declared modulus for "
                       r"\('y', 'z'\); moduli are declared for \('t',\)$"):
        decl.group_modulus(["y", "z"])
