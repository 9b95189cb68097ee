import math

import pytest

from contfrob.boxes import Box, GraphForm
from contfrob.errors import RangeError
from contfrob.fields import Const, parse_field
from contfrob.geometry import Distribution
from contfrob.odelab import OdeSpec
from contfrob.pdelab import PdeSpec, SpecialFormSpec
from contfrob.presets import contact_distribution


def test_box_rejects_empty_coordinate_range():
    with pytest.raises(RangeError, match="coordinate 'x' needs low < high"):
        Box(("x",), (1.0,), (0.0,))
    with pytest.raises(RangeError, match="coordinate 'y'"):
        Box.from_dict({"x": (0.0, 1.0), "y": (2.0, 2.0)})
    with pytest.raises(RangeError, match="coordinate 'x'"):
        contact_distribution(extent=0)


def test_box_rejects_mismatched_bounds():
    with pytest.raises(RangeError, match="one low and one high"):
        Box(("x", "y"), (0.0,), (1.0, 1.0))


# one constructor per graph-form class, each with m = n = 1 on the box
_GRAPH_FORMS = {
    "distribution": lambda box: Distribution(("x",), ("y",),
                                             [[Const(0.0)]], box),
    "ode-spec": lambda box: OdeSpec("x", ("y",), [Const(1.0)], box),
    "pde-spec": lambda box: PdeSpec(("x",), ("y",), [[Const(1.0)]], box),
    "special-form": lambda box: SpecialFormSpec(
        ("x",), ("y",), [Const(1.0)], [parse_field("x")], box),
}


@pytest.mark.parametrize("make", _GRAPH_FORMS.values(), ids=_GRAPH_FORMS)
def test_graph_forms_reject_a_domain_over_other_names(make):
    spec = make(Box.from_dict({"x": (0.0, 1.0), "y": (0.1, 1.0)}))
    assert isinstance(spec, GraphForm)
    assert (spec.m, spec.n, spec.coords) == (1, 1, ("x", "y"))
    # m, n, coords and the domain check live on the base only
    assert not {"m", "n", "coords", "_check_domain", "check_point"} & \
        set(vars(type(spec)))
    with pytest.raises(RangeError, match=r"needs a domain box over "
                       r"\('x', 'y'\), got one over \('a', 'b'\)$"):
        make(Box.from_dict({"a": (0.0, 1.0), "b": (0.1, 1.0)}))


@pytest.mark.parametrize("make", _GRAPH_FORMS.values(), ids=_GRAPH_FORMS)
def test_graph_forms_check_a_point_against_their_domain(make):
    spec = make(Box.from_dict({"x": (0.0, 1.0), "y": (0.1, 1.0)}))
    edge = [1.0 + 1e-13, 0.1 - 1e-13]  # within the 1e-12 slack
    assert spec.check_point(edge).tolist() == edge
    for point, name, value in (([1.0 + 1e-11, 0.5], "x", "1.00000000001"),
                               ([0.5, 0.0], "y", "0.0"),
                               ([math.inf, 0.5], "x", "inf"),
                               ([0.5, math.nan], "y", "nan")):
        low = {"x": 0.0, "y": 0.1}[name]
        with pytest.raises(RangeError, match=rf"^{name} must be finite and "
                           rf"lie in the domain's \[{low}, 1\.0\], got "
                           rf"{value}$"):
            spec.check_point(point)
    with pytest.raises(RangeError, match=r"^points over \('x', 'y'\) need 2 "
                       r"coordinates, got 3$"):
        spec.check_point([0.5] * 3)
    with pytest.raises(RangeError, match=r"must have shape \(2,\), got "
                       r"\(1, 2\)$"):
        spec.check_point([[0.5, 0.5]])
