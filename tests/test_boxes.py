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
    assert not {"m", "n", "coords", "_check_domain"} & set(vars(type(spec)))
    with pytest.raises(RangeError, match=r"needs a domain box over "
                       r"\('x', 'y'\), got one over \('a', 'b'\)$"):
        make(Box.from_dict({"a": (0.0, 1.0), "b": (0.1, 1.0)}))
