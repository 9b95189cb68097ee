import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contfrob.errors import RangeError
from contfrob.fields import Const, coord, exp, log, parse_field, sin
from contfrob.forms import (KForm, exterior_derivative,
                            numeric_wedge_with_two_form, numeric_wedge_norm,
                            one_form, stacked_wedge_norms,
                            two_form_matrix_norm, wedge, wedge_all)

XY = ("x", "y")
XYZ = ("x", "y", "z")

x, y, z = coord("x"), coord("y"), coord("z")


def test_d_of_graph_one_form():
    eta = one_form(XY, {"y": Const(1.0), "x": -y})
    deta = exterior_derivative(eta)
    # d(dy - y dx) = dx ^ dy
    assert deta.comps == {(0, 1): Const(1.0)}


def test_d_of_exact_form_is_zero():
    f = x * y
    df = one_form(XY, {"x": f.diff("x"), "y": f.diff("y")})
    assert exterior_derivative(df).is_zero()


def test_d_squared_zero_random_forms():
    rng = np.random.default_rng(7)
    pool = [x, y, z, x * y, y * z, x + 2 * z, exp(x * y), sin(y * z),
            log(1 + x * x), x * x * z, (1 + y * y) ** -1.0]
    for _ in range(10):
        comps = {name: pool[rng.integers(len(pool))] for name in XYZ}
        omega = one_form(XYZ, comps)
        ddo = exterior_derivative(exterior_derivative(omega))
        assert ddo.is_zero()


def test_wedge_degree_overflow_is_zero_form():
    eta = one_form(XY, {"y": Const(1.0), "x": -x})
    deta = exterior_derivative(eta)
    w = wedge(eta, deta)  # 3-form over 2 coordinates
    assert w.comps == {}


def test_contact_wedge_expansion():
    eta = one_form(XYZ, {"z": Const(1.0), "x": -y})
    deta = exterior_derivative(eta)
    assert deta.comps == {(0, 1): Const(1.0)}
    w = wedge(eta, deta)
    # (dz - y dx) ^ (dx ^ dy) = dx ^ dy ^ dz
    assert w.comps == {(0, 1, 2): Const(1.0)}


def test_wedge_antisymmetry_of_one_forms():
    a = one_form(XYZ, {"x": x, "z": y})
    b = one_form(XYZ, {"y": z})
    ab = wedge(a, b)
    ba = wedge(b, a)
    assert ab == ba.scale(-1.0)


def test_norm_at_is_l2_over_sorted_components():
    w = KForm(XYZ, 2, {(0, 1): Const(3.0), (1, 2): Const(4.0)})
    assert w.norm_at({}) == pytest.approx(5.0)


def test_pair_vector():
    eta = one_form(XY, {"y": Const(1.0), "x": -y})
    X = [Const(1.0), y]  # d/dx + y d/dy
    assert eta.pair_vector(X) == Const(0.0)


def test_numeric_wedge_matches_symbolic():
    rng = np.random.default_rng(5)
    eta1 = one_form(XYZ, {"z": Const(1.0), "x": -y})
    eta2 = one_form(XYZ, {"y": Const(1.0), "x": x * z})
    for d_of in (eta1, eta2):
        dsym = exterior_derivative(d_of)
        for _ in range(5):
            p = rng.uniform(-1, 1, size=3)
            env = dict(zip(XYZ, p))
            rows = np.array([
                [c.evaluate(env) if (i,) in f.comps else 0.0
                 for i, c in ((i, f.comps.get((i,), Const(0.0)))
                              for i in range(3))]
                for f in (eta1, eta2)])
            T = dsym.two_form_matrices_at(env)
            sym = wedge(wedge(eta1, eta2), dsym)
            val_sym = sym.norm_at(env)
            val_num = numeric_wedge_norm(rows, T)
            assert val_num == pytest.approx(float(val_sym), abs=1e-12)


def test_numeric_wedge_matches_symbolic_r4():
    # two rows + a 2-form in R^4: nontrivial top-degree coefficient
    coords = ("x1", "x2", "y1", "y2")
    x1, x2, y1, y2 = (Const(0.0),) * 4  # placeholders, coords via parse
    from contfrob.fields import parse_field
    eta1 = one_form(coords, {"y1": Const(1.0),
                             "x1": parse_field("-y1*x2"),
                             "x2": parse_field("0.3*y2")})
    eta2 = one_form(coords, {"y2": Const(1.0),
                             "x1": parse_field("x1 + y2"),
                             "x2": parse_field("-0.7")})
    rng = np.random.default_rng(9)
    for target in (eta1, eta2):
        dsym = exterior_derivative(target)
        sym = wedge(wedge(eta1, eta2), dsym)
        for _ in range(5):
            env = dict(zip(coords, rng.uniform(-1, 1, size=4)))
            rows = np.zeros((2, 4))
            for r, f in enumerate((eta1, eta2)):
                for (i,), c in f.comps.items():
                    rows[r, i] = c.evaluate(env)
            T = dsym.two_form_matrices_at(env)
            assert numeric_wedge_norm(rows, T) == \
                pytest.approx(float(sym.norm_at(env)), abs=1e-12)


def test_numeric_wedge_contact_value():
    # single row (-y, 0, 1), T = dx ^ dy: coefficient on (0,1,2) is 1
    rows = np.array([[-0.7, 0.0, 1.0]])
    T = np.zeros((3, 3))
    T[0, 1], T[1, 0] = 1.0, -1.0
    idx, coeffs = numeric_wedge_with_two_form(rows, T)
    assert idx == [(0, 1, 2)]
    assert coeffs[0] == pytest.approx(1.0)


def test_two_form_matrix_norm():
    T = np.zeros((4, 4))
    T[0, 1], T[1, 0] = 3.0, -3.0
    T[2, 3], T[3, 2] = 4.0, -4.0
    assert two_form_matrix_norm(T) == pytest.approx(5.0)


def test_wedge_all_associativity_numeric():
    rng = np.random.default_rng(11)
    forms = [one_form(XYZ, {n: Const(float(rng.uniform(-1, 1))) for n in XYZ})
             for _ in range(3)]
    w1 = wedge(wedge(forms[0], forms[1]), forms[2])
    w2 = wedge(forms[0], wedge(forms[1], forms[2]))
    env = {}
    assert w1.norm_at(env) == pytest.approx(w2.norm_at(env))
    assert wedge_all(forms).norm_at(env) == pytest.approx(w1.norm_at(env))


@settings(max_examples=60, deadline=None)
@given(D=st.integers(2, 4), n=st.integers(0, 2), N=st.integers(1, 200),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_wedge_norms_equal_per_point_reference(D, n, N, seed):
    # generated frames: rows and antisymmetric 2-forms over several
    # magnitudes, with about a third of the entries exactly zero
    rng = np.random.default_rng(seed)

    def entries(shape):
        v = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
        return np.where(rng.random(shape) < 0.3, 0.0, v)

    rows = entries((N, n, D))
    T = np.triu(entries((N, n, D, D)), 1)
    T = T - np.swapaxes(T, -1, -2)
    ref = np.array([[numeric_wedge_norm(rows[p], T[p, j]) for j in range(n)]
                    for p in range(N)]).reshape(N, n)
    assert np.array_equal(stacked_wedge_norms(rows, T), ref)


def test_kform_index_mismatch_is_range_error():
    with pytest.raises(RangeError, match=r"index \(0,\) of a 2-form is not"):
        KForm(XY, 2, {(0,): Const(1.0)})
    with pytest.raises(RangeError, match=r"index \(1, 0\) of a 2-form"):
        KForm(XY, 2, {(1, 0): Const(1.0)})


def test_kform_add_across_spaces_is_range_error():
    with pytest.raises(RangeError, match="cannot add a 1-form"):
        one_form(XY, {"x": y}) + one_form(XYZ, {"x": y})
    with pytest.raises(RangeError, match="to a 2-form over"):
        one_form(XY, {"x": y}) + exterior_derivative(one_form(XY, {"x": y}))


def test_pair_vector_of_a_two_form_is_range_error():
    two = exterior_derivative(one_form(XY, {"x": y}))
    with pytest.raises(RangeError, match="pair_vector needs a 1-form, got "
                                         "a 2-form"):
        two.pair_vector([Const(1.0), Const(0.0)])


def test_two_form_matrices_of_a_one_form_is_range_error():
    with pytest.raises(RangeError, match="two_form_matrices_at needs a "
                                         "2-form"):
        one_form(XY, {"x": y}).two_form_matrices_at(
            {"x": np.zeros(2), "y": np.zeros(2)})


def test_wedge_across_coordinates_is_range_error():
    with pytest.raises(RangeError, match=r"cannot wedge forms over "
                                         r"\('x', 'y'\) and"):
        wedge(one_form(XY, {"x": y}), one_form(XYZ, {"z": x}))
