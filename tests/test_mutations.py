"""Mutation census: each row breaks the library in one named way, and the
acceptance checks it names must then fail.

Tests that compare two implementations catch a change in one of them,
not a mistake in the idea both share; only the acceptance criteria speak
for the paper.  A row is (name, mutation, checks that must fail, checks
that still pass): the mutation monkeypatches one library function, and
only the checks the row names run under it.  A check that still passes
shows the gap the failing ones close.
"""

import inspect

import pytest

import test_acceptance as acceptance
from contfrob import dynsys, fields, stacked


def _zero_pullback_of_d_eta(monkeypatch):
    """Cocycle.pullback_values' congruence, the pullback of dC_0, times 0."""
    inner = dynsys.congruence
    monkeypatch.setattr(dynsys, "congruence", lambda *args: 0.0 * inner(*args))


def _zero_carried_jy(monkeypatch):
    """Every row of the carried J.Y written as 0.0 in both RK4 loops."""
    inner = fields._Source.velocities

    def velocities(self, cols, ys):
        d = len(self.coords)
        return [(j, text if j < d else "0.0")
                for j, text in inner(self, cols, ys)]
    monkeypatch.setattr(fields._Source, "velocities", velocities)


def _transposed_closed_inverse(monkeypatch):
    """stacked._closed_inverse's adj / det transposed: each closed-form
    2 x 2 and 3 x 3 inverse becomes the inverse of the transpose."""
    inner = stacked._closed_inverse

    def closed_inverse(E):
        inv, ok = inner(E)
        return inv.swapaxes(0, 1), ok
    monkeypatch.setattr(stacked, "_closed_inverse", closed_inverse)


MUTATIONS = [
    ("pullback of d(eta) zeroed", _zero_pullback_of_d_eta,
     [acceptance.test_c9b_non_closed_frame_decays_at_the_stable_rate],
     # C9's base frame is closed, so its q is 0 with or without the term
     [acceptance.test_c9_skew_product_growth_and_traces]),
    ("carried J.Y zeroed", _zero_carried_jy,
     [acceptance.test_c10_invariant_suites], []),
    ("closed-form inverse transposed", _transposed_closed_inverse,
     [acceptance.test_c9_skew_product_growth_and_traces,
      acceptance.test_c9b_non_closed_frame_decays_at_the_stable_rate], []),
]


@pytest.fixture
def empty_compile_caches():
    """Both compile caches emptied before and after the test, so no
    generated function outlives a mutation of the generator."""
    def empty():
        for key in list(fields._COMPILED):
            fields._drop(key)
        fields._CODE.clear()
    empty()
    yield
    empty()


def _run(check, tmp_path):
    takes_path = "tmp_path" in inspect.signature(check).parameters
    return check(tmp_path) if takes_path else check()


@pytest.mark.parametrize("mutate, fail, survive",
                         [row[1:] for row in MUTATIONS],
                         ids=[row[0] for row in MUTATIONS])
def test_mutation_fails_its_acceptance_checks(mutate, fail, survive,
                                              monkeypatch, tmp_path,
                                              empty_compile_caches):
    mutate(monkeypatch)
    for check in fail:
        with pytest.raises(AssertionError):
            _run(check, tmp_path)
    for check in survive:
        _run(check, tmp_path)
