import math

import numpy as np
import pytest

from pathdist.errors import InputError
from pathdist.frechet import bisect_decision, discrete_frechet, frechet_decision, frechet_distance
from pathdist.geometry import PolyLine

from oracles import resample_points


def test_decision_identical_curves_at_zero():
    f = PolyLine([(0, 0), (1, 0)])
    assert frechet_decision(f, f, 0.0)


def test_decision_parallel_offset_segments():
    f = PolyLine([(0, 0), (1, 0)])
    g = PolyLine([(0, 1), (1, 1)])
    assert not frechet_decision(f, g, 0.999)
    assert frechet_decision(f, g, 1.001)


def test_decision_rejects_negative_eps_and_bad_input():
    f = PolyLine([(0, 0), (1, 0)])
    with pytest.raises(InputError):
        frechet_decision(f, f, -0.5)
    with pytest.raises(InputError):
        frechet_decision(PolyLine([(0, float("nan"))]), f, 1.0)


def test_decision_monotone_in_eps():
    rng = np.random.default_rng(7)
    for _ in range(10):
        f = PolyLine(rng.uniform(0, 10, (4, 2)))
        g = PolyLine(rng.uniform(0, 10, (5, 2)))
        answers = [frechet_decision(f, g, e) for e in np.linspace(0, 20, 40)]
        assert answers == sorted(answers)  # False... then True...


def test_distance_identical_and_translated():
    f = PolyLine([(0, 0), (3, 0), (5, 2)])
    assert frechet_distance(f, f, 1e-6) == 0.0
    g = PolyLine(f.points + np.array([0.0, 2.5]))
    assert frechet_distance(f, g, 1e-6) == pytest.approx(2.5, abs=1e-6)


def test_distance_symmetry_and_reversal():
    rng = np.random.default_rng(11)
    for _ in range(8):
        f = PolyLine(rng.uniform(0, 10, (5, 2)))
        g = PolyLine(rng.uniform(0, 10, (5, 2)))
        d = frechet_distance(f, g, 1e-4)
        assert frechet_distance(g, f, 1e-4) == pytest.approx(d, abs=2e-4)
        assert frechet_distance(f.reversed(), g.reversed(), 1e-4) == pytest.approx(d, abs=2e-4)


def test_distance_lower_bound_by_endpoints():
    rng = np.random.default_rng(3)
    for _ in range(8):
        f = PolyLine(rng.uniform(0, 10, (4, 2)))
        g = PolyLine(rng.uniform(0, 10, (6, 2)))
        d = frechet_distance(f, g, 1e-4)
        lb = max(
            float(np.hypot(*(f.points[0] - g.points[0]))),
            float(np.hypot(*(f.points[-1] - g.points[-1]))),
        )
        assert d >= lb - 1e-4


def test_single_point_curves():
    p = PolyLine([(0, 0)])
    q = PolyLine([(3, 4)])
    assert frechet_distance(p, q, 1e-6) == pytest.approx(5.0, abs=1e-6)
    g = PolyLine([(0, 1), (4, 1)])
    # Constant curve against a segment: worst distance to the far end.
    assert frechet_distance(p, g, 1e-6) == pytest.approx(math.hypot(4, 1), abs=1e-6)


def test_duplicate_points_are_collapsed():
    f = PolyLine([(0, 0), (0, 0), (1, 0), (1, 0)])
    g = PolyLine([(0, 0), (1, 0)])
    assert frechet_distance(f, g, 1e-6) == 0.0


def test_discrete_frechet_examples():
    assert discrete_frechet(PolyLine([(0, 0)]), PolyLine([(3, 4)])) == pytest.approx(5.0)
    f = PolyLine([(0, 0), (1, 1), (2, 0)])
    assert discrete_frechet(f, f) == 0.0
    # 2x2 dynamic-programming table by hand: every pairing costs 1.
    assert discrete_frechet(PolyLine([(0, 0), (2, 0)]), PolyLine([(0, 1), (2, 1)])) == 1.0


def test_discrete_upper_bounds_continuous():
    rng = np.random.default_rng(23)
    for _ in range(10):
        f = PolyLine(rng.uniform(0, 10, (5, 2)))
        g = PolyLine(rng.uniform(0, 10, (5, 2)))
        assert discrete_frechet(f, g) >= frechet_distance(f, g, 1e-4) - 1e-4


def test_decision_agrees_with_resampled_discrete_oracle():
    # With both curves resampled at spacing s the discrete value exceeds the
    # continuous one by at most s, bracketing the decision boundary.
    rng = np.random.default_rng(42)
    spacing = 0.25
    for _ in range(10):
        f = PolyLine(rng.uniform(0, 10, (5, 2)))
        g = PolyLine(rng.uniform(0, 10, (5, 2)))
        rf, _ = resample_points(f.points, spacing)
        rg, _ = resample_points(g.points, spacing)
        dd = discrete_frechet(PolyLine(rf), PolyLine(rg))
        assert frechet_decision(f, g, dd + 1e-9)
        d = frechet_distance(f, g, 1e-4)
        assert d - 1e-4 <= dd <= d + spacing + 1e-4


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_tolerance_and_nan_eps_are_rejected(bad):
    f = PolyLine([(0, 0), (1, 0)])
    with pytest.raises(InputError, match="tol"):
        frechet_distance(f, f, bad)
    if bad != math.inf:
        with pytest.raises(InputError, match="eps"):
            frechet_decision(f, f, bad)
    else:
        assert frechet_decision(f, f, bad)


def _counted(decide, limit=2000):
    calls = []

    def counted(eps):
        calls.append(eps)
        assert len(calls) <= limit, "bisection does not end"
        return decide(eps)

    return counted, calls


@pytest.mark.parametrize("tol", [1e-300, 5e-324])
def test_bisection_ends_below_the_float_spacing_of_its_bracket(tol):
    decide, calls = _counted(lambda e: e >= 0.3)
    mid = bisect_decision(decide, 0.0, 1.0, tol)
    # The final bracket holds no float between its ends, around 0.3.
    assert mid in (0.3, math.nextafter(0.3, 0.0))
    assert len(calls) < 1100


def test_bisection_at_a_coarse_tolerance_visits_the_same_midpoints():
    decide, calls = _counted(lambda e: e >= 0.3)
    assert bisect_decision(decide, 0.0, 1.0, 1e-3) == 0.30029296875
    assert calls == [0.5, 0.25, 0.375, 0.3125, 0.28125, 0.296875, 0.3046875, 0.30078125, 0.298828125, 0.2998046875]


def test_frechet_distance_ends_at_a_tolerance_below_the_float_spacing():
    f = PolyLine([(0.0, 0.0), (10.0, 0.0)])
    g = PolyLine([(0.0, 0.5), (5.0, 3.0), (10.0, 0.5)])
    assert frechet_distance(f, g, 1e-300) == pytest.approx(3.0, abs=1e-12)
