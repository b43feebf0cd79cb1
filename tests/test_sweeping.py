import numpy as np
import pytest

from latsweep.errors import InitialConditionError
from latsweep.generators import example1_prestressed_stress
from latsweep.projection import project
from latsweep.sweeping import (
    Space,
    build_moving_set,
    initial_state,
    moving_set_at,
    recover_stress,
    safe_load_check,
)


def test_initial_state_zero_stress(example1):
    _, loads, system = example1
    spec = build_moving_set(system, Space.FULL, loads)
    state = initial_state(system, np.zeros(10), loads, Space.FULL, spec)
    assert np.allclose(state.y, system.G @ loads.r(0.0))
    assert np.allclose(state.sigma, 0.0)
    reduced = build_moving_set(system, Space.REDUCED, loads)
    state_v = initial_state(system, np.zeros(10), loads, Space.REDUCED, reduced)
    assert np.allclose(state_v.y, system.P_V @ state.y, atol=1e-12)


def test_initial_state_prestressed_is_valid(example1):
    _, loads, system = example1
    sigma0 = example1_prestressed_stress()
    state = initial_state(system, sigma0, loads, Space.FULL)
    assert np.allclose(state.sigma, sigma0)
    assert np.allclose(state.epsilon, sigma0)  # unit stiffness


def test_initial_state_rejects_inadmissible(example1):
    definition, loads, system = example1
    sigma0 = np.zeros(10)
    sigma0[4] = definition.upper_limits[4] * 1.5
    with pytest.raises(InitialConditionError, match="elastic range"):
        initial_state(system, sigma0, loads, Space.FULL)


def test_initial_state_rejects_unbalanced(example1):
    _, loads, system = example1
    sigma0 = np.zeros(10)
    sigma0[0] = 5e-4  # a lone spring stress cannot be self-equilibrated
    with pytest.raises(InitialConditionError, match="equilibrated"):
        initial_state(system, sigma0, loads, Space.FULL)


def test_initial_state_clamps_rounding_noise(example1):
    definition, loads, system = example1
    sigma0 = np.zeros(10)
    sigma0 += system.V_basis[:, 0] * definition.upper_limits[0]
    sigma0 = np.clip(sigma0, definition.lower_limits, definition.upper_limits)
    sigma0 = sigma0 + np.sign(sigma0) * 1e-13  # tiny overshoot as from a file
    state = initial_state(system, sigma0, loads, Space.FULL)
    assert np.all(state.sigma <= definition.upper_limits)
    assert np.all(state.sigma >= definition.lower_limits)


def test_moving_set_instantiation(example1):
    definition, loads, system = example1
    spec = build_moving_set(system, Space.FULL, loads)
    poly = moving_set_at(spec, 0.0, loads)
    m = 10
    offset = system.G @ loads.r(0.0)
    expected_upper = definition.upper_limits / definition.stiffness + offset
    expected_lower = definition.lower_limits / definition.stiffness + offset
    assert np.allclose(poly.b[:m], expected_upper)
    assert np.allclose(poly.b[m:], -expected_lower)
    assert np.allclose(poly.A[:m], np.eye(m))
    assert poly.A_eq.shape == (8, 10)
    assert np.allclose(poly.b_eq, 0.0)


def test_moving_set_translation_for_constant_force(example1):
    _, loads, system = example1
    t0, t1 = 0.01, 0.05
    shift = system.G @ (loads.r(t1) - loads.r(t0))
    for space in (Space.FULL, Space.REDUCED):
        spec = build_moving_set(system, space, loads)
        d0 = moving_set_at(spec, t0, loads)
        d1 = moving_set_at(spec, t1, loads)
        assert np.allclose(d1.b[:10] - d0.b[:10], shift)
        assert np.allclose(d1.b[10:] - d0.b[10:], -shift)
        # the same row arrays every time, so the projection keeps its factors
        assert d1.A is d0.A and d1.A_eq is d0.A_eq


def test_reduced_set_is_projection_of_full(example1):
    # membership cross-check between the two coordinate systems
    _, loads, system = example1
    full = build_moving_set(system, Space.FULL, loads)
    red = build_moving_set(system, Space.REDUCED, loads)
    t = 0.03
    poly_full = moving_set_at(full, t, loads)
    poly_red = moving_set_at(red, t, loads)
    rng = np.random.default_rng(4)
    for _ in range(20):
        probe = rng.standard_normal(10) * 1e-3
        y = project(system.stiffness, probe, poly_full).point
        assert poly_red.contains(system.P_V @ y, tol=1e-8)
        yv = project(system.S_V, rng.standard_normal(2) * 1e-3, poly_red).point
        assert poly_full.contains(system.V_basis @ yv, tol=1e-8)


def test_safe_load_checks(example1):
    _, _, system = example1
    assert safe_load_check(system, None)
    assert safe_load_check(system, np.zeros(12))
    rng = np.random.default_rng(12)
    f = rng.standard_normal(12)
    assert not safe_load_check(system, 1e6 * f)


def test_recover_stress_round_trip(example1):
    _, loads, system = example1
    sigma0 = example1_prestressed_stress()
    for space in (Space.FULL, Space.REDUCED):
        spec = build_moving_set(system, space, loads)
        state = initial_state(system, sigma0, loads, space, spec)
        eps, sigma = recover_stress(system, state.y, 0.0, loads, space, spec)
        assert np.allclose(sigma, sigma0, atol=1e-14)
        assert np.allclose(eps, state.epsilon, atol=1e-14)


def test_zero_displacement_gives_zero_stress(example1):
    _, loads, system = example1
    spec = build_moving_set(system, Space.FULL, loads)
    y = system.G @ loads.r(0.2 * loads.horizon) - 0.0
    eps, sigma = recover_stress(system, y, 0.2 * loads.horizon, loads, Space.FULL, spec)
    assert np.allclose(sigma, 0.0, atol=1e-15)
