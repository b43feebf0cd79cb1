import dataclasses

import numpy as np
import pytest

from latsweep.assembly import assemble
from latsweep.errors import InitialConditionError
from latsweep.generators import build_example1, example1_prestressed_stress
from latsweep.projection import project
from latsweep.sweeping import (
    Space,
    build_moving_set,
    initial_state,
    safe_load_check,
)

from helpers import box_offset, full_form_set, moving_set_at, recover_stress


def test_initial_state_zero_stress(example1):
    _, loads, system = example1
    spec = build_moving_set(system, Space.FULL, loads)
    state = initial_state(system, np.zeros(10), loads, Space.FULL, spec)
    assert np.allclose(state.y, system.G @ (loads.r(0.0) - loads.r(0.0)))
    assert np.allclose(state.sigma, 0.0)
    reduced = build_moving_set(system, Space.REDUCED, loads)
    state_v = initial_state(system, np.zeros(10), loads, Space.REDUCED, reduced)
    assert np.allclose(state_v.y, reduced.reduce(state.y), atol=1e-12)


def test_initial_state_prestressed_is_valid(example1):
    _, loads, system = example1
    sigma0 = example1_prestressed_stress()
    state = initial_state(system, sigma0, loads, Space.FULL)
    assert np.allclose(state.sigma, sigma0)
    assert np.allclose(state.sigma / system.stiffness, sigma0)  # unit stiffness


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


def test_initial_state_rejects_a_stress_that_is_no_number(example1):
    _, loads, system = example1
    sigma0 = example1_prestressed_stress()
    sigma0[3] = np.nan
    with pytest.raises(InitialConditionError, match="spring 3 is outside"):
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


def _verdict(system, sigma0, loads):
    try:
        initial_state(system, sigma0, loads, Space.REDUCED)
    except InitialConditionError as exc:
        return str(exc)
    return "accepted"


@pytest.mark.parametrize("scale", [1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9])
def test_initial_state_checks_do_not_depend_on_units(scale):
    # both checks are relative to the springs' elastic ranges: with limits
    # and stiffness scaled together, the prestress is accepted and a stress
    # pushed off the plane by 1e-3 of spring 0's range rejected at any scale
    definition, loads = build_example1()
    scaled = dataclasses.replace(
        definition,
        stiffness=definition.stiffness * scale,
        lower_limits=definition.lower_limits * scale,
        upper_limits=definition.upper_limits * scale,
    )
    system = assemble(scaled)
    width = scaled.upper_limits - scaled.lower_limits
    prestress = scale * example1_prestressed_stress()
    assert _verdict(system, prestress, loads) == "accepted"
    off_plane = prestress.copy()
    off_plane[0] += 1e-3 * width[0]
    assert "equilibrated" in _verdict(system, off_plane, loads)
    # with the limits alone scaled, elongations move with them: a stress
    # 10 % of its range outside the box is rejected, 1e-12 of it clamped
    limits_only = assemble(dataclasses.replace(
        definition, lower_limits=scaled.lower_limits, upper_limits=scaled.upper_limits
    ))
    outside = np.zeros(definition.n_springs)
    outside[4] = scaled.upper_limits[4] + 0.1 * width[4]
    assert "elastic range" in _verdict(limits_only, outside, loads)
    rounded = prestress + 1e-12 * width * np.sign(prestress)
    assert _verdict(limits_only, rounded, loads) == "accepted"


def test_moving_set_instantiation(example1):
    # one set for both spaces: the shifted box on the rows V, no equality rows
    definition, loads, system = example1
    m = 10
    offset = system.G @ (loads.r(0.0) - loads.r(0.0))
    expected_upper = definition.upper_limits / definition.stiffness + offset
    expected_lower = definition.lower_limits / definition.stiffness + offset
    for space in Space:
        spec = build_moving_set(system, space, loads)
        poly = moving_set_at(spec, 0.0, loads)
        assert np.allclose(poly.b, expected_upper)
        assert np.allclose(poly.lower, expected_lower)
        assert poly.A is system.V_basis and poly.n_inequalities == 2 * m
        assert poly.A_eq is None and poly.b_eq is None


def test_moving_set_translation_for_constant_force(example1):
    _, loads, system = example1
    t0, t1 = 0.01, 0.05
    shift = system.G @ (loads.r(t1) - loads.r(t0))
    for space in (Space.FULL, Space.REDUCED):
        spec = build_moving_set(system, space, loads)
        d0 = moving_set_at(spec, t0, loads)
        d1 = moving_set_at(spec, t1, loads)
        assert np.allclose(d1.b - d0.b, shift)
        assert np.allclose(d1.lower - d0.lower, shift)
        # the same row arrays every time: no rows are built per set
        assert d1.A is d0.A and d1.A_eq is d0.A_eq


def test_reduced_set_is_projection_of_full(example1):
    # membership cross-check between the set on the rows V and its full
    # form, the box with the plane as equality rows U^T K
    _, loads, system = example1
    red = build_moving_set(system, Space.REDUCED, loads)
    t = 0.03
    poly_full = full_form_set(system, box_offset(red, loads, t))
    poly_red = moving_set_at(red, t, loads)
    rng = np.random.default_rng(4)
    for _ in range(20):
        probe = rng.standard_normal(10) * 1e-3
        y = project(system.stiffness, probe, poly_full).point
        assert poly_red.contains(red.reduce(y), tol=1e-8)
        yv = project(np.eye(2), rng.standard_normal(2) * 1e-3, poly_red).point
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
        assert np.allclose(eps, state.sigma / system.stiffness, atol=1e-14)


def test_zero_displacement_gives_zero_stress(example1):
    _, loads, system = example1
    spec = build_moving_set(system, Space.FULL, loads)
    y = system.G @ (loads.r(0.2 * loads.horizon) - loads.r(0.0))
    eps, sigma = recover_stress(system, y, 0.2 * loads.horizon, loads, Space.FULL, spec)
    assert np.allclose(sigma, 0.0, atol=1e-15)
