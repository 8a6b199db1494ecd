"""Solver tests: integrators, steady state, energy balance, readout."""

import numpy as np
import pytest

from repro.thermal.calibration import (
    analytic_layered_wall,
    uniform_floorplan,
)
from repro.thermal.floorplan import floorplan_4xarm11
from repro.thermal.grid import build_grid
from repro.thermal.rc_network import RCNetwork
from repro.thermal.solver import ThermalSolver


def make_solver(power=10.0, die_res=(3, 3), plan=None, component="block"):
    plan = plan or uniform_floorplan()
    grid = build_grid(
        plan, mode="uniform", die_resolution=die_res, spreader_resolution=die_res
    )
    net = RCNetwork(grid)
    if power:
        net.set_power({component: power})
    return plan, net, ThermalSolver(net)


def test_initial_state_is_ambient():
    _, net, solver = make_solver(power=0.0)
    assert solver.max_temperature() == pytest.approx(net.properties.ambient)
    assert solver.time == 0.0


def test_no_power_stays_at_ambient():
    _, net, solver = make_solver(power=0.0)
    solver.run(duration=1.0, dt=0.05)
    assert np.allclose(solver.temperatures, net.properties.ambient, atol=1e-9)


def test_step_response_is_monotone_and_bounded():
    _, net, solver = make_solver(power=10.0)
    previous = solver.max_temperature()
    for _ in range(40):
        solver.step_be(0.1)
        current = solver.max_temperature()
        assert current >= previous - 1e-9
        previous = current
    steady = ThermalSolver(net).steady_state()
    assert previous <= steady.max() + 1e-6


def test_steady_state_matches_analytic_wall():
    plan, net, solver = make_solver(power=10.0, die_res=(4, 4))
    solver.steady_state()
    analytic = analytic_layered_wall(10.0, plan.area)
    rise_sim = solver.max_temperature() - net.properties.ambient
    rise_ana = analytic - net.properties.ambient
    assert rise_sim == pytest.approx(rise_ana, rel=0.02)


def test_transient_converges_to_steady_state():
    _, net, solver = make_solver(power=10.0)
    steady = ThermalSolver(net).steady_state()
    solver.run(duration=30.0, dt=0.25)  # many time constants
    assert np.allclose(solver.temperatures, steady, rtol=1e-3)


def test_energy_balance_at_steady_state():
    _, net, solver = make_solver(power=7.5)
    solver.steady_state()
    assert net.heat_outflow(solver.temperatures) == pytest.approx(7.5, rel=1e-6)


def test_forward_euler_matches_backward_euler_small_dt():
    _, net, be_solver = make_solver(power=5.0)
    _, _, fe_solver = make_solver(power=5.0)
    fe_solver.network = be_solver.network
    dt = 1e-4
    for _ in range(200):
        be_solver.step_be(dt)
        fe_solver.step_fe(dt)
    assert np.allclose(be_solver.temperatures, fe_solver.temperatures, atol=0.05)


def test_forward_euler_stability_guard():
    _, net, solver = make_solver(power=5.0)
    with pytest.raises(ValueError, match="unstable"):
        solver.step_fe(10.0)


def test_step_validates_dt():
    _, _, solver = make_solver()
    with pytest.raises(ValueError):
        solver.step_be(0.0)
    with pytest.raises(ValueError):
        solver.step_fe(-1.0)


@pytest.mark.parametrize("backend", ["sparse_be", "cached_lu", "batched_lu"])
@pytest.mark.parametrize("dt", [float("nan"), float("inf"), float("-inf")])
def test_step_rejects_non_finite_dt(backend, dt):
    _, net, _ = make_solver()
    solver = ThermalSolver(net, backend=backend)
    for step in (solver.step_be, solver.step_fe):
        with pytest.raises(ValueError, match=f"dt must be positive and finite, got {dt}"):
            step(dt)
    # The rejected step left the state untouched.
    assert solver.time == 0.0
    assert np.all(solver.temperatures == net.properties.ambient)


def test_run_callback_and_time():
    _, _, solver = make_solver(power=2.0)
    seen = []
    solver.run(duration=0.5, dt=0.1, callback=lambda t, temps: seen.append(t))
    assert len(seen) == 5
    assert seen[-1] == pytest.approx(0.5)
    assert solver.time == pytest.approx(0.5)


def test_component_temperature_readout():
    plan = floorplan_4xarm11()
    grid = build_grid(plan, mode="component", spreader_resolution=(2, 2))
    net = RCNetwork(grid)
    net.set_power({"arm11_0": 2.0})  # only one core dissipates
    solver = ThermalSolver(net)
    solver.steady_state()
    temps = solver.component_temperatures()
    hottest = max(temps, key=temps.get)
    assert hottest == "arm11_0"
    # Components far from the heater run cooler.
    assert temps["arm11_3"] < temps["arm11_0"]
    with pytest.raises(KeyError):
        solver.component_temperature("bogus")


def test_hot_spot_is_localized():
    plan = floorplan_4xarm11()
    grid = build_grid(plan, mode="component", spreader_resolution=(3, 3))
    net = RCNetwork(grid)
    net.set_power({"arm11_0": 3.0})
    solver = ThermalSolver(net)
    solver.steady_state()
    t0 = solver.component_temperature("arm11_0")
    t3 = solver.component_temperature("arm11_3")
    ambient = net.properties.ambient
    # The diagonal core sees less of the rise than the hot spot itself;
    # the copper spreader equalizes much of it, so the gap is modest.
    assert (t3 - ambient) < 0.95 * (t0 - ambient)


def test_reset():
    _, net, solver = make_solver(power=5.0)
    solver.run(duration=1.0, dt=0.1)
    solver.reset()
    assert solver.time == 0.0
    assert solver.max_temperature() == pytest.approx(net.properties.ambient)
    solver.reset(temperature=333.0)
    assert solver.max_temperature() == pytest.approx(333.0)


def test_nonlinear_solver_hotter_than_linear_estimate():
    """The non-linear silicon must run hotter than a constant-k(300) model
    (conductivity drops as the die heats) — the effect the paper adopts
    non-linear resistances for."""
    plan, net, solver = make_solver(power=40.0, die_res=(4, 4))
    solver.steady_state()
    nonlinear_max = solver.max_temperature()

    from repro.thermal.properties import Material, ThermalProperties

    linear_props = ThermalProperties(
        die_material=Material("si-linear", 150.0, 1.628e6)
    )
    grid = build_grid(
        plan,
        properties=linear_props,
        mode="uniform",
        die_resolution=(4, 4),
        spreader_resolution=(4, 4),
    )
    linear_net = RCNetwork(grid)
    linear_net.set_power({"block": 40.0})
    linear_solver = ThermalSolver(linear_net)
    linear_solver.steady_state()
    assert nonlinear_max > linear_solver.max_temperature()
