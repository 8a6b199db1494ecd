"""Sweeps build one floorplan per shape and one network per structure."""

import dataclasses
import random

import pytest

from repro.dse.space import default_points, point_scenario
from repro.scenario.registry import FLOORPLANS
from repro.thermal import rc_network
from repro.thermal.calibration import uniform_floorplan
from repro.thermal.floorplan import floorplan_4xarm11, floorplan_hetero
from repro.thermal.rc_network import clear_assembly_cache, network_for


def default_space_structures():
    """The distinct (floorplan, grid configuration) pairs of the default
    design space, in a fixed order."""
    structures = {}
    for point in default_points():
        scenario = point_scenario(point)
        plan = FLOORPLANS.get(scenario.floorplan["name"])(
            **scenario.floorplan["params"]
        )
        config = scenario.config
        key = (plan.name, config.grid_mode, config.refine_critical,
               config.die_resolution, config.spreader_resolution)
        structures.setdefault(key, (plan, config))
    return list(structures.values())


def test_a_shuffled_sweep_builds_each_default_structure_once(monkeypatch):
    structures = default_space_structures()
    assert len(structures) == 48  # 24 core mixes x 2 spreader grids
    built = []
    build_grid = rc_network.build_grid

    def counted_build_grid(*args, **kwargs):
        built.append(args[0].name)
        return build_grid(*args, **kwargs)

    monkeypatch.setattr(rc_network, "build_grid", counted_build_grid)
    clear_assembly_cache()
    rng = random.Random(14)
    try:
        for _ in range(2):
            rng.shuffle(structures)
            for plan, config in structures:
                network_for(
                    plan,
                    mode=config.grid_mode,
                    refine_critical=config.refine_critical,
                    die_resolution=config.die_resolution,
                    spreader_resolution=config.spreader_resolution,
                )
    finally:
        clear_assembly_cache()
    assert len(built) == 48


def test_the_assembly_cache_evicts_the_least_recently_used(monkeypatch):
    limit = rc_network._ASSEMBLY_CACHE_LIMIT
    plans = [uniform_floorplan(width=(1 + k / 100) * 1e-3)
             for k in range(limit + 1)]
    built = []
    build_grid = rc_network.build_grid

    def counted_build_grid(*args, **kwargs):
        built.append(args[0].width)
        return build_grid(*args, **kwargs)

    monkeypatch.setattr(rc_network, "build_grid", counted_build_grid)
    clear_assembly_cache()
    try:
        for plan in plans[:limit]:
            network_for(plan)
        network_for(plans[0])  # a hit makes the oldest entry the newest
        network_for(plans[limit])  # evicts plans[1], now the oldest
        assert len(built) == limit + 1
        network_for(plans[0])
        assert len(built) == limit + 1
        network_for(plans[1])
        assert len(built) == limit + 2
    finally:
        clear_assembly_cache()


def test_parameterized_floorplans_are_shared():
    factory = FLOORPLANS.get("hetero")
    plan = factory(big=4, little=5)
    assert factory(big=4, little=5) is plan
    # Canonical parameters: positional, keyword and defaulted spellings
    # of one shape share the object.
    assert floorplan_hetero(4, 5, "arm11") is plan
    assert floorplan_hetero(big=2) is floorplan_hetero(2, 2)
    assert floorplan_4xarm11() is floorplan_4xarm11()


def test_parameter_types_do_not_alias():
    # True == 1 as a dict key, but the factory names the plan after the
    # value's own spelling.
    exact = floorplan_hetero(big=1, little=1)
    spelled = floorplan_hetero(big=True, little=1)
    assert spelled is not exact
    assert spelled.name == "hetero_Truexarm11_1xarm7"


def test_invalid_parameters_raise_every_time():
    for _ in range(2):
        with pytest.raises(ValueError):
            floorplan_hetero(big=0, little=0)


def test_memoized_floorplans_are_immutable():
    plan = FLOORPLANS.get("hetero")(big=4, little=5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.width = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.components[0].x = 0.5
    assert isinstance(plan.components, tuple)
    with pytest.raises(AttributeError):
        plan.components.append(plan.components[0])
