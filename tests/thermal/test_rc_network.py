"""RC network assembly tests: capacitances, conductances, boundaries."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.sparse.linalg import spsolve

from repro.thermal.backends import SparseBE
from repro.thermal.calibration import uniform_floorplan
from repro.thermal.floorplan import (
    floorplan_4xarm7,
    floorplan_4xarm11,
    floorplan_hetero,
)
from repro.thermal.grid import build_grid
from repro.thermal.properties import (
    PACKAGE_TO_AIR_RESISTANCE,
    Material,
    ThermalProperties,
    silicon_conductivity,
)
from repro.thermal.rc_network import RCNetwork, clear_assembly_cache, network_for


def make_network(die_res=(3, 3), spread_res=(3, 3)):
    plan = uniform_floorplan()
    grid = build_grid(
        plan, mode="uniform", die_resolution=die_res, spreader_resolution=spread_res
    )
    return plan, grid, RCNetwork(grid)


def test_capacitances_match_materials():
    props = ThermalProperties()
    plan, grid, net = make_network()
    for cell in grid.cells:
        material = (
            props.die_material if cell.layer == "die" else props.spreader_material
        )
        expected = material.volumetric_heat * cell.volume
        assert net.capacitance[cell.index] == pytest.approx(expected)


def test_total_capacitance_is_stack_capacitance():
    props = ThermalProperties()
    plan, grid, net = make_network()
    expected = plan.area * (
        props.die_thickness * props.die_material.volumetric_heat
        + props.spreader_thickness * props.spreader_material.volumetric_heat
    )
    assert net.capacitance.sum() == pytest.approx(expected, rel=1e-9)


def test_ambient_conductances_parallel_to_package_resistance():
    # The per-cell convection resistances in parallel must reproduce the
    # package-to-air resistance (plus the copper half layer).
    plan, grid, net = make_network()
    g_total = net.g_ambient.sum()
    assert g_total > 0
    r_parallel = 1.0 / g_total
    assert PACKAGE_TO_AIR_RESISTANCE <= r_parallel <= PACKAGE_TO_AIR_RESISTANCE * 1.05


def test_only_spreader_cells_touch_ambient():
    plan, grid, net = make_network()
    for cell in grid.cells:
        if cell.layer == "die":
            assert net.g_ambient[cell.index] == 0.0
        else:
            assert net.g_ambient[cell.index] > 0.0


def test_conductance_matrix_symmetric():
    plan, grid, net = make_network()
    t = np.full(net.num_cells, 320.0)
    g = net.system_matrix(t, 0.0)
    dense = g.toarray()
    assert np.allclose(dense, dense.T)


def test_conductance_matrix_rows_sum_to_ambient_leak():
    # Graph Laplacian rows sum to zero except for the ambient conductance.
    plan, grid, net = make_network()
    t = np.full(net.num_cells, 300.0)
    g = net.system_matrix(t, 0.0).toarray()
    rows = g.sum(axis=1)
    assert np.allclose(rows, net.g_ambient, atol=1e-12)


def test_hotter_silicon_conducts_less():
    plan, grid, net = make_network()
    cold = net.edge_conductances(np.full(net.num_cells, 300.0))
    hot = net.edge_conductances(np.full(net.num_cells, 400.0))
    # Edges between two silicon cells must weaken with temperature.
    si_edges = [
        e
        for e in range(len(net.edge_i))
        if net.is_nonlinear[net.edge_i[e]] and net.is_nonlinear[net.edge_j[e]]
    ]
    assert si_edges
    for e in si_edges:
        assert hot[e] < cold[e]
    ratio = hot[si_edges[0]] / cold[si_edges[0]]
    assert ratio == pytest.approx(
        silicon_conductivity(400.0) / silicon_conductivity(300.0)
    )


def test_set_power_spreads_by_overlap():
    plan, grid, net = make_network(die_res=(2, 2))
    net.set_power({"block": 8.0})
    die_powers = net.power[[c.index for c in grid.cells_of("die")]]
    assert die_powers.sum() == pytest.approx(8.0)
    assert np.allclose(die_powers, 2.0)  # four equal cells
    spread = net.power[[c.index for c in grid.cells_of("spreader")]]
    assert np.all(spread == 0.0)


def test_set_power_unknown_component():
    plan, grid, net = make_network()
    with pytest.raises(KeyError):
        net.set_power({"bogus": 1.0})


def test_heat_outflow_zero_at_ambient():
    plan, grid, net = make_network()
    t = np.full(net.num_cells, net.properties.ambient)
    assert net.heat_outflow(t) == pytest.approx(0.0)


@settings(max_examples=25, deadline=None)
@given(watts=st.floats(min_value=0.01, max_value=50.0))
def test_power_injection_conserves_watts(watts):
    """Property: injected power equals the sum of the current sources."""
    plan, grid, net = make_network()
    net.set_power({"block": watts})
    assert net.total_power() == pytest.approx(watts, rel=1e-12)


# -- fixed-pattern assembly vs the COO oracle ----------------------------------

def coo_system_matrix(net, temperatures, c_over_dt):
    """The straightforward scipy route the assembly plan must reproduce
    bit for bit: COO -> CSR (summing duplicates), ``+ diags``, CSC."""
    n = net.num_cells
    g = net.edge_conductances(temperatures)
    i, j = net.edge_i, net.edge_j
    rows = np.concatenate([i, j, i, j, np.arange(n)])
    cols = np.concatenate([j, i, i, j, np.arange(n)])
    data = np.concatenate([-g, -g, g, g, net.g_ambient])
    g_matrix = sparse.csr_matrix((data, (rows, cols)), shape=(n, n))
    return (g_matrix + sparse.diags(c_over_dt)).tocsc()


def assert_same_bits(actual, expected):
    assert actual.format == expected.format == "csc"
    assert np.array_equal(actual.indptr, expected.indptr)
    assert np.array_equal(actual.indices, expected.indices)
    assert np.array_equal(
        actual.data.view(np.int64), expected.data.view(np.int64)
    )


ORACLE_NETWORKS = {
    "component": lambda: network_for(
        floorplan_4xarm7(), spreader_resolution=(3, 3)
    ),
    "refined x2": lambda: network_for(
        floorplan_4xarm11(), refine_critical=2, spreader_resolution=(4, 4)
    ),
    **{
        # A 2x2 spreader over a fine die: each spreader diagonal sums
        # over a hundred contributions (the wide-diagonal case).
        f"uniform {k}x{k} / 2x2 spreader": (
            lambda k=k: network_for(
                floorplan_4xarm11(),
                mode="uniform",
                die_resolution=(k, k),
                spreader_resolution=(2, 2),
            )
        )
        for k in (4, 9, 16, 24)
    },
    "uniform 18x18": lambda: network_for(
        floorplan_4xarm11(),
        mode="uniform",
        die_resolution=(18, 18),
        spreader_resolution=(18, 18),
    ),
    "big.LITTLE hetero": lambda: network_for(
        floorplan_hetero(), spreader_resolution=(3, 3)
    ),
    "custom properties": lambda: network_for(
        uniform_floorplan(),
        mode="uniform",
        die_resolution=(5, 4),
        properties=ThermalProperties(
            die_material=Material("si-linear", 150.0, 1.628e6)
        ),
    ),
}


@pytest.mark.parametrize("label", sorted(ORACLE_NETWORKS))
def test_system_matrix_bit_identical_to_coo_oracle(label):
    net = ORACLE_NETWORKS[label]()
    rng = np.random.default_rng(7)
    for dt in (1e-4, 1e-3, 0.01, 0.1):
        t = rng.uniform(250.0, 450.0, net.num_cells)
        c_over_dt = net.capacitance / dt
        assert_same_bits(
            net.system_matrix(t, c_over_dt), coo_system_matrix(net, t, c_over_dt)
        )
    # c_over_dt = 0 is G(T) alone (forward Euler, steady state).
    zero = np.zeros(net.num_cells)
    assert_same_bits(net.system_matrix(t, 0.0), coo_system_matrix(net, t, zero))


def test_sparse_be_steps_bit_identical_to_coo_oracle():
    net = ORACLE_NETWORKS["uniform 9x9 / 2x2 spreader"]()
    net.set_power({name: 0.4 for name in net.component_names})
    dt = 0.01
    c_over_dt = net.capacitance / dt
    backend = SparseBE().bind(net)
    t = oracle = np.full(net.num_cells, net.properties.ambient)
    for _ in range(100):
        t = backend.step(t, dt)
        oracle = spsolve(
            coo_system_matrix(net, oracle, c_over_dt),
            c_over_dt * oracle + net.rhs(),
        )
        assert np.array_equal(t.view(np.int64), oracle.view(np.int64))
    assert t.max() > net.properties.ambient + 1.0  # it really heated up

    rng = np.random.default_rng(3)
    temps = rng.uniform(300.0, 360.0, (net.num_cells, 3))
    rhs = np.stack([net.rhs() * scale for scale in (0.5, 1.0, 2.0)], axis=1)
    batch = backend.step_batch(temps, dt, rhs)
    for col in range(3):
        oracle = spsolve(
            coo_system_matrix(net, temps[:, col], c_over_dt),
            c_over_dt * temps[:, col] + rhs[:, col],
        )
        assert np.array_equal(batch[:, col].view(np.int64), oracle.view(np.int64))


def test_clones_share_one_lazily_built_plan():
    clear_assembly_cache()
    before = RCNetwork.plans_built
    clones = [
        network_for(floorplan_4xarm11(), spreader_resolution=(2, 2))
        for _ in range(4)
    ]
    clones[0].set_power({name: 0.5 for name in clones[0].component_names})
    clones[0].component_temperatures(np.full(clones[0].num_cells, 320.0))
    assert RCNetwork.plans_built == before  # built, never solved: no plan
    for net in clones:
        SparseBE().bind(net).step(np.full(net.num_cells, 320.0), 0.01)
    assert RCNetwork.plans_built - before == 1
    assert len({id(net.assembly_plan()) for net in clones}) == 1


def test_assembly_plan_pattern_is_read_only():
    plan, grid, net = make_network()
    a = net.system_matrix(np.full(net.num_cells, 320.0), 100.0)
    b = net.system_matrix(np.full(net.num_cells, 330.0), 100.0)
    assert a.data is not b.data  # each call gets its own values
    with pytest.raises(ValueError):
        a.indices[0] = 1  # the shared pattern cannot be corrupted
