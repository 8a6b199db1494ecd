"""Table 2 — thermal properties of the RC model.

The property table and the non-linear conductivity law are regenerated
and checked by the ``table2`` artifact of the reproduction pipeline
(``python -m repro report``); this bench runs that artifact and times
the two costs the law imposes on the solver: the vectorized k(T)
evaluation and the conductance-matrix refresh it forces every step.
"""

import numpy as np

from repro.report.artifacts import ARTIFACTS
from repro.report.pipeline import render_verdicts
from repro.thermal.calibration import uniform_floorplan
from repro.thermal.properties import silicon_conductivity
from repro.thermal.rc_network import network_for


def test_table2_properties(benchmark, report):
    result = ARTIFACTS.get("table2")().run()
    assert result.ok, render_verdicts([result])
    report("table2_thermal_properties", result.body)

    temps = np.linspace(300.0, 400.0, 660)
    benchmark(silicon_conductivity, temps)


def test_table2_nonlinear_assembly_cost(benchmark, report):
    """Time the G(T) refresh on a 660-cell-class grid (the cost the
    non-linear resistances add per transient step)."""
    net = network_for(
        uniform_floorplan(),
        mode="uniform",
        die_resolution=(18, 18),
        spreader_resolution=(18, 18),
    )
    t = np.full(net.num_cells, 330.0)
    benchmark(net.system_matrix, t, 0.0)
    report(
        "table2_assembly_cost",
        f"G(T) assembly on {net.num_cells} cells: "
        f"{len(net.edge_i)} edges, nonlinear cells: "
        f"{int(net.is_nonlinear.sum())}",
    )
    assert net.num_cells == 648  # the 660-cell-class grid of Section 5.2
