"""The runner's plan parses and digests every member exactly once.

Digests key the trace store, so they are pinned here byte for byte:
the plan must compute the very digest ``scenario_trace_digest`` gives a
freshly parsed scenario, abbreviated raw dicts and the runner's
``trace_stride`` override included.
"""

import copy
import json
from collections import Counter

import pytest

from repro.dse.space import default_points, point_scenario
from repro.scenario import runner as runner_module
from repro.scenario.presets import PRESETS
from repro.scenario.runner import Runner
from repro.scenario.spec import Scenario
from repro.trace import store as store_module
from repro.trace.store import TraceStore, scenario_trace_digest

#: Digests of the scenarios below, as the trace store has always keyed
#: them; a change here orphans every recording already on disk.
PINNED = {
    "matrix_quickstart":
        "9a97399429627be90e444304e71312ba16039c02c1815a0db5b541a9a57ee23d",
    "dithering_noc":
        "1dd03d988188e7bd9d3ba80dd391c870f497e0937a6c047566333d166b283cc4",
    "matrix_tm_dfs":
        "a68d153a7daca5a4ebec5ddb9d7d6432c40876abac2e792d22f882857a6bf8f2",
    "hetero_biglittle":
        "14a973da87157c20335af2d70ca0c1a63d1f050ebc7e1bf653fafcb14fb1d52a",
    "raw":
        "568bf4eb54a0e748eb0638d9e242734145a969f3a5984e0d28ed21bd8b310ed3",
    "raw2":
        "64f73b966614ade41bdb3779d0ca54d60c76f9ae48fbaa4b0d5af6fde87be028",
    "dse_1b3l_130nm_400MHz_g3x3":
        "66a75d26fc2c36c051471c2a4846a0ec9e5914d2f607f3ec1f029fc8585ec281",
}
#: ``matrix_tm_dfs`` under ``Runner(trace_stride=5)``: a reactive policy
#: keeps every config field in the digest, the stride included.
PINNED_TM_DFS_STRIDE_5 = (
    "6f2b1338be0a6e0382309f3ccf17b90006d19cd0fc0e1b9a9188dc68e759896c"
)


def raw_dicts():
    """Abbreviated scenario dicts: bare names, missing sections."""
    return [
        {"name": "raw", "workload": "matrix", "max_windows": 3},
        {"name": "raw2", "workload": {"name": "matrix"},
         "policy": "dual_threshold",
         "config": {"spreader_resolution": [2, 2]}},
    ]


def dse_scenarios(count, max_windows=12):
    points = default_points()
    step = len(points) // count
    return [point_scenario(p, max_windows=max_windows)
            for p in points[::step][:count]]


def plan_digests(items, **runner_options):
    return Runner(trace_store=True, **runner_options)._plan(items).digests


@pytest.mark.parametrize("items", [
    pytest.param(lambda: [PRESETS.get(n)() for n in PRESETS.names()],
                 id="presets"),
    pytest.param(lambda: dse_scenarios(50), id="dse"),
    pytest.param(raw_dicts, id="raw"),
])
def test_plan_digests_equal_a_fresh_parse(items):
    items = items()
    digests = plan_digests(items)
    for item, digest in zip(items, digests):
        data = item.to_dict() if isinstance(item, Scenario) else item
        assert digest == scenario_trace_digest(Scenario.from_dict(data))
        assert digest == scenario_trace_digest(data)


def test_plan_digests_are_pinned():
    items = [PRESETS.get(n)() for n in
             ("matrix_quickstart", "dithering_noc", "matrix_tm_dfs",
              "hetero_biglittle")]
    items += raw_dicts()
    items.append(next(
        s for s in dse_scenarios(1008)
        if s.name == "dse_1b3l_130nm_400MHz_g3x3"
    ))
    names = [i.name if isinstance(i, Scenario) else i["name"] for i in items]
    assert dict(zip(names, plan_digests(items))) == PINNED
    stride = plan_digests([PRESETS.get("matrix_tm_dfs")()], trace_stride=5)
    assert stride == [PINNED_TM_DFS_STRIDE_5]


def test_run_batched_parses_and_digests_each_member_once(monkeypatch):
    parses, digests = Counter(), Counter()
    from_dict = Scenario.from_dict.__func__

    def counted_from_dict(cls, data):
        parses[data["name"]] += 1
        return from_dict(cls, data)

    def counted_digest(scenario):
        name = scenario.name if isinstance(scenario, Scenario) else (
            scenario["name"]
        )
        digests[name] += 1
        return scenario_trace_digest(scenario)

    monkeypatch.setattr(Scenario, "from_dict", classmethod(counted_from_dict))
    monkeypatch.setattr(runner_module, "scenario_trace_digest", counted_digest)
    monkeypatch.setattr(store_module, "scenario_trace_digest", counted_digest)
    # Thermal-grid twins: half the members replay their twin's recording.
    members = dse_scenarios(8, max_windows=3)
    by_label = {p.label: p for p in default_points()}
    swap = {"g2x2": "g3x3", "g3x3": "g2x2"}
    twins = [
        point_scenario(
            by_label[m.name[:-4] + swap[m.name[-4:]]], max_windows=3
        )
        for m in members
    ]
    # An abbreviated raw dict: no description, bare policy name, and
    # config keys missing.
    raw = point_scenario(default_points()[3], max_windows=3).to_dict()
    raw.update(name="raw_point", policy="none")
    del raw["description"]
    del raw["config"]["trace_stride"]
    batch = members + twins + [raw]
    store = TraceStore()
    for _ in range(2):  # recordings first, store hits second
        parses.clear()
        digests.clear()
        results = Runner(trace_store=store).run_batched(batch)
        assert all(r.ok for r in results)
        assert any(r.replayed for r in results)
        names = {r.name for r in results}
        assert len(names) == len(batch)
        assert all(parses[name] <= 1 for name in names), parses
        assert all(digests[name] == 1 for name in names), digests
        assert set(digests) == names


def test_parsed_scenarios_and_caller_dicts_share_no_state():
    data = point_scenario(default_points()[200]).to_dict()
    data["config"]["solver_backend"] = {"name": "cached_lu", "params": {}}
    snapshot = json.dumps(data, sort_keys=True)
    scenario = Scenario.from_dict(data)
    scenario.workload.params["profile"]["utilization"][0][1] = 0.0
    scenario.workload.params["total_iterations"] = 1
    scenario.floorplan["params"]["big"] = 9
    scenario.config.solver_backend["params"]["tolerance"] = 1.0
    assert json.dumps(data, sort_keys=True) == snapshot

    fresh = Scenario.from_dict(data)
    before = copy.deepcopy(fresh.to_dict())
    data["workload"]["params"]["profile"]["utilization"][0][1] = 1.0
    data["workload"]["params"]["total_iterations"] = 2
    data["floorplan"]["params"]["little"] = 9
    data["config"]["solver_backend"]["params"]["tolerance"] = 2.0
    assert fresh.to_dict() == before

    out = fresh.to_dict()
    out["workload"]["params"]["profile"]["utilization"][0][1] = 0.5
    out["floorplan"]["params"]["big"] = 7
    assert fresh.to_dict() == before
