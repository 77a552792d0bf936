"""The v1 ``repro.api`` front door: builder semantics, compilation,
execution, schema stamping, and reporting."""

import gc
import json
import warnings

import pytest

from repro.api import (
    API_VERSION,
    Campaign,
    Experiment,
    ReportSpec,
    SCHEMA_VERSION,
    ScenarioGrid,
    ScenarioSpec,
    build_report,
)
from repro.adversary import SplitWorldAdversary
from repro.predictions import perfect_predictions
from repro.reporting import TableSpec
from repro.runtime import ResultStore, execute_spec


class TestBuilder:
    def test_fluent_calls_return_new_instances(self):
        base = Experiment(n=7, t=2)
        widened = base.grid(n=[7, 9])
        assert base.size() == 1
        assert widened.size() == 2
        assert base is not widened

    def test_issue_example_shape(self):
        exp = (
            Experiment(mode="authenticated", n=9, t=2)
            .with_adversary("mutating")
            .with_predictions("hiding", B=3)
            .grid(n=[10, 20, 40])
        )
        specs = exp.scenarios()
        assert len(specs) == 3
        assert {spec.n for spec in specs} == {10, 20, 40}
        assert all(spec.mode == "authenticated" for spec in specs)
        assert all(spec.adversary == "mutating" for spec in specs)
        assert all(spec.generator == "hiding" for spec in specs)
        assert all(spec.budget == 3 for spec in specs)

    def test_unknown_names_raise_eagerly(self):
        with pytest.raises(ValueError, match="unknown adversary"):
            Experiment(n=5).with_adversary("bogus")
        with pytest.raises(ValueError, match="unknown generator"):
            Experiment(n=5).with_predictions("bogus", B=1)
        with pytest.raises(ValueError, match="unknown input pattern"):
            Experiment(n=5).with_pattern("bogus")
        with pytest.raises(ValueError, match="unknown grid axis"):
            Experiment(n=5).grid(nn=[1, 2])

    def test_with_faults_derives_f_from_explicit_set(self):
        spec = Experiment(n=7, t=2).with_faults(faulty=[1, 5]).spec()
        assert spec.f == 2
        assert spec.faulty == (1, 5)

    def test_with_seeds_expands_int(self):
        exp = Experiment(n=5).with_seeds(3)
        assert [spec.seed for spec in exp.scenarios()] == [0, 1, 2]

    def test_spec_requires_single_point(self):
        with pytest.raises(ValueError, match="not 1"):
            Experiment(n=[5, 7]).spec()

    def test_skip_invalid(self):
        exp = Experiment(n=7, t=[1, 2], f=[0, 2]).skip_invalid()
        assert exp.size() == 3  # (t=1, f=2) dropped
        with pytest.raises(ValueError):
            Experiment(n=7, t=[1, 2], f=[0, 2]).scenarios()


class TestCompile:
    def test_compile_returns_equivalent_grid(self):
        exp = Experiment(n=[5, 7], budget=[0, 2]).with_seeds(2)
        grid = exp.compile()
        assert isinstance(grid, ScenarioGrid)
        assert grid.expand() == exp.scenarios()
        assert len(grid.expand()) == 8

    def test_compile_carries_explicit_faulty_and_inputs(self):
        exp = (
            Experiment(n=5, t=1)
            .with_faults(faulty=[2])
            .with_inputs([0, 1, 0, 1, 0])
        )
        (spec,) = exp.compile().expand()
        assert spec.faulty == (2,)
        assert spec.inputs == (0, 1, 0, 1, 0)
        assert spec.f == 1

    def test_explicit_spec_lists_do_not_compile(self):
        exp = Experiment.from_specs([ScenarioSpec(n=5, t=1, f=1)])
        with pytest.raises(ValueError, match="no grid form"):
            exp.compile()
        assert len(exp.scenarios()) == 1
        # Axis/override state would be silently ignored -> refuse loudly.
        with pytest.raises(ValueError, match="explicit-scenario"):
            exp.grid(n=[5, 7])
        with pytest.raises(ValueError, match="explicit-scenario"):
            exp.with_inputs([0] * 5)
        with pytest.raises(ValueError, match="explicit-scenario"):
            exp.with_adversary(SplitWorldAdversary(0, 1))
        with pytest.raises(ValueError, match="explicit-scenario"):
            exp.baseline()

    def test_object_overrides_do_not_compile(self):
        exp = Experiment(n=5, t=1).with_adversary(SplitWorldAdversary(0, 1))
        with pytest.raises(ValueError, match="declarative"):
            exp.compile()
        with pytest.raises(ValueError, match="declarative"):
            exp.run()

    def test_engine_options_do_not_compile_or_run(self):
        # Campaign rows are pure functions of the spec; per-call engine
        # options cannot ride along and must not be silently dropped.
        for opts in (dict(key_seed=3), dict(max_rounds=50),
                     dict(cache=False)):
            exp = Experiment(n=5, t=1).with_options(**opts)
            with pytest.raises(ValueError, match="with_options"):
                exp.run()
            with pytest.raises(ValueError, match="with_options"):
                exp.compile()
            assert exp.solve_one().agreed  # still fine for single runs

    def test_declarative_name_replaces_object_override(self):
        # Fluent last-call-wins: a later name must not be shadowed by an
        # earlier object override.
        exp = (
            Experiment(n=7, t=2, f=2, budget=2)
            .with_adversary(SplitWorldAdversary(0, 1))
            .with_adversary("noise")
        )
        assert exp.run().rows[0]["adversary"] == "noise"  # compiles again
        relaxed = (
            Experiment(n=5, t=1)
            .with_predictions(perfect_predictions(5, range(5)))
            .with_predictions("random", B=2)
        )
        assert relaxed.spec().generator == "random"
        relaxed.compile()  # declarative again -> no ValueError

    def test_to_dict_round_trips_through_scenario_specs(self):
        exp = Experiment(n=[5, 6], budget=1)
        doc = json.loads(json.dumps(exp.to_dict()))
        assert doc["api"] == API_VERSION
        assert doc["schema"] == SCHEMA_VERSION
        rebuilt = [ScenarioSpec.from_dict(d) for d in doc["scenarios"]]
        assert rebuilt == exp.scenarios()


class TestExecution:
    def test_solve_one_matches_row_path(self):
        exp = Experiment(n=7, t=2, f=2, budget=3, seed=5)
        report = exp.solve_one()
        row = execute_spec(exp.spec())
        assert report.agreed == row["agreed"]
        assert report.rounds == row["rounds"]
        assert report.messages == row["messages"]
        assert report.bits == row["bits"]
        assert report.prediction_errors == row["B"]

    def test_run_returns_campaign_with_schema_rows(self, tmp_path):
        store = ResultStore(tmp_path / "campaign.jsonl")
        campaign = Experiment(n=[5, 6], budget=[0, 2]).run(store=store)
        assert isinstance(campaign, Campaign)
        assert len(campaign) == 4
        assert campaign.stats.executed == 4
        assert all(row["schema"] == SCHEMA_VERSION for row in campaign)
        # Every *stored* row carries the stamp too.
        assert all(
            row["schema"] == SCHEMA_VERSION for row in store.rows()
        )

    def test_run_resumes_from_store(self, tmp_path):
        store_path = tmp_path / "campaign.jsonl"
        exp = Experiment(n=5, budget=[0, 1])
        first = exp.run(store=str(store_path))
        rerun = exp.run(store=str(store_path))
        assert rerun.stats.executed == 0
        assert rerun.stats.cached == 2
        assert rerun.rows == first.rows

    def test_schema_less_legacy_rows_still_load_and_serve(self, tmp_path):
        # A store written before the schema stamp: the campaign must
        # serve its rows verbatim, not re-execute or re-stamp them.
        exp = Experiment(n=5, budget=1)
        spec = exp.spec()
        legacy_row = {k: v for k, v in execute_spec(spec).items()
                      if k != "schema"}
        store = ResultStore(tmp_path / "legacy.jsonl")
        store.put(spec.scenario_hash(), legacy_row)
        campaign = exp.run(store=store)
        assert campaign.stats.cached == 1
        assert campaign.stats.executed == 0
        assert "schema" not in campaign.rows[0]

    def test_stores_opened_from_paths_are_closed(self, tmp_path):
        exp = Experiment(n=5, budget=[0, 1])
        table = TableSpec(name="t", title="t", scenarios=exp.scenarios(),
                          columns=["n"])
        spec = ReportSpec(title="t", scale="adhoc", preamble="",
                          tables=[table])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            exp.run(store=tmp_path / "run.jsonl")
            exp.report(store=str(tmp_path / "report.jsonl"))
            build_report(spec, store=tmp_path / "build.jsonl")
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    def test_socket_by_name_names_the_api_remedy(self):
        # A Python caller cannot pass a CLI flag: the error names the
        # SocketBackend instance as well as --connect.
        with pytest.raises(ValueError, match=r"SocketBackend\(\[") as info:
            Experiment(n=5).run(backend="socket")
        assert "--connect" in str(info.value)

    def test_campaign_aggregation_shortcuts(self):
        campaign = Experiment(n=5, budget=[0, 1, 2]).run()
        summary = campaign.summarize(by=["n"])
        assert summary[0]["count"] == 3
        assert campaign.check_envelopes() == []
        assert campaign.raise_on_failure() is campaign

    def test_baseline_runs_prediction_free(self):
        report = (
            Experiment(n=7, t=2)
            .with_inputs([1] * 7)
            .with_faults(faulty=[6])
            .baseline()
        )
        assert report.mode == "baseline-early-stopping"
        assert report.agreed

    def test_unset_f_means_t_on_every_single_run_path(self):
        exp = Experiment(n=10, t=3).with_inputs([0] * 10)
        assert exp.solve_one().summary()["f"] == 3
        assert exp.with_options(key_seed=0).solve_one().summary()["f"] == 3
        assert exp.baseline().summary()["f"] == 3

    def test_solve_one_with_object_overrides(self):
        report = (
            Experiment(n=10, t=3)
            .with_inputs([0] * 5 + [1] * 5)
            .with_faults(faulty=[7, 8, 9])
            .with_adversary(SplitWorldAdversary(0, 1))
            .with_predictions(perfect_predictions(10, range(7)))
            .solve_one()
        )
        assert report.agreed

    def test_float_budget_means_the_same_on_both_paths(self):
        # Floats are per-n fractions on the grid path; the override path
        # must apply the identical convention, not crash or diverge.
        declarative = Experiment(n=10, t=3, budget=0.5)
        assert declarative.spec().budget == 5
        report = (
            declarative.with_adversary(SplitWorldAdversary(0, 1)).solve_one()
        )
        assert report.prediction_errors == 5

    def test_with_predictions_rejects_budget_on_objects(self):
        with pytest.raises(ValueError, match="generator names"):
            Experiment(n=5).with_predictions(
                perfect_predictions(5, range(5)), B=2
            )


class TestReport:
    def test_default_report_over_own_scenarios(self, tmp_path):
        exp = Experiment(n=5, budget=[0, 1])
        report = exp.report(store=str(tmp_path / "report.jsonl"))
        assert report.passed  # no claims -> vacuously true
        rows = report.tables["experiment"]
        assert len(rows) == 2
        assert rows[0]["n"] == 5
        # Warm store: a rebuild executes nothing.
        rebuilt = exp.report(store=str(tmp_path / "report.jsonl"))
        assert rebuilt.stats.executed == 0
