"""Tests for the campaign runtime: scenarios, store, runner, aggregation."""

import json
import random

import pytest

from repro.experiments.montecarlo import sample_trials
from repro.runtime import (
    CampaignRunner,
    PoolBackend,
    ResultStore,
    ScenarioGrid,
    ScenarioSpec,
    check_envelopes,
    group_by,
    mean,
    percentile,
    execute_spec,
    make_backend,
    summarize,
)
from repro.experiments.cli import main


class TestScenarioSpec:
    def test_hash_is_stable_and_content_addressed(self):
        a = ScenarioSpec(n=7, t=2, f=1, budget=3, seed=5)
        b = ScenarioSpec(n=7, t=2, f=1, budget=3, seed=5)
        assert a.scenario_hash() == b.scenario_hash()
        assert a.derived_seed() == b.derived_seed()
        for changed in (
            ScenarioSpec(n=9, t=2, f=1, budget=3, seed=5),
            ScenarioSpec(n=7, t=2, f=1, budget=4, seed=5),
            ScenarioSpec(n=7, t=2, f=1, budget=3, seed=6),
            ScenarioSpec(n=7, t=2, f=1, budget=3, seed=5, adversary="split"),
            ScenarioSpec(n=7, t=2, f=1, budget=3, seed=5, mode="authenticated"),
        ):
            assert changed.scenario_hash() != a.scenario_hash()

    def test_default_fault_convention_and_overrides(self):
        spec = ScenarioSpec(n=6, t=1, f=1)
        assert spec.faulty_ids() == [5]
        explicit = ScenarioSpec(n=6, t=1, f=1, faulty=(2,))
        assert explicit.faulty_ids() == [2]
        assert explicit.scenario_hash() != spec.scenario_hash()

    def test_input_vector_patterns_and_override(self):
        assert ScenarioSpec(n=4, t=1, f=0, pattern="zeros").input_vector() == [0] * 4
        assert ScenarioSpec(n=4, t=1, f=0, pattern="alternating").input_vector() == [0, 1, 0, 1]
        spec = ScenarioSpec(n=4, t=1, f=0, inputs=(1, 1, 0, 1))
        assert spec.input_vector() == [1, 1, 0, 1]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=7, t=2, f=3),                      # f > t
            dict(n=7, t=7, f=1),                      # t >= n
            dict(n=7, t=2, f=1, mode="bogus"),
            dict(n=7, t=2, f=1, adversary="bogus"),
            dict(n=7, t=2, f=1, generator="bogus"),
            dict(n=7, t=2, f=1, pattern="bogus"),
            dict(n=7, t=2, f=1, budget=-1),
            dict(n=7, t=2, f=2, faulty=(1,)),         # |faulty| != f
            dict(n=7, t=2, f=1, faulty=(9,)),         # out of range
            dict(n=7, t=2, f=1, inputs=(0, 1)),       # wrong length
        ],
    )
    def test_validate_rejects(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioSpec(**kwargs).validate()


class TestScenarioGrid:
    def test_expansion_covers_product_in_order(self):
        grid = ScenarioGrid(n=[5, 7], budget=[0, 2], adversary=["silent", "split"])
        specs = grid.expand()
        assert len(specs) == grid.size() == 8
        assert [s.n for s in specs][:4] == [5, 5, 5, 5]
        assert {(s.n, s.budget, s.adversary) for s in specs} == {
            (n, b, a) for n in (5, 7) for b in (0, 2) for a in ("silent", "split")
        }

    def test_derived_t_and_f(self):
        (spec,) = ScenarioGrid(n=10).expand()
        assert spec.t == 3 and spec.f == 3

    def test_fractional_budget_scales_with_n(self):
        specs = ScenarioGrid(n=[10, 20], budget=0.5).expand()
        assert [s.budget for s in specs] == [5, 10]

    def test_empty_axis_expands_to_nothing(self):
        grid = ScenarioGrid(n=[])
        assert grid.size() == 0
        assert grid.expand() == []

    def test_single_scenario_grid(self):
        grid = ScenarioGrid(n=7, t=2, f=1, budget=3, seeds=1)
        specs = grid.expand()
        assert len(specs) == 1
        assert specs[0] == ScenarioSpec(n=7, t=2, f=1, budget=3)

    def test_seed_count_expansion(self):
        specs = ScenarioGrid(n=5, seeds=3).expand()
        assert [s.seed for s in specs] == [0, 1, 2]

    def test_skip_invalid_drops_infeasible_combos(self):
        grid = ScenarioGrid(n=7, t=[1, 2], f=[0, 2], skip_invalid=True)
        specs = grid.expand()
        assert len(specs) == 3  # (t=1, f=2) dropped
        with pytest.raises(ValueError):
            ScenarioGrid(n=7, t=[1, 2], f=[0, 2]).expand()

    def test_typos_raise_even_with_skip_invalid(self):
        for axis in ("mode", "adversary", "generator", "pattern"):
            grid = ScenarioGrid(n=5, skip_invalid=True, **{axis: "bogus"})
            with pytest.raises(ValueError, match="bogus"):
                grid.expand()

    def test_authenticated_montecarlo_style_combo(self):
        # A combination no legacy sweep could express: authenticated mode
        # under the stalling adversary with random corruption.
        (spec,) = ScenarioGrid(
            n=7, mode="authenticated", adversary="stalling", generator="random",
            budget=4,
        ).expand()
        row = execute_spec(spec)
        assert row["mode"] == "authenticated"
        assert row["adversary"] == "stalling"
        assert row["agreed"]


class TestRunScenario:
    def test_row_is_deterministic_and_json_serializable(self):
        spec = ScenarioSpec(n=7, t=2, f=2, budget=4, seed=3)
        row1, row2 = execute_spec(spec), execute_spec(spec)
        assert row1 == row2
        assert json.loads(json.dumps(row1)) == row1
        assert row1["scenario"] == spec.scenario_hash()
        assert row1["agreed"] and row1["valid"]
        assert row1["rounds"] > 0 and row1["messages"] > 0

    def test_matches_legacy_run_once_contract(self):
        from repro.experiments.sweeps import run_once

        row = run_once(8, 2, 2, 5, seed=1)
        assert {"n", "t", "f", "B", "mode", "adversary", "agreed", "rounds",
                "messages", "bits", "lb_rounds", "lemma1_kA_bound",
                "seed"} <= set(row)
        assert row["agreed"]


class TestResultStore:
    def put_rows(self, store, count=3):
        for i in range(count):
            store.put(f"key{i}", {"value": i})

    def test_round_trip(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        self.put_rows(store)
        reloaded = ResultStore(path)
        assert len(reloaded) == 3
        assert reloaded.get("key1") == {"value": 1}
        assert "key2" in reloaded and "missing" not in reloaded

    def test_corrupt_and_partial_lines_are_skipped(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        self.put_rows(store)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{not json}\n")
            handle.write('{"key": "keyX", "row": {"value"')  # truncated write
        recovered = ResultStore(path)
        assert len(recovered) == 3
        assert recovered.corrupt_lines == 2
        assert recovered.get("key0") == {"value": 0}

    def test_append_after_truncated_tail_realigns(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.put("a", {"value": 0})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "b", "row"')  # crash mid-append, no newline
        recovered = ResultStore(path)
        recovered.put("c", {"value": 2})
        final = ResultStore(path)
        assert final.get("a") == {"value": 0}
        assert final.get("c") == {"value": 2}
        assert final.corrupt_lines == 1

    def test_persistent_handle_sync_and_close(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with ResultStore(path) as store:
            self.put_rows(store)
            store.sync()
            assert len(ResultStore(path)) == 3  # flushed, visible to readers
        store.put("late", {"value": 9})  # reopens after close
        store.close()
        assert ResultStore(path).get("late") == {"value": 9}

    def test_last_write_wins_and_compact(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.put("a", {"value": 0})
        store.put("a", {"value": 1})
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("garbage\n")
        recovered = ResultStore(path)
        assert recovered.get("a") == {"value": 1}
        assert recovered.corrupt_lines == 1
        recovered.compact()
        assert recovered.corrupt_lines == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        clean = ResultStore(path)
        assert clean.get("a") == {"value": 1} and clean.corrupt_lines == 0


SMALL_GRID = ScenarioGrid(
    n=[5, 6], budget=[0, 3], adversary=["silent", "noise"], seeds=2
)


class TestCampaignRunner:
    def test_serial_and_parallel_rows_identical(self):
        serial = CampaignRunner().run(SMALL_GRID)
        parallel = CampaignRunner(backend=PoolBackend(workers=3)).run(
            SMALL_GRID
        )
        assert serial.rows == parallel.rows
        assert parallel.stats.executed == SMALL_GRID.size()
        assert len(parallel) == SMALL_GRID.size()

    def test_rerun_is_fully_cached(self, tmp_path):
        store = ResultStore(tmp_path / "campaign.jsonl")
        runner = CampaignRunner(store=store, backend=PoolBackend(workers=2))
        first = runner.run(SMALL_GRID)
        assert first.stats.executed == SMALL_GRID.size()
        rerun = runner.run(SMALL_GRID)
        assert rerun.stats.executed == 0
        assert rerun.stats.cached == SMALL_GRID.size()
        assert rerun.rows == first.rows

    def test_resume_from_partial_store(self, tmp_path):
        specs = SMALL_GRID.expand()
        store = ResultStore(tmp_path / "campaign.jsonl")
        CampaignRunner(store=store).run(specs[:5])
        resumed = CampaignRunner(store=ResultStore(store.path)).run(specs)
        assert resumed.stats.cached == 5
        assert resumed.stats.executed == len(specs) - 5
        assert resumed.rows == CampaignRunner().run(specs).rows

    def test_resume_from_corrupted_store(self, tmp_path):
        specs = SMALL_GRID.expand()
        store = ResultStore(tmp_path / "campaign.jsonl")
        complete = CampaignRunner(store=store).run(specs)
        # Corrupt the tail: a half-written line from a simulated crash.
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "zzz", "row"')
        recovered_store = ResultStore(store.path)
        assert recovered_store.corrupt_lines == 1
        rerun = CampaignRunner(store=recovered_store).run(specs)
        assert rerun.stats.executed == 0
        assert rerun.rows == complete.rows

    def test_duplicate_specs_execute_once(self):
        spec = ScenarioSpec(n=5, t=1, f=1, budget=2)
        result = CampaignRunner().run([spec, spec, spec])
        assert result.stats.deduplicated == 2
        assert result.stats.executed == 1
        assert result.rows[0] == result.rows[1] == result.rows[2]

    def test_failed_scenarios_reported_not_cached(self, tmp_path):
        # budget exceeds capacity: validates, but generation raises.
        bad = ScenarioSpec(n=5, t=1, f=1, budget=10_000)
        good = ScenarioSpec(n=5, t=1, f=1, budget=2)
        store = ResultStore(tmp_path / "campaign.jsonl")
        result = CampaignRunner(store=store).run([bad, good])
        assert result.stats.failed == 1
        assert result.stats.executed == 1
        assert "error" in result.rows[0]
        assert result.ok_rows() == [result.rows[1]]
        assert bad.scenario_hash() not in store

    def test_raise_on_failure_surfaces_first_error(self):
        bad = ScenarioSpec(n=5, t=1, f=1, budget=10_000)
        result = CampaignRunner().run([bad])
        with pytest.raises(RuntimeError, match="exceeds capacity"):
            result.raise_on_failure()
        clean = CampaignRunner().run([ScenarioSpec(n=5, t=1, f=1)])
        assert clean.raise_on_failure() is clean

    def test_run_trials_raises_instead_of_skewing_stats(self, monkeypatch):
        from repro.experiments import montecarlo
        from repro.runtime.backends import base as backends_base

        def boom(spec):
            raise RuntimeError("boom")

        # backends.base.execute_job is the single execution entry shared
        # by every backend; patching its execute_spec covers them all.
        monkeypatch.setattr(backends_base, "execute_spec", boom)
        with pytest.raises(RuntimeError, match="boom"):
            montecarlo.run_trials(7, 2, trials=2, seed=1)

    def test_montecarlo_trials_serial_vs_parallel(self):
        specs = sample_trials(7, 2, 12, seed=11)
        serial = CampaignRunner().run(specs)
        parallel = CampaignRunner(backend=PoolBackend(workers=2)).run(specs)
        assert serial.rows == parallel.rows

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            make_backend(workers=0)


class TestAggregate:
    ROWS = [
        {"n": 5, "agreed": True, "valid": True, "rounds": 4, "messages": 10},
        {"n": 5, "agreed": True, "valid": True, "rounds": 8, "messages": 30},
        {"n": 7, "agreed": False, "valid": False, "rounds": 6, "messages": 20},
    ]

    def test_mean_and_percentile(self):
        assert mean([]) == 0.0
        assert mean([1, 2, 3]) == 2.0
        assert percentile([], 50) == 0.0
        assert percentile([1, 2, 3, 4], 50) == 2
        assert percentile([1, 2, 3, 4], 100) == 4
        assert percentile([5], 95) == 5
        with pytest.raises(ValueError):
            percentile([1], 150)

    def test_group_by_and_summarize(self):
        groups = group_by(self.ROWS, ["n"])
        assert set(groups) == {(5,), (7,)}
        summary = summarize(self.ROWS, by=("n",))
        by_n = {s["n"]: s for s in summary}
        assert by_n[5]["count"] == 2
        assert by_n[5]["agreed%"] == 100.0
        assert by_n[5]["rounds_mean"] == 6.0
        assert by_n[5]["rounds_max"] == 8
        assert by_n[7]["agreed%"] == 0.0
        assert by_n[7]["validity_viol"] == 1

    def test_check_envelopes_flags_failures(self):
        violations = check_envelopes(self.ROWS)
        assert len(violations) == 1
        assert "disagreement" in violations[0]["problems"]
        assert "validity" in violations[0]["problems"]

    def test_check_envelopes_round_cap(self):
        row = {"agreed": True, "valid": True, "t": 1, "f": 1, "n": 5,
               "mode": "unauthenticated", "rounds": 10_000}
        (violation,) = check_envelopes([row])
        assert any("above cap" in p for p in violation["problems"])

    def test_check_envelopes_lower_bound_opt_in(self):
        row = {"agreed": True, "valid": True, "rounds": 1, "lb_rounds": 3}
        assert check_envelopes([row]) == []
        (violation,) = check_envelopes([row], check_lower_bound=True)
        assert any("below" in p for p in violation["problems"])


class TestCampaignCli:
    def test_campaign_command_runs_and_summarizes(self, capsys, tmp_path):
        store = str(tmp_path / "cli.jsonl")
        argv = ["campaign", "--n", "5,6", "--budgets", "0,2",
                "--adversaries", "silent,stalling", "--seeds", "2",
                "--workers", "2", "--store", store]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "campaign summary" in out
        assert "executed 16" in out
        # Rerun: everything served from the store.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "executed 0" in out and "cached 16" in out

    def test_campaign_typo_is_a_clean_error(self, capsys):
        assert main(["campaign", "--n", "5", "--adversaries", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown adversary" in err

    def test_campaign_auto_axes_and_fractional_budget(self, capsys):
        assert main(["campaign", "--n", "7", "--t", "auto", "--f", "auto",
                     "--budgets", "0.5", "--group-by", "n"]) == 0
        assert "campaign summary" in capsys.readouterr().out

    def test_campaign_rejects_auto_budget_and_float_t(self, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "--n", "7", "--budgets", "auto"])
        assert "int or float budget" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["campaign", "--n", "7", "--t", "2.5"])
        assert "integer or 'auto'" in capsys.readouterr().err
