"""Campaign runtime: worker-pool throughput, determinism, and caching.

Not a paper table -- the scaling acceptance bar for the experiment
runtime itself: a 270-scenario campaign (sizes x budgets x all five
adversary families x input patterns x seeds) must

* run on a ``multiprocessing`` worker pool,
* produce row-for-row identical results to a serial run, and
* serve an immediate rerun entirely from the :class:`ResultStore` cache
  (zero new executions).
"""

import pytest

from repro.runtime import CampaignRunner, PoolBackend, ResultStore, summarize

from conftest import campaign_grid, print_table

WORKERS = 4


@pytest.mark.benchmark(group="campaign")
def test_campaign_pool_determinism_and_cache(benchmark, tmp_path):
    grid = campaign_grid()
    assert grid.size() >= 200

    store = ResultStore(tmp_path / "campaign.jsonl")
    runner = CampaignRunner(store=store, backend=PoolBackend(workers=WORKERS))
    parallel = benchmark.pedantic(
        lambda: runner.run(grid),
        rounds=1,
        iterations=1,
    )
    assert parallel.stats.total == grid.size()
    assert parallel.stats.executed == grid.size()
    assert parallel.stats.failed == 0

    # Determinism: a serial run is row-for-row identical to the pool run.
    serial = CampaignRunner().run(grid)
    assert serial.rows == parallel.rows

    # Resumability: the rerun executes nothing and reproduces every row.
    rerun = runner.run(grid)
    assert rerun.stats.executed == 0
    assert rerun.stats.cached == grid.size()
    assert rerun.rows == parallel.rows

    rows = parallel.ok_rows()
    summary = summarize(rows, by=("n", "adversary"))
    print_table(
        summary,
        ["n", "adversary", "count", "agreed%", "validity_viol",
         "rounds_mean", "rounds_max", "messages_mean"],
        f"Campaign runtime: {grid.size()} scenarios, "
        f"{WORKERS} workers vs serial vs cached rerun",
    )
    assert all(r["agreed"] for r in rows)
    assert all(r["valid"] for r in rows)
