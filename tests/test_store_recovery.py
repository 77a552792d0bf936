"""Store crash-recovery tests: torn appends, interrupted compaction,
and stale-lock reclaim races.

The store is the resumability layer: a campaign whose last worker dies
stops, and its rerun resumes from the store.  Its own failure modes are
what a crashed campaign leaves behind: a driver killed mid-append leaves a
torn final line; a crash during ``compact`` must never replace a good
file with a partial one; a crashed writer's lockfile must be reclaimable
without opening a two-writer race.  Every test here states the crash as
bytes on disk (or a monkeypatched syscall) and asserts the store comes
back whole.
"""

import json
import os

import pytest

from repro.runtime import ResultStore, StoreLockError
from repro.runtime import store as store_module


def seeded(path, rows=3):
    store = ResultStore(path)
    for i in range(rows):
        store.put(f"key{i}", {"value": i})
    store.close()
    return store


class TestTornTail:
    def test_torn_final_line_is_flagged_and_skipped(self, tmp_path):
        path = tmp_path / "store.jsonl"
        seeded(path, rows=2)
        with open(path, "a", encoding="utf-8") as handle:
            # A crash mid-append: half a JSON line, no newline.
            handle.write('{"key": "key2", "row": {"val')
        store = ResultStore(path)
        assert store.torn_tail is True
        assert store.corrupt_lines == 1
        assert len(store) == 2  # the torn row is not half-trusted
        assert store.get("key2") is None

    def test_corruption_elsewhere_is_not_a_torn_tail(self, tmp_path):
        # Mid-file garbage (external damage) must not masquerade as a
        # crash-mid-append signature.
        path = tmp_path / "store.jsonl"
        line = json.dumps({"key": "good", "row": {"value": 1}})
        path.write_text("{broken\n" + line + "\n")
        store = ResultStore(path)
        assert store.corrupt_lines == 1
        assert store.torn_tail is False
        assert store.get("good") == {"value": 1}

    def test_complete_final_line_without_newline_is_not_torn(self, tmp_path):
        # Killed between write and the trailing newline of a *valid*
        # line: the row is whole and trusted, just unterminated.
        path = tmp_path / "store.jsonl"
        path.write_text(json.dumps({"key": "k", "row": {"value": 9}}))
        store = ResultStore(path)
        assert store.torn_tail is False
        assert store.corrupt_lines == 0
        assert store.get("k") == {"value": 9}

    def test_next_put_realigns_and_clears_the_flag(self, tmp_path):
        path = tmp_path / "store.jsonl"
        seeded(path, rows=1)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "torn"')
        store = ResultStore(path)
        assert store.torn_tail is True
        store.put("key1", {"value": 1})
        assert store.torn_tail is False
        store.close()
        # The repaired file replays cleanly: the fragment is one corrupt
        # line, the new row is whole, nothing was glued together.
        recovered = ResultStore(path)
        assert recovered.torn_tail is False
        assert recovered.corrupt_lines == 1
        assert recovered.get("key1") == {"value": 1}
        assert recovered.get("key0") == {"value": 0}

    def test_reload_resets_the_flag_with_the_file(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text('{"torn')
        store = ResultStore(path)
        assert store.torn_tail is True
        # Another process compacts the file out from under us...
        path.write_text("")
        store.reload()
        assert store.torn_tail is False
        assert store.corrupt_lines == 0

    def test_compact_drops_the_torn_fragment(self, tmp_path):
        path = tmp_path / "store.jsonl"
        seeded(path, rows=2)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "torn"')
        store = ResultStore(path)
        store.compact()
        assert store.torn_tail is False
        assert store.corrupt_lines == 0
        assert len(path.read_text().splitlines()) == 2
        assert ResultStore(path).torn_tail is False


class TestInterruptedCompact:
    def test_crash_at_replace_leaves_the_original_intact(self, tmp_path,
                                                         monkeypatch):
        # compact() writes a tmp file then os.replace()s it into place;
        # a crash at the replace boundary must leave the original store
        # byte-identical -- the atomicity contract.
        path = tmp_path / "store.jsonl"
        seeded(path, rows=3)
        before = path.read_bytes()
        store = ResultStore(path)

        def boom(src, dst):
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(store_module.os, "replace", boom)
        with pytest.raises(OSError, match="simulated crash"):
            store.compact()
        monkeypatch.undo()
        assert path.read_bytes() == before
        recovered = ResultStore(path)
        assert len(recovered) == 3
        assert recovered.get("key0") == {"value": 0}

    def test_stray_tmp_file_from_a_crash_is_harmless(self, tmp_path):
        # The abandoned .tmp from a crashed compact must not shadow or
        # corrupt the store on the next load or the next compact.
        path = tmp_path / "store.jsonl"
        seeded(path, rows=2)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text('{"key": "stale", "row": {"value": 99}}\n')
        store = ResultStore(path)
        assert store.get("stale") is None
        store.compact()  # rewrites the tmp path and replaces cleanly
        assert not tmp.exists()
        assert ResultStore(path).get("stale") is None

    def test_compact_under_superseded_and_corrupt_lines(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.put("a", {"value": 1})
        store.put("a", {"value": 2})  # supersedes
        store.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{garbage\n")
        store = ResultStore(path)
        assert store.superseded_lines == 1
        assert store.corrupt_lines == 1
        store.compact()
        assert store.superseded_lines == 0
        assert store.corrupt_lines == 0
        assert store.total_lines == 1
        assert ResultStore(path).get("a") == {"value": 2}


class TestStaleLockReclaim:
    def test_fallback_reclaims_dead_holder_exactly_once(self, tmp_path,
                                                        monkeypatch):
        # The non-fcntl fallback probes the recorded pid; a dead holder's
        # file is unlinked and recreated atomically (O_EXCL).
        store = ResultStore(tmp_path / "store.jsonl")
        store.lock_path.write_text("99999999\n")
        monkeypatch.setattr(store_module, "_pid_alive", lambda pid: False)
        store._acquire_lock_exclusive_create()
        assert store.lock_path.read_text().strip() == str(os.getpid())
        store.release_lock()
        # Fallback release unlinks: the file *is* the lock there.
        assert not store.lock_path.exists()

    def test_fallback_reclaim_race_gives_up_cleanly(self, tmp_path,
                                                    monkeypatch):
        # Two reclaimers race: this one unlinks the stale file, but the
        # rival recreates the lock before our O_EXCL lands -- twice.  The
        # loser must raise, not spin forever or steal a live lock.
        store = ResultStore(tmp_path / "store.jsonl")
        rival_pid = 424242

        def rival_recreates(path):
            os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(f"{rival_pid}\n")

        real_unlink = os.unlink

        def unlink_then_lose(path, *args, **kwargs):
            real_unlink(path, *args, **kwargs)
            rival_recreates(path)

        store.lock_path.write_text("99999999\n")
        alive = {rival_pid}
        monkeypatch.setattr(store_module, "_pid_alive",
                            lambda pid: pid in alive)
        monkeypatch.setattr(store_module.os, "unlink", unlink_then_lose)
        with pytest.raises(StoreLockError, match="locked by running"):
            store._acquire_lock_exclusive_create()
        # The rival's lock was never clobbered.
        assert store.lock_path.read_text().strip() == str(rival_pid)

    def test_fallback_gives_up_after_bounded_reclaims(self, tmp_path,
                                                      monkeypatch):
        # Stale locks keep reappearing (dead rivals churning): the
        # reclaim loop is bounded -- it raises rather than spinning on a
        # pathological lock directory.
        store = ResultStore(tmp_path / "store.jsonl")
        store.lock_path.write_text("99999999\n")
        monkeypatch.setattr(store_module, "_pid_alive", lambda pid: False)
        real_unlink = os.unlink

        def unlink_always_raced(path, *args, **kwargs):
            real_unlink(path, *args, **kwargs)
            with open(path, "x", encoding="utf-8") as handle:
                handle.write("77777777\n")

        monkeypatch.setattr(store_module.os, "unlink", unlink_always_raced)
        with pytest.raises(StoreLockError, match="could not acquire"):
            store._acquire_lock_exclusive_create()

    def test_flock_path_reclaims_garbage_pid_lockfile(self, tmp_path):
        # The primary flock path never probes pids at all -- a crashed
        # holder's kernel lock died with its fds, whatever the file says.
        store = ResultStore(tmp_path / "store.jsonl")
        store.lock_path.parent.mkdir(parents=True, exist_ok=True)
        store.lock_path.write_text("not-a-pid\n")
        store.acquire_lock()
        assert store.lock_path.read_text().strip() == str(os.getpid())
        store.release_lock()
        # flock release keeps the file (unlinking reopens the race).
        assert store.lock_path.exists()
