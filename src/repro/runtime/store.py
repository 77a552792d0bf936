"""Content-addressed result store: append-only JSONL keyed by scenario hash.

The store is the campaign runtime's resumability layer.  Each completed
scenario appends one self-delimiting JSON line ``{"key": <hash>, "row":
<row>}``; on load the file is replayed into memory, so an interrupted or
repeated campaign serves every already-completed scenario from disk and
executes only the remainder.

Recovery is deliberately forgiving: a crash mid-append leaves a truncated
final line, and stray corruption (partial writes, editor accidents) leaves
undecodable ones.  Both are skipped and counted in ``corrupt_lines`` --
never fatal -- and the next append re-aligns the file to a fresh line.
Duplicate keys resolve last-write-wins, so re-running after a recovered
crash simply supersedes any half-trusted row.  ``compact()`` rewrites the
file to one clean line per key.

Writer exclusion: the JSONL format is single-writer -- two processes
appending concurrently can interleave partial lines.  :meth:`acquire_lock`
takes an exclusive lockfile (``<store>.lock``, containing the holder's
pid) so a second campaign against the same store fails fast with
:class:`StoreLockError` instead of corrupting it; a lockfile whose pid no
longer runs (a crashed writer) is reclaimed automatically.  Readers never
need the lock -- loads only trust complete lines.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from ..analysis import watchdog as lockwatch
from ..obs import metrics
from ..obs.spans import span


class StoreLockError(RuntimeError):
    """Another live process holds the store's exclusive writer lock."""


class ResultStore:
    """Durable ``scenario hash -> result row`` mapping backed by JSONL."""

    #: Identity of the flock writer lock in the lock-order watchdog's
    #: graph (see :mod:`repro.analysis.watchdog`).
    WRITER_LOCK_NAME = "ResultStore.writer_lock"

    def __init__(self, path: Union[str, Path], load: bool = True) -> None:
        """``load=False`` skips the eager file parse -- for callers that
        need to :meth:`acquire_lock` first and then :meth:`reload` under
        it, without paying for a throwaway pre-lock parse."""
        self.path = Path(path)
        self.corrupt_lines = 0
        #: Parseable lines superseded by a later line for the same key
        #: (crash-recovery rewrites, duplicate merges); ``compact`` drops
        #: them.
        self.superseded_lines = 0
        #: ``True`` when the file's final line is an unterminated,
        #: unparseable fragment -- the signature of a crash mid-append
        #: (as opposed to corruption elsewhere, which suggests external
        #: damage).  The next :meth:`put` re-aligns to a fresh line.
        self.torn_tail = False
        self.total_lines = 0
        self._rows: Dict[str, Dict[str, Any]] = {}
        self._needs_newline = False
        self._handle: Optional[Any] = None
        self._lock_fd: Optional[int] = None
        if load:
            self._load()

    def reload(self) -> None:
        """Re-read the file, picking up rows other processes appended
        since this instance loaded.

        Call under the writer lock before deciding what work remains
        (:meth:`CampaignRunner.run <repro.runtime.runner.CampaignRunner.run>`
        does): a snapshot taken while another campaign was still writing
        would re-execute and re-append everything that campaign stored.
        """
        self._close_handle()
        self.corrupt_lines = 0
        self.superseded_lines = 0
        self.torn_tail = False
        self.total_lines = 0
        self._rows = {}
        self._needs_newline = False
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        data = self.path.read_bytes()
        self._needs_newline = bool(data) and not data.endswith(b"\n")
        lines = data.splitlines()
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            self.total_lines += 1
            try:
                doc = json.loads(line)
                key, row = doc["key"], doc["row"]
            except (json.JSONDecodeError, KeyError, TypeError, UnicodeDecodeError):
                self.corrupt_lines += 1
                # An unparseable *final* line with no trailing newline is
                # a torn append (crash mid-write), not external damage.
                if index == len(lines) - 1 and self._needs_newline:
                    self.torn_tail = True
                continue
            if not isinstance(key, str) or not isinstance(row, dict):
                self.corrupt_lines += 1
                continue
            if key in self._rows:
                self.superseded_lines += 1
            self._rows[key] = row

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the row stored under ``key``, or ``None`` if absent."""
        return self._rows.get(key)

    def _append_handle(self) -> Any:
        if self._handle is None or self._handle.closed:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def put(self, key: str, row: Dict[str, Any]) -> None:
        """Record a completed scenario.

        Each put is flushed to the OS (surviving a process crash); call
        :meth:`sync` -- the campaign runner does, once per run -- or
        :meth:`close` for power-failure durability.  One append handle is
        kept open across puts so a large campaign is not O(rows) in
        open/fsync syscalls.
        """
        with span("store.append"):
            line = json.dumps({"key": key, "row": row}, sort_keys=True)
            handle = self._append_handle()
            if self._needs_newline:
                # Terminate the torn fragment: it stays in the file as one
                # corrupt (skipped) line, but the tail is whole again.
                handle.write("\n")
                self._needs_newline = False
                self.torn_tail = False
            handle.write(line + "\n")
            handle.flush()
            self._rows[key] = row
            metrics.inc("store.appends")
            # json.dumps emits pure ASCII, so len(line) is the byte count.
            metrics.inc("store.append_bytes", len(line) + 1)

    def sync(self) -> None:
        """fsync pending appends to disk."""
        if self._handle is not None and not self._handle.closed:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        """fsync, release the append handle (reopened on next put), and
        drop the writer lock if held."""
        self._close_handle()
        self.release_lock()

    def _close_handle(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self.sync()
            self._handle.close()
        self._handle = None

    # -- writer exclusion ---------------------------------------------

    @property
    def lock_path(self) -> Path:
        """The exclusive-writer lockfile guarding this store."""
        return self.path.with_name(self.path.name + ".lock")

    def acquire_lock(self) -> None:
        """Take the exclusive writer lock (no-op if this store holds it).

        The lock is an ``flock(LOCK_EX | LOCK_NB)`` on a *persistent*
        lockfile next to the store.  Kernel-owned locks make staleness a
        non-problem -- a crashed or killed holder's lock evaporates with
        its file descriptors, so reclaim needs no pid probing and has no
        unlink/recreate race windows (the file is created once and never
        deleted; the recorded pid is diagnostic only).  A live holder
        raises :class:`StoreLockError`.  This is what makes
        ``CampaignRunner.run`` safe against a second writer interleaving
        partial lines into the JSONL.

        On platforms without ``fcntl`` the method falls back to
        ``O_CREAT | O_EXCL`` lockfile creation with pid-based staleness
        probing -- best effort, with a small reclaim race two concurrent
        reclaimers could in principle hit.
        """
        if self._lock_fd is not None:
            return
        with span("store.lock", path=str(self.lock_path)):
            self.path.parent.mkdir(parents=True, exist_ok=True)
            try:
                import fcntl
            except ImportError:  # non-POSIX fallback
                self._acquire_lock_exclusive_create()
                lockwatch.lock_acquired(self.WRITER_LOCK_NAME)
                return
            fd = os.open(self.lock_path, os.O_CREAT | os.O_RDWR)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                holder = self._lock_holder()
                os.close(fd)
                who = (f"running process {holder}" if holder
                       else "another process")
                raise StoreLockError(
                    f"{self.path} is locked by {who} ({self.lock_path}); "
                    "wait for the other campaign to finish"
                ) from None
            os.ftruncate(fd, 0)
            os.write(fd, f"{os.getpid()}\n".encode("ascii"))
            self._lock_fd = fd
            self._lock_is_flock = True
        # The writer lock is an flock, not a threading.Lock, so it
        # reports to the lock-order watchdog through the manual hooks:
        # it is held across the whole campaign, and every telemetry/
        # metrics lock acquired meanwhile must nest inside it.
        lockwatch.lock_acquired(self.WRITER_LOCK_NAME)

    def _acquire_lock_exclusive_create(self) -> None:
        """Fallback lock for platforms without ``fcntl``: atomic
        ``O_EXCL`` creation plus pid-based staleness probing."""
        for _ in range(2):
            try:
                fd = os.open(
                    self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                holder = self._lock_holder()
                if holder is not None and _pid_alive(holder):
                    raise StoreLockError(
                        f"{self.path} is locked by running process "
                        f"{holder} ({self.lock_path}); wait for it or "
                        "remove the lockfile if it is stale"
                    ) from None
                try:
                    os.unlink(self.lock_path)
                except FileNotFoundError:
                    pass
                continue
            os.write(fd, f"{os.getpid()}\n".encode("ascii"))
            self._lock_fd = fd
            self._lock_is_flock = False
            return
        raise StoreLockError(
            f"could not acquire {self.lock_path} after reclaiming a stale lock"
        )

    def release_lock(self) -> None:
        """Release the writer lock if this store holds it.

        Closing the descriptor drops the ``flock``; the lockfile itself
        is left in place -- deleting it would reopen the classic
        unlink-vs-lock race where a late-coming writer locks a file
        another writer is about to recreate.  (The non-``fcntl`` fallback
        has no kernel lock, so there the file *is* the lock and must be
        unlinked.)
        """
        if self._lock_fd is None:
            return
        os.close(self._lock_fd)
        self._lock_fd = None
        lockwatch.lock_released(self.WRITER_LOCK_NAME)
        if not getattr(self, "_lock_is_flock", True):
            try:
                os.unlink(self.lock_path)
            except FileNotFoundError:
                pass

    def _lock_holder(self) -> Optional[int]:
        """The pid recorded in the lockfile, or ``None`` if unreadable."""
        try:
            return int(self.lock_path.read_text().strip())
        except (OSError, ValueError):
            return None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def compact(self) -> None:
        """Rewrite the file: one clean line per key, corruption dropped.

        Keeps the writer lock (if held): compaction is exactly the moment
        writer exclusion matters most.
        """
        self._close_handle()
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as handle:
            for key in sorted(self._rows):
                handle.write(
                    json.dumps({"key": key, "row": self._rows[key]},
                               sort_keys=True) + "\n"
                )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        self.corrupt_lines = 0
        self.superseded_lines = 0
        self.torn_tail = False
        self.total_lines = len(self._rows)
        self._needs_newline = False

    def merge_from(
        self, other: "ResultStore", dry_run: bool = False
    ) -> Tuple[int, int]:
        """Fold ``other``'s rows into this store (last-write-wins: rows
        from ``other`` supersede same-key rows already here).

        Returns ``(added, overwritten)`` counts.  Appends row by row --
        call :meth:`compact` afterwards to drop the superseded lines --
        so a crash mid-merge leaves a recoverable store, never a torn
        one.  ``dry_run`` applies the merge to the in-memory view only
        (nothing touches disk; use a throwaway instance), so advisory
        counts come from the same rules as the real merge and can never
        drift from what the merge would then do.
        """
        added = overwritten = 0
        for key, row in other.items():
            if key in self._rows:
                if self._rows[key] == row:
                    continue
                overwritten += 1
            else:
                added += 1
            if dry_run:
                self._rows[key] = row
            else:
                self.put(key, row)
        return added, overwritten

    def keys(self) -> List[str]:
        """All stored scenario hashes, sorted.

        Every view of the store (``keys``/``rows``/``items``/iteration)
        uses hash order: it is deterministic and independent of append
        order, which matters because parallel campaigns append rows in
        completion order -- a hash-ordered scan of two stores holding the
        same rows is identical however they were populated, which is what
        the reporting query layer (:class:`RowQuery
        <repro.reporting.query.RowQuery>`) relies on.
        """
        return sorted(self._rows)

    def rows(self) -> List[Dict[str, Any]]:
        """All stored rows, ordered by scenario hash (see :meth:`keys`)."""
        return [self._rows[key] for key in self.keys()]

    def items(self) -> List[Tuple[str, Dict[str, Any]]]:
        """``(scenario hash, row)`` pairs, ordered by scenario hash."""
        return [(key, self._rows[key]) for key in self.keys()]

    def __iter__(self) -> Iterator[str]:
        """Iterate over scenario hashes in sorted order, like ``keys()``."""
        return iter(self.keys())

    def __contains__(self, key: str) -> bool:
        """Whether a row is stored under ``key``."""
        return key in self._rows

    def __len__(self) -> int:
        """Number of distinct scenario rows held by the store."""
        return len(self._rows)


@contextmanager
def open_store(
    store: Union[None, str, "os.PathLike[str]", ResultStore],
) -> Iterator[Optional[ResultStore]]:
    """Yield ``store`` as a :class:`ResultStore` for one campaign.

    A path is opened here and closed when the block exits; an instance
    (or ``None``) passes through untouched and stays open, because it is
    the caller's to close.
    """
    if not isinstance(store, (str, os.PathLike)):
        yield store
        return
    with ResultStore(store) as opened:
        yield opened


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a running process.

    A pid recycled to an unrelated process reads as alive -- the check is
    deliberately conservative: a false "alive" refuses a lock it could
    have reclaimed, never the reverse.  POSIX uses a signal-0 probe;
    Windows -- which is also the platform that actually takes the
    non-``fcntl`` lock fallback calling this -- needs its own path,
    because there ``os.kill(pid, 0)`` is not a probe: signal 0 is
    ``CTRL_C_EVENT``, which would interrupt the live lock holder (or
    raise for a non-console pid, misreading the holder as dead and
    letting two writers corrupt the store).
    """
    if pid <= 0:
        return False
    if os.name == "nt":
        return _pid_alive_windows(pid)
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


def _pid_alive_windows(pid: int) -> bool:
    """Liveness probe via ``OpenProcess``/``GetExitCodeProcess``."""
    import ctypes

    PROCESS_QUERY_LIMITED_INFORMATION = 0x1000
    ERROR_ACCESS_DENIED = 5
    STILL_ACTIVE = 259
    # use_last_error + get_last_error: plain GetLastError() via ctypes is
    # documented-unreliable (ctypes' own Win32 calls can clobber it), and
    # a clobbered read here would misread a live foreign holder as dead.
    kernel32 = ctypes.WinDLL("kernel32", use_last_error=True)
    handle = kernel32.OpenProcess(
        PROCESS_QUERY_LIMITED_INFORMATION, False, pid
    )
    if not handle:
        # Access denied proves the pid exists (a foreign process);
        # anything else means no such process.
        return ctypes.get_last_error() == ERROR_ACCESS_DENIED
    try:
        code = ctypes.c_ulong()
        if not kernel32.GetExitCodeProcess(handle, ctypes.byref(code)):
            return True  # unknown: refuse the reclaim, never corrupt
        # A handle can still open on an exited-but-handled process.
        return code.value == STILL_ACTIVE
    finally:
        kernel32.CloseHandle(handle)
