"""Structured stdlib-logging setup shared by driver, workers, and CLI.

One logger namespace (``repro.*``), one line format, one configuration
entry point.  Log lines are ``event key=value ...`` -- grep-friendly and
diffable, matching the telemetry sink's philosophy: every observable
fact is a flat record, not prose.  :func:`kv` builds the message part;
callers pick the logger and level::

    log = logging.getLogger("repro.worker")
    log.info(kv("accept", peer="127.0.0.1:52110", session=3))

:func:`configure_logging` installs a stderr handler on the ``repro``
logger exactly once (idempotent), so library imports never configure
logging behind an application's back -- only the CLI entry points call
it.  The handler writes to whatever ``sys.stderr`` is when a record is
emitted, so a stream swapped out later (a test harness's capture,
closed when the test ends) is never written to again.  Propagation
stays on, so test harnesses (``caplog``) and host applications with
root handlers still see everything.
"""

from __future__ import annotations

import logging
import sys
from typing import Any, TextIO

#: Accepted ``--log-level`` names, mapped to stdlib levels.
LOG_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}

_FORMAT = "%(asctime)s %(levelname)s %(name)s %(message)s"
_DATEFMT = "%H:%M:%S"


class _StderrHandler(logging.StreamHandler):
    """A stream handler bound to the current ``sys.stderr``, looked up
    on every emit rather than once at construction."""

    def __init__(self) -> None:
        # Skip StreamHandler.__init__: it would assign ``stream``, which
        # this class reads from ``sys.stderr`` instead of storing.
        logging.Handler.__init__(self)

    @property
    def stream(self) -> TextIO:  # type: ignore[override]
        return sys.stderr


def kv(event: str, **fields: Any) -> str:
    """Format ``event key=value ...``; strings with spaces get quoted."""
    parts = [event]
    for key, value in fields.items():
        if isinstance(value, float):
            text = f"{value:.6f}".rstrip("0").rstrip(".") or "0"
        else:
            text = str(value)
        if " " in text or text == "":
            text = repr(text)
        parts.append(f"{key}={text}")
    return " ".join(parts)


def configure_logging(level: str = "info") -> logging.Logger:
    """Attach one stderr handler to the ``repro`` logger and set its level.

    Idempotent: a handler installed by a previous call is re-leveled, not
    duplicated.  The handler writes to stderr so worker stdout stays
    reserved for its machine-parsed ``worker listening on ...`` line.
    Returns the configured logger.
    """
    try:
        resolved = LOG_LEVELS[level.lower()]
    except KeyError:
        raise ValueError(
            f"unknown log level {level!r} (choose from "
            f"{', '.join(sorted(LOG_LEVELS))})"
        ) from None
    logger = logging.getLogger("repro")
    handler = next(
        (h for h in logger.handlers if isinstance(h, _StderrHandler)), None
    )
    if handler is None:
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter(_FORMAT, datefmt=_DATEFMT))
        logger.addHandler(handler)
    logger.setLevel(resolved)
    handler.setLevel(resolved)
    return logger
