"""Small shared helpers."""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, List, Mapping, Optional, Tuple


def value_sort_key(value: Any) -> Tuple[str, str]:
    """A total order over heterogeneous decision values.

    Protocols break ties deterministically (e.g. "the smallest value that
    occurs the largest number of times", Algorithm 7 line 13).  Decision
    values are usually ints or strings, but Byzantine senders can inject
    anything, so we order by ``(type name, repr)`` which is total and
    deterministic for the payload types the simulator admits.
    """
    return (type(value).__name__, repr(value))


def is_hashable(value: Any) -> bool:
    """Whether ``value`` can be counted (used as a dict key).

    Honest processes only ever send hashable values, so protocols ignore
    an unhashable one -- a Byzantine list where a value belongs -- exactly
    as if its faulty sender had stayed silent.
    """
    try:
        hash(value)
    except TypeError:
        return False
    return True


def most_common_value(
    counts: Mapping[Any, int], min_count: int = 1
) -> Optional[Any]:
    """The value with the highest count, smallest (by
    :func:`value_sort_key`) among ties; ``None`` if no count reaches
    ``min_count``."""
    if not counts:
        return None
    best_count = max(counts.values())
    if best_count < min_count:
        return None
    candidates: List[Any] = [v for v, c in counts.items() if c == best_count]
    return min(candidates, key=value_sort_key)


def most_frequent_value(
    values: Iterable[Any], min_count: int = 1
) -> Optional[Any]:
    """The value occurring most often, smallest (by :func:`value_sort_key`)
    among ties; ``None`` if no value reaches ``min_count``."""
    return most_common_value(Counter(values), min_count)


def values_with_count_at_least(values: Iterable[Any], threshold: int) -> List[Any]:
    """All distinct values occurring at least ``threshold`` times."""
    counts = Counter(values)
    return [v for v, c in counts.items() if c >= threshold]
