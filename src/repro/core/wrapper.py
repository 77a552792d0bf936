"""Byzantine agreement with predictions: the guess-and-double wrapper
(Algorithm 1), combining every substrate in the library.

Each phase ``phi`` guesses ``k = 2^(phi-1)`` as a bound on both the fault
count and the misclassification count, and runs

1. graded consensus                     (protects validity / detects agreement),
2. early-stopping BA, time-boxed        (wins when ``f <= k``),
3. graded consensus,
4. conditional BA with classification,
   time-boxed                           (wins when ``k_A <= k``),
5. graded consensus                     (commit check).

A process that sees grade 1 at step 5 records its decision, helps for one
more full phase, and returns.  Since classification errs on at most
``O(B/n)`` processes (Lemma 1), the protocol decides within
``O(log min{B/n, f})`` phases of geometrically growing length, i.e.
``O(min{B/n + 1, f})`` rounds (Theorems 11 and 12).

Every arm gets an exact round budget known to all processes, so the whole
composition stays in lock step (the paper's "spend exactly T rounds"
semantics, via :func:`repro.net.protocol.run_exactly`).
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Sequence

from ..classify.protocol import classify
from ..crypto.keys import KeyStore
from ..earlystop.protocol import ba_early_stopping
from ..gradecast.auth import graded_consensus_auth
from ..gradecast.unauth import graded_consensus
from ..net.context import ProcessContext
from ..net.message import Envelope
from ..net.protocol import run_exactly
from .auth import ba_with_classification_auth
from .unauth import ba_with_classification_unauth

UNAUTHENTICATED = "unauthenticated"
AUTHENTICATED = "authenticated"

#: The canonical protocol modes, in declaration order.  Every mode-taking
#: surface (``repro.api.Experiment``, the engine's ``_solve``,
#: :class:`repro.runtime.ScenarioSpec`, the CLI) validates against this
#: tuple, so a typo'd mode fails loudly instead of silently running the
#: unauthenticated suite.
MODES = (UNAUTHENTICATED, AUTHENTICATED)

_EARLY_STOP_PHASE_ROUNDS = 5  # gc3 (2) + king (1) + gc3 (2)
_EARLY_STOP_SLACK_PHASES = 3  # decide by f+2, help one phase, one spare


def num_phases(t: int) -> int:
    """``ceil(log2 t) + 1`` phases (at least one)."""
    if t <= 1:
        return 1
    return (t - 1).bit_length() + 1


def early_stopping_budget(k: int, t: int) -> int:
    """Rounds for the early-stopping arm to finish whenever ``f <= k``."""
    return _EARLY_STOP_PHASE_ROUNDS * (min(k, t) + _EARLY_STOP_SLACK_PHASES)


def classification_budget(k: int, mode: str) -> int:
    """Exact worst-case rounds of the conditional arm for bound ``k``."""
    if mode == AUTHENTICATED:
        return k + 3  # Algorithm 7
    return 5 * (2 * k + 1)  # Algorithm 5


def phase_rounds(phase: int, t: int, mode: str) -> int:
    """Total rounds of wrapper phase ``phase`` (three GCs at 2 rounds each)."""
    k = 2 ** (phase - 1)
    return 6 + early_stopping_budget(k, t) + classification_budget(k, mode)


def total_round_bound(t: int, mode: str) -> int:
    """Worst-case rounds of the full wrapper (all phases plus classify)."""
    return 1 + sum(
        phase_rounds(phase, t, mode) for phase in range(1, num_phases(t) + 1)
    )


def ba_with_predictions(
    ctx: ProcessContext,
    value: Any,
    prediction: Sequence[int],
    mode: str = UNAUTHENTICATED,
    keystore: Optional[KeyStore] = None,
    arms: Sequence[str] = ("early", "class"),
) -> Generator[List[Envelope], List[Envelope], Any]:
    """Run Algorithm 1; return this process's decision.

    ``mode`` selects the sub-protocol suite: ``"unauthenticated"`` needs
    ``t < n/3`` (Theorem 11); ``"authenticated"`` additionally needs a
    :class:`~repro.crypto.keys.KeyStore` and uses the committee-based
    conditional arm that profits from predictions for every ``B``
    (Theorem 12; see "Substitutions" in docs/ARCHITECTURE.md for the
    graded-consensus substitution).

    ``arms`` is an ablation hook: dropping ``"early"`` removes the
    early-stopping arm (losing the ``O(f)`` fallback), dropping ``"class"``
    removes the prediction-driven arm (losing the ``O(B/n + 1)`` fast
    path).  Correctness is preserved either way as long as the final phase
    still contains the early-stopping arm or predictions are good; the
    benchmarks quantify the cost of each removal.
    """
    if mode not in (UNAUTHENTICATED, AUTHENTICATED):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == AUTHENTICATED and (keystore is None or ctx.signer is None):
        raise ValueError("authenticated mode requires a keystore and signer")
    if not set(arms) <= {"early", "class"} or not arms:
        raise ValueError(f"arms must be a non-empty subset of early/class: {arms!r}")

    def run_gc(tag: tuple, v: Any):
        if mode == AUTHENTICATED:
            return graded_consensus_auth(ctx, tag, v, keystore)
        return graded_consensus(ctx, tag, v)

    classification = yield from classify(ctx, ("classify",), prediction)

    decided = False
    decision: Any = None
    for phase in range(1, num_phases(ctx.t) + 1):
        k = 2 ** (phase - 1)
        base = ("ba", phase)

        value, grade = yield from run_gc(base + ("gc1",), value)
        if "early" in arms:
            candidate, _ = yield from run_exactly(
                early_stopping_budget(k, ctx.t),
                ba_early_stopping(ctx, base + ("early",), value),
                fallback=value,
            )
            if grade == 0:
                value = candidate

        value, grade = yield from run_gc(base + ("gc2",), value)
        if "class" in arms:
            if mode == AUTHENTICATED:
                conditional = ba_with_classification_auth(
                    ctx, base + ("class",), value, classification, k, keystore
                )
            else:
                conditional = ba_with_classification_unauth(
                    ctx, base + ("class",), value, classification, k
                )
            candidate, _ = yield from run_exactly(
                classification_budget(k, mode), conditional, fallback=value
            )
            if grade == 0:
                value = candidate

        value, grade = yield from run_gc(base + ("gc3",), value)
        if decided:
            return decision
        if grade == 1:
            decision = value
            decided = True

    return decision if decided else value
