"""A Byzantine list where a value belongs must not crash honest processes.

Honest processes only send hashable values, so every protocol ignores an
unhashable one wherever it counts or collects values -- the same as the
faulty sender staying silent toward that recipient.  Each case runs one
protocol under a :class:`ScriptedAdversary` that slips a list in; every
run must complete, and with unanimous honest input the graded-consensus
variants must still satisfy Strong Unanimity.
"""

import pytest

from repro.adversary import ScriptedAdversary
from repro.broadcast import BB_DEFAULT, bb_with_implicit_committee
from repro.conciliate import conciliate
from repro.core.auth import ba_with_classification_auth
from repro.crypto import KeyStore, committee_message, make_certificate, start_chain
from repro.earlystop import ba_early_stopping
from repro.gradecast import (
    graded_consensus,
    graded_consensus_3,
    graded_consensus_auth,
    graded_consensus_with_core_set,
)
from repro.gradecast.auth import _echo_message
from repro.net.message import Envelope

from helpers import assert_agreement, run_sub

N, T = 7, 2
FAULTY = [5, 6]
TAG = ("case",)


def flood(payloads):
    """A script sending every faulty process's payloads to everyone, every
    round."""
    def script(view, world):
        return [Envelope(pid, j, payload)
                for pid, payload in payloads for j in range(world.n)]
    return ScriptedAdversary(script)


def certificate(keystore, pid, t):
    return make_certificate(
        keystore.handle_for({j}).sign(j, committee_message(pid))
        for j in range(t + 1))


def unauth_case(protocol, top_grade):
    def run():
        listed = [(pid, (TAG + (r,), [1])) for pid in FAULTY for r in ("r1", "r2")]
        result = run_sub(N, T, FAULTY, lambda ctx: protocol(ctx, TAG, "v"),
                         flood(listed))
        return result, lambda value: value == ("v", top_grade)
    return run


def core_set_case():
    # Faulty 6 sits in every listen set next to the honest core {0, 1, 2}.
    listen = [0, 1, 2, 6]
    listed = [(6, (TAG + (r,), [1])) for r in ("r1", "r2")]
    result = run_sub(
        N, T, FAULTY,
        lambda ctx: graded_consensus_with_core_set(ctx, TAG, "v", 1, listen),
        flood(listed))
    return result, lambda value: value == ("v", 1)


def conciliate_case():
    # A faulty leader claiming the listen set (6,) is its own vertex's
    # candidate, so its list would reach the plurality count.
    listen = [0, 1, 2, 6]
    result = run_sub(N, T, FAULTY,
                     lambda ctx: conciliate(ctx, TAG, "v", 1, listen),
                     flood([(6, (TAG, ([1], (6,))))]))
    return result, lambda value: value == "v"


def auth_gc_case():
    keystore = KeyStore(N, seed=3)
    echo = keystore.handle_for({6}).sign(6, _echo_message(TAG, [1]))
    result = run_sub(
        N, T, FAULTY,
        lambda ctx: graded_consensus_auth(ctx, TAG, "v", keystore),
        flood([(6, (TAG + ("r1",), ([1], echo)))]), keystore=keystore)
    return result, lambda value: value == ("v", 1)


def implicit_committee_case():
    n, t, faulty = 8, 2, [6, 7]
    keystore = KeyStore(n, seed=11)
    certs = {pid: certificate(keystore, pid, t) for pid in (0, 1, 2, 7)}
    chain = start_chain([1, 2], certs[7], keystore.handle_for({7}), 7)

    def factory(ctx):
        return bb_with_implicit_committee(
            ctx, TAG, 7, "v", 1, certs.get(ctx.pid), keystore)

    result = run_sub(n, t, faulty, factory, flood([(7, (TAG, chain))]),
                     keystore=keystore)
    return result, lambda value: value == BB_DEFAULT


def early_stopping_case():
    # Faulty 0 is the first king; split honest inputs make processes adopt
    # the king's value.
    faulty = [0, 6]
    king_tag = TAG + (1, "king")
    result = run_sub(
        N, T, faulty,
        lambda ctx: ba_early_stopping(ctx, TAG, ctx.pid % 2),
        flood([(0, (king_tag, [1]))]))
    assert_agreement(result)
    return result, lambda value: value in (0, 1)


def announce_case():
    keystore = KeyStore(N, seed=5)
    cert = certificate(keystore, 6, T)
    result = run_sub(
        N, T, FAULTY,
        lambda ctx: ba_with_classification_auth(
            ctx, TAG, "v", [1] * N, 1, keystore),
        flood([(6, (TAG + ("plurality",), ([1], cert)))]), keystore=keystore)
    return result, lambda value: value == "v"


CASES = {
    "graded_consensus": unauth_case(graded_consensus, 1),
    "graded_consensus_3": unauth_case(graded_consensus_3, 2),
    "graded_consensus_with_core_set": core_set_case,
    "conciliate": conciliate_case,
    "graded_consensus_auth": auth_gc_case,
    "bb_with_implicit_committee": implicit_committee_case,
    "ba_early_stopping": early_stopping_case,
    "ba_with_classification_auth": announce_case,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_unhashable_byzantine_value_is_ignored(case):
    result, expected = CASES[case]()
    assert sorted(result.decisions) == result.honest_ids
    for pid, value in result.decisions.items():
        assert expected(value), (pid, value)
