"""Property-based tests (hypothesis) on core invariants.

These quantify over the paper's whole parameter space at small scale:
Agreement, Strong Unanimity, and Termination must hold for *every*
combination of n, t, f, prediction budget, generator, adversary, and input
pattern.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.adversary import (
    PredictionLiarAdversary,
    RandomNoiseAdversary,
    SilentAdversary,
    SplitWorldAdversary,
    StallingAdversary,
)
from repro.api import Experiment
from repro.classify.ordering import position_in_order, priority_order
from repro.crypto import KeyStore, canonical_encode
from repro.core.wrapper import total_round_bound
from repro.predictions import count_errors, generate
from repro.util import most_frequent_value, value_sort_key


def make_adversary(kind):
    if kind == "silent":
        return SilentAdversary()
    if kind == "split":
        return SplitWorldAdversary(0, 1)
    if kind == "liar":
        return PredictionLiarAdversary()
    if kind == "stalling":
        return StallingAdversary(0, 1)
    return RandomNoiseAdversary(seed=7)


@st.composite
def scenarios(draw):
    n = draw(st.integers(min_value=4, max_value=10))
    t = draw(st.integers(min_value=1, max_value=(n - 1) // 3))
    f = draw(st.integers(min_value=0, max_value=t))
    budget_cap = (n - f) * n
    budget = draw(st.integers(min_value=0, max_value=min(budget_cap, 3 * n)))
    kind = draw(st.sampled_from(["random", "concentrated", "single_holder"]))
    adversary = draw(
        st.sampled_from(["silent", "split", "liar", "noise", "stalling"])
    )
    unanimous = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return n, t, f, budget, kind, adversary, unanimous, seed


@settings(max_examples=20, deadline=None)
@given(scenarios())
def test_agreement_validity_termination_unauth(scenario):
    n, t, f, budget, kind, adversary, unanimous, seed = scenario
    faulty = list(range(n - f, n))
    honest = [pid for pid in range(n) if pid not in set(faulty)]
    predictions = generate(kind, n, honest, budget, random.Random(seed))
    inputs = [1] * n if unanimous else [pid % 2 for pid in range(n)]
    report = (
        Experiment(n=n, t=t, mode="unauthenticated")
        .with_inputs(inputs)
        .with_faults(faulty=faulty)
        .with_adversary(make_adversary(adversary))
        .with_predictions(predictions)
        .solve_one()
    )
    assert report.agreed  # Agreement + Termination
    if unanimous:
        assert report.decision == 1  # Strong Unanimity
    assert report.rounds <= total_round_bound(t, "unauthenticated")


@settings(max_examples=10, deadline=None)
@given(scenarios())
def test_agreement_validity_termination_auth(scenario):
    n, t, f, budget, kind, adversary, unanimous, seed = scenario
    faulty = list(range(n - f, n))
    honest = [pid for pid in range(n) if pid not in set(faulty)]
    predictions = generate(kind, n, honest, budget, random.Random(seed))
    inputs = [0] * n if unanimous else [pid % 2 for pid in range(n)]
    report = (
        Experiment(n=n, t=t, mode="authenticated")
        .with_inputs(inputs)
        .with_faults(faulty=faulty)
        .with_adversary(make_adversary(adversary))
        .with_predictions(predictions)
        .with_options(key_seed=seed)
        .solve_one()
    )
    assert report.agreed
    if unanimous:
        assert report.decision == 0


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=16),
    st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=16),
)
def test_priority_order_is_permutation(pad, bits):
    c = tuple(bits)
    order = priority_order(c)
    assert sorted(order) == list(range(len(c)))
    for pid in range(len(c)):
        assert order[position_in_order(c, pid)] == pid
    # honest-classified ids precede faulty-classified ids
    boundary = sum(c)
    assert all(c[pid] == 1 for pid in order[:boundary])
    assert all(c[pid] == 0 for pid in order[boundary:])


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=9999),
    st.sampled_from(["random", "concentrated", "single_holder"]),
)
def test_generator_budgets_always_exact(n, budget, seed, kind):
    honest = list(range(max(1, n - n // 3)))
    capacity = len(honest) * n
    budget = min(budget, capacity)
    predictions = generate(kind, n, honest, budget, random.Random(seed))
    assert count_errors(predictions, honest).total == budget
    assert len(predictions) == n
    assert all(len(p) == n for p in predictions)


_encodable = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(10**9), max_value=10**9),
        st.text(max_size=8),
        st.binary(max_size=8),
    ),
    lambda children: st.tuples(children, children),
    max_leaves=8,
)


def _structurally_equal(a, b):
    """Type-aware equality: True != 1 (Python's == conflates them, the
    canonical encoding intentionally does not)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(
            _structurally_equal(x, y) for x, y in zip(a, b)
        )
    return a == b


@settings(max_examples=100, deadline=None)
@given(_encodable, _encodable)
def test_canonical_encode_injective_on_samples(a, b):
    if _structurally_equal(a, b):
        assert canonical_encode(a) == canonical_encode(b)
    else:
        assert canonical_encode(a) != canonical_encode(b)


@settings(max_examples=50, deadline=None)
@given(_encodable)
def test_signatures_stable_over_encodable_values(message):
    ks = KeyStore(3, seed=5)
    sig = ks.handle_for({1}).sign(1, message)
    assert ks.verify(sig, message)
    assert not ks.verify(sig, (message, "suffix"))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=30))
def test_most_frequent_value_properties(values):
    result = most_frequent_value(values)
    if not values:
        assert result is None
    else:
        counts = {v: values.count(v) for v in values}
        best = max(counts.values())
        winners = [v for v, c in counts.items() if c == best]
        assert result == min(winners, key=value_sort_key)
