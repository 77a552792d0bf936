"""Tests for the execution tracer."""

from collections import Counter

from repro.core.api import run_protocol
from repro.gradecast import graded_consensus
from repro.net import Tracer, render_trace
from repro.net.message import Envelope, tagged
from repro.net.adversary import Adversary


def gc_factory(ctx):
    return graded_consensus(ctx, ("gc",), 1)  # unanimous: round 2 locks flow


class TestTracer:
    def run_traced(self, adversary=None):
        tracer = Tracer()
        result = run_protocol(
            5, 1, [4], gc_factory, adversary, observer=tracer
        )
        return tracer, result

    def test_round_records_match_metrics(self):
        tracer, result = self.run_traced()
        assert len(tracer.rounds) == result.rounds
        assert tracer.total_honest_messages == result.messages
        components = Counter()
        for record in tracer.rounds:
            components.update(record.components)
        assert components == result.metrics.per_component

    def test_components_attributed(self):
        tracer, _ = self.run_traced()
        assert tracer.active_components(1) == ["gc:r1"]
        # round 2 carries r2 locks (all honest locked in this quiet run)
        assert tracer.active_components(2) == ["gc:r2"]

    def test_decisions_recorded(self):
        tracer, result = self.run_traced()
        assert tracer.decision_rounds() == {pid: 2 for pid in range(4)}

    def test_faulty_traffic_counted_separately(self):
        class Chatter(Adversary):
            def step(self, view):
                return [Envelope(4, 0, tagged(("x",), 1))] * 3

        tracer, _ = self.run_traced(Chatter())
        assert tracer.rounds[0].faulty_messages == 3
        assert tracer.rounds[0].honest_messages == 20

    def test_render_trace_readable(self):
        tracer, _ = self.run_traced()
        text = render_trace(tracer)
        lines = text.splitlines()
        assert "round" in lines[0]
        assert len(lines) == 1 + len(tracer.rounds)
        assert "gc:r1" in text

    def test_render_trace_limit(self):
        tracer, _ = self.run_traced()
        text = render_trace(tracer, limit=1)
        assert len(text.splitlines()) == 2

    def test_wrapper_trace_shows_protocol_structure(self):
        import repro
        from repro.core.api import run_protocol as rp
        from repro.core.wrapper import ba_with_predictions
        from repro.predictions import perfect_predictions

        n, t = 7, 2
        preds = perfect_predictions(n, range(n))
        tracer = Tracer()

        def factory(ctx):
            return ba_with_predictions(ctx, ctx.pid % 2, preds[ctx.pid])

        rp(n, t, [], factory, observer=tracer)
        components = set()
        for record in tracer.rounds:
            components.update(record.components)
        # The trace names every layer of the composition, phase-resolved.
        assert "classify" in components
        assert any(c.startswith("ba:1:gc1") for c in components)
        assert any("early" in c for c in components)
        assert any("class" in c for c in components)
