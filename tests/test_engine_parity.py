"""Parity tests: the optimized engine hot path vs the reference loop.

The optimized round loop (batched metric recording, shared multicast
envelopes, reused inbox lists, per-round payload-bits caching, the wake
index that polls only processes with work to do) must be *observably
identical* to the reference loop kept from the seed engine: same
rounds, messages, bits, per-node and per-round tallies, decisions,
crash sets and completion status, for every protocol family and fault
pattern.
"""

import pytest

from repro import (
    run_aea,
    run_ab_consensus,
    run_checkpointing,
    run_consensus,
    run_gossip,
    run_scv,
)
from repro.api import prepare_recipe
from repro.baselines import FloodingConsensusProcess
from repro.bench.workloads import byzantine_sample, input_vector, rumor_vector
from repro.check.oracles import check_parity
from repro.core.consensus import FewCrashesConsensusProcess
from repro.sim import Engine, crash_schedule
from repro.sim.adversary import CrashSpec, ScheduledCrashes
from repro.sim.process import Multicast, Process, ProtocolError


def assert_parity(optimized, reference):
    """Full observable-equality check between two run results.

    Routed through :func:`repro.check.oracles.check_parity`, the single
    parity definition shared with the fuzz driver and the bench
    certification rows -- so what "identical execution" means cannot
    drift between the test suite and the fuzzing/bench subsystems.
    """
    check_parity(optimized, reference, "optimized", "reference")


N = 100
SEED = 7


class TestProtocolParity:
    """The acceptance bar: byte-identical metrics for the paper's
    protocols under crash faults."""

    def test_consensus_few(self):
        inputs = input_vector(N, "random", SEED)
        assert_parity(
            run_consensus(inputs, 15, algorithm="few", seed=SEED),
            run_consensus(inputs, 15, algorithm="few", seed=SEED, optimized=False),
        )

    def test_consensus_many(self):
        inputs = input_vector(N, "random", SEED)
        assert_parity(
            run_consensus(inputs, 70, algorithm="many", seed=SEED),
            run_consensus(inputs, 70, algorithm="many", seed=SEED, optimized=False),
        )

    def test_gossip(self):
        rumors = rumor_vector(N, SEED)
        assert_parity(
            run_gossip(rumors, 12, seed=SEED),
            run_gossip(rumors, 12, seed=SEED, optimized=False),
        )

    def test_checkpointing(self):
        assert_parity(
            run_checkpointing(N, 10, seed=SEED),
            run_checkpointing(N, 10, seed=SEED, optimized=False),
        )

    def test_aea(self):
        inputs = input_vector(N, "random", SEED)
        assert_parity(
            run_aea(inputs, 16, seed=SEED),
            run_aea(inputs, 16, seed=SEED, optimized=False),
        )

    def test_scv(self):
        holders = range(70)
        assert_parity(
            run_scv(N, 9, holders, 1, seed=SEED),
            run_scv(N, 9, holders, 1, seed=SEED, optimized=False),
        )

    @pytest.mark.parametrize("behaviour", ["silent", "equivocate", "spam"])
    def test_ab_consensus_counts_only_honest_traffic(self, behaviour):
        inputs = input_vector(N, "random", SEED)
        byz = byzantine_sample(N, 4, SEED)
        optimized = run_ab_consensus(inputs, 4, byzantine=byz, behaviour=behaviour)
        reference = run_ab_consensus(
            inputs, 4, byzantine=byz, behaviour=behaviour, optimized=False
        )
        assert_parity(optimized, reference)
        if behaviour == "spam":
            assert optimized.metrics.faulty_messages > 0

    @pytest.mark.parametrize("kind", ["random", "early", "late", "staggered"])
    def test_crash_kinds(self, kind):
        inputs = input_vector(N, "random", SEED)
        for seed in (1, 2, 3):
            assert_parity(
                run_consensus(inputs, 15, algorithm="few", crashes=kind, seed=seed),
                run_consensus(
                    inputs,
                    15,
                    algorithm="few",
                    crashes=kind,
                    seed=seed,
                    optimized=False,
                ),
            )


class _PartialSendVictim(Process):
    """Broadcasts a distinct payload every round; with a crash-round
    ``keep`` budget only a prefix of its fan-out is delivered, which
    exercises the slow (truncated) send path of the optimized loop."""

    def send(self, rnd):
        yield Multicast(tuple(range(self.n)), ("chunk", rnd, self.pid))
        yield ((self.pid + 1) % self.n, rnd)

    def receive(self, rnd, inbox):
        if rnd >= 3:
            self.decide(sorted(src for src, _ in inbox))
            self.halt()


class TestEngineEdgeParity:
    def _run_pair(self, make_procs, adversary_factory, **engine_kwargs):
        a = Engine(make_procs(), adversary_factory(), optimized=True, **engine_kwargs)
        b = Engine(make_procs(), adversary_factory(), optimized=False, **engine_kwargs)
        return a.run(), b.run()

    @pytest.mark.parametrize("keep", [0, 1, 5, None])
    def test_partial_send_truncation(self, keep):
        n = 12
        make = lambda: [_PartialSendVictim(pid, n) for pid in range(n)]
        adv = lambda: ScheduledCrashes(
            {3: CrashSpec(round=1, keep=keep), 7: CrashSpec(round=2, keep=keep)}
        )
        assert_parity(*self._run_pair(make, adv))

    def test_everyone_crashes(self):
        n = 8
        make = lambda: [_PartialSendVictim(pid, n) for pid in range(n)]
        adv = lambda: ScheduledCrashes(
            {pid: CrashSpec(round=1, keep=0) for pid in range(n)}
        )
        optimized, reference = self._run_pair(make, adv)
        assert_parity(optimized, reference)
        assert optimized.completed

    def test_fast_forward_off(self):
        inputs = input_vector(60, "random", SEED)
        assert_parity(
            run_consensus(inputs, 9, seed=SEED, fast_forward=False),
            run_consensus(inputs, 9, seed=SEED, fast_forward=False, optimized=False),
        )

    def test_observer_sees_same_rounds(self):
        n = 40
        t = 4
        seen = {True: [], False: []}
        for optimized in (True, False):
            procs = [FloodingConsensusProcess(i, n, t, i % 2) for i in range(n)]
            engine = Engine(
                procs, crash_schedule(n, t, seed=2, max_round=t + 1), optimized=optimized
            )
            engine.run(observer=lambda rnd, ps: seen[optimized].append(rnd))
        assert seen[True] == seen[False]

    def test_retained_inbox_references_never_mutate(self):
        # A process may keep its inbox reference; neither path may ever
        # append to a list it already handed out (empty or not).
        class Retainer(Process):
            def on_start(self):
                self.seen = []

            def send(self, rnd):
                if rnd == 2 and self.pid == 0:
                    return [(1, "late")]
                return ()

            def receive(self, rnd, inbox):
                self.seen.append(inbox)
                if rnd >= 3:
                    self.halt()

        histories = {}
        for optimized in (True, False):
            procs = [Retainer(pid, 2) for pid in range(2)]
            Engine(procs, optimized=optimized, fast_forward=False).run()
            histories[optimized] = [list(box) for box in procs[1].seen]
        assert histories[True] == histories[False]
        assert histories[True] == [[], [], [(0, "late")], []]

    def test_invalid_destination_rejected_both_paths(self):
        class Bad(Process):
            def send(self, rnd):
                return [(self.n + 3, 0)]

        for optimized in (True, False):
            engine = Engine([Bad(0, 1)], optimized=optimized)
            with pytest.raises(ProtocolError):
                engine.run()

    def test_invalid_multicast_destination_rejected_both_paths(self):
        class BadMulticast(Process):
            def send(self, rnd):
                return [Multicast((0, self.n + 3), 0)]

        for optimized in (True, False):
            engine = Engine([BadMulticast(0, 1)], optimized=optimized)
            with pytest.raises(ProtocolError):
                engine.run()


class TestWakeIndexSavings:
    """The optimized loop polls only the processes with work to do."""

    def test_few_crashes_consensus_skips_idle_sends(self, monkeypatch):
        calls = [0]
        original = FewCrashesConsensusProcess.send

        def counting_send(self, rnd):
            calls[0] += 1
            return original(self, rnd)

        monkeypatch.setattr(FewCrashesConsensusProcess, "send", counting_send)
        recipe = {
            "name": "consensus",
            "inputs": input_vector(400, "random", 0),
            "t": 40,
            "algorithm": "few",
        }
        results, sends = {}, {}
        for optimized in (True, False):
            calls[0] = 0
            prepared = prepare_recipe(recipe, crashes="random", seed=0)
            results[optimized] = Engine(
                prepared.processes,
                prepared.adversary,
                max_rounds=prepared.max_rounds,
                optimized=optimized,
            ).run()
            sends[optimized] = calls[0]
        assert results[True].crashed
        assert_parity(results[True], results[False])
        assert sends[True] * 4 < sends[False], sends
