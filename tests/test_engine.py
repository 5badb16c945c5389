"""Unit tests for the multi-port synchronous engine (Section 2 model)."""

import pytest

from repro.sim.adversary import CrashSpec, NoFailures, ScheduledCrashes
from repro.sim.engine import Engine
from repro.sim.process import Multicast, Process, ProtocolError


class Echo(Process):
    """Sends its pid to everyone at round 0, records what it receives."""

    def __init__(self, pid, n, rounds=1):
        super().__init__(pid, n)
        self.rounds = rounds
        self.seen = []

    def send(self, rnd):
        if rnd == 0:
            others = tuple(q for q in range(self.n) if q != self.pid)
            return [Multicast(others, self.pid)]
        return ()

    def receive(self, rnd, inbox):
        self.seen.extend(src for src, _ in inbox)
        if rnd >= self.rounds - 1:
            self.halt()


class TestDelivery:
    def test_same_round_delivery(self):
        procs = [Echo(i, 4) for i in range(4)]
        result = Engine(procs).run()
        assert result.completed
        for proc in procs:
            assert sorted(proc.seen) == sorted(q for q in range(4) if q != proc.pid)

    def test_rounds_counted_until_all_halt(self):
        procs = [Echo(i, 3, rounds=5) for i in range(3)]
        result = Engine(procs).run()
        assert result.rounds == 5

    def test_message_and_bit_totals(self):
        procs = [Echo(i, 5) for i in range(5)]
        result = Engine(procs).run()
        assert result.messages == 5 * 4
        # pids 0..4 have bit lengths 1,1,2,2,3 -> each sent to 4 peers.
        assert result.bits == 4 * (1 + 1 + 2 + 2 + 3)

    def test_per_node_accounting(self):
        procs = [Echo(i, 4) for i in range(4)]
        result = Engine(procs).run()
        assert all(result.metrics.per_node_messages[p] == 3 for p in range(4))


class TestCrashSemantics:
    def test_crashed_node_sends_nothing_after_crash(self):
        adversary = ScheduledCrashes({0: CrashSpec(round=0, keep=0)})
        procs = [Echo(i, 4) for i in range(4)]
        result = Engine(procs, adversary).run()
        assert 0 in result.crashed
        for proc in procs[1:]:
            assert 0 not in proc.seen

    def test_partial_send_delivers_prefix(self):
        adversary = ScheduledCrashes({0: CrashSpec(round=0, keep=2)})
        procs = [Echo(i, 5) for i in range(5)]
        Engine(procs, adversary).run()
        receivers = [p.pid for p in procs[1:] if 0 in p.seen]
        # Node 0's multicast order is (1, 2, 3, 4); only the first two
        # may receive.
        assert receivers == [1, 2]

    def test_crashed_node_does_not_receive(self):
        adversary = ScheduledCrashes({2: CrashSpec(round=0, keep=None)})
        procs = [Echo(i, 4) for i in range(4)]
        Engine(procs, adversary).run()
        # keep=None delivers its full round-0 send but it must not
        # receive anything in that same round.
        assert procs[2].seen == []

    def test_crash_budget_excluded_from_termination(self):
        adversary = ScheduledCrashes({0: CrashSpec(round=0, keep=0)})
        procs = [Echo(i, 3) for i in range(3)]
        result = Engine(procs, adversary).run()
        assert result.completed
        assert result.correct_pids() == [1, 2]

    def test_crashing_byzantine_node_rejected(self):
        adversary = ScheduledCrashes({0: CrashSpec(round=0, keep=0)})
        procs = [Echo(i, 3) for i in range(3)]
        engine = Engine(procs, adversary, byzantine=frozenset({0}))
        with pytest.raises(ProtocolError):
            engine.run()


class TestByzantineAccounting:
    def test_byzantine_traffic_not_counted(self):
        procs = [Echo(i, 4) for i in range(4)]
        result = Engine(procs, byzantine=frozenset({1})).run()
        assert result.messages == 3 * 3
        assert result.metrics.faulty_messages == 3


class TestFastForward:
    class Sleeper(Process):
        """Quiescent until a scheduled wake round, then halts."""

        def __init__(self, pid, n, wake):
            super().__init__(pid, n)
            self.wake = wake
            self.acted_at = None

        def send(self, rnd):
            if rnd == self.wake:
                self.acted_at = rnd
            return ()

        def receive(self, rnd, inbox):
            if rnd >= self.wake:
                self.halt()

        def next_activity(self, rnd):
            return max(rnd + 1, self.wake)

    def test_fast_forward_skips_quiescent_rounds(self):
        procs = [self.Sleeper(i, 2, wake=5000) for i in range(2)]
        result = Engine(procs).run()
        assert result.completed
        assert result.rounds == 5001
        assert all(p.acted_at == 5000 for p in procs)

    def test_fast_forward_respects_scheduled_crashes(self):
        # A crash scheduled mid-sleep must still be applied.
        adversary = ScheduledCrashes({0: CrashSpec(round=100, keep=0)})
        procs = [self.Sleeper(i, 2, wake=5000) for i in range(2)]
        result = Engine(procs, adversary).run()
        assert 0 in result.crashed
        assert result.completed

    def test_fast_forward_equivalence(self):
        for flag in (True, False):
            procs = [Echo(i, 4, rounds=3) for i in range(4)]
            result = Engine(procs, fast_forward=flag).run()
            assert result.rounds == 3
            assert result.messages == 12

    def test_bad_next_activity_rejected(self):
        class Bad(self.Sleeper):
            def next_activity(self, rnd):
                return rnd  # not in the future

        procs = [Bad(i, 2, wake=50) for i in range(2)]
        with pytest.raises(ProtocolError):
            Engine(procs).run()


class TestValidation:
    def test_pid_order_enforced(self):
        procs = [Echo(1, 2), Echo(0, 2)]
        with pytest.raises(ProtocolError):
            Engine(procs)

    def test_invalid_destination_rejected(self):
        class Stray(Process):
            def send(self, rnd):
                return [(99, 1)]

        with pytest.raises(ProtocolError):
            Engine([Stray(0, 2), Echo(1, 2)]).run()

    def test_max_rounds_marks_incomplete(self):
        class Forever(Process):
            pass  # never halts, never sends

        result = Engine([Forever(0, 1)], max_rounds=10).run()
        assert not result.completed

    def test_all_crashed_run_completes(self):
        adversary = ScheduledCrashes(
            {0: CrashSpec(0, 0), 1: CrashSpec(0, 0)}
        )
        procs = [Echo(i, 2) for i in range(2)]
        result = Engine(procs, adversary).run()
        assert result.completed
        assert result.correct_pids() == []


class Resender(Process):
    """Multicasts ``groups[rnd]`` in each round it has one; the engine
    checks each sender's destination tuple once and skips the check
    while the same object is sent again."""

    def __init__(self, pid, n, groups):
        super().__init__(pid, n)
        self.groups = groups

    def send(self, rnd):
        if rnd < len(self.groups):
            return [Multicast(self.groups[rnd], rnd)]
        return ()

    def receive(self, rnd, inbox):
        if rnd >= len(self.groups):
            self.halt()


class Listener(Process):
    def receive(self, rnd, inbox):
        if rnd >= 3:
            self.halt()


class TestDestinationCheckCache:
    """A cached destination check never lets a bad pid through."""

    @pytest.mark.parametrize("optimized", [True, False])
    def test_new_tuple_with_n_is_checked(self, optimized):
        n = 3
        good = (1, 2)
        procs = [Resender(0, n, [good, (1, n)])]
        procs += [Listener(pid, n) for pid in range(1, n)]
        with pytest.raises(ProtocolError, match=f"invalid pid {n}$"):
            Engine(procs, optimized=optimized).run()

    @pytest.mark.parametrize("optimized", [True, False])
    def test_list_mutated_in_place_is_checked(self, optimized):
        n = 3

        class Mutator(Resender):
            def receive(self, rnd, inbox):
                self.groups[0][1] = -1

        dsts = [1, 2]
        procs = [Mutator(0, n, [dsts, dsts])]
        procs += [Listener(pid, n) for pid in range(1, n)]
        with pytest.raises(ProtocolError, match="invalid pid -1$"):
            Engine(procs, optimized=optimized).run()

    @pytest.mark.parametrize("optimized", [True, False])
    def test_negative_pid_rejected(self, optimized):
        n = 3
        procs = [Resender(0, n, [(1, -2, 2)])]
        procs += [Listener(pid, n) for pid in range(1, n)]
        with pytest.raises(ProtocolError, match="process 0 sent to invalid pid -2$"):
            Engine(procs, optimized=optimized).run()


class TestDecisions:
    def test_decide_is_irrevocable(self):
        proc = Echo(0, 2)
        proc.decide(1)
        with pytest.raises(ProtocolError):
            proc.decide(0)
        proc.decide(1)  # same value is a no-op

    def test_decisions_collected_in_result(self):
        class Decider(Echo):
            def receive(self, rnd, inbox):
                self.decide(self.pid * 10)
                self.halt()

        procs = [Decider(i, 3) for i in range(3)]
        result = Engine(procs).run()
        assert result.decisions == {0: 0, 1: 10, 2: 20}

    def test_observer_sees_every_round(self):
        rounds = []
        procs = [Echo(i, 3, rounds=4) for i in range(3)]
        Engine(procs).run(observer=lambda rnd, ps: rounds.append(rnd))
        assert rounds == [0, 1, 2, 3]
