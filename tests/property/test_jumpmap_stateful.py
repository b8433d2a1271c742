"""Stateful property tests (hypothesis rule-based) for the jump store.

Models the jump map against a simple reference implementation and
checks the concurrency-relevant invariants of Section IV-A under
arbitrary operation sequences: first-writer-wins, finished-supersedes-
unfinished, and an export that replays identically.  A second machine
checks the mp executor's journaling map: its log is exactly the
accepted writes, in order, rebuilds the map, and a replay of entries
the map already owns appends nothing.
"""

from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.engine import FLOWS_TO, POINTS_TO
from repro.core.jumpmap import JumpMap
from repro.pag.extended import FinishedJump
from repro.runtime.mp import JournalingJumpMap

keys = st.tuples(
    st.integers(0, 5),
    st.tuples(st.integers(0, 3)) | st.just(()),
    st.sampled_from([POINTS_TO, FLOWS_TO]),
)
edge_sets = st.lists(
    st.builds(
        FinishedJump,
        target=st.integers(0, 9),
        target_ctx=st.just(()),
        steps=st.integers(0, 500),
    ),
    min_size=0,
    max_size=3,
).map(tuple)


class JumpMapMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.map = JumpMap()
        # reference state
        self.fin = {}
        self.unf = {}

    @rule(key=keys, edges=edge_sets)
    def insert_finished(self, key, edges):
        accepted = self.map.insert_finished(key, edges)
        if key in self.fin:
            assert not accepted
        else:
            assert accepted
            self.fin[key] = edges
            self.unf.pop(key, None)

    @rule(key=keys, steps=st.integers(1, 1000))
    def insert_unfinished(self, key, steps):
        accepted = self.map.insert_unfinished(key, steps)
        if key in self.fin or key in self.unf:
            assert not accepted
        else:
            assert accepted
            self.unf[key] = steps

    @rule(key=keys)
    def read(self, key):
        assert self.map.finished(key) == self.fin.get(key)
        assert self.map.unfinished(key) == self.unf.get(key)

    @rule(ks=st.lists(keys, max_size=4))
    def invalidate_keys(self, ks):
        dropped = self.map.invalidate_keys(ks)
        expect = sum(len(self.fin[k]) for k in set(ks) if k in self.fin)
        assert dropped == expect
        for k in ks:
            self.fin.pop(k, None)

    @rule()
    def export_replays_identically(self):
        clone = JumpMap()
        accepted = clone.warm_from(self.map.export_log())
        assert accepted == len(self.fin) + len(self.unf)
        assert dict(clone.finished_items()) == self.fin
        assert dict(clone.unfinished_items()) == self.unf
        # replaying into the original is a no-op (first-writer-wins)
        assert self.map.warm_from(clone.export_log()) == 0

    @invariant()
    def counts_match(self):
        assert self.map.n_finished_edges == sum(len(v) for v in self.fin.values())
        assert self.map.n_unfinished_edges == len(self.unf)
        assert self.map.n_jumps == self.map.n_finished_edges + len(self.unf)

    @invariant()
    def no_key_both(self):
        assert not (set(self.fin) & set(self.unf))


TestJumpMapStateful = JumpMapMachine.TestCase


entries = st.one_of(
    st.tuples(st.just("fin"), keys, edge_sets),
    st.tuples(st.just("unf"), keys, st.integers(1, 1000)),
)


class JournalingMachine(RuleBasedStateMachine):
    """The mp executor's journaling map: its ``log`` is the record of
    exactly the entries it accepted, so it can serve as the commit
    log."""

    @initialize()
    def setup(self):
        self.map = JournalingJumpMap()
        self.accepted = []

    @rule(key=keys, edges=edge_sets)
    def insert_finished(self, key, edges):
        if self.map.insert_finished(key, edges):
            self.accepted.append(("fin", key, edges))

    @rule(key=keys, steps=st.integers(1, 1000))
    def insert_unfinished(self, key, steps):
        if self.map.insert_unfinished(key, steps):
            self.accepted.append(("unf", key, steps))

    @rule(delta=st.lists(entries, max_size=4))
    def replay(self, delta):
        self.accepted.extend(self.map.replay(delta))

    @rule(data=st.data())
    def replay_owned_appends_nothing(self, data):
        # A worker echoing back entries the map already owns (its own
        # log, any slice of it, or the whole export) is dropped whole.
        owned = data.draw(st.sampled_from(
            [self.map.export_log(), list(self.map.log)]
            + [self.map.log[i:] for i in range(len(self.map.log))]
        ))
        before = len(self.map.log)
        assert self.map.replay(owned) == []
        assert len(self.map.log) == before

    @invariant()
    def log_is_the_accepted_writes(self):
        assert self.map.log == self.accepted

    @invariant()
    def log_rebuilds_the_map(self):
        fresh = JumpMap()
        assert fresh.replay(self.map.log) == self.map.log
        assert fresh.export_log() == self.map.export_log()


TestJournalingStateful = JournalingMachine.TestCase
