"""Stateful property tests (hypothesis rule-based) for the jump store.

Models the jump map against a simple reference implementation and
checks the concurrency-relevant invariants of Section IV-A under
arbitrary operation sequences: first-writer-wins, finished-supersedes-
unfinished, layered read-through, and a commit whose returned entries
are its whole effect and which is idempotent.
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
from repro.core.jumpmap import JumpMap, LayeredJumpMap
from repro.pag.extended import FinishedJump

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


class LayeredMachine(RuleBasedStateMachine):
    """The layered view must behave like base ∪ overlay with base
    priority on conflicts, and commit must fold it exactly."""

    @initialize()
    def setup(self):
        self.base = JumpMap()
        self.view = LayeredJumpMap(self.base)

    @rule(key=keys, edges=edge_sets)
    def base_finished(self, key, edges):
        self.base.insert_finished(key, edges)

    @rule(key=keys, steps=st.integers(1, 1000))
    def base_unfinished(self, key, steps):
        self.base.insert_unfinished(key, steps)

    @rule(key=keys, edges=edge_sets)
    def view_finished(self, key, edges):
        accepted = self.view.insert_finished(key, edges)
        if self.base.finished(key) is not None:
            assert not accepted

    @rule(key=keys, steps=st.integers(1, 1000))
    def view_unfinished(self, key, steps):
        accepted = self.view.insert_unfinished(key, steps)
        if self.base.finished(key) is not None or self.base.unfinished(key) is not None:
            assert not accepted

    @rule(key=keys)
    def reads_are_layered(self, key):
        fin = self.view.finished(key)
        expect = self.view.overlay._fin.get(key, self.base._fin.get(key))
        assert fin == expect
        unf = self.view.unfinished(key)
        if key in self.view.overlay._fin:
            assert unf is None
        else:
            assert unf == self.view.overlay._unf.get(key, self.base._unf.get(key))

    @rule()
    def commit_folds(self):
        overlay_fin = dict(self.view.overlay._fin)
        before = JumpMap()
        before.warm_from(self.base.export_log())
        accepted = self.view.commit()
        for key, edges in overlay_fin.items():
            assert self.base.finished(key) is not None
        # The returned entries are the commit's whole effect: replayed
        # into a copy of the pre-commit base, they give the post-commit
        # base (the contract the mp worker's outgoing delta relies on).
        assert before.replay(accepted) == accepted
        assert dict(before.finished_items()) == dict(self.base.finished_items())
        assert dict(before.unfinished_items()) == dict(
            self.base.unfinished_items()
        )
        # recommitting is harmless (all rejected)
        assert self.view.commit() == []


TestLayeredStateful = LayeredMachine.TestCase
