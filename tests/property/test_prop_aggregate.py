"""Stateful property test of the §6.2 aggregation core.

Contributors deliver slices of their whole partials in any order: single
slices, multi-slice ranges (up to whole rows), duplicates, segments off
the slicing rule, unknown senders and out-of-range rows.  After every
step the core must agree with a plain model: a rejected input changes
nothing, slice ``i`` is ready exactly when every contributor delivered
it, the rows hold the XOR of what was delivered, and the assembled chunk
equals a ``merge_partials`` fold of the whole contributions.
"""

import functools

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.codes.recipe import RepairRecipe
from repro.errors import AggregationError
from repro.repair.aggregate import LOCAL, Aggregation, slice_bounds


class AggregationMachine(RuleBasedStateMachine):
    @initialize(
        rows=st.integers(1, 3),
        row_len=st.integers(1, 24),
        num_slices=st.integers(1, 6),
        children=st.integers(0, 3),
        local=st.booleans(),
        data=st.data(),
    )
    def setup(self, rows, row_len, num_slices, children, local, data):
        names = [f"cs-{c}" for c in range(children)]
        if not local and not names:
            local = True
        self.rows, self.row_len, self.num_slices = rows, row_len, num_slices
        self.agg = Aggregation(rows, num_slices, names, local, row_len)
        self.bounds = slice_bounds(row_len, num_slices)
        self.senders = names + ([LOCAL] if local else [])
        self.whole = {}
        for sender in self.senders:
            held = data.draw(
                st.sets(st.integers(0, rows - 1), min_size=1), label="rows"
            )
            seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
            rng = np.random.default_rng(seed)
            self.whole[sender] = {
                row: rng.integers(0, 256, row_len, np.uint8) for row in sorted(held)
            }
        self.delivered = {sender: set() for sender in self.senders}

    # -- helpers -----------------------------------------------------------
    def snapshot(self):
        return (
            {row: buf.copy() for row, buf in self.agg.partial.items()},
            [set(got) for got in self.agg.got],
            self.agg.row_len,
        )

    def assert_unchanged(self, before):
        rows, got, row_len = before
        assert self.agg.row_len == row_len
        assert [set(g) for g in self.agg.got] == got
        assert self.agg.partial.keys() == rows.keys()
        for row, buf in rows.items():
            assert np.array_equal(self.agg.partial[row], buf)

    def rejects(self, *args, **kwargs):
        before = self.snapshot()
        with pytest.raises(AggregationError):
            self.agg.merge(*args, **kwargs)
        self.assert_unchanged(before)

    def pieces(self, sender, first, last):
        lo, hi = self.bounds[first], self.bounds[last + 1]
        # Copies: the core adopts a whole row and XORs into it later.
        return {row: buf[lo:hi].copy() for row, buf in self.whole[sender].items()}

    # -- rules -------------------------------------------------------------
    @rule(data=st.data())
    def deliver(self, data):
        sender = data.draw(st.sampled_from(self.senders), label="sender")
        first = data.draw(st.integers(0, self.num_slices - 1), label="first")
        last = data.draw(st.integers(first, self.num_slices - 1), label="last")
        span = set(range(first, last + 1))
        mine = self.delivered[sender]
        offset = data.draw(st.sampled_from([None, self.bounds[first]]))
        if span <= mine:
            before = self.snapshot()
            assert not self.agg.merge(
                sender, first, last, self.pieces(sender, first, last), offset
            )
            self.assert_unchanged(before)
        elif span & mine:
            self.rejects(sender, first, last, self.pieces(sender, first, last))
        else:
            assert self.agg.merge(
                sender, first, last, self.pieces(sender, first, last), offset
            )
            mine |= span

    @rule(data=st.data())
    def deliver_off_rule(self, data):
        sender = data.draw(st.sampled_from(self.senders), label="sender")
        index = data.draw(st.integers(0, self.num_slices - 1), label="index")
        if index in self.delivered[sender]:
            return  # a duplicate is answered before the geometry is read
        lo, hi = self.bounds[index], self.bounds[index + 1]
        seg = self.whole[sender][min(self.whole[sender])][lo:hi].copy()
        kind = data.draw(
            st.sampled_from(["offset", "short", "long", "row", "negative_row"])
        )
        if kind == "offset":
            shift = data.draw(st.integers(-8, 8).filter(bool), label="shift")
            self.rejects(sender, index, index, {0: seg}, lo + shift)
        elif kind == "short":
            if seg.size:
                self.rejects(sender, index, index, {0: seg[1:]})
        elif kind == "long":
            self.rejects(sender, index, index, {0: np.zeros(seg.size + 1, np.uint8)})
        elif kind == "row":
            self.rejects(sender, index, index, {self.rows: seg})
        else:
            self.rejects(sender, index, index, {-1: seg})

    @rule(index=st.integers(-2, 8))
    def deliver_unknown_sender_or_slice(self, index):
        self.rejects("cs-stranger", 0, 0, {0: np.zeros(self.bounds[1], np.uint8)})
        if not 0 <= index < self.num_slices:
            self.rejects(self.senders[0], index, index, {})

    # -- invariants --------------------------------------------------------
    @invariant()
    def readiness_matches_the_model(self):
        for i in range(self.num_slices):
            expected = {s for s in self.senders if i in self.delivered[s]}
            assert self.agg.got[i] == expected
            assert self.agg.ready(i) == (len(expected) == len(self.senders))
            assert self.agg.missing(i) == sorted(
                s for s in self.senders if s is not LOCAL and s not in expected
            )

    @invariant()
    def rows_hold_the_xor_of_what_was_delivered(self):
        assert set(self.agg.partial) == {
            row for s in self.senders if self.delivered[s] for row in self.whole[s]
        }
        for row, buf in self.agg.partial.items():
            for i in range(self.num_slices):
                lo, hi = self.bounds[i], self.bounds[i + 1]
                want = np.zeros(hi - lo, np.uint8)
                for sender in self.senders:
                    if i in self.delivered[sender] and row in self.whole[sender]:
                        want ^= self.whole[sender][row][lo:hi]
                assert np.array_equal(buf[lo:hi], want)

    @invariant()
    def assembly_equals_the_merge_partials_fold(self):
        if not all(self.agg.ready(i) for i in range(self.num_slices)):
            return
        merged = functools.reduce(
            RepairRecipe.merge_partials, (self.whole[s] for s in self.senders)
        )
        chunk = np.zeros(self.rows * self.row_len, np.uint8)
        for row, buf in merged.items():
            chunk[row * self.row_len : (row + 1) * self.row_len] = buf
        assert np.array_equal(self.agg.assemble(), chunk)


TestAggregationMachine = AggregationMachine.TestCase
TestAggregationMachine.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)


@pytest.mark.slow
def test_aggregation_machine_deep():
    """The same machine at the depth of a dedicated run."""
    run_state_machine_as_test(
        AggregationMachine,
        settings=settings(max_examples=2000, stateful_step_count=40, deadline=None),
    )
