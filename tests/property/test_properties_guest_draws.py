"""Property tests: guest draws replay numpy's stream exactly.

:meth:`GuestOS.draw_int` reimplements ``Generator.integers`` for ranges of
2 to 2**32 values, and :meth:`GuestOS.draw_unit` calls the bit generator's
``next_double`` as ``Generator.random`` does. Every record depends on them
drawing the same values and leaving the same bit-generator state as numpy,
draw for draw, interleaved with each other, across a snapshot/restore, and
after the stream is replaced (``guest.rng = default_rng(seed)``).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.guests.linux import LinuxGuest

seeds = st.integers(min_value=0, max_value=2**63)
lows = st.integers(min_value=-2**40, max_value=2**40)
#: Range sizes. Just above 2**31 about half of all words are rejected, so
#: Lemire's rejection loop runs in nearly every example there.
spans = st.one_of(
    st.integers(min_value=2, max_value=2**32),
    st.integers(min_value=2**31 + 1, max_value=2**31 + 2**16),
    st.sampled_from([2, 3, 40 - 5, 2**31 - 1, 2**31, 2**31 + 1,
                     3 * 2**30, 2**32 - 1, 2**32]),
)
#: One draw: ``None`` is a unit draw, a pair is a bounded draw.
operations = st.lists(st.one_of(st.none(), st.tuples(lows, spans)),
                      min_size=1, max_size=60)


def _guest_draws(guest, ops):
    return [guest.draw_unit() if op is None else guest.draw_int(op[0], op[0] + op[1])
            for op in ops]


def _numpy_draws(rng, ops):
    return [rng.random() if op is None else int(rng.integers(op[0], op[0] + op[1]))
            for op in ops]


class TestDrawIntMatchesNumpy:
    @settings(max_examples=300, deadline=None)
    @given(seed=seeds, ops=operations)
    def test_values_and_final_state_equal_generator_integers(self, seed, ops):
        guest = LinuxGuest(seed=seed)
        reference = np.random.default_rng(seed)
        assert _guest_draws(guest, ops) == _numpy_draws(reference, ops)
        assert guest.rng.bit_generator.state == reference.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(seed=seeds, low=lows, count=st.integers(min_value=1, max_value=400))
    def test_rejection_heavy_range(self, seed, low, count):
        guest = LinuxGuest(seed=seed)
        reference = np.random.default_rng(seed)
        span = 2**31 + 1
        drawn = [guest.draw_int(low, low + span) for _ in range(count)]
        assert drawn == [int(reference.integers(low, low + span))
                         for _ in range(count)]
        assert guest.rng.bit_generator.state == reference.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(seed=seeds, prefix=operations, replay=operations)
    def test_snapshot_restore_mid_stream_replays_the_same_draws(
            self, seed, prefix, replay):
        guest = LinuxGuest(seed=seed)
        _guest_draws(guest, prefix)
        state = guest.snapshot_state()
        first = _guest_draws(guest, replay)
        after = guest.rng.bit_generator.state
        guest.restore_state(state)
        assert _guest_draws(guest, replay) == first
        assert guest.rng.bit_generator.state == after

        reference = np.random.default_rng(seed)
        _numpy_draws(reference, prefix)
        assert _numpy_draws(reference, replay) == first


class TestDrawUnitMatchesNumpy:
    @settings(max_examples=200, deadline=None)
    @given(seed=seeds, count=st.integers(min_value=1, max_value=200))
    def test_values_and_final_state_equal_generator_random(self, seed, count):
        guest = LinuxGuest(seed=seed)
        reference = np.random.default_rng(seed)
        assert ([guest.draw_unit() for _ in range(count)]
                == [reference.random() for _ in range(count)])
        assert guest.rng.bit_generator.state == reference.bit_generator.state

    @settings(max_examples=100, deadline=None)
    @given(seed=seeds, prefix=operations, new_seed=seeds, ops=operations)
    def test_replaced_stream_is_followed_by_both_helpers(
            self, seed, prefix, new_seed, ops):
        # What ``JailhouseSUT.reset_for_seed`` does to a pooled guest.
        guest = LinuxGuest(seed=seed)
        _guest_draws(guest, prefix)
        guest.rng = np.random.default_rng(new_seed)
        reference = np.random.default_rng(new_seed)
        assert _guest_draws(guest, ops) == _numpy_draws(reference, ops)
        assert guest.rng.bit_generator.state == reference.bit_generator.state

    @settings(max_examples=50, deadline=None)
    @given(seed=seeds, ops=operations)
    def test_old_stream_is_left_alone_after_replacement(self, seed, ops):
        guest = LinuxGuest(seed=seed)
        old = guest.rng
        before = old.bit_generator.state
        guest.rng = np.random.default_rng(seed + 1)
        _guest_draws(guest, ops)
        assert old.bit_generator.state == before
