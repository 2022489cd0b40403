"""Differential test: the O(1) segment age makes the same decisions as a
full scan.

``ScanGClockPolicy`` below is the modified GClock as it was written
before the recency order existed: ``_segment_of`` finds the oldest
reference tick with ``min()`` over the whole ring.  Both policies are
driven with the same seeded operation sequences (monotone ticks, as the
pool guarantees) and must agree on every victim, score and hand
position.
"""

import collections
import math
import random

import pytest

from repro.buffer import GClockPolicy, PageKind
from repro.buffer.frames import Frame
from repro.buffer.replacement import _EPSILON, DECAY, MAX_SCORE, SEGMENTS
from repro.common.errors import BufferPoolExhaustedError


class ScanGClockPolicy:
    """Reference copy of GClock with the O(n) ``min()`` segment age."""

    def __init__(self):
        self._ring = []
        self._hand = 0
        self._lookaside = collections.deque()

    def on_insert(self, frame, tick):
        frame.score = 1.0
        frame.last_ref_tick = tick
        frame.insert_tick = tick
        self._ring.append(frame)

    def on_reference(self, frame, tick):
        if self._segment_of(frame, tick) > 0:
            frame.score = min(MAX_SCORE, frame.score + 1.0)
        frame.last_ref_tick = tick

    def on_remove(self, frame):
        try:
            index = self._ring.index(frame)
        except ValueError:
            return
        del self._ring[index]
        if index < self._hand:
            self._hand -= 1
        if self._hand >= len(self._ring):
            self._hand = 0

    def note_reusable(self, frame):
        if frame.kind.is_immediately_reusable and not frame.pinned:
            self._lookaside.append(frame)

    def choose_victim(self, frames, tick):
        while self._lookaside:
            frame = self._lookaside.popleft()
            if frame in frames and not frame.pinned:
                return frame
        if not self._ring:
            raise BufferPoolExhaustedError("empty pool has no victim")
        rotations = math.ceil(
            math.log(_EPSILON / (MAX_SCORE * 2)) / math.log(DECAY)
        ) + 2
        for __ in range(len(self._ring) * rotations):
            if self._hand >= len(self._ring):
                self._hand = 0
            frame = self._ring[self._hand]
            self._hand += 1
            if frame.pinned:
                continue
            if frame.score < _EPSILON:
                return frame
            frame.score *= DECAY
        raise BufferPoolExhaustedError("all pinned")

    def _segment_of(self, frame, tick):
        if not self._ring:
            return 0
        oldest = min(f.last_ref_tick for f in self._ring)
        span = max(1, tick - oldest)
        age = tick - frame.last_ref_tick
        return min(SEGMENTS - 1, (age * SEGMENTS) // span)


_KINDS = (PageKind.TABLE, PageKind.INDEX, PageKind.HEAP, PageKind.TEMP)


def frame_id(frame):
    return frame.heap_ref[1]


class Twin:
    """One policy plus its own frames, keyed by a shared frame id."""

    def __init__(self, policy):
        self.policy = policy
        self.frames = {}

    def choose_victim(self, tick):
        try:
            victim = self.policy.choose_victim(set(self.frames.values()), tick)
        except BufferPoolExhaustedError:
            return None
        return frame_id(victim)

    def state(self):
        return (
            self.policy._hand,
            [frame_id(frame) for frame in self.policy._ring],
            {
                key: (frame.score, frame.pin_count)
                for key, frame in self.frames.items()
            },
        )


def drive(seed, ring_size, steps):
    rng = random.Random(seed)
    twins = [Twin(ScanGClockPolicy()), Twin(GClockPolicy())]
    tick = 0
    next_id = 0

    def apply(op, *args):
        results = [op(twin, *args) for twin in twins]
        assert results[0] == results[1], (seed, op.__name__, results)
        assert twins[0].state() == twins[1].state(), (seed, op.__name__)
        return results[0]

    def insert(twin, key, kind, now):
        frame = Frame(kind, heap_ref=("f", key))
        twin.frames[key] = frame
        twin.policy.on_insert(frame, now)

    def reference(twin, key, now):
        twin.policy.on_reference(twin.frames[key], now)

    def pin(twin, key):
        twin.frames[key].pin_count += 1

    def unpin(twin, key):
        frame = twin.frames[key]
        frame.pin_count -= 1
        if frame.pin_count == 0:
            twin.policy.note_reusable(frame)

    def remove(twin, key):
        twin.policy.on_remove(twin.frames.pop(key))

    def evict(twin, now):
        victim = twin.choose_victim(now)
        if victim is not None:
            remove(twin, victim)
        return victim

    for __ in range(steps):
        # Ticks only grow; a zero step models the pool's re-check path,
        # which references again at an unchanged tick.
        tick += rng.choice((0, 1, 1, 1, 2, 5))
        resident = sorted(twins[0].frames)
        roll = rng.random()
        if not resident or (roll < 0.25 and len(resident) < ring_size):
            apply(insert, next_id, rng.choice(_KINDS), tick)
            next_id += 1
        elif roll < 0.25:
            apply(evict, tick)
            apply(insert, next_id, rng.choice(_KINDS), tick)
            next_id += 1
        elif roll < 0.65:
            apply(reference, rng.choice(resident), tick)
        elif roll < 0.75:
            apply(pin, rng.choice(resident))
        elif roll < 0.85:
            pinned = [f for f in resident if twins[0].frames[f].pin_count]
            if pinned:
                apply(unpin, rng.choice(pinned))
        elif roll < 0.92:
            apply(remove, rng.choice(resident))
        else:
            apply(evict, tick)


@pytest.mark.parametrize("seed", range(24))
def test_same_decisions_as_full_scan(seed):
    ring_size = [1, 2, 3, 8, 40, 300][seed % 6]
    drive(seed, ring_size, steps=200 + 4 * ring_size)


def test_pool_sized_ring_long_run():
    drive(seed=1013, ring_size=300, steps=3000)
