"""The keyer's flat occurrence table counts exactly like a dict counter.

``TaskKeyer`` numbers each submission by how often its 64-bit slot was
seen before; ``OccurrenceTable`` must give the same number a plain
``dict`` counter gives, for any slot sequence: repeats, slots whose low
bits collide (one long probe chain, also one that wraps past the last
cell), slot 0 (the empty-cell marker) and sequences long enough to
double the table several times.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.runtime.checkpoint import OccurrenceTable

#: Low bits every slot of a probe chain shares: the wrapping chain starts
#: at the last cell of any table up to 2**16 cells.
LOW = 0xFFFF

slots = st.one_of(
    st.integers(0, 2**64 - 1),
    st.integers(0, 63).map(lambda k: k << 16),
    st.integers(0, 63).map(lambda k: (k << 16) | LOW),
    st.just(0),
    st.just(2**64 - 1),
)

sequences = st.one_of(
    # Fresh slots interleaved with repeats drawn from a pool.
    st.lists(slots, min_size=1, max_size=200).flatmap(
        lambda pool: st.lists(st.sampled_from(pool) | slots, max_size=600)
    ),
    # Every slot on one cell: a single chain, wrapping past the end.
    st.lists(st.integers(0, 255).map(lambda k: (k << 32) | LOW), max_size=300),
)


def check_against_dict(sequence):
    table, reference = OccurrenceTable(), {}
    for slot in sequence:
        seen = reference.get(slot, 0)
        reference[slot] = seen + 1
        assert table.count(slot) == seen, slot
    # Load stays at most one half, and only repeated slots hold a count.
    assert 2 * table._used <= len(table._cells)
    assert table._used == len(reference.keys() - {0})
    assert set(table._repeats) == {s for s, n in reference.items() if s and n > 1}
    return table


@settings(deadline=None)
@given(sequences)
def test_matches_a_dict_counter(sequence):
    check_against_dict(sequence)


def test_grows_many_times_and_keeps_every_count():
    rng = random.Random(7)
    fresh = [rng.getrandbits(64) for _ in range(5000)]
    sequence = fresh + [rng.choice(fresh) for _ in range(2000)] + [0, 0, 0]
    rng.shuffle(sequence)
    table = check_against_dict(sequence)
    assert len(table._cells) == 16384  # 8 cells, doubled eleven times
