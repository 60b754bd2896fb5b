"""``MaglevTable._build_full`` against the construction it replaced.

``_reference_build_full`` is the previous ``_build_full`` verbatim: a
``_perm(name)`` call and ``(offset + j * skip) % size`` per probe.  The
production build steps list-indexed cursors instead and must fill the
same table, the same ``_owned`` claim order and the same ``_next_index``
— the state an ``incremental=True`` table's ``_patch`` continues from.
"""

from typing import Dict, List, Optional, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lb.maglev import MaglevTable

SIZES = (251, 1021, 4099)


def _reference_build_full(
    self: MaglevTable, names: Sequence[str], targets: Dict[str, int]
) -> None:
    """The canonical construction: reassign every slot from scratch."""
    table: List[Optional[str]] = [None] * self._size
    owned: Dict[str, List[int]] = {name: [] for name in names}
    next_index = {name: 0 for name in names}
    filled = 0
    # Round-robin turns; a backend stops once it hits its slot target.
    while filled < self._size:
        progressed = False
        for name in names:
            mine = owned[name]
            if len(mine) >= targets[name]:
                continue
            progressed = True
            offset, skip = self._perm(name)
            j = next_index[name]
            while True:
                slot = (offset + j * skip) % self._size
                j += 1
                if table[slot] is None:
                    table[slot] = name
                    mine.append(slot)
                    filled += 1
                    break
            next_index[name] = j
            if filled == self._size:
                break
        if not progressed:  # all targets met (can't happen: targets sum to size)
            break

    self._table = table
    self._owned = owned
    self._next_index = next_index
    self.last_moved = None


class _ReferenceTable(MaglevTable):
    _build_full = _reference_build_full


# Weights spanning three orders of magnitude, with repeats, so targets
# tie, differ widely, and hit the one-slot guarantee.
weight_lists = st.lists(
    st.sampled_from((0.01, 0.5, 1.0, 1.0, 2.0, 3.7, 10.0)),
    min_size=1,
    max_size=64,
)


def _weights(values, generation=0):
    return {
        "server%d-%d" % (generation, i): w for i, w in enumerate(values)
    }


def _state(table):
    return (
        table._table,
        {name: list(slots) for name, slots in table._owned.items()},
        list(table._owned),
        dict(table._next_index),
        table.slot_counts(),
    )


@given(size=st.sampled_from(SIZES), values=weight_lists)
@settings(max_examples=60, deadline=None)
def test_full_build_equals_reference(size, values):
    new, reference = MaglevTable(size), _ReferenceTable(size)
    weights = _weights(values)
    new.build(weights)
    reference.build(weights)
    assert _state(new) == _state(reference)
    # A rebuild on a warm table (cached permutations) stays equal too.
    shifted = {name: w * (1 + i % 3) for i, (name, w) in enumerate(weights.items())}
    new.build(shifted)
    reference.build(shifted)
    assert _state(new) == _state(reference)


@given(
    size=st.sampled_from(SIZES),
    values=weight_lists,
    joiners=st.lists(st.sampled_from((0.5, 1.0, 4.0)), max_size=8),
    leavers=st.integers(min_value=0, max_value=8),
)
@settings(max_examples=40, deadline=None)
def test_patch_continues_from_the_same_first_build(size, values, joiners, leavers):
    new = MaglevTable(size, incremental=True)
    reference = _ReferenceTable(size, incremental=True)
    weights = _weights(values)
    new.build(weights)
    reference.build(weights)
    assert _state(new) == _state(reference)

    patched = dict(list(weights.items())[min(leavers, len(weights) - 1):])
    patched.update(_weights(joiners, generation=1))
    for name in list(patched)[::2]:
        patched[name] *= 1.5
    new.build(patched)
    reference.build(patched)
    assert new.last_moved == reference.last_moved
    assert _state(new) == _state(reference)
