"""Model-based test: the Cache against a reference LRU implementation.

Hypothesis drives random sequences of lookup/fill/invalidate against
both the real cache and a brute-force reference; residency, dirtiness,
and eviction choices must agree at every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache

SETS = 4
ASSOC = 2
LINE = 64


class ReferenceCache:
    """Brute-force set-associative LRU cache."""

    def __init__(self) -> None:
        # set index -> list of (key, dirty), most recent last.
        self.sets: dict[int, list] = {i: [] for i in range(SETS)}

    def _set(self, line_address: int) -> int:
        return (line_address // LINE) % SETS

    def lookup(self, line_address: int, pattern: int) -> bool:
        entries = self.sets[self._set(line_address)]
        for index, (key, dirty) in enumerate(entries):
            if key == (line_address, pattern):
                entries.append(entries.pop(index))  # touch
                return True
        return False

    def fill(self, line_address: int, pattern: int, dirty: bool):
        entries = self.sets[self._set(line_address)]
        for index, (key, was_dirty) in enumerate(entries):
            if key == (line_address, pattern):
                entries.pop(index)
                entries.append((key, was_dirty or dirty))
                return None
        victim = None
        if len(entries) >= ASSOC:
            victim = entries.pop(0)[0]
        entries.append(((line_address, pattern), dirty))
        return victim

    def invalidate(self, line_address: int, pattern: int) -> bool:
        entries = self.sets[self._set(line_address)]
        for index, (key, _dirty) in enumerate(entries):
            if key == (line_address, pattern):
                entries.pop(index)
                return True
        return False

    def resident(self):
        return {key for entries in self.sets.values() for key, _ in entries}

    def dirty(self):
        return {key for entries in self.sets.values()
                for key, is_dirty in entries if is_dirty}


operations = st.lists(
    st.tuples(
        st.sampled_from(["lookup", "fill", "fill_dirty", "invalidate"]),
        st.integers(min_value=0, max_value=15),  # line index
        st.sampled_from([0, 7]),  # pattern
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(ops=operations)
def test_cache_matches_reference(ops):
    cache = Cache("model", SETS * ASSOC * LINE, ASSOC, LINE)
    reference = ReferenceCache()
    for op, line_index, pattern in ops:
        address = line_index * LINE
        if op == "lookup":
            real = cache.lookup(address, pattern) is not None
            assert real == reference.lookup(address, pattern)
        elif op in ("fill", "fill_dirty"):
            dirty = op == "fill_dirty"
            _, victim = cache.fill(address, pattern, bytearray(LINE), dirty=dirty)
            expected_victim = reference.fill(address, pattern, dirty)
            real_victim = victim.key if victim is not None else None
            assert real_victim == expected_victim
        else:
            removed = cache.invalidate(address, pattern) is not None
            assert removed == reference.invalidate(address, pattern)

    assert {line.key for line in cache.resident_lines()} == reference.resident()
    assert {line.key for line in cache.dirty_lines()} == reference.dirty()
