"""Cache line with a pattern-extended tag (paper Section 4.1).

A GS-DRAM system identifies a cached line by *(line address, pattern
ID)*: the same DRAM column fetched with different patterns yields
different (partially overlapping) data, so the pattern ID is part of
the tag. Pattern 0 lines are ordinary cache lines.
"""

from __future__ import annotations


class CacheLine:
    """One resident cache line; presence in its set implies validity."""

    __slots__ = ("line_address", "pattern", "data", "dirty", "annotation_shuffled")

    def __init__(
        self,
        line_address: int,
        pattern: int,
        data: bytearray,
        dirty: bool = False,
    ) -> None:
        self.line_address = line_address
        self.pattern = pattern
        self.data = data
        self.dirty = dirty
        self.annotation_shuffled: bool | None = None

    @property
    def key(self) -> tuple[int, int]:
        """The full tag: (line address, pattern ID)."""
        return (self.line_address, self.pattern)

    def read(self, offset: int, size: int) -> bytes:
        """Read ``size`` bytes at ``offset`` within the line."""
        return bytes(self.data[offset : offset + size])

    def write(self, offset: int, payload: bytes) -> None:
        """Write ``payload`` at ``offset`` and mark the line dirty."""
        self.data[offset : offset + len(payload)] = payload
        self.dirty = True

    def __repr__(self) -> str:
        state = "dirty" if self.dirty else "clean"
        return f"CacheLine({self.line_address:#x}, patt={self.pattern}, {state})"
