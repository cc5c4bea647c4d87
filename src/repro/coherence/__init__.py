"""Full-map directory coherence protocol (DASH-like)."""

from repro.coherence.directory import (
    DIR_EXCLUSIVE,
    DIR_SHARED,
    DIR_UNCACHED,
    DirEntry,
    Directory,
)
from repro.coherence.protocol import ProtocolEngine

__all__ = [
    "Directory",
    "DirEntry",
    "ProtocolEngine",
    "DIR_UNCACHED",
    "DIR_SHARED",
    "DIR_EXCLUSIVE",
]
