"""The serve wire's columnar chunks (``FRAME_DATA_COLUMNAR`` payloads).

The wire carries the same chunk stream a ``.leapscap`` capture stores
in its ``events.lc``: one codec, owned by :mod:`repro.etw.capture`
(format in its docstring and DESIGN.md §11–§12).  This module
re-exports the names the service uses.
"""

from repro.etw.capture import CaptureChunkDecoder, ChunkEncoder, ChunkError

__all__ = ["CaptureChunkDecoder", "ChunkEncoder", "ChunkError"]
