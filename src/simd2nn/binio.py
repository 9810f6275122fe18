"""Checked reads shared by the scene, dataset and parameter-file loaders.

A file is a 6-byte magic, a fixed little-endian header, then payloads whose
sizes the loader checks against the file before it reads or allocates them.
Every failure is a ``FormatError`` naming a byte offset.
"""

import os
import struct

from .errors import FormatError


def read_header(fh, magic: bytes, fmt: str) -> tuple:
    """Check the magic at byte offset 0 and unpack the ``fmt`` fields after it."""
    size = len(magic) + struct.calcsize(fmt)
    head = fh.read(size)
    if len(head) < size:
        raise FormatError(
            f"truncated file: the header needs {size} bytes at byte offset 0, "
            f"but the file has {len(head)} bytes"
        )
    if head[: len(magic)] != magic:
        raise FormatError(f"bad magic {head[:len(magic)]!r} at byte offset 0, expected {magic!r}")
    return struct.unpack(fmt, head[len(magic) :])


def check_size(fh, needed: int, what: str, exact: bool = True) -> None:
    """Fail unless ``needed`` bytes follow the file position (and, if exact, no more)."""
    offset = fh.tell()
    size = os.fstat(fh.fileno()).st_size
    if offset + needed > size:
        raise FormatError(
            f"truncated file: {what} need {needed} bytes after byte offset {offset}, "
            f"but the file has {size} bytes"
        )
    if exact and offset + needed < size:
        raise FormatError(
            f"trailing bytes: {what} end at byte offset {offset + needed}, "
            f"but the file has {size} bytes"
        )
