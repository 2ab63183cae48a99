"""The machine-state checkpoint codec: versioned, CRC-guarded, compressed.

Same discipline as the binary trace codec (:mod:`repro.isa.serialize`): a
fixed header carrying a magic, a format version and a CRC over the payload,
with every corruption mode — short data, wrong magic, version drift, CRC
mismatch, an undecodable payload — raising :class:`CheckpointFormatError`.
Store layers treat that error as a cache *miss* (the checkpoint is simply
re-warmed), never as a crash.

The payload is a zlib-compressed pickle of a :class:`~repro.sampling.state.
MachineState` tree. Pickle is the right tool here, unlike for traces: a
checkpoint holds arbitrary predictor objects (every registered predictor,
including user-registered ones), and a single pickle of the whole tree
preserves the *intra-tree shared references* the simulator relies on (e.g.
PHAST holding the same ``GlobalHistory`` the pipeline appends to). The
format version is bumped whenever the captured state tree's shape changes,
so stale checkpoints age out as misses instead of resuming wrongly.
"""

from __future__ import annotations

import io
import pickle
import struct
import zlib

#: First bytes of every checkpoint artifact.
CHECKPOINT_MAGIC = b"RCKP"
#: Bump when the captured state tree's shape changes incompatibly.
#: v2: TAGE, Omnipredictor and perceptron tables became flat per-field
#: lists, and set-associative tables materialise sets on first write.
CHECKPOINT_VERSION = 2

#: magic, format version, reserved, payload length, payload crc32
_HEADER = struct.Struct("<4sHHII")


class CheckpointFormatError(ValueError):
    """A checkpoint artifact is unreadable (treat as a cache miss)."""


class _RestrictedUnpickler(pickle.Unpickler):
    """Unpickler that only resolves classes from this package (+ stdlib).

    Checkpoints are local build artifacts, not an interchange format, but
    the store directory is user-writable; refusing to resolve anything
    outside ``repro.*``, ``numpy`` and the stdlib containers keeps a
    tampered artifact from importing arbitrary callables.
    """

    _ALLOWED_PREFIXES = ("repro.", "numpy", "collections", "builtins", "array")

    def find_class(self, module: str, name: str):
        if module.split(".")[0] in ("repro",) or any(
            module == prefix or module.startswith(prefix)
            for prefix in self._ALLOWED_PREFIXES
        ):
            return super().find_class(module, name)
        raise CheckpointFormatError(
            f"checkpoint references disallowed class {module}.{name}"
        )


def encode_checkpoint(state) -> bytes:
    """Serialise a machine-state tree into a self-validating artifact."""
    payload = zlib.compress(
        pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL), level=6
    )
    header = _HEADER.pack(
        CHECKPOINT_MAGIC,
        CHECKPOINT_VERSION,
        0,
        len(payload),
        zlib.crc32(payload),
    )
    return header + payload


def decode_checkpoint(data: bytes):
    """Inverse of :func:`encode_checkpoint`.

    Raises :class:`CheckpointFormatError` on every corruption mode; callers
    holding a store treat that as a miss and re-warm.
    """
    if len(data) < _HEADER.size:
        raise CheckpointFormatError(
            f"checkpoint too short: {len(data)} bytes < {_HEADER.size}-byte header"
        )
    magic, version, _reserved, length, crc = _HEADER.unpack_from(data)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(
            f"checkpoint format v{version}, this build reads v{CHECKPOINT_VERSION}"
        )
    payload = data[_HEADER.size :]
    if len(payload) != length:
        raise CheckpointFormatError(
            f"payload truncated: header says {length} bytes, got {len(payload)}"
        )
    if zlib.crc32(payload) != crc:
        raise CheckpointFormatError("payload CRC mismatch")
    try:
        raw = zlib.decompress(payload)
        state = _RestrictedUnpickler(io.BytesIO(raw)).load()
    except CheckpointFormatError:
        raise
    except Exception as error:  # zlib.error, pickle errors, EOFError, ...
        raise CheckpointFormatError(f"undecodable payload: {error}") from None
    return state
