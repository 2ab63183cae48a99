"""Checkpoint codec: round trip, corruption detection, format-drift guard."""

from __future__ import annotations

import pytest

from repro.core.config import CoreConfig
from repro.core.pipeline import Pipeline
from repro.sampling.checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointFormatError,
    decode_checkpoint,
    encode_checkpoint,
)
from repro.sampling.state import capture_state
from repro.sim.simulator import get_trace, make_predictor


@pytest.fixture(scope="module")
def blob() -> bytes:
    trace = get_trace("502.gcc_1", 3000)
    pipeline = Pipeline(CoreConfig(), make_predictor("phast"))
    run = pipeline.begin(trace, warmup_ops=200)
    run.advance(1500)
    return encode_checkpoint(capture_state(run))


def test_round_trip_preserves_machine_identity(blob):
    state = decode_checkpoint(blob)
    assert state.mode == "detailed"
    assert state.op_index == 1500
    assert state.trace_name == "502.gcc_1"
    assert state.trace_len == 3000
    # The digests embedded at capture must match the unpickled components.
    from repro.sampling.state import component_digests

    assert state.digests == component_digests(
        state.history, state.hierarchy, state.predictor
    )


def test_encode_is_deterministic_for_same_state(blob):
    # Same live machine re-encoded twice gives byte-identical artifacts,
    # so content-addressed storage never duplicates a checkpoint.
    trace = get_trace("502.gcc_1", 3000)
    pipeline = Pipeline(CoreConfig(), make_predictor("phast"))
    run = pipeline.begin(trace, warmup_ops=200)
    run.advance(1500)
    state = capture_state(run)
    assert encode_checkpoint(state) == encode_checkpoint(state)


def test_truncated_header_rejected(blob):
    with pytest.raises(CheckpointFormatError, match="short"):
        decode_checkpoint(blob[:4])


def test_bad_magic_rejected(blob):
    corrupt = b"XXXX" + blob[4:]
    with pytest.raises(CheckpointFormatError, match="magic"):
        decode_checkpoint(corrupt)
    assert blob[:4] == CHECKPOINT_MAGIC


def test_version_drift_rejected(blob):
    # A future format version must read as drift, not as garbage data: this
    # is the guard that turns stale stored checkpoints into cache misses.
    bumped = (CHECKPOINT_VERSION + 1).to_bytes(2, "little")
    corrupt = blob[:4] + bumped + blob[6:]
    with pytest.raises(CheckpointFormatError, match="format v"):
        decode_checkpoint(corrupt)


def test_version_one_checkpoint_rejected(blob):
    # v1 pickled one object per predictor-table entry; its state trees do
    # not fit the flat tables, so a stored v1 artifact must read as a miss.
    stale = blob[:4] + (1).to_bytes(2, "little") + blob[6:]
    with pytest.raises(CheckpointFormatError, match="format v1"):
        decode_checkpoint(stale)


def test_truncated_payload_rejected(blob):
    with pytest.raises(CheckpointFormatError):
        decode_checkpoint(blob[:-10])


def test_payload_corruption_caught_by_crc(blob):
    corrupt = bytearray(blob)
    corrupt[-1] ^= 0xFF
    with pytest.raises(CheckpointFormatError, match="CRC"):
        decode_checkpoint(bytes(corrupt))
