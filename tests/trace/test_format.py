"""TraceArchive: save/load round-trip and schema validation."""

import json

import numpy as np
import pytest

from repro.trace.format import (
    TRACE_FORMAT_VERSION,
    TraceArchive,
    TraceFormatError,
    load_archive,
    sidecar_path,
)


def small_archive(windows=5, components=("cpu0", "cpu1", "mem")):
    rng = np.arange(windows * len(components), dtype=float)
    return TraceArchive(
        power_w=rng.reshape(windows, len(components)) * 0.01,
        frequency_hz=np.full(windows, 1e8),
        time_s=np.arange(1, windows + 1) * 0.01,
        component_temps_k=300.0
        + rng.reshape(windows, len(components)) * 0.1,
        metadata={
            "format_version": TRACE_FORMAT_VERSION,
            "components": list(components),
            "sampling_period_s": 0.01,
            "scenario_digest": "a" * 64,
        },
    )


def test_round_trip_preserves_arrays_and_metadata(tmp_path):
    archive = small_archive()
    path = archive.save(tmp_path / "run.npz")
    loaded = load_archive(path)
    np.testing.assert_array_equal(loaded.power_w, archive.power_w)
    np.testing.assert_array_equal(loaded.frequency_hz, archive.frequency_hz)
    np.testing.assert_array_equal(loaded.time_s, archive.time_s)
    np.testing.assert_array_equal(
        loaded.component_temps_k, archive.component_temps_k
    )
    assert loaded.metadata == archive.metadata
    assert loaded.components == ("cpu0", "cpu1", "mem")
    assert loaded.windows == 5
    assert loaded.sampling_period_s == 0.01


def test_save_appends_npz_suffix_and_writes_sidecar(tmp_path):
    path = small_archive().save(tmp_path / "run")
    assert path.suffix == ".npz"
    side = sidecar_path(path)
    assert side.is_file()
    assert json.loads(side.read_text())["format_version"] == TRACE_FORMAT_VERSION


def test_lone_npz_loads_from_embedded_metadata(tmp_path):
    archive = small_archive()
    path = archive.save(tmp_path / "run.npz")
    sidecar_path(path).unlink()
    loaded = load_archive(path)
    assert loaded.metadata == archive.metadata


def test_missing_archive_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_archive(tmp_path / "absent.npz")


def test_unsupported_version_rejected(tmp_path):
    archive = small_archive()
    archive.metadata["format_version"] = TRACE_FORMAT_VERSION + 1
    with pytest.raises(TraceFormatError, match="not supported"):
        archive.validate()


def test_missing_metadata_keys_rejected():
    archive = small_archive()
    del archive.metadata["components"]
    with pytest.raises(TraceFormatError, match="components"):
        archive.validate()


def test_shape_mismatch_rejected():
    archive = small_archive()
    archive.frequency_hz = archive.frequency_hz[:-1]
    with pytest.raises(TraceFormatError, match="frequency_hz"):
        archive.validate()
    archive = small_archive()
    archive.metadata["components"] = ["cpu0", "cpu1"]  # width mismatch
    with pytest.raises(TraceFormatError, match="power_w"):
        archive.validate()


@pytest.mark.parametrize("period", [0.0, -0.01, float("nan"), float("inf")])
def test_bad_sampling_period_rejected(period):
    archive = small_archive()
    archive.metadata["sampling_period_s"] = period
    with pytest.raises(TraceFormatError, match="sampling period"):
        archive.validate()


def test_duplicate_components_rejected():
    archive = small_archive(components=("cpu0", "cpu0", "mem"))
    with pytest.raises(TraceFormatError, match="unique"):
        archive.validate()


def test_non_monotonic_time_rejected():
    archive = small_archive()
    archive.time_s[2] = archive.time_s[1]
    with pytest.raises(TraceFormatError, match="increasing"):
        archive.validate()


def test_tampered_sidecar_fails_validation_on_load(tmp_path):
    archive = small_archive()
    path = archive.save(tmp_path / "run.npz")
    side = sidecar_path(path)
    meta = json.loads(side.read_text())
    meta["components"] = meta["components"][:-1]
    side.write_text(json.dumps(meta))
    with pytest.raises(TraceFormatError):
        load_archive(path)


def test_zero_window_archive_is_valid(tmp_path):
    archive = small_archive(windows=0)
    loaded = load_archive(archive.save(tmp_path / "empty.npz"))
    assert loaded.windows == 0
