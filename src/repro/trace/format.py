"""The versioned on-disk power-trace archive (the Figure 5 boundary).

A :class:`TraceArchive` persists exactly what crosses the HW/SW
boundary of the paper's framework every sampling window — the
per-component power vector and the virtual clock frequency the FPGA
side streams over Ethernet — plus the component temperatures the SW
thermal tool computed, so a replay can be verified bit-for-bit against
the live run.

On disk an archive is two files sharing one stem:

``<stem>.npz``
    NumPy arrays (``np.savez_compressed``): ``power_w`` of shape
    ``(windows, components)``, ``frequency_hz``/``time_s`` of shape
    ``(windows,)`` and ``component_temps_k`` of shape
    ``(windows, components)``.  A copy of the metadata rides inside as
    a JSON string under ``metadata_json``, so a lone ``.npz`` stays
    self-describing.

``<stem>.json``
    The metadata sidecar (the authoritative copy): format version,
    component order, sampling period, the canonical scenario digest
    (:func:`repro.trace.store.scenario_trace_digest`), the recorded
    scenario dict, the live run's :class:`~repro.core.framework.RunReport`
    and the live :meth:`~repro.core.stats.ThermalTrace.digest`.

:func:`load_archive` validates the schema (version, required keys,
array shapes, time monotonicity) before anything downstream touches
the data; a truncated or hand-edited archive fails loudly.
"""

import json
import math
import os
import pathlib
from dataclasses import dataclass, field

import numpy as np

#: Bump when the array set or metadata schema changes incompatibly.
TRACE_FORMAT_VERSION = 1

#: Metadata keys every archive must carry.
REQUIRED_METADATA = (
    "format_version",
    "components",
    "sampling_period_s",
    "scenario_digest",
)

#: Array names stored in the ``.npz`` member.
ARRAY_KEYS = ("power_w", "frequency_hz", "time_s", "component_temps_k")


class TraceFormatError(ValueError):
    """A trace archive failed schema validation."""


def sidecar_path(path):
    """The JSON metadata sidecar next to an ``.npz`` archive path."""
    path = pathlib.Path(path)
    return path.with_suffix(".json")


@dataclass
class TraceArchive:
    """One recorded co-emulation run, ready to persist or replay.

    ``power_w[i, k]`` is the wattage of component ``k`` (in
    ``metadata["components"]`` order) during window ``i`` — the exact
    vector the live run injected into its RC network, at full float64
    precision, so a replay under unchanged thermal knobs reproduces the
    live temperatures bit-for-bit.
    """

    power_w: np.ndarray
    frequency_hz: np.ndarray
    time_s: np.ndarray
    component_temps_k: np.ndarray
    metadata: dict = field(default_factory=dict)

    # -- accessors ---------------------------------------------------------
    @property
    def windows(self):
        return int(self.power_w.shape[0])

    @property
    def components(self):
        return tuple(self.metadata["components"])

    @property
    def sampling_period_s(self):
        return float(self.metadata["sampling_period_s"])

    @property
    def scenario_digest(self):
        return self.metadata.get("scenario_digest")

    @property
    def scenario(self):
        """The recorded scenario dict (``None`` for bare-framework
        captures that never had a declarative spec)."""
        return self.metadata.get("scenario")

    def summary(self):
        """One human-readable paragraph (``trace info``)."""
        meta = self.metadata
        digest = meta.get("trace_digest") or {}
        scenario = meta.get("scenario") or {}
        peak = digest.get("peak_temperature_k")
        lines = [
            f"trace archive v{meta.get('format_version')}: "
            f"{self.windows} windows x {len(self.components)} components, "
            f"{self.sampling_period_s * 1e3:g} ms sampling period",
            f"  scenario: {scenario.get('name', '(unscripted)')} | "
            f"digest {str(self.scenario_digest)[:16]}",
            f"  emulated {float(self.time_s[-1]) if self.windows else 0.0:.3f} s | "
            f"peak {'n/a' if peak is None else f'{peak:.1f} K'}",
        ]
        return "\n".join(lines)

    # -- validation --------------------------------------------------------
    def validate(self):
        """Raise :class:`TraceFormatError` unless the schema holds."""
        meta = self.metadata
        missing = [key for key in REQUIRED_METADATA if key not in meta]
        if missing:
            raise TraceFormatError(
                f"trace metadata is missing {', '.join(missing)}"
            )
        version = meta["format_version"]
        if version != TRACE_FORMAT_VERSION:
            raise TraceFormatError(
                f"trace format v{version} is not supported "
                f"(this build reads v{TRACE_FORMAT_VERSION})"
            )
        period = meta["sampling_period_s"]
        if not math.isfinite(period) or period <= 0:
            raise TraceFormatError(
                f"sampling period must be positive and finite, "
                f"got {meta['sampling_period_s']}"
            )
        components = meta["components"]
        if not components or len(set(components)) != len(components):
            raise TraceFormatError(
                "component order must be a non-empty list of unique names"
            )
        windows, width = self.power_w.shape if self.power_w.ndim == 2 else (
            -1, -1
        )
        if width != len(components):
            raise TraceFormatError(
                f"power_w is {self.power_w.shape}, expected "
                f"(windows, {len(components)})"
            )
        for name in ("frequency_hz", "time_s"):
            array = getattr(self, name)
            if array.shape != (windows,):
                raise TraceFormatError(
                    f"{name} is {array.shape}, expected ({windows},)"
                )
        if self.component_temps_k.shape != (windows, len(components)):
            raise TraceFormatError(
                f"component_temps_k is {self.component_temps_k.shape}, "
                f"expected ({windows}, {len(components)})"
            )
        if windows and np.any(np.diff(self.time_s) <= 0):
            raise TraceFormatError("time_s must be strictly increasing")
        return self

    # -- persistence -------------------------------------------------------
    def save(self, path):
        """Write ``<path>`` (an ``.npz``) plus its JSON sidecar; returns
        the archive path.  Each file is written to a *uniquely named*
        temp sibling and ``os.replace``d into place, so two processes
        storing the same content-addressed entry concurrently (farm
        workers racing on one digest) each publish a complete file and
        the loser's rename simply overwrites the winner's identical
        bytes — never a shared, interleaved temp file."""
        from repro.util.locking import atomic_write_text, unique_tmp_path

        self.validate()
        path = pathlib.Path(path)
        if path.suffix != ".npz":
            path = path.with_suffix(".npz")
        path.parent.mkdir(parents=True, exist_ok=True)
        metadata_json = json.dumps(self.metadata, sort_keys=True)
        tmp = unique_tmp_path(path)
        try:
            with open(tmp, "wb") as handle:
                np.savez_compressed(
                    handle,
                    power_w=self.power_w,
                    frequency_hz=self.frequency_hz,
                    time_s=self.time_s,
                    component_temps_k=self.component_temps_k,
                    metadata_json=np.array(metadata_json),
                )
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        atomic_write_text(sidecar_path(path), metadata_json + "\n")
        return path


def load_archive(path):
    """Read and validate a :class:`TraceArchive` from ``<path>.npz``.

    Metadata comes from the JSON sidecar when present, else from the
    copy embedded in the ``.npz`` — so a lone array file still loads.
    """
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    if not path.is_file():
        raise FileNotFoundError(f"no trace archive at {path}")
    with np.load(path, allow_pickle=False) as data:
        missing = [key for key in ARRAY_KEYS if key not in data]
        if missing:
            raise TraceFormatError(
                f"{path.name} is missing arrays: {', '.join(missing)}"
            )
        arrays = {key: np.array(data[key]) for key in ARRAY_KEYS}
        embedded = str(data["metadata_json"]) if "metadata_json" in data else None
    side = sidecar_path(path)
    if side.is_file():
        metadata = json.loads(side.read_text())
    elif embedded is not None:
        metadata = json.loads(embedded)
    else:
        raise TraceFormatError(
            f"{path.name} has neither a JSON sidecar nor embedded metadata"
        )
    archive = TraceArchive(metadata=metadata, **arrays)
    return archive.validate()
