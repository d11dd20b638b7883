"""Machine-speed calibration of host timings.

The hosts this benchmark runs on share their CPUs: the same code runs
up to twice as fast in one minute as in the next (a pure-Python loop
timed in 1-s windows spreads by 10-30% between quartiles).  No run
length evens that out, so host timings are reported *normalized*: the
benchmark interleaves a fixed calibration chunk (pure-Python arithmetic
plus small numpy operations, no program code) with the workload, with
the timer stopped, and scales each slice's host time by

    factor = (calibration chunks per second in that slice)
             / REFERENCE_CHUNKS_PER_S

so a slice that ran while the machine was slow counts as proportionally
less time.  A change to the program's host code moves the normalized
figures exactly as much as the raw ones; a change in machine speed
moves both the workload and the calibration chunk, and cancels.  Raw
wall-clock figures are printed beside the normalized ones.

Creating files is a second, independent speed: on these hosts the
kernel's file-creation path runs up to four times faster or slower
while the pure-Python chunk holds steady.  Work that creates many files
(a ``condor build`` writes hundreds per model) is therefore normalized
by a blend of both speeds, weighted by the share of its reference time
spent creating files (:meth:`Calibrator.blend`); the file chunk creates,
writes and closes small files, timed, and removes them untimed.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

__all__ = ["REFERENCE_CHUNKS_PER_S", "REFERENCE_FILES_PER_S", "Calibrator"]

#: Chunks per second on the reference machine state.  Fixed for the
#: life of the benchmark: it only sets the scale of normalized figures.
REFERENCE_CHUNKS_PER_S = 2000.0
#: Small files created per second on the reference machine state.
REFERENCE_FILES_PER_S = 1500.0

_FILE_TEXT = "calibration\n" * 170

_VECTOR = np.arange(4096, dtype=np.float64)


def _chunk() -> float:
    total = 0
    for i in range(3000):
        total += i * i
    v = _VECTOR
    for _ in range(20):
        v = np.sqrt(v * v + 1.0)
    return total + float(v[-1])


class Calibrator:
    """Runs calibration chunks and keeps cumulative totals; file chunks
    go to ``directory``."""

    def __init__(self, directory: Path | None = None) -> None:
        self.directory = directory
        self.seconds = 0.0
        self.chunks = 0
        self.file_seconds = 0.0
        self.files = 0

    def run(self, chunks: int = 1) -> float:
        """Run ``chunks`` chunks; returns the host seconds they took."""
        start = time.perf_counter()
        for _ in range(chunks):
            _chunk()
        took = time.perf_counter() - start
        self.seconds += took
        self.chunks += chunks
        return took

    def run_files(self, files: int) -> float:
        """Create ``files`` small files; returns the host seconds that
        took.  Removing them afterwards is not timed."""
        directory = self.directory
        directory.mkdir(parents=True, exist_ok=True)
        paths = [directory / f"calibration-{i}.txt" for i in range(files)]
        start = time.perf_counter()
        for path in paths:
            with open(path, "w") as handle:
                handle.write(_FILE_TEXT)
        took = time.perf_counter() - start
        for path in paths:
            os.remove(path)
        self.file_seconds += took
        self.files += files
        return took

    @staticmethod
    def factor(chunks: int, seconds: float) -> float:
        """Machine speed relative to the reference (1.0 when ``chunks``
        ran at the reference rate, below 1 on a slower machine)."""
        return chunks / seconds / REFERENCE_CHUNKS_PER_S

    @staticmethod
    def file_factor(files: int, seconds: float) -> float:
        """File-creation speed relative to the reference."""
        return files / seconds / REFERENCE_FILES_PER_S

    @staticmethod
    def blend(cpu: float, files: float, file_share: float) -> float:
        """Speed of work that spends ``file_share`` of its reference
        time creating files, from the two speed factors."""
        return 1.0 / ((1.0 - file_share) / cpu + file_share / files)
