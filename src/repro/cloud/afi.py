"""The Amazon FPGA Image (AFI) service.

"Using the AWS command line interface the AFI generation process is
started.  The framework automatically generates the AFI inside a
user-specified Amazon S3 Bucket and returns the AFI global ID, which is
used to refer to an AFI from within an F1 instance.  Once the AFI
generation completes, it can be loaded on an FPGA slot."

The service validates the design checkpoint (here: the xclbin) pulled from
S3, assigns ``afi-`` and ``agfi-`` identifiers, and transitions the image
``pending → available`` asynchronously: each :meth:`tick` advances the
backend one processing step (the flow polls exactly like the real CLI
does); malformed inputs transition to ``failed`` with an error code.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
from dataclasses import dataclass, field

from repro.errors import AFIError
from repro.cloud.s3 import S3Store
from repro.errors import ArtifactError, S3Error
from repro.resilience.clock import VirtualClock
from repro.resilience.retry import RetryPolicy
from repro.toolchain.xclbin import read_xclbin
from repro.util.logging import get_logger

_log = get_logger("cloud.afi")

#: Processing steps before a valid image becomes available (the real
#: service takes ~30-50 minutes; the simulation compresses that into
#: this many poll ticks).
PENDING_TICKS = 3

#: The F1 FPGA part; AFIs for anything else are rejected.
F1_PART_PREFIX = "xcvu9p"


class AFIState(enum.Enum):
    PENDING = "pending"
    AVAILABLE = "available"
    FAILED = "failed"


@dataclass
class AFIRecord:
    afi_id: str
    agfi_id: str
    name: str
    description: str
    source_uri: str
    state: AFIState = AFIState.PENDING
    error: str | None = None
    ticks_remaining: int = PENDING_TICKS
    #: The raw design checkpoint pulled from S3 at creation time.
    payload: bytes | None = field(default=None, repr=False)
    #: The validated xclbin payload (set once available).
    xclbin_bytes: bytes | None = field(default=None, repr=False)


class AFIService:
    """The regional AFI backend."""

    def __init__(self, s3: S3Store):
        self.s3 = s3
        self._records: dict[str, AFIRecord] = {}
        self._by_agfi: dict[str, str] = {}
        self._counter = itertools.count(1)

    # -- API -----------------------------------------------------------------

    def create_fpga_image(self, *, name: str, input_storage_location: str,
                          description: str = "") -> AFIRecord:
        """Start AFI creation from a DCP/xclbin stored in S3."""
        if not name:
            raise AFIError("image name must not be empty")
        bucket, key = self.s3.parse_uri(input_storage_location)
        try:
            obj = self.s3.get_object(bucket, key)
        except S3Error as exc:
            raise AFIError(f"input storage location unreadable: {exc}") \
                from exc
        seq = next(self._counter)
        digest = hashlib.sha256(obj.data).hexdigest()
        afi_id = f"afi-{digest[:17]}"
        agfi_id = f"agfi-{digest[17:34]}"
        record = AFIRecord(afi_id=afi_id, agfi_id=agfi_id, name=name,
                           description=description,
                           source_uri=input_storage_location,
                           payload=obj.data)
        self._records[afi_id] = record
        self._by_agfi[agfi_id] = afi_id
        _log.info("AFI creation started: %s (%s) seq=%d", afi_id, agfi_id,
                  seq)
        return record

    def describe_fpga_image(self, afi_id: str) -> AFIRecord:
        try:
            return self._records[afi_id]
        except KeyError:
            raise AFIError(f"unknown AFI {afi_id!r}") from None

    def resolve_agfi(self, agfi_id: str) -> AFIRecord:
        try:
            return self._records[self._by_agfi[agfi_id]]
        except KeyError:
            raise AFIError(f"unknown AGFI {agfi_id!r}") from None

    # -- backend ------------------------------------------------------------------

    def tick(self) -> None:
        """Advance the asynchronous backend one step."""
        for record in self._records.values():
            if record.state is not AFIState.PENDING:
                continue
            record.ticks_remaining -= 1
            if record.ticks_remaining > 0:
                continue
            payload = record.payload
            try:
                xclbin = read_xclbin(payload)
            except ArtifactError as exc:
                record.state = AFIState.FAILED
                record.error = f"invalid design checkpoint: {exc}"
                _log.warning("AFI %s failed: %s", record.afi_id,
                             record.error)
                continue
            if not xclbin.part.startswith(F1_PART_PREFIX):
                record.state = AFIState.FAILED
                record.error = (f"design targets {xclbin.part}, F1"
                                f" requires {F1_PART_PREFIX}*")
                continue
            record.state = AFIState.AVAILABLE
            record.xclbin_bytes = payload
            _log.info("AFI %s available", record.afi_id)

    def wait_until_available(self, afi_id: str, max_polls: int = 100,
                             poll_policy: RetryPolicy | None = None,
                             clock: VirtualClock | None = None) \
            -> AFIRecord:
        """Poll (tick + describe) until available; raises on failure.

        ``poll_policy`` paces the polls: its backoff schedule is slept
        on the (virtual) ``clock`` between ``describe`` calls, the way
        the real CLI backs off between ``describe-fpga-images`` calls.
        """
        delays = poll_policy.delays(f"afi-poll:{afi_id}") \
            if poll_policy is not None else None
        for poll in range(max_polls):
            record = self.describe_fpga_image(afi_id)
            if record.state is AFIState.AVAILABLE:
                return record
            if record.state is AFIState.FAILED:
                raise AFIError(
                    f"AFI {afi_id} failed: {record.error}")
            self.tick()
            if delays is not None and clock is not None \
                    and poll < max_polls - 1:
                clock.sleep(next(delays))
        raise AFIError(f"AFI {afi_id} still pending after {max_polls}"
                       " polls")
