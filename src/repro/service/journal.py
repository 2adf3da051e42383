"""Crash-safe admission journal and dead-letter quarantine.

The service checkpoints every processed record — admissions, rejections,
and applied faults — into an append-only JSON-lines journal, fsync'd per
record like the sweep journal in :mod:`repro.experiments.parallel`.  A
service restarted over the same journal replays the records to rebuild
its booking state bitwise and continues from the first unprocessed
request; the resumed run is indistinguishable from an uninterrupted one.

The journal header carries a *fingerprint* of every input that decides
the run's outcomes (requests, scenario, planning inputs, seed, fault
model, config), so a journal can never be replayed against a different
run: a mismatch raises :class:`~repro.errors.ServiceError` instead of
silently producing a franken-state.  A sharded service's outcome records
also carry the shard that hosted each admitted placement.

Requests that repeatedly raise (poison requests) or exhaust their
commit-retry budget are *quarantined*: recorded as :class:`DeadLetter`
lines in a sibling JSON-lines file with a structured reason, never
retried, and never allowed to poison subsequent admissions.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Sequence

from repro.errors import ServiceError
from repro.jsonlog import JsonLinesLog, encode_payload


@dataclass(frozen=True)
class DeadLetter:
    """One quarantined request.

    Attributes:
        request_id: The poisoned request.
        tenant: Its owning tenant.
        arrival: Absolute arrival instant.
        reason: Structured reason string — ``"placement-error: <exc>"``
            for repeated scheduling failures, ``"commit-retries-
            exhausted"`` for CAS starvation.
        attempts: Attempts burned before quarantine.
    """

    request_id: str
    tenant: str
    arrival: float
    reason: str
    attempts: int


class ServiceJournal:
    """Append-only, fsync'd JSON-lines checkpoint of a service run.

    Line 1 is a header naming the format, its version and the run
    fingerprint; each subsequent line is one processed record
    (``outcome`` or ``fault``) in the exact order the service processed
    it.  A crash may tear the last write: the torn final line is
    skipped and cut off before the next append; an undecodable line
    with records after it raises (:mod:`repro.jsonlog`).

    Version 2 adds ``shards`` to the outcome records of sharded
    services: the hosting shard of each placement, in placement order.
    """

    FORMAT = "repro-service-journal"
    VERSION = 2

    def __init__(self, path: str) -> None:
        self.path = path
        self._log = JsonLinesLog(path, ServiceError, "service journal")
        self._records: list[tuple[int, dict[str, Any]]] = []

    @property
    def records(self) -> tuple[tuple[int, dict[str, Any]], ...]:
        """``(line number, record)`` pairs of the records loaded by
        :meth:`open`, in processed order."""
        return tuple(self._records)

    def open(self, fingerprint: str) -> bool:
        """Load an existing journal or start a fresh one.

        Returns:
            ``True`` if an existing journal was loaded (its records are
            then available via :attr:`records`), ``False`` if a new one
            was created.

        Raises:
            ServiceError: If the file exists but is not a service
                journal, has an undecodable line before its last or a
                line that is not a JSON object, was written in another
                journal version, or its fingerprint disagrees with this
                run's — replaying it would rebuild state for a different
                run.  The records themselves are checked as the service
                replays them.
        """
        records = self._log.load()
        if not records:
            self._log.append(
                {
                    "format": self.FORMAT,
                    "version": self.VERSION,
                    "fingerprint": fingerprint,
                }
            )
            return False
        header = records[0]
        if header.get("format") != self.FORMAT:
            raise ServiceError(
                f"{self.path}: unexpected journal format "
                f"{header.get('format')!r}"
            )
        if header.get("version") != self.VERSION:
            raise ServiceError(
                f"{self.path}: journal version {header.get('version')!r} "
                f"cannot be resumed by journal version {self.VERSION}"
            )
        if header.get("fingerprint") != fingerprint:
            raise ServiceError(
                f"{self.path}: journal fingerprint "
                f"{header.get('fingerprint')!r} does not match this "
                f"run's {fingerprint!r}; refusing to resume a different "
                "run"
            )
        self._records = list(enumerate(records[1:], 2))
        return True

    def record_outcome(
        self, outcome: Any, shards: Sequence[int] | None = None
    ) -> None:
        """Checkpoint one processed request outcome; ``shards`` lists
        the hosting shard of each placement of a sharded admission."""
        rec: dict[str, Any] = {
            "type": "outcome",
            "payload": encode_payload(outcome),
        }
        if shards is not None:
            rec["shards"] = list(shards)
        self._log.append(rec)

    def decode_payload(self, payload: Any, lineno: int) -> Any:
        """The object the payload of the ``outcome`` record on line
        ``lineno`` holds; raises :class:`~repro.errors.ServiceError`,
        naming the file and line, for a payload that does not decode."""
        return self._log.decode_payload(payload, lineno)

    def record_fault(self, idx: int) -> None:
        """Checkpoint that fault ``idx`` of the deterministic trace was
        applied (the trace itself regenerates from the seed, so the
        index is the whole record)."""
        self._log.append({"type": "fault", "idx": idx})


class DeadLetterLog:
    """Append-only JSON-lines quarantine file, fsync'd per record."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._log = JsonLinesLog(path, ServiceError, "dead-letter log")

    def append(self, letter: DeadLetter) -> None:
        """Record one quarantined request."""
        self._log.append(asdict(letter))

    def load(self) -> list[DeadLetter]:
        """Read back every quarantined request (empty if no file).

        Raises:
            ServiceError: If the file is corrupt (:mod:`repro.jsonlog`)
                or a record is not a dead letter.
        """
        letters = []
        for lineno, doc in enumerate(self._log.load(), 1):
            try:
                letters.append(DeadLetter(**doc))
            except TypeError:
                raise ServiceError(
                    f"{self.path}: line {lineno} is not a dead letter"
                ) from None
        return letters
