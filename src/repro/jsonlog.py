"""Append-only JSON-lines files with one torn-tail rule.

The service journal, its dead-letter file and the sweep journal each
keep one JSON document per line, appended and fsync'd one record at a
time.  A crash can interrupt the last write and leave a torn final line.
All three read and extend their files through :class:`JsonLinesLog`,
which applies one rule:

* a final line that lacks its newline or does not decode is a torn
  write: loading skips it, and it is cut off the file before this
  writer's first append, so the next record starts on a line of its
  own;
* an undecodable line with more lines after it cannot come from one
  interrupted write: loading raises the owner's error, naming the file
  and the line;
* every record is a JSON object: a line that decodes to anything else
  is neither a record nor a torn write, and loading raises the same
  way;
* a non-empty file without one whole record is some other file, or one
  whose first write never completed: loading refuses it rather than
  guess, and nothing is appended to it.

Records that carry whole Python objects (the service's outcomes, the
sweep's instance results) store them with one codec:
:func:`encode_payload` and :meth:`JsonLinesLog.decode_payload`.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
from typing import Any

from repro.errors import ReproError


def encode_payload(obj: Any) -> dict[str, str]:
    """Pickle-in-JSON: an exact round trip for any picklable object
    (floats stay bitwise-equal, tuples stay tuples) inside one JSON
    line.  :meth:`JsonLinesLog.decode_payload` is its inverse."""
    raw = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return {"codec": "pickle", "data": base64.b64encode(raw).decode("ascii")}


class JsonLinesLog:
    """One append-only, fsync'd JSON-lines file.

    Args:
        path: The file; created by the first append if missing.
        error: The :class:`~repro.errors.ReproError` subclass raised for
            a corrupt file.
        kind: What the file holds, for the refusal message (``"service
            journal"``).
    """

    def __init__(
        self, path: str, error: type[ReproError], kind: str
    ) -> None:
        self.path = path
        self._error = error
        self._kind = kind
        # Bytes of whole records as of :meth:`load`, for the first append.
        self._keep: int | None = None
        self._tail_cut = False

    def load(self) -> list[dict[str, Any]]:
        """Every whole record in file order; ``[]`` if the file is
        missing or empty.

        Raises:
            ReproError: The owner's error subclass, if the file is
                corrupt or holds no whole record.
        """
        records, self._keep = self._scan()
        return records

    def append(self, record: Any) -> None:
        """Write one record as a line and fsync it."""
        if not self._tail_cut:
            keep = self._scan()[1] if self._keep is None else self._keep
            if os.path.exists(self.path) and os.path.getsize(self.path) > keep:
                os.truncate(self.path, keep)
            self._tail_cut = True
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def decode_payload(self, payload: Any, lineno: int) -> Any:
        """The object :func:`encode_payload` stored in ``payload``, the
        payload of the record on line ``lineno``.

        Raises:
            ReproError: The owner's error subclass, naming the file and
                the line, if the payload is not an object, was written
                with another codec, lacks its data, or does not decode.
        """
        where = f"{self.path}: line {lineno}"
        if not isinstance(payload, dict):
            raise self._error(f"{where}: payload is not a JSON object")
        if payload.get("codec") != "pickle":
            raise self._error(
                f"{where}: unknown payload codec {payload.get('codec')!r}"
            )
        data = payload.get("data")
        if not isinstance(data, str):
            raise self._error(f"{where}: payload without its data")
        # The exceptions caught are those pickle documents for bad
        # input; binascii.Error is a ValueError.
        try:
            return pickle.loads(base64.b64decode(data))
        except (
            pickle.UnpicklingError,
            ValueError,
            EOFError,
            AttributeError,
            ImportError,
            IndexError,
        ) as exc:
            raise self._error(
                f"{where}: payload does not decode ({type(exc).__name__}: {exc})"
            ) from None

    def _scan(self) -> tuple[list[dict[str, Any]], int]:
        """The whole records and the number of bytes they take up."""
        try:
            with open(self.path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return [], 0
        # A write ends with its newline: whatever follows the last one
        # is a torn write.
        *lines, tail = data.split(b"\n")
        records: list[dict[str, Any]] = []
        keep = 0
        for lineno, line in enumerate(lines, 1):
            try:
                doc = json.loads(line)
            except ValueError:
                if lineno < len(lines) or tail:
                    raise self._error(
                        f"{self.path}: line {lineno} is not valid JSON and "
                        "more lines follow it; the file is corrupt, not torn "
                        "by an interrupted write"
                    ) from None
                break
            if not isinstance(doc, dict):
                raise self._error(
                    f"{self.path}: line {lineno} is not a JSON object"
                )
            records.append(doc)
            keep += len(line) + 1
        if data and not records:
            raise self._error(f"{self.path}: not a {self._kind}")
        return records, keep
