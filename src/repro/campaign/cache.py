"""Content-addressed cell cache (a directory, or memory without one).

Every cached entry is addressed by ``sha256(code_salt + canonical
spec JSON)``: the same cell re-run against unchanged simulator source
is a hit, while *any* edit to the simulation-relevant source trees
changes the salt and silently invalidates every affected entry (stale
files are simply never addressed again).  Interrupted campaigns
therefore resume for free — completed cells hit, missing cells run.

What the salt covers is deliberately scoped to code that can change a
cell's *payload* (:func:`salted_files`): the simulator trees, the
guarantees package and quantile estimator behind the ``guarantees``
payload, the scheme registry and ``RunRecord``, and the cell runner
itself.  Editing figure formatting, Table 1 (a function call, not a
cell), the paper's reference numbers, CLI plumbing or the engine does
not invalidate results.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Union

from .runner import RunRecord
from .spec import CellSpec
from .supervisor import FailureReport

#: Source trees whose content feeds the code-version salt.
SALT_PACKAGES = (
    "noc",
    "core",
    "system",
    "traffic",
    "power",
    "powergate",
    "baselines",
    "guarantees",
)

#: Single files outside those trees that a payload also depends on
#: (everything else a cell imports from outside ``repro.campaign``).
SALT_FILES = (
    "__init__.py",
    "experiments/__init__.py",
    "experiments/common.py",
    "campaign/runner.py",
)


def salted_files(root: Path) -> List[Path]:
    """The source files under package root ``root`` the salt hashes."""
    files = []
    for package in SALT_PACKAGES:
        files.extend(sorted((root / package).glob("*.py")))
    return files + [root / name for name in SALT_FILES]


def tree_salt(root: Path) -> str:
    """Version hash of the result-affecting sources under ``root``."""
    digest = hashlib.sha256()
    for path in salted_files(root):
        digest.update(path.name.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


@lru_cache(maxsize=1)
def code_salt() -> str:
    """:func:`tree_salt` of the imported ``repro`` package."""
    import repro

    return tree_salt(Path(repro.__file__).parent)


# ----------------------------------------------------------------------
# Payload (de)serialization
# ----------------------------------------------------------------------
Payload = Union[RunRecord, dict]


def encode_payload(payload: Payload) -> dict:
    """JSON-ready wrapper tagging the payload type."""
    if isinstance(payload, RunRecord):
        return {"type": "run_record", "data": asdict(payload)}
    if isinstance(payload, dict):
        return {"type": "mapping", "data": payload}
    raise TypeError(f"uncacheable cell payload type {type(payload).__name__}")


def decode_payload(doc: dict) -> Payload:
    """Inverse of :func:`encode_payload`."""
    if doc["type"] == "run_record":
        return RunRecord(**doc["data"])
    return doc["data"]


class CellCache:
    """Content-addressed cell verdicts, in a directory or in memory.

    A cell's entry holds either its payload (``"payload"``) or, when it
    failed for good, its :class:`FailureReport` (``"failure"``); the
    one :meth:`put` writes both, and a payload put replaces a failure.
    With a ``root``, entries live at ``<root>/<key[:2]>/<key>.json``
    and carry the canonical spec and salt alongside for debuggability
    (compact JSON: ``python -m json.tool`` shows one); the key alone
    decides hits.  Writes are atomic (temp file + ``os.replace``) so
    parallel workers and interrupted runs can never leave a truncated
    entry behind.

    ``CellCache(None)`` keeps the entries in this process instead (the
    campaign service's store for cache-less runs and tests), in the
    same encoded form the files hold.
    """

    def __init__(
        self, root: Optional[Union[str, Path]], salt: Optional[str] = None
    ) -> None:
        self.root = Path(root) if root is not None else None
        self.salt = code_salt() if salt is None else salt
        self._memory: Dict[str, dict] = {}
        #: ``"<root>/"``: an entry's location is this plus the key's own
        #: characters, so a lookup builds one string and no ``Path``.
        self._prefix = "" if self.root is None else os.path.join(self.root, "")

    def key_for(self, spec: CellSpec) -> str:
        """The content address of ``spec`` under this cache's salt."""
        return spec.cache_key(self.salt)

    def path_for(self, spec: CellSpec) -> Path:
        """Where a directory-backed cache keeps ``spec``'s entry."""
        return Path(self._entry(self.key_for(spec)))

    def _entry(self, key: str) -> str:
        return f"{self._prefix}{key[:2]}{os.sep}{key}.json"

    def lookup(
        self, spec: CellSpec, key: Optional[str] = None
    ) -> Union[Payload, FailureReport, None]:
        """What the store holds for ``spec``: its payload, its
        :class:`FailureReport`, or ``None`` on a miss.

        ``key`` is ``key_for(spec)`` when the caller already holds it
        (the engine hashes each cell once per run); it is computed here
        otherwise.  Corrupt entries count as misses (and are
        overwritten by the next :meth:`put`), so a damaged cache
        degrades to recompute instead of crashing the campaign.
        """
        if key is None:
            key = self.key_for(spec)
        try:
            if self.root is None:
                doc = self._memory[key]
            else:
                # Unbuffered: the entry is read whole, once.
                with open(self._entry(key), "rb", buffering=0) as fh:
                    doc = json.loads(fh.read())
            if "failure" in doc:
                return FailureReport(**doc["failure"])
            return decode_payload(doc["payload"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def get(self, spec: CellSpec, key: Optional[str] = None) -> Optional[Payload]:
        """The cached payload for ``spec`` (as :meth:`lookup`), or
        ``None`` when there is none — a failure is not a payload."""
        entry = self.lookup(spec, key)
        return None if isinstance(entry, FailureReport) else entry

    def put(
        self,
        spec: CellSpec,
        payload: Union[Payload, FailureReport],
        key: Optional[str] = None,
    ) -> Optional[Path]:
        """Store ``payload`` — or a :class:`FailureReport`, the cell's
        failure verdict — as ``spec``'s entry (under ``key``, as for
        :meth:`lookup`); returns the entry path, if the cache has a
        directory."""
        if key is None:
            key = self.key_for(spec)
        if isinstance(payload, FailureReport):
            entry = {"failure": payload.as_dict()}
        else:
            entry = {"payload": encode_payload(payload)}
        if self.root is None:
            self._memory[key] = entry
            return None
        path = self._entry(key)
        shard, name = os.path.split(path)
        blob = json.dumps(
            {"salt": self.salt, "spec": spec.canonical(), **entry},
            separators=(",", ":"),
        ).encode("utf-8")
        # Per-key prefix: concurrent writers of the *same* entry each
        # get a private temp file in the entry's own directory, and the
        # final os.replace is atomic — last writer wins, readers only
        # ever see a complete entry.
        try:
            fd, tmp = tempfile.mkstemp(dir=shard, prefix=name + ".", suffix=".tmp")
        except FileNotFoundError:
            # First entry of this shard (or the directory was wiped
            # under a live cache): make it, instead of a mkdir per put.
            os.makedirs(shard, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=shard, prefix=name + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return Path(path)
