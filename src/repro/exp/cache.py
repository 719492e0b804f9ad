"""Content identity and the deterministic on-disk result cache.

Every cell kind -- a figure run (:class:`~repro.exp.spec.RunSpec`), a
crash point or crash cell (:class:`~repro.crashtest.campaign.CrashPointSpec`,
:class:`~repro.crashtest.campaign.CrashCellSpec`), a litmus cell
(:class:`~repro.litmus.spec.LitmusSpec`) -- satisfies the
:class:`Spec` protocol, and every one derives its key the same way:
:func:`content_key`, the SHA-256 of :func:`canonical_json` of its
``describe()`` document.

Results are stored content-addressed: the filename is the spec's key,
so a cache entry can never be served for a spec it does not exactly
match (any change to the machine config, model, workload, knobs, or
seed changes the key).  Each entry is the pickled result plus a
human-readable ``.json`` sidecar describing the spec that produced it.

Writes are atomic (tmp file + ``os.replace``), so concurrent workers
and concurrent *processes* may share one cache directory: the worst
case is two processes computing the same cell and one harmlessly
overwriting the other's identical entry.

Because every simulation is deterministic given its spec, a cache hit
is indistinguishable from a fresh run -- same ``runtime_cycles``, same
stats, same epoch log.  The determinism suite asserts this.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pathlib
import pickle
import tempfile
from typing import Any, Dict, Optional, Protocol, TypeVar, Union

R_co = TypeVar("R_co", covariant=True)


def jsonable(value: Any) -> Any:
    """Reduce a config value to deterministic JSON-serializable form."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in sorted(value.items())}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot key a spec containing {value!r}")


def canonical_json(doc: Any) -> str:
    """The one serialization content keys are computed over."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def content_key(doc: Any) -> str:
    """SHA-256 hex digest of ``doc``'s canonical JSON."""
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


class Spec(Protocol[R_co]):
    """A content-addressed cell: what the cache stores and executors run.

    ``key()`` is ``content_key(describe())``; ``execute()`` computes the
    result in the current process.  Structural, so each spec class
    keeps its own ``key``/``execute`` methods.
    """

    def describe(self) -> Dict[str, Any]: ...

    def key(self) -> str: ...

    def label(self) -> str: ...

    def execute(self) -> R_co: ...


class ResultCache:
    """Content-addressed store of completed experiment cells."""

    def __init__(self, root: Union[str, "os.PathLike[str]"]) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- paths --------------------------------------------------------------

    def _result_path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.pkl"

    def _meta_path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.json"

    def __contains__(self, spec: Spec[Any]) -> bool:
        return self._result_path(spec.key()).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.pkl"))

    # -- access -------------------------------------------------------------

    def get(self, spec: Spec[Any]) -> Optional[Any]:
        """Return the cached result for ``spec``, or None on a miss.

        A corrupt/truncated entry (e.g. a killed writer on a filesystem
        without atomic replace) is treated as a miss and removed.
        """
        path = self._result_path(spec.key())
        try:
            with path.open("rb") as fh:
                result = pickle.load(fh)
        except FileNotFoundError:
            return None
        except Exception:
            # pickle.load raises opcode-dependent exceptions on garbage
            # bytes (ValueError, UnpicklingError, EOFError, ...); any
            # unreadable entry degrades to a miss and is evicted.
            path.unlink(missing_ok=True)
            return None
        return result

    def put(self, spec: Spec[Any], result: Any) -> None:
        key = spec.key()
        self._atomic_write(
            self._result_path(key), pickle.dumps(result, protocol=4)
        )
        meta = dict(spec.describe(), label=spec.label())
        self._atomic_write(
            self._meta_path(key),
            json.dumps(meta, sort_keys=True, indent=2).encode("utf-8"),
        )

    def _atomic_write(self, path: pathlib.Path, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def clear(self) -> int:
        """Drop every entry; returns the number of results removed."""
        removed = 0
        for path in self.root.glob("*.pkl"):
            path.unlink(missing_ok=True)
            removed += 1
        for path in self.root.glob("*.json"):
            path.unlink(missing_ok=True)
        return removed


__all__ = [
    "ResultCache",
    "Spec",
    "canonical_json",
    "content_key",
    "jsonable",
]
