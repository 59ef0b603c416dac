"""Exception hierarchy shared by all modules, plus reproducer-dump support."""

from __future__ import annotations

import json
import os
import tempfile
import time


class PlaneLayersError(Exception):
    """Base class for all library errors."""


class UsageError(PlaneLayersError):
    """Bad command-line arguments or malformed input files (exit code 2)."""


class PreconditionError(PlaneLayersError):
    """A documented precondition of an operation does not hold (exit code 3)."""


class GeneralPositionError(PreconditionError):
    """Input degeneracy (collinear points, exact-pi angle gaps) that the
    constructions cannot handle without perturbation."""


class InternalAssertionError(PlaneLayersError):
    """A case-analysis invariant failed during construction (exit code 5).

    Carries a reproducer payload so the failing instance can be dumped and
    replayed.  This firing on valid input is always a bug.
    """

    def __init__(self, stage: str, message: str, dump: dict | None = None):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.dump = dict(dump or {})
        self.dump.setdefault("stage", stage)
        self.dump.setdefault("message", message)


DUMP_DIR_ENV = "PLANE_LAYERS_DUMP_DIR"


def write_dump(err: InternalAssertionError) -> str:
    """Write the reproducer payload of an internal assertion to disk.

    The target directory comes from $PLANE_LAYERS_DUMP_DIR, falling back to a
    fresh temporary directory.  Returns the path written.
    """
    directory = os.environ.get(DUMP_DIR_ENV)
    if not directory:
        directory = tempfile.mkdtemp(prefix="plane-layers-dump-")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"dump-{err.stage}-{int(time.time() * 1000)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(err.dump, fh, indent=2, sort_keys=True, default=str)
    return path
