"""Text formats shared by every CLI-facing piece.

Matrices are headerless comma-separated values, one row per line; vectors
are a single column (one value per line), though readers also accept a
single comma-separated row.  Group files hold one group size per line.

Every file the CLI writes is opened by :func:`open_output`.
"""

from __future__ import annotations

import contextlib
import os
import re
import stat

import numpy as np

from .errors import DimensionError, InputError
from .model import GroupPartition


def read_matrix(path) -> np.ndarray:
    try:
        M = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except (ValueError, OSError) as exc:
        raise InputError(f"could not read matrix from {path}: {exc}") from exc
    return M


def read_vector(path) -> np.ndarray:
    try:
        v = np.loadtxt(path, delimiter=",", dtype=np.float64)
    except (ValueError, OSError) as exc:
        raise InputError(f"could not read vector from {path}: {exc}") from exc
    return np.atleast_1d(v).ravel()


def read_group_sizes(path) -> GroupPartition:
    try:
        raw = np.loadtxt(path, dtype=np.int64, ndmin=1)
    except (ValueError, OSError) as exc:
        raise InputError(f"could not read group sizes from {path}: {exc}") from exc
    try:
        return GroupPartition(tuple(int(s) for s in raw))
    except DimensionError as exc:
        raise InputError(f"bad group sizes in {path}: {exc}") from exc


@contextlib.contextmanager
def open_output(path):
    """A text file open for writing at path; an OSError becomes InputError.

    A writable regular file with one link is unlinked first, so the write
    creates a new file as on a first run.  Truncating a file that holds data
    can cost tens of ms on close (ext4's auto_da_alloc writeback), against
    about one for a new file.  A symlink, a file with other hard links, a
    FIFO or a device is written through in place, and a file the user cannot
    write still fails to open.
    """
    try:
        st = os.lstat(path)
        if stat.S_ISREG(st.st_mode) and st.st_nlink == 1 and os.access(path, os.W_OK):
            os.unlink(path)
    except OSError:
        pass  # a missing path, or a file that open() truncates or reports on
    try:
        f = open(path, "w")
    except OSError as exc:
        raise InputError(f"could not open {path}: {exc}") from exc
    try:
        with f:
            yield f
    except OSError as exc:
        raise InputError(f"could not write {path}: {exc}") from exc


def _save(path, array: np.ndarray, fmt: str) -> None:
    """np.savetxt to an open file, or through open_output to a file name."""
    if hasattr(path, "write"):
        np.savetxt(path, array, delimiter=",", fmt=fmt)
        return
    with open_output(path) as f:
        np.savetxt(f, array, delimiter=",", fmt=fmt)


def write_matrix(path, M: np.ndarray) -> None:
    _save(path, np.asarray(M), "%.17g")


def write_vector(path, v: np.ndarray) -> None:
    _save(path, np.asarray(v).reshape(-1, 1), "%.17g")


def write_group_sizes(path, partition: GroupPartition) -> None:
    _save(path, np.asarray(partition.sizes, dtype=np.int64).reshape(-1, 1), "%d")


def parse_vector_text(text: str) -> np.ndarray:
    """Parse '3,4' / whitespace- or newline-separated numbers from the CLI."""
    tokens = [t for t in re.split(r"[,\s]+", text.strip()) if t]
    if not tokens:
        raise InputError("empty vector input")
    try:
        return np.array([float(t) for t in tokens], dtype=np.float64)
    except ValueError as exc:
        raise InputError(f"could not parse vector input: {exc}") from exc


def format_vector_line(v: np.ndarray) -> str:
    """Single-line comma form used by the prox subcommand."""
    return ",".join(repr(float(x)) for x in np.asarray(v).ravel())
