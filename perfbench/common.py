"""Paths, host metadata and resource probes shared by the workloads."""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch state of the current run (wiped at the start of each run).
WORK_DIR = BENCH_DIR / ".work"
#: Built artifacts reused across runs of one checkout, keyed by a
#: digest of the program sources so a code change rebuilds them.
CACHE_DIR = BENCH_DIR / ".cache"
#: Per-run records (raw samples, metadata) and span dumps.
OUT_DIR = BENCH_DIR / "out"


@dataclass
class RunResult:
    """What one workload run hands back to the runner."""

    correct: bool
    attempted: int
    failed: int
    end_to_end: dict[str, float]
    #: Only the layers the workload has; the runner fills the rest.
    per_layer: dict[str, float]
    #: Raw samples, counts, checks and anything else worth keeping.
    record: dict = field(default_factory=dict)
    #: The traced run's span recorder, dumped by the runner.
    spans: object | None = None


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def source_digest() -> str:
    """sha256 over the program's Python sources (path + bytes)."""
    digest = hashlib.sha256()
    package = SRC / "repro"
    for path in sorted(package.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    """The checkout's commit, read from ``.git`` when it is a work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head or None
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(
                encoding="ascii").splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        return None
    return None


def host_metadata() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


def disk_mb(*paths: Path) -> float:
    """Bytes on disk under ``paths`` (files or directories), in MiB."""
    total = 0
    for path in paths:
        if path.is_file():
            total += path.stat().st_size
        elif path.is_dir():
            total += sum(p.stat().st_size for p in path.rglob("*")
                         if p.is_file())
    return total / (1024.0 * 1024.0)


def repository_files(db_path: Path) -> list[Path]:
    """The sqlite database with its WAL side files."""
    return [db_path, Path(f"{db_path}-wal"), Path(f"{db_path}-shm")]
