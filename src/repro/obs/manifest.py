"""Run manifests: what produced a metrics file.

A :class:`RunManifest` pins the provenance of one run — command, argv, seed,
git commit, interpreter/numpy versions, platform, UTC timestamp, and the
stack-distance kernel that served it (``native`` or ``numpy``) — so a
metrics JSONL is reproducible evidence rather than a bag of numbers.  It is
written as the first line of every exported metrics file (``"type":
"manifest"``), and the ``repro metrics`` scoreboard prints it back.
"""

from __future__ import annotations

import platform
import subprocess
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

__all__ = ["RunManifest", "git_sha"]


def git_sha(cwd: str | Path | None = None) -> str | None:
    """The current git commit hash, or ``None`` outside a repository."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


@dataclass(frozen=True)
class RunManifest:
    """Provenance of one instrumented run."""

    command: str
    argv: tuple[str, ...] = ()
    seed: int | None = None
    git: str | None = None
    python: str = ""
    numpy: str = ""
    platform: str = ""
    timestamp: str = ""
    kernel: str = ""
    extra: dict[str, object] = field(default_factory=dict)

    @classmethod
    def collect(
        cls,
        command: str,
        *,
        argv: list[str] | tuple[str, ...] | None = None,
        seed: int | None = None,
        **extra: object,
    ) -> "RunManifest":
        """Capture the environment of the current process."""
        import numpy as np

        from ..cache._native import kernel_name

        return cls(
            command=command,
            argv=tuple(argv or ()),
            seed=seed,
            git=git_sha(),
            python=sys.version.split()[0],
            numpy=np.__version__,
            platform=platform.platform(),
            timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            kernel=kernel_name(),
            extra=dict(extra),
        )

    def to_record(self) -> dict[str, object]:
        """The JSONL line form (``"type": "manifest"``)."""
        record: dict[str, object] = {
            "type": "manifest",
            "command": self.command,
            "argv": list(self.argv),
            "seed": self.seed,
            "git": self.git,
            "python": self.python,
            "numpy": self.numpy,
            "platform": self.platform,
            "timestamp": self.timestamp,
            "kernel": self.kernel,
        }
        if self.extra:
            record["extra"] = dict(self.extra)
        return record
