"""Run manifests: a small JSON record, ``<first output>.manifest.json``,
that ``cli.main`` writes for every command that wrote a file."""
from __future__ import annotations

import platform
import time
from typing import Any

import numpy

from . import __version__
from .jsonio import write_json


def write_manifest(
    command: str,
    config: dict[str, Any],
    inputs: list[str],
    outputs: list[str],
    started: float,
    argv: list[str],
    extra: dict[str, Any] | None = None,
) -> None:
    """Record what a run did next to its first output: command, config
    snapshot, paths, timing and the ``argv`` the command was given.

    Timing fields vary between runs; everything else is reproducible for
    a fixed seed.
    """
    record = {
        "command": command,
        "config": config,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime(started)),
        "wall_time_s": round(time.time() - started, 3),
        "versions": {
            "catparse": __version__,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "argv": argv,
    }
    if extra:
        record["extra"] = extra
    write_json(f"{outputs[0]}.manifest.json", record)
