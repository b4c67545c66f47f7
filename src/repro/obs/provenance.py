"""Run provenance: git state, environment, and config serialization."""

from __future__ import annotations

import dataclasses
import enum
import functools
import platform
import subprocess
import sys
from pathlib import Path


def git_sha(cwd: str | None = None) -> str | None:
    """The repository HEAD SHA, or None outside a git checkout.

    Resolved once per process and directory — every baseline and
    history write asks for it — so a long-running process reports the
    HEAD it first saw.
    """
    return _git_sha(str(cwd or Path(__file__).resolve().parent))


@functools.lru_cache(maxsize=None)
def _git_sha(cwd: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=cwd,
            capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def environment_info() -> dict:
    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }


def fault_plan_info(plan) -> dict | None:
    """Manifest block identifying a fault plan (None when no plan).

    Carries the canonical plan serialization plus its sha256 digest so
    two runs are provably under the same injected-fault sequence.
    """
    if plan is None:
        return None
    return {"digest": plan.digest(), "plan": plan.canonical()}


def config_dict(obj):
    """JSON-safe view of a config object.

    Dataclasses recurse field by field; enums flatten to their values;
    frozensets become sorted lists.  Anything already JSON-native passes
    through, and unknown objects fall back to ``repr`` so a manifest
    never fails to serialize.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: config_dict(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): config_dict(v) for k, v in obj.items()}
    if isinstance(obj, (frozenset, set)):
        return sorted(str(x) for x in obj)
    if isinstance(obj, (list, tuple)):
        return [config_dict(x) for x in obj]
    return repr(obj)
