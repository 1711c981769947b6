"""Declarative experiment files: flat ``key = value`` records.

Lines are ``key = value`` with ``#`` comments; keys use the CLI flag names
(hyphens or underscores).  Values are parsed as JSON literals when possible
(numbers, booleans, lists), strings otherwise.  CLI flags override file
values, which override built-in defaults; a file key that the subcommand
does not take is an error.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["parse_config_file", "resolve"]


def parse_config_file(path: str | Path) -> dict:
    values: dict = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8")
                                 .splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        try:
            values[key] = json.loads(value)
        except json.JSONDecodeError:
            values[key] = value
    return values


def resolve(args, file_values: dict, defaults: dict) -> dict:
    """Merge precedence: CLI flag > config file > default."""
    unknown = sorted(set(file_values) - set(defaults))
    if unknown:
        raise ValueError("unknown config key "
                         + ", ".join(repr(key) for key in unknown))
    out = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None:
            out[key] = flag
        elif key in file_values:
            out[key] = file_values[key]
        else:
            out[key] = default
    return out
