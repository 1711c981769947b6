"""Command options and declarative experiment files.

Each subcommand declares its options once, as a table ``{key: (type,
default)}``.  The type is a callable that parses the flag's text, ``bool``
for a switch, or a tuple of choices (kept as text).  The same table makes
the ``--key`` flags (underscores written as hyphens) and resolves a run's
options.

Experiment files are flat records: ``key = value`` lines with ``#``
comments, keys named like the flags (hyphens or underscores).  Values are
parsed as JSON literals when possible (numbers, booleans, lists), strings
otherwise.  CLI flags override file values, which override the table's
defaults.  A file key that the subcommand does not take is an error, and a
file value must pass its flag's type: a list is read as the flag text
``a,b``, and a switch takes only true or false.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["add_flags", "parse_config_file", "resolve"]


def add_flags(parser, table: dict, helps: dict) -> None:
    """Add one ``--key`` flag per table entry to an argparse parser; an
    absent flag is None, so :func:`resolve` can tell it was not given."""
    for key, (typ, _) in table.items():
        if typ is bool:
            kind = dict(action="store_const", const=True)
        elif isinstance(typ, tuple):
            kind = dict(choices=typ)
        else:
            kind = dict(type=typ)
        parser.add_argument("--" + key.replace("_", "-"), dest=key,
                            help=helps.get(key), **kind)


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


def resolve(args, file_values: dict, table: dict) -> dict:
    """Merge precedence: CLI flag > config file > default."""
    unknown = sorted(set(file_values) - set(table))
    if unknown:
        raise ValueError("unknown config key "
                         + ", ".join(repr(key) for key in unknown))
    out = {}
    for key, (typ, default) in table.items():
        flag = getattr(args, key, None)
        if flag is not None:
            out[key] = flag
        elif key in file_values:
            out[key] = _from_file(key, typ, file_values[key])
        else:
            out[key] = default
    return out


def _from_file(key: str, typ, value):
    """A file value converted as its flag's text would be."""
    if typ is bool:
        if isinstance(value, bool):
            return value
        raise ValueError(f"config key {key!r} takes true or false, "
                         f"not {value!r}")
    text = _flag_text(value)
    if isinstance(typ, tuple):
        return text
    try:
        return typ(text)
    except ValueError as exc:
        raise ValueError(f"config key {key!r} = {text!r}: {exc}") from None


def _flag_text(value) -> str:
    """The flag text a parsed file value stands for; a list reads as a,b."""
    if isinstance(value, list):
        return ",".join(_flag_text(item) for item in value)
    return value if isinstance(value, str) else json.dumps(value)
