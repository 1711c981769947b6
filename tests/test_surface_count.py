"""Tests for the knob count of scripts/surface_count.py."""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / \
    "surface_count.py"
_spec = importlib.util.spec_from_file_location("surface_count", SCRIPT)
sc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sc)

SOURCE = '''
from dataclasses import dataclass, field
from typing import ClassVar


def public(a, b=1, *, c=2, d):               # 2 knobs
    def nested(e=3):                          # not public
        return e
    return nested()


def _private(a=1):                            # not public
    return a


@dataclass(frozen=True)
class Config:
    lam: float                                # no default
    tol: float = 1e-7                         # 1 knob
    tags: tuple = field(default_factory=tuple)  # 1 knob
    notes: tuple = field(repr=False)          # no default
    HEADER: ClassVar[tuple] = ("a",)          # not a field

    def scaled(self, by=2.0):                 # 1 knob
        return self.tol * by

    def _hidden(self, by=2.0):                # not public
        return by


class Plain:
    limit: int = 3                            # not a dataclass

    def run(self, steps=10, verbose=False):   # 2 knobs
        return steps


class _Hidden:
    def run(self, steps=10):                  # class not public
        return steps
'''


def test_counts_defaulted_public_parameters_and_fields():
    assert sc.count_knobs(SOURCE) == 7


def test_main_prints_lines_and_knobs(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("def f(x=1):\n    return x\n")
    assert sc.main([str(tmp_path)]) == 0
    lines = SOURCE.count("\n") + 2
    assert capsys.readouterr().out == f"lines {lines}\nknobs 8\n"
