"""Line count and knob count of the kernelrisk sources.

    python3 scripts/surface_count.py [SRC_DIR]

prints the number of lines in ``SRC_DIR/*.py`` (default
``src/kernelrisk``, the same total as ``wc -l``) and the number of knobs
in them.  A knob is a defaulted parameter of a public function or method,
or a defaulted field of a public dataclass.  A name is public when it does
not start with an underscore, and a method counts when its class is public
too; functions nested in functions are not public.  ``self`` and ``cls``
never have defaults, so every defaulted parameter counts, keyword-only ones
included.  A dataclass field is defaulted when it is assigned a value other
than a ``field(...)`` call without ``default`` or ``default_factory``;
``ClassVar`` annotations are not fields.
"""

import ast
import pathlib
import sys


def _public(name: str) -> bool:
    return not name.startswith("_")


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else \
            getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _defaulted_field(stmt: ast.AnnAssign) -> bool:
    if stmt.value is None or "ClassVar" in ast.unparse(stmt.annotation):
        return False
    value = stmt.value
    if isinstance(value, ast.Call) and \
            ast.unparse(value.func).split(".")[-1] == "field":
        return any(kw.arg in ("default", "default_factory")
                   for kw in value.keywords)
    return True


def _defaulted_parameters(fn) -> int:
    args = fn.args
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def count_knobs(source: str) -> int:
    """Knobs of one module's source text."""
    knobs = 0
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _public(node.name):
                knobs += _defaulted_parameters(node)
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            has_fields = _is_dataclass(node)
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if _public(stmt.name):
                        knobs += _defaulted_parameters(stmt)
                elif has_fields and isinstance(stmt, ast.AnnAssign):
                    knobs += _defaulted_field(stmt)
    return knobs


def main(argv) -> int:
    src = pathlib.Path(argv[0] if argv else "src/kernelrisk")
    files = sorted(src.glob("*.py"))
    if not files:
        print(f"no .py files in {src}", file=sys.stderr)
        return 2
    texts = [f.read_text(encoding="utf-8") for f in files]
    print(f"lines {sum(t.count(chr(10)) for t in texts)}")
    print(f"knobs {sum(count_knobs(t) for t in texts)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
