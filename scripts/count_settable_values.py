#!/usr/bin/env python3
"""Count the settable values of the package: the knobs a caller can turn.

Usage: python scripts/count_settable_values.py [--list]

A settable value is one of
* a default of a function parameter (lambdas included),
* a default of a dataclass field,
* an argparse flag (an ``add_argument`` call whose first name starts with "-").

Every ``*.py`` file under ``src/cvactivation`` is parsed with ``ast``; nothing
is imported.  ``--list`` prints each value as ``file:line kind name`` before
the total.

The config keys of the CLI (the keys of each subcommand's table in
``cli._COMMANDS``) are a separate total, printed first as
``cli config keys: N``; ``--list`` also prints each subcommand's count.  The
last line is the settable-value total alone.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cvactivation"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def settable_values(path: Path) -> list[tuple[int, str, str]]:
    """(line, kind, name) of every settable value in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            owner = getattr(node, "name", "<lambda>")
            for arg in positional[len(positional) - len(args.defaults) :]:
                found.append((node.lineno, "parameter", f"{owner}({arg.arg})"))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    found.append((node.lineno, "parameter", f"{owner}({arg.arg})"))
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    found.append((stmt.lineno, "field", f"{node.name}.{stmt.target.id}"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and str(node.args[0].value).startswith("-")
        ):
            found.append((node.lineno, "flag", str(node.args[0].value)))
    return sorted(found)


def cli_config_keys(path: Path) -> list[tuple[str, int]]:
    """(subcommand, number of config keys) for each entry of ``_COMMANDS``,
    whose values are (runner, {key: (default, parser)}) pairs."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_COMMANDS" for t in node.targets
        ):
            return [(key.value, len(value.elts[1].keys)) for key, value in zip(node.value.keys, node.value.values)]
    raise SystemExit(f"no _COMMANDS table in {path}")


def main(argv: list[str]) -> int:
    commands = cli_config_keys(SRC / "cli.py")
    if "--list" in argv:
        for command, count in commands:
            print(f"cli.py {command} {count}")
    print(f"cli config keys: {sum(count for _, count in commands)}")
    total = 0
    for path in sorted(SRC.glob("*.py")):
        values = settable_values(path)
        total += len(values)
        if "--list" in argv:
            for line, kind, name in values:
                print(f"{path.name}:{line} {kind} {name}")
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
