"""Every pinned value lives in `pins.py`, and `pytest -m pinned` selects exactly its readers."""

import ast
import re
from pathlib import Path

TESTS = Path(__file__).parent
HEX = re.compile(r"[0-9a-fA-F]{16}|[0-9a-fA-F]{32}|[0-9a-fA-F]{64}")
# name -> line of every value `pins.py` assigns
PIN_NAMES = {
    target.id: node.lineno
    for node in ast.parse((TESTS / "pins.py").read_text()).body
    if isinstance(node, ast.Assign)
    for target in node.targets
}


def modules() -> list[tuple[str, ast.Module]]:
    """(file name, tree) of every test module but `pins.py`."""
    return [
        (path.name, ast.parse(path.read_text(), str(path)))
        for path in sorted(TESTS.glob("*.py"))
        if path.name != "pins.py"
    ]


def functions() -> list[tuple[str, ast.FunctionDef]]:
    """(file:line, node) of every test function."""
    return [
        (f"{name}:{node.lineno}", node)
        for name, tree in modules()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
    ]


def pins_read(func: ast.FunctionDef) -> set[str]:
    return {
        node.attr
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "pins"
        and node.attr in PIN_NAMES
    }


def is_pinned(func: ast.FunctionDef) -> bool:
    return any(ast.unparse(dec) == "pytest.mark.pinned" for dec in func.decorator_list)


def test_no_hex_literal_outside_pins():
    found = [
        f"{name}:{node.lineno}: {node.value!r}"
        for name, tree in modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and HEX.fullmatch(node.value)
    ]
    assert not found, "hex literals belong in pins.py:\n" + "\n".join(found)


def test_every_pin_is_read():
    read = set().union(*(pins_read(func) for _, func in functions()))
    unread = [f"pins.py:{line}: {name}" for name, line in PIN_NAMES.items() if name not in read]
    assert PIN_NAMES and not unread, "pins no test reads:\n" + "\n".join(unread)


def test_pinned_marks_exactly_the_pin_readers():
    wrong = [
        f"{where}: {func.name} "
        + ("reads a pin but is not marked pinned" if reads else "is marked pinned but reads no pin")
        for where, func in functions()
        if (reads := bool(pins_read(func))) != is_pinned(func)
    ]
    assert not wrong, "\n".join(wrong)
