import ast
from pathlib import Path

import pytest

from jlcs._util import binary_power


class Counted:
    """An integer that counts the products it takes part in."""

    products = 0

    def __init__(self, value):
        self.value = value

    def __mul__(self, other):
        Counted.products += 1
        return Counted(self.value * other.value)


@pytest.mark.parametrize("e", range(10))
def test_binary_power_makes_no_wasted_product(e):
    # a squaring per bit below the leading one, a product per further set bit
    Counted.products = 0
    one = Counted(1)
    result = binary_power(Counted(3), e, one)
    assert result.value == 3 ** e
    want = 0 if e == 0 else e.bit_length() - 1 + bin(e).count("1") - 1
    assert Counted.products == want
    assert (result is one) == (e == 0)


ROOT = Path(__file__).resolve().parent.parent
# library names that only the tests call, kept on purpose
KEPT_UNCALLED = {
    "central_char": "criterion 10 checks the central character's invariance",
    "endoclass_label": "the paper's endo-class label, checked by criterion 10",
    "_parser": "the full-tree parse, the oracle of cli._parse's walk",
}


def test_every_library_function_has_a_non_test_caller():
    # a function, method or class counts as called when its name occurs in
    # src/jlcs, scripts/ or perfbench/ outside its own definition, as a
    # Name, an Attribute or an imported name: a grep by name, so a call
    # through a colliding name counts too
    trees = {path: ast.parse(path.read_text())
             for d in ("src/jlcs", "scripts", "perfbench")
             for path in (ROOT / d).glob("*.py")}
    named = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            names = ([node.id] if isinstance(node, ast.Name) else
                     [node.attr] if isinstance(node, ast.Attribute) else
                     [a.name.rpartition(".")[2] for a in node.names]
                     if isinstance(node, (ast.Import, ast.ImportFrom)) else [])
            for name in names:
                named.setdefault(name, []).append((path, node.lineno))
    uncalled = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in trees.items() if path.parent.name == "jlcs"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name != "to_json" and node.name not in KEPT_UNCALLED
        and all(p == path and node.lineno <= line <= node.end_lineno
                for p, line in named.get(node.name, ()))]
    assert not uncalled, "only the tests call " + ", ".join(sorted(uncalled))
