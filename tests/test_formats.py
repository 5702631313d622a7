import ast
from pathlib import Path

import pytest

from nilcohom.errors import ParseError
from nilcohom.formats import (
    convergent_family,
    number_spec_from_document,
    parse_number_override,
)
from nilcohom.liealg import parse_structure_equations
from nilcohom.toroidal import period_data_from_document

SRC = Path(__file__).resolve().parent.parent / "src" / "nilcohom"


def _module_name(path):
    rel = path.relative_to(SRC.parent).with_suffix("")
    parts = rel.parts[:-1] if rel.name == "__init__" else rel.parts
    return ".".join(parts)


def _imports(path, tree):
    """(module, names) of each import in ``tree``, relative imports
    resolved against the package of ``path``."""
    package = _module_name(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, []
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level \
                else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield module, [alias.name for alias in node.names]


def test_inputs_are_read_behind_one_module():
    """JSON files and text scanners are read only in nilcohom.formats,
    which depends on nothing above the errors and the exact layer, and
    no module reaches into the private names of toroidal or catalog."""
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        name = _module_name(path)
        if name != "nilcohom.formats":
            assert "json.load(" not in text, name
            assert not any(isinstance(node, ast.ClassDef)
                           and "Scanner" in node.name
                           for node in ast.walk(tree)), name
        for module, names in _imports(path, tree):
            if name == "nilcohom.formats" and module.startswith("nilcohom"):
                assert (module == "nilcohom.errors"
                        or module.startswith("nilcohom.exact")), module
            if module in ("nilcohom.toroidal", "nilcohom.catalog"):
                assert not [n for n in names if n.startswith("_")], \
                    (name, module, names)


@pytest.mark.parametrize("read, value, field", [
    (number_spec_from_document, {"type": "convergents"}, "family"),
    (number_spec_from_document,
     {"type": "convergents", "family": "power-tower:3"}, "family"),
    (number_spec_from_document, {"type": "sqrt", "d": 2.9}, "d"),
    (number_spec_from_document, {"type": "rational", "value": True}, "value"),
    (number_spec_from_document,
     {"type": "quadratic", "poly": [1, 0, -2.5]}, "poly"),
    (number_spec_from_document,
     {"type": "convergents", "family": "power-tower", "base": 2.9,
      "start": 4.5}, "base"),
    (number_spec_from_document,
     {"type": "convergents", "family": "power-tower", "start": 4.5},
     "start"),
    (number_spec_from_document,
     {"type": "sqrt", "d": 2, "root": "minus"}, "root"),
    (number_spec_from_document, {"type": "rational", "value": 0.1}, "value"),
    (parse_number_override, "sqrt:2.9", "d"),
    (parse_number_override, "power-tower:2,8,9", "start"),
    (convergent_family, "sqrt:2", "--convergents"),
])
def test_unplaceable_number_names_its_field(read, value, field):
    with pytest.raises(ParseError, match="^malformed") as exc:
        read(value)
    assert field in str(exc.value)


@pytest.mark.parametrize("text, position", [
    ("(0,0,12x)", 7),
    ("(0, 0, 12 x)", 10),
    ("(0,0,12+11)", 8),
    ("(0,0,0,[1, 2]+[3,3])", 15),
])
def test_tuple_error_reports_position_in_the_tuple(text, position):
    with pytest.raises(ParseError) as exc:
        parse_structure_equations(text)
    assert exc.value.position == position


@pytest.mark.parametrize("entry, position", [
    ("i*)", 2),
    ("a + 1/2 b", 8),
    ("1 + zz", 4),
])
def test_generator_entry_error_reports_position_in_the_entry(entry,
                                                             position):
    with pytest.raises(ParseError) as exc:
        period_data_from_document({
            "dimension": 2, "numbers": {"a": {"type": "formal"}},
            "generators": [["1", "0"], ["0", "1"], ["a", entry]]})
    assert exc.value.position == position
