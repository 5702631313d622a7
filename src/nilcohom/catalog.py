"""Built-in algebra catalog and user catalog files.

Catalog files are JSON documents:

    {
      "entries": [
        {
          "name": "h7",
          "equations": "(0,0,0,12,13,23)",
          "complex_structures": {"std": "std"},
          "lattices": {"example-a": {"numbers": {...},
                                     "generators": [[...], ...]}},
          "note": "free 2-step nilpotent on three generators"
        }
      ]
    }

Complex-structure specs are ``"std"`` (the pairing J e_{2i-1} = e_{2i}),
``"pairs:1-2,3-4,..."``, or an explicit matrix as a JSON list of rows.
Catalog and lattice files are read by :mod:`nilcohom.formats`, as are
the numbers and generators of a lattice document, which are those of a
period document restricted to real entries.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .cxstruct import AlmostComplexStructure, is_integrable
from .errors import (
    ParseError,
    StructureError,
    input_errors_as_parse_error,
)
from .exact.linalg import Matrix
from .formats import (
    load_json,
    parse_number_override,  # noqa: F401  (also read at this path)
    read_generators,
)
from .liealg import LieAlgebra, QStructure, parse_structure_equations


class CatalogEntry:
    def __init__(self, name, equations, complex_structures=None,
                 lattices=None, note=""):
        self.name = name
        self.equations = equations
        self.complex_structures = dict(complex_structures or {})
        self.lattices = dict(lattices or {})
        self.note = note

    def algebra(self) -> LieAlgebra:
        return parse_structure_equations(self.equations)

    def __repr__(self):
        return f"CatalogEntry({self.name!r})"


_H7_EXAMPLE_LATTICE = {
    "numbers": {"r2": {"type": "sqrt", "d": 2}, "a": {"type": "formal"}},
    "generators": [
        ["r2", "0", "0", "0", "0", "0"],
        ["0", "r2", "0", "0", "0", "0"],
        ["r2*a", "0", "r2", "0", "0", "0"],
        ["0", "0", "0", "1", "0", "0"],
        ["0", "0", "0", "0", "1", "0"],
        ["0", "0", "0", "a", "0", "-1"],
    ],
}


def builtin_catalog():
    """The shipped entries: the degenerate classics plus the
    six-dimensional free 2-step algebra with its worked lattice."""
    entries = [
        CatalogEntry("abelian6", "(0,0,0,0,0,0)", {"std": "std"},
                     note="abelian; the complex torus"),
        CatalogEntry("kodaira-thurston", "(0,0,0,12)", {"std": "std"},
                     note="4-dimensional nilpotent with one relation"),
        CatalogEntry("heis3r3", "(0,0,0,0,0,12)", {"std": "std"},
                     note="3-dim Heisenberg plus abelian R^3"),
        CatalogEntry("h7", "(0,0,0,12,13,23)", {"std": "std"},
                     {"example-a": _H7_EXAMPLE_LATTICE},
                     note="free 2-step nilpotent on three generators"),
    ]
    return {e.name: e for e in entries}


ALIASES = {"kt": "kodaira-thurston"}


def load_catalog_file(path):
    doc = load_json(path, "catalog")
    entries = []
    if not isinstance(doc, dict) or "entries" not in doc:
        raise ParseError("catalog file must be an object with 'entries'")
    for item in doc["entries"]:
        try:
            entries.append(CatalogEntry(
                item["name"], item["equations"],
                item.get("complex_structures"),
                item.get("lattices"), item.get("note", "")))
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed catalog entry: {exc}")
    return {e.name: e for e in entries}


def validate_entry(entry: CatalogEntry):
    """Entries must pass the Jacobi check; every listed structure must
    be integrable.  Returns the algebra and its structures by name."""
    g = entry.algebra()
    structures = {}
    for name, spec in entry.complex_structures.items():
        J = resolve_complex_structure(g, spec)
        if not is_integrable(J):
            raise StructureError(
                f"catalog structure {entry.name}/{name} is not integrable")
        structures[name] = J
    return g, structures


def resolve_algebra(text, catalog=None):
    """A builtin name, alias, or structure-equation tuple."""
    catalog = catalog or builtin_catalog()
    name = ALIASES.get(text, text)
    if name in catalog:
        return catalog[name].algebra(), catalog[name]
    if text.strip().startswith("("):
        return parse_structure_equations(text), None
    raise ParseError(f"unknown algebra {text!r}; use a builtin name "
                     f"({', '.join(sorted(catalog))}) or a tuple")


@input_errors_as_parse_error("complex-structure spec")
def resolve_complex_structure(g: LieAlgebra, spec) -> AlmostComplexStructure:
    if isinstance(spec, str):
        if spec == "std":
            return AlmostComplexStructure.standard(g)
        if spec.startswith("pairs:"):
            pairs = []
            for chunk in spec[len("pairs:"):].split(","):
                a, _, b = chunk.partition("-")
                pairs.append((int(a), int(b)))
            return AlmostComplexStructure.from_pairs(g, pairs)
        if spec.startswith("["):
            rows = json.loads(spec)
            return AlmostComplexStructure(
                g, Matrix(g.field, [[Fraction(x) for x in r] for r in rows]))
        raise ParseError(f"unknown complex-structure spec {spec!r}")
    return AlmostComplexStructure(
        g, Matrix(g.field, [[Fraction(x) for x in r] for r in spec]))


@input_errors_as_parse_error("lattice document")
def lattice_from_document(doc, g: LieAlgebra, overrides=None) -> QStructure:
    """The rational structure of a lattice document: generators over
    the tower of its number declarations, with optional parameter
    substitutions from the command line (name -> text).  ``g`` keeps
    its own field."""
    field, rows, param_spec = read_generators(doc, g.n, overrides)
    gens = []
    for row in rows:
        if any(x.im for x in row):
            raise ParseError("lattice entries must be real")
        gens.append([x.re for x in row])
    return QStructure(g, field, gens, param_spec)


def load_lattice_file(path, g: LieAlgebra, overrides=None) -> QStructure:
    return lattice_from_document(load_json(path, "lattice"), g, overrides)
