"""Every definition in ``src/`` is read from ``src/``.

An AST scan.  A top-level function or class, or a method of a top-level
class, counts as read when its name occurs somewhere in ``src/``
outside its own body: as a name, an attribute or an imported name.
The re-exports of ``nilcohom/exact/__init__.py`` do not count.  Names
are matched without types, so a definition that shares its name with
something read elsewhere passes unseen.  Definitions kept for readers
outside ``src/`` are listed in ``ALLOWED`` with their reason.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "nilcohom"
REEXPORTS = "exact/__init__.py"

ALLOWED = {
    "cxstruct.dolbeault_complex": "read by bench/ (a traced span)",
    "cxstruct.hodge_table_ranks_oracle":
        "read by bench/checks.py; an independent reference for tests",
    "cxstruct.j_core": "kept for ROADMAP item 2",
    "cxstruct.j_hull": "kept for ROADMAP item 2",
    "exact.fields.substitute_parameter":
        "an independent reference for tests: substituted lattices",
    "exact.intlattice.is_unimodular":
        "an independent reference for tests: Smith transforms",
    "exact.intlattice.smith_diagonal": "read by bench/ (a traced span)",
    "exact.intlattice.minor_gcd_diagonal":
        "read by bench/; an independent reference for Smith invariants",
    "exact.linalg.Matrix.transpose":
        "an independent reference for tests: rank of the transpose",
    "exact.linalg.Matrix.zeros": "read by tests as the zero matrix",
    "exact.numbers.QuadraticSurd.min_poly":
        "read by tests to identify a declared surd",
    "liealg.check_jacobi_via_differential":
        "an independent reference for tests: d o d = 0",
    "liealg.is_gamma_rational":
        "an independent reference for tests: Gamma-rationality",
    "liealg.is_lie_subring": "read by bench/ (a traced span)",
    "specseq.SpectralPages.e_inf_totals": "read by bench/checks.py",
    "specseq.frolicher": "read by bench/queries.py",
    "specseq.hochschild_serre": "read by bench/queries.py",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(module, tree):
    """(qualified name, bare name, node) of each top-level function and
    class, and of each method of a top-level class but the dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not _is_dunder(
                        sub.name):
                    yield f"{module}.{node.name}.{sub.name}", sub.name, sub


def _reads(tree):
    """(name, line) of every name, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def unread_definitions():
    trees = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        trees[rel] = ast.parse(path.read_text(), rel)
    reads = {}
    for rel, tree in trees.items():
        if rel != REEXPORTS:
            for name, line in _reads(tree):
                reads.setdefault(name, []).append((rel, line))
    unread = []
    for rel, tree in trees.items():
        module = rel[:-len(".py")].replace("/", ".")
        for qualname, name, node in _definitions(module, tree):
            if not any(where != rel or not
                       node.lineno <= line <= node.end_lineno
                       for where, line in reads.get(name, ())):
                unread.append(qualname)
    return unread


def test_every_definition_is_read_or_allowed():
    unread = unread_definitions()
    assert sorted(set(unread) - set(ALLOWED)) == []
    # an entry whose definition is gone, or is now read, leaves the list
    assert sorted(set(ALLOWED) - set(unread)) == []
