"""Source hygiene of the package modules (`__init__.py` aside): every
imported name is used, every private module-level name is referenced
somewhere in `src/`, and every public module-level function is read by
other `src/` code or listed with a reason.  A helper left behind by a
half-finished deletion fails one of them."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(p for p in (SRC / "sftgeom").glob("*.py") if p.name != "__init__.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by import statements anywhere in the module, with a line."""
    out: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


def _private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Module-level private names (not dunders) with their defining statement."""
    out: dict[str, ast.stmt] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                out[name] = node
    return out


def _reads(root: ast.AST) -> Counter:
    """Names and attribute names read under root."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(root)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(name for name in _imported(tree) if name not in used)
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_name_is_referenced(path):
    """A reference is a read in the syntax tree of a src/ module, outside
    the name's own definition: a name only comments or docstrings mention
    is dead."""
    total = sum((_reads(_tree(src)) for src in sorted(SRC.rglob("*.py"))), Counter())
    dead = [
        name
        for name, node in _private_definitions(_tree(path)).items()
        if total[name] == _reads(node)[name]
    ]
    assert dead == [], f"{path.name} defines private names nothing references: {dead}"


# Public functions that no src/ code reads, each with the reason it stays.
# An entry that gains a reader is stale and fails the listing test.
DECISION = "a decision of the paper that no CLI task reads yet (a compare task will)"
UNREAD_PUBLIC = {
    "bounded_equivalence": DECISION,
    "bounded_solenoid_class_check": DECISION,
    "from_gibbs": DECISION,
    "measure_solenoid": DECISION,
    "holder_estimate": DECISION,
    "dual_measure_ratio": DECISION,
    "natural_measure_check": "to give way to a finite decision read off the window table",
    "load_table": "reader of the reports write_table writes",
    "pair_to_json": "serializer of the files pair_from_json reads",
    "potential_to_json": "serializer of the files potential_from_json reads",
    "solenoid_to_json": "serializer of the files solenoid_from_json reads",
    "system_to_json": "serializer of the files system_from_json reads",
    "markov_potential": "potential constructor of the benchmark's generated systems",
    "potential_from_table": "potential constructor of the benchmark's generated systems",
}


def _public_function_readers() -> dict[str, int]:
    """Per public module-level function, how often src/ modules read its
    name outside its own definition."""
    trees = [_tree(path) for path in MODULES]
    total = sum(map(_reads, trees), Counter())
    return {
        node.name: total[node.name] - _reads(node)[node.name]
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }


def test_every_public_function_is_read():
    readers = _public_function_readers()
    dead = sorted(name for name, n in readers.items() if not n and name not in UNREAD_PUBLIC)
    assert dead == [], f"public functions nothing in src/ reads: {dead}"


def test_listed_public_functions_are_unread():
    readers = _public_function_readers()
    stale = sorted(name for name in UNREAD_PUBLIC if readers.get(name, 1))
    assert stale == [], f"listed as unread but read, or gone: {stale}"


def _parameters(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    a = node.args
    named = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
    return [arg.arg for arg in named]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    """A parameter that no line of its function reads (nested functions
    included) is one the function ignores.  Lambdas and a method's `self`
    are exempt: their signatures are fixed by their callers."""
    unread = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            read = {
                n.id
                for stmt in node.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            params = [p for p in _parameters(node) if p != "self"]
            unread += [f"{node.name}({p})" for p in params if p not in read]
    assert unread == [], f"{path.name} has parameters nothing reads: {unread}"


# Modules that join or extend words at their pivot; sft.py states which end
# of a word is the pivot and which the deep end, and they read it from there.
SIDE_READERS = ("gibbs.py", "cocycle.py", "solenoid.py")
SIDE_NAMES = {"U_SIDE", "S_SIDE"}
# The one place a u-word and an s-word are concatenated in time order.
SIDE_BRANCH_EXEMPT = ("AdmissiblePair", "joined")


def _side_comparisons(tree: ast.Module) -> list[int]:
    """Lines of comparisons that name U_SIDE or S_SIDE, outside the exempt
    method."""
    exempt = {
        id(n)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == SIDE_BRANCH_EXEMPT[0]
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name == SIDE_BRANCH_EXEMPT[1]
        for n in ast.walk(fn)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and id(node) not in exempt
        and any(
            isinstance(n, ast.Name) and n.id in SIDE_NAMES
            for operand in (node.left, *node.comparators)
            for n in ast.walk(operand)
        )
    )


@pytest.mark.parametrize("name", SIDE_READERS)
def test_word_ends_are_read_through_sft(name):
    """No u/s branch outside sft.py: a pivot-end operation on one side is
    the deep-end operation on sft.opposite(side)."""
    lines = _side_comparisons(_tree(SRC / "sftgeom" / name))
    assert lines == [], f"{name} compares with U_SIDE/S_SIDE on lines {lines}"


def test_the_kernel_is_fraction_free():
    """gibbs._kernel_vector eliminates over integers: no Fraction in its body."""
    tree = _tree(SRC / "sftgeom" / "gibbs.py")
    kernel = next(
        n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_kernel_vector"
    )
    names = {n.id for n in ast.walk(kernel) if isinstance(n, ast.Name)}
    attrs = {n.attr for n in ast.walk(kernel) if isinstance(n, ast.Attribute)}
    assert "Fraction" not in names | attrs


def test_write_table_only_joins_text():
    """cli.write_table renders no value: its cells are text, rendered once
    where the table is made."""
    tree = _tree(SRC / "sftgeom" / "cli.py")
    writer = next(
        n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "write_table"
    )
    assert "_fmt" not in {n.id for n in ast.walk(writer) if isinstance(n, ast.Name)}
