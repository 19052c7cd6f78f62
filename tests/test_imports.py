"""No library module and no test file keeps a module-level import it never
uses; no library dataclass keeps a field that nothing reads; no library
module but trig spells the int64 limits; importing catflux loads no process
pool."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "catflux"
# __init__ imports names only to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
MODULES += sorted(TESTS.glob("*.py"))


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
    # quoted annotations such as "ConjugationSeries | None" use names too
    for ann in annotations:
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def dataclass_fields(source: str):
    """(class, field) of every annotated field of a @dataclass class."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d
                      for d in node.decorator_list]
        if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
                   for d in decorators):
            continue
        out += [(node.name, item.target.id) for item in node.body
                if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)]
    return out


def attribute_reads(paths):
    """Every name read as `.name` in the given files."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_dataclass_field_is_read():
    # by name only: a field counts as read when any `.name` load in src/ or
    # tests/ matches it, whatever the object
    reads = attribute_reads(sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")))
    fields = [(path.name, cls, name) for path in sorted(SRC.glob("*.py"))
              for cls, name in dataclass_fields(path.read_text())]
    assert len(fields) > 50
    assert [f for f in fields if f[2] not in reads] == []


# trig owns the int64 limits: FREQ_LIMIT = 2^62, the int64 range 2^63 and
# the composition shadow's rounding bound _SHADOW_REL = 8 * 2^-53
INT64_LIMITS = {2 ** 62, 2 ** 63, 8 * 2.0 ** -53}
CONSTANT_NODES = (ast.BinOp, ast.UnaryOp, ast.Constant, ast.operator,
                  ast.unaryop)


def int64_limit_literals(source: str):
    """(line, value) of every constant arithmetic expression that spells
    one of the int64 limits."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and all(
                isinstance(n, CONSTANT_NODES) for n in ast.walk(node)):
            value = eval(compile(ast.Expression(node), "<literal>", "eval"))
            if value in INT64_LIMITS:
                found.append((node.lineno, value))
    return found


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "trig.py"),
    ids=lambda p: p.name)
def test_int64_limits_are_spelled_only_in_trig(path):
    assert int64_limit_literals(path.read_text()) == []


def test_trig_spells_the_int64_limits():
    found = {value for _, value in
             int64_limit_literals((SRC / "trig.py").read_text())}
    assert found == INT64_LIMITS


def test_import_loads_no_process_pool():
    # simulate imports ProcessPoolExecutor only for workers > 1, so a plain
    # import does not pay for multiprocessing, socket, logging and queue
    code = ("import sys, catflux; print(sorted(m for m in ('concurrent.futures',"
            " 'multiprocessing') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    assert done.stdout.strip() == "[]"
