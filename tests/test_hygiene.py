"""Source hygiene checks that need no linter: every import is used,
every private module-level function in src/ is referenced from src/,
every public module-level function or class in src/ is exported or
referenced from src/, tests/ or bench/, only sim._run loops over the
stage count, the JSON loader does not build through from_rows, no
policy is built from a dict, and the running sums are defined once."""

import ast
import dataclasses
from pathlib import Path

import pytest

import cyclesynth

REPO = Path(__file__).resolve().parent.parent
PACKAGE = sorted((REPO / "src").rglob("*.py"))
SOURCES = sorted([*PACKAGE, *(REPO / "tests").rglob("*.py")])
READERS = sorted([*SOURCES, *(REPO / "bench").rglob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read in the module.  A name
    listed in `__all__` counts as read (a re-export)."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_detects_unused_import():
    source = "import os\nimport sys as system\nfrom a.b import c, d\nprint(d)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: system", "line 3: c"]
    assert unused_imports("import os.path\nos.getcwd()\n") == []
    assert unused_imports("from .x import y\n__all__ = ['y']\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(REPO)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    """Module-level functions named with a leading underscore that no code
    in `sources` (name -> text) reads, by name or as an attribute, outside
    the function's own body."""
    defined: list[tuple[str, str]] = []
    readers: dict[str, set] = {}
    for name, source in sources.items():
        for stmt in ast.parse(source).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = (name, stmt.name)
                if stmt.name.startswith("_") and not stmt.name.startswith("__"):
                    defined.append(owner)
            for node in ast.walk(stmt):
                ident = (node.id if isinstance(node, ast.Name)
                         else node.attr if isinstance(node, ast.Attribute) else None)
                readers.setdefault(ident, set()).add(owner)
    return [f"{name}: {func}" for name, func in defined
            if not readers.get(func, set()) - {(name, func)}]


def test_detects_unreferenced_private_function():
    sources = {"a.py": "def _used():\n    pass\n\ndef _dead():\n    _dead()\n",
               "b.py": "import a\n\ndef public():\n    a._used()\n"}
    assert unreferenced_private_functions(sources) == ["a.py: _dead"]


def test_no_unreferenced_private_functions():
    sources = {str(p.relative_to(REPO)): p.read_text() for p in PACKAGE}
    assert unreferenced_private_functions(sources) == []


def unused_public_names(package: dict[str, str], readers: dict[str, str],
                        exported) -> list[str]:
    """Public module-level functions and classes of `package` (name ->
    text) that are not in `exported` and that no code in `readers` reads,
    by name, as an attribute or as a string (a getattr by name), outside
    the definition itself."""
    read: dict[str, set] = {}
    for name, source in readers.items():
        for stmt in ast.parse(source).body:
            owner = (name, getattr(stmt, "name", None))
            for node in ast.walk(stmt):
                ident = (node.id if isinstance(node, ast.Name)
                         else node.attr if isinstance(node, ast.Attribute)
                         else node.value if isinstance(node, ast.Constant) else None)
                if isinstance(ident, str):
                    read.setdefault(ident, set()).add(owner)
    return [f"{name}: {stmt.name}" for name, source in package.items()
            for stmt in ast.parse(source).body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_") and stmt.name not in exported
            and not read.get(stmt.name, set()) - {(name, stmt.name)}]


def test_detects_unused_public_name():
    package = {"a.py": "def used():\n    pass\n\ndef dead():\n    dead()\n\n"
                       "class Gone:\n    def again(self):\n        return Gone()\n\n"
                       "def shown():\n    pass\n\ndef named():\n    pass\n",
               "b.py": "import a\n\ndef public():\n    a.used()\n"}
    readers = {**package, "t.py": "getattr(a, 'named')\n"}
    assert unused_public_names(package, readers, {"shown"}) == [
        "a.py: dead", "a.py: Gone", "b.py: public"]


def test_no_unused_public_names():
    package = {str(p.relative_to(REPO)): p.read_text() for p in PACKAGE}
    readers = {str(p.relative_to(REPO)): p.read_text() for p in READERS}
    assert unused_public_names(package, readers, cyclesynth.__all__) == []


def stage_loops(source: str) -> list[str]:
    """Functions of `source` that loop over the stage count: a for,
    while or comprehension whose iterable or condition reads `n_stages`.
    A loop in a nested function counts for each enclosing function."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            header = (node.iter if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension))
                      else node.test if isinstance(node, ast.While) else None)
            if header is not None and any(isinstance(n, ast.Name) and n.id == "n_stages"
                                          for n in ast.walk(header)):
                found.append(func.name)
    return found


def test_detects_stage_loop():
    source = ("def _run(n_stages):\n    for _ in range(n_stages):\n        pass\n\n"
              "def other(n_stages):\n    k = 0\n    while k < n_stages:\n        k += 1\n"
              "    return [0 for _ in range(n_stages)]\n\n"
              "def outer(n_stages, rows):\n    def inner():\n"
              "        return {k for k in range(2 * n_stages)}\n"
              "    return [r for r in rows], _run(n_stages), inner()\n")
    assert stage_loops(source) == ["_run", "other", "other", "outer", "inner"]


def test_one_simulation_loop():
    """Every simulator runs through sim._run, the one stepping loop."""
    assert stage_loops((REPO / "src" / "cyclesynth" / "sim.py").read_text()) == ["_run"]


def _state_action_pair(node) -> bool:
    """node is a 2-tuple led by a name, with no slice or new axis: the
    (state, action) key of a row table rather than a numpy index."""
    return (isinstance(node, ast.Tuple) and len(node.elts) == 2
            and isinstance(node.elts[0], ast.Name)
            and not any(isinstance(e, ast.Slice) or ast.unparse(e) in ("np.newaxis", "None")
                        for e in node.elts))


def keyed_row_tables(source: str) -> list[str]:
    """Where `source` builds or reads a table keyed by (state, action):
    dict displays and comprehensions with a pair key, and subscripts by
    a pair or by a name bound to one.  Type annotations do not count."""
    tree = ast.parse(source)
    bound = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and _state_action_pair(node.value)
             for target in node.targets if isinstance(target, ast.Name)}
    found = []
    for node in ast.walk(tree):
        keys = (node.keys if isinstance(node, ast.Dict)
                else [node.key] if isinstance(node, ast.DictComp)
                else [node.slice] if isinstance(node, ast.Subscript)
                and not (isinstance(node.value, ast.Name)
                         and node.value.id in ("tuple", "dict", "list", "set", "frozenset"))
                else [])
        if any(_state_action_pair(k) or isinstance(k, ast.Name) and k.id in bound
               and isinstance(node, ast.Subscript) for k in keys):
            found.append((node.lineno, node.col_offset, ast.unparse(node)))
    return [f"line {line}: {text}" for line, _col, text in sorted(found)]


def test_detects_keyed_row_table():
    source = ("def build(mdp, mu, rows, i, a, np, P, G, X, v, out, col, k):\n"
              "    succ = {(i, a): () for i, a in rows}\n"
              "    key = (i, a)\n"
              "    succ[key] = mdp.succ[(i, mu.action(i))]\n"
              "    cost = {(i, a): 2.0, 0: 1.0}\n"
              "    x: dict[tuple[int, int], int] = {}\n"
              "    return (samplers[s, act(s)], P[np.repeat(k), col], G[k, k + 1:],\n"
              "            v[out, np.newaxis], X[:, -1], G[col[k], out], key)\n")
    assert keyed_row_tables(source) == [
        "line 2: {(i, a): () for i, a in rows}",
        "line 4: succ[key]",
        "line 4: mdp.succ[i, mu.action(i)]",
        "line 5: {(i, a): 2.0, 0: 1.0}",
        "line 7: samplers[s, act(s)]",
    ]


def dict_policies(source: str) -> list[str]:
    """Where `source` builds a StationaryPolicy from a dict display, a
    dict comprehension or a dict(...) call."""
    return [f"line {node.lineno}: {ast.unparse(node)}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
            == "StationaryPolicy"
            and any(isinstance(arg, (ast.Dict, ast.DictComp))
                    or isinstance(arg, ast.Call) and getattr(arg.func, "id", None) == "dict"
                    for arg in node.args)]


def test_detects_dict_policy():
    source = ("a = StationaryPolicy(dict(enumerate(x)))\n"
              "b = mdp.StationaryPolicy({0: 1})\n"
              "c = StationaryPolicy({i: 0 for i in s})\n"
              "d = StationaryPolicy(x.tolist())\n")
    assert dict_policies(source) == [
        "line 1: StationaryPolicy(dict(enumerate(x)))",
        "line 2: mdp.StationaryPolicy({0: 1})",
        "line 3: StationaryPolicy({i: 0 for i in s})",
    ]


def dict_fields(record, allowed=()) -> list[str]:
    """The fields of a dataclass record, but those allowed, that hold a
    dict or are annotated as one."""
    return [f.name for f in dataclasses.fields(record) if f.name not in allowed
            and (isinstance(getattr(record, f.name), dict) or "dict" in str(f.type))]


def test_one_row_representation():
    """The rows live in LabeledMdp's arrays: no module but the automaton's
    (keyed by state and symbol) builds or reads a (state, action)-keyed
    table, and no field of a model, its product or a component holds a
    dict.  A policy is one action per state: no module builds one from a
    dict, and no field of a policy or a synthesis result, but the
    diagnostics, holds a dict."""
    from conftest import pickup_delivery_dra, pickup_delivery_mdp
    from cyclesynth.amec import accepting_amecs
    from cyclesynth.product import build_product
    from cyclesynth.synth import amec_cycle_problem, synthesize

    assert [f"{path.name}: {hit}" for path in PACKAGE if path.name != "dra.py"
            for hit in keyed_row_tables(path.read_text())] == []
    assert [f"{path.name}: {hit}" for path in PACKAGE
            for hit in dict_policies(path.read_text())] == []
    mdp = pickup_delivery_mdp()
    product = build_product(mdp, pickup_delivery_dra(), "pickup")
    component = accepting_amecs(product)[0]
    problem, *_ = amec_cycle_problem(product, component)
    for record in (mdp, product.model, problem.mdp, component):
        assert dict_fields(record) == []
    result = synthesize(mdp, pickup_delivery_dra(), "pickup")
    solution = result.lambda_per_amec[0]
    for record in (result.stitched_policy, solution.interior_policy, solution):
        assert dict_fields(record) == []
    assert dict_fields(result, allowed={"diagnostics"}) == []


def reached_functions(source: str, start: str) -> set[str]:
    """Module-level functions of `source` that `start` reads by name,
    directly or through the module-level functions it reads."""
    bodies = {stmt.name: stmt for stmt in ast.parse(source).body
              if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))}
    reached, todo = set(), [start]
    while todo:
        for node in ast.walk(bodies[todo.pop()]):
            if isinstance(node, ast.Name) and node.id in bodies and node.id not in reached:
                reached.add(node.id)
                todo.append(node.id)
    return reached


def test_detects_reached_function():
    source = ("def load():\n    return parse()\n\ndef parse():\n    return [build]\n\n"
              "def build():\n    pass\n\ndef other():\n    load()\n")
    assert reached_functions(source, "load") == {"parse", "build"}
    assert reached_functions(source, "build") == set()


def test_loader_fills_the_arrays_itself():
    """The JSON loader builds the compressed rows in array passes: nothing
    it reaches calls from_rows, the constructor for code with keyed rows."""
    reached = reached_functions((REPO / "src" / "cyclesynth" / "mdp.py").read_text(),
                                "from_json_dict")
    assert "from_rows" not in reached and "_summed" in reached


def test_running_sums_defined_once():
    """The in-order running sums the loader and the simulator share live
    in numerics alone."""
    assert [path.name for path in PACKAGE for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef) and node.name == "_running_sums"] == [
        "numerics.py"]
