"""Static hygiene of the package, checked on its syntax trees.

Every module-level import must be used in its module or re-exported
through ``__all__``; imports inside functions or classes are allowed
only in the CLI's command functions, each of which loads the engine it runs,
in ``models.hypothesis_report``, which loads the FD oracle only where
the closed form finds Ricci parallel, in ``models.WarpingProfile`` and
``models.model_from_id``, which load the table reader only for a custom
profile, and in ``fdcheck.__getattr__``, which
loads the commutator oracle on the first use of one of its names; no
module imports sympy, scipy or numpy, which only the tests use, as
references, nor dataclasses, whose
import every command would pay for; and no module but ``models`` reads how a warping profile
was specified (its kind and parameters) rather than its pieces, or
decides its end from its top piece.  The benchmark's tracer wraps
package functions by name: each of them must exist.

Every module that a numeric or ``oracle`` command compiles stays at most
4096 parser tokens, and a command loads no module it does not run.
"""

import ast
import importlib
import json
import subprocess
import sys
import tokenize
from pathlib import Path

import harnacklab

PACKAGE = Path(harnacklab.__file__).resolve().parent

#: (module, enclosing definition) of every function-local import: each
#: command loads its own engine, so importing the CLI loads none of them,
#: the FD oracle is loaded only to confirm a closed-form parallel Ricci,
#: its commutator half only where one of its names is used, and the table
#: reader only where a custom profile is read or splined
LAZY_IMPORTS = {("cli", "cmd_symbolic"), ("cli", "cmd_verify"), ("cli", "cmd_min_c"),
                ("cli", "cmd_corollary"), ("cli", "cmd_audit"), ("cli", "cmd_oracle"),
                ("cli", "_model_profile"), ("models", "hypothesis_report"),
                ("models", "WarpingProfile"), ("models", "model_from_id"),
                ("fdcheck", "__getattr__")}


def _modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).with_suffix("")
        yield ".".join(rel.parts), ast.parse(path.read_text(), str(path))


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _bound_names(node):
    """The names an import statement binds."""
    for alias in node.names:
        name = alias.asname or alias.name.split(".")[0]
        yield name


def _module_level_imports(tree):
    """Imports outside any function or class body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if not (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                yield node
            continue
        stack.extend(ast.iter_child_nodes(node))


def _local_imports(tree):
    """(top-level definition name, import node) for imports inside definitions."""
    for top in tree.body:
        if not isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for node in ast.walk(top):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield top.name, node


def test_package_has_modules():
    names = [name for name, _ in _modules()]
    assert {"cli", "green", "harnack", "models", "symbolic.engine"} <= set(names)


def test_every_module_level_import_is_used_or_exported():
    unused = []
    for name, tree in _modules():
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        exported = _exported(tree)
        for node in _module_level_imports(tree):
            for bound in _bound_names(node):
                if bound not in loaded and bound not in exported:
                    unused.append(f"{name}:{node.lineno} {bound}")
    assert unused == []


def test_no_function_local_imports_but_the_lazy_sympy_ones():
    local = {(name, where) for name, tree in _modules()
             for where, _ in _local_imports(tree)}
    assert local == LAZY_IMPORTS


def _importers(library):
    """module:line of every import of the library anywhere in the package."""
    found = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            if library in roots:
                found.append(f"{name}:{node.lineno}")
    return found


def test_no_module_imports_sympy():
    assert _importers("sympy") == []


def test_no_module_imports_scipy():
    assert _importers("scipy") == []


def test_no_module_imports_numpy():
    # numpy is a reference of the tests, like scipy and sympy
    assert _importers("numpy") == []


def test_no_module_imports_dataclasses():
    # importing it loads inspect, ast, dis and tokenize, and each class it
    # decorates compiles generated code: every command would pay for both
    assert _importers("dataclasses") == []


#: what only models.py may touch: the parameters a profile is built from,
#: and the names of the per-kind helpers its pieces replaced
PROFILE_FIELDS = {"kind", "table", "r0", "c"}
REMOVED_PROFILE_CALLS = {"cuts", "linear_from", "asymptotic_slope"}


def _is_last(index):
    """Whether a subscript's index is the literal -1."""
    try:
        return ast.literal_eval(index) == -1
    except ValueError:
        return False


def test_profile_format_stays_inside_models():
    found = []
    for name, tree in _modules():
        if name == "models":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in PROFILE_FIELDS:
                found.append(f"{name}:{node.lineno} .{node.attr}")
            if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "pieces" and _is_last(node.slice)):
                # the top piece decides the profile's end: tail_start, tail_slope
                found.append(f"{name}:{node.lineno} .pieces[-1]")
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called in REMOVED_PROFILE_CALLS:
                    found.append(f"{name}:{node.lineno} {called}()")
    assert found == []


def test_fd_oracle_imports_no_numpy():
    # the oracle is plain floats, so `oracle` runs without numpy
    modules = dict(_modules())
    for module, expected in (
            ("fdcheck", {"__future__", "functools", "itertools", "math", "typing"}),
            ("commutators", {"__future__", "itertools", "math", "operator", "typing",
                             "fdcheck"})):
        tree = modules[module]
        imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module}
        assert imported == expected, module


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    """FUNCTIONS, METHODS and COUNTED of the tracer, read from its syntax tree."""
    found = {}
    for node in ast.parse(TRACER.read_text(), str(TRACER)).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in (
                        "FUNCTIONS", "METHODS", "COUNTED"):
                    found[target.id] = ast.literal_eval(node.value)
    return found


def test_every_function_the_tracer_wraps_exists():
    # a renamed one would crash every traced benchmark run
    targets = _tracer_targets()
    counted = [m for group in targets["COUNTED"].values() for m in group]
    assert targets["FUNCTIONS"] and targets["METHODS"] and counted
    missing = [f"{module}.{attr}" for module, attr in targets["FUNCTIONS"]
               if not callable(getattr(importlib.import_module(module), attr, None))]
    for module, cls, attr in (*targets["METHODS"], *counted):
        owner = getattr(importlib.import_module(module), cls, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{module}.{cls}.{attr}")
    assert missing == []


#: the modules that a numeric command (verify, min-c, audit, export-profile,
#: corollary) or ``oracle`` may compile
NUMERIC_MODULES = ("cli", "models", "poly", "tables", "quadrature", "green", "harnack",
                   "geodesics", "fdcheck", "commutators")
#: the parser's token array doubles past this many tokens (see the test below)
TOKEN_STEP = 4096


def _parser_tokens(path):
    """Tokens of a module as the parser reads them: all but comments and
    non-logical newlines."""
    with open(path) as fh:
        return sum(tok.type not in (tokenize.COMMENT, tokenize.NL)
                   for tok in tokenize.generate_tokens(fh.readline))


def test_numeric_modules_stay_under_the_parser_token_step():
    """Bytecode caching is off where commands are measured, so each command
    compiles the package from source, and a numeric command reaches its
    peak RSS during that compile, not while it computes.  CPython 3.11's
    parser grows its token array by doubling, one token record per slot,
    so a module past 4096 tokens costs a step of 0.3-0.6 MB of peak RSS:
    padding ``fdcheck`` from 3,986 to 4,234 tokens moved ``verify
    euclidean --n 4`` from 16.32 to 16.70 MB, and trimming ``models`` from
    5,150 to 4,012 moved the other numeric commands from 16.21-16.23 to
    15.62-15.95 MB."""
    counts = {name: _parser_tokens(PACKAGE / f"{name}.py") for name in NUMERIC_MODULES}
    assert {name: n for name, n in counts.items() if n > TOKEN_STEP} == {}


def _loaded_after(argv, names):
    """Which of `names` a fresh interpreter holds in sys.modules after the
    command argv."""
    script = ("import contextlib, io, json, sys\n"
              "from harnacklab.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    main(json.loads(sys.argv[1]))\n"
              "print(json.dumps(sorted(set(json.loads(sys.argv[2])) & set(sys.modules))))")
    r = subprocess.run([sys.executable, "-c", script, json.dumps(argv), json.dumps(names)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return set(json.loads(r.stdout))


def test_a_preset_model_loads_no_table_reader():
    argv = ["verify", "--model", "cone:0.5", "--n", "4", "--C", "10", "--grid-size", "8"]
    assert _loaded_after(argv, ["harnacklab.tables", "csv"]) == set()


def test_parallel_ricci_compiles_no_commutator_oracle():
    argv = ["verify", "--model", "euclidean", "--n", "4", "--C", "10", "--grid-size", "8"]
    assert _loaded_after(argv, ["harnacklab.fdcheck", "harnacklab.commutators"]) == {
        "harnacklab.fdcheck"}
