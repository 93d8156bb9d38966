"""Static hygiene of the package, checked on its syntax trees.

Every module-level import must be used in its module or re-exported
through ``__all__``; imports inside functions or classes are allowed
only in the CLI's command functions, each of which loads the engine it runs,
in ``models.hypothesis_report``, which loads the FD oracle only where
the closed form finds Ricci parallel, in ``models.WarpingProfile`` and
``models.model_from_id``, which load the table reader only for a custom
profile, and in ``fdcheck.__getattr__``, which
loads the commutator oracle on the first use of its ``check_lemma31``; no
module imports sympy, scipy or numpy, which only the tests use, as
references, nor dataclasses, whose
import every command would pay for; and no module but ``models`` reads how a warping profile
was specified (its kind and parameters) rather than its pieces, or
decides its end from its top piece.  The benchmark's tracer wraps
package functions by name: each of them must exist.  Every function, class
and method is referenced by package code outside its own definition.

Every module of the package stays at most 4096 parser tokens, the
symbolic engine's modules at most 3000, the FD modules that
``models.hypothesis_report`` compiles late (``fdcheck`` and ``fdgeom``) at
most 2048; the ``oracle`` and ``symbolic`` commands compile their largest
module first, and a command loads no module it does not run.
"""

import ast
import importlib
import json
import subprocess
import sys
import tokenize
from collections import Counter
from pathlib import Path

import pytest

import harnacklab

PACKAGE = Path(harnacklab.__file__).resolve().parent

#: (module, enclosing definition) of every function-local import: each
#: command loads its own engine, so importing the CLI loads none of them,
#: the FD oracle is loaded only to confirm a closed-form parallel Ricci,
#: its commutator half only where its check_lemma31 is used, and the table
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
            ("fdgeom", {"__future__", "itertools"}),
            ("fdcheck", {"__future__", "functools", "itertools", "math", "typing", "fdgeom"}),
            ("commutators", {"__future__", "itertools", "math", "operator", "typing",
                             "fdcheck", "fdgeom"})):
        tree = modules[module]
        imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module}
        assert imported == expected, module


def _references(node):
    """(names, attributes): how often each name is read as a Name, and each
    attribute read, anywhere under node.  An import binds a name without
    using it, so a re-export is no use."""
    names, attrs = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            attrs[sub.attr] += 1
    return names, attrs


def _definitions(tree):
    """(definition, whether it is a method) for every function and class,
    nested ones included."""
    stack = [(tree, False)]
    while stack:
        node, in_class = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield child, in_class and not isinstance(child, ast.ClassDef)
            stack.append((child, isinstance(child, ast.ClassDef)))


def test_every_definition_is_called_by_package_code():
    """No code that only the tests reach: every function and class is
    referenced by package code outside its own definition, as a Name or an
    Attribute, and every method as an Attribute, so that
    a local variable of the same name cannot stand in for it.  Dunders are
    exempt.  The check goes by name, so a method that shares its name with
    another attribute (``CoordinateChart.g`` with ``Jet.g``) slips past it."""
    modules = list(_modules())
    names, attrs = Counter(), Counter()
    for _, tree in modules:
        found = _references(tree)
        names.update(found[0])
        attrs.update(found[1])
    unused = []
    for module, tree in modules:
        for node, method in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own_names, own_attrs = _references(node)
            used = attrs[name] - own_attrs[name]
            if not method:
                used += names[name] - own_names[name]
            if used <= 0:
                unused.append(f"{module}:{node.lineno} {name}")
    assert unused == []


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


#: the parser's token array doubles past this many tokens (see the test below)
TOKEN_STEP = 4096


def _parser_tokens(path):
    """Tokens of a module as the parser reads them: all but comments and
    non-logical newlines."""
    with open(path) as fh:
        return sum(tok.type not in (tokenize.COMMENT, tokenize.NL)
                   for tok in tokenize.generate_tokens(fh.readline))


def _token_counts(names):
    return {name: _parser_tokens(PACKAGE.joinpath(*name.split(".")).with_suffix(".py"))
            for name in names}


def test_every_module_stays_under_the_parser_token_step():
    """Bytecode caching is off where commands are measured, so each command
    compiles the package from source, and a command reaches its peak RSS
    during that compile, not while it computes.  CPython 3.11's parser
    grows its token array by doubling, one token record per slot, so a
    module past 4096 tokens costs a step of 0.3-0.6 MB of peak RSS:
    padding ``fdcheck`` from 3,986 to 4,234 tokens moved ``verify
    euclidean --n 4`` from 16.32 to 16.70 MB, and trimming ``models`` from
    5,150 to 4,012 moved the other numeric commands from 16.21-16.23 to
    15.62-15.95 MB."""
    counts = _token_counts(name for name, _ in _modules())
    assert {name: n for name, n in counts.items() if n > TOKEN_STEP} == {}


#: the symbolic engine's modules, which the ``symbolic`` command compiles
SYMBOLIC_MODULES = ("symbolic.terms", "symbolic.engine", "symbolic.ring",
                    "symbolic.identities", "symbolic.__init__")
#: the most parser tokens a symbolic module holds (see the test below)
SYMBOLIC_TOKENS = 3000


def test_symbolic_modules_stay_well_under_the_token_step():
    """Clearing the step is not enough for the symbolic command.  The
    unsplit ``symbolic.engine`` held 4,133 tokens.  A split that only
    cleared the step (its derivative half moved out, ``engine`` left at
    3,804) gained nothing: ``symbolic verify-all`` peaked at 16.15 MB on
    both sides and ``verify --name misc.1`` at 16.03 against 16.01.  Split
    at the seam between the term algebra with its normal form (``terms``,
    2,897 tokens) and the rewrite system (``engine``, 1,314), with
    ``terms`` compiled first, ``verify-all`` fell from 16.12 to 15.76 MB
    and ``misc.1`` from 16.00 to 15.75 (medians of 15 alternated pairs,
    Python 3.11 on 2 shared vCPUs, bytecode caching off)."""
    counts = _token_counts(SYMBOLIC_MODULES)
    assert {name: n for name, n in counts.items() if n > SYMBOLIC_TOKENS} == {}


#: the FD modules that ``models.hypothesis_report`` imports only after the
#: verdict engines are compiled, where the closed form finds Ricci parallel
LATE_FD_MODULES = ("fdcheck", "fdgeom")


def test_late_fd_modules_stay_under_half_the_token_step():
    """A euclidean verdict compiles the FD oracle after the verdict
    engines, and each compile is freed before the next starts.  A late
    compile of at most 2048 parser tokens fits in the memory the earlier
    ones freed; a larger one raises the command's peak RSS.  In process,
    after a ``corollary cone:0.5`` run, compiling the first top-level
    statements of the unsplit ``fdcheck`` (3,260 tokens) raised
    ``ru_maxrss`` by nothing up to 1,808 tokens, by 0.125 MB from 2,234 to
    2,724 and by 0.25 MB from 3,073 (medians of 9 runs, Python 3.11 on 2
    shared vCPUs, bytecode caching off).  Split into
    ``fdcheck`` and ``fdgeom`` (1,703 and 1,588 tokens), the late import
    costs nothing, and ``verify euclidean --n 4`` peaks at 15.63 MB
    against 16.00 before, as a cone command does (15.60)."""
    counts = _token_counts(LATE_FD_MODULES)
    assert {name: n for name, n in counts.items() if n > TOKEN_STEP // 2} == {}


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
    loaded = _loaded_after(argv, ["harnacklab.fdcheck", "harnacklab.fdgeom",
                                  "harnacklab.commutators"])
    assert loaded == {"harnacklab.fdcheck", "harnacklab.fdgeom"}


def _import_order(argv):
    """The package modules in the order a fresh interpreter starts to import
    them for the command argv.  A module enters ``sys.modules`` and is
    compiled before any module it imports, but ``sys.modules`` ends up in
    the order the imports finished, so the order they entered it is read
    from the interpreter's ``import`` audit event, raised as each one
    starts."""
    script = ("import contextlib, io, json, sys\n"
              "order = []\n"
              "sys.addaudithook(lambda event, args: order.append(args[0])\n"
              "                 if event == 'import' else None)\n"
              "from harnacklab.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    main(json.loads(sys.argv[1]))\n"
              "print(json.dumps([m for m in order if m.startswith('harnacklab.')]))")
    r = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)


@pytest.mark.parametrize("argv,largest,later", [
    (["oracle", "commutators", "--chart", "s2xr2", "--probes", "1"],
     "commutators", ("fdcheck", "fdgeom")),
    (["symbolic", "verify", "--name", "misc.1"],
     "symbolic.terms", ("symbolic.ring", "symbolic.identities")),
])
def test_oracle_and_symbolic_compile_their_largest_module_first(argv, largest, later):
    """Each compile's memory is freed before the next starts, so where a
    command compiles its largest module decides its peak RSS.  With
    ``symbolic.ring`` compiled before ``symbolic.terms`` (2,897 tokens),
    ``symbolic verify-all`` peaked at 16.03 MB, and at 15.77 with ``terms``
    first; with ``fdcheck`` compiled before ``commutators`` (3,166),
    ``oracle --chart round_sphere --probes 3`` peaked at 15.47 MB, and at
    15.35 with ``commutators`` first (medians of 15 alternated pairs,
    bytecode caching off).  Not every command gains: ``--chart euclidean
    --probes 4`` read 15.64 against 15.48 MB, still below the symbolic
    commands' peak."""
    order = _import_order(argv)
    first = order.index(f"harnacklab.{largest}")
    assert all(first < order.index(f"harnacklab.{m}") for m in later), order
