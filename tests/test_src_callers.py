"""Every public module-level function, class and constant of src/cavitysim,
and every public method of those classes, is named somewhere in src/ outside
its own definition.

A public name that only tests reach is code that no recipe, command or
benchmark runs: give it a caller, move it to tests/oracles.py if it is a
test's reference, or delete it together with its tests.  The `sim`
commands, which click registers by decorator, and the names in ALLOWED,
which the benchmark harness reads, are the exceptions.  Likewise every defaulted parameter of a public
function or method (a public class's `__init__` included, called by the
class name, and a public dataclass's fields with defaults, which are the
parameters of its generated `__init__`) is passed by some src call, by
position or by keyword: a default that src never overrides is an option only
tests reach.  The re-exports of `__init__.py` are no callers.  A
method is listed as Class.method; any mention of its name outside its own
body counts as a caller, so the check is by name only.  A class counts as
used only where src/ instantiates, raises or subclasses it, its own factory
methods included: an isinstance check, an annotation or a lookup table
builds nothing.  An attribute reached through an imported module, such as
`np.trace` or `np.linalg.norm`, names nothing of src.  A private
module-level function, class or constant (one leading underscore) must be
named somewhere in src/ outside its own statement too.

The same parse keeps the (space, array) records `Ket`, `DensityOp` and
`LinearOp` where perfbench/tracer.py reads them, as the arguments of the
evolution kernels: everywhere else, the kernels' results included, a state
or operator is a plain ndarray.
"""

import ast
import collections
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cavitysim"
PERFBENCH = ROOT / "perfbench"

#: public names kept without a caller in src/, each with the reason; the
#: benchmark harness is the only reader outside src and the tests that may
#: keep one
ALLOWED = {
    "segment_propagator": (
        "perfbench/tracer.py observes it for its dim_max probe, and the tests' dense "
        "per-sample oracle is a product of it"
    ),
    "AssignmentMatrix.inverse": "perfbench/workloads.py reads it for the readout error bars",
    "SystemLayout.lift": (
        "perfbench/tracer.py's METHODS wraps it for its device.SystemLayout.lift span; "
        "GRAPE builds its controls from the level numbers"
    ),
}


def _imported_modules(tree) -> set:
    """Names that the module's `import` statements bind: `np` for
    `import numpy as np`, `importlib` for `import importlib.resources`.
    src imports its own modules with `from`, so these are all outside it."""
    return {
        a.asname or a.name.split(".", 1)[0]
        for n in ast.walk(tree)
        if isinstance(n, ast.Import)
        for a in n.names
    }


def _root(node):
    """The innermost value of an attribute chain: `np` of `np.linalg.norm`."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def _referenced(node, modules) -> collections.Counter:
    """Identifiers the node names, with their counts: variables, attributes
    and imported names.  Attributes reached through one of the `modules`
    name nothing of src and are left out."""
    out = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            root = _root(n)
            if not (isinstance(root, ast.Name) and root.id in modules):
                out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[(n.asname or n.name).rsplit(".", 1)[-1]] += 1
    return out


def _built(node) -> collections.Counter:
    """Names the node calls, raises or subclasses, with their counts."""
    targets = []
    for n in ast.walk(node):
        if isinstance(n, ast.Call):
            targets.append(n.func)
        elif isinstance(n, ast.Raise) and n.exc is not None:
            targets.append(n.exc)
        elif isinstance(n, ast.ClassDef):
            targets.extend(n.bases)
    return collections.Counter(
        t.id if isinstance(t, ast.Name) else t.attr
        for t in targets
        if isinstance(t, (ast.Name, ast.Attribute))
    )


def _is_command(node) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr == "command"
        for d in node.decorator_list
    )


def _bound(node) -> list:
    """Names that a module-level assignment binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _constants(node) -> list:
    """Public names that a module-level assignment binds."""
    return [name for name in _bound(node) if not name.startswith("_")]


def _modules() -> list:
    """(module name, parsed module) of every src module but `__init__.py`."""
    return [
        (path.stem, ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"})
    ]


def _statements() -> list:
    """(module, top-level statement, its imported module names, the names it
    references) of every src module but `__init__.py`."""
    out = []
    for module, tree in _modules():
        modules = _imported_modules(tree)
        out += [(module, node, modules, _referenced(node, modules)) for node in tree.body]
    return out


def _uncalled() -> list:
    """(module, name) of every public definition that src/ names only inside
    it: a top-level one inside its own statement, a method inside its body;
    and of every public class that src/ never instantiates, raises or
    subclasses."""
    statements = _statements()
    mentions = sum((names for *_, names in statements), collections.Counter())
    built = sum((_built(node) for _, node, *_ in statements), collections.Counter())
    out = []
    for module, node, modules, names in statements:
        for name in _constants(node):
            if mentions[name] == names[name]:
                out.append((module, name))
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if isinstance(node, ast.ClassDef):
            unused = not built[node.name]
        else:
            unused = not _is_command(node) and mentions[node.name] == names[node.name]
        if unused:
            out.append((module, node.name))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (
                    isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")
                    and mentions[item.name] == _referenced(item, modules)[item.name]
                ):
                    out.append((module, f"{node.name}.{item.name}"))
    return out


def test_every_public_name_has_a_caller_in_src():
    uncalled = _uncalled()
    unexpected = [f"{m}.{n}" for m, n in uncalled if n not in ALLOWED]
    assert not unexpected, f"public names with no caller in src/: {unexpected}"
    # an allowed name that gained a caller or was deleted leaves the list
    assert sorted(ALLOWED) == sorted(n for _, n in uncalled)


def test_every_allowed_name_is_read_by_perfbench():
    """An oracle that only tests call lives in tests/oracles.py, so ALLOWED
    holds only what the benchmark harness reads by name."""
    text = "\n".join(p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py")))
    for name in ALLOWED:
        attr = name.rsplit(".", 1)[-1]
        assert re.search(rf"\b{attr}\b", text), f"{name} is named nowhere in perfbench/*.py"


def _unreferenced_private() -> tuple:
    """The module-level functions, classes and constants whose names start
    with one underscore, and those of them that src/ names only inside their
    own statement, each as `module.name`."""
    statements = _statements()
    mentions = sum((names for *_, names in statements), collections.Counter())
    private, unused = [], []
    for module, node, _, names in statements:
        defined = _bound(node)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        for name in defined:
            if name.startswith("_") and not name.startswith("__"):
                private.append(f"{module}.{name}")
                if mentions[name] == names[name]:
                    unused.append(f"{module}.{name}")
    return private, unused


def test_every_private_module_level_name_is_used():
    """A private helper, class or constant that nothing in src/ names is
    dead code: tests may import it, but no recipe runs it."""
    private, unused = _unreferenced_private()
    assert private, "the guard found no private names to check"
    assert not unused, f"private names with no reference in src/: {unused}"


#: the (space, array) records that perfbench/tracer.py reads
RECORDS = ("Ket", "DensityOp", "LinearOp")
#: the modules that may name them: the records' own, the two kernels that
#: the tracer reads `.space` from, and the backend that hands the kernels
#: their records
RECORD_MODULES = ("fock", "evolution", "gates")


def test_states_are_arrays_outside_the_traced_layers():
    """A state or operator is a complex ndarray in every module the tracer
    does not read one from: no other module imports or names a record."""
    named = []
    for module, tree in _modules():
        if module not in RECORD_MODULES:
            names = _referenced(tree, _imported_modules(tree))
            named += [f"{module}: {r}" for r in RECORDS if names[r]]
    assert not named, f"records named outside {RECORD_MODULES}: {named}"


def _scopes(tree):
    """(label, node) of each top-level statement, a class's statements as
    `Class.name`: the unit a record may be built in."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                yield f"{node.name}.{getattr(item, 'name', '<body>')}", item
        else:
            yield getattr(node, "name", "<module>"), node


#: every src scope that builds a record: the two backend methods that hand
#: `evolve_pulse` a Ket and `lindblad_evolve` a DensityOp, each holding the
#: whole stack, and the operator product that the tracer's METHODS wraps
RECORD_BUILDERS = {"gates.PulseBackend.apply", "gates.PulseBackend.apply_density", "fock.LinearOp.__matmul__"}


def test_records_are_built_only_where_the_tracer_reads_them():
    """A record is only ever an argument the tracer reads: no other scope,
    the evolution kernels among them, builds one."""
    builders = {
        f"{module}.{label}"
        for module, tree in _modules()
        for label, node in _scopes(tree)
        if any(_built(node)[r] for r in RECORDS)
    }
    assert builders == RECORD_BUILDERS


def _functions(tree):
    """(label, node) of every function of the module, a method as `Class.name`."""
    for label, node in _scopes(tree):
        if isinstance(node, ast.FunctionDef):
            yield label, node


def test_no_src_function_returns_a_record():
    """Every kernel returns a plain array: no function but the wrapped
    operator product is annotated to return a record or returns one it builds."""
    returning = []
    for module, tree in _modules():
        modules = _imported_modules(tree)
        for label, node in _functions(tree):
            annotated = node.returns is not None and _referenced(node.returns, modules)
            built = collections.Counter()
            for n in ast.walk(node):
                if isinstance(n, ast.Return) and n.value is not None:
                    built += _built(n.value)
            if any((annotated and annotated[r]) or built[r] for r in RECORDS):
                returning.append(f"{module}.{label}")
    assert returning == ["fock.LinearOp.__matmul__"]


#: defaulted parameters kept although no src call passes them, each with the reason
ALLOWED_DEFAULTS = {
    "main(argv)": (
        "the console script calls main() without argv, while perfbench and the "
        "tests pass their argument lists"
    ),
}


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether the call passes the parameter `name`, the `position`-th of the
    callee's positional parameters (None for keyword-only ones)."""
    if any(k.arg in (name, None) for k in call.keywords):  # None: **kwargs
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def _defaulted(func: ast.FunctionDef, method: bool):
    """(name, position) of each defaulted parameter; position indexes the
    positional parameters a caller passes, so a method's self is not one."""
    args = func.args
    positional = args.posonlyargs + args.args
    if method:
        positional = positional[1:]
    out = [(a.arg, i) for i, a in enumerate(positional) if i >= len(positional) - len(args.defaults)]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Whether the class is decorated with `dataclass` or `dataclass(...)`."""
    return any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in node.decorator_list
    )


def _defaulted_fields(node: ast.ClassDef):
    """(name, position) of each field with a default of a dataclass: the
    annotated class attributes are the parameters of its `__init__`, in
    order, and `field(init=False)` leaves one out."""
    fields = []
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        value = item.value
        if (
            isinstance(value, ast.Call)
            and getattr(value.func, "id", None) == "field"
            and any(k.arg == "init" and getattr(k.value, "value", True) is False for k in value.keywords)
        ):
            continue
        fields.append((item.target.id, value is not None))
    return [(name, i) for i, (name, defaulted) in enumerate(fields) if defaulted]


def _unpassed_defaults() -> list:
    """The label `function(param)` or `Class.method(param)` of every
    defaulted parameter of a public function or method that no src call
    passes; calls match by the callee's name, as in `_uncalled`."""
    trees = [tree for _, tree in _modules()]
    calls = collections.defaultdict(list)
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
                calls[n.func.id if isinstance(n.func, ast.Name) else n.func.attr].append(n)
    targets = []  # (label, called name, defaulted (name, position) pairs)
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                if not _is_command(node):
                    targets.append((node.name, node.name, _defaulted(node, False)))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                if _is_dataclass(node):
                    targets.append((node.name, node.name, _defaulted_fields(node)))
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    if item.name == "__init__":
                        targets.append((node.name, node.name, _defaulted(item, True)))
                    elif not item.name.startswith("_"):
                        targets.append((f"{node.name}.{item.name}", item.name, _defaulted(item, True)))
    return [
        f"{label}({name})"
        for label, called, params in targets
        for name, position in params
        if not any(_passes(c, name, position) for c in calls[called])
    ]


def test_every_defaulted_parameter_is_passed_by_src():
    unpassed = _unpassed_defaults()
    unexpected = [p for p in unpassed if p not in ALLOWED_DEFAULTS]
    assert not unexpected, f"defaulted parameters that no src call passes: {unexpected}"
    # an allowed parameter that gained a caller or was deleted leaves the list
    assert sorted(ALLOWED_DEFAULTS) == sorted(unpassed)
