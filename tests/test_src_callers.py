"""Every public module-level function, class and constant of src/cavitysim,
and every public method of those classes, is named somewhere in src/ outside
its own definition.

A public name that only tests reach is code that no recipe, command or
benchmark runs: give it a caller or delete it together with its tests.  The
`sim` commands, which click registers by decorator, and the names in ALLOWED
are the exceptions.  Likewise every defaulted parameter of a public
function or method (a public class's `__init__` included, called by the
class name, and a public dataclass's fields with defaults, which are the
parameters of its generated `__init__`) is passed by some src call, by
position or by keyword: a default that src never overrides is an option only
tests reach.  The re-exports of `__init__.py` are no callers.  A
method is listed as Class.method; any mention of its name outside its own
body counts as a caller, so the check is by name only.  A class counts as
used only where src/ instantiates, raises or subclasses it, its own factory
methods included: an isinstance check, an annotation or a lookup table
builds nothing.
"""

import ast
import collections
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cavitysim"

#: public names kept without a caller in src/, each with the reason
ALLOWED = {
    "segment_propagator": (
        "perfbench/tracer.py observes it for its dim_max probe, and the tests' dense "
        "per-sample oracle is a product of it"
    ),
    "parity_op": "the fock, codes, gates and tomography tests use it as their parity oracle",
    "Ket.density": "the tomography and acceptance tests form density-matrix inputs from kets",
    "Ket.projector": "the device and gate tests build Fock-level projectors for their oracles",
    "DensityOp.validate": "the fock tests check that it rejects an unphysical density operator",
    "WignerGrid.integral": "the normalisation that the Wigner grid tests hold to 1",
    "TransferMatrix.check_physical": "the complete-positivity check the tomography tests apply",
    "AssignmentMatrix.inverse": "perfbench/workloads.py reads it for the readout error bars",
}


def _referenced(node) -> collections.Counter:
    """Identifiers the node names, with their counts: variables, attributes
    and imported names."""
    out = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
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


def _constants(node) -> list:
    """Public names that a module-level assignment binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("_")]


def _modules() -> list:
    """(module name, parsed module) of every src module but `__init__.py`."""
    return [
        (path.stem, ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"})
    ]


def _uncalled() -> list:
    """(module, name) of every public definition that src/ names only inside
    it: a top-level one inside its own statement, a method inside its body;
    and of every public class that src/ never instantiates, raises or
    subclasses."""
    statements = [
        (module, node, _referenced(node)) for module, tree in _modules() for node in tree.body
    ]
    mentions = sum((names for _, _, names in statements), collections.Counter())
    built = sum((_built(node) for _, node, _ in statements), collections.Counter())
    out = []
    for module, node, names in statements:
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
                    and mentions[item.name] == _referenced(item)[item.name]
                ):
                    out.append((module, f"{node.name}.{item.name}"))
    return out


def test_every_public_name_has_a_caller_in_src():
    uncalled = _uncalled()
    unexpected = [f"{m}.{n}" for m, n in uncalled if n not in ALLOWED]
    assert not unexpected, f"public names with no caller in src/: {unexpected}"
    # an allowed name that gained a caller or was deleted leaves the list
    assert sorted(ALLOWED) == sorted(n for _, n in uncalled)


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
