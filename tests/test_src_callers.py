"""Every public module-level function, class and constant of src/cavitysim,
and every public method of those classes, is named somewhere in src/ outside
its own definition.

A public name that only tests reach is code that no recipe, command or
benchmark runs: give it a caller or delete it together with its tests.  The
`sim` commands, which click registers by decorator, and the names in ALLOWED
are the exceptions.  The re-exports of `__init__.py` are no callers.  A
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
    "segment_propagator": "perfbench/tracer.py observes it for its dim_max probe",
    "transfer_gradient": "the gradient check of grape.optimize",
    "transfer_fidelity": "the fidelity that optimize's reported final_fidelity is held to",
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


def _uncalled() -> list:
    """(module, name) of every public definition that src/ names only inside
    it: a top-level one inside its own statement, a method inside its body;
    and of every public class that src/ never instantiates, raises or
    subclasses."""
    statements = []
    for path in sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"}):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            statements.append((path.stem, node, _referenced(node)))
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
