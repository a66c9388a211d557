"""Every public module-level function and class of src/cavitysim is named
somewhere in src/ outside its own definition.

A public name that only tests reach is code that no recipe, command or
benchmark runs: give it a caller or delete it together with its tests.  The
`sim` commands, which click registers by decorator, and the names in ALLOWED
are the exceptions.
"""

import ast
import collections
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cavitysim"

#: public names kept without a caller in src/, each with the reason
ALLOWED = {
    "segment_propagator": "perfbench/tracer.py observes it for its dim_max probe",
    "kerr_corrected_decoder": "test_acceptance's encode-Kerr-decode round trip checks it",
    "transfer_gradient": "the gradient check of grape.optimize",
    "transfer_fidelity": "the fidelity that optimize's reported final_fidelity is held to",
}


def _referenced(node) -> set:
    """Identifiers the node names: variables, attributes and imported names."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add((n.asname or n.name).rsplit(".", 1)[-1])
    return out


def _is_command(node) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr == "command"
        for d in node.decorator_list
    )


def _uncalled() -> list:
    """(module, name) of every public definition no other top-level statement names."""
    statements = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            statements.append((path.stem, node, _referenced(node)))
    mentions = collections.Counter(name for _, _, names in statements for name in names)
    out = []
    for module, node, names in statements:
        if (
            isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and not _is_command(node)
            and mentions[node.name] - (node.name in names) == 0
        ):
            out.append((module, node.name))
    return out


def test_every_public_name_has_a_caller_in_src():
    uncalled = _uncalled()
    unexpected = [f"{m}.{n}" for m, n in uncalled if n not in ALLOWED]
    assert not unexpected, f"public names with no caller in src/: {unexpected}"
    # an allowed name that gained a caller or was deleted leaves the list
    assert sorted(ALLOWED) == sorted(n for _, n in uncalled)
