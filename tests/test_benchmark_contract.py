"""The names the benchmark harness reads from the package still exist.

`perfbench/tracer.py` wraps cavitysim functions and methods by name, binds
some of their parameters by name, and `BENCHMARK.json` lists per-layer
metrics named after them.  A deleted or renamed target makes a traced run
report "metrics not measured" or fail with a KeyError; these checks catch
that in the test suite instead.
"""

import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

import cavitysim.cli  # noqa: F401  imports every layer, as the tracer does

ROOT = Path(__file__).resolve().parents[1]


def _perfbench(name):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


TRACER = _perfbench("tracer")
_WORKLOADS_MODULE = _perfbench("workloads")
WORKLOADS = _WORKLOADS_MODULE.WORKLOADS
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: parameters the tracer's observers bind by name: span -> parameter names
OBSERVED_PARAMETERS = {
    "device.static_hamiltonian": ("layout",),
    "evolution.evolve_pulse": ("state", "pulse"),
    "evolution.segment_propagator": ("H",),
    "fock.displacement": ("spec",),
    "evolution.lindblad_evolve": ("rho",),
    "tomography.wigner_grid": ("re_axis", "im_axis"),
    "tomography.pauli_transfer": ("process",),
}


def _span_target(span):
    """The callable the tracer wraps for a span name, or None if it wraps none."""
    if span in TRACER.METHODS:
        short, cls, attr = TRACER.METHODS[span]
        klass = getattr(importlib.import_module(f"cavitysim.{short}"), cls, None)
        return None if klass is None else vars(klass).get(attr)
    short, _, name = span.partition(".")
    obj = getattr(importlib.import_module(f"cavitysim.{short}"), name, None)
    wrapped = (
        inspect.isfunction(obj)
        and obj.__module__ == f"cavitysim.{short}"
        and not name.startswith("_")
        and not inspect.isgeneratorfunction(obj)
    )
    return obj if wrapped else None


def _per_layer_spans():
    """Span names behind the per-layer metrics `<module>.<span...>.<quantity>`."""
    spans = set()
    for metric in BENCHMARK["per_layer"]:
        parts = metric["name"].split(".")
        if parts[0] in TRACER.MODULES and len(parts) >= 3:
            spans.add(".".join(parts[:-1]))
    return sorted(spans)


def _required_spans():
    return sorted({span for w in WORKLOADS.values() for span in w.required})


@pytest.mark.parametrize("span", _per_layer_spans())
def test_per_layer_metric_targets_exist(span):
    assert _span_target(span) is not None, f"{span} is not a traced cavitysim callable"


@pytest.mark.parametrize("span", _required_spans())
def test_workload_required_spans_exist(span):
    assert _span_target(span) is not None, f"{span} is not a traced cavitysim callable"


@pytest.mark.parametrize("span", sorted(OBSERVED_PARAMETERS))
def test_observed_parameter_names(span):
    params = inspect.signature(_span_target(span)).parameters
    for name in OBSERVED_PARAMETERS[span]:
        assert name in params, f"{span} has no parameter {name!r}"


def test_lift_is_a_class_attribute():
    from cavitysim.device import SystemLayout

    assert "lift" in vars(SystemLayout)


def test_patched_solver_name_exists():
    """The tracer replaces `solve_ivp` as bound in cavitysim.evolution."""
    import cavitysim.evolution

    assert hasattr(cavitysim.evolution, "solve_ivp")


def test_cz_calibration_reaches_the_patched_least_squares(monkeypatch):
    """The `cz-calibration` workload caps the tone calibration by replacing
    `scipy.optimize.least_squares` and lowering its `max_nfev` keyword.  That
    only works while `cz_binomial` looks the name up at call time and passes
    `max_nfev` by keyword; an uncapped calibration overruns the run limit.

    The calibration also passes its exact Jacobian, read with its residual
    from one scan per point, so the blocks of `joint_block_unitaries` are
    evaluated only for the final phases: a return to finite differences over
    them would still calibrate, at 27 extra evaluations per Jacobian.  The
    traced workload requires a span of `joint_block_unitaries`, so that one
    evaluation must stay."""
    import scipy.optimize

    import cavitysim.gates as gates
    from cavitysim.device import SystemLayout, load_params
    from cavitysim.gates import PulseBackend, cz_binomial

    budget = _WORKLOADS_MODULE.CZ_LM_BUDGET
    original = scipy.optimize.least_squares
    calls, solutions, block_evaluations = [], [], []

    def capped(*args, **kwargs):
        calls.append(dict(kwargs))
        kwargs["max_nfev"] = min(kwargs.get("max_nfev") or budget, budget)
        solutions.append(original(*args, **kwargs))
        return solutions[-1]

    blocks = gates.joint_block_unitaries

    def counted(*args, **kwargs):
        block_evaluations.append(1)
        return blocks(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "least_squares", capped)
    monkeypatch.setattr(gates, "joint_block_unitaries", counted)
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 7, "S2": 7})
    cz_binomial(PulseBackend(load_params(), layout))
    assert len(calls) == 1
    assert "max_nfev" in calls[0]
    assert callable(calls[0].get("jac"))
    assert "diff_step" not in calls[0]
    assert 1 <= len(block_evaluations) <= solutions[0].nfev + 1
    assert "gates.joint_block_unitaries" in WORKLOADS["cz-calibration"].required


def test_error_budget_reaches_the_open_system_spans(monkeypatch):
    """The traced `open-system` workload requires spans of
    `PulseBackend.apply_density` and `evolution.lindblad_evolve`, and the
    tracer reads `rho.space.dim` from the latter.  `run_error_budget("z")`
    must still call both, with a DensityOp bound to `rho`, or a traced run
    fails where this test would have."""
    import cavitysim.evolution as evolution
    import cavitysim.gates as gates
    from cavitysim.experiments import run_error_budget
    from cavitysim.fock import DensityOp

    required = WORKLOADS["open-system"].required
    assert "gates.PulseBackend.apply_density" in required
    assert "evolution.lindblad_evolve" in required
    seen = {"apply_density": 0, "lindblad_evolve": []}

    apply_density = gates.PulseBackend.apply_density

    def counted_apply_density(*args, **kwargs):
        seen["apply_density"] += 1
        return apply_density(*args, **kwargs)

    evolve = evolution.lindblad_evolve
    signature = inspect.signature(evolve)

    def observed_evolve(*args, **kwargs):
        seen["lindblad_evolve"].append(signature.bind(*args, **kwargs).arguments["rho"])
        return evolve(*args, **kwargs)

    monkeypatch.setattr(gates.PulseBackend, "apply_density", counted_apply_density)
    # installed under every name bound to it, as the tracer installs its wrappers
    for modname, module in list(sys.modules.items()):
        if modname == "cavitysim" or modname.startswith("cavitysim."):
            for name, obj in list(vars(module).items()):
                if obj is evolve:
                    monkeypatch.setattr(module, name, observed_evolve)
    run_error_budget("z")
    assert seen["apply_density"] > 0
    assert seen["lindblad_evolve"]
    assert all(isinstance(rho, DensityOp) for rho in seen["lindblad_evolve"])


def test_pulse_recipes_hand_evolve_pulse_a_ket(monkeypatch):
    """The tracer reads `state.space.dim` from `evolution.evolve_pulse`, on
    `gate-recipes`, `open-system` and `cz-calibration`.  The pulse backend
    pushes a stack of states, and must hand `evolve_pulse` the whole stack
    as one Ket on its layout's space, or every traced run fails with an
    AttributeError where this test would have."""
    import cavitysim.evolution as evolution
    from cavitysim.experiments import run_qpt, run_zgate_repetition
    from cavitysim.fock import Ket

    evolve = evolution.evolve_pulse
    signature = inspect.signature(evolve)
    seen = []

    def observed_evolve(*args, **kwargs):
        a = signature.bind(*args, **kwargs).arguments
        seen.append((a["state"], a["layout"]))
        return evolve(*args, **kwargs)

    # installed under every name bound to it, as the tracer installs its wrappers
    for modname, module in list(sys.modules.items()):
        if modname == "cavitysim" or modname.startswith("cavitysim."):
            for name, obj in list(vars(module).items()):
                if obj is evolve:
                    monkeypatch.setattr(module, name, observed_evolve)
    run_qpt("z", mode="pulse")
    run_zgate_repetition(mode="pulse")
    assert seen
    assert all(isinstance(state, Ket) and state.space == layout.space for state, layout in seen)
