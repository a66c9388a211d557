"""Outside-in tracing of the cavitysim layers.

The tracer wraps the public functions of every cavitysim module, plus a few
methods, without touching the package's source.  ``from x import f`` copies
the binding into the importing module, so each wrapper is installed in every
``cavitysim.*`` namespace that holds the original function; methods are
patched on their class.  Each call records a span ``[name, start, end,
parent, invocation, outermost]``; spans are kept in memory and written out
when the pass ends.

Solver and warning counters come from outside as well: ``solve_ivp`` as bound in
``cavitysim.evolution`` (RK45 right-hand-side evaluations of the Lindblad
solver), ``scipy.optimize.least_squares``, which ``cz_binomial`` imports at
call time (LM function evaluations), and ``warnings.warn``.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import sys
import time
import warnings

MODULES = (
    "cli", "experiments", "gates", "evolution", "device",
    "fock", "codes", "tomography", "grape", "readout",
)

#: span name -> (module, class, attribute)
METHODS = {
    "gates.PulseBackend.apply": ("gates", "PulseBackend", "apply"),
    "gates.PulseBackend.apply_density": ("gates", "PulseBackend", "apply_density"),
    "gates.IdealBackend.apply": ("gates", "IdealBackend", "apply"),
    "fock.LinearOp.matmul": ("fock", "LinearOp", "__matmul__"),
    "device.SystemLayout.lift": ("device", "SystemLayout", "lift"),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.invocation = -1
        self.calls = collections.Counter()
        self.counts = collections.Counter()
        self.maxima = collections.Counter()
        self._stack: list = []
        self._depth = collections.Counter()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import cavitysim.cli  # noqa: F401  (imports every layer)

        self._observers = _observers()
        self.names = list(METHODS)
        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module(f"cavitysim.{short}")
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                    and not inspect.isgeneratorfunction(obj)
                ):
                    self.names.append(f"{short}.{name}")
                    wrappers[obj] = self._wrap(f"{short}.{name}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname == "cavitysim" or modname.startswith("cavitysim."):
                for name, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        setattr(mod, name, wrappers[obj])
        for span, (short, cls, attr) in METHODS.items():
            klass = getattr(sys.modules[f"cavitysim.{short}"], cls)
            setattr(klass, attr, self._wrap(span, vars(klass)[attr]))

        import cavitysim.evolution as evolution
        import scipy.optimize

        evolution.solve_ivp = self._solver(evolution.solve_ivp, "evolution.lindblad_evolve.rhs_evals")
        scipy.optimize.least_squares = self._solver(
            scipy.optimize.least_squares, "gates.cz_binomial.solver_nfev"
        )
        warnings.warn = self._counted_warn(warnings.warn)

    def _counted_warn(self, warn):
        """Count ``warnings.warn`` calls by the cavitysim module that makes them.

        The module making the call is the warning's source file; the
        filename a warning carries is set by ``stacklevel`` and often names
        the caller instead.
        """

        @functools.wraps(warn)
        def counted(message, category=None, stacklevel=1, *args, **kwargs):
            module = sys._getframe(1).f_globals.get("__name__", "")
            if module.startswith("cavitysim."):
                self.counts[f"{module.split('.', 1)[1]}.warnings"] += 1
            return warn(message, category, stacklevel + 1, *args, **kwargs)

        return counted

    def _wrap(self, name, fn):
        observe = self._observers.get(name)
        spans, stack, depth, calls = self.spans, self._stack, self._depth, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if observe is not None:
                args, kwargs = observe.before(self, fn, args, kwargs)
            sid = len(spans)
            outermost = depth[name] == 0
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            depth[name] += 1
            calls[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                depth[name] -= 1
                stack.pop()
                spans[sid] = [name, start, end, parent, self.invocation, outermost]
            if observe is not None:
                observe.after(self, result)
            return result

        return traced

    def _solver(self, fn, counter):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            residuals = self.calls["gates.joint_block_unitaries"]
            sol = fn(*args, **kwargs)
            self.counts[counter] += int(sol.nfev)
            if counter == "gates.cz_binomial.solver_nfev":
                self.counts["gates.cz_binomial.residual_evals"] += (
                    self.calls["gates.joint_block_unitaries"] - residuals
                )
            return sol

        return counted

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer values named ``<module>.<function>.<quantity>``.

        ``s`` is busy time: the summed duration of a function's outermost
        spans, so recursion is not counted twice.  A module's ``self_s`` is
        the summed duration of its spans minus the time their direct child
        spans cover.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _inv, _outer in self.spans:
            if parent >= 0:
                child[parent] += end - start
        busy = collections.Counter()
        self_s = {m: 0.0 for m in MODULES}
        module_calls = collections.Counter()
        for i, (name, start, end, _parent, _inv, outermost) in enumerate(self.spans):
            module = name.split(".", 1)[0]
            self_s[module] += end - start - child[i]
            module_calls[module] += 1
            if outermost:
                busy[name] += end - start

        out = {}
        for name in self.names:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = busy[name]
        for module in MODULES:
            out[f"{module}.self_s"] = self_s[module]
        out["codes.calls"] = module_calls["codes"]
        for module in MODULES:
            out[f"{module}.warnings"] = 0
        out.update(self.counts)
        out.update(self.maxima)

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        residuals = self.counts["gates.cz_binomial.residual_evals"]
        out["gates.cz_binomial.fd_share"] = ratio(
            residuals - self.counts["gates.cz_binomial.solver_nfev"], residuals
        )
        out["gates.joint_block_unitaries.ms_per_call"] = ratio(
            busy["gates.joint_block_unitaries"], self.calls["gates.joint_block_unitaries"], 1e3
        )
        out["evolution.evolve_pulse.ns_per_block_step"] = ratio(
            busy["evolution.evolve_pulse"], self.counts["evolution.evolve_pulse.block_steps"], 1e9
        )
        out["evolution.lindblad_evolve.us_per_rhs"] = ratio(
            busy["evolution.lindblad_evolve"], self.counts["evolution.lindblad_evolve.rhs_evals"], 1e6
        )
        out["tomography.wigner_grid.ms_per_point"] = ratio(
            busy["tomography.wigner_grid"], self.counts["tomography.wigner_grid.points"], 1e3
        )
        out["grape.optimize.s_per_iteration"] = ratio(
            busy["grape.optimize"], self.counts["grape.optimize.iterations"]
        )
        for key in (
            "gates.cz_binomial.residual_evals", "gates.cz_binomial.solver_nfev",
            "gates.cz_binomial.max_phase_err_rad",
            "evolution.evolve_pulse.steps", "evolution.evolve_pulse.block_steps",
            "evolution.lindblad_evolve.rhs_evals", "evolution.lindblad_evolve.dim_max",
            "evolution.segment_propagator.dim_max", "device.static_hamiltonian.dim_max",
            "fock.displacement.dim_max", "tomography.pauli_transfer.process_calls",
            "tomography.wigner_grid.points", "grape.optimize.iterations",
            "grape.optimize.final_fidelity",
        ):
            out.setdefault(key, 0)
        return out

    def seconds_per_span(self, calls: int = 20000, repeats: int = 5) -> float:
        """Time a wrapper adds to one call, measured on a no-op function.

        The best of a few repeats, because a shared machine only ever slows
        a loop down.
        """

        def noop():
            pass

        wrapped = self._wrap("trace.noop", noop)
        keep = len(self.spans)
        clock = time.perf_counter
        best = float("inf")
        for _ in range(repeats):
            t0 = clock()
            for _ in range(calls):
                noop()
            t1 = clock()
            for _ in range(calls):
                wrapped()
            t2 = clock()
            del self.spans[keep:]
            best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
        del self.calls["trace.noop"]
        return max(best, 0.0)

    def span_records(self) -> list:
        return [s for s in self.spans if s is not None]


# ---------------------------------------------------------------------------
# Work counters read from the arguments and results of single functions


class _Observer:
    def __init__(self, fn):
        self.sig = inspect.signature(fn)

    def arguments(self, args, kwargs):
        return self.sig.bind(*args, **kwargs).arguments

    def before(self, tracer, fn, args, kwargs):
        return args, kwargs

    def after(self, tracer, result):
        pass


class _DimMax(_Observer):
    def __init__(self, fn, metric, arg, dim):
        super().__init__(fn)
        self.metric, self.arg, self.dim = metric, arg, dim

    def before(self, tracer, fn, args, kwargs):
        value = self.dim(self.arguments(args, kwargs)[self.arg])
        tracer.maxima[self.metric] = max(tracer.maxima[self.metric], value)
        return args, kwargs


class _EvolvePulse(_Observer):
    def before(self, tracer, fn, args, kwargs):
        a = self.arguments(args, kwargs)
        steps = a["pulse"].n_steps
        tracer.counts["evolution.evolve_pulse.steps"] += steps
        # one 2x2 block per qubit pair of basis states: the work unit of the
        # blockwise kernel, and the normalisation used for the dense path too
        tracer.counts["evolution.evolve_pulse.block_steps"] += steps * (a["state"].space.dim // 2)
        return args, kwargs


class _WignerGrid(_Observer):
    def before(self, tracer, fn, args, kwargs):
        a = self.arguments(args, kwargs)
        tracer.counts["tomography.wigner_grid.points"] += len(a["re_axis"]) * len(a["im_axis"])
        return args, kwargs


class _PauliTransfer(_Observer):
    def before(self, tracer, fn, args, kwargs):
        bound = self.sig.bind(*args, **kwargs)
        process = bound.arguments["process"]

        def counted(rho):
            tracer.counts["tomography.pauli_transfer.process_calls"] += 1
            return process(rho)

        bound.arguments["process"] = counted
        return bound.args, bound.kwargs


class _CzBinomial(_Observer):
    def after(self, tracer, result):
        if isinstance(result, tuple):  # mode="pulse" returns (spec, phase errors)
            worst = max(abs(v) for v in result[1].values())
            key = "gates.cz_binomial.max_phase_err_rad"
            tracer.maxima[key] = max(tracer.maxima[key], worst)


class _Optimize(_Observer):
    def after(self, tracer, result):
        report = result[1]
        tracer.counts["grape.optimize.iterations"] += report.iterations
        tracer.counts["grape.optimize.final_fidelity"] = report.final_fidelity


def _observers() -> dict:
    from cavitysim import device, evolution, fock, gates, grape, tomography

    return {
        "evolution.evolve_pulse": _EvolvePulse(evolution.evolve_pulse),
        "evolution.lindblad_evolve": _DimMax(
            evolution.lindblad_evolve, "evolution.lindblad_evolve.dim_max", "rho", lambda r: r.space.dim
        ),
        "evolution.segment_propagator": _DimMax(
            evolution.segment_propagator, "evolution.segment_propagator.dim_max", "H", lambda h: h.space.dim
        ),
        "device.static_hamiltonian": _DimMax(
            device.static_hamiltonian, "device.static_hamiltonian.dim_max", "layout", lambda l: l.space.dim
        ),
        "fock.displacement": _DimMax(fock.displacement, "fock.displacement.dim_max", "spec", lambda s: s.dim),
        "tomography.wigner_grid": _WignerGrid(tomography.wigner_grid),
        "tomography.pauli_transfer": _PauliTransfer(tomography.pauli_transfer),
        "gates.cz_binomial": _CzBinomial(gates.cz_binomial),
        "grape.optimize": _Optimize(grape.optimize),
    }
