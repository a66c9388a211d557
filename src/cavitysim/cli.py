"""Command-line entry point: experiment dispatch and data export.

Each subcommand runs one experiment recipe and writes its tables as CSV
(explicit headers, 17-significant-digit floats), the full structured result
as JSON, and a ``manifest.json`` with the configuration hash, seed, and all
parameters needed to re-run the experiment exactly.  Identical manifests
produce byte-identical data files.

Exit codes: 0 on success, 1 on validation/usage errors, 2 on numerical
failure.
"""

from __future__ import annotations

import json
import os

import click
import numpy as np

from cavitysim.codes import binomial_encoding, cat_encoding, logical_ket
from cavitysim.device import (
    SystemLayout,
    default_config_text,
    load_params,
    static_hamiltonian,
)
from cavitysim.errors import NumericalError, ValidationError
from cavitysim.experiments import (
    ExperimentResult,
    run_bell_generation,
    run_error_budget,
    run_parity_sweep,
    run_qpt,
    run_snap_bell,
    run_zgate_repetition,
)
from cavitysim.fock import (
    Ket,
    fock_ket,
    qubit_ket,
    recommended_dim,
    tensor,
)
from cavitysim.grape import TransferTask, optimize
from cavitysim.readout import (
    correct_readout,
    default_assignment,
    load_assignment_csv,
    sample_assignment,
)
from cavitysim.tomography import wigner_grid

_MODES = ("ideal", "pulse", "pulse+decoherence")


# ---------------------------------------------------------------------------
# Output formatting


def _fmt(value) -> str:
    """Fixed 17-significant-digit text for floats; plain text otherwise."""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _write_csv(path: str, columns, rows) -> None:
    lines = [",".join(str(c) for c in columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, default=_json_default)
        fh.write("\n")


def _write_result(output_dir: str, result: ExperimentResult, manifest: dict) -> None:
    os.makedirs(output_dir, exist_ok=True)
    for name, table in result.tables.items():
        _write_csv(
            os.path.join(output_dir, f"{name}.csv"), table["columns"], table["rows"]
        )
    _write_json(os.path.join(output_dir, "result.json"), result.to_json_dict())
    _write_json(os.path.join(output_dir, "manifest.json"), manifest)


def _manifest(experiment: str, result: ExperimentResult | None, **params) -> dict:
    out = {"experiment": experiment, "parameters": params}
    if result is not None:
        out["provenance"] = result.provenance
    return out


def _read_config(config_path: str | None) -> str:
    if config_path is None:
        return default_config_text()
    with open(config_path) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# Common flags


def _common_options(f):
    opts = [
        click.option(
            "--config",
            "config_path",
            type=click.Path(exists=True, dir_okay=False),
            default=None,
            help="Device parameter file (defaults to the bundled values).",
        ),
        click.option(
            "--output",
            "-o",
            "output_dir",
            type=click.Path(file_okay=False),
            default="out",
            show_default=True,
            help="Directory receiving CSV/JSON outputs and manifest.json.",
        ),
        click.option("--seed", type=int, default=0, show_default=True),
        click.option(
            "--mode",
            type=click.Choice(_MODES),
            default="ideal",
            show_default=True,
        ),
        click.option(
            "--dim",
            type=int,
            default=None,
            help="Fock truncation override (where the experiment supports it).",
        ),
        click.option(
            "--shots",
            type=int,
            default=None,
            help="Finite-shot sampling through the readout model (where supported).",
        ),
    ]
    for opt in reversed(opts):
        f = opt(f)
    return f


def _reject_unsupported(**flags) -> None:
    for name, value in flags.items():
        if value is not None:
            raise ValidationError(
                f"--{name} is not supported by this subcommand"
            )


@click.group()
def cli():
    """Truncated-Fock-space simulator of geometric phase gates on bosonic
    logical qubits."""


# ---------------------------------------------------------------------------
# Experiment subcommands


@cli.command("parity-sweep")
@_common_options
@click.option("--delta", type=float, default=0.0, show_default=True)
@click.option(
    "--phis",
    "phis_spec",
    type=str,
    default=None,
    help="Axis-offset sweep as start:stop:count (radians).",
)
@click.option("--alpha", type=float, default=None)
@click.option("--epsilon", type=float, default=None)
def cmd_parity_sweep(
    config_path, output_dir, seed, mode, dim, shots, delta, phis_spec, alpha, epsilon
):
    """Cavity parity fringe versus phase-gate axis offset."""
    _reject_unsupported(dim=dim, shots=shots)
    phis = None
    if phis_spec is not None:
        parts = phis_spec.split(":")
        if len(parts) != 3:
            raise ValidationError("--phis expects start:stop:count")
        phis = np.linspace(float(parts[0]), float(parts[1]), int(parts[2]))
    config_text = _read_config(config_path)
    result = run_parity_sweep(
        delta=delta,
        phis=phis,
        mode=mode,
        alpha=alpha,
        epsilon=epsilon,
        config_text=config_text,
        seed=seed,
    )
    _write_result(
        output_dir,
        result,
        _manifest(
            "parity-sweep",
            result,
            delta=delta,
            phis=phis_spec,
            alpha=alpha,
            epsilon=epsilon,
            mode=mode,
            seed=seed,
        ),
    )


@cli.command("zgate-repeat")
@_common_options
@click.option("--m-max", type=int, default=4, show_default=True)
@click.option("--alpha", type=float, default=2.0, show_default=True)
def cmd_zgate_repeat(config_path, output_dir, seed, mode, dim, shots, m_max, alpha):
    """Process fidelity after m repeated phase gates, with a linear fit."""
    _reject_unsupported(dim=dim, shots=shots)
    config_text = _read_config(config_path)
    result = run_zgate_repetition(
        m_max=m_max, mode=mode, alpha=alpha, config_text=config_text, seed=seed
    )
    _write_result(
        output_dir,
        result,
        _manifest(
            "zgate-repeat", result, m_max=m_max, alpha=alpha, mode=mode, seed=seed
        ),
    )


@cli.command("qpt")
@_common_options
@click.option(
    "--gate",
    type=click.Choice(["z", "s", "t", "cz-coherent", "cz-binomial"]),
    default="cz-binomial",
    show_default=True,
)
@click.option("--alpha", type=float, default=float(np.sqrt(2.0)), show_default=True)
def cmd_qpt(config_path, output_dir, seed, mode, dim, shots, gate, alpha):
    """Process tomography of one logical gate."""
    _reject_unsupported(dim=dim, shots=shots)
    config_text = _read_config(config_path)
    result = run_qpt(gate, mode=mode, alpha=alpha, config_text=config_text, seed=seed)
    _write_result(
        output_dir,
        result,
        _manifest("qpt", result, gate=gate, alpha=alpha, mode=mode, seed=seed),
    )


@cli.command("cz")
@_common_options
@click.option(
    "--encoding",
    type=click.Choice(["coherent", "binomial"]),
    default="binomial",
    show_default=True,
)
@click.option("--alpha", type=float, default=float(np.sqrt(2.0)), show_default=True)
def cmd_cz(config_path, output_dir, seed, mode, dim, shots, encoding, alpha):
    """Two-cavity controlled-phase gate: tomography plus the gate recipe."""
    _reject_unsupported(dim=dim, shots=shots)
    config_text = _read_config(config_path)
    result = run_qpt(
        f"cz-{encoding}", mode=mode, alpha=alpha, config_text=config_text, seed=seed
    )
    _write_result(
        output_dir,
        result,
        _manifest("cz", result, encoding=encoding, alpha=alpha, mode=mode, seed=seed),
    )
    # the spec that was simulated: in pulse mode, the calibrated multitone pulse
    _write_json(
        os.path.join(output_dir, "gate_spec.json"), result.gate_spec.to_json_dict()
    )


@cli.command("bell")
@_common_options
@click.option(
    "--encoding",
    type=click.Choice(["binomial", "cat"]),
    default="binomial",
    show_default=True,
)
@click.option("--alpha", type=float, default=1.2, show_default=True)
def cmd_bell(config_path, output_dir, seed, mode, dim, shots, encoding, alpha):
    """Logical Bell state from |++> and the controlled-phase gate."""
    _reject_unsupported(dim=dim, shots=shots)
    config_text = _read_config(config_path)
    result = run_bell_generation(
        encoding, mode=mode, alpha=alpha, config_text=config_text, seed=seed
    )
    _write_result(
        output_dir,
        result,
        _manifest("bell", result, encoding=encoding, alpha=alpha, mode=mode, seed=seed),
    )


@cli.command("snap-bell")
@_common_options
@click.option("--sign", type=click.Choice(["+1", "-1"]), default="+1", show_default=True)
def cmd_snap_bell(config_path, output_dir, seed, mode, dim, shots, sign):
    """Single-photon two-cavity Bell state via a conditional 2-pi rotation."""
    _reject_unsupported(shots=shots)
    config_text = _read_config(config_path)
    kwargs = {} if dim is None else {"dim": dim}
    result = run_snap_bell(
        int(sign), mode=mode, config_text=config_text, seed=seed, **kwargs
    )
    _write_result(
        output_dir,
        result,
        _manifest("snap-bell", result, sign=int(sign), dim=dim, mode=mode, seed=seed),
    )


@cli.command("error-budget")
@_common_options
@click.option(
    "--gate", type=click.Choice(["z", "s", "t"]), default="z", show_default=True
)
@click.option("--alpha", type=float, default=float(np.sqrt(2.0)), show_default=True)
def cmd_error_budget(config_path, output_dir, seed, mode, dim, shots, gate, alpha):
    """Infidelity decomposition of a single-cavity phase gate by error source."""
    _reject_unsupported(dim=dim, shots=shots)
    if mode != "ideal":
        raise ValidationError("error-budget always simulates all layers; omit --mode")
    config_text = _read_config(config_path)
    result = run_error_budget(gate, alpha=alpha, config_text=config_text, seed=seed)
    _write_result(
        output_dir,
        result,
        _manifest("error-budget", result, gate=gate, alpha=alpha, seed=seed),
    )


# ---------------------------------------------------------------------------
# Utility subcommands


@cli.command("wigner")
@_common_options
@click.option(
    "--state",
    type=click.Choice(["cat", "binomial", "fock"]),
    default="cat",
    show_default=True,
)
@click.option("--alpha", type=float, default=2.0, show_default=True)
@click.option("--fock-n", type=int, default=1, show_default=True)
@click.option("--extent", type=float, default=2.5, show_default=True)
@click.option("--points", type=int, default=41, show_default=True)
def cmd_wigner(
    config_path, output_dir, seed, mode, dim, shots, state, alpha, fock_n, extent, points
):
    """Wigner function of a reference cavity state on a phase-space grid."""
    _reject_unsupported(shots=shots)
    if mode != "ideal":
        raise ValidationError("wigner renders ideal states; omit --mode")
    if dim is None:
        # the displaced-parity grid reaches |beta| = sqrt(2) * extent at the
        # corners; keep |beta|^2 <= dim/4 there to avoid truncation artifacts
        grid_dim = int(np.ceil(8.0 * extent**2)) + 1
        if state == "cat":
            dim = max(recommended_dim(2.0 * alpha), grid_dim)
        elif state == "binomial":
            dim = max(7, grid_dim)
        else:
            dim = max(2 * fock_n + 2, grid_dim)
    if state == "cat":
        enc = cat_encoding(alpha, dim, variant="symmetric")
        ket = logical_ket(enc, 1.0, 1.0)
    elif state == "binomial":
        enc = binomial_encoding(dim)
        ket = logical_ket(enc, 1.0, 1.0)
    else:
        enc = binomial_encoding(dim)  # only for the mode spec
        ket = fock_ket(enc.mode, fock_n)
    axis = np.linspace(-extent, extent, points)
    grid = wigner_grid(ket, 0, axis, axis)
    os.makedirs(output_dir, exist_ok=True)
    _write_csv(
        os.path.join(output_dir, "wigner.csv"),
        ("re", "im", "w"),
        grid.to_csv_rows(),
    )
    _write_json(os.path.join(output_dir, "result.json"), grid.to_json_dict())
    _write_json(
        os.path.join(output_dir, "manifest.json"),
        _manifest(
            "wigner",
            None,
            state=state,
            alpha=alpha,
            fock_n=fock_n,
            extent=extent,
            points=points,
            dim=dim,
            seed=seed,
        ),
    )


@cli.command("grape-optimize")
@_common_options
@click.option(
    "--task",
    "task_name",
    type=click.Choice(["pi-pulse", "binomial-encode"]),
    default="pi-pulse",
    show_default=True,
)
@click.option("--steps", type=int, default=None, help="Pulse steps (1 ns each).")
@click.option("--max-iters", type=int, default=400, show_default=True)
@click.option(
    "--target-fidelity", type=float, default=0.995, show_default=True
)
def cmd_grape_optimize(
    config_path,
    output_dir,
    seed,
    mode,
    dim,
    shots,
    task_name,
    steps,
    max_iters,
    target_fidelity,
):
    """Optimize a piecewise-constant control pulse for a transfer task."""
    _reject_unsupported(shots=shots)
    if mode != "ideal":
        raise ValidationError("grape-optimize works on the closed system; omit --mode")
    config_text = _read_config(config_path)
    params = load_params(config_text)
    if task_name == "pi-pulse":
        if steps is None:
            steps = 60
        layout = SystemLayout.build(["Q1"], [], {})
        h0 = static_hamiltonian(params, layout)
        task = TransferTask(
            pairs=((qubit_ket(0), qubit_ket(1)),),
            H0=h0,
            layout=layout,
            channels=(("Q1", "qubit"),),
            n_steps=steps,
        )
    else:
        if steps is None:
            steps = 500
        if dim is None:
            dim = 8
        layout = SystemLayout.build(["Q1"], ["S1"], {"S1": dim})
        h0 = static_hamiltonian(params, layout)
        enc = binomial_encoding(dim)
        g, e = qubit_ket(0), qubit_ket(1)
        vac = fock_ket(layout.mode("S1"), 0)

        def pair(c0, c1):
            init = Ket(
                layout.space,
                c0 * tensor([g, vac]).amplitudes + c1 * tensor([e, vac]).amplitudes,
            ).normalized()
            cav = logical_ket(enc, c0, c1)
            return (init, tensor([g, Ket(vac.space, cav.amplitudes)]))

        task = TransferTask(
            pairs=(pair(1.0, 0.0), pair(0.0, 1.0), pair(1.0, 1.0), pair(1.0, 1.0j)),
            H0=h0,
            layout=layout,
            channels=(("Q1", "qubit"), ("S1", "cavity")),
            n_steps=steps,
        )
    pulse, report = optimize(
        task, max_iters=max_iters, target_fidelity=target_fidelity, seed=seed
    )
    os.makedirs(output_dir, exist_ok=True)
    columns = ["step"]
    for label, kind in task.channels:
        columns.extend([f"{label}_{kind}_re", f"{label}_{kind}_im"])
    rows = []
    for k in range(task.n_steps):
        row = [k]
        for ch in task.channels:
            row.extend([pulse.channels[ch][k].real, pulse.channels[ch][k].imag])
        rows.append(row)
    _write_csv(os.path.join(output_dir, "pulse.csv"), columns, rows)
    # wall time is excluded so identical runs produce identical files
    _write_json(
        os.path.join(output_dir, "result.json"),
        {
            "final_fidelity": report.final_fidelity,
            "iterations": report.iterations,
            "converged": report.converged,
            "message": report.message,
            "fidelity_history": list(report.fidelity_history),
            "gradient_norms": list(report.gradient_norms),
        },
    )
    _write_json(
        os.path.join(output_dir, "manifest.json"),
        _manifest(
            "grape-optimize",
            None,
            task=task_name,
            steps=steps,
            dim=dim,
            max_iters=max_iters,
            target_fidelity=target_fidelity,
            seed=seed,
        ),
    )
    if not report.converged and report.final_fidelity < target_fidelity:
        click.echo(
            f"warning: stopped at fidelity {report.final_fidelity:.6f} "
            f"below target {target_fidelity}",
            err=True,
        )


@cli.command("readout-correct")
@_common_options
@click.option(
    "--matrix",
    "matrix_path",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="Assignment-matrix CSV (defaults to the bundled three-qubit table).",
)
@click.option(
    "--probs",
    "probs_path",
    type=click.Path(exists=True, dir_okay=False),
    required=True,
    help="Measured probability vector (floats, comma or newline separated).",
)
@click.option("--project", is_flag=True, help="Project the result onto the simplex.")
def cmd_readout_correct(
    config_path, output_dir, seed, mode, dim, shots, matrix_path, probs_path, project
):
    """Invert the readout assignment matrix on a measured probability vector."""
    _reject_unsupported(dim=dim)
    if mode != "ideal":
        raise ValidationError("readout correction is classical; omit --mode")
    if matrix_path is None:
        assignment = default_assignment()
    else:
        with open(matrix_path) as fh:
            assignment = load_assignment_csv(fh.read())
    with open(probs_path) as fh:
        tokens = fh.read().replace(",", " ").split()
    values = []
    for tok in tokens:
        try:
            values.append(float(tok))
        except ValueError:
            continue  # skip header labels
    p = np.asarray(values, dtype=float)
    if p.size != assignment.dim:
        raise ValidationError(
            f"probability vector has {p.size} entries, matrix expects {assignment.dim}"
        )
    p = p / p.sum()
    if shots is not None:
        counts = sample_assignment(p, assignment, shots=shots, seed=seed)
        p = counts / counts.sum()
    corrected = correct_readout(p, assignment, project=project)
    os.makedirs(output_dir, exist_ok=True)
    labels = assignment.outcome_labels()
    _write_csv(
        os.path.join(output_dir, "corrected.csv"),
        ("outcome", "probability"),
        list(zip(labels, corrected)),
    )
    _write_json(
        os.path.join(output_dir, "result.json"),
        {"outcomes": list(labels), "corrected": corrected.tolist()},
    )
    _write_json(
        os.path.join(output_dir, "manifest.json"),
        _manifest(
            "readout-correct",
            None,
            matrix=matrix_path,
            probs=probs_path,
            project=project,
            shots=shots,
            seed=seed,
        ),
    )


# ---------------------------------------------------------------------------
# Entry point


def main(argv=None) -> int:
    try:
        cli.main(args=argv, prog_name="sim", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        return 1
    except ValidationError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except (
        NumericalError,
        np.linalg.LinAlgError,
        FloatingPointError,
        ArithmeticError,
    ) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
