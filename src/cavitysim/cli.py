"""Command-line entry point: experiment dispatch and data export.

Each subcommand runs one experiment recipe and writes its tables as CSV
(explicit headers, 17-significant-digit floats), the full structured result
as JSON, and a ``manifest.json``: the command name, every option click
parsed except the path options --config, --matrix, --probs and --output
(with the truncation or step count a command filled in itself), and the
provenance, which records each input file by the sha256 of its text: the
device configuration of the recipes and of grape-optimize's binomial-encode
task, and readout-correct's --matrix and --probs.  Identical manifests
produce byte-identical data files at a fixed BLAS library and thread count,
which the manifest does not record.  The decoherent commands are the ones
seen to differ: zgate-repeat --mode pulse+decoherence writes different last
digits under one and under two OpenBLAS threads.  Only the seven recipe
commands and grape-optimize read device parameters, so only they take
--config; the pi-pulse task of grape-optimize refuses it.  Only
grape-optimize (its start pulse) and readout-correct (its --shots sampling)
draw random numbers, so only they take --seed.

Exit codes: 0 on success, 1 on validation/usage errors, 2 on numerical
failure.
"""

from __future__ import annotations

import hashlib
import json
import os

import click
import numpy as np
from click.core import ParameterSource

from cavitysim.codes import binomial_encoding, cat_encoding, logical_ket
from cavitysim.device import SystemLayout
from cavitysim.errors import NumericalError, ValidationError
from cavitysim.experiments import (
    load_config,
    run_bell_generation,
    run_error_budget,
    run_parity_sweep,
    run_qpt,
    run_snap_bell,
    run_zgate_repetition,
)
from cavitysim.fock import CompositeSpace, ModeSpec, fock_ket, qubit_ket, recommended_dim
from cavitysim.grape import TransferTask, binomial_encode_task, optimize
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
    text = json.dumps(obj, sort_keys=True, indent=2, default=_json_default)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _write_outputs(
    output_dir: str, tables: dict, result: dict, provenance=None, **resolved
) -> None:
    """Write each table as <name>.csv, `result` as result.json, and
    manifest.json.

    The manifest names the command and records the options click parsed,
    with `resolved` overlaying the values the command filled in itself.
    The path options stay out of it, so it does not depend on where the
    files sit: the provenance's hashes identify the input files."""
    ctx = click.get_current_context()
    paths = {p.name for p in ctx.command.params if isinstance(p.type, click.Path)}
    params = {k: v for k, v in ctx.params.items() if k not in paths}
    manifest = {"experiment": ctx.info_name, "parameters": {**params, **resolved}}
    if provenance is not None:
        manifest["provenance"] = provenance
    os.makedirs(output_dir, exist_ok=True)
    for name, table in tables.items():
        _write_csv(os.path.join(output_dir, f"{name}.csv"), table["columns"], table["rows"])
    _write_json(os.path.join(output_dir, "result.json"), result)
    _write_json(os.path.join(output_dir, "manifest.json"), manifest)


def _reject_given(name: str, reason: str) -> None:
    """Refuse the option whose destination is `name` if it was given on the
    command line, where it has no effect; `reason` completes "has no effect
    ..."."""
    ctx = click.get_current_context()
    if ctx.get_parameter_source(name) is ParameterSource.COMMANDLINE:
        flag = next(p.opts[0] for p in ctx.command.params if p.name == name)
        raise ValidationError(f"{flag} has no effect {reason}")


def _number(token: str) -> float | None:
    """The token as a float; None if it is not a number."""
    try:
        return float(token)
    except ValueError:
        return None


def _file_text(ctx, param, path: str | None) -> str | None:
    """The text of a file option's file; None if the option was not given."""
    if path is None:
        return None
    with open(path) as fh:
        return fh.read()


def _sha256(text: str | None) -> str | None:
    return None if text is None else hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Flags

_output_option = click.option(
    "--output",
    "-o",
    "output_dir",
    type=click.Path(file_okay=False),
    default="out",
    show_default=True,
    help="Directory receiving CSV/JSON outputs and manifest.json.",
)
# --config, --mode, --dim and --seed, declared only by the commands that use them
_config_option = click.option(
    "--config",
    "config_text",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    callback=_file_text,
    help="Device parameter file (defaults to the bundled values).",
)
_mode_option = click.option("--mode", type=click.Choice(_MODES), default="ideal", show_default=True)
_dim_option = click.option("--dim", type=int, default=None, help="Fock truncation override.")
_seed_option = click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)


@click.group()
def cli():
    """Truncated-Fock-space simulator of geometric phase gates on bosonic
    logical qubits."""


# ---------------------------------------------------------------------------
# Experiment subcommands


@cli.command("parity-sweep")
@_config_option
@_output_option
@_mode_option
@click.option("--delta", type=float, default=0.0, show_default=True)
@click.option(
    "--phis",
    type=str,
    default=None,
    help="Axis-offset sweep as start:stop:count (radians).",
)
@click.option("--alpha", type=float, default=None)
@click.option("--epsilon", type=float, default=None)
def cmd_parity_sweep(config_text, output_dir, mode, delta, phis, alpha, epsilon):
    """Cavity parity fringe versus phase-gate axis offset."""
    if mode == "ideal":
        _reject_given("epsilon", "in ideal mode")
    offsets = None
    if phis is not None:
        parts = phis.split(":")
        if len(parts) != 3:
            raise ValidationError("--phis expects start:stop:count")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            # checked here: linspace would warn on its way to NaN offsets
            if not np.isfinite([start, stop]).all():
                raise ValueError("start and stop must be finite")
            offsets = np.linspace(start, stop, count)
        except ValueError as exc:  # unparsable or non-finite numbers, or a negative count
            raise ValidationError(f"--phis {phis!r}: {exc}") from None
    result = run_parity_sweep(
        delta=delta,
        phis=offsets,
        mode=mode,
        alpha=alpha,
        epsilon=epsilon,
        config_text=config_text,
    )
    _write_outputs(output_dir, result.tables, result.to_json_dict(), result.provenance)


@cli.command("zgate-repeat")
@_config_option
@_output_option
@_mode_option
@click.option("--m-max", type=int, default=4, show_default=True)
@click.option("--alpha", type=float, default=2.0, show_default=True)
def cmd_zgate_repeat(config_text, output_dir, mode, m_max, alpha):
    """Process fidelity after m repeated phase gates, with a linear fit."""
    result = run_zgate_repetition(
        m_max=m_max, mode=mode, alpha=alpha, config_text=config_text
    )
    _write_outputs(output_dir, result.tables, result.to_json_dict(), result.provenance)


@cli.command("qpt")
@_config_option
@_output_option
@_mode_option
@click.option(
    "--gate",
    type=click.Choice(["z", "s", "t", "cz-coherent", "cz-binomial"]),
    default="cz-binomial",
    show_default=True,
)
@click.option("--alpha", type=float, default=float(np.sqrt(2.0)), show_default=True)
def cmd_qpt(config_text, output_dir, mode, gate, alpha):
    """Process tomography of one logical gate."""
    _qpt(config_text, output_dir, mode, gate, alpha)


@cli.command("cz")
@_config_option
@_output_option
@_mode_option
@click.option(
    "--encoding",
    type=click.Choice(["coherent", "binomial"]),
    default="binomial",
    show_default=True,
)
@click.option("--alpha", type=float, default=float(np.sqrt(2.0)), show_default=True)
def cmd_cz(config_text, output_dir, mode, encoding, alpha):
    """Two-cavity controlled-phase gate: the same as qpt --gate cz-ENCODING."""
    _qpt(config_text, output_dir, mode, f"cz-{encoding}", alpha)


def _qpt(config_text, output_dir, mode, gate, alpha):
    """The body of qpt and cz: tomography of `gate`, and gate_spec.json."""
    if gate == "cz-binomial":
        _reject_given("alpha", "on the binomial CZ")
    result = run_qpt(gate, mode=mode, alpha=alpha, config_text=config_text)
    _write_outputs(output_dir, result.tables, result.to_json_dict(), result.provenance)
    # the spec that was simulated: in pulse mode, the calibrated multitone pulse
    _write_json(
        os.path.join(output_dir, "gate_spec.json"), result.gate_spec.to_json_dict()
    )


@cli.command("bell")
@_config_option
@_output_option
@_mode_option
@click.option(
    "--encoding",
    type=click.Choice(["binomial", "cat"]),
    default="binomial",
    show_default=True,
)
@click.option("--alpha", type=float, default=1.2, show_default=True)
def cmd_bell(config_text, output_dir, mode, encoding, alpha):
    """Logical Bell state from |++> and the controlled-phase gate."""
    if encoding == "binomial":
        _reject_given("alpha", "on the binomial encoding")
    result = run_bell_generation(
        encoding, mode=mode, alpha=alpha, config_text=config_text
    )
    _write_outputs(output_dir, result.tables, result.to_json_dict(), result.provenance)


@cli.command("snap-bell")
@_config_option
@_output_option
@_mode_option
@_dim_option
@click.option(
    "--sign",
    type=click.Choice(["+1", "-1"]),
    default="+1",
    show_default=True,
    callback=lambda ctx, param, value: int(value),
)
def cmd_snap_bell(config_text, output_dir, mode, dim, sign):
    """Single-photon two-cavity Bell state via a conditional 2-pi rotation."""
    kwargs = {} if dim is None else {"dim": dim}
    result = run_snap_bell(sign, mode=mode, config_text=config_text, **kwargs)
    _write_outputs(output_dir, result.tables, result.to_json_dict(), result.provenance)


@cli.command("error-budget")
@_config_option
@_output_option
@click.option(
    "--gate", type=click.Choice(["z", "s", "t"]), default="z", show_default=True
)
@click.option("--alpha", type=float, default=float(np.sqrt(2.0)), show_default=True)
def cmd_error_budget(config_text, output_dir, gate, alpha):
    """Infidelity decomposition of a single-cavity phase gate by error source."""
    result = run_error_budget(gate, alpha=alpha, config_text=config_text)
    _write_outputs(output_dir, result.tables, result.to_json_dict(), result.provenance)


# ---------------------------------------------------------------------------
# Utility subcommands


@cli.command("wigner")
@_output_option
@_dim_option
@click.option(
    "--state",
    type=click.Choice(["cat", "binomial", "fock"]),
    default="cat",
    show_default=True,
)
@click.option("--alpha", type=float, default=2.0, show_default=True)
@click.option("--fock-n", type=click.IntRange(min=0), default=1, show_default=True)
@click.option("--extent", type=float, default=2.5, show_default=True)
@click.option("--points", type=int, default=41, show_default=True)
def cmd_wigner(output_dir, dim, state, alpha, fock_n, extent, points):
    """Wigner function of a reference cavity state on a phase-space grid."""
    if not (np.isfinite(extent) and extent > 0):
        raise ValidationError("--extent must be finite and > 0")
    if points < 2:
        raise ValidationError("--points must be at least 2")
    if state != "cat":
        _reject_given("alpha", f"on the {state} state")
    if state != "fock":
        _reject_given("fock_n", f"on the {state} state")
    # Wigner values are exact for the state as truncated: size the truncation to the state
    if state == "cat":
        dim = recommended_dim(2.0 * alpha) if dim is None else dim
        ket = logical_ket(cat_encoding(alpha, dim, variant="symmetric"), 1.0, 1.0)
    elif state == "binomial":
        dim = 7 if dim is None else dim
        ket = logical_ket(binomial_encoding(dim), 1.0, 1.0)
    else:
        dim = 2 * fock_n + 2 if dim is None else dim
        ket = fock_ket(ModeSpec.bosonic(dim), fock_n)
    axis = np.linspace(-extent, extent, points)
    values = wigner_grid(ket, CompositeSpace((ModeSpec.bosonic(dim),)), 0, axis, axis)
    rows = [(float(re), float(im), float(w)) for im, row in zip(axis, values) for re, w in zip(axis, row)]
    grid = {"re_axis": axis.tolist(), "im_axis": axis.tolist(), "values": values.tolist()}
    _write_outputs(output_dir, {"wigner": {"columns": ("re", "im", "w"), "rows": rows}}, grid, dim=dim)


@cli.command("grape-optimize")
@_config_option
@_output_option
@_seed_option
@_dim_option
@click.option(
    "--task",
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
    config_text,
    output_dir,
    seed,
    dim,
    task,
    steps,
    max_iters,
    target_fidelity,
):
    """Optimize a piecewise-constant control pulse for a transfer task."""
    if task == "pi-pulse":
        _reject_given("dim", "on the pi-pulse task, which has no cavity")
        # a lone qubit's static Hamiltonian is zero in the rotating frame,
        # whatever the device parameters
        _reject_given("config_text", "on the pi-pulse task, which reads no device parameters")
        if steps is None:
            steps = 60
        provenance = None
        layout = SystemLayout.build(["Q1"], [], {})
        transfer = TransferTask(
            pairs=((qubit_ket(0), qubit_ket(1)),),
            H0=np.zeros(2),
            layout=layout,
            channels=("Q1",),
            n_steps=steps,
        )
    else:
        if steps is None:
            steps = 500
        if dim is None:
            dim = 8
        params, config_hash = load_config(config_text)
        provenance = {"config_hash": config_hash}
        transfer = binomial_encode_task(params, dim, steps)
    amps, report = optimize(
        transfer, max_iters=max_iters, target_fidelity=target_fidelity, seed=seed
    )
    columns = ["step"]
    for label in transfer.channels:
        kind = "qubit" if transfer.layout.is_qubit(label) else "cavity"
        columns.extend([f"{label}_{kind}_re", f"{label}_{kind}_im"])
    rows = []
    for k in range(transfer.n_steps):
        row = [k]
        for u in amps[:, k]:
            row.extend([u.real, u.imag])
        rows.append(row)
    # wall time is excluded so identical runs produce identical files
    result = {
        "final_fidelity": report.final_fidelity,
        "iterations": report.iterations,
        "converged": report.converged,
        "message": report.message,
        "fidelity_history": list(report.fidelity_history),
        "gradient_norms": list(report.gradient_norms),
    }
    table = {"columns": columns, "rows": rows}
    _write_outputs(output_dir, {"pulse": table}, result, provenance, steps=steps, dim=dim)
    if not report.converged and report.final_fidelity < target_fidelity:
        click.echo(
            f"warning: stopped at fidelity {report.final_fidelity:.6f} "
            f"below target {target_fidelity}",
            err=True,
        )


@cli.command("readout-correct")
@_output_option
@_seed_option
@click.option(
    "--shots",
    type=int,
    default=None,
    help="Finite-shot sampling through the readout model.",
)
@click.option(
    "--matrix",
    "matrix_text",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    callback=_file_text,
    help="Assignment-matrix CSV (defaults to the bundled three-qubit table).",
)
@click.option(
    "--probs",
    "probs_text",
    type=click.Path(exists=True, dir_okay=False),
    required=True,
    callback=_file_text,
    help="Measured probability vector (floats, comma or newline separated; a leading line of labels is skipped).",
)
@click.option("--project", is_flag=True, help="Project the result onto the simplex.")
def cmd_readout_correct(output_dir, seed, shots, matrix_text, probs_text, project):
    """Invert the readout assignment matrix on a measured probability vector."""
    if shots is None:
        _reject_given("seed", "without --shots")
    assignment = default_assignment() if matrix_text is None else load_assignment_csv(matrix_text)
    lines = (line.replace(",", " ").split() for line in probs_text.splitlines())
    rows = [row for row in lines if row]
    if rows and all(_number(tok) is None for tok in rows[0]):
        rows = rows[1:]  # a leading line of labels is a header
    tokens = [tok for row in rows for tok in row]
    values = [_number(tok) for tok in tokens]
    if None in values:
        raise ValidationError(f"--probs entry {tokens[values.index(None)]!r} is not a number")
    p = np.asarray(values, dtype=float)
    if p.size != assignment.dim:
        raise ValidationError(
            f"probability vector has {p.size} entries, matrix expects {assignment.dim}"
        )
    if not 0 < p.sum() < np.inf:  # also false for NaN
        raise ValidationError("probabilities must be finite with a positive sum")
    p = p / p.sum()
    if shots is not None:
        counts = sample_assignment(p, assignment, shots=shots, seed=seed)
        p = counts / counts.sum()
    corrected = correct_readout(p, assignment, project=project)
    labels = assignment.outcome_labels()
    table = {"columns": ("outcome", "probability"), "rows": list(zip(labels, corrected))}
    result = {"outcomes": list(labels), "corrected": corrected.tolist()}
    provenance = {"matrix_hash": _sha256(matrix_text), "probs_hash": _sha256(probs_text)}
    _write_outputs(output_dir, {"corrected": table}, result, provenance)


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
