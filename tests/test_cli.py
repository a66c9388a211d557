import csv
import json
import os

import numpy as np
import pytest

import cavitysim.cli as cli
from cavitysim.cli import main
from cavitysim.errors import NumericalError
from cavitysim.readout import default_assignment


def _read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _dir_bytes(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_parity_sweep_csv_matches_cos_law(tmp_path):
    out = tmp_path / "run"
    code = main(
        ["parity-sweep", "--mode", "ideal", "--phis", "0:6.283:16", "-o", str(out)]
    )
    assert code == 0
    header, rows = _read_csv(out / "parity.csv")
    assert header == ["phi", "parity", "cos_law"]
    assert len(rows) == 16
    for phi_s, parity_s, _ in rows:
        assert abs(float(parity_s) - np.cos(np.pi + float(phi_s))) < 1e-6
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "parity-sweep"
    assert len(manifest["provenance"]["config_hash"]) == 64
    assert manifest["provenance"]["seed"] == 0


def test_qpt_ideal_writes_unit_fidelity(tmp_path):
    out = tmp_path / "run"
    code = main(["qpt", "--gate", "cz-binomial", "--mode", "ideal", "-o", str(out)])
    assert code == 0
    result = json.loads((out / "result.json").read_text())
    assert result["summary"]["process_fidelity"]["value"] >= 1.0 - 1e-8
    header, rows = _read_csv(out / "ptm.csv")
    assert header == ["row", "column", "value"]
    assert len(rows) == 16 * 16


def test_readout_correct_inversion_identity(tmp_path):
    R = default_assignment()
    p_path = tmp_path / "p.csv"
    p_path.write_text("\n".join(f"{v:.17g}" for v in R.R[:, 0]))
    out = tmp_path / "run"
    code = main(["readout-correct", "--probs", str(p_path), "-o", str(out)])
    assert code == 0
    header, rows = _read_csv(out / "corrected.csv")
    assert header == ["outcome", "probability"]
    vec = np.array([float(v) for _, v in rows])
    assert np.abs(vec - np.eye(8)[0]).max() < 1e-9
    assert rows[0][0] == "000"


def test_readout_correct_sampled_is_seeded(tmp_path):
    p_path = tmp_path / "p.csv"
    p_path.write_text("\n".join(["0.5", "0.5"] + ["0.0"] * 6))
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        code = main(
            [
                "readout-correct",
                "--probs",
                str(p_path),
                "--shots",
                "1000",
                "--seed",
                "3",
                "-o",
                str(out),
            ]
        )
        assert code == 0
    assert _dir_bytes(a) == _dir_bytes(b)


def test_identical_manifests_byte_identical_outputs(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    args = ["parity-sweep", "--mode", "ideal", "--phis", "0:6.283:8"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert _dir_bytes(a) == _dir_bytes(b)


def test_csv_floats_round_trip_exactly(tmp_path):
    out = tmp_path / "run"
    assert main(["parity-sweep", "--phis", "0:6.283:4", "-o", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    _, rows = _read_csv(out / "parity.csv")
    for (phi_s, parity_s, _), row in zip(rows, result["tables"]["parity"]["rows"]):
        # 17 significant digits preserve the double exactly
        assert float(phi_s) == row[0]
        assert float(parity_s) == row[1]


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    assert "Usage" in capsys.readouterr().err


def test_unknown_flag_exits_1(capsys):
    assert main(["qpt", "--bogus", "3"]) == 1
    assert "Usage" in capsys.readouterr().err


def test_unsupported_override_rejected(tmp_path, capsys):
    assert main(["parity-sweep", "--dim", "12", "-o", str(tmp_path / "x")]) == 1
    assert "--dim" in capsys.readouterr().err


def test_qpt_and_cz_reject_decoherence_mode(tmp_path, capsys):
    for args in (["qpt", "--gate", "z"], ["cz", "--encoding", "coherent"]):
        out = tmp_path / args[0]
        assert main(args + ["--mode", "pulse+decoherence", "-o", str(out)]) == 1
        assert "unsupported mode" in capsys.readouterr().err
        assert not (out / "result.json").exists()


def test_numerical_error_exits_2(tmp_path, monkeypatch, capsys):
    def failing_budget(*args, **kwargs):
        raise NumericalError("Lindblad trace drift 1.00e+00 exceeds 1e-6")

    monkeypatch.setattr(cli, "run_error_budget", failing_budget)
    assert main(["error-budget", "--gate", "z", "-o", str(tmp_path / "eb")]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_zero_coherence_time_in_config_exits_1(tmp_path, capsys):
    from cavitysim.device import default_config_text

    text = default_config_text()
    # T1 = T2 = 0 passes the T2 <= 2 T1 check; the decay rates would be 1/0
    text = text.replace("[T1_us]\nS1 = 480", "[T1_us]\nS1 = 0")
    text = text.replace("[T2_us]\nS1 = 559", "[T2_us]\nS1 = 0")
    cfg = tmp_path / "device.cfg"
    cfg.write_text(text)
    out = tmp_path / "eb"
    assert main(["error-budget", "--config", str(cfg), "-o", str(out)]) == 1
    assert "T1 must be positive" in capsys.readouterr().err
    assert not (out / "result.json").exists()


def test_bad_phis_spec_rejected(tmp_path):
    assert main(["parity-sweep", "--phis", "0:1", "-o", str(tmp_path / "x")]) == 1


def test_wigner_grid_output(tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "wigner",
            "--state",
            "fock",
            "--fock-n",
            "0",
            "--extent",
            "1.5",
            "--points",
            "9",
            "-o",
            str(out),
        ]
    )
    assert code == 0
    header, rows = _read_csv(out / "wigner.csv")
    assert header == ["re", "im", "w"]
    assert len(rows) == 81
    # vacuum Wigner peaks at 2/pi at the origin
    at_origin = [float(w) for re, im, w in rows if float(re) == 0 and float(im) == 0]
    assert at_origin[0] == pytest.approx(2.0 / np.pi, abs=1e-9)


def test_grape_optimize_pi_pulse(tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "grape-optimize",
            "--task",
            "pi-pulse",
            "--max-iters",
            "150",
            "--target-fidelity",
            "0.9999",
            "-o",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads((out / "result.json").read_text())
    assert report["final_fidelity"] >= 0.9999
    assert "wall_time" not in report  # excluded for reproducible outputs
    header, rows = _read_csv(out / "pulse.csv")
    assert header == ["step", "Q1_qubit_re", "Q1_qubit_im"]
    assert len(rows) == 60


def test_snap_bell_and_error_budget_commands(tmp_path):
    out1 = tmp_path / "sb"
    assert main(["snap-bell", "--sign", "-1", "-o", str(out1)]) == 0
    result = json.loads((out1 / "result.json").read_text())
    assert result["summary"]["bell_fidelity"]["value"] >= 0.95
    out2 = tmp_path / "eb"
    assert main(["error-budget", "--gate", "z", "-o", str(out2)]) == 0
    result = json.loads((out2 / "result.json").read_text())
    rows = {r[0]: r[1] for r in result["tables"]["budget"]["rows"]}
    assert "total" in rows


def test_cz_writes_gate_spec(tmp_path):
    out = tmp_path / "run"
    assert main(["cz", "--encoding", "coherent", "--mode", "ideal", "-o", str(out)]) == 0
    spec = json.loads((out / "gate_spec.json").read_text())
    assert spec["steps"]
    kinds = {s["type"] for s in spec["steps"]}
    assert "conditional_rotation" in kinds


def test_cz_binomial_pulse_writes_simulated_spec(tmp_path, monkeypatch):
    """gate_spec.json holds the multitone pulse run_qpt simulated, not the
    ideal rotations (the calibration is skipped to keep the test fast)."""
    import cavitysim.experiments as experiments
    from cavitysim.gates import GateSpec

    simulated = []

    def uncalibrated(*args, **kwargs):
        out = original(*args, **{**kwargs, "calibrate": False})
        simulated.append(out[0])
        return out

    original = experiments.cz_binomial
    monkeypatch.setattr(experiments, "cz_binomial", uncalibrated)
    out = tmp_path / "run"
    assert main(["cz", "--encoding", "binomial", "--mode", "pulse", "-o", str(out)]) == 0
    spec = json.loads((out / "gate_spec.json").read_text())
    assert "multitone_pulse" in {s["type"] for s in spec["steps"]}
    assert simulated and GateSpec.from_json_dict(spec) == simulated[-1]


def test_config_flag_round_trip(tmp_path):
    from cavitysim.device import default_config_text

    cfg = tmp_path / "device.cfg"
    cfg.write_text(default_config_text())
    out = tmp_path / "run"
    code = main(
        [
            "parity-sweep",
            "--config",
            str(cfg),
            "--phis",
            "0:6.283:4",
            "-o",
            str(out),
        ]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    default_out = tmp_path / "run2"
    assert main(["parity-sweep", "--phis", "0:6.283:4", "-o", str(default_out)]) == 0
    manifest2 = json.loads((default_out / "manifest.json").read_text())
    assert manifest["provenance"]["config_hash"] == manifest2["provenance"]["config_hash"]
