import csv
import hashlib
import json
import os

import click
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
    assert "seed" not in manifest["provenance"]  # the recipes draw no random numbers


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


@pytest.mark.parametrize(
    "probs", ["0,0,0,0,0,0,0,0", "0.5,nan,0.5,0,0,0,0,0"], ids=["zero-sum", "nan"]
)
def test_readout_correct_rejects_unnormalisable_probs(tmp_path, capsys, probs):
    """An all-zero or NaN-containing vector exits 1, not 0 with a CSV of nan."""
    p_path = tmp_path / "p.csv"
    p_path.write_text(probs)
    out = tmp_path / "run"
    assert main(["readout-correct", "--probs", str(p_path), "-o", str(out)]) == 1
    assert "finite" in capsys.readouterr().err
    assert not (out / "result.json").exists()


@pytest.mark.parametrize(
    "probs, bad",
    [
        ("0.5,0.5O,0,0,0,0,0,0,0.5", "0.5O"),
        ("p\n0.5\n0.5\nx\n0\n0\n0\n0\n0\n", "x"),
        ("p,0.5,0.5,0,0,0,0,0,0\n", "p"),
    ],
    ids=["typo", "label-after-header", "label-in-leading-data-line"],
)
def test_readout_correct_refuses_non_numeric_probs(tmp_path, capsys, probs, bad):
    """A token that is not a number exits 1 and is named, unless it belongs
    to a leading line in which no token is a number; the typo used to be
    dropped, and the other 8 values corrected."""
    p_path = tmp_path / "p.csv"
    p_path.write_text(probs)
    out = tmp_path / "run"
    assert main(["readout-correct", "--probs", str(p_path), "-o", str(out)]) == 1
    assert repr(bad) in capsys.readouterr().err
    assert not out.exists()


def test_readout_correct_refuses_probs_of_the_wrong_length(tmp_path, capsys):
    """Four probabilities for the bundled three-qubit matrix exit 1 with one
    error line that names both lengths, and nothing is written."""
    p_path = tmp_path / "p.csv"
    p_path.write_text("0.25,0.25,0.25,0.25")
    out = tmp_path / "run"
    assert main(["readout-correct", "--probs", str(p_path), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "has 4 entries" in err and "expects 8" in err
    assert not out.exists()


def test_readout_correct_skips_a_leading_header_line(tmp_path):
    values = "0.3,0.1,0.1,0.1,0.1,0.1,0.1,0.1\n"
    outputs = []
    for name, text in [("plain", values), ("header", "p000,p001,p010,p011,p100,p101,p110,p111\n" + values)]:
        p_path = tmp_path / f"{name}.csv"
        p_path.write_text(text)
        out = tmp_path / name
        assert main(["readout-correct", "--probs", str(p_path), "-o", str(out)]) == 0
        outputs.append((out / "corrected.csv").read_bytes())
    assert outputs[0] == outputs[1]


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
    """The commands that do not simulate decoherence refuse it, say so and
    name the two that do, and write no output directory."""
    for args in (
        ["qpt", "--gate", "z"],
        ["cz", "--encoding", "coherent"],
        ["bell", "--encoding", "binomial"],
        ["parity-sweep"],
        ["snap-bell"],
    ):
        out = tmp_path / args[0]
        assert main(args + ["--mode", "pulse+decoherence", "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert "unsupported mode" in err and "does not simulate decoherence" in err, args
        assert "error-budget" in err and "zgate-repeat --mode pulse+decoherence" in err, args
        assert not out.exists()


def test_error_budget_rejects_mode_flag(tmp_path, capsys):
    """error-budget always simulates every layer, so it declares no --mode:
    an ideal-mode request must not write a pulse+decoherence budget."""
    out = tmp_path / "eb"
    assert main(["error-budget", "--mode", "ideal", "-o", str(out)]) == 1
    assert "--mode" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, flag",
    [
        (["qpt", "--gate", "cz-binomial", "--alpha", "3"], "--alpha"),
        (["cz", "--encoding", "binomial", "--alpha", "3"], "--alpha"),
        (["bell", "--encoding", "binomial", "--alpha", "3"], "--alpha"),
        (["wigner", "--state", "binomial", "--alpha", "3"], "--alpha"),
        (["wigner", "--state", "fock", "--alpha", "3"], "--alpha"),
        (["wigner", "--state", "cat", "--fock-n", "2"], "--fock-n"),
        (["wigner", "--state", "binomial", "--fock-n", "2"], "--fock-n"),
        (["parity-sweep", "--mode", "ideal", "--epsilon", "0.001"], "--epsilon"),
    ],
    ids=[
        "qpt", "cz", "bell", "wigner-binomial-alpha", "wigner-fock-alpha", "wigner-cat-fock-n",
        "wigner-binomial-fock-n", "parity-sweep-ideal-epsilon",
    ],
)
def test_flags_without_effect_are_rejected(tmp_path, capsys, args, flag):
    """A flag given on the command line that the chosen gate, encoding or
    state does not use is refused, not recorded in the manifest as if it had
    been applied; its default stays silent."""
    out = tmp_path / "run"
    assert main(args + ["-o", str(out)]) == 1
    assert f"{flag} has no effect" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    ["parity-sweep", "zgate-repeat", "qpt", "cz", "bell", "snap-bell", "error-budget", "wigner"],
)
def test_seed_is_refused_where_nothing_is_random(tmp_path, capsys, command):
    """Only grape-optimize and readout-correct draw random numbers."""
    out = tmp_path / "run"
    assert main([command, "--seed", "1", "-o", str(out)]) == 1
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_readout_correct_rejects_seed_without_shots(tmp_path, capsys):
    p_path = tmp_path / "p.csv"
    p_path.write_text("\n".join(["0.5", "0.5"] + ["0.0"] * 6))
    out = tmp_path / "run"
    assert main(["readout-correct", "--probs", str(p_path), "--seed", "3", "-o", str(out)]) == 1
    assert "--seed has no effect without --shots" in capsys.readouterr().err
    assert not out.exists()


def test_grape_pi_pulse_rejects_dim(tmp_path, capsys):
    """The pi-pulse task has no cavity, so a --dim would be recorded in the
    manifest without being used."""
    out = tmp_path / "gp"
    assert main(["grape-optimize", "--task", "pi-pulse", "--dim", "5", "-o", str(out)]) == 1
    assert "--dim" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["wigner", "--points", "5"],
        ["readout-correct", "--probs", "p.csv"],
        ["grape-optimize", "--task", "pi-pulse", "--max-iters", "0"],
    ],
    ids=["wigner", "readout-correct", "grape-pi-pulse"],
)
def test_config_is_refused_where_no_device_parameter_is_read(tmp_path, monkeypatch, capsys, args):
    """wigner and readout-correct never read device parameters, and the
    pi-pulse task's lone qubit has a zero static Hamiltonian whatever the
    file says: a --config there would be accepted without effect."""
    from cavitysim.device import default_config_text

    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.csv").write_text("\n".join(["0.5", "0.5"] + ["0.0"] * 6))
    (tmp_path / "device.cfg").write_text(default_config_text())
    assert main(args + ["--config", "device.cfg", "-o", "run"]) == 1
    assert "--config" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_grape_binomial_encode_reads_config(tmp_path):
    from cavitysim.device import default_config_text

    cfg = tmp_path / "device.cfg"
    cfg.write_text(default_config_text())
    args = ["grape-optimize", "--task", "binomial-encode", "--steps", "40", "--max-iters", "0"]
    assert main(args + ["--config", str(cfg), "-o", str(tmp_path / "a")]) == 0
    assert main(args + ["-o", str(tmp_path / "b")]) == 0
    assert _dir_bytes(tmp_path / "a") == _dir_bytes(tmp_path / "b")


def test_grape_binomial_encode_manifest_records_the_config_hash(tmp_path):
    """A config that changes the pulse changes the manifest: its provenance
    holds the sha256 of the config text, the hash the recipes record, and
    the bundled parameters hash as their text."""
    from cavitysim.device import default_config_text

    text = default_config_text()
    cfg = tmp_path / "device.cfg"
    cfg.write_text(text.replace("S1_Q1 = 1.599", "S1_Q1 = 1.2"))
    args = ["grape-optimize", "--task", "binomial-encode", "--steps", "40", "--max-iters", "0"]
    assert main(args + ["--config", str(cfg), "-o", str(tmp_path / "a")]) == 0
    assert main(args + ["-o", str(tmp_path / "b")]) == 0
    assert main(["qpt", "--gate", "z", "-o", str(tmp_path / "qpt")]) == 0
    a, b, qpt = (
        json.loads((tmp_path / d / "manifest.json").read_text()) for d in ("a", "b", "qpt")
    )
    # at --max-iters 0 the pulse is the seeded start; its fidelity differs
    assert (tmp_path / "a" / "result.json").read_bytes() != (tmp_path / "b" / "result.json").read_bytes()
    assert a["provenance"] == {"config_hash": hashlib.sha256(cfg.read_text().encode()).hexdigest()}
    assert b["provenance"] == {"config_hash": hashlib.sha256(text.encode()).hexdigest()}
    assert b["provenance"]["config_hash"] == qpt["provenance"]["config_hash"]
    assert a["parameters"] == b["parameters"]


_MATRIX_CSV = "x,g,e\n0,0.95,0.1\n1,0.05,0.9\n"


def test_readout_manifest_records_input_files_by_content(tmp_path):
    """--matrix and --probs are recorded by the sha256 of their text, not by
    path: the same files in two directories give byte-identical manifests,
    and a changed file at the same path gives a different one."""
    runs = [
        ("a", _MATRIX_CSV, "0.6,0.4\n"),
        ("elsewhere/deeper", _MATRIX_CSV, "0.6,0.4\n"),
        ("elsewhere/deeper", _MATRIX_CSV, "0.7,0.3\n"),
        ("elsewhere/deeper", _MATRIX_CSV.replace("0.95", "0.96").replace("0.05", "0.04"), "0.7,0.3\n"),
    ]
    manifests = []
    for i, (where, matrix, probs) in enumerate(runs):
        d = tmp_path / where
        d.mkdir(parents=True, exist_ok=True)
        (d / "m.csv").write_text(matrix)
        (d / "p.csv").write_text(probs)
        out = tmp_path / f"run{i}"
        args = ["readout-correct", "--matrix", str(d / "m.csv"), "--probs", str(d / "p.csv")]
        assert main(args + ["-o", str(out)]) == 0
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    assert len(set(manifests[1:])) == 3
    assert str(tmp_path).encode() not in manifests[0]


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


def test_missing_t2_entry_is_named_where_decoherence_is_simulated(tmp_path, capsys):
    """S1 keeps its T1 but has no [T2_us] entry.  The decoherent runs exit 1
    naming S1 and its missing T2 (they used to report a T2 exceeding 2*T1,
    a T2 the config never gave, and named no mode); a closed-system run,
    which reads no coherence time, still runs on the same config."""
    from cavitysim.device import default_config_text

    text = default_config_text()
    entry = "[T2_us]\nS1 = 559\n"
    assert text.count(entry) == 1
    cfg = tmp_path / "device.cfg"
    cfg.write_text(text.replace(entry, "[T2_us]\n"))
    for args in (["error-budget", "--gate", "z"], ["zgate-repeat", "--mode", "pulse+decoherence"]):
        out = tmp_path / args[0]
        assert main(args + ["--config", str(cfg), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert "S1" in err and "T2" in err
        assert not out.exists()
    assert main(["qpt", "--gate", "z", "--mode", "pulse", "--config", str(cfg), "-o", str(tmp_path / "qpt")]) == 0


@pytest.mark.parametrize(
    "entry, value, args, named",
    [
        ("S1_Q1 = 1.599", "nan", ["qpt", "--gate", "z", "--mode", "pulse"], "S1_Q1 dispersive shift"),
        ("S1 = 0.005", "nan", ["qpt", "--gate", "z", "--mode", "pulse"], "S1 Kerr coefficient"),
        ("S1_S2 = 0.004", "nan", ["snap-bell", "--mode", "pulse"], "S1_S2 cross-Kerr"),
        ("S1_S2 = 0.004", "inf", ["bell", "--encoding", "cat", "--mode", "pulse"], "S1_S2 cross-Kerr"),
    ],
    ids=["chi-qpt", "kerr-qpt", "cross-kerr-snap-bell", "cross-kerr-bell"],
)
def test_non_finite_coupling_in_config_exits_1(tmp_path, capsys, entry, value, args, named):
    """A non-finite coupling used to load, and these runs exited 0 with NaN
    fidelities and purities."""
    from cavitysim.device import default_config_text

    text = default_config_text()
    assert text.count(entry) == 1
    cfg = tmp_path / "device.cfg"
    cfg.write_text(text.replace(entry, entry.split("=")[0] + "= " + value))
    out = tmp_path / "run"
    assert main(args + ["--config", str(cfg), "-o", str(out)]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


def _config_with(old, new):
    from cavitysim.device import default_config_text

    text = default_config_text()
    assert old in text
    return text.replace(old, new, 1)


_PROBS = "0.6,0.4\n"


@pytest.mark.parametrize(
    "args, files, named",
    [
        (["grape-optimize", "--seed", "-1"], {}, "--seed"),
        (
            ["readout-correct", "--probs", "p.csv", "--shots", "10", "--seed", "-1"],
            {"p.csv": "0.5,0.5,0,0,0,0,0,0\n"},
            "--seed",
        ),
        (
            ["qpt", "--gate", "z", "--config", "d.cfg"],
            {"d.cfg": lambda: _config_with("S1_Q1 = 1.599", "S1_Q1 = abc")},
            "S1_Q1",
        ),
        (
            ["qpt", "--gate", "z", "--config", "d.cfg"],
            {"d.cfg": lambda: "S1_Q1 = 1.599\n" + _config_with("", "")},
            "no section headers",
        ),
        (
            ["qpt", "--gate", "z", "--config", "d.cfg"],
            {"d.cfg": lambda: _config_with("", "") + "\n[chi_MHz]\nS1_Q1 = 1.599\n"},
            "chi_MHz",
        ),
        (
            ["readout-correct", "--probs", "p.csv", "--matrix", "m.csv"],
            {"p.csv": _PROBS, "m.csv": "x,g,e\n0,0.95,0.1\n1,0.05,abc\n"},
            "row 1",
        ),
        (
            ["readout-correct", "--probs", "p.csv", "--matrix", "m.csv"],
            {"p.csv": _PROBS, "m.csv": "x,g,e\n0,0.95,0.1\n1,0.05\n"},
            "row 1",
        ),
    ],
    ids=[
        "grape-negative-seed", "readout-negative-seed", "config-non-numeric",
        "config-no-section-header", "config-duplicate-section", "matrix-non-numeric", "matrix-short-row",
    ],
)
def test_malformed_input_exits_1(tmp_path, monkeypatch, capsys, args, files, named):
    """A negative --seed, a malformed --config and a malformed --matrix each
    exit 1 with a message naming the flag or entry; they used to raise a
    ValueError or a configparser error out of `main`."""
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text() if callable(text) else text)
    assert main(args + ["-o", "run"]) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_bad_phis_spec_rejected(tmp_path):
    assert main(["parity-sweep", "--phis", "0:1", "-o", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize(
    "args",
    [
        ["parity-sweep", "--mode", "pulse", "--epsilon", "nan"],
        ["parity-sweep", "--alpha", "nan"],
        ["zgate-repeat", "--alpha", "nan"],
        ["qpt", "--gate", "z", "--alpha", "nan"],
        ["wigner", "--extent", "nan"],
        ["wigner", "--points", "-1"],
        ["wigner", "--points", "0"],
        ["wigner", "--points", "1"],
        ["parity-sweep", "--phis", "0:1:-3"],
        ["parity-sweep", "--phis", "0:1:0"],
        # a non-finite offset exited 0 with NaN rows (and, for 0:inf:3, a
        # cos-law deviation of 0.0: max(worst, nan) keeps worst), and later
        # exited 1 only after linspace warned on forming 0·inf
        ["parity-sweep", "--phis", "0:inf:3"],
        ["parity-sweep", "--phis", "nan:1:3"],
        ["parity-sweep", "--delta", "nan"],
        ["zgate-repeat", "--m-max", "-1"],
        ["zgate-repeat", "--m-max", "0"],
    ],
    ids=lambda args: " ".join(args),
)
@pytest.mark.filterwarnings("error")
def test_bad_numeric_input_exits_1(tmp_path, capsys, args):
    """NaN, empty or negative numeric inputs are usage errors (exit 1), not
    Python exceptions, numerical failures, warnings or silent NaN/empty
    output."""
    out = tmp_path / "x"
    assert main(args + ["-o", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (out / "result.json").exists()


@pytest.mark.parametrize("extent", ["0", "-2.5"])
def test_wigner_refuses_an_extent_that_is_not_positive(tmp_path, capsys, extent):
    """--extent 0 wrote a grid whose every point was the origin, and a
    negative extent reversed both axes; both exit 1 and write nothing."""
    out = tmp_path / "x"
    assert main(["wigner", "--extent", extent, "--points", "3", "-o", str(out)]) == 1
    assert "--extent" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("state", ["cat", "fock"])
def test_wigner_is_zero_far_out_in_phase_space(tmp_path, state):
    """At --extent 1e20 every point off the origin lies where each element of
    D(2β)Π carries e^{−2|β|²}: it writes 0, the correctly rounded value (it
    wrote nan), and the origin keeps its value."""
    out = tmp_path / "w"
    assert main(["wigner", "--state", state, "--extent", "1e20", "--points", "3", "-o", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    values = np.array(result["values"])
    assert np.all(np.isfinite(values))
    assert np.count_nonzero(values) == 1 and values[1, 1] != 0
    rows = list(csv.reader((out / "wigner.csv").read_text().splitlines()))[1:]
    assert [float(w) for *_, w in rows] == values.ravel().tolist()


def test_write_json_writes_the_bytes_of_json_dump(tmp_path):
    """The one-call writer matches `json.dump` streamed to the file plus a
    newline, on nested tables, numpy scalars and arrays."""
    obj = {
        "summary": {"f": {"value": np.float64(0.1), "tolerance": 1e-8}, "n": np.int64(3)},
        "tables": {"cuts": {"columns": ("x", "w"), "rows": [(0.5, -1.0), (np.float32(2.5), 1e-300)]}},
        "grid": np.arange(6.0).reshape(2, 3) / 7,
        "empty": [],
        "text": "β ≤ 1",
        "flag": None,
    }
    cli._write_json(str(tmp_path / "a.json"), obj)
    with open(tmp_path / "b.json", "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, default=cli._json_default)
        fh.write("\n")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


@pytest.mark.parametrize("alpha", ["0.3", "-0.3", "0.416"])
def test_parity_sweep_refuses_an_alpha_whose_bound_cannot_fail(tmp_path, capsys, alpha):
    """The ideal tolerance max(1e-6, 4e^{-4α²}) reaches 2, the largest
    deviation a parity can have, at |α| ≤ √(ln 2)/2 ≈ 0.416: such a sweep is
    a usage error that writes nothing (α = 0.3 reported a deviation of 1.395
    against a tolerance of 2.79 and exited 0)."""
    out = tmp_path / "x"
    assert main(["parity-sweep", "--alpha", alpha, "--phis", "0:3.14:3", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "0.416" in err
    assert not out.exists()


def test_parity_sweep_runs_just_above_the_alpha_limit(tmp_path):
    """At α = 0.45 the ideal tolerance is 4e^{-0.81} = 1.78 < 2, so the sweep
    runs and reports it (the cat components overlap, and say so)."""
    out = tmp_path / "x"
    with pytest.warns(UserWarning, match="logical basis overlap"):
        assert main(["parity-sweep", "--alpha", "0.45", "--phis", "0:3.14:3", "-o", str(out)]) == 0
    scalar = json.loads((out / "result.json").read_text())["summary"]["max_abs_deviation_from_cos_law"]
    assert scalar["tolerance"] == pytest.approx(4.0 * np.exp(-4.0 * 0.45**2))
    assert scalar["tolerance"] < 2.0


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


@pytest.mark.parametrize("dim_args", [[], ["--dim", "4"]], ids=["default-dim", "dim-4"])
def test_wigner_fock_state_fits_its_own_truncation(tmp_path, dim_args):
    """|1> needs 2 levels; the fock state used to borrow its mode from a
    binomial code, which needs dim >= 5.  The default truncation follows the
    state (2 n + 2), not the grid."""
    out = tmp_path / "run"
    assert main(["wigner", "--state", "fock", "--fock-n", "1", *dim_args, "-o", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["parameters"]["dim"] == 4
    _, rows = _read_csv(out / "wigner.csv")
    assert len(rows) == 41 * 41
    at_origin = [float(w) for re, im, w in rows if float(re) == 0 and float(im) == 0]
    assert at_origin[0] == pytest.approx(-2.0 / np.pi, abs=1e-12)


def test_wigner_binomial_state_integrates_to_one(tmp_path):
    """The binomial |+⟩_L on its default 7 levels: the grid integral is 1 to
    the 0.01 that the cat case is held to."""
    out = tmp_path / "run"
    assert main(["wigner", "--state", "binomial", "-o", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["parameters"]["dim"] == 7
    result = json.loads((out / "result.json").read_text())
    re_axis, im_axis = np.array(result["re_axis"]), np.array(result["im_axis"])
    cell = (re_axis[1] - re_axis[0]) * (im_axis[1] - im_axis[0])
    assert abs(np.sum(result["values"]) * cell - 1.0) < 0.01


def test_wigner_refuses_a_negative_fock_level(tmp_path, capsys):
    """--fock-n -1 is refused at the option, naming it; it used to fail
    later with "mode dim must be >= 2"."""
    out = tmp_path / "run"
    assert main(["wigner", "--state", "fock", "--fock-n", "-1", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert "--fock-n" in err and "-1" in err
    assert not out.exists()


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


def test_grape_optimize_zero_iterations(tmp_path):
    out = tmp_path / "run"
    assert main(["grape-optimize", "--max-iters", "0", "-o", str(out)]) == 0
    report = json.loads((out / "result.json").read_text())
    assert report["iterations"] == 0
    assert len(report["fidelity_history"]) == 1


@pytest.mark.parametrize(
    "flag",
    [("--max-iters", "-1"), ("--target-fidelity", "nan")],
    ids=["negative-max-iters", "nan-target"],
)
def test_grape_optimize_rejects_bad_limits(tmp_path, flag, capsys):
    assert main(["grape-optimize", *flag, "-o", str(tmp_path / "run")]) == 1
    assert not (tmp_path / "run" / "result.json").exists()


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


@pytest.mark.parametrize("gate", ["z", "s", "t", "cz-coherent", "cz-binomial"])
def test_qpt_writes_the_simulated_gate_spec(tmp_path, gate):
    from cavitysim.experiments import run_qpt

    out = tmp_path / "run"
    assert main(["qpt", "--gate", gate, "-o", str(out)]) == 0
    expected = json.dumps(run_qpt(gate).gate_spec.to_json_dict(), default=cli._json_default)
    assert json.loads((out / "gate_spec.json").read_text()) == json.loads(expected)


@pytest.mark.parametrize("encoding", ["coherent", "binomial"])
def test_cz_writes_what_qpt_writes(tmp_path, encoding):
    """cz --encoding X runs the body of qpt --gate cz-X: the same files byte
    for byte, but a manifest that names cz and its --encoding."""
    assert main(["cz", "--encoding", encoding, "-o", str(tmp_path / "cz")]) == 0
    assert main(["qpt", "--gate", f"cz-{encoding}", "-o", str(tmp_path / "qpt")]) == 0
    cz, qpt = _dir_bytes(tmp_path / "cz"), _dir_bytes(tmp_path / "qpt")
    cz_manifest, qpt_manifest = (json.loads(d.pop("manifest.json")) for d in (cz, qpt))
    assert cz == qpt
    assert set(cz) == {"ptm.csv", "result.json", "gate_spec.json"}
    assert (cz_manifest["experiment"], qpt_manifest["experiment"]) == ("cz", "qpt")
    assert cz_manifest["parameters"].pop("encoding") == encoding
    assert qpt_manifest["parameters"].pop("gate") == f"cz-{encoding}"
    assert cz_manifest["parameters"] == qpt_manifest["parameters"]
    assert cz_manifest["provenance"] == qpt_manifest["provenance"]


def test_cz_binomial_pulse_writes_simulated_spec(tmp_path, monkeypatch):
    """gate_spec.json holds the multitone pulse run_qpt simulated, not the
    ideal rotations (the calibration is skipped to keep the test fast)."""
    import cavitysim.experiments as experiments
    from cavitysim.gates import _ToneCalibration

    simulated = []

    def uncalibrated(backend):
        problem = _ToneCalibration(backend)
        simulated.append(problem.spec(problem.x0))
        return simulated[-1], {}

    monkeypatch.setattr(experiments, "cz_binomial", uncalibrated)
    out = tmp_path / "run"
    assert main(["cz", "--encoding", "binomial", "--mode", "pulse", "-o", str(out)]) == 0
    spec = json.loads((out / "gate_spec.json").read_text())
    assert "multitone_pulse" in {s["type"] for s in spec["steps"]}
    assert simulated and spec == simulated[-1].to_json_dict()


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
    # the hash names the configuration; its text stays out of the manifest
    assert manifest["parameters"] == manifest2["parameters"]


#: cheap arguments of every command, and manifest parameters pinned by value
_MANIFEST_CASES = [
    (["parity-sweep", "--phis", "0:1:2"], {"phis": "0:1:2", "epsilon": None}),
    (["zgate-repeat", "--m-max", "1"], {"m_max": 1}),
    (["qpt", "--gate", "z"], {"gate": "z"}),
    (["cz", "--encoding", "coherent"], {"encoding": "coherent"}),
    (["bell", "--encoding", "binomial"], {"encoding": "binomial", "alpha": 1.2}),
    (["snap-bell", "--sign", "-1"], {"sign": -1, "dim": None}),
    (["error-budget", "--gate", "z"], {"gate": "z"}),
    (["wigner", "--state", "fock", "--fock-n", "2", "--points", "5"], {"dim": 6}),
    (["grape-optimize", "--task", "pi-pulse", "--max-iters", "0"], {"steps": 60, "dim": None}),
    (["readout-correct", "--probs", "p.csv"], {"seed": 0}),
]


@pytest.mark.parametrize("args, pinned", _MANIFEST_CASES, ids=[a[0] for a, _ in _MANIFEST_CASES])
def test_manifest_records_the_parsed_options(tmp_path, monkeypatch, args, pinned):
    """A manifest names its command and holds one parameter per option of
    that command, the path options (--config, --matrix, --probs, --output)
    aside, with the value the command ran with: a truncation or step count
    it filled in itself, --sign as an int."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.csv").write_text("\n".join(["0.5", "0.5"] + ["0.0"] * 6))
    assert main(args + ["-o", "run"]) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["experiment"] == args[0]
    options = {
        max(p.opts, key=len)[2:].replace("-", "_")
        for p in cli.cli.commands[args[0]].params
        if not isinstance(p.type, click.Path)
    }
    assert set(manifest["parameters"]) == options
    for key, value in pinned.items():
        assert manifest["parameters"][key] == value
        assert type(manifest["parameters"][key]) is type(value)


@pytest.mark.parametrize(
    "args, manifest",
    [
        (
            ["grape-optimize", "--task", "pi-pulse", "--max-iters", "0"],
            '{\n  "experiment": "grape-optimize",\n  "parameters": {\n    "dim": null,\n'
            '    "max_iters": 0,\n    "seed": 0,\n    "steps": 60,\n'
            '    "target_fidelity": 0.995,\n    "task": "pi-pulse"\n  }\n}\n',
        ),
        (
            [
                "readout-correct", "--matrix", "m.csv", "--probs", "p.csv",
                "--shots", "100", "--seed", "3", "--project",
            ],
            '{\n  "experiment": "readout-correct",\n  "parameters": {\n'
            '    "project": true,\n    "seed": 3,\n    "shots": 100\n  },\n'
            '  "provenance": {\n'
            '    "matrix_hash": "562b5cf25d706d5309a9a7db661f664fe4484f9f509d8d16e95a0ad4e2db357c",\n'
            '    "probs_hash": "d5b3dfd7104f19c80c21170371259fe374539524a5a39b447cc4694dc3d9041f"\n'
            '  }\n}\n',
        ),
    ],
    ids=["grape-optimize", "readout-correct"],
)
def test_manifest_bytes_are_pinned(tmp_path, monkeypatch, args, manifest):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.csv").write_text("x,g,e\n0,0.95,0.1\n1,0.05,0.9\n")
    (tmp_path / "p.csv").write_text("0.6,0.4\n")
    assert main(args + ["-o", "run"]) == 0
    assert (tmp_path / "run" / "manifest.json").read_text() == manifest


def test_failed_allocation_exits_2_with_one_line(tmp_path, capsys):
    """An --epsilon of 1e-15 asks for π·10¹⁵ drive samples: numpy's
    allocation fails at once, and main reports it as a numerical failure
    in one stderr line, with no traceback and no output directory."""
    out = tmp_path / "sweep"
    argv = ["parity-sweep", "--mode", "pulse", "--epsilon", "1e-15", "--phis", "0:1:1", "-o", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag",
    [("error-budget", "--config"), ("readout-correct", "--matrix"), ("readout-correct", "--probs")],
)
def test_input_file_that_is_not_utf8_exits_1_naming_the_flag(tmp_path, capsys, command, flag):
    """A binary file given to a file option is refused by click as a bad
    value of that option, before the command runs: exit 1, no traceback,
    no output directory."""
    binary = tmp_path / "data.bin"
    binary.write_bytes(b"\xff\xfe\x00\x81 not text")
    out = tmp_path / "out"
    assert main([command, flag, str(binary), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"Invalid value for '{flag}'" in err and "not UTF-8 text" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_output_directory_that_cannot_be_created_exits_1_with_one_line(tmp_path, capsys):
    """An -o path under a regular file cannot be made a directory: main
    reports the OSError in one stderr line and exits 1."""
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "sub"
    assert main(["wigner", "--points", "3", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(out) in err


@pytest.mark.parametrize(
    "args, recipe",
    [
        (["qpt", "--gate", "cz-binomial", "--mode", "pulse"], "run_qpt"),
        (["error-budget", "--gate", "z"], "run_error_budget"),
        (["zgate-repeat", "--mode", "pulse+decoherence"], "run_zgate_repetition"),
        (["wigner", "--points", "3"], "wigner_grid"),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, list) else x,
)
@pytest.mark.parametrize("under", [("sub",), ("sub", "deeper")], ids=["child", "grandchild"])
def test_unusable_output_exits_1_before_the_recipe_runs(tmp_path, capsys, monkeypatch, args, recipe, under):
    """An -o under a regular file is refused while the options are parsed:
    the recipe is never called and nothing is written."""

    def refused(*a, **k):
        raise AssertionError(f"{recipe} ran")

    monkeypatch.setattr(cli, recipe, refused)
    (tmp_path / "file").write_text("")
    out = tmp_path.joinpath("file", *under)
    assert main(args + ["-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(out) in err
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
