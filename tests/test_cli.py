import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sptmbqc import cli, gates, measurement, model
from sptmbqc.errors import VanishingProbability


README = Path(__file__).resolve().parents[1] / "README.md"


def run(argv):
    return cli.main(argv)


@pytest.fixture(autouse=True)
def no_kept_model():
    # tests here monkeypatch engine functions: no test may start from a model
    # (and its Analysis) that an earlier test left in the CLI
    cli._last_model = None


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("models")
    assert run(["model", "perturb", "--strength", "0.3", "--junk-dim", "2", "--seed", "7",
                "--out", str(d), "--name", "pt.json"]) == 0
    return d / "pt.json"


def test_model_build(tmp_path):
    assert run(["model", "build", "--group", "Z2xZ2", "--out", str(tmp_path)]) == 0
    point = model.load_model(tmp_path / "model.json")
    assert (point.d, point.D, point.Dj) == (4, 2, 1)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "model build"
    assert "validation.json" in manifest["outputs"]


def test_model_build_d3(tmp_path):
    assert run(["model", "build", "--group", "Z3xZ3", "--out", str(tmp_path)]) == 0
    assert model.load_model(tmp_path / "model.json").D == 3


@pytest.mark.parametrize("argv", [
    ["perturb", "--strength", "0.3", "--junk-dim", "0", "--seed", "1"],
    ["perturb", "--strength", "1.5", "--junk-dim", "2", "--seed", "1"],
    ["build", "--D", "1"],
])
def test_model_builder_bad_input_exit_code(tmp_path, argv, capsys):
    out = tmp_path / "model"
    assert run(["model"] + argv + ["--out", str(out)]) == 2
    assert "validation error" in capsys.readouterr().err
    assert not out.exists()


def test_model_validate_ok(model_file):
    assert run(["model", "validate", str(model_file)]) == 0


def test_model_validate_bad(tmp_path, model_file, capsys):
    doc = json.loads(model_file.read_text())
    doc["C"][0][0][0] = [3.0, 0.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["model", "validate", str(bad)]) == 2
    assert "not unitary" in capsys.readouterr().err


def test_model_validate_unparseable(tmp_path):
    bad = tmp_path / "junk.json"
    bad.write_text("{oops")
    assert run(["model", "validate", str(bad)]) == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["run", "wire"])  # missing --model
    assert exc.value.code == 4


def test_run_wire(tmp_path, model_file):
    out = tmp_path / "wire"
    assert run(["run", "wire", "--model", str(model_file), "--n", "120",
                "--out", str(out), "--seed", "1"]) == 0
    lines = (out / "wire_residual.csv").read_text().splitlines()
    assert lines[0].startswith("# manifest:")
    assert lines[2] == "n_sites,schmidt_residual"
    rows = [l.split(",") for l in lines[3:]]
    assert len(rows) == 121
    assert float(rows[-1][1]) < 1e-6  # factorization residual decays along the wire


@pytest.mark.parametrize("pair", [("0", "9"), ("1", "1"), ("1", "0")])
@pytest.mark.parametrize("command", ["gate", "measure", "born"])
def test_invalid_pair_exit_code(tmp_path, model_file, command, pair):
    assert run(["run", command, "--model", str(model_file), "--pair", *pair,
                "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("angle", [("--alpha", "nan"), ("--beta", "inf")])
def test_run_gate_nonfinite_angle(tmp_path, model_file, angle):
    assert run(["run", "gate", "--model", str(model_file), *angle, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", [
    ["run", "measure", "--model", "{model}", "--alpha"],
    ["run", "gate", "--model", "{model}", "--beta"],
    ["run", "conform", "--model", "{model}", "--tol"],
    ["model", "perturb", "--junk-dim", "2", "--seed", "7", "--strength"],
])
def test_nonfinite_float_flag_exit_code(tmp_path, model_file, argv, value, capsys):
    *argv, flag = [a.format(model=model_file) for a in argv]
    assert run([*argv, f"{flag}={value}", "--out", str(tmp_path)]) == 2
    assert "not a finite number" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["wire", "--n", "-3"],
    ["wire", "--trajectories", "-1"],
    ["measure", "--trials", "0"],
    ["measure", "--nm", "1"],
    ["born", "--nm", "0"],
    ["born", "--trials", "0"],
    ["nu", "--samples", "0"],
    ["boundary", "--runways", "-2"],
    ["boundary", "--runways", "0,-2"],
    ["boundary", "--trials", "-1"],
    ["conform", "--samples", "0"],
    ["conform", "--n", "0"],
])
def test_out_of_range_count_flag_exit_code(tmp_path, model_file, argv, capsys):
    command, flag, value = argv
    assert run(["run", command, "--model", str(model_file), f"{flag}={value}", "--out", str(tmp_path)]) == 2
    assert "not an integer >=" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["run", "wire", "--model", "{model}"],
    ["run", "gate", "--model", "{model}"],
    ["run", "measure", "--model", "{model}"],
    ["run", "nu", "--model", "{model}"],
    ["run", "born", "--model", "{model}"],
    ["run", "boundary", "--model", "{model}"],
    ["run", "conform", "--model", "{model}"],
    ["model", "perturb", "--strength", "0.3", "--junk-dim", "2"],
])
def test_negative_seed_exit_code(tmp_path, model_file, argv, capsys):
    argv = [a.format(model=model_file) for a in argv]
    assert run(argv + ["--seed", "-1", "--out", str(tmp_path / "out")]) == 2
    assert "not an integer >= 0" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_list_flag_defaults_survive_earlier_calls(tmp_path, model_file):
    # one parser serves every call in a process: explicit list flags must not
    # leak into the defaults of a later call
    cases = [("gate", "--n-steps", "100,200", "n_steps", [100, 200, 400]),
             ("boundary", "--runways", "0,5", "runways", [0, 5, 25, 140])]
    for command, flag, value, key, default in cases:
        argv = ["run", command, "--model", str(model_file)]
        assert run(argv + [flag, value, "--out", str(tmp_path / "explicit")]) == 0
        assert run(argv + ["--out", str(tmp_path / "default")]) == 0
        explicit, defaulted = (json.loads((tmp_path / d / "manifest.json").read_text())["params"][key]
                               for d in ("explicit", "default"))
        assert explicit == [int(x) for x in value.split(",")]
        assert defaulted == default


def test_cli_import_is_scipy_free():
    # the package runs on numpy alone: importing the CLI loads no scipy module
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, sptmbqc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_linalg_error_exit_code(tmp_path, model_file, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(gates, "finite_rotation", no_convergence)
    assert run(["run", "gate", "--model", str(model_file), "--out", str(tmp_path)]) == 3


def test_run_gate(tmp_path, model_file):
    out = tmp_path / "gate"
    assert run(["run", "gate", "--model", str(model_file), "--pair", "0", "1",
                "--n-steps", "50,100", "--out", str(out)]) == 0
    doc = json.loads((out / "gate_summary.json").read_text())
    errs = doc["distances"]
    assert errs["50"] > errs["100"]


@pytest.mark.parametrize("steps", ["0", "100,0", "-5"])
def test_run_gate_rejects_nonpositive_steps(tmp_path, model_file, steps, capsys):
    out = tmp_path / "gate"
    assert run(["run", "gate", "--model", str(model_file), f"--n-steps={steps}",
                "--out", str(out)]) == 2
    assert "not an integer >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_run_measure_deterministic(tmp_path, model_file):
    args = ["run", "measure", "--model", str(model_file), "--pair", "0", "1",
            "--nm", "200", "--trials", "10", "--seed", "3", "--curves"]
    out1, out2 = tmp_path / "m1", tmp_path / "m2"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    for name in ("measure_scatter.csv", "filter_curves.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_nu_exact(tmp_path, model_file):
    out = tmp_path / "nu"
    assert run(["run", "nu", "--model", str(model_file), "--exact-only",
                "--out", str(out)]) == 0
    doc = json.loads((out / "nu_exact.json").read_text())
    nu = np.array([[complex(re, im) for re, im in row] for row in doc["nu"]])
    assert abs(np.trace(nu) - 1) < 1e-10
    assert doc["xi"] > 0


def test_run_born(tmp_path, model_file):
    out = tmp_path / "born"
    assert run(["run", "born", "--model", str(model_file), "--pair", "0", "1",
                "--trials", "400", "--nm", "200", "--state", "0.7,0.3",
                "--seed", "5", "--out", str(out)]) == 0
    lines = (out / "born.csv").read_text().splitlines()
    header = lines[2].split(",")
    assert header == ["eigenphase_rad", "frequency", "born_probability", "binomial_sigma"]
    rows = [l.split(",") for l in lines[3:]]
    freqs = {float(r[0]): float(r[1]) for r in rows}
    assert abs(freqs[0.0] - 0.7) < 0.1


@pytest.mark.parametrize("state", ["a,b", "nan,1", "0,0", "-0.5,1.5", "2,2", "0.5,0.4"])
def test_run_born_rejects_bad_state(tmp_path, model_file, state, capsys):
    assert run(["run", "born", "--model", str(model_file), "--trials", "20", "--nm", "10",
                f"--state={state}", "--out", str(tmp_path)]) == 2
    assert "--state" in capsys.readouterr().err
    assert not (tmp_path / "born.csv").exists()


def test_run_boundary(tmp_path, model_file):
    out = tmp_path / "bdy"
    assert run(["run", "boundary", "--model", str(model_file), "--runways", "0,25",
                "--out", str(out), "--seed", "2"]) == 0
    lines = (out / "boundary_tv.csv").read_text().splitlines()
    rows = [l.split(",") for l in lines[3:]]
    assert float(rows[0][1]) > float(rows[1][1])


def test_run_conform(tmp_path, model_file):
    out = tmp_path / "conf"
    assert run(["run", "conform", "--model", str(model_file), "--n", "5",
                "--seed", "4", "--out", str(out)]) == 0
    doc = json.loads((out / "conformance.json").read_text())
    assert doc["max_deviation"] < 1e-10


def test_run_wire_trajectory_log(tmp_path, model_file):
    out = tmp_path / "wirelog"
    assert run(["run", "wire", "--model", str(model_file), "--n", "20",
                "--trajectories", "5", "--out", str(out), "--seed", "2"]) == 0
    lines = (out / "trajectories.jsonl").read_text().splitlines()
    assert len(lines) == 5
    assert json.loads(lines[0])["outcomes"] is not None


def test_sampled_outputs_deterministic(tmp_path, model_file):
    commands = {
        "boundary": ["run", "boundary", "--model", str(model_file), "--runways", "0,10",
                     "--trials", "8", "--nm", "4", "--seed", "6"],
        "wire": ["run", "wire", "--model", str(model_file), "--n", "30",
                 "--trajectories", "6", "--seed", "6"],
    }
    for name, argv in commands.items():
        out1, out2 = tmp_path / f"{name}1", tmp_path / f"{name}2"
        assert run(argv + ["--out", str(out1)]) == 0
        assert run(argv + ["--out", str(out2)]) == 0
        files = sorted(f.name for f in out1.iterdir())
        assert files == sorted(f.name for f in out2.iterdir())
        for f in files:
            assert (out1 / f).read_bytes() == (out2 / f).read_bytes()


def test_vanishing_probability_exit_code(tmp_path, model_file, monkeypatch):
    def vanish(probs, draws):
        raise VanishingProbability("every outcome has zero probability")

    monkeypatch.setattr(measurement, "draw_outcomes", vanish)
    assert run(["run", "wire", "--model", str(model_file), "--n", "5",
                "--trajectories", "2", "--out", str(tmp_path)]) == 3


def test_run_nu_d3(tmp_path):
    # the self-test reads nu_10 from one tilted site, which needs no qubit-only
    # probe axis: a D=3 model runs as a D=2 one does
    mdir = tmp_path / "m"
    assert run(["model", "perturb", "--D", "3", "--strength", "0.2", "--junk-dim", "2",
                "--seed", "11", "--out", str(mdir)]) == 0
    out = tmp_path / "nu"
    assert run(["run", "nu", "--model", str(mdir / "model_perturbed.json"), "--samples", "2000",
                "--seed", "3", "--out", str(out)]) == 0
    assert len(json.loads((out / "nu_exact.json").read_text())["nu"]) == 9
    doc = json.loads((out / "nu_selftest.json").read_text())
    assert len(doc["diag_estimate"]) == 9 and len(doc["pair_frequencies"]) == 4
    assert abs(doc["abs_nu10_estimate"] - doc["abs_nu10_truth"]) <= 5 * doc["abs_nu10_sigma"]
    assert abs(measurement.wrap_angle(doc["delta_estimate"] - doc["delta_truth"])) <= 5 * doc["delta_sigma"]


def readme_commands() -> list[list[str]]:
    """The sptmbqc commands of the README's command-line block, as argv lists."""
    block = README.read_text().split("## Command-line interface")[1].split("```sh")[1].split("```")[0]
    commands, model_path = [], None
    for line in block.replace("\\\n", " ").splitlines():
        line = line.split("#")[0].strip()
        if line.startswith("M="):
            model_path = line[2:]
        elif line.startswith("sptmbqc "):
            commands.append([model_path if a == "$M" else a for a in shlex.split(line)[1:]])
    return commands


def test_readme_commands_same_with_kept_model(tmp_path, monkeypatch):
    # the README commands in one process give the same files whether each run
    # command reuses the model the last one read or reads and analyzes it anew
    loads = []
    load_model = model.load_model

    def counted_load(*args, **kwargs):
        loads.append(args)
        return load_model(*args, **kwargs)

    monkeypatch.setattr(model, "load_model", counted_load)
    commands = readme_commands()
    assert len(commands) == 10
    trees = {}
    for kept in (True, False):
        root = tmp_path / ("kept" if kept else "anew")
        root.mkdir()
        monkeypatch.chdir(root)
        loads.clear()
        for argv in commands:
            if not kept:
                cli._last_model = None
            assert run(argv) == 0, argv
        # model validate loads once; the seven run commands once when the model is kept
        assert len(loads) == (2 if kept else 8)
        trees[kept] = {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}
    assert len(trees[True]) > 20
    assert trees[True] == trees[False]


def test_rewritten_model_is_reloaded(tmp_path):
    path = tmp_path / "m.json"
    exact = []
    for seed in (7, 8):
        model.save_model(model.perturb_point(model.build_cluster_point(2), 0.3, 2, seed), path)
        out = tmp_path / f"nu{seed}"
        assert run(["run", "nu", "--model", str(path), "--exact-only", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["model_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        exact.append((out / "nu_exact.json").read_bytes())
    cli._last_model = None
    assert run(["run", "nu", "--model", str(path), "--exact-only", "--out", str(tmp_path / "anew")]) == 0
    assert exact[0] != exact[1] == (tmp_path / "anew" / "nu_exact.json").read_bytes()


def test_invalid_model_leaves_nothing_kept(tmp_path, model_file, capsys):
    assert run(["run", "nu", "--model", str(model_file), "--exact-only", "--out", str(tmp_path / "ok")]) == 0
    assert cli._last_model is not None
    doc = json.loads(model_file.read_text())
    doc["C"][0][0][0] = [3.0, 0.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["run", "nu", "--model", str(bad), "--exact-only", "--out", str(tmp_path / "bad")]) == 2
    assert "not unitary" in capsys.readouterr().err
    assert cli._last_model is None
