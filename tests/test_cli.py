import json

import numpy as np
import pytest

from ergonoise.cli import main


def run(args):
    return main(args)


def test_single_writes_csv_and_sidecar(tmp_path, capsys):
    out = tmp_path / "single.csv"
    code = run([
        "single", "--channel", "bf", "--bloch", "0.6,0.5,0.4",
        "--q", "0,1,101", "-o", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "q,W,WI,WC,C,threshold"
    assert len(lines) == 1 + 101
    assert lines[1].split(",")[5] == lines[2].split(",")[5]
    meta = json.loads(out.with_suffix(".meta.json").read_text())
    assert meta["channel"] == "bit_flip"
    assert meta["threshold_q"] == pytest.approx(0.472, abs=5e-4)
    assert meta["q_points"] == 101
    assert "wrote" in capsys.readouterr().out


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["census", "--channel", "bf", "--count", "10", "--seed", "3",
            "--q-points", "21"]
    assert run(args + ["-o", str(a)]) == 0
    assert run(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    meta = json.loads(a.with_suffix(".meta.json").read_text())
    assert meta["seed"] == 3
    assert 0.0 <= meta["fraction_enhancing"] <= 1.0


def test_bds_run(tmp_path):
    out = tmp_path / "bds.csv"
    code = run(["bds", "--channel", "pf", "--c", "0.5,0.3,0.1",
                "--q", "0,1,51", "-o", str(out)])
    assert code == 0
    rows = out.read_text().strip().split("\n")
    assert rows[0].split(",")[:4] == ["q", "W", "WI", "WC"]
    assert len(rows) == 52


def test_grid_run_row_count(tmp_path):
    out = tmp_path / "grid.csv"
    code = run(["grid", "--family", "pair", "--channel", "bf",
                "--axis", "0.1,0.9,5", "--q", "0,1,11",
                "--c", "0.3", "--d", "0.2", "-o", str(out)])
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 1 + 5 * 11


def test_scaling_run_cli(tmp_path):
    out = tmp_path / "scaling.csv"
    code = run(["scaling", "--n", "2,3", "--channels", "bf",
                "--q-points", "21", "-o", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "channel,N,delta_wc_max,argmax_q,area_ap"
    assert len(lines) == 3


def test_lindblad_and_entangled_and_appendix(tmp_path):
    assert run(["lindblad-check", "--kind", "bf", "--gamma", "0.5",
                "--t", "0,0.693,5", "--bloch", "0.6,0.5,0.4",
                "-o", str(tmp_path / "lb.csv")]) == 0
    meta = json.loads((tmp_path / "lb.meta.json").read_text())
    assert meta["max_deviation"] <= 1e-6
    assert run(["entangled", "--theta", "0,3.14,5", "--q", "0,1,11",
                "-o", str(tmp_path / "ent.csv")]) == 0
    assert run(["appendix-d", "--a", "0.1,0.4", "--q", "0,1,11",
                "-o", str(tmp_path / "appd.csv")]) == 0
    rows = (tmp_path / "appd.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + 2 * 11


def test_entangled_runs_the_named_channel(tmp_path, capsys):
    out = tmp_path / "ent.csv"
    args = ["entangled", "--theta", "0,1.5,3", "--q", "0,1,5", "-o", str(out)]
    assert run(args + ["--channel", "pf"]) == 0
    assert json.loads(out.with_suffix(".meta.json").read_text())["channel"] == "phase_flip"
    assert run(args + ["--channel", "nonsense"]) == 1
    assert "unknown channel kind" in capsys.readouterr().err


def test_validation_failure_exits_one(tmp_path, capsys):
    code = run(["bds", "--channel", "bf", "--c", "0.9,0.8,0.1",
                "-o", str(tmp_path / "x.csv")])
    assert code == 1
    assert "negative eigenvalue" in capsys.readouterr().err
    code = run(["single", "--channel", "bf", "--bloch", "0.9,0.9,0.9",
                "-o", str(tmp_path / "y.csv")])
    assert code == 1


def test_non_finite_input_exits_one_naming_the_constraint(tmp_path, capsys):
    code = run(["single", "--channel", "bf", "--bloch", "nan,0,0",
                "-o", str(tmp_path / "s.csv")])
    assert code == 1
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()
    code = run(["bds", "--channel", "bf", "--c", "nan,0.1,0.1",
                "-o", str(tmp_path / "b.csv")])
    assert code == 1
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()
    for argv in (
        ["grid", "--family", "cq", "--channel", "bf", "--axis", "nan,1,3"],
        ["grid", "--family", "pair", "--channel", "bf", "--axis", "nan,1,3"],
        ["scaling", "--n", "2", "--c0", "nan"],
        ["appendix-d", "--c", "nan"],
        ["entangled", "--theta", "0,1,3", "--h", "nan"],
        ["lindblad-check", "--kind", "bf", "--gamma", "inf", "--t", "0,3,4", "--bloch", "0.1,0.2,0.3"],
        ["lindblad-check", "--kind", "ad", "--gamma", "1", "--t", "0,nan,3", "--bloch", "0.1,0.2,0.3"],
    ):
        out = tmp_path / f"{argv[0]}.csv"
        assert run(argv + ["-o", str(out)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


def test_empty_scaling_lists_exit_one_naming_the_list(tmp_path, capsys):
    for argv, message in (
        (["scaling", "--n", "5..2"], "register size"),
        (["scaling", "--n", "2", "--channels", ","], "channel kind"),
    ):
        out = tmp_path / "scaling.csv"
        assert run(argv + ["-o", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_argument_errors_exit_two(tmp_path):
    with pytest.raises(SystemExit) as err:
        run(["single", "--channel", "bf", "--bloch", "0.1,0.2",
             "-o", str(tmp_path / "z.csv")])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run(["single", "--bloch", "0.1,0.2,0.3"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run(["grid", "--family", "pair", "--channel", "bf", "--axis", "0,1,1"])
    assert err.value.code == 2


def test_outdir_env_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ERGONOISE_OUTDIR", str(tmp_path))
    code = run(["single", "--channel", "dc", "--bloch", "0.3,0.2,0.1",
                "--q", "0,1,11"])
    assert code == 0
    assert (tmp_path / "single_depolarizing.csv").exists()
