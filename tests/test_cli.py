import json

import numpy as np
import pytest

from ergonoise.cli import main
from ergonoise.io import read_csv


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


def test_a_scaling_csv_reads_back_its_channel_column_as_strings(tmp_path):
    out = tmp_path / "scaling.csv"
    assert run(["scaling", "--n", "2,3", "--channels", "bf,pf", "--q-points", "21", "-o", str(out)]) == 0
    back = read_csv(out)
    assert back["channel"].tolist() == ["bit_flip", "phase_flip"] * 2
    assert back["N"].tolist() == [2.0, 2.0, 3.0, 3.0]


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
        ["scaling", "--n", "2", "--c0", "nan"],
        ["appendix-d", "--c", "nan"],
        ["appendix-d", "--a", "nan"],
        ["entangled", "--theta", "0,1,3", "--h", "nan"],
        ["lindblad-check", "--kind", "bf", "--gamma", "inf", "--t", "0,3,4", "--bloch", "0.1,0.2,0.3"],
    ):
        out = tmp_path / f"{argv[0]}.csv"
        assert run(argv + ["-o", str(out)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


def test_non_finite_grid_bounds_exit_two_naming_the_constraint(tmp_path, capsys):
    for argv in (
        ["grid", "--family", "cq", "--channel", "bf", "--axis", "nan,1,3"],
        ["grid", "--family", "pair", "--channel", "bf", "--axis", "nan,1,3"],
        ["lindblad-check", "--kind", "ad", "--gamma", "1", "--t", "0,nan,3", "--bloch", "0.1,0.2,0.3"],
        ["lindblad-check", "--kind", "bf", "--gamma", "1", "--t", "0,inf,3", "--bloch", "0.1,0.2,0.3"],
        ["bds", "--channel", "pf", "--c", "0.5,0.3,0.1", "--q", "0,inf,5"],
        ["entangled", "--theta", "0,inf,3"],
    ):
        out = tmp_path / f"{argv[0]}.csv"
        with pytest.raises(SystemExit) as err:
            run(argv + ["-o", str(out)])
        assert err.value.code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


def test_a_grid_spec_without_three_parts_exits_two_naming_the_form(tmp_path, capsys):
    out = tmp_path / "single.csv"
    with pytest.raises(SystemExit) as err:
        run(["single", "--channel", "bf", "--bloch", "0.6,0.5,0.4", "--q", "0,1", "-o", str(out)])
    assert err.value.code == 2
    assert "grid spec '0,1' is not min,max,count" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("spec", ["0.1,,0.4", "", "0.1,x"])
def test_a_malformed_population_list_exits_two_naming_the_form(tmp_path, capsys, spec):
    out = tmp_path / "appendix_d.csv"
    with pytest.raises(SystemExit) as err:
        run(["appendix-d", "--a", spec, "-o", str(out)])
    assert err.value.code == 2
    assert f"argument --a: {spec!r} is not comma-separated numbers" in capsys.readouterr().err
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



@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_census_seed_outside_64_bits_exits_one_naming_the_bound(tmp_path, capsys, seed):
    out = tmp_path / "census.csv"
    assert run(["census", "--channel", "dc", "--count", "5", "--seed", seed, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"seed {seed} is outside [0, 2**64)" in err and "Traceback" not in err
    assert not out.exists()

@pytest.mark.parametrize("sizes", ["1,2", "0..3"])
def test_scaling_register_sizes_below_two_exit_one(tmp_path, capsys, sizes):
    # one qubit would write a phase-flip row in other energy units (gap 2)
    out = tmp_path / "scaling.csv"
    assert run(["scaling", "--n", sizes, "-o", str(out)]) == 1
    assert "at least 2 qubits" in capsys.readouterr().err
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


def strict_json(text):
    """json.loads that rejects NaN, Infinity and -Infinity."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


# the CSV threshold column of each Bloch vector with no finite threshold:
# every strength enhances (bit flip, n2 = 0), or the curve is frozen
NO_THRESHOLD_COLUMN = {"0.3,0,0.5": "-inf", "0.5,0,0": "inf"}


@pytest.mark.parametrize(
    "argv",
    [
        ["single", "--channel", "bf", "--bloch", "0.3,0,0.5"],
        ["single", "--channel", "pf", "--basis", "x", "--bloch", "0.5,0,0"],
    ],
)
def test_missing_threshold_is_null_in_a_strict_json_sidecar(tmp_path, argv):
    out = tmp_path / "single.csv"
    assert run(argv + ["--q", "0,1,5", "-o", str(out)]) == 0
    meta = strict_json(out.with_suffix(".meta.json").read_text())
    assert "threshold_q" in meta and meta["threshold_q"] is None
    # the CSV column keeps the numeric no-threshold value
    rows = out.read_text().strip().split("\n")
    assert rows[0].split(",")[-1] == "threshold"
    assert {row.split(",")[-1] for row in rows[1:]} == {NO_THRESHOLD_COLUMN[argv[-1]]}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf])
def test_non_finite_metadata_exits_one_naming_the_key(tmp_path, capsys, monkeypatch, value):
    from ergonoise import experiments as ex

    def sweep(*args, **kwargs):
        cols = {"q": np.array([0.0, 1.0])}
        return ex.SweepResult(cols, {"channel": "bit_flip", "nested": {"gap": [1.0, value]}})

    monkeypatch.setattr(ex, "sweep_single", sweep)
    out = tmp_path / "single.csv"
    assert run(["single", "--channel", "bf", "--bloch", "0.1,0,0", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "nested.gap[1]" in err and "not finite" in err
    # the sidecar is serialized first, so neither file is written
    assert not out.exists()
    assert not out.with_suffix(".meta.json").exists()


def test_sidecars_of_every_subcommand_are_strict_json(tmp_path):
    for argv in (
        ["single", "--channel", "bf", "--bloch", "0.6,0.5,0.4", "--q", "0,1,5"],
        ["bds", "--channel", "pf", "--c", "0.5,0.3,0.1", "--q", "0,1,5"],
        ["grid", "--family", "pair", "--channel", "bf", "--axis", "0.1,0.9,3", "--q", "0,1,5"],
        ["scaling", "--n", "2", "--channels", "bf", "--q-points", "5"],
        ["census", "--channel", "dc", "--count", "3", "--q-points", "5"],
        ["lindblad-check", "--kind", "ad", "--gamma", "0.5", "--t", "0,1,3", "--bloch", "0.1,0.2,0.3"],
        ["entangled", "--theta", "0,3,3", "--q", "0,1,5"],
        ["appendix-d", "--q", "0,1,5"],
    ):
        out = tmp_path / f"{argv[0]}.csv"
        assert run(argv + ["-o", str(out)]) == 0
        assert strict_json(out.with_suffix(".meta.json").read_text())


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (["single", "--channel", "bf"], "--bloch", "-0.3,0.2,0.1"),
        (["grid", "--family", "cq", "--channel", "pf"], "--axis", "-0.3,0.3,5"),
        (["entangled"], "--theta", "-1,1,5"),
        (["bds", "--channel", "pf", "--c", "0.1,0.2,0.3"], "--q", "-0,1,3"),
        (["grid", "--family", "pair", "--channel", "bf", "--axis", "0.3,0.7,3"], "--c", "-1e-3"),
    ],
)
def test_a_value_with_a_leading_minus_parses_in_either_form(tmp_path, argv, option, value):
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    assert run(argv + [option, value, "-o", str(spaced)]) == 0
    assert run(argv + [f"{option}={value}", "-o", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()
    assert spaced.with_suffix(".meta.json").read_bytes() == joined.with_suffix(".meta.json").read_bytes()


def test_a_negative_population_exits_one_naming_the_value(tmp_path, capsys):
    out = tmp_path / "appendix_d.csv"
    assert run(["appendix-d", "--a", "-0.1,0.4", "-o", str(out)]) == 1
    assert "population -0.1 outside [0, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_an_option_in_place_of_a_value_still_exits_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        run(["bds", "--channel", "--c", "0.1,0.2,0.3", "-o", str(tmp_path / "b.csv")])
    assert err.value.code == 2
    assert "argument --channel: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "c, message",
    [
        ("0.5,0.5,0.5", "parameters (0.5, 0.5, 0.5) give negative eigenvalue"),
        ("-0.1,0.2,0.3", "got (-0.1, 0.2, 0.3)"),
    ],
)
def test_bds_errors_print_plain_numbers(tmp_path, capsys, c, message):
    assert run(["bds", "--channel", "pf", f"--c={c}", "-o", str(tmp_path / "b.csv")]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "np.float64" not in err


@pytest.mark.parametrize(
    "flags, expected",
    [
        (["--channel", "pf"], True),
        (["--channel", "ad", "--one-qubit"], False),
    ],
)
def test_bds_sidecar_flags_are_json_booleans(tmp_path, flags, expected):
    out = tmp_path / "bds.csv"
    assert run(["bds", "--c", "0.5,0.3,0.1", "--q", "0,1,5", "-o", str(out)] + flags) == 0
    text = out.with_suffix(".meta.json").read_text()
    meta = strict_json(text)
    assert meta["both_qubits"] is expected
    assert meta["identity_valid"] is expected
    word = "true" if expected else "false"
    assert f'"both_qubits": {word}' in text and f'"identity_valid": {word}' in text


def test_main_builds_the_parser_once(tmp_path, monkeypatch):
    from ergonoise import cli

    real, built = cli.build_parser, []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    args = ["single", "--channel", "bf", "--bloch", "0.6,0.5,0.4", "--q", "0,1,5"]
    assert run(args + ["-o", str(tmp_path / "a.csv")]) == 0
    assert run(args + ["-o", str(tmp_path / "b.csv")]) == 0
    assert built == [1]
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    # a reused parser starts every parse from the defaults
    assert cli._parser().parse_args(["census", "--channel", "bf", "--seed", "3"]).seed == 3
    assert cli._parser().parse_args(["census", "--channel", "bf"]).seed == 7
