"""Tests of the benchmark's own arithmetic, tracer and checker.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy.linalg  # noqa: E402

import check  # noqa: E402
import run  # noqa: E402
from layertrace import Tracer, op_profile, self_times  # noqa: E402
from probe import normalize  # noqa: E402
from workloads import Call  # noqa: E402

cli = run.import_cli()
from ergonoise import experiments, qstate, workx  # noqa: E402


class FixedProbe:
    def time(self):
        return 0.01


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("a", 0.0, 10.0, -1, 0, None),
        ("b", 1.0, 4.0, 0, 0, None),
        ("c", 3.0, 6.0, 0, 0, None),  # overlaps b: the union [1, 6] counts once
        ("d", 2.0, 3.0, 1, 0, None),
        ("e", 9.0, 12.0, 0, 0, None),  # runs past its parent: only [9, 10] counts
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 3.0 - 1.0, 3.0, 1.0, 3.0])


def test_normalization_scales_by_the_mean_adjacent_probe():
    assert normalize(2.0, 0.01, 0.03, ref_s=0.02) == pytest.approx(2.0)
    assert normalize(1.0, 0.02, 0.02, ref_s=0.01) == pytest.approx(0.5)
    # a host twice as slow doubles raw time and probe time alike
    assert normalize(3.0, 0.04, 0.04, ref_s=0.01) == pytest.approx(normalize(1.5, 0.02, 0.02, ref_s=0.01))


def test_rebinding_reaches_names_imported_from_other_modules():
    originals = {
        "experiments": experiments.symmetrized_multipartite,
        "workx": workx.total_spin_squared,
        "eigvalsh": numpy.linalg.eigvalsh,
        "cli": cli.main,
    }
    tracer = Tracer()
    with tracer:
        assert experiments.symmetrized_multipartite is not originals["experiments"]
        assert qstate.symmetrized_multipartite is experiments.symmetrized_multipartite
        assert workx.total_spin_squared is not originals["workx"]
        experiments.scaling_run(kinds=["pf"], n_values=[2], q_points=3)
    assert experiments.symmetrized_multipartite is originals["experiments"]
    assert qstate.symmetrized_multipartite is originals["experiments"]
    assert workx.total_spin_squared is originals["workx"]
    assert numpy.linalg.eigvalsh is originals["eigvalsh"]
    assert cli.main is originals["cli"]
    names = {span[0] for span in tracer.spans}
    assert {"qstate.symmetrized_multipartite", "experiments.scaling_run",
            "qstate.total_spin_squared", "linalg.eigvalsh"} <= names
    parents = {tracer.spans[s[3]][0] for s in tracer.spans if s[0] == "qstate.symmetrized_multipartite"}
    assert parents == {"experiments.scaling_run"}


def test_traced_census_reproduces_the_exact_counts(tmp_path):
    calls = [Call("census_dc", ("census", "--channel", "dc", "--count", "2", "--q-points", "5"), 10, 2)]
    tracer = Tracer()
    with tracer:
        timing, outputs, errors = run.run_op(cli, calls, tmp_path, FixedProbe(), 0.01, tracer)
    assert errors == []
    size = sum(len(a) + len(b) for a, b in outputs.values())
    profile = op_profile(tracer.spans, timing[0]["raw_s"], 10, {"census_dc": 10}, size)
    assert profile["channels.apply_local.per_point"] == 1.0
    assert profile["workx.decompose.calls_per_op"] == 2 * (5 + 1)
    assert profile["workx.decompose.eigvalsh_per_call"] == 4.0
    assert profile["qstate.total_spin_squared.per_collective_decompose"] == 1.0
    assert profile["io.bytes_per_op"] == size > 0
    assert 0.0 < profile["workx.decompose.share"] < 1.0


def _single_output(tmp_path):
    calls = [Call("single", ("single", "--channel", "ad", "--bloch=0.3,0.2,-0.5", "--q", "0,1,11"), 11, 11)]
    timing, outputs, errors = run.run_op(cli, calls, tmp_path, FixedProbe(), 0.01)
    assert errors == [] and len(timing) == 1
    return calls, outputs["single"]


def test_checker_flags_a_value_perturbed_by_1e6(tmp_path):
    calls, (csv_bytes, meta_bytes) = _single_output(tmp_path)
    columns, meta = check.parse_output(csv_bytes, meta_bytes)
    reference = {"columns": columns, "meta": meta}
    assert check.compare(reference, columns, meta) == []
    assert run.check_outputs(calls, {"single": (csv_bytes, meta_bytes)}) == []

    lines = csv_bytes.decode().split("\n")
    cells = lines[5].split(",")
    cells[2] = repr(float(cells[2]) + 1e-6)
    lines[5] = ",".join(cells)
    perturbed, _ = check.parse_output("\n".join(lines).encode(), meta_bytes)
    errors = check.compare(reference, perturbed, meta)
    assert len(errors) == 1 and "csv." in errors[0]

    bad_meta = dict(meta, branch_q=meta["branch_q"] + 1e-6)
    assert check.compare(reference, columns, bad_meta)


def test_checker_flags_broken_invariants():
    columns = {"q": [0.0, 1.0], "W": [0.1, -1e-9], "WI": [0.0, 0.0], "WC": [0.1, 0.3], "C": [0.2, 0.2]}
    errors = check.invariant_errors("single", 2, columns, {})
    assert any("W = " in e for e in errors) and any("C/2" in e for e in errors)
    assert check.invariant_errors("lindblad_bf", 2, {"t": [0.0, 1.0]}, {"max_deviation": 2e-6})
    assert check.invariant_errors("census_bf", 1, {"area_ap": [0.1]}, {"fraction_enhancing": 1.5})
    assert check.invariant_errors("single", 3, columns, {})  # row count


def test_run_op_reports_a_nonzero_exit(tmp_path):
    calls = [Call("single", ("single", "--channel", "ad", "--bloch=0.9,0.9,0.9"), 101, 101),
             Call("census_bf", ("census", "--channel", "nosuch"), 101, 1)]
    timing, outputs, errors = run.run_op(cli, calls, tmp_path, FixedProbe(), 0.01)
    assert outputs == {}
    assert errors[0].startswith("single: exit 1")
    assert errors[1].startswith("census_bf: exit")
    assert len(timing) == 2
