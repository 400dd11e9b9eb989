import numpy as np
import pytest

from ergonoise.channels import AMPLITUDE_DAMPING, CORRELATED_BIT_FLIP, UNITAL_KINDS
from ergonoise.correlations import (
    correlation_work,
    gcc_bds,
    gcc_trace_norm,
    gqc_bds,
    gqc_trace_norm,
)
from ergonoise.matcore import herm_eig
from ergonoise.qstate import bds_eigenvalues, make_bds


def random_nonneg_separable(rng):
    c = rng.uniform(0, 1, size=3)
    return c / (c.sum() + rng.uniform(0.01, 1.0))


def test_closed_form_values():
    assert gqc_bds([0.5, 0.3, 0.1]) == 0.3
    assert gcc_bds([0.5, 0.3, 0.1]) == 0.5
    assert gqc_bds([0, 0, 0]) == 0.0
    assert gcc_bds([0, 0, 0]) == 0.0
    assert gqc_bds([0.3, 0.3, 0.1]) == 0.3
    assert gcc_bds([0.3, 0.3, 0.1]) == 0.3
    with pytest.raises(ValueError, match="nonnegative"):
        gqc_bds([-0.2, 0.3, 0.1])


def test_trace_norm_route_matches_closed_forms():
    assert gqc_trace_norm([0.5, 0.3, 0.1]) == pytest.approx(0.3, abs=1e-10)
    assert gcc_trace_norm([0.5, 0.3, 0.1]) == pytest.approx(0.5, abs=1e-10)
    assert gqc_trace_norm([0.4, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
    assert gqc_trace_norm([0.4, 0.4, 0.2]) == pytest.approx(0.4, abs=1e-10)
    rng = np.random.default_rng(2)
    for _ in range(100):
        c = random_nonneg_separable(rng)
        assert gqc_trace_norm(c) == pytest.approx(gqc_bds(c), abs=1e-10)
        assert gcc_trace_norm(c) == pytest.approx(gcc_bds(c), abs=1e-10)


def test_trace_norm_route_accepts_signed_parameters():
    # the closed forms reject signs; the distance route does not
    assert gqc_trace_norm([-0.5, 0.3, 0.1]) == pytest.approx(0.3, abs=1e-10)


def test_gqc_never_exceeds_gcc():
    rng = np.random.default_rng(3)
    for _ in range(200):
        c = random_nonneg_separable(rng)
        assert gqc_bds(c) <= gcc_bds(c) + 1e-15


def test_bds_eigenvalues_examples():
    assert np.allclose(bds_eigenvalues([0, 0, 0]), [0.25] * 4)
    vals = bds_eigenvalues([0.5, 0.3, 0.1])
    assert np.allclose(vals, [0.025, 0.425, 0.325, 0.225], atol=1e-15)


def test_bds_eigenvalues_match_diagonalization():
    rng = np.random.default_rng(5)
    for _ in range(500):
        c = rng.uniform(-1, 1, size=3)
        c = c / (np.abs(c).sum() + rng.uniform(0.01, 1.0))
        closed = np.sort(bds_eigenvalues(c))
        direct = herm_eig(make_bds(c)).eigenvalues
        assert np.abs(closed - direct).max() <= 1e-12


def test_correlation_work_identity_examples():
    rep = correlation_work([0.5, 0.3, 0.1], "bf", 0.5, True)
    assert rep.total_ergotropy == pytest.approx(0.2875, abs=1e-10)
    assert rep.gcc == pytest.approx(0.5, abs=1e-12)
    assert rep.gqc == pytest.approx(0.075, abs=1e-12)
    assert abs(rep.residual) <= 1e-10
    assert rep.identity_valid


def test_identity_holds_at_zero_noise():
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = random_nonneg_separable(rng)
        rep = correlation_work(c, "bf", 0.0, True)
        assert abs(rep.residual) <= 1e-10
        assert rep.average == pytest.approx((rep.gqc + rep.gcc) / 2, abs=1e-15)


def test_identity_breaks_under_amplitude_damping():
    rep = correlation_work([0.5, 0.3, 0.1], "ad", 0.5, True)
    assert not rep.identity_valid
    assert abs(rep.residual) > 1e-3


def test_identity_across_unital_kinds():
    rng = np.random.default_rng(9)
    qs = np.linspace(0, 1, 5)
    for kind in UNITAL_KINDS:
        for _ in range(10):
            c = random_nonneg_separable(rng)
            for q in qs:
                for both in (True, False):
                    rep = correlation_work(c, kind, q, both)
                    assert abs(rep.residual) <= 1e-10


@pytest.mark.parametrize(
    "kind, both",
    [(kind, both) for kind in UNITAL_KINDS + (AMPLITUDE_DAMPING,) for both in (True, False)]
    + [(CORRELATED_BIT_FLIP, True)],  # the correlated flip acts on the pair only
)
def test_stacked_curve_matches_per_q_checks(kind, both):
    c = [0.5, 0.3, 0.1]
    qs = np.linspace(0, 1, 23)
    curve = correlation_work(c, kind, qs, both)
    assert curve.identity_valid == (kind != AMPLITUDE_DAMPING)
    for i, q in enumerate(qs):
        rep = correlation_work(c, kind, q, both)
        assert rep.identity_valid == curve.identity_valid
        for name in ("gqc", "gcc", "average", "residual"):
            assert abs(getattr(rep, name) - getattr(curve, name)[i]) <= 1e-15
        for name, values in vars(curve.ergotropy).items():
            assert abs(getattr(rep.ergotropy, name) - values[i]) <= 1e-15


def test_residual_work_at_full_noise():
    # dominant protected component survives bit flip; phase flip keeps
    # only the frozen population part
    rep = correlation_work([0.5, 0.3, 0.1], "bf", 1.0, True)
    assert rep.total_ergotropy == pytest.approx(0.25, abs=1e-10)
    rep = correlation_work([0.5, 0.3, 0.1], "pf", 1.0, True)
    assert rep.total_ergotropy == pytest.approx(0.05, abs=1e-10)


def test_correlations_nonincreasing_in_q():
    rng = np.random.default_rng(11)
    qs = np.linspace(0, 1, 11)
    for kind in UNITAL_KINDS:
        for _ in range(10):
            c = random_nonneg_separable(rng)
            gq = [correlation_work(c, kind, q, True).gqc for q in qs]
            gc = [correlation_work(c, kind, q, True).gcc for q in qs]
            assert np.all(np.diff(gq) <= 1e-12)
            assert np.all(np.diff(gc) <= 1e-12)
