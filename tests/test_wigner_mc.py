"""Sampling route: determinism, entry laws, and estimator sanity."""

import math
import re

import numpy as np
import pytest

from wigcorr.errors import (
    DegenerateDenominatorError,
    DomainError,
    NumericalConsistencyError,
)
from wigcorr.exact_oracle import (
    EnsembleKind,
    gaussian_profile,
    oracle_f,
)
from wigcorr.egf_engine import sigma_alpha
from wigcorr.numeric_core import scaled_to_real_checked
from wigcorr.wigner_mc import (
    DIST_KINDS,
    MC_MAX_N,
    EntryDist,
    MCConfig,
    char_poly_value,
    dist_for,
    estimate_f,
    estimate_sigma_detail,
    moments_of,
    sample_matrix,
    sample_rng,
    thread_count,
    _assemble,
    _chunk_size,
    _collect_dets,
    _draw_chunk,
)

HERM = EnsembleKind.HERMITIAN
SYM = EnsembleKind.REAL_SYMMETRIC


def _layout_reference(hermitian, diag, re, im):
    """Reference layout: the strict upper triangle of the real (and
    imaginary) block, mirrored, plus sqrt(2) times the diagonal."""
    if hermitian:
        upper = np.triu(re + 1j * im, 1)
        return upper + upper.conj().T + np.diag(math.sqrt(2.0) * diag)
    upper = np.triu(re, 1)
    return upper + upper.T + np.diag(math.sqrt(2.0) * diag)


def _reference_matrix(cfg, seed, index):
    """One matrix from three separate draws (diagonal, upper real, upper
    imaginary) on the sample's own generator."""
    rng = sample_rng(seed, index)
    n = cfg.n
    diag = cfg.dist.draw(rng, n)
    re = cfg.dist.draw(rng, (n, n))
    im = cfg.dist.draw(rng, (n, n)) if cfg.ensemble == HERM else None
    return _layout_reference(cfg.ensemble == HERM, diag, re, im)


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.uint8), b.view(np.uint8)
    )


def test_moments_of_builtin_laws():
    m = moments_of(EntryDist("gaussian", 0.5))
    assert (m.m2, m.m3, m.m4) == (0.5, 0.0, 0.75)
    m = moments_of(EntryDist("rademacher", 1.0))
    assert (m.m2, m.m3, m.m4) == (1.0, 0.0, 1.0)
    m = moments_of(EntryDist("uniform", 1.0))
    assert (m.m2, m.m3, m.m4) == (1.0, 0.0, 1.8)


def test_moments_of_two_point():
    # p = 1/4, unit variance: atoms at sqrt(3) and -1/sqrt(3)
    m = moments_of(EntryDist("two_point", 1.0, two_point_p=0.25))
    assert m.m3 == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-14)
    assert m.m4 == pytest.approx(7.0 / 3.0, rel=1e-14)
    # p = 1/2 collapses to rademacher
    m = moments_of(EntryDist("two_point", 1.0, two_point_p=0.5))
    assert m.m3 == pytest.approx(0.0, abs=1e-15)
    assert m.m4 == pytest.approx(1.0, rel=1e-14)


def test_draws_realize_declared_moments():
    rng = sample_rng(123, 0)
    dist = EntryDist("two_point", 1.0, two_point_p=0.2)
    xs = dist.draw(rng, 200000)
    m = moments_of(dist)
    assert xs.mean() == pytest.approx(0.0, abs=0.01)
    assert (xs ** 2).mean() == pytest.approx(m.m2, abs=0.03)
    assert (xs ** 3).mean() == pytest.approx(m.m3, abs=0.05)


def test_dist_for_variance_by_ensemble():
    assert dist_for("gaussian", HERM).target_variance == 0.5
    assert dist_for("gaussian", SYM).target_variance == 1.0
    assert dist_for("two_point", SYM, two_point_p=0.3).two_point_p == 0.3


def test_entry_dist_validation():
    with pytest.raises(DomainError):
        EntryDist("cauchy", 1.0)
    with pytest.raises(DomainError):
        EntryDist("gaussian", 0.7)
    with pytest.raises(DomainError):
        EntryDist("two_point", 1.0, two_point_p=1.0)


def test_mc_config_validation():
    dist = dist_for("gaussian", HERM)
    with pytest.raises(DomainError):
        MCConfig(HERM, dist, 0, 1000, 0)
    with pytest.raises(DomainError):
        MCConfig(HERM, dist, MC_MAX_N + 1, 1000, 0)
    with pytest.raises(DomainError):
        MCConfig(HERM, dist, 4, 50, 0)
    with pytest.raises(DomainError):
        MCConfig(SYM, dist, 4, 1000, 0)  # hermitian-variance entries
    with pytest.raises(DomainError):
        MCConfig(HERM, dist, 4, 1000, 0, points=((0.0,),))


@pytest.mark.parametrize("seed", [-1, 2 ** 128, 1.5, 3.0, True, "7", None])
def test_mc_config_rejects_bad_seed(seed):
    with pytest.raises(DomainError):
        MCConfig(HERM, dist_for("gaussian", HERM), 4, 1000, seed)


def test_mc_config_accepts_full_key_range():
    dist = dist_for("gaussian", HERM)
    for seed in (0, 2 ** 64, 2 ** 128 - 1):
        assert MCConfig(HERM, dist, 4, 1000, seed).seed == seed


def test_thread_count_env(monkeypatch):
    monkeypatch.setenv("RMT_THREADS", "3")
    assert thread_count() == 3
    monkeypatch.setenv("RMT_THREADS", "0")
    assert 1 <= thread_count() <= 8
    monkeypatch.delenv("RMT_THREADS", raising=False)
    assert 1 <= thread_count() <= 8
    monkeypatch.setenv("RMT_THREADS", "abc")
    with pytest.raises(DomainError):
        thread_count()
    monkeypatch.setenv("RMT_THREADS", "-1")
    with pytest.raises(DomainError):
        thread_count()


def test_sample_matrix_structure():
    cfg_h = MCConfig(HERM, dist_for("rademacher", HERM), 8, 1000, 5)
    mat = sample_matrix(cfg_h, sample_rng(5, 0))
    assert mat.dtype == complex
    np.testing.assert_array_equal(mat, mat.conj().T)
    # rademacher diagonal lands exactly on +-1 after the sqrt(2) scale
    np.testing.assert_allclose(np.abs(np.diag(mat)), 1.0, rtol=0, atol=1e-15)

    cfg_s = MCConfig(SYM, dist_for("gaussian", SYM), 8, 1000, 5)
    mat_s = sample_matrix(cfg_s, sample_rng(5, 0))
    assert mat_s.dtype == float
    np.testing.assert_array_equal(mat_s, mat_s.T)


def test_sample_matrix_is_reproducible():
    cfg = MCConfig(HERM, dist_for("gaussian", HERM), 6, 1000, 42)
    a = sample_matrix(cfg, sample_rng(42, 17))
    b = sample_matrix(cfg, sample_rng(42, 17))
    np.testing.assert_array_equal(a, b)
    c = sample_matrix(cfg, sample_rng(42, 18))
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("kind", [HERM, SYM])
@pytest.mark.parametrize("law", DIST_KINDS)
def test_chunk_draw_is_bit_identical_to_per_sample_reference(kind, law):
    for n in (1, 2, 4, 7):
        cfg = MCConfig(kind, dist_for(law, kind, two_point_p=0.3), n, 1000, 2024)
        start, count = 37, 5
        stack = _draw_chunk(cfg, start, count)
        assert stack.shape == (count, n, n)
        for c in range(count):
            one = sample_matrix(cfg, sample_rng(cfg.seed, start + c))
            assert _same_bytes(stack[c], one), (n, c)
            assert _same_bytes(one, _reference_matrix(cfg, cfg.seed, start + c))


@pytest.mark.parametrize("kind", [HERM, SYM])
def test_assembly_keeps_reference_signed_zeros(kind):
    n = 3
    cfg = MCConfig(kind, dist_for("gaussian", kind), n, 1000, 0)
    blocks = 2 if kind == HERM else 1
    draws = np.arange(1.0, 1.0 + n + blocks * n * n)
    draws[::2] = -0.0
    draws[1::4] = 0.0
    diag, rest = draws[:n], draws[n:]
    re = rest[:n * n].reshape(n, n)
    im = rest[n * n:].reshape(n, n) if kind == HERM else None
    got = _assemble(cfg, draws[None, :])[0]
    assert _same_bytes(got, _layout_reference(kind == HERM, diag, re, im))


def test_collect_dets_across_chunk_boundary():
    cfg = MCConfig(HERM, dist_for("gaussian", HERM), 64, 1200, 9)
    assert cfg.samples > 2 * _chunk_size(cfg)
    lambdas = (0.0, 0.5)
    signs, logs = _collect_dets(cfg, lambdas)
    eye = np.eye(cfg.n)
    for i in range(cfg.samples):
        mat = _reference_matrix(cfg, cfg.seed, i)
        for j, lam in enumerate(lambdas):
            sgn, logabs = np.linalg.slogdet(mat - lam * eye)
            assert signs[i, j] == np.sign(sgn.real)
            assert logs[i, j] == logabs


def test_char_poly_value_exact_cases():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    v = char_poly_value(x, 0.0)
    assert v.sign == -1 and v.log_mag == pytest.approx(0.0, abs=1e-14)
    # lam = 1 is an eigenvalue: exactly singular shift
    assert char_poly_value(x, 1.0).is_zero()
    with pytest.raises(DomainError):
        char_poly_value(x, math.inf)


def test_char_poly_value_hermitian_complex():
    x = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
    v = char_poly_value(x, 0.0)
    assert v.sign == -1 and v.log_mag == pytest.approx(0.0, abs=1e-14)


def test_char_poly_value_rejects_rotated_determinant():
    x = np.array([[0.0, 1.0], [5.0j, 0.0]])
    with pytest.raises(NumericalConsistencyError):
        char_poly_value(x, 0.0)


def test_estimates_independent_of_thread_count(monkeypatch):
    # 1200 samples at n = 64 span three chunks (510 samples each), so
    # this exercises multi-chunk stitching under both worker counts
    cfg = MCConfig(
        HERM, dist_for("gaussian", HERM), 64, 1200, 9, points=((0.0, 0.5),)
    )
    monkeypatch.setenv("RMT_THREADS", "1")
    serial, = estimate_f(cfg)
    monkeypatch.setenv("RMT_THREADS", "3")
    threaded, = estimate_f(cfg)
    assert serial.mean == threaded.mean
    assert serial.stderr == threaded.stderr
    assert serial.samples_used == threaded.samples_used == 1200


def test_estimate_f_matches_oracle():
    cfg = MCConfig(
        HERM, dist_for("gaussian", HERM), 3, 20000, 11, points=((0.3, -0.7),)
    )
    est, = estimate_f(cfg)
    got = scaled_to_real_checked(est.mean)
    err = scaled_to_real_checked(est.stderr)
    want = oracle_f(HERM, gaussian_profile(HERM), 3, 0.3, -0.7)
    assert abs(got - want) < 4.0 * err
    assert err < 0.1 * abs(want)


def test_estimate_f_seed_sensitivity():
    base = dict(ensemble=SYM, dist=dist_for("rademacher", SYM), n=4,
                samples=500, points=((0.0, 0.0),))
    a, = estimate_f(MCConfig(seed=0, **base))
    b, = estimate_f(MCConfig(seed=1, **base))
    assert a.mean != b.mean


def test_estimate_sigma_detail():
    cfg = MCConfig(
        HERM, dist_for("gaussian", HERM), 4, 20000, 7, points=((0.0, 1.0),)
    )
    (val, spread), = estimate_sigma_detail(cfg)
    want = sigma_alpha(1.0, 0.0, 0.0, 1.0, 4)
    assert spread > 0.0
    assert abs(val - want) < 5.0 * spread


def test_estimate_sigma_detail_batch_guard():
    cfg = MCConfig(HERM, dist_for("gaussian", HERM), 4, 100, 7)
    with pytest.raises(DomainError):
        estimate_sigma_detail(cfg, batches=25)


def test_estimate_sigma_batch_failure_names_the_batch():
    # The whole 200-sample estimate is fine (about 0.50); one 10-sample
    # batch has a nonpositive variance, and the error must say so.
    cfg = MCConfig(
        HERM, dist_for("gaussian", HERM), 4, 200, 10, points=((0.3, -0.7),)
    )
    with pytest.raises(DegenerateDenominatorError) as info:
        estimate_sigma_detail(cfg)
    msg = str(info.value)
    assert "at point (0.3, -0.7)" in msg
    assert re.search(r"batch index \d+ of 20 batches \(10 samples;", msg)
    assert "whole-sample estimate is 0.503" in msg


def test_estimate_sigma_degenerate_point_is_unit():
    cfg = MCConfig(
        HERM, dist_for("gaussian", HERM), 4, 500, 3, points=((0.7, 0.7),)
    )
    (val, spread), = estimate_sigma_detail(cfg, batches=20)
    assert val == 1.0
    assert spread == 0.0
