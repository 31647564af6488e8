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
from wigcorr import wigner_mc
from wigcorr.numeric_core import scaled_to_real_checked
from wigcorr.wigner_mc import (
    DIST_KINDS,
    EIGEN_ROUTE_ABOVE,
    MC_MAX_N,
    EntryDist,
    MCConfig,
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


@pytest.mark.parametrize("tv", [0.5, 1.0])
@pytest.mark.parametrize("seed", [0, 20240917])
def test_entry_dist_draw_is_numpys_own_sampler(tv, seed):
    def draw(kind, p=0.5):
        return EntryDist(kind, tv, two_point_p=p).draw(sample_rng(seed, 3), 2000)

    def numpy_rng():
        return sample_rng(seed, 3)

    sd, c = math.sqrt(tv), math.sqrt(3.0 * tv)
    assert _same_bytes(draw("gaussian"), numpy_rng().normal(0.0, sd, 2000))
    assert _same_bytes(draw("uniform"), numpy_rng().uniform(-c, c, 2000))
    assert _same_bytes(draw("rademacher"),
                       np.where(numpy_rng().random(2000) < 0.5, sd, -sd))
    p = 0.3
    got = draw("two_point", p)
    np.testing.assert_array_equal(got > 0.0, numpy_rng().random(2000) < p)
    hi, lo = got.max(), got.min()
    assert set(np.unique(got)) == {hi, lo}
    # the two atoms give mean 0 and variance tv up to rounding
    assert abs(p * hi + (1.0 - p) * lo) <= 4e-16 * hi
    assert p * hi * hi + (1.0 - p) * lo * lo == pytest.approx(tv, rel=4e-16)


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
    with pytest.raises(DomainError, match="unknown entry distribution 'cauchy'"):
        EntryDist("cauchy", 0.5)
    for p in (0.0, 1.0):
        with pytest.raises(DomainError, match=f"two_point_p must be in \\(0, 1\\), got {p}"):
            EntryDist("two_point", 0.5, two_point_p=p)
    for variance in (-1.0, 0.0, math.nan):
        with pytest.raises(DomainError, match="m2"):
            EntryDist("uniform", variance)
    # the ensemble's variance rule is MCConfig's: a law at a variance no
    # ensemble fixes is built, and refused by the configuration
    with pytest.raises(DomainError, match="needs entry variance 0.5"):
        MCConfig(HERM, EntryDist("gaussian", 0.7), 4, 1000, 0)


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
    with pytest.raises(DomainError):
        MCConfig(HERM, dist, 4, 1000, 0, points=((math.inf, 0.0),))


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


def _slogdet_reference(mats, lambdas):
    eye = np.eye(mats.shape[-1])
    out = [np.linalg.slogdet(mats - lam * eye) for lam in lambdas]
    return (np.stack([np.sign(o.sign.real) for o in out], axis=1),
            np.stack([o.logabsdet for o in out], axis=1))


def _many_lambdas(count):
    return tuple(np.linspace(-2.2, 2.2, count).tolist())


@pytest.mark.parametrize("kind", [HERM, SYM])
@pytest.mark.parametrize("law", DIST_KINDS)
def test_eigen_route_agrees_with_slogdet_per_sample(kind, law):
    eps = np.finfo(float).eps
    for n in (1, 4, 16, 64):
        cfg = MCConfig(kind, dist_for(law, kind, two_point_p=0.3), n, 100, 31)
        lambdas = _many_lambdas(EIGEN_ROUTE_ABOVE + 3)
        signs, logs = _collect_dets(cfg, lambdas)
        mats = _draw_chunk(cfg, 0, cfg.samples)
        ref_signs, ref_logs = _slogdet_reference(mats, lambdas)
        np.testing.assert_array_equal(signs, ref_signs)
        # Both routes are backward stable: eigvalsh returns each lambda_i
        # within about n eps |X| of the exact one, and slogdet factors
        # X - lambda + E with |E| within about n eps |X - lambda|. Either
        # moves log|det(X - lambda)| = sum_i log|lambda_i - lambda| by at
        # most |E| sum_i 1/|lambda_i - lambda| to first order; summing n
        # logs adds n eps sum_i |log|lambda_i - lambda||.
        eigs = np.linalg.eigvalsh(mats)
        norm = np.abs(eigs).max(axis=1)
        for j, lam in enumerate(lambdas):
            gaps = np.abs(eigs - lam)
            tol = n * eps * (2.0 * (norm + abs(lam)) * (1.0 / gaps).sum(axis=1)
                             + 2.0 * np.abs(np.log(gaps)).sum(axis=1))
            assert np.all(np.abs(logs[:, j] - ref_logs[:, j]) <= tol), (n, lam)


def test_exact_singular_sample_on_both_routes():
    # n = 1 Rademacher real symmetric samples are exactly +-sqrt(2)
    cfg = MCConfig(SYM, dist_for("rademacher", SYM), 1, 100, 4)
    root = math.sqrt(2.0)
    values = _draw_chunk(cfg, 0, cfg.samples)[:, 0, 0]
    assert set(values.tolist()) == {root, -root}
    few = (root, -root)
    many = few + _many_lambdas(EIGEN_ROUTE_ABOVE)
    for lambdas in (few, many):
        signs, logs = _collect_dets(cfg, lambdas)
        for j, lam in enumerate(few):
            hit = values == lam
            assert np.all(signs[hit, j] == 0.0)
            assert np.all(logs[hit, j] == -np.inf)
            assert np.all(signs[~hit, j] != 0.0)
            assert np.all(np.isfinite(logs[~hit, j]))


def test_route_selected_by_lambda_count(monkeypatch):
    calls = {"slogdet": 0, "eigvalsh": 0}
    for name in calls:
        def counted(*args, _real=getattr(np.linalg, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(np.linalg, name, counted)
    monkeypatch.setenv("RMT_THREADS", "1")
    cfg = MCConfig(SYM, dist_for("uniform", SYM), 5, 300, 8)
    at = _many_lambdas(EIGEN_ROUTE_ABOVE)
    signs, logs = _collect_dets(cfg, at)
    assert calls == {"slogdet": EIGEN_ROUTE_ABOVE, "eigvalsh": 0}
    # at the crossover the values are the per-lambda slogdet ones exactly
    ref_signs, ref_logs = _slogdet_reference(_draw_chunk(cfg, 0, cfg.samples), at)
    assert _same_bytes(signs, ref_signs) and _same_bytes(logs, ref_logs)
    calls.update(slogdet=0, eigvalsh=0)
    _collect_dets(cfg, _many_lambdas(EIGEN_ROUTE_ABOVE + 1))
    assert calls == {"slogdet": 0, "eigvalsh": 1}


def test_estimate_f_rejects_rotated_determinant(monkeypatch):
    # det [[0, 1], [5j, 0]] = -5j: a Hermitian-ensemble determinant with
    # that phase is refused, not rounded to a real sign
    rotated = np.array([[0.0, 1.0], [5.0j, 0.0]])
    monkeypatch.setattr(wigner_mc, "_draw_chunk",
                        lambda cfg, start, count: np.stack([rotated] * count))
    cfg = MCConfig(HERM, dist_for("gaussian", HERM), 2, 100, 0)
    with pytest.raises(NumericalConsistencyError, match="imaginary residue"):
        estimate_f(cfg)


def test_estimates_independent_of_thread_count(monkeypatch):
    # 1200 samples at n = 64 span three chunks (510 samples each), and
    # 9000 at n = 16 three chunks (3971 each) on the eigenvalue route, so
    # this exercises multi-chunk stitching under both worker counts
    lambdas = _many_lambdas(EIGEN_ROUTE_ABOVE + 2)
    many = tuple(zip(lambdas[::2], lambdas[1::2]))
    for cfg in (
        MCConfig(HERM, dist_for("gaussian", HERM), 64, 1200, 9,
                 points=((0.0, 0.5),)),
        MCConfig(SYM, dist_for("two_point", SYM, two_point_p=0.3), 16, 9000,
                 9, points=many),
    ):
        assert cfg.samples > 2 * _chunk_size(cfg)
        monkeypatch.setenv("RMT_THREADS", "1")
        serial = estimate_f(cfg)
        monkeypatch.setenv("RMT_THREADS", "3")
        threaded = estimate_f(cfg)
        assert [e.mean for e in serial] == [e.mean for e in threaded]
        assert [e.stderr for e in serial] == [e.stderr for e in threaded]


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
    (val, spread), = estimate_sigma_detail(cfg)
    assert val == 1.0
    assert spread == 0.0
