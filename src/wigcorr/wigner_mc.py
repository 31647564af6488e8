"""Monte Carlo sampling of Wigner ensembles.

The sample stream is cut into blocks of B = max(1, BLOCK_WORDS // w)
consecutive samples, where w is the number of raw variates one sample
draws. Block b is drawn from the Philox counter-mode substream at
counter [0, 0, 0, b] of the seed's key, in one call that fills its rows
with the law's raw variates (standard normals or uniforms) in sample
order, so sample i is row i % B of block i // B. The block is the unit
of work: it depends only on the configuration, so estimates are
bit-identical for a fixed seed no matter how sampling is threaded. The
law's map to entries then runs once over the block, in place, and the
whole stack of matrices is assembled at once; a block holds at most
1 MB of draws and matrices, or one sample where a sample alone is
larger. sample_rng and sample_matrix give the same matrix one sample at
a time.

Each block is factored by one of two routes, and neither copies the
stack. With at most EIGEN_ROUTE_ABOVE distinct lambdas, slogdet factors
X - lambda once per lambda, with lambda subtracted from a saved copy of
the diagonal into the stack's own. With more, one batched eigvalsh
gives the spectrum, and
sign det(X - lambda) and log|det(X - lambda)| = sum_i log|lambda_i -
lambda| follow one lambda at a time; the two routes agree to rounding,
and an exact eigenvalue reads sign 0 and log -inf on both. Determinant
values live in log space from the moment they are computed; sample
means use a running max-exponent shift.

Validation-only at small n by design: the relative spread of the
determinant product grows with matrix size, so convergence claims about
scaled limits are always checked through the deterministic routes.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.random import Generator, Philox

from .errors import DomainError, NumericalConsistencyError, check_finite, check_order
from .exact_oracle import (EnsembleKind, MomentProfile, check_profile, ensemble_variance,
                           law_moments)
from .numeric_core import ZERO, ScaledReal
from .special_fn import char_poly_mean, sigma_from_moments

__all__ = [
    "EntryDist",
    "MCConfig",
    "MCEstimate",
    "dist_for",
    "moments_of",
    "thread_count",
    "sample_rng",
    "sample_matrix",
    "estimate_f",
    "estimate_sigma_detail",
]

MC_MAX_N = 256
MC_MIN_SAMPLES = 100
SEED_LIMIT = 1 << 128  # a Philox key is two 64-bit words
# Raw variates per block of the stream (512 KB of doubles). At n = 4 a
# block is thousands of samples, so one generator and one fill serve them
# all; from n = 128 (Hermitian) on it is one sample, whose draw outweighs
# the generator's construction by two orders of magnitude.
BLOCK_WORDS = 1 << 16
# RMT_THREADS is refused above this; a pool never has more workers than
# blocks either.
MAX_THREADS = 64
DET_IMAG_TOL = 1e-7
# Above this many distinct lambdas a block is factored once, by its
# eigenvalues, instead of once per lambda by slogdet: one batched eigvalsh
# costs about 3 to 5 slogdet calls at n = 4..256 in both ensembles (2 cores).
EIGEN_ROUTE_ABOVE = 8

DIST_KINDS = ("gaussian", "rademacher", "uniform", "two_point")


@dataclass(frozen=True)
class EntryDist:
    """Entry distribution with exactly the requested mean and variance.

    two_point places mass p at a positive value and 1-p at a negative
    one, sized so the mean is 0 and the variance is target_variance; p
    away from 1/2 makes it skewed, which is what the universality checks
    want to stress. MCConfig admits only the variance its ensemble fixes.
    """

    kind: str
    target_variance: float
    two_point_p: float = 0.5

    def __post_init__(self):
        # law_moments refuses an unknown law and p outside (0, 1), and
        # MomentProfile a variance not positive and finite
        moments_of(self)

    def map_raw(self, raw: np.ndarray) -> np.ndarray:
        """Map raw variates to entries in place and return them; each
        law's one formula, the arithmetic of numpy's normal(0, sd),
        uniform(-c, c) and random() < p samplers, so draw's output is
        theirs bit for bit."""
        tv = self.target_variance
        if self.kind == "gaussian":
            raw *= math.sqrt(tv)
            raw += 0.0  # normal() adds loc after scaling, so -0.0 reads 0.0
        elif self.kind == "uniform":
            c = math.sqrt(3.0 * tv)
            raw *= 2.0 * c
            raw += -c
        else:
            # Rademacher is the two-point law at p = 1/2: its atoms are
            # then exactly +-sqrt(tv).
            p = 0.5 if self.kind == "rademacher" else self.two_point_p
            hi = math.sqrt(tv) * math.sqrt((1.0 - p) / p)
            lo = -math.sqrt(tv) * math.sqrt(p / (1.0 - p))
            take_hi = raw < p
            raw.fill(lo)
            np.copyto(raw, hi, where=take_hi)
        return raw

    def draw(self, rng: Generator, size) -> np.ndarray:
        """Entries from one fill of rng with the raw variates the law
        maps: standard normals for the Gaussian law, uniforms on [0, 1)
        for the others."""
        sampler = rng.standard_normal if self.kind == "gaussian" else rng.random
        return self.map_raw(sampler(size))


def moments_of(dist: EntryDist) -> MomentProfile:
    """Exact moments m2..m4 realized by an EntryDist."""
    return law_moments(dist.kind, dist.target_variance, dist.two_point_p)


def dist_for(kind: str, ensemble: EnsembleKind, two_point_p: float = 0.5) -> EntryDist:
    """EntryDist at the variance the ensemble requires."""
    return EntryDist(kind=kind, target_variance=ensemble_variance(ensemble),
                     two_point_p=two_point_p)


@dataclass(frozen=True)
class MCConfig:
    ensemble: EnsembleKind
    dist: EntryDist
    n: int
    samples: int
    seed: int
    points: tuple = field(default=((0.0, 0.0),))

    def __post_init__(self):
        check_order(self.n, 1, MC_MAX_N, "matrix size n =")
        check_order(self.samples, MC_MIN_SAMPLES, math.inf, "sample count")
        check_order(self.seed, 0, SEED_LIMIT - 1, "seed")
        check_profile(self.ensemble, moments_of(self.dist))
        if len(self.points) == 0:
            raise DomainError("no evaluation points")
        for pt in self.points:
            if not isinstance(pt, Sequence) or len(pt) != 2:
                raise DomainError(f"bad evaluation point {pt!r}")
            check_finite("evaluation point", *pt)


@dataclass(frozen=True)
class MCEstimate:
    mean: ScaledReal
    stderr: ScaledReal


def thread_count() -> int:
    """Worker cap from RMT_THREADS, at most MAX_THREADS; 0 or unset means
    automatic: the CPUs this process may run on, at most 8."""
    raw = os.environ.get("RMT_THREADS", "0").strip() or "0"
    try:
        requested = int(raw)
    except ValueError as exc:
        raise DomainError(f"RMT_THREADS must be an integer, got {raw!r}") from exc
    if not 0 <= requested <= MAX_THREADS:
        raise DomainError(f"RMT_THREADS must be in [0, {MAX_THREADS}], got {requested}")
    if requested == 0:
        # os.cpu_count() also counts CPUs this process may not run on
        if hasattr(os, "sched_getaffinity"):
            usable = len(os.sched_getaffinity(0))
        else:
            usable = os.cpu_count() or 1
        return min(usable, 8)
    return requested


def sample_rng(seed: int, block: int) -> Generator:
    """Counter-mode substream of one block of samples."""
    return Generator(Philox(key=seed, counter=[0, 0, 0, block]))


def _draw_width(cfg: MCConfig) -> int:
    """Entries one sample draws: the diagonal, then an n x n block of
    upper real parts, then (Hermitian) one of upper imaginary parts."""
    blocks = 2 if cfg.ensemble == EnsembleKind.HERMITIAN else 1
    return cfg.n + blocks * cfg.n * cfg.n


def _block_samples(cfg: MCConfig) -> int:
    """Samples per block of the stream."""
    return max(1, BLOCK_WORDS // _draw_width(cfg))


def _assemble(cfg: MCConfig, draws: np.ndarray) -> np.ndarray:
    """Stack of matrices from draws, one row of _draw_width entries per
    sample. Only the strict upper triangle of each n x n block is used."""
    n = cfg.n
    count = draws.shape[0]
    blocks = draws[:, n:].reshape(count, -1, n, n)
    hermitian = cfg.ensemble == EnsembleKind.HERMITIAN
    mats = np.empty((count, n, n), dtype=complex if hermitian else float)
    upper = np.triu(blocks[:, 0], 1)
    np.add(upper, upper.swapaxes(1, 2), out=mats.real)
    if hermitian:
        upper = np.triu(blocks[:, 1], 1)
        np.subtract(upper, upper.swapaxes(1, 2), out=mats.imag)
    diag = np.arange(n)
    mats.real[:, diag, diag] = math.sqrt(2.0) * draws[:, :n]
    # The mirrored triangle sums of the reference layout never leave a
    # -0.0; adding 0.0 does the same, so the bits match it exactly.
    mats += 0.0
    return mats


def sample_matrix(cfg: MCConfig, index: int) -> np.ndarray:
    """Matrix of sample index, one sample at a time: the block's generator
    draws the rows up to the sample's own, in the fixed draw order
    (diagonal, upper real, then upper imaginary for the Hermitian case)."""
    block, row = divmod(index, _block_samples(cfg))
    draws = cfg.dist.draw(sample_rng(cfg.seed, block), (row + 1, _draw_width(cfg)))
    return _assemble(cfg, draws[row:])[0]


def _draw_block(cfg: MCConfig, block: int) -> np.ndarray:
    """Matrices of block's samples; row r is sample_matrix(cfg, block * B
    + r) bit for bit, and the last block is cut at cfg.samples."""
    per_block = _block_samples(cfg)
    count = min(per_block, cfg.samples - block * per_block)
    draws = cfg.dist.draw(sample_rng(cfg.seed, block), (count, _draw_width(cfg)))
    return _assemble(cfg, draws)


def _collect_dets(cfg: MCConfig, lambdas: Sequence[float]):
    """Per-sample determinant signs and log magnitudes at each lambda.

    Output arrays are indexed [sample, lambda]; block workers write
    disjoint slices, so results do not depend on the worker count.
    """
    n, samples = cfg.n, cfg.samples
    hermitian = cfg.ensemble == EnsembleKind.HERMITIAN
    lam_arr = np.asarray(lambdas, dtype=float)
    signs = np.empty((samples, lam_arr.size), dtype=complex if hermitian else float)
    logs = np.empty((samples, lam_arr.size))
    per_block = _block_samples(cfg)

    def run_block(block: int) -> None:
        mats = _draw_block(cfg, block)
        rows = slice(block * per_block, block * per_block + mats.shape[0])
        if lam_arr.size <= EIGEN_ROUTE_ABOVE:
            # X - lambda in place, with the bits of X - lambda * I: off
            # the diagonal that subtracts +-0.0, which changes only a
            # -0.0, and assembly leaves none.
            diag = mats.reshape(mats.shape[0], -1)[:, ::n + 1]
            saved = diag.copy()
            for j, lam in enumerate(lam_arr):
                np.subtract(saved, lam, out=diag)
                signs[rows, j], logs[rows, j] = np.linalg.slogdet(mats)
            return
        eigs = np.linalg.eigvalsh(mats)
        gaps, work = np.empty_like(eigs), np.empty_like(eigs)
        for j, lam in enumerate(lam_arr):
            np.subtract(eigs, lam, out=gaps)
            signs[rows, j] = np.sign(gaps, out=work).prod(axis=1)
            np.abs(gaps, out=work)
            with np.errstate(divide="ignore"):  # an exact eigenvalue: -inf
                logs[rows, j] = np.log(work, out=work).sum(axis=1)

    blocks = range(-(-samples // per_block))
    with ThreadPoolExecutor(max_workers=min(thread_count(), len(blocks))) as pool:
        list(pool.map(run_block, blocks))

    if hermitian:
        worst = float(np.abs(signs.imag).max())
        if worst > DET_IMAG_TOL:
            raise NumericalConsistencyError(
                f"determinant imaginary residue {worst:.3e} above {DET_IMAG_TOL}"
            )
        signs = signs.real
    return np.sign(signs), logs


def _pair_samples(signs, logs, i: int, j: int):
    return signs[:, i] * signs[:, j], logs[:, i] + logs[:, j]


def _mean_scaled(pair_signs: np.ndarray, pair_logs: np.ndarray):
    """Shifted mean and standard error of sign * exp(log) samples."""
    count = pair_logs.shape[0]
    shift = float(pair_logs.max())
    if shift == -math.inf:  # every product is exactly zero
        return ZERO, ZERO
    vals = pair_signs * np.exp(pair_logs - shift)
    mean = float(vals.mean())
    sd = float(vals.std(ddof=1)) / math.sqrt(count)
    mean_scaled = ZERO if mean == 0.0 else ScaledReal(
        1 if mean > 0 else -1, shift + math.log(abs(mean)))
    err_scaled = ZERO if sd == 0.0 else ScaledReal(1, shift + math.log(sd))
    return mean_scaled, err_scaled


def _lambda_index(points) -> tuple:
    lambdas = []
    for mu, nu in points:
        for lam in (mu, nu):
            if lam not in lambdas:
                lambdas.append(lam)
    return tuple(lambdas)


def estimate_f(cfg: MCConfig):
    """MCEstimate of E[det(X - mu) det(X - nu)] at each configured point."""
    lambdas = _lambda_index(cfg.points)
    signs, logs = _collect_dets(cfg, lambdas)
    out = []
    for mu, nu in cfg.points:
        ps, pl = _pair_samples(signs, logs, lambdas.index(mu), lambdas.index(nu))
        mean, err = _mean_scaled(ps, pl)
        out.append(MCEstimate(mean=mean, stderr=err))
    return out


def _sigma_from_arrays(signs, logs, lambdas, mu, nu, means, where):
    i_mu, i_nu = lambdas.index(mu), lambdas.index(nu)
    f_cross, _ = _mean_scaled(*_pair_samples(signs, logs, i_mu, i_nu))
    f_mumu, _ = _mean_scaled(*_pair_samples(signs, logs, i_mu, i_mu))
    f_nunu, _ = _mean_scaled(*_pair_samples(signs, logs, i_nu, i_nu))
    return sigma_from_moments(
        f_cross, f_mumu, f_nunu, *means,
        f"nonpositive variance estimate at point ({mu}, {nu}) in {where}",
    )


def estimate_sigma_detail(cfg: MCConfig):
    """Plug-in correlation estimate with a batch-means standard error.

    The exact mean polynomial replaces the sample mean inside the
    estimator; the batch-means spread quantifies sampling noise.
    """
    # A batch of 5 or 10 samples often has a nonpositive variance estimate.
    batches = min(20, cfg.samples // 50)  # at least 50 samples each
    lambdas = _lambda_index(cfg.points)
    signs, logs = _collect_dets(cfg, lambdas)
    out = []
    edges = np.linspace(0, cfg.samples, batches + 1, dtype=int)
    for mu, nu in cfg.points:
        means = char_poly_mean(cfg.n, mu), char_poly_mean(cfg.n, nu)
        value = _sigma_from_arrays(
            signs, logs, lambdas, mu, nu, means,
            f"the whole sample ({cfg.samples} samples)",
        )
        batch_vals = []
        for b in range(batches):
            lo, hi = edges[b], edges[b + 1]
            batch_vals.append(_sigma_from_arrays(
                signs[lo:hi], logs[lo:hi], lambdas, mu, nu, means,
                f"batch index {b} of {batches} batches ({hi - lo} samples; "
                f"the whole-sample estimate is {value!r})",
            ))
        spread = float(np.std(batch_vals, ddof=1)) / math.sqrt(batches)
        out.append((value, spread))
    return out
