"""Monte Carlo sampling of Wigner ensembles.

Sample i is drawn from the Philox counter-mode substream at counter
[0, 0, 0, i] of the seed's key, so estimates are bit-identical for a
fixed seed no matter how sampling is chunked or threaded. A chunk of
samples reuses one Philox, moved to each sample's counter by assigning
its state, and fills each sample's row with the law's raw variates
(standard normals or uniforms) in one call; the law's map to entries
then runs once over the chunk, in place, and the whole stack of
matrices is assembled at once. sample_rng and sample_matrix give the
same matrix one sample at a time.

Each chunk is factored by one of two routes. With at most
EIGEN_ROUTE_ABOVE distinct lambdas, slogdet factors X - lambda once per
lambda. With more, one batched eigvalsh gives the spectrum, and
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
from .exact_oracle import EnsembleKind, MomentProfile, ensemble_variance, law_moments
from .numeric_core import ZERO, ScaledReal, scaled_from_log
from .special_fn import sigma_from_moments

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
DET_IMAG_TOL = 1e-7
# Above this many distinct lambdas a chunk is factored once, by its
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

    def raw_sampler(self, rng: Generator):
        """rng's sampler of the raw variates the law maps to entries:
        standard normals for the Gaussian law, uniforms on [0, 1) for
        the others. It takes a size or an out= array to fill."""
        return rng.standard_normal if self.kind == "gaussian" else rng.random

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
        return self.map_raw(self.raw_sampler(rng)(size))


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
        want = ensemble_variance(self.ensemble)
        if self.dist.target_variance != want:
            raise DomainError(
                f"{self.ensemble.value} ensemble needs entry variance {want}, "
                f"distribution has {self.dist.target_variance}"
            )
        for pt in self.points:
            if len(pt) != 2:
                raise DomainError(f"bad evaluation point {pt!r}")
            check_finite("evaluation point", *pt)


@dataclass(frozen=True)
class MCEstimate:
    mean: ScaledReal
    stderr: ScaledReal


def thread_count() -> int:
    """Worker cap from RMT_THREADS; 0 or unset means automatic."""
    raw = os.environ.get("RMT_THREADS", "0").strip() or "0"
    try:
        requested = int(raw)
    except ValueError as exc:
        raise DomainError(f"RMT_THREADS must be an integer, got {raw!r}") from exc
    if requested < 0:
        raise DomainError(f"RMT_THREADS must be >= 0, got {requested}")
    if requested == 0:
        return min(os.cpu_count() or 1, 8)
    return requested


def sample_rng(seed: int, index: int) -> Generator:
    """Counter-mode substream for one sample index."""
    return Generator(Philox(key=seed, counter=[0, 0, 0, index]))


def _draw_width(cfg: MCConfig) -> int:
    """Entries one sample draws: the diagonal, then an n x n block of
    upper real parts, then (Hermitian) one of upper imaginary parts."""
    blocks = 2 if cfg.ensemble == EnsembleKind.HERMITIAN else 1
    return cfg.n + blocks * cfg.n * cfg.n


def _assemble(cfg: MCConfig, draws: np.ndarray) -> np.ndarray:
    """Stack of matrices from draws, one row of _draw_width entries per
    sample. Only the strict upper triangle of each n x n block is used."""
    n = cfg.n
    count = draws.shape[0]
    blocks = draws[:, n:].reshape(count, -1, n, n)
    strict_upper = np.triu(np.ones((n, n), dtype=bool), 1)
    hermitian = cfg.ensemble == EnsembleKind.HERMITIAN
    mats = np.empty((count, n, n), dtype=complex if hermitian else float)
    upper = np.where(strict_upper, blocks[:, 0], 0.0)
    np.add(upper, upper.swapaxes(1, 2), out=mats.real)
    if hermitian:
        upper = np.where(strict_upper, blocks[:, 1], 0.0)
        np.subtract(upper, upper.swapaxes(1, 2), out=mats.imag)
    diag = np.arange(n)
    mats.real[:, diag, diag] = math.sqrt(2.0) * draws[:, :n]
    # The mirrored triangle sums of the reference layout never leave a
    # -0.0; adding 0.0 does the same, so the bits match it exactly.
    mats += 0.0
    return mats


def sample_matrix(cfg: MCConfig, rng: Generator) -> np.ndarray:
    """One ensemble matrix. Draw order is fixed (diagonal, upper real,
    then upper imaginary for the Hermitian case) so streams are stable."""
    return _assemble(cfg, cfg.dist.draw(rng, (1, _draw_width(cfg))))[0]


def _draw_chunk(cfg: MCConfig, start: int, count: int) -> np.ndarray:
    """Matrices of samples start .. start + count - 1, bit-identical to
    sample_matrix(cfg, sample_rng(cfg.seed, i)) for each sample i."""
    bitgen = Philox(key=cfg.seed)
    rng = Generator(bitgen)
    # A fresh state with the counter set is what sample_rng builds;
    # assigning it is several times cheaper than a new generator.
    state = bitgen.state
    counter = state["state"]["counter"]
    fill = cfg.dist.raw_sampler(rng)
    draws = np.empty((count, _draw_width(cfg)))
    for c in range(count):
        counter[3] = start + c
        bitgen.state = state
        fill(out=draws[c])
    return _assemble(cfg, cfg.dist.map_raw(draws))


def _chunk_size(cfg: MCConfig) -> int:
    # A chunk holds its raw draws and then its matrix stack; keep the two
    # together within 16 MB (the draws are freed before factorization).
    # glibc keeps freed blocks of up to 32 MB in its per-thread arenas, so
    # larger chunks leave peak RSS to depend on which worker thread got
    # which arena: at 64 MB it varied from 266 to 329 MB between identical
    # runs; at 16 MB it stays near 110 MB, in the same time.
    itemsize = 16 if cfg.ensemble == EnsembleKind.HERMITIAN else 8
    per_sample = 8 * _draw_width(cfg) + itemsize * cfg.n * cfg.n
    return min(4096, (16 << 20) // per_sample)


def _collect_dets(cfg: MCConfig, lambdas: Sequence[float]):
    """Per-sample determinant signs and log magnitudes at each lambda.

    Output arrays are indexed [sample, lambda]; chunk workers write
    disjoint slices, so results do not depend on the worker count.
    """
    n, samples = cfg.n, cfg.samples
    hermitian = cfg.ensemble == EnsembleKind.HERMITIAN
    lam_arr = np.asarray(lambdas, dtype=float)
    dtype = complex if hermitian else float
    signs = np.empty((samples, lam_arr.size), dtype=dtype)
    logs = np.empty((samples, lam_arr.size))
    chunk = _chunk_size(cfg)
    eye = np.eye(n, dtype=dtype)

    def run_chunk(start: int) -> None:
        rows = slice(start, min(start + chunk, samples))
        mats = _draw_chunk(cfg, start, rows.stop - start)
        if lam_arr.size <= EIGEN_ROUTE_ABOVE:
            for j, lam in enumerate(lam_arr):
                signs[rows, j], logs[rows, j] = np.linalg.slogdet(mats - lam * eye)
            return
        eigs = np.linalg.eigvalsh(mats)
        for j, lam in enumerate(lam_arr):
            gaps = eigs - lam
            signs[rows, j] = np.prod(np.sign(gaps), axis=1)
            with np.errstate(divide="ignore"):  # an exact eigenvalue: -inf
                logs[rows, j] = np.log(np.abs(gaps)).sum(axis=1)

    starts = range(0, samples, chunk)
    workers = thread_count()
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_chunk, starts))
    else:
        for start in starts:
            run_chunk(start)

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
    vals = pair_signs * np.exp(pair_logs - shift)
    mean = float(vals.mean())
    sd = float(vals.std(ddof=1)) / math.sqrt(count)
    mean_scaled = ZERO if mean == 0.0 else scaled_from_log(
        1 if mean > 0 else -1, shift + math.log(abs(mean))
    )
    err_scaled = ZERO if sd == 0.0 else scaled_from_log(1, shift + math.log(sd))
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


def _sigma_from_arrays(signs, logs, lambdas, mu, nu, n, where):
    i_mu, i_nu = lambdas.index(mu), lambdas.index(nu)
    f_cross, _ = _mean_scaled(*_pair_samples(signs, logs, i_mu, i_nu))
    f_mumu, _ = _mean_scaled(*_pair_samples(signs, logs, i_mu, i_mu))
    f_nunu, _ = _mean_scaled(*_pair_samples(signs, logs, i_nu, i_nu))
    return sigma_from_moments(
        n, mu, nu, f_cross, f_mumu, f_nunu,
        f"nonpositive variance estimate at point ({mu}, {nu}) in {where}",
    )


def estimate_sigma_detail(cfg: MCConfig):
    """Plug-in correlation estimate with a batch-means standard error.

    The exact mean polynomial replaces the sample mean inside the
    estimator; the batch-means spread quantifies sampling noise.
    """
    batches = 20  # MC_MIN_SAMPLES gives every batch at least 5 samples
    lambdas = _lambda_index(cfg.points)
    signs, logs = _collect_dets(cfg, lambdas)
    out = []
    edges = np.linspace(0, cfg.samples, batches + 1, dtype=int)
    for mu, nu in cfg.points:
        value = _sigma_from_arrays(
            signs, logs, lambdas, mu, nu, cfg.n,
            f"the whole sample ({cfg.samples} samples)",
        )
        batch_vals = []
        for b in range(batches):
            lo, hi = edges[b], edges[b + 1]
            batch_vals.append(_sigma_from_arrays(
                signs[lo:hi], logs[lo:hi], lambdas, mu, nu, cfg.n,
                f"batch index {b} of {batches} batches ({hi - lo} samples; "
                f"the whole-sample estimate is {value!r})",
            ))
        spread = float(np.std(batch_vals, ddof=1)) / math.sqrt(batches)
        out.append((value, spread))
    return out
