"""Label matrices, synthetic labeling functions, and label models.

Conventions used throughout the package: classes are 1..C, a vote of 0 means
the labeling function (LF) abstained, and every argmax over classes breaks
ties toward the lowest class index (numpy's first-maximum rule).
"""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import read_json, write_json


class WeakSupError(Exception):
    pass


class InfeasibleLfSpecError(WeakSupError):
    """The requested (accuracy, propensity) pair cannot be realized exactly."""


class DegenerateLabelMatrixWarning(UserWarning):
    """Every LF column is constant (e.g. all abstains); label models degenerate."""


@dataclass(frozen=True)
class LfSpec:
    """A unipolar LF: votes `target_class` or abstains.

    `accuracy` is the fraction of its votes placed on true members of the
    target class; `propensity` the fraction of all samples it votes on.
    """

    target_class: int
    accuracy: float
    propensity: float
    seed: int = 0

    def validate(self, class_count: int) -> None:
        if not 1 <= self.target_class <= class_count:
            raise WeakSupError(f"target_class {self.target_class} outside 1..{class_count}")
        if not (1.0 / class_count) < self.accuracy <= 1.0:
            raise WeakSupError(
                f"accuracy {self.accuracy} must exceed chance 1/{class_count} and be <= 1"
            )
        if not 0.0 < self.propensity <= 1.0:
            raise WeakSupError(f"propensity {self.propensity} outside (0, 1]")


def as_votes(L, class_count: int | None = None) -> tuple[np.ndarray, int | None]:
    """(votes, C) of a LabelMatrix or a raw (n, m) vote array.

    C is `class_count` when given, else the matrix's own; a raw array without
    one gives None, which `_vote_index` rejects.
    """
    votes = L.votes if isinstance(L, LabelMatrix) else np.asarray(L, dtype=np.int64)
    if votes.ndim != 2:
        raise WeakSupError(f"label matrix must be 2-D, got shape {votes.shape}")
    if class_count is None and isinstance(L, LabelMatrix):
        class_count = L.class_count
    return votes, class_count


# ---------------------------------------------------------------------------
# the vote encoding: every label model turns votes into class scores here
#
# A label matrix is mostly abstains, so the encoding lists only the votes cast,
# once per fit, in row-major order.  Each cast vote keeps its LF j, its slot
# i*m + j in the (n, m) matrix and its cell i*C + vote - 1 in the (n, C) score
# table.  Row-major order means every cell, and every LF, sums its votes in
# the order a dense pass over the matrix would.


@dataclass(frozen=True)
class _CastVotes:
    lf: np.ndarray
    slot: np.ndarray
    cell: np.ndarray
    shape: tuple[int, int]
    class_count: int


def _vote_index(votes: np.ndarray, class_count: int | None) -> _CastVotes:
    """The non-abstain votes of an (n, m) matrix, in row-major order.

    A vote outside 0..C would land in another row's cell, so the range is
    checked here, where the list is built.
    """
    if class_count is None:
        raise WeakSupError("class_count required for a raw vote array")
    n, m = votes.shape
    flat = votes.ravel()
    slot = np.flatnonzero(flat)
    value = flat[slot]
    if value.size and (value.min() < 0 or value.max() > class_count):
        raise WeakSupError(f"votes outside 0..{class_count}")
    row, lf = np.divmod(slot, m)
    return _CastVotes(lf, slot, row * class_count + value - 1, (n, m), class_count)


def _scatter(cast: _CastVotes, weights) -> np.ndarray:
    """(n, C) class scores: each row's vote weights summed by the class voted.

    `weights` is (n, m), a shared (m,), or None to count votes.
    """
    n, m = cast.shape
    if weights is not None:
        weights = np.asarray(weights)
        if weights.shape == (m,):
            weights = weights[cast.lf]
        else:
            weights = np.broadcast_to(weights, cast.shape).ravel()[cast.slot]
    table = np.bincount(cast.cell, weights, minlength=n * cast.class_count)
    return table.reshape(n, cast.class_count)


def _gather(cast: _CastVotes, scores: np.ndarray) -> np.ndarray:
    """Adjoint of `_scatter`: one value per cast vote, scores[i, vote_ij - 1]."""
    return scores.ravel()[cast.cell]


def _softmax_rows(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise softmax of (n, C) scores and each row's log-normalizer (n,)."""
    # a column-by-column maximum is exact, and faster than max(axis=1) on few columns
    top = scores[:, :1].copy()
    for k in range(1, scores.shape[1]):
        np.maximum(top, scores[:, k : k + 1], out=top)
    e = np.exp(scores - top)
    norm = e.sum(axis=1, keepdims=True)
    return e / norm, (top + np.log(norm))[:, 0]


class LabelMatrix:
    """(n, m) integer vote matrix with its class count.

    Entries must lie in 0..class_count (0 = abstain).  An all-constant-columns
    matrix is allowed but triggers DegenerateLabelMatrixWarning since no label
    model can extract signal from it.
    """

    def __init__(self, votes: np.ndarray, class_count: int, lf_specs: list[LfSpec] | None = None):
        votes = np.asarray(votes, dtype=np.int64)
        if votes.ndim != 2:
            raise WeakSupError(f"votes must be 2-D, got shape {votes.shape}")
        if class_count < 2:
            raise WeakSupError("class_count must be >= 2")
        if votes.size and (votes.min() < 0 or votes.max() > class_count):
            raise WeakSupError("votes outside 0..class_count")
        if lf_specs is not None and len(lf_specs) != votes.shape[1]:
            raise WeakSupError("lf_specs length must match the number of columns")
        self.votes = votes
        self.class_count = int(class_count)
        self.lf_specs = lf_specs
        if votes.size and (votes == votes[0]).all():
            warnings.warn("every LF column is constant", DegenerateLabelMatrixWarning)

    @property
    def num_samples(self) -> int:
        return self.votes.shape[0]

    @property
    def num_lfs(self) -> int:
        return self.votes.shape[1]


@dataclass
class PosteriorTable:
    """Per-row class posteriors plus a coverage mask.

    Rows must be valid distributions.  What an uncovered row holds depends on
    the producer: the label models give it the uniform distribution, and
    `wsgan.pseudolabel_table` gives it the synthetic route's posterior.
    """

    probs: np.ndarray
    covered: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        self.covered = np.asarray(self.covered, dtype=bool)
        if self.probs.ndim != 2 or self.covered.shape != (self.probs.shape[0],):
            raise WeakSupError("probs must be (n, C) with covered of length n")
        if self.probs.size:
            if self.probs.min() < -1e-12:
                raise WeakSupError("negative posterior entry")
            if not np.allclose(self.probs.sum(axis=1), 1.0, atol=1e-10):
                raise WeakSupError("posterior rows must sum to 1")

    @property
    def class_count(self) -> int:
        return self.probs.shape[1]


def generate_synthetic_lfs(
    true_labels: np.ndarray,
    specs: list[LfSpec],
    class_count: int,
) -> LabelMatrix:
    """Realize unipolar LFs with exact vote counts.

    For each spec: v = round(propensity*n) votes total, round(accuracy*v) of
    them on rows of the target class and the rest on other rows, both chosen
    without replacement using each LfSpec's own seed.  Raises
    InfeasibleLfSpecError when a class has too few rows to host the votes.
    """
    y = np.asarray(true_labels, dtype=np.int64)
    if y.ndim != 1 or y.size == 0:
        raise WeakSupError("true_labels must be a non-empty 1-D array")
    if y.min() < 1 or y.max() > class_count:
        raise WeakSupError("true labels outside 1..class_count")
    n = y.size
    votes = np.zeros((n, len(specs)), dtype=np.int64)
    for j, spec in enumerate(specs):
        spec.validate(class_count)
        if not (y == spec.target_class).any():
            raise WeakSupError(f"LF {j}: target class {spec.target_class} absent from labels")
        v = int(round(spec.propensity * n))
        tp = int(round(spec.accuracy * v))
        fp = v - tp
        pos = np.flatnonzero(y == spec.target_class)
        neg = np.flatnonzero(y != spec.target_class)
        if tp > pos.size or fp > neg.size:
            raise InfeasibleLfSpecError(
                f"LF {j}: needs {tp} votes on class {spec.target_class} "
                f"({pos.size} rows) and {fp} elsewhere ({neg.size} rows)"
            )
        rng = np.random.default_rng(spec.seed)
        chosen_pos = rng.choice(pos, size=tp, replace=False)
        chosen_neg = rng.choice(neg, size=fp, replace=False)
        votes[chosen_pos, j] = spec.target_class
        votes[chosen_neg, j] = spec.target_class
    return LabelMatrix(votes, class_count, lf_specs=list(specs))


@dataclass
class LfStats:
    accuracy: np.ndarray
    coverage: np.ndarray


def lf_stats(L, true_labels: np.ndarray) -> LfStats:
    """Realized per-LF accuracy and coverage against the given labels.

    Accuracy is undefined (NaN) for an LF with no votes.
    """
    votes, _ = as_votes(L)
    y = np.asarray(true_labels, dtype=np.int64)
    if y.shape != (votes.shape[0],):
        raise WeakSupError("true_labels length must match the matrix rows")
    voted = votes != 0
    counts = voted.sum(axis=0)
    correct = ((votes == y[:, None]) & voted).sum(axis=0)
    with np.errstate(invalid="ignore"):
        accuracy = np.where(counts > 0, correct / np.maximum(counts, 1), np.nan)
    return LfStats(accuracy=accuracy, coverage=counts / votes.shape[0])


def majority_vote(L, class_count: int | None = None) -> PosteriorTable:
    """Per-row vote shares: mass split uniformly over the most-voted classes.

    Rows with no votes get the uniform distribution and covered=False.
    """
    votes, C = as_votes(L, class_count)
    counts = _scatter(_vote_index(votes, C), None)
    covered = counts.sum(axis=1) > 0
    probs = np.full((votes.shape[0], C), 1.0 / C)
    if covered.any():
        c = counts[covered]
        winners = c == c.max(axis=1, keepdims=True)
        probs[covered] = winners / winners.sum(axis=1, keepdims=True)
    return PosteriorTable(probs, covered)


def weighted_softmax_posterior(votes, weights, class_count: int) -> np.ndarray:
    """Softmax over per-class weighted vote scores.

    score_k = sum_j weights_j * 1{vote_j == k}.  `votes` is an (n, m) batch;
    weights may be shared (m,) or per-row (n, m).  A row with no votes scores
    zero everywhere and comes out uniform.
    """
    votes, C = as_votes(votes, class_count)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape not in (votes.shape, votes.shape[1:]):
        raise WeakSupError(f"weights shape {w.shape} incompatible with votes {votes.shape}")
    return _softmax_rows(_scatter(_vote_index(votes, C), w))[0]


def weighted_posterior_tensor(votes: np.ndarray, weights: ad.Tensor, class_count: int) -> ad.Tensor:
    """Differentiable twin of weighted_softmax_posterior for a vote batch.

    votes: (n, m) ints; weights: (n, m) or broadcastable (m,) Tensor.  The
    class scores are one linear node: the vote scatter, whose adjoint gathers
    each vote's class gradient back to its weight.
    """
    cast = _vote_index(np.asarray(votes, dtype=np.int64), class_count)

    def adjoint(g: np.ndarray) -> np.ndarray:
        grad = np.zeros(cast.shape[0] * cast.shape[1])
        grad[cast.slot] = _gather(cast, g)
        return grad.reshape(cast.shape)

    return ad.softmax(ad.linear_map(weights, lambda w: _scatter(cast, w), adjoint))


def crisp_labels(posteriors: PosteriorTable) -> np.ndarray:
    """Argmax class ids (1..C), ties to the lowest class index."""
    return np.argmax(posteriors.probs, axis=1).astype(np.int64) + 1


# ---------------------------------------------------------------------------
# one-coin Dawid-Skene


@dataclass
class DawidSkeneResult:
    posteriors: PosteriorTable
    accuracies: np.ndarray
    prior: np.ndarray
    log_likelihood: list[float] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0


def dawid_skene_fit(
    L,
    class_count: int | None = None,
    max_iters: int = 200,
    tol: float = 1e-6,
) -> DawidSkeneResult:
    """One-coin Dawid-Skene EM.

    Each LF has a single accuracy a_j, starting at 0.7: a covered vote equals
    the true label with probability a_j and is otherwise uniform over the
    remaining C-1 classes.  E-step posteriors are computed in the log domain;
    the M-step is the posterior-weighted agreement rate, clamped to [1e-4,
    1-1e-4].  The marginal log-likelihood, recorded each iteration, never
    decreases; convergence is an absolute change below `tol`.
    """
    votes, C = as_votes(L, class_count)
    n, m = votes.shape
    if n == 0:
        raise WeakSupError("empty label matrix")
    cast = _vote_index(votes, C)
    vote_counts = np.bincount(cast.lf, minlength=m)
    covered = votes.any(axis=1)

    acc = np.full(m, 0.7)
    prior = np.full(C, 1.0 / C)

    trace: list[float] = []
    converged = False
    it = 0
    posteriors = np.full((n, C), 1.0 / C)
    for it in range(1, max_iters + 1):
        log_acc = np.log(acc)
        log_err = np.log((1.0 - acc) / (C - 1))
        # log P(votes_i | y=k) = sum over covered votes of log err_j, plus
        # log a_j - log err_j for each vote that equals k.  The first sum does
        # not depend on k, so it cancels in the posterior and enters the
        # log-likelihood summed over rows: sum_j vote_counts_j * log err_j.
        joint = _scatter(cast, log_acc - log_err) + np.log(prior)[None, :]
        posteriors, log_norm = _softmax_rows(joint)
        trace.append(float(vote_counts @ log_err + log_norm.sum()))

        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) < tol:
            converged = True
            break

        # M-step
        agree_weight = np.bincount(cast.lf, _gather(cast, posteriors), minlength=m)
        with np.errstate(invalid="ignore", divide="ignore"):
            new_acc = np.where(vote_counts > 0, agree_weight / np.maximum(vote_counts, 1), acc)
        acc = np.clip(new_acc, 1e-4, 1.0 - 1e-4)
        prior = posteriors.mean(axis=0)
        prior = np.clip(prior, 1e-9, None)
        prior = prior / prior.sum()

    if not converged:
        warnings.warn(f"Dawid-Skene did not converge in {max_iters} iterations", RuntimeWarning)
    probs = posteriors.copy()
    probs[~covered] = 1.0 / C
    return DawidSkeneResult(
        posteriors=PosteriorTable(probs, covered),
        accuracies=acc,
        prior=prior,
        log_likelihood=trace,
        converged=converged,
        iterations=it,
    )


# ---------------------------------------------------------------------------
# serialization


@dataclass(frozen=True)
class _LabelMatrixSidecar:
    format_version: int
    class_count: int
    num_lfs: int
    num_samples: int
    lf_specs: list[LfSpec] | None = None


_CSV_BLOCK_ROWS = 16_384  # rows encoded per write, so transient memory is O(block)


def _cell_table(class_count: int, end: bytes) -> np.ndarray:
    """Item v holds the bytes of str(v) + end, NUL-padded to the longest item.

    The items are numpy voids, which a gather copies as raw bytes.
    """
    cells = np.array([str(v).encode() + end for v in range(class_count + 1)])
    return cells.view(f"V{cells.itemsize}")


def save_label_matrix(lm: LabelMatrix, csv_path) -> tuple[Path, Path]:
    """Write votes as CSV (header lf_0..lf_{m-1}) plus a JSON sidecar.

    The CSV holds the bytes `csv.writer` would write.  Each block of rows is
    one gather from a table of vote texts, NUL padding dropped.  The sidecar
    records class_count, matrix shape, and per-LF specs when the matrix came
    from the synthetic generator.  Returns (csv_path, json_path).
    """
    csv_path = Path(csv_path)
    votes, C = lm.votes, lm.class_count
    if votes.size and (votes.min() < 0 or votes.max() > C):  # the gather would wrap a negative vote
        raise WeakSupError(f"cannot write {csv_path}: votes outside 0..{C}")
    n, m = votes.shape
    sep, end = _cell_table(C, b","), _cell_table(C, b"\r\n")
    with open(csv_path, "wb") as fh:
        fh.write(",".join(f"lf_{j}" for j in range(m)).encode() + b"\r\n")
        if not m:  # csv.writer writes an empty row as a bare line end
            fh.write(b"\r\n" * n)
        for start in range(0, n, _CSV_BLOCK_ROWS):
            block = votes[start:start + _CSV_BLOCK_ROWS]
            text = np.concatenate((sep[block[:, :-1]].view(np.uint8), end[block[:, -1:]].view(np.uint8)), axis=1)
            fh.write(text[text != 0] if C > 9 else text)  # one-digit votes need no padding
    sidecar = _LabelMatrixSidecar(1, lm.class_count, lm.num_lfs, lm.num_samples, lm.lf_specs)
    return csv_path, write_json(csv_path.with_suffix(".json"), sidecar)


def _read_votes(fh, num_lfs: int, csv_path: Path) -> np.ndarray:
    """The (rows, num_lfs) integer votes after the header of an open CSV."""
    if not num_lfs:  # rows without LFs are blank lines, which loadtxt skips
        return np.zeros((sum(1 for _ in fh), 0), dtype=np.int64)
    start = fh.tell()
    if not fh.read(1):  # header only: loadtxt would warn "input contained no data"
        return np.zeros((0, num_lfs), dtype=np.int64)
    fh.seek(start)
    try:
        votes = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2, comments=None)
    except ValueError as exc:
        raise WeakSupError(f"malformed label-matrix CSV {csv_path}: {exc}") from exc
    if votes.shape[1] != num_lfs:
        raise WeakSupError(
            f"malformed label-matrix CSV {csv_path}: rows have {votes.shape[1]} "
            f"columns, the header {num_lfs}"
        )
    return votes


def load_label_matrix(csv_path) -> LabelMatrix:
    """Inverse of save_label_matrix; validates shape against the sidecar."""
    csv_path = Path(csv_path)
    sidecar = read_json(_LabelMatrixSidecar, csv_path.with_suffix(".json"), version=1)
    try:
        with open(csv_path, newline="") as fh:
            header = next(csv.reader([fh.readline()]))
            if header != [f"lf_{j}" for j in range(len(header))]:
                raise WeakSupError(f"{csv_path}: unexpected CSV header {header!r}")
            votes = _read_votes(fh, len(header), csv_path)
    except UnicodeDecodeError as exc:  # in the first block read; loadtxt's own reads refuse in _read_votes
        raise WeakSupError(f"malformed label-matrix CSV {csv_path}: {exc}") from exc
    if votes.shape != (sidecar.num_samples, sidecar.num_lfs):
        raise WeakSupError(
            f"{csv_path}: CSV shape {votes.shape} disagrees with sidecar ({sidecar.num_samples}, {sidecar.num_lfs})"
        )
    return LabelMatrix(votes, sidecar.class_count, lf_specs=sidecar.lf_specs)
