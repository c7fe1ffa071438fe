"""The weakly supervised GAN: generator, shared trunk with discriminator /
code / LF-weight heads, the two interface maps between code space and label
space, and one training loop over the steps the mode declares.

Modes:
  encoder — per-sample LF weights from the weight head (trained by alignment)
  vector  — one shared weight per LF (sigmoid of a free vector)
  infogan — no alignment step; only the GAN and info steps run

Classes are 1..C everywhere; votes use 0 for abstain.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Adam, Tensor
from .data import read_json, write_csv
from .labelmodel import PosteriorTable, as_votes, crisp_labels, weighted_posterior_tensor, weighted_softmax_posterior
from .metrics import adjusted_rand_index
from .nn import MLP, Linear, one_hot


_MODES = ("encoder", "vector", "infogan")
_CLAMP = 1e-7


class TrainingError(Exception):
    pass


class TrainingDivergedError(TrainingError):
    def __init__(self, term: str, epoch: int, value: float):
        super().__init__(f"non-finite {term} at epoch {epoch}: {value!r}")
        self.term = term
        self.epoch = epoch
        self.value = value

    def __reduce__(self):  # pickles by its fields, so it can leave a worker process
        return type(self), (self.term, self.epoch, self.value)


class AugmentationRejectedError(TrainingError):
    def __init__(self, report: "BalanceReport"):
        super().__init__(f"class balance check failed: {report.describe()}")
        self.report = report


@dataclass(frozen=True)
class TrainingConfig:
    mode: str = "encoder"
    z_dim: int = 16
    hidden_dim: int = 64
    epochs: int = 60
    batch_size: int = 16
    align_weight: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in _MODES:
            raise TrainingError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.z_dim < 1 or self.hidden_dim < 1:
            raise TrainingError("z_dim and hidden_dim must be >= 1")
        if self.epochs < 0 or self.batch_size < 1:
            raise TrainingError("epochs must be >= 0 and batch_size >= 1")
        if self.align_weight < 0:
            raise TrainingError("align_weight must be >= 0")

class ModelBundle:
    """All networks, sized by the data: C classes (one latent code per class),
    m LFs and d feature dimensions.

    Initialization consumes draws from `rng` in a fixed order — generator
    layers, trunk layers, discriminator head, code head, weight head, the two
    interface maps — identically for every mode, so different modes under one
    seed start from identical parameters.  The per-LF weight vector (vector
    mode) starts at zero, i.e. weights sigmoid(0) = 0.5, and draws nothing.
    """

    def __init__(self, config: TrainingConfig, class_count: int, num_lfs: int, feature_dim: int,
                 rng: np.random.Generator):
        if class_count < 2 or num_lfs < 1 or feature_dim < 1:
            raise TrainingError(
                f"need >= 2 classes, >= 1 LF and >= 1 feature dimension, got {class_count}, {num_lfs}, {feature_dim}"
            )
        self.config = config
        self.class_count, self.num_lfs, self.feature_dim = class_count, num_lfs, feature_dim
        C, H, m = class_count, config.hidden_dim, num_lfs
        self.generator = MLP([config.z_dim + C, H, H, feature_dim], rng)
        self.trunk = MLP([feature_dim, H, H], rng)
        self.disc_head = Linear(H, 1, rng)
        self.code_head = Linear(H, C, rng)
        # near-zero head: weights start at sigmoid(~0) = 0.5 so the label
        # model opens as plain majority vote
        self.weight_head = Linear(H, m, rng, weight_scale=0.01)
        self.code_to_label = Linear(C, C, rng)
        self.label_to_code = Linear(C, C, rng)
        self.weight_vector = Tensor(np.zeros(m), requires_grad=True)

    # parameter groups, one per loss term
    def disc_params(self) -> list[Tensor]:
        return self.trunk.params + self.disc_head.params

    def gen_params(self) -> list[Tensor]:
        return self.generator.params

    def info_params(self) -> list[Tensor]:
        return self.generator.params + self.trunk.params + self.code_head.params

    def align_params(self) -> list[Tensor]:
        weight_part = [self.weight_vector] if self.config.mode == "vector" else self.weight_head.params
        return (
            self.trunk.params
            + self.code_head.params
            + weight_part
            + self.code_to_label.params
            + self.label_to_code.params
        )

    def named_params(self) -> list[tuple[str, Tensor]]:
        out = []
        for prefix, net in (("generator", self.generator), ("trunk", self.trunk)):
            for i, layer in enumerate(net.layers):
                out.append((f"{prefix}.{i}.w", layer.w))
                out.append((f"{prefix}.{i}.b", layer.b))
        for prefix, layer in (
            ("disc_head", self.disc_head),
            ("code_head", self.code_head),
            ("weight_head", self.weight_head),
            ("code_to_label", self.code_to_label),
            ("label_to_code", self.label_to_code),
        ):
            out.append((f"{prefix}.w", layer.w))
            out.append((f"{prefix}.b", layer.b))
        out.append(("weight_vector", self.weight_vector))
        return out

    # forward pieces
    def features(self, x: Tensor) -> Tensor:
        """Shared bounded trunk features in (-1, 1)^hidden."""
        return ad.tanh(self.trunk(x))

    def discriminate(self, feats: Tensor) -> Tensor:
        return ad.sigmoid(self.disc_head(feats))

    def code_posterior(self, feats: Tensor) -> Tensor:
        return ad.softmax(self.code_head(feats))

    def lf_weights(self, feats: Tensor | None = None) -> Tensor:
        """Per-LF reliability weights in (0,1): per-sample (encoder) or shared (vector; `feats` unused)."""
        if self.config.mode == "vector":
            return ad.sigmoid(self.weight_vector)
        if feats is None:
            raise TrainingError("encoder-mode weights need trunk features")
        return ad.sigmoid(self.weight_head(feats))

    def generate(self, z: np.ndarray, codes: np.ndarray) -> Tensor:
        zc = np.concatenate([z, one_hot(codes, self.class_count)], axis=1)
        return self.generator(Tensor(zc))

    def label_posterior_from_code(self, code_probs: Tensor) -> Tensor:
        return ad.softmax(self.code_to_label(code_probs))

    def code_posterior_from_label(self, label_probs: Tensor) -> Tensor:
        return ad.softmax(self.label_to_code(label_probs))


# ---------------------------------------------------------------------------
# losses


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def clamp_probs(p) -> Tensor:
    return ad.clip(_as_tensor(p), _CLAMP, 1.0 - _CLAMP)


def generator_loss(d_fake) -> Tensor:
    """Non-saturating generator objective: -mean log d_fake."""
    return ad.scale(ad.mean(ad.log(clamp_probs(d_fake))), -1.0)


def binary_cross_entropy(probs, targets: np.ndarray) -> Tensor:
    """Mean BCE of each prob against its own target.  The targets take the
    probs' shape, so (B,) targets score (B, 1) discriminator outputs row by
    row, and a size mismatch raises."""
    p = clamp_probs(probs)
    t = np.asarray(targets, dtype=np.float64).reshape(p.data.shape)
    pos = ad.mul(ad.log(p), t)
    neg = ad.mul(ad.log(ad.sub(1.0, p)), 1.0 - t)
    return ad.scale(ad.mean(ad.add(pos, neg)), -1.0)


def cross_entropy(pred_probs, target_probs) -> Tensor:
    """Mean soft-target cross-entropy; the target side carries no gradient
    unless a tracked Tensor is passed explicitly."""
    pred = _as_tensor(pred_probs)
    n = pred.data.shape[0]
    return ad.scale(ad.total(ad.mul(ad.log(clamp_probs(pred)), target_probs)), -1.0 / n)


def info_loss(code_onehot: np.ndarray, code_probs) -> Tensor:
    """Mean cross-entropy between predicted code posterior and sampled codes."""
    return cross_entropy(code_probs, np.asarray(code_onehot, dtype=np.float64))


def alignment_loss(
    bundle: ModelBundle,
    x_batch: np.ndarray,
    votes_batch: np.ndarray,
    epoch: int,
) -> tuple[Tensor, dict]:
    """Two interface cross-entropies plus the decaying weight penalty.

    The label-model posterior is built from weights theta = sigmoid of the
    weight head applied to *detached* trunk features (encoder) or of the free
    vector; gradients through theta therefore never reach the trunk.  The
    penalty (C / (1.5 epoch + 1)) * ||theta - 0.5||^2 is summed over the m
    weights and averaged over batch rows.
    """
    if epoch < 0:
        raise TrainingError("epoch must be >= 0")
    x_batch = np.asarray(x_batch, dtype=np.float64)
    votes_batch = np.asarray(votes_batch, dtype=np.int64)
    n = x_batch.shape[0]
    if n == 0:
        raise TrainingError("empty alignment batch; caller must skip the step")
    if not (votes_batch != 0).any(axis=1).all():
        raise TrainingError("alignment batch contains uncovered rows")
    C = bundle.class_count

    feats = bundle.features(Tensor(x_batch))
    code_probs = bundle.code_posterior(feats)
    weights = bundle.lf_weights(ad.detach(feats))
    per_row = n if weights.data.ndim == 2 else 1
    label_post = weighted_posterior_tensor(votes_batch, weights, C)

    ce_code_side = cross_entropy(bundle.label_posterior_from_code(code_probs), ad.detach(label_post))
    ce_label_side = cross_entropy(bundle.code_posterior_from_label(label_post), ad.detach(code_probs))

    multiplier = C / (epoch * 1.5 + 1.0)
    dev = ad.sub(weights, 0.5)
    penalty = ad.scale(ad.total(ad.mul(dev, dev)), multiplier / per_row)

    loss = ad.add(ad.add(ce_code_side, ce_label_side), penalty)
    parts = {
        "ce_code_side": float(ce_code_side.data),
        "ce_label_side": float(ce_label_side.data),
        "penalty": float(penalty.data),
        "penalty_multiplier": multiplier,
    }
    return loss, parts


# ---------------------------------------------------------------------------
# training


HISTORY_COLUMNS = ("epoch", "d_loss", "g_loss", "info_loss", "align_loss", "penalty", "ari", "pl_accuracy")


@dataclass
class TrainingHistory:
    records: list = field(default_factory=list)

    def add(self, **kwargs) -> None:
        if set(kwargs) != set(HISTORY_COLUMNS):
            raise TrainingError(f"history record must have columns {HISTORY_COLUMNS}")
        self.records.append([kwargs[c] for c in HISTORY_COLUMNS])

    def column(self, name: str) -> list:
        i = HISTORY_COLUMNS.index(name)
        return [r[i] for r in self.records]

    def save_csv(self, path) -> Path:
        return write_csv(path, HISTORY_COLUMNS, self.records)


def train(dataset, L, config: TrainingConfig) -> tuple[ModelBundle, TrainingHistory]:
    """Deterministic training: one loop over the steps the mode declares.

    Per batch: (1) `disc` on real-vs-generated with label smoothing (targets
    0.9 / 0.1) and flipping (each target swapped with probability 0.03); (2)
    `gen`, non-saturating; (3) `info`, tying codes to generated samples; (4)
    in encoder/vector modes, `align` on the batch's covered rows.  A step
    returns None to skip a batch (no covered row) or the loss its optimizer
    steps on with {history column: value}.  That loss is checked finite (a
    failure names the step's first column), and an epoch's column is the mean
    over the batches that recorded it.

    RNG draw order per batch: generator inputs for step 1, two flip masks,
    generator inputs for step 2, generator inputs for step 3; the alignment
    step draws nothing, so an encoder run with align_weight=0 reproduces an
    infogan run bitwise.

    The class count C comes from `dataset.spec`, and a `LabelMatrix` must
    have the same; the LF count comes from the vote columns and the feature
    dimension from the feature columns.  The hidden dataset labels are used
    only for the per-epoch history metrics (ARI of the code head, covered-row
    pseudolabel accuracy), never in any gradient path.
    """
    x = np.asarray(dataset.features, dtype=np.float64)
    hidden_labels = np.asarray(dataset.labels, dtype=np.int64)
    if not np.isfinite(x).all():
        raise TrainingError("dataset features must be finite")
    votes, lf_classes = as_votes(L)
    if votes.shape[0] != x.shape[0]:
        raise TrainingError("label matrix rows must match dataset rows")
    if lf_classes not in (None, dataset.spec.class_count):
        raise TrainingError(f"label matrix has {lf_classes} classes, the dataset {dataset.spec.class_count}")
    covered_mask = (votes != 0).any(axis=1)
    if config.mode != "infogan" and not covered_mask.any():
        raise TrainingError("alignment modes need at least one covered row")

    rng = np.random.default_rng(config.seed)
    n, C, B = x.shape[0], dataset.spec.class_count, config.batch_size
    bundle = ModelBundle(config, C, votes.shape[1], x.shape[1], rng)
    history = TrainingHistory()
    real_target, fake_target = 0.9, 0.1

    # each call looks its loss function up in the module globals, where tracers and spies patch it
    def disc(idx, draws, epoch):
        z, codes, flip_real, flip_fake = draws["disc"]
        with ad.no_grad():
            fake_x = bundle.generate(z, codes).data
        d_real = bundle.discriminate(bundle.features(Tensor(x[idx])))
        d_fake = bundle.discriminate(bundle.features(Tensor(fake_x)))
        real_t = np.where(flip_real, fake_target, real_target)
        fake_t = np.where(flip_fake, real_target, fake_target)
        loss = ad.add(binary_cross_entropy(d_real, real_t), binary_cross_entropy(d_fake, fake_t))
        return loss, {"d_loss": float(loss.data)}

    def gen(idx, draws, epoch):
        loss = generator_loss(bundle.discriminate(bundle.features(bundle.generate(*draws["gen"]))))
        return loss, {"g_loss": float(loss.data)}

    def info(idx, draws, epoch):
        z, codes = draws["info"]
        loss = info_loss(one_hot(codes, C), bundle.code_posterior(bundle.features(bundle.generate(z, codes))))
        return loss, {"info_loss": float(loss.data)}

    def align(idx, draws, epoch):
        cov = idx[covered_mask[idx]]
        if not cov.size:
            return None
        raw, parts = alignment_loss(bundle, x[cov], votes[cov], epoch)
        return ad.scale(raw, config.align_weight), {"align_loss": float(raw.data), "penalty": parts["penalty"]}

    # each step with the parameter group it moves and its Adam learning rate
    schedule = [(disc, bundle.disc_params(), 4e-4), (gen, bundle.gen_params(), 1e-4),
                (info, bundle.info_params(), 1e-4)]
    if config.mode != "infogan":
        schedule.append((align, bundle.align_params(), 8e-5))
    steps = [(step, Adam(params, lr=lr)) for step, params, lr in schedule]

    def inputs(nb):
        return rng.standard_normal((nb, config.z_dim)), rng.integers(1, C + 1, size=nb)

    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        sums, counts = dict.fromkeys(HISTORY_COLUMNS[1:6], 0.0), dict.fromkeys(HISTORY_COLUMNS[1:6], 0)
        for lo in range(0, n, B):
            idx = perm[lo : lo + B]
            nb = idx.size
            # fixed draw order (see docstring)
            draws = {"disc": (*inputs(nb), rng.random(nb) < 0.03, rng.random(nb) < 0.03),
                     "gen": inputs(nb), "info": inputs(nb)}
            for step, opt in steps:
                out = step(idx, draws, epoch)
                if out is None:
                    continue
                loss, record = out
                if not math.isfinite(float(loss.data)):
                    raise TrainingDivergedError(next(iter(record)), epoch, float(loss.data))
                for column, value in record.items():
                    sums[column] += value
                    counts[column] += 1
                opt.step(loss)

        ari, pl_acc = _epoch_metrics(bundle, x, votes, covered_mask, hidden_labels)
        means = {c: sums[c] / counts[c] if counts[c] else 0.0 for c in sums}
        history.add(epoch=epoch, **means, ari=ari, pl_accuracy=pl_acc)
    return bundle, history


def _epoch_metrics(bundle, x, votes, covered_mask, hidden_labels) -> tuple[float, float]:
    with ad.no_grad():
        feats = bundle.features(Tensor(x))
        code_assign = np.argmax(bundle.code_posterior(feats).data, axis=1) + 1
        ari = adjusted_rand_index(code_assign, hidden_labels)
        if not covered_mask.any():
            return ari, 0.0
        table = pseudolabel_table(bundle, x[covered_mask], votes[covered_mask])
        pl_acc = float((crisp_labels(table) == hidden_labels[covered_mask]).mean())
    return ari, pl_acc


# ---------------------------------------------------------------------------
# inference


def pseudolabel_table(bundle: ModelBundle, x: np.ndarray, L=None) -> PosteriorTable:
    """Vectorized posterior for a whole feature matrix.

    Rows with votes (covered) take the LF route, the rest the synthetic route.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    C = bundle.class_count
    votes = as_votes(L)[0] if L is not None else np.zeros((n, bundle.num_lfs), dtype=np.int64)
    if votes.shape[0] != n:
        raise TrainingError("label matrix rows must match features")
    covered = (votes != 0).any(axis=1)
    probs = np.empty((n, C))
    with ad.no_grad():
        if (~covered).any():
            code = bundle.code_posterior(bundle.features(Tensor(x[~covered])))
            probs[~covered] = bundle.label_posterior_from_code(code).data
        if covered.any():
            weights = bundle.lf_weights(bundle.features(Tensor(x[covered]))).data
            probs[covered] = weighted_softmax_posterior(votes[covered], weights, C)
    return PosteriorTable(probs, covered)


def generate_samples(
    bundle: ModelBundle, n: int, seed: int = 0, class_id: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (features, codes): z first, then codes (uniform unless fixed)."""
    if n < 0:
        raise TrainingError("n must be >= 0")
    C = bundle.class_count
    if n == 0:
        return np.empty((0, bundle.feature_dim)), np.empty(0, dtype=np.int64)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, bundle.config.z_dim))
    if class_id is None:
        codes = rng.integers(1, C + 1, size=n)
    else:
        if not 1 <= class_id <= C:
            raise TrainingError(f"class_id {class_id} outside 1..{C}")
        codes = np.full(n, class_id, dtype=np.int64)
    with ad.no_grad():
        feats = bundle.generate(z, codes).data
    return feats, codes.astype(np.int64)


# ---------------------------------------------------------------------------
# augmentation


_BALANCE_TOLERANCE = 5.0  # the largest max/min class-share ratio a balance check passes


@dataclass
class BalanceReport:
    passed: bool
    ratio: float
    missing: list

    def describe(self) -> str:
        if self.missing:
            return f"classes {self.missing} absent"
        return f"max/min share ratio {self.ratio:.3f}"


def class_balance_check(labels: np.ndarray, class_count: int) -> BalanceReport:
    """Fail when any class is absent or the share ratio exceeds `_BALANCE_TOLERANCE`."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size < class_count:
        raise TrainingError("need at least class_count labels for a balance check")
    counts = np.array([(labels == c).sum() for c in range(1, class_count + 1)])
    shares = counts / labels.size
    missing = [c for c in range(1, class_count + 1) if counts[c - 1] == 0]
    ratio = float("inf") if missing else float(shares.max() / shares.min())
    passed = not missing and ratio <= _BALANCE_TOLERANCE
    return BalanceReport(passed=passed, ratio=ratio, missing=missing)


@dataclass
class AugmentationResult:
    features: np.ndarray
    labels: np.ndarray
    balance: BalanceReport | None


def augment_dataset(
    bundle: ModelBundle,
    base_features: np.ndarray,
    base_labels: np.ndarray,
    n_synth: int,
    lf_applicator=None,
    seed: int = 0,
) -> AugmentationResult:
    """Append n_synth generated points with pseudolabels to a training set.

    With an `lf_applicator`, `lf_applicator(features, rng)` votes on the
    generated points; without one they have no votes.  The labels follow the
    bundle's usual posterior routing: the LF route on covered points, the
    synthetic route (the code-to-label map) on the rest.  The class-balance
    check runs on the appended labels only; failure rejects the augmentation.
    """
    base_features = np.asarray(base_features, dtype=np.float64)
    base_labels = np.asarray(base_labels, dtype=np.int64)
    if n_synth < 0:
        raise TrainingError("n_synth must be >= 0")
    if n_synth == 0:
        return AugmentationResult(base_features.copy(), base_labels.copy(), None)

    feats, _codes = generate_samples(bundle, n_synth, seed=seed)
    votes = None
    if lf_applicator is not None:
        votes = np.asarray(lf_applicator(feats, np.random.default_rng((seed, 1))), dtype=np.int64)
        if votes.shape != (n_synth, bundle.num_lfs):
            raise TrainingError(f"lf_applicator returned shape {votes.shape}")
    new_labels = crisp_labels(pseudolabel_table(bundle, feats, votes))

    balance = class_balance_check(new_labels, bundle.class_count)
    if not balance.passed:
        raise AugmentationRejectedError(balance)
    return AugmentationResult(
        features=np.concatenate([base_features, feats], axis=0),
        labels=np.concatenate([base_labels, new_labels]),
        balance=balance,
    )


# ---------------------------------------------------------------------------
# checkpointing


_CHECKPOINT_VERSION = 3


@dataclass(frozen=True)
class _Checkpoint:
    format_version: int
    config: TrainingConfig
    params: dict[str, list]


def save_bundle(bundle: ModelBundle, path) -> Path:
    """Versioned JSON checkpoint: config and every parameter array.

    The network sizes are not stored: `load_bundle` reads them off the
    parameter shapes.
    """
    path = Path(path)
    payload = {
        "format_version": _CHECKPOINT_VERSION,
        "config": asdict(bundle.config),
        "params": {name: t.data.tolist() for name, t in bundle.named_params()},
    }
    path.write_text(json.dumps(payload) + "\n")  # dumps, unlike dump, runs the C encoder
    return path


def load_bundle(path) -> ModelBundle:
    ckpt = read_json(_Checkpoint, path, version=_CHECKPOINT_VERSION)
    try:  # C, m and d: the code head bias, the LF weight vector, the first trunk layer's rows
        sizes = [len(ckpt.params[name]) for name in ("code_head.b", "weight_vector", "trunk.0.w")]
    except KeyError as exc:
        raise TrainingError(f"checkpoint {path}: missing params [{exc.args[0]!r}]") from None
    bundle = ModelBundle(ckpt.config, *sizes, np.random.default_rng(0))
    named = dict(bundle.named_params())
    if named.keys() != ckpt.params.keys():
        missing, unknown = sorted(named.keys() - ckpt.params.keys()), sorted(ckpt.params.keys() - named.keys())
        raise TrainingError(f"checkpoint {path}: missing params {missing}, unknown params {unknown}")
    for name, tensor in named.items():
        try:
            stored = np.asarray(ckpt.params[name], dtype=np.float64)
        except (TypeError, ValueError) as exc:  # a ragged list, or an element that is not a number
            raise TrainingError(f"checkpoint {path}: param {name} is not a numeric array: {exc}") from None
        if stored.shape != tensor.data.shape:
            raise TrainingError(f"checkpoint {path}: param {name} has shape {stored.shape}, not {tensor.data.shape}")
        if not np.isfinite(stored).all():
            raise TrainingError(f"checkpoint {path}: param {name} is not finite")
        tensor.data = stored
    return bundle
