"""Triplet objective with adaptive margin and online hard-negative mining.

The matching head is trained on triplets (anchor, positive, hard negative):
the loss is a hinge on squared embedding distances, the margin grows
linearly over training, and negatives are mined per anchor from a seeded
random subset of other subjects' samples, keeping only candidates that
currently violate the margin.

A training dataset is a mapping ``subject_id -> sequence of multi-channel
images`` (each ``[C, H, W]`` float32).  The per-subject sample lists may
include augmented copies; the sampler treats every list entry as one more
pose of that subject.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, ContractError, DimensionError
from .fe import FEModel, embed_batch, fe_apply, head_apply, pooled_trunk_batch, \
    set_trainable
from .optim import fit
from .tensor import Tensor, backward, no_grad, relu

__all__ = [
    "MarginSchedule",
    "MiningResult",
    "StepLog",
    "Triplet",
    "TripletBatch",
    "TripletHyper",
    "build_batch",
    "dataset_images",
    "margin_at",
    "mine_hard_negatives",
    "train_triplet",
    "triplet_loss_batch",
    "write_training_log",
]

logger = logging.getLogger(__name__)

_TAG_MINE = 0x4D1E
_TAG_BATCH = 0xBA7C

#: ``subject_id -> list of [C, H, W] images`` (augmented copies allowed).
Dataset = Mapping[int, Sequence[np.ndarray]]


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Triplet:
    """Sample references: (subject_id, sample_index) per corner."""

    anchor: tuple[int, int]
    positive: tuple[int, int]
    negative: tuple[int, int]
    #: True when the negative violated the margin at mining time; False means
    #: it is the hardest-available fallback.
    violator: bool = True

    def __post_init__(self) -> None:
        if self.anchor[0] != self.positive[0]:
            raise ContractError("anchor and positive must share a subject")
        if self.anchor[1] == self.positive[1]:
            raise ContractError("anchor and positive must be different samples")
        if self.negative[0] == self.anchor[0]:
            raise ContractError("negative must come from a different subject")


@dataclass(frozen=True)
class MarginSchedule:
    """Linear margin ramp hitting both endpoints exactly."""

    total_steps: int
    m_start: float = 0.2
    m_end: float = 0.5

    def __post_init__(self) -> None:
        if self.total_steps < 1:
            raise ConfigError(f"total_steps must be >= 1, got {self.total_steps}")
        if not 0.0 <= self.m_start <= self.m_end:
            raise ConfigError(
                f"need 0 <= m_start <= m_end, got {self.m_start}, {self.m_end}")


@dataclass(frozen=True)
class TripletBatch:
    triplets: tuple[Triplet, ...]
    #: margin in force when the batch was mined
    margin: float
    #: candidates examined / margin violators found while mining this batch
    checked: int
    violators: int

    @property
    def violator_rate(self) -> float:
        return self.violators / self.checked if self.checked else 0.0


@dataclass(frozen=True)
class MiningResult:
    #: indices into the candidate pool, ascending by distance (ties: low index)
    negatives: tuple[int, ...]
    distances: tuple[float, ...]
    #: True when no candidate violated the margin and the single hardest
    #: candidate was returned instead
    fallback: bool
    #: the seeded pool subset that was examined
    subset: tuple[int, ...]
    checked: int
    violators: int


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------


def triplet_loss_batch(ea: Tensor, ep: Tensor, ehn: Tensor,
                       margin: float) -> Tensor:
    """Mean hinge ``0.5 * max(0, margin + J_p - J_hn)`` over row-aligned
    embedding batches ``[N, d]``, on squared distances ``J``.

    A row whose ``J_hn - J_p >= margin`` adds exactly zero, with zero gradient.
    """
    if margin < 0:
        raise ContractError(f"margin must be non-negative, got {margin}")
    if not (ea.shape == ep.shape == ehn.shape) or len(ea.shape) != 2:
        raise DimensionError(
            f"expected matching [N,d] batches, got {ea.shape}, {ep.shape}, {ehn.shape}")
    dp = ea - ep
    dn = ea - ehn
    j_p = (dp * dp).sum(axis=1)
    j_hn = (dn * dn).sum(axis=1)
    return relu((j_p + margin) - j_hn).mean() * 0.5


def margin_at(step: int, schedule: MarginSchedule) -> float:
    """Margin in force at ``step``; out-of-range steps clamp to the endpoints."""
    if step <= 0:
        if step < 0:
            logger.warning("margin_at: step %d < 0 clamped to 0", step)
        return schedule.m_start
    if step >= schedule.total_steps:
        if step > schedule.total_steps:
            logger.warning("margin_at: step %d > %d clamped", step,
                           schedule.total_steps)
        return schedule.m_end
    frac = step / schedule.total_steps
    return schedule.m_start + (schedule.m_end - schedule.m_start) * frac


# ---------------------------------------------------------------------------
# Mining
# ---------------------------------------------------------------------------


def mine_hard_negatives(
    anchor_embedding: np.ndarray,
    pool_embeddings: np.ndarray,
    j_p: float,
    margin: float,
    *,
    k: int = 1,
    seed: int = 0,
    subset_size: int = 32,
) -> MiningResult:
    """Scan a seeded random subset of the pool's embeddings for
    margin-violating negatives.

    A candidate at squared distance ``J_hn`` from the anchor violates the
    margin when ``J_hn < j_p + margin``.  Returns up to ``k`` violators
    sorted ascending by distance (ties broken by pool index); when none
    violate, the single hardest (smallest-distance) candidate is returned
    with ``fallback=True``.
    """
    n = len(pool_embeddings)
    if n == 0:
        raise ContractError("candidate pool is empty")
    if k < 1 or subset_size < 1:
        raise ContractError(f"k and subset_size must be >= 1, got {k}, {subset_size}")
    if margin < 0:
        raise ContractError(f"margin must be non-negative, got {margin}")

    rng = np.random.default_rng([seed, _TAG_MINE])
    subset = rng.choice(n, size=min(subset_size, n), replace=False)
    cand = np.asarray(pool_embeddings)[subset]
    dists = ((cand - anchor_embedding[None, :]) ** 2).sum(axis=1)
    order = np.lexsort((subset, dists))  # ascending distance, then pool index
    violating = dists[order] < j_p + margin
    n_viol = int(violating.sum())

    if n_viol == 0:
        logger.info("mine_hard_negatives: no violator (j_p=%.4f, margin=%.3f); "
                    "falling back to hardest candidate", j_p, margin)
        chosen = order[:1]
        fallback = True
    else:
        chosen = order[:min(k, n_viol)]
        fallback = False

    return MiningResult(
        negatives=tuple(int(subset[i]) for i in chosen),
        distances=tuple(float(dists[i]) for i in chosen),
        fallback=fallback,
        subset=tuple(int(i) for i in subset),
        checked=int(subset.size),
        violators=n_viol,
    )


# ---------------------------------------------------------------------------
# Batch construction
# ---------------------------------------------------------------------------


def _validate_dataset(dataset: Dataset) -> None:
    rich = [sid for sid, samples in dataset.items() if len(samples) >= 2]
    if len(rich) < 2:
        raise ContractError(
            "triplet training needs >= 2 subjects with >= 2 samples each")


def _sample_keys(dataset: Dataset) -> list[tuple[int, int]]:
    """Every sample reference, subjects ascending, then sample index."""
    return [(sid, i) for sid in sorted(dataset) for i in range(len(dataset[sid]))]


def dataset_images(dataset: Dataset) -> np.ndarray:
    """Every sample stacked ``[P, C, H, W]``, in the row order ``build_batch``
    expects of its embedding table."""
    return np.stack([dataset[sid][i] for sid, i in _sample_keys(dataset)])


def build_batch(
    dataset: Dataset,
    table: np.ndarray,
    schedule: MarginSchedule,
    step: int,
    batch_size: int = 90,
    seed: int = 0,
    subset_size: int = 32,
) -> TripletBatch:
    """Mine one batch of triplets under the margin in force at ``step``.

    ``table`` holds one embedding per dataset sample, row for row with
    ``dataset_images(dataset)``; every slot mines against those rows.
    """
    _validate_dataset(dataset)
    if batch_size < 1:
        raise ContractError(f"batch_size must be >= 1, got {batch_size}")
    keys = _sample_keys(dataset)
    if len(table) != len(keys):
        raise DimensionError(
            f"embedding table has {len(table)} rows, dataset has {len(keys)} samples")
    margin = margin_at(step, schedule)
    row_of = {key: r for r, key in enumerate(keys)}

    eligible = np.array([sid for sid in sorted(dataset) if len(dataset[sid]) >= 2])
    pools = {}  # anchor sid -> (pool keys, pool embedding rows)
    rng = np.random.default_rng([seed, _TAG_BATCH, step])

    triplets = []
    checked = violators = 0
    for _ in range(batch_size):
        sid = int(rng.choice(eligible))
        a_idx, p_idx = (int(i) for i in
                        rng.choice(len(dataset[sid]), size=2, replace=False))
        e_a = table[row_of[(sid, a_idx)]]
        e_p = table[row_of[(sid, p_idx)]]
        j_p = float(((e_a - e_p) ** 2).sum())

        if sid not in pools:
            pool_keys = [key for key in keys if key[0] != sid]
            pools[sid] = (pool_keys, table[[row_of[key] for key in pool_keys]])
        pool_keys, pool_rows = pools[sid]

        res = mine_hard_negatives(
            e_a, pool_rows, j_p, margin,
            k=1, seed=int(rng.integers(2 ** 31)), subset_size=subset_size)
        checked += res.checked
        violators += res.violators
        triplets.append(Triplet(
            anchor=(sid, a_idx),
            positive=(sid, p_idx),
            negative=pool_keys[res.negatives[0]],
            violator=not res.fallback,
        ))

    return TripletBatch(tuple(triplets), margin, checked, violators)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TripletHyper:
    batch_size: int = 90
    lr: float = 1e-3
    seed: int = 0
    subset_size: int = 32
    #: steps per stabilization window ("epoch" for the frozen-phase test)
    stabilize_window: int = 10
    #: relative change of window-mean loss counted as stable
    stabilize_tol: float = 0.02
    #: consecutive stable windows required to unfreeze the trunk
    stabilize_patience: int = 3
    #: hard cap on frozen-phase windows
    stabilize_cap: int = 20


@dataclass(frozen=True)
class StepLog:
    step: int
    loss: float
    margin: float
    violator_rate: float
    phase: str  # "frozen" | "full"


def train_triplet(
    fe: FEModel,
    dataset: Dataset,
    schedule: MarginSchedule,
    hyper: TripletHyper = TripletHyper(),
) -> list[StepLog]:
    """Staged triplet training: frozen trunk until the head stabilizes.

    The trunk starts frozen and unfreezes once the window-mean loss changes
    by less than ``stabilize_tol`` for ``stabilize_patience`` consecutive
    windows, or after ``stabilize_cap`` windows, whichever comes first.
    The trunk is left trainable only if it unfroze; otherwise training
    returns with every trunk tensor frozen. At the desk defaults (60 steps,
    6 windows against a cap of 20) the cap is never reached, and the trunk
    stays frozen unless the loss stabilizes.

    While the trunk is frozen its pooled output for a sample cannot change,
    so it is computed once for the whole dataset; each frozen step then mines
    and trains on the head alone. After unfreezing, every step runs the full
    extractor.
    """
    _validate_dataset(dataset)
    set_trainable(fe, trunk=False, head=True)
    images = dataset_images(dataset)
    row_of = {key: r for r, key in enumerate(_sample_keys(dataset))}
    pooled: np.ndarray | None = None  # pooled trunk rows, kept while frozen

    log: list[StepLog] = []
    phase = "frozen"
    window: list[float] = []
    prev_mean: float | None = None
    stable = windows_done = 0

    def grad_step(step: int, _) -> float:
        nonlocal pooled, phase, prev_mean, stable, windows_done
        if phase == "frozen":
            if pooled is None:
                pooled = pooled_trunk_batch(fe, images)
            inputs, embed = pooled, head_apply
            with no_grad():
                table = head_apply(fe, Tensor(pooled)).data
        else:
            inputs, embed = images, fe_apply
            table = embed_batch(fe, images)
        batch = build_batch(dataset, table, schedule, step,
                            batch_size=hyper.batch_size, seed=hyper.seed,
                            subset_size=hyper.subset_size)
        ea, ep, ehn = (embed(fe, Tensor(inputs[[row_of[getattr(t, corner)]
                                                for t in batch.triplets]]))
                       for corner in ("anchor", "positive", "negative"))
        loss = triplet_loss_batch(ea, ep, ehn, batch.margin)
        loss_val = float(loss.data)
        backward(loss)
        log.append(StepLog(step, loss_val, batch.margin,
                           batch.violator_rate, phase))

        # A frozen trunk has no gradient this step, so unfreezing it before
        # the update leaves the update unchanged.
        if phase == "frozen":
            window.append(loss_val)
            if len(window) == hyper.stabilize_window:
                mean = float(np.mean(window))
                window.clear()
                windows_done += 1
                if prev_mean is not None:
                    rel = abs(mean - prev_mean) / max(abs(prev_mean), 1e-12)
                    stable = stable + 1 if rel < hyper.stabilize_tol else 0
                prev_mean = mean
                if stable >= hyper.stabilize_patience or \
                        windows_done >= hyper.stabilize_cap:
                    logger.info("unfreezing trunk at step %d (%s)", step + 1,
                                "stabilized" if stable >= hyper.stabilize_patience
                                else "window cap")
                    set_trainable(fe, trunk=True, head=True)
                    phase = "full"
                    pooled = None
        return loss_val

    fit(fe.params, hyper.lr, range(schedule.total_steps), grad_step, "triplet training")
    return log


def write_training_log(log: Sequence[StepLog], path) -> None:
    """Emit the training log as CSV: step, loss, margin, violator_rate, phase."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss", "margin", "violator_rate", "phase"])
        for entry in log:
            writer.writerow([entry.step, repr(entry.loss), repr(entry.margin),
                             repr(entry.violator_rate), entry.phase])
