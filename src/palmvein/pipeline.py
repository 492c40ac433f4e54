"""Ten-stage training and evaluation pipeline.

Stages, in order (each checkpoints its weights under ``checkpoints/``):

1. generate the synthetic dataset (PGM images + manifest)
2. compute analytic texture-code and ray-transform targets
3. train CED-1 (original -> texture code)
4. train CED-2 (texture code -> ray transform)
5. stack the CEDs and finetune the composition (original -> ray transform)
6. assemble multi-channel feature images for all samples (+ augmented copies)
7. autoencoder-pretrain the feature extractor trunk
8. triplet-train the feature extractor (frozen trunk, then full)
9. jointly finetune stacked CEDs + feature extractor under the triplet loss
10. evaluate gallery vs probe and emit the report (plus an untrained baseline)

Every artifact is a pure function of (config, seed): stage seeds and all
per-image seeds derive from the master seed through fixed stream tags, so any
stage can be re-run from the previous stage's checkpoint and produce the same
downstream results as an uninterrupted run.  A stage failure raises
``StageError`` naming the stage; artifacts already on disk are kept.
"""

from __future__ import annotations

import time
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .ced import (CEDModel, StackedCED, build_ced, ced_apply, ced_forward,
                  extract_features_batch, finetune_stacked, stack_ceds, train_ced)
from .dataio import MANIFEST_NAME, ManifestRecord, load_image, read_manifest, read_pgm
from .errors import ContractError, StageError
from .evalkit import EvalReport, build_report, emit_report, match_score
from .fe import FEModel, build_fe, embed_batch, fe_apply, pretrain_autoencoder, \
    set_trainable
from .optim import fit
from .synth import AugmentConfig, augment, build_dataset
from .tensor import ParamSet, Tensor, backward, concat_channels, no_grad
from .transforms import irt, tcm
from .triplet import MarginSchedule, StepLog, TripletBatch, build_batch, dataset_images, \
    train_triplet, triplet_loss_batch, write_training_log
from .weights import load_weights, parse_arrays, save_weights

from .config import PipelineConfig

__all__ = [
    "RunPaths",
    "STAGE_NAMES",
    "calibrated_threshold",
    "derive_seed",
    "enroll",
    "run_full_pipeline",
    "run_stages",
    "verify_probe",
]

# Independent seed streams per consumer, so adding one never shifts another.
_TAG_DATA = 0xD47A
_TAG_IRT = 0x1247
_TAG_CED1 = 0xCED1
_TAG_CED2 = 0xCED2
_TAG_STACK = 0x57AC
_TAG_AUG = 0xA06
_TAG_FE = 0xFE11
_TAG_AE = 0xAE0
_TAG_TRIPLET = 0x7219
_TAG_E2E = 0xE2E
_TAG_BASELINE = 0xBA5E

_E2E_CHUNK = 8  # images per graph in a stage-9 step; bounds the step's memory


def derive_seed(*parts: int) -> int:
    """Mix integers into one derived seed, deterministically."""
    return int(np.random.default_rng(list(parts)).integers(2 ** 31))


@dataclass(frozen=True)
class RunPaths:
    """Layout of one pipeline run's output directory."""

    root: Path

    @property
    def data(self) -> Path:
        return self.root / "data"

    @property
    def manifest(self) -> Path:
        return self.data / MANIFEST_NAME

    @property
    def targets(self) -> Path:
        return self.root / "targets"

    @property
    def checkpoints(self) -> Path:
        return self.root / "checkpoints"

    @property
    def features(self) -> Path:
        return self.root / "mci" / "features.npz"

    @property
    def report(self) -> Path:
        return self.root / "report"

    @property
    def report_untrained(self) -> Path:
        return self.root / "report_untrained"

    @property
    def stage_log(self) -> Path:
        return self.root / "stage_log.csv"

    @property
    def resolved_config(self) -> Path:
        return self.root / "config.resolved.txt"

    @property
    def ced_metrics(self) -> Path:
        return self.root / "ced_metrics.csv"

    @property
    def ae_log(self) -> Path:
        return self.root / "ae_log.csv"

    @property
    def training_log(self) -> Path:
        return self.root / "training_log.csv"

    @property
    def e2e_log(self) -> Path:
        return self.root / "e2e_log.csv"

    @property
    def enrollment(self) -> Path:
        return self.root / "enrollment.vfw"

    def checkpoint(self, name: str) -> Path:
        return self.checkpoints / name


CKPT_CED1 = "stage3_ced1.vfw"
CKPT_CED2 = "stage4_ced2.vfw"
CKPT_STACK = "stage5_stack.vfw"
CKPT_FE_PRETRAINED = "stage7_fe_pretrained.vfw"
CKPT_FE_TRIPLET = "stage8_fe_triplet.vfw"
CKPT_E2E = "stage9_e2e.vfw"


def _paths(cfg: PipelineConfig) -> RunPaths:
    return RunPaths(cfg.out_dir)


def _require(path: Path, stage: str, hint: str) -> Path:
    if not path.exists():
        raise StageError(stage, f"missing prerequisite {path} (run {hint} first)")
    return path


def _read_records(paths: RunPaths, stage: str) -> list[ManifestRecord]:
    _require(paths.manifest, stage, "gen-data")
    records = read_manifest(paths.manifest)
    return sorted(records, key=lambda r: (r.subject_id, r.sample_index))


def _sample_tag(sid: int, idx: int) -> str:
    return f"s{sid:04d}_i{idx:02d}"


def _orig_key(sid: int, idx: int) -> str:
    return f"mci_{_sample_tag(sid, idx)}"


def _aug_key(sid: int, idx: int, copy: int) -> str:
    return f"aug_{_sample_tag(sid, idx)}_c{copy:02d}"


def _target_path(paths: RunPaths, kind: str, sid: int, idx: int) -> Path:
    return paths.targets / f"{kind}_{_sample_tag(sid, idx)}.npy"


# A training-pool entry: ("orig", sid, idx, 0) or ("aug", sid, idx, copy).
Entry = tuple[str, int, int, int]


def _training_entries(records: Sequence[ManifestRecord],
                      aug_copies: int) -> dict[int, list[Entry]]:
    """Per-subject training pool: gallery samples first, then augmented copies.

    The order is canonical; stages 6-9 all enumerate the pool through this
    function so feature files, triplet indices, and raw images stay aligned.
    """
    gallery = [(r.subject_id, r.sample_index) for r in records if r.role == "gallery"]
    pool: dict[int, list[Entry]] = {}
    for sid, idx in gallery:
        pool.setdefault(sid, []).append(("orig", sid, idx, 0))
    for sid, idx in gallery:
        for copy in range(aug_copies):
            pool[sid].append(("aug", sid, idx, copy))
    return pool


def _entry_key(entry: Entry) -> str:
    kind, sid, idx, copy = entry
    return _orig_key(sid, idx) if kind == "orig" else _aug_key(sid, idx, copy)


def _entry_raw(entry: Entry, images: dict[tuple[int, int], np.ndarray],
               master_seed: int) -> np.ndarray:
    kind, sid, idx, copy = entry
    img = images[(sid, idx)]
    if kind == "orig":
        return img
    return augment(img, AugmentConfig.training_default(),
                   seed=derive_seed(master_seed, _TAG_AUG, sid, idx, copy))


def _load_images(paths: RunPaths,
                 records: Sequence[ManifestRecord]) -> dict[tuple[int, int], np.ndarray]:
    return {(r.subject_id, r.sample_index): load_image(paths.data, r) for r in records}


def _read_metrics_csv(path: Path) -> dict[str, str]:
    """The rows of a small key,value CSV under one header line."""
    return dict(line.partition(",")[::2]
                for line in path.read_text(encoding="utf-8").splitlines()[1:])


def _update_metrics_csv(path: Path, updates: dict[str, float]) -> None:
    """Merge key/value metric rows into a small CSV, rewriting it sorted."""
    rows = _read_metrics_csv(path) if path.exists() else {}
    rows.update({k: repr(float(v)) for k, v in updates.items()})
    text = "key,value\n" + "".join(f"{k},{rows[k]}\n" for k in sorted(rows))
    path.write_text(text, encoding="utf-8")


def _load_ced(cfg: PipelineConfig, paths: RunPaths, ckpt: str, stage: str,
              hint: str) -> CEDModel:
    model = build_ced(cfg.ced_config(), seed=0)
    load_weights(_require(paths.checkpoint(ckpt), stage, hint), model.params)
    return model


def _load_stack(cfg: PipelineConfig, paths: RunPaths, stage: str) -> StackedCED:
    stacked = stack_ceds(build_ced(cfg.ced_config(), seed=0),
                         build_ced(cfg.ced_config(), seed=0))
    load_weights(_require(paths.checkpoint(CKPT_STACK), stage, "finetune-stack"),
                 stacked.params)
    return stacked


def _load_fe(cfg: PipelineConfig, paths: RunPaths, ckpt: str, stage: str,
             hint: str) -> FEModel:
    fe = build_fe(cfg.fe_config(), seed=0)
    load_weights(_require(paths.checkpoint(ckpt), stage, hint), fe.params)
    return fe


class _Reuse:
    """One slot holding a value built from a file, reused while the file's
    bytes and the caller's key are unchanged.

    ``get`` reads the whole file on every call. It returns the value it last
    built when the key and the bytes both equal those it last built from;
    otherwise it builds again from the bytes, and a build that raises leaves
    the slot as it was. The bytes, not mtime, size or inode, decide: a
    same-size rewrite in place within one timestamp tick is still seen.
    """

    def __init__(self) -> None:
        self._key: object = None
        self._data: bytes | None = None
        self._value: object = None

    def get(self, key: object, path: Path, build: Callable[[bytes], object]) -> object:
        data = path.read_bytes()
        if key != self._key or data != self._data:
            value = build(data)
            self._key, self._data, self._value = key, data, value
        return self._value


_FINAL_MODELS = _Reuse()
_ENROLLMENT = _Reuse()


def _load_final_models(cfg: PipelineConfig, paths: RunPaths,
                       stage: str) -> tuple[StackedCED, FEModel]:
    """The verifier as of the end-to-end stage: stacked CEDs + FE, one file.

    The models are built and loaded once, then reused while the checkpoint's
    bytes and the model configs are unchanged (``_Reuse``); callers only run
    them for inference.
    """
    path = _require(paths.checkpoint(CKPT_E2E), stage, "finetune-e2e")

    def build(data: bytes) -> tuple[StackedCED, FEModel]:
        stacked = stack_ceds(build_ced(cfg.ced_config(), seed=0),
                             build_ced(cfg.ced_config(), seed=0))
        fe = build_fe(cfg.fe_config(), seed=0)
        merged = ParamSet.union(("stack", stacked.params), ("fe", fe.params))
        load_weights(path, merged, data=data)
        return stacked, fe

    return _FINAL_MODELS.get((path, cfg.ced_config(), cfg.fe_config()), path, build)


def _load_gallery(path: Path) -> list[np.ndarray]:
    """An enrollment's embeddings in sorted-name order, reused like the models."""

    def build(data: bytes) -> list[np.ndarray]:
        arrays = parse_arrays(data, path)
        if not arrays:
            raise ContractError(f"enrollment {path} contains no embeddings")
        return [arrays[name] for name in sorted(arrays)]

    return _ENROLLMENT.get(path, path, build)


def _ced_pairs(records: Sequence[ManifestRecord], role: str,
               inputs: dict[tuple[int, int], np.ndarray] | None,
               paths: RunPaths, in_kind: str | None, out_kind: str,
               stage: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """(input, target) image pairs for one manifest role.

    The input is either the raw image (``in_kind=None``) or a saved analytic
    target; the target is always a saved analytic target.
    """
    pairs = []
    for r in records:
        if r.role != role:
            continue
        sid, idx = r.subject_id, r.sample_index
        if in_kind is None:
            x = inputs[(sid, idx)]
        else:
            x = np.load(_require(_target_path(paths, in_kind, sid, idx),
                                 stage, "transform"))
        y = np.load(_require(_target_path(paths, out_kind, sid, idx),
                             stage, "transform"))
        pairs.append((x, y))
    return pairs


def _holdout_mse(outputs: Sequence[np.ndarray], targets: Sequence[np.ndarray]) -> float:
    errs = [float(np.mean((np.asarray(o, dtype=np.float64) - t) ** 2))
            for o, t in zip(outputs, targets)]
    return float(np.mean(errs))


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def stage_gen_data(cfg: PipelineConfig) -> None:
    paths = _paths(cfg)
    build_dataset(cfg.subjects, cfg.samples, cfg.size,
                  master_seed=derive_seed(cfg.seed, _TAG_DATA),
                  distribution=cfg.distribution, out_dir=paths.data)


def stage_transform_targets(cfg: PipelineConfig) -> None:
    paths = _paths(cfg)
    records = _read_records(paths, "transform-targets")
    images = _load_images(paths, records)
    keys = [(r.subject_id, r.sample_index) for r in records]
    ray_maps = irt(np.stack([images[k] for k in keys]),
                   ray_count=cfg.irt_rays, n_max=cfg.irt_n_max,
                   seed=[derive_seed(cfg.seed, _TAG_IRT, sid, idx) for sid, idx in keys])
    paths.targets.mkdir(parents=True, exist_ok=True)
    for (sid, idx), ray_map in zip(keys, ray_maps):
        np.save(_target_path(paths, "tcm", sid, idx), tcm(images[(sid, idx)]))
        np.save(_target_path(paths, "irt", sid, idx), ray_map)


def stage_train_ced1(cfg: PipelineConfig) -> None:
    paths = _paths(cfg)
    stage = "train-ced1"
    records = _read_records(paths, stage)
    images = _load_images(paths, records)
    train_pairs = _ced_pairs(records, "gallery", images, paths, None, "tcm", stage)
    model = build_ced(cfg.ced_config(), seed=derive_seed(cfg.seed, _TAG_CED1))
    train_ced_losses = train_ced(model, train_pairs,
                                 cfg.ced1_hyper(derive_seed(cfg.seed, _TAG_CED1, 1)))
    paths.checkpoints.mkdir(parents=True, exist_ok=True)
    save_weights(model.params, paths.checkpoint(CKPT_CED1))

    held = _ced_pairs(records, "probe", images, paths, None, "tcm", stage)
    xs = [x for x, _ in held]
    ys = [y for _, y in held]
    _update_metrics_csv(paths.ced_metrics, {
        "ced1_train_loss_final": train_ced_losses[-1],
        "ced1_holdout_mse": _holdout_mse(ced_forward(model, np.stack(xs)), ys),
        "identity_holdout_mse": _holdout_mse(xs, ys),
    })


def stage_train_ced2(cfg: PipelineConfig) -> None:
    paths = _paths(cfg)
    stage = "train-ced2"
    records = _read_records(paths, stage)
    train_pairs = _ced_pairs(records, "gallery", None, paths, "tcm", "irt", stage)
    model = build_ced(cfg.ced_config(), seed=derive_seed(cfg.seed, _TAG_CED2))
    train_ced(model, train_pairs, cfg.ced2_hyper(derive_seed(cfg.seed, _TAG_CED2, 1)))
    paths.checkpoints.mkdir(parents=True, exist_ok=True)
    save_weights(model.params, paths.checkpoint(CKPT_CED2))


def stage_finetune_stack(cfg: PipelineConfig) -> None:
    paths = _paths(cfg)
    stage = "finetune-stack"
    records = _read_records(paths, stage)
    images = _load_images(paths, records)
    stacked = stack_ceds(
        _load_ced(cfg, paths, CKPT_CED1, stage, "train-ced"),
        _load_ced(cfg, paths, CKPT_CED2, stage, "train-ced"))

    held = _ced_pairs(records, "probe", images, paths, None, "irt", stage)
    xs = np.stack([x for x, _ in held])
    ys = [y for _, y in held]

    def holdout_mse() -> float:
        return _holdout_mse(ced_forward(stacked.second, ced_forward(stacked.first, xs)), ys)

    pre_mse = holdout_mse()

    train_pairs = _ced_pairs(records, "gallery", images, paths, None, "irt", stage)
    losses = finetune_stacked(stacked, train_pairs,
                              cfg.stack_hyper(derive_seed(cfg.seed, _TAG_STACK)))
    post_mse = holdout_mse()

    paths.checkpoints.mkdir(parents=True, exist_ok=True)
    save_weights(stacked.params, paths.checkpoint(CKPT_STACK))
    _update_metrics_csv(paths.ced_metrics, {
        "stack_pre_mse": pre_mse,
        "stack_post_mse": post_mse,
        "stack_train_loss_final": losses[-1] if losses else float("nan"),
    })


def stage_assemble_features(cfg: PipelineConfig) -> None:
    paths = _paths(cfg)
    stage = "assemble-features"
    records = _read_records(paths, stage)
    images = _load_images(paths, records)
    stacked = _load_stack(cfg, paths, stage)

    keys = [_orig_key(r.subject_id, r.sample_index) for r in records]
    raws = [images[(r.subject_id, r.sample_index)] for r in records]
    for entries in _training_entries(records, cfg.aug_copies).values():
        for entry in entries:
            if entry[0] == "aug":
                keys.append(_entry_key(entry))
                raws.append(_entry_raw(entry, images, cfg.seed))

    mcis = extract_features_batch(stacked, np.stack(raws))
    paths.features.parent.mkdir(parents=True, exist_ok=True)
    np.savez(paths.features, **dict(zip(keys, mcis)))


def _load_training_pool(cfg: PipelineConfig, paths: RunPaths,
                        stage: str) -> dict[int, list[np.ndarray]]:
    records = _read_records(paths, stage)
    entries = _training_entries(records, cfg.aug_copies)
    path = _require(paths.features, stage, "assemble-features")
    try:
        with np.load(path) as npz:
            return {sid: [npz[_entry_key(e)] for e in es] for sid, es in entries.items()}
    except zipfile.BadZipFile as exc:
        raise OSError(f"{path}: corrupt feature file ({exc})") from exc


def stage_pretrain_ae(cfg: PipelineConfig) -> None:
    paths = _paths(cfg)
    pool = _load_training_pool(cfg, paths, "pretrain-ae")
    images = np.concatenate([np.stack(mcis) for mcis in pool.values()])
    fe = build_fe(cfg.fe_config(), seed=derive_seed(cfg.seed, _TAG_FE))
    losses = pretrain_autoencoder(fe, images, cfg.ae_hyper(derive_seed(cfg.seed, _TAG_AE)))
    paths.checkpoints.mkdir(parents=True, exist_ok=True)
    save_weights(fe.params, paths.checkpoint(CKPT_FE_PRETRAINED))
    paths.ae_log.write_text(
        "epoch,loss\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(losses)),
        encoding="utf-8")


def stage_train_triplet(cfg: PipelineConfig) -> None:
    paths = _paths(cfg)
    stage = "train-triplet"
    fe = _load_fe(cfg, paths, CKPT_FE_PRETRAINED, stage, "pretrain-ae")
    dataset = _load_training_pool(cfg, paths, stage)
    log = train_triplet(fe, dataset, cfg.margin_schedule(),
                        cfg.triplet_hyper(derive_seed(cfg.seed, _TAG_TRIPLET)))
    write_training_log(log, paths.training_log)
    save_weights(fe.params, paths.checkpoint(CKPT_FE_TRIPLET))


def _chunked_triplet_backward(embed: Callable[[list[tuple[int, int]]], Tensor],
                              batch: TripletBatch) -> float:
    """Triplet loss of ``batch``, with its exact parameter gradients
    accumulated one chunk graph at a time (gradient caching).

    ``embed(refs)`` maps sample references to an ``[n, d]`` embedding tensor
    with a graph. Each distinct corner sample is first embedded once, in
    chunks of ``_E2E_CHUNK`` under ``no_grad``. The loss and its
    gradient with respect to those embeddings come from row gathers held as
    leaves; a sample in several corners gets the sum of its rows' gradients.
    Each chunk is then embedded again with a graph and backpropagated against
    its slice of that gradient, so peak memory is one chunk's graph.
    """
    refs = list(dict.fromkeys(c for t in batch.triplets
                              for c in (t.anchor, t.positive, t.negative)))
    row_of = {ref: r for r, ref in enumerate(refs)}
    starts = range(0, len(refs), _E2E_CHUNK)
    with no_grad():
        emb = np.concatenate([embed(refs[s:s + _E2E_CHUNK]).data for s in starts])

    rows = [np.array([row_of[getattr(t, corner)] for t in batch.triplets])
            for corner in ("anchor", "positive", "negative")]
    leaves = [Tensor(emb[r], requires_grad=True) for r in rows]
    loss = triplet_loss_batch(*leaves, batch.margin)
    backward(loss)
    grad = np.zeros_like(emb)
    for leaf, r in zip(leaves, rows):
        np.add.at(grad, r, leaf.grad)

    for s in starts:
        chunk = embed(refs[s:s + _E2E_CHUNK])
        backward((chunk * Tensor(grad[s:s + _E2E_CHUNK])).sum())
    return float(loss.data)


def stage_finetune_e2e(cfg: PipelineConfig) -> None:
    """Joint finetuning: gradients reach both CEDs and the FE.

    Hard negatives are mined against the feature images stage 6 saved, which
    are those of the CEDs as this stage starts; the training step itself
    recomputes the batch's feature stacks inside the live graph so the CEDs
    receive gradients through the triplet loss. It does so in chunks of
    ``_E2E_CHUNK`` distinct samples, so its memory does not grow with
    ``e2e.batch``.
    """
    paths = _paths(cfg)
    stage = "finetune-e2e"
    stacked = _load_stack(cfg, paths, stage)
    fe = _load_fe(cfg, paths, CKPT_FE_TRIPLET, stage, "train-triplet")
    records = _read_records(paths, stage)
    images = _load_images(paths, records)
    entries = _training_entries(records, cfg.aug_copies)

    raw_pool = {sid: [_entry_raw(e, images, cfg.seed).astype(np.float32, copy=False)
                      for e in es]
                for sid, es in entries.items()}
    del images
    # one copy of the saved pool: the mining dataset's samples are row views
    # of the table its embeddings come from, whose rows run subject by
    # subject in ascending order
    static_mcis = dataset_images(_load_training_pool(cfg, paths, stage))
    rows = iter(static_mcis)
    static_ds = {sid: [next(rows) for _ in entries[sid]] for sid in sorted(entries)}

    # constant margin at the schedule's final value throughout this phase
    sched = MarginSchedule(total_steps=max(cfg.e2e_steps, 1),
                           m_start=cfg.margin_end, m_end=cfg.margin_end)
    set_trainable(fe, trunk=True, head=True)
    params = ParamSet.union(("stack", stacked.params), ("fe", fe.params))
    e2e_seed = derive_seed(cfg.seed, _TAG_E2E)

    def live_embeddings(refs: list[tuple[int, int]]) -> Tensor:
        x = Tensor(np.stack([raw_pool[sid][i] for sid, i in refs])[:, None])
        mid = ced_apply(stacked.first, x)
        out = ced_apply(stacked.second, mid)
        return fe_apply(fe, concat_channels(concat_channels(x, mid), out))

    logs: list[StepLog] = []

    def grad_step(step: int, _) -> float:
        batch = build_batch(static_ds, embed_batch(fe, static_mcis), sched, step,
                            batch_size=cfg.e2e_batch, seed=e2e_seed,
                            subset_size=cfg.triplet_subset)
        loss_val = _chunked_triplet_backward(live_embeddings, batch)
        logs.append(StepLog(step=step, loss=loss_val, margin=batch.margin,
                            violator_rate=batch.violator_rate, phase="e2e"))
        return loss_val

    fit(params, cfg.effective_e2e_lr, range(cfg.e2e_steps), grad_step, "end-to-end training")

    paths.checkpoints.mkdir(parents=True, exist_ok=True)
    save_weights(params, paths.checkpoint(CKPT_E2E))
    write_training_log(logs, paths.e2e_log)


def _labeled(records: Sequence[ManifestRecord], embs: np.ndarray) -> tuple[list, list]:
    """(gallery, probe) labeled embeddings, one row of ``embs`` per record."""
    gallery = [(r.subject_id, e) for r, e in zip(records, embs) if r.role == "gallery"]
    probe = [(r.subject_id, e) for r, e in zip(records, embs) if r.role == "probe"]
    return gallery, probe


def stage_evaluate(cfg: PipelineConfig) -> EvalReport:
    paths = _paths(cfg)
    stage = "evaluate"
    stacked, fe = _load_final_models(cfg, paths, stage)
    records = _read_records(paths, stage)
    images = _load_images(paths, records)
    mcis = extract_features_batch(
        stacked, np.stack([images[(r.subject_id, r.sample_index)] for r in records]))
    report = build_report(*_labeled(records, embed_batch(fe, mcis)))
    emit_report(report, paths.report)

    # baseline: identical features through a freshly initialized extractor
    baseline = build_fe(cfg.fe_config(), seed=derive_seed(cfg.seed, _TAG_BASELINE))
    emit_report(build_report(*_labeled(records, embed_batch(baseline, mcis))),
                paths.report_untrained)
    return report


STAGES: tuple[tuple[int, str, Callable[[PipelineConfig], object]], ...] = (
    (1, "gen-data", stage_gen_data),
    (2, "transform-targets", stage_transform_targets),
    (3, "train-ced1", stage_train_ced1),
    (4, "train-ced2", stage_train_ced2),
    (5, "finetune-stack", stage_finetune_stack),
    (6, "assemble-features", stage_assemble_features),
    (7, "pretrain-ae", stage_pretrain_ae),
    (8, "train-triplet", stage_train_triplet),
    (9, "finetune-e2e", stage_finetune_e2e),
    (10, "evaluate", stage_evaluate),
)

STAGE_NAMES = {index: name for index, name, _ in STAGES}


def _append_stage_log(paths: RunPaths, index: int, name: str, seconds: float) -> None:
    line = f"{index},{name},{seconds:.3f}\n"
    if paths.stage_log.exists():
        paths.stage_log.write_text(
            paths.stage_log.read_text(encoding="utf-8") + line, encoding="utf-8")
    else:
        paths.stage_log.write_text("stage,name,seconds\n" + line, encoding="utf-8")


def run_stages(cfg: PipelineConfig, indices: Sequence[int],
               progress: Callable[[str], None] | None = None) -> dict[int, object]:
    """Run the given stages in order; returns each stage's result by index."""
    by_index = {index: (name, fn) for index, name, fn in STAGES}
    unknown = [i for i in indices if i not in by_index]
    if unknown:
        raise ContractError(f"unknown stage indices {unknown}; valid: 1..{len(STAGES)}")

    paths = _paths(cfg)
    paths.root.mkdir(parents=True, exist_ok=True)
    paths.resolved_config.write_text(cfg.to_text(), encoding="utf-8")

    results: dict[int, object] = {}
    for index in indices:
        name, fn = by_index[index]
        started = time.perf_counter()
        try:
            results[index] = fn(cfg)
        except StageError:
            raise
        except Exception as exc:
            raise StageError(name, str(exc)) from exc
        seconds = time.perf_counter() - started
        _append_stage_log(paths, index, name, seconds)
        if progress is not None:
            progress(f"stage {index} ({name}) finished in {seconds:.1f}s")
    return results


def run_full_pipeline(cfg: PipelineConfig,
                      progress: Callable[[str], None] | None = None) -> EvalReport:
    """Execute all ten stages and return the evaluation report."""
    results = run_stages(cfg, [index for index, _, _ in STAGES], progress)
    return results[STAGES[-1][0]]


# ---------------------------------------------------------------------------
# Enrollment / verification on a finished run
# ---------------------------------------------------------------------------


def _embed_one(stacked: StackedCED, fe: FEModel, image: np.ndarray) -> np.ndarray:
    """Embedding of one [H,W] image, computed as a batch of one.

    Enrollment and verification both embed through here: a batch of one is
    bit-identical from call to call, while rows of a larger batch may differ
    from it in the last float32 bits.
    """
    return embed_batch(fe, extract_features_batch(stacked, image[None]))[0]


def enroll(cfg: PipelineConfig) -> Path:
    """Embed all gallery samples with the final models into enrollment.vfw.

    Embeds one image at a time through the exact code path ``verify_probe``
    uses, so re-presenting an enrolled image yields a bit-identical embedding
    and a distance of exactly zero.
    """
    paths = _paths(cfg)
    stage = "enroll"
    stacked, fe = _load_final_models(cfg, paths, stage)
    records = [r for r in _read_records(paths, stage) if r.role == "gallery"]
    if not records:
        raise ContractError("manifest contains no gallery samples to enroll")
    images = _load_images(paths, records)
    arrays = {
        _sample_tag(r.subject_id, r.sample_index):
            _embed_one(stacked, fe, images[(r.subject_id, r.sample_index)])
        for r in records
    }
    save_weights(arrays, paths.enrollment)
    return paths.enrollment


def verify_probe(cfg: PipelineConfig, probe_path: str | Path, threshold: float,
                 enrollment: str | Path | None = None) -> tuple[float, bool]:
    """Score one probe image against an enrollment.

    Returns (distance to the nearest enrolled sample, accepted?); a probe is
    accepted iff its distance is strictly below the threshold.

    The models and the enrollment are parsed on the first call in a process
    and reused by later calls while the bytes of their files are unchanged;
    each call still reads both files in full to compare them.
    """
    if threshold <= 0:
        raise ContractError(f"threshold must be positive, got {threshold}")
    paths = _paths(cfg)
    stacked, fe = _load_final_models(cfg, paths, "verify")
    enr_path = Path(enrollment) if enrollment is not None else paths.enrollment
    if not enr_path.exists():
        raise StageError("verify", f"missing enrollment {enr_path} (run enroll first)")
    gallery = _load_gallery(enr_path)
    probe_emb = _embed_one(stacked, fe, read_pgm(probe_path))
    distance = min(match_score(probe_emb, enrolled) for enrolled in gallery)
    return distance, distance < threshold


def calibrated_threshold(cfg: PipelineConfig) -> float:
    """The run's equal-error threshold, from the report stage 10 wrote."""
    path = _paths(cfg).report / "metrics.csv"
    if not path.exists():
        raise StageError("verify", f"missing {path} (run eval first, or pass a threshold)")
    try:
        return float(_read_metrics_csv(path)["eer_threshold"])
    except (KeyError, ValueError) as exc:
        raise StageError("verify", f"{path} has no valid eer_threshold row "
                                   f"(run eval again, or pass a threshold)") from exc
