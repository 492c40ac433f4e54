"""Output checks, made apart from palmvein.

Each ``check_*`` function takes values read from a run directory (or the
results of verify calls) and raises ``CheckFailed`` naming what is wrong.
The ``*_run`` functions read one workload's run directory with the readers
in ``reference`` and apply the checks that workload's outputs admit.  Every
check compares against a recomputation that does not use the package, or
against a property the method must have; none compares against stored
output of an earlier run.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

import reference as ref

FEATURE_ATOL = 1e-4    # float32 program against float64 reference, per pixel
EMBEDDING_ATOL = 1e-5  # per embedding component, and per verify distance
MSE_RTOL = 1e-4


class CheckFailed(Exception):
    pass


def _fail_if(cond: bool, message: str) -> None:
    if cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_close(what: str, got, want, atol: float) -> None:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    _fail_if(got.shape != want.shape, f"{what}: shape {got.shape} != reference {want.shape}")
    err = float(np.abs(got - want).max())
    _fail_if(not err <= atol, f"{what}: max |diff| {err:.3g} from the reference exceeds {atol:g}")


def check_census(what: str, target, pixels) -> None:
    want = ref.census(pixels).astype(np.float32)
    _fail_if(not np.array_equal(np.asarray(target), want),
             f"{what}: census target differs from the code recomputed from the PGM")


def check_irt(what: str, target) -> None:
    t = np.asarray(target)
    _fail_if(not (t.min() >= 0.0 and t.max() <= 1.0), f"{what}: irt values leave [0, 1]")
    _fail_if(t.max() != 1.0, f"{what}: irt peak is {t.max()!r}, not exactly 1")


def check_ced1_holdout(recorded: float, recomputed: float) -> None:
    # Not gated: recomputed < identity MSE.  CED-1 collapses to a constant
    # output at some seeds (seed 9: 0.353 against 0.239 at any epoch count),
    # so that learning property fails on some seeds only.
    _fail_if(abs(recorded - recomputed) > MSE_RTOL * recomputed,
             f"ced1_holdout_mse {recorded!r} != recomputed {recomputed!r}")


def check_stack_mse(pre: float, post: float) -> None:
    _fail_if(not post < pre, f"stack MSE after fine-tuning {post!r} is not below {pre!r} before it")


def check_margins(what: str, steps, margins, total: int, m_start: float, m_end: float) -> None:
    for step, margin in zip(steps, margins):
        want = m_start + (m_end - m_start) * min(step, total) / total
        _fail_if(abs(margin - want) > 1e-12,
                 f"{what}: step {step} margin {margin!r}, linear schedule gives {want!r}")


def check_counts(manifest, n_genuine: int, n_impostor: int) -> None:
    gallery, probe = {}, {}
    for sid, _idx, role, _rel in manifest:
        side = gallery if role == "gallery" else probe
        side[sid] = side.get(sid, 0) + 1
    genuine = sum(n * gallery.get(sid, 0) for sid, n in probe.items())
    impostor = sum(probe.values()) * sum(gallery.values()) - genuine
    _fail_if((n_genuine, n_impostor) != (genuine, impostor),
             f"counts {n_genuine}/{n_impostor}, the manifest gives {genuine}/{impostor}")


def check_roc(far, frr) -> None:
    far, frr = np.asarray(far), np.asarray(frr)
    _fail_if(np.any(np.diff(far) < 0), "ROC: FAR decreases as the threshold rises")
    _fail_if(np.any(np.diff(frr) > 0), "ROC: FRR increases as the threshold rises")
    _fail_if((far[0], frr[0]) != (0.0, 1.0), f"ROC starts at {(far[0], frr[0])}, not (0, 1)")
    _fail_if((far[-1], frr[-1]) != (1.0, 0.0), f"ROC ends at {(far[-1], frr[-1])}, not (1, 0)")


def eer_from_roc(far, frr) -> float:
    """FAR = FRR on the segment where FAR - FRR turns non-negative, linearly interpolated."""
    for k in range(len(far)):
        gap = far[k] - frr[k]
        if gap == 0.0:
            return 0.5 * (far[k] + frr[k])
        if gap > 0.0:
            prev = far[k - 1] - frr[k - 1]
            lam = prev / (prev - gap)
            return 0.5 * ((far[k - 1] + lam * (far[k] - far[k - 1]))
                          + (frr[k - 1] + lam * (frr[k] - frr[k - 1])))
    raise CheckFailed("ROC: FAR never reaches FRR")


def check_eer(recorded: float, far, frr) -> None:
    want = eer_from_roc(far, frr)
    _fail_if(abs(recorded - want) > 1e-12, f"EER {recorded!r}, roc.csv gives {want!r}")


def check_verify(calls, threshold: float) -> None:
    """``calls``: (enrolled?, distance, accepted) per verify call."""
    for enrolled, distance, accepted in calls:
        _fail_if(accepted != (distance < threshold),
                 f"verify: distance {distance!r} at threshold {threshold} gave accepted={accepted}")
        _fail_if(enrolled and distance != 0.0,
                 f"verify: an enrolled image scored {distance!r}, not exactly 0.0")


# ---------------------------------------------------------------------------
# Run-directory readers
# ---------------------------------------------------------------------------


def read_kv_csv(path) -> dict[str, float]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {k: float(v) for k, v in rows[1:]}


def read_columns(path) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {k: [r[k] for r in rows] for k in rows[0]}


def _tag(sid: int, idx: int) -> str:
    return f"s{sid:04d}_i{idx:02d}"


def _images(root: Path, rows) -> np.ndarray:
    return np.stack([ref.read_pgm(root / "data" / rel) for *_, rel in rows])


def check_train_run(root, triplet_steps: int, margin_start: float, margin_end: float,
                    sample: list[int]) -> None:
    """Stages 1-9 outputs; ``sample`` picks the manifest rows whose feature images are checked."""
    root = Path(root)
    manifest = ref.read_manifest(root / "data" / "manifest.tsv")
    for sid, idx, _role, rel in manifest:
        tag = _tag(sid, idx)
        check_census(tag, np.load(root / "targets" / f"tcm_{tag}.npy"),
                     ref.read_pgm_u8(root / "data" / rel))
        check_irt(tag, np.load(root / "targets" / f"irt_{tag}.npy"))

    probes = [row for row in manifest if row[2] == "probe"]
    x = _images(root, probes)
    y = np.stack([np.load(root / "targets" / f"tcm_{_tag(s, i)}.npy") for s, i, *_ in probes])
    ced1 = ref.read_vfw(root / "checkpoints" / "stage3_ced1.vfw")
    out = np.concatenate([ref.ced(ced1, x[i:i + 25, None])[:, 0] for i in range(0, len(x), 25)])
    metrics = read_kv_csv(root / "ced_metrics.csv")
    check_ced1_holdout(metrics["ced1_holdout_mse"], float(np.mean((out - y) ** 2)))
    check_stack_mse(metrics["stack_pre_mse"], metrics["stack_post_mse"])

    rows = [manifest[i] for i in sample]
    stack = ref.read_vfw(root / "checkpoints" / "stage5_stack.vfw")
    with np.load(root / "mci" / "features.npz") as npz:
        got = np.stack([npz[f"mci_{_tag(s, i)}"] for s, i, *_ in rows])
    check_close("feature images", got, ref.features(stack, _images(root, rows)), FEATURE_ATOL)

    for name, total, start in (("training_log.csv", triplet_steps, margin_start),
                               ("e2e_log.csv", 1, margin_end)):
        cols = read_columns(root / name)
        check_margins(name, [int(s) for s in cols["step"]], [float(m) for m in cols["margin"]],
                      total, start, margin_end)


def check_evaluate_run(root) -> None:
    root = Path(root)
    manifest = ref.read_manifest(root / "data" / "manifest.tsv")
    for report in ("report", "report_untrained"):
        metrics = read_kv_csv(root / report / "metrics.csv")
        check_counts(manifest, int(metrics["n_genuine"]), int(metrics["n_impostor"]))
        cols = read_columns(root / report / "roc.csv")
        far, frr = [float(v) for v in cols["far"]], [float(v) for v in cols["frr"]]
        check_roc(far, frr)
        check_eer(metrics["eer"], far, frr)


def check_verify_run(root, calls, threshold: float, sample: list[int]) -> None:
    """``calls``: (manifest row index, distance, accepted) per verify call.

    ``sample`` picks the manifest rows whose embeddings (gallery) or nearest
    distances (probe) are recomputed with the reference.
    """
    root = Path(root)
    manifest = ref.read_manifest(root / "data" / "manifest.tsv")
    check_verify([(manifest[i][2] == "gallery", d, ok) for i, d, ok in calls], threshold)

    enrolled = ref.read_vfw(root / "enrollment.vfw")
    rows = [manifest[i] for i in sample]
    emb = ref.verifier_embeddings(ref.read_vfw(root / "checkpoints" / "stage9_e2e.vfw"),
                                  _images(root, rows))
    gallery = np.stack(list(enrolled.values())).astype(np.float64)
    for (sid, idx, role, _), e in zip(rows, emb):
        if role == "gallery":
            check_close(f"enrolled embedding {_tag(sid, idx)}", enrolled[_tag(sid, idx)], e,
                        EMBEDDING_ATOL)
    want = {i: float(np.linalg.norm(gallery - e, axis=1).min()) for i, e in zip(sample, emb)}
    for i, d, _ in calls:
        if i in want and manifest[i][2] == "probe":
            check_close(f"verify distance {_tag(*manifest[i][:2])}", d, want[i], EMBEDDING_ATOL)
