"""Self-tests of the output checks: each passes a good output and rejects a
corrupted copy.  Good outputs come from palmvein's own functions on seeded
weights and small inputs; nothing is trained.

    python3 -m pytest pvsbench/test_checks.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from palmvein import PipelineConfig, enroll, run_stages, verify_probe  # noqa: E402
from palmvein.ced import build_ced, extract_features_batch, stack_ceds  # noqa: E402
from palmvein.dataio import ManifestRecord, write_manifest  # noqa: E402
from palmvein.evalkit import build_report, emit_report  # noqa: E402
from palmvein.fe import build_fe, embed_batch  # noqa: E402
from palmvein.pipeline import CKPT_E2E, RunPaths  # noqa: E402
from palmvein.tensor import ParamSet  # noqa: E402
from palmvein.transforms import irt, tcm  # noqa: E402
from palmvein.triplet import MarginSchedule, margin_at  # noqa: E402
from palmvein.weights import save_weights  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from checks import CheckFailed  # noqa: E402

BENCH = Path(__file__).resolve().parent


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_reference_forward_matches_program(tmp_path, rng):
    cfg = PipelineConfig()
    stacked = stack_ceds(build_ced(cfg.ced_config(), seed=1), build_ced(cfg.ced_config(), seed=2))
    fe = build_fe(cfg.fe_config(), seed=3)
    save_weights(ParamSet.union(("stack", stacked.params), ("fe", fe.params)), tmp_path / "w.vfw")
    weights = ref.read_vfw(tmp_path / "w.vfw")
    images = rng.integers(0, 256, (3, 64, 64)) / 255.0

    feats = extract_features_batch(stacked, images.astype(np.float32))
    want_feats = ref.features(ref.subset(weights, "stack."), images)
    checks.check_close("features", feats, want_feats, checks.FEATURE_ATOL)
    emb = embed_batch(fe, feats)
    checks.check_close("embeddings", emb, ref.verifier_embeddings(weights, images),
                       checks.EMBEDDING_ATOL)

    corrupt = feats.copy()
    corrupt[1, 2, 10, 10] += 1e-3
    with pytest.raises(CheckFailed):
        checks.check_close("features", corrupt, want_feats, checks.FEATURE_ATOL)
    corrupt = emb.copy()
    corrupt[0, 5] += 1e-4
    with pytest.raises(CheckFailed):
        checks.check_close("embeddings", corrupt, ref.verifier_embeddings(weights, images),
                           checks.EMBEDDING_ATOL)


def test_census(rng):
    pixels = rng.integers(0, 256, (12, 10)).astype(np.uint8)
    good = tcm((pixels / 255.0).astype(np.float32))
    checks.check_census("img", good, pixels)
    bad = good.copy()
    bad[0, 0] = bad[0, 0] + np.float32(1 / 255)
    with pytest.raises(CheckFailed):
        checks.check_census("img", bad, pixels)


def test_irt(rng):
    good = irt(rng.random((16, 16)), ray_count=200, seed=0)
    checks.check_irt("img", good)
    with pytest.raises(CheckFailed):
        checks.check_irt("img", good * np.float32(0.9))
    with pytest.raises(CheckFailed):
        checks.check_irt("img", good - np.float32(0.01))


def test_ced1_holdout():
    checks.check_ced1_holdout(0.15, 0.15)
    with pytest.raises(CheckFailed):
        checks.check_ced1_holdout(0.16, 0.15)


def test_stack_mse():
    checks.check_stack_mse(0.098, 0.030)
    with pytest.raises(CheckFailed):
        checks.check_stack_mse(0.030, 0.098)


def test_margins():
    sched = MarginSchedule(total_steps=7, m_start=0.2, m_end=0.5)
    steps = list(range(7))
    good = [margin_at(s, sched) for s in steps]
    checks.check_margins("log", steps, good, 7, 0.2, 0.5)
    bad = good[:3] + [good[3] + 0.01] + good[4:]
    with pytest.raises(CheckFailed):
        checks.check_margins("log", steps, bad, 7, 0.2, 0.5)


def _evaluated_run(root: Path, rng) -> None:
    """A run directory holding a manifest and the two reports of stage 10."""
    records = [ManifestRecord(sid, idx, "gallery" if idx < 2 else "probe", "A",
                              f"s{sid:04d}_i{idx:02d}.pgm")
               for sid in range(4) for idx in range(5)]
    write_manifest(records, root / "data" / "manifest.tsv")
    for report in ("report", "report_untrained"):
        emb = rng.normal(size=(len(records), 8))
        labeled = [(r.subject_id, e / np.linalg.norm(e)) for r, e in zip(records, emb)]
        emit_report(build_report([x for x, r in zip(labeled, records) if r.role == "gallery"],
                                 [x for x, r in zip(labeled, records) if r.role == "probe"]),
                    root / report)


def test_evaluate_run(tmp_path, rng):
    _evaluated_run(tmp_path, rng)
    checks.check_evaluate_run(tmp_path)


def test_counts(tmp_path, rng):
    _evaluated_run(tmp_path, rng)
    manifest = ref.read_manifest(tmp_path / "data" / "manifest.tsv")
    m = checks.read_kv_csv(tmp_path / "report" / "metrics.csv")
    checks.check_counts(manifest, int(m["n_genuine"]), int(m["n_impostor"]))
    with pytest.raises(CheckFailed):
        checks.check_counts(manifest, int(m["n_genuine"]), int(m["n_impostor"]) + 1)


def test_roc(tmp_path, rng):
    _evaluated_run(tmp_path, rng)
    cols = checks.read_columns(tmp_path / "report" / "roc.csv")
    far, frr = [float(v) for v in cols["far"]], [float(v) for v in cols["frr"]]
    checks.check_roc(far, frr)
    assert far[2] < 1.0
    with pytest.raises(CheckFailed):
        checks.check_roc(far[:1] + [1.0] + far[2:], frr)
    with pytest.raises(CheckFailed):
        checks.check_roc(far[:-1], frr[:-1])


def test_eer(tmp_path, rng):
    _evaluated_run(tmp_path, rng)
    cols = checks.read_columns(tmp_path / "report" / "roc.csv")
    far, frr = [float(v) for v in cols["far"]], [float(v) for v in cols["frr"]]
    eer = checks.read_kv_csv(tmp_path / "report" / "metrics.csv")["eer"]
    checks.check_eer(eer, far, frr)
    with pytest.raises(CheckFailed):
        checks.check_eer(eer + 0.01, far, frr)


def test_verify():
    good = [(True, 0.0, True), (False, 0.7, False), (False, 0.3, True)]
    checks.check_verify(good, 0.5)
    with pytest.raises(CheckFailed):
        checks.check_verify(good + [(False, 0.7, True)], 0.5)
    with pytest.raises(CheckFailed):
        checks.check_verify(good + [(True, 1e-9, True)], 0.5)


def test_verify_run(tmp_path):
    """Seeded weights, a small enrollment, and one verify call per image."""
    cfg = PipelineConfig(seed=4, out=str(tmp_path), subjects=3, samples=4)
    run_stages(cfg, [1])
    stacked = stack_ceds(build_ced(cfg.ced_config(), seed=1), build_ced(cfg.ced_config(), seed=2))
    fe = build_fe(cfg.fe_config(), seed=3)
    save_weights(ParamSet.union(("stack", stacked.params), ("fe", fe.params)),
                 RunPaths(tmp_path).checkpoint(CKPT_E2E))
    enroll(cfg)
    manifest = ref.read_manifest(tmp_path / "data" / "manifest.tsv")
    calls = [(i, *verify_probe(cfg, tmp_path / "data" / rel, 0.5))
             for i, (*_, rel) in enumerate(manifest)]
    sample = list(range(len(manifest)))
    checks.check_verify_run(tmp_path, calls, 0.5, sample)

    probe = next(k for k, (i, *_) in enumerate(calls) if manifest[i][2] == "probe")
    i, d, ok = calls[probe]
    bad = calls[:probe] + [(i, d + 1e-4, d + 1e-4 < 0.5)] + calls[probe + 1:]
    with pytest.raises(CheckFailed):
        checks.check_verify_run(tmp_path, bad, 0.5, sample)


def test_benchmark_json_lists_every_metric():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == tracing.PER_LAYER
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
