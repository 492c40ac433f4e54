"""Acceptance suite: ten end-to-end criteria, one test per criterion so a
verbose pytest run shows exactly one pass/fail line for each.

Criteria 7 and 8 run real desk-scale training and enforce wall-clock budgets
(5 and 15 minutes); everything else is oracle-checked in seconds. Desk runs
are cached per seed so the embedding-contract criterion reuses the run the
learning-effect criterion already paid for.
"""

import csv
import time

import numpy as np
import pytest

from palmvein import (
    ParamSet,
    PipelineConfig,
    Tensor,
    adaptive_avg_pool2d,
    backward,
    run_battery,
    run_full_pipeline,
    run_stages,
)
from palmvein.evalkit import ScoreSet, crr, di, eer, roc, score_all
from palmvein.fe import FEConfig, build_fe, embed_batch, fe_apply, trunk_apply
from palmvein.pipeline import RunPaths, enroll
from palmvein.triplet import (
    MarginSchedule,
    margin_at,
    mine_hard_negatives,
    triplet_loss_batch,
)
from palmvein.weights import load_arrays, save_weights
from test_evalkit import brute_crr, brute_di, random_protocol
from test_fe import fullscale_config
from test_pipeline import micro_config

DESK_BUDGET_S = 15 * 60
CED_BUDGET_S = 5 * 60
BATTERY_BUDGET_S = 60

_desk_cache: dict[int, dict] = {}


@pytest.fixture(scope="session")
def desk_run(tmp_path_factory):
    """Lazy, cached full pipeline runs at the 20x10 desk scale, per seed."""

    def run(seed: int) -> dict:
        if seed not in _desk_cache:
            out = tmp_path_factory.mktemp(f"desk_s{seed}")
            cfg = PipelineConfig(seed=seed, out=str(out))
            t0 = time.time()
            report = run_full_pipeline(cfg)
            wall = time.time() - t0
            with open(out / "report_untrained" / "metrics.csv") as f:
                untrained = {row[0]: float(row[1])
                             for row in csv.reader(f) if row[0] != "metric"}
            _desk_cache[seed] = dict(cfg=cfg, report=report,
                                     untrained=untrained, wall=wall)
        return _desk_cache[seed]

    return run


def test_criterion_01_gradient_integrity():
    """Primitives (64-bit, tol 1e-3), both desk nets (32-bit, tol 1e-2) and
    their end-to-end composition (64-bit, tol 1e-2) pass central finite
    differences, >= 20 trials each, under 60 s."""
    t0 = time.time()
    cases = run_battery(trials=20)
    wall = time.time() - t0
    failed = [c.line() for c in cases if not c.passed]
    assert not failed, failed
    assert all(c.trials >= 20 for c in cases)
    assert wall < BATTERY_BUDGET_S, f"battery took {wall:.1f}s"


def test_criterion_02_loss_exactness():
    """Hinge loss on squared distances reproduces the substitution cases
    exactly, one triplet per one-row batch; the inactive hinge has exactly
    zero gradient."""
    e = np.zeros(16)
    e1, e2 = e.copy(), e.copy()
    e1[0] = 1.0
    e2[1] = 1.0

    def t(v):
        return Tensor(v[None].copy(), requires_grad=True)

    def loss(a, p, hn, margin):
        return triplet_loss_batch(t(a), t(p), t(hn), margin)

    # hn = a and M = 0 leave 0.5 * J_p: the squared distances themselves
    assert float(loss(e1, e1, e1, 0.0).data) == 0.0
    assert float(loss(e1, e2, e1, 0.0).data) == 0.5 * 2.0
    assert float(loss(e1, -e1, e1, 0.0).data) == 0.5 * 4.0

    # a = p = hn, M = 0.3 -> exactly 0.5 * 0.3
    assert float(loss(e1, e1, e1, 0.3).data) == 0.5 * 0.3

    # J_p = 0, J_hn = 2, M = 0.5 -> hinge inactive: zero loss, zero gradient
    a, p, hn = t(e1), t(e1), t(e2)
    inactive = triplet_loss_batch(a, p, hn, margin=0.5)
    assert float(inactive.data) == 0.0
    backward(inactive)
    for v in (a, p, hn):
        assert not v.grad.any()

    # J_p = 1.0, J_hn = 1.2, M = 0.5 -> 0.15 by direct substitution
    hn_12 = e.copy()
    hn_12[0] = np.sqrt(1.2)
    assert float(loss(e, e1, hn_12, 0.5).data) == pytest.approx(0.15, abs=1e-12)


def test_criterion_03_mining_oracle():
    """Miner output equals exhaustive scan on >= 100 randomized instances."""
    rng = np.random.default_rng(303)
    mismatches = 0
    for i in range(120):
        n = int(rng.integers(3, 40))
        pool = rng.normal(size=(n, 16))
        anchor = rng.normal(size=16)
        j_p = float(rng.uniform(0, 2.0))
        margin = float(rng.uniform(0, 0.6))
        k = int(rng.integers(1, 5))
        subset_size = int(rng.integers(1, n + 1))
        res = mine_hard_negatives(anchor, pool, j_p, margin, k=k, seed=i,
                                  subset_size=subset_size)
        # exhaustive scan over the reported subset with the same threshold
        sub = np.array(res.subset)
        d = ((pool[sub] - anchor) ** 2).sum(axis=1)
        order = np.lexsort((sub, d))
        viol = [int(sub[j]) for j in order if d[j] < j_p + margin]
        expected = viol[:k] if viol else [int(sub[order[0]])]
        if list(res.negatives) != expected or res.fallback != (not viol):
            mismatches += 1
    assert mismatches == 0


def test_criterion_04_margin_schedule():
    """Exact 0.2 / 0.5 endpoints, monotone non-decreasing in between."""
    for total in (1, 7, 60, 1000):
        sched = MarginSchedule(total_steps=total, m_start=0.2, m_end=0.5)
        assert margin_at(0, sched) == 0.2
        assert margin_at(total, sched) == 0.5
        ms = [margin_at(s, sched) for s in range(total + 1)]
        assert all(b >= a for a, b in zip(ms, ms[1:]))


def _recount_roc(gen, imp, thresholds, block=512):
    """Independent FAR/FRR recount: direct comparison counting, chunked."""
    far = np.empty(thresholds.size)
    frr = np.empty(thresholds.size)
    for i in range(0, thresholds.size, block):
        ts = thresholds[i:i + block, None]
        far[i:i + ts.size] = (imp[None, :] < ts).mean(axis=1)
        frr[i:i + ts.size] = (gen[None, :] >= ts).mean(axis=1)
    return far, frr


def _recount_eer(gen, imp):
    """EER from first principles: recount the sweep, interpolate crossing."""
    pooled = np.concatenate([gen, imp])
    eps = max(1e-9, (pooled.max() - pooled.min()) * 1e-6)
    ts = np.unique(np.concatenate([[pooled.min() - eps], pooled,
                                   [pooled.max() + eps]]))
    far, frr = _recount_roc(gen, imp, ts)
    d = far - frr
    i = int(np.argmax(d >= 0))
    if d[i] == 0:
        return 0.5 * (far[i] + frr[i])
    lam = -d[i - 1] / (d[i] - d[i - 1])
    return 0.5 * ((far[i - 1] + lam * (far[i] - far[i - 1]))
                  + (frr[i - 1] + lam * (frr[i] - frr[i - 1])))


def test_criterion_05_metric_oracles():
    """eer/roc/crr/di match brute-force recomputation within 1e-9 on >= 100
    random score sets; di affine-invariant, crr monotone-invariant."""
    rng = np.random.default_rng(505)
    for trial in range(110):
        n_g = int(rng.integers(5, 1500))
        n_i = int(rng.integers(5, 1500))
        shift = rng.uniform(0, 0.8)
        s = ScoreSet(genuine=rng.uniform(0, 1.2, n_g),
                     impostor=rng.uniform(shift, 2.2, n_i))

        assert abs(eer(s) - _recount_eer(s.genuine, s.impostor)) < 1e-9
        assert abs(di(s) - brute_di(s.genuine, s.impostor)) < 1e-9

        curve = roc(s)
        far, frr = _recount_roc(s.genuine, s.impostor, curve.thresholds)
        assert np.abs(curve.far - far).max() < 1e-9
        assert np.abs(curve.frr - frr).max() < 1e-9

        # di affine invariance: positive scaling + shift leave di unchanged
        # (shift non-negative so the transformed scores remain distances)
        a, b = float(rng.uniform(0.1, 5)), float(rng.uniform(0, 3))
        s2 = ScoreSet(genuine=a * s.genuine + b, impostor=a * s.impostor + b)
        assert abs(di(s2) - di(s)) < 1e-9

    for trial in range(100):
        gallery, probe = random_protocol(
            rng, n_subjects=int(rng.integers(2, 8)),
            n_gallery=int(rng.integers(1, 4)), n_probe=int(rng.integers(1, 4)))
        got = crr(gallery, probe)
        assert abs(got - brute_crr(gallery, probe)) < 1e-9
        # rank-1 is invariant under any strictly monotone score transform
        assert abs(got - brute_crr(gallery, probe,
                                   transform=lambda d: np.exp(3 * d) - 0.5)) < 1e-9


def test_criterion_06_protocol_counting():
    """200 subjects split 3 gallery + 3 probe -> 1800 genuine and 358200
    impostor scores, and the counting identity holds."""
    rng = np.random.default_rng(606)
    gallery, probe = random_protocol(rng, n_subjects=200, n_gallery=3,
                                     n_probe=3, dim=2)
    s = score_all(gallery, probe)
    assert s.genuine.size == 1800
    assert s.impostor.size == 358200
    assert s.genuine.size + s.impostor.size == len(gallery) * len(probe)


def test_criterion_07_ced_learning_effect(tmp_path):
    """Desk scale, 120 training pairs (20 subjects x 12 samples, gallery
    half), 64x64, depth 3, seed 0, <= 5 min: trained transform beats the
    identity baseline on held-out targets, and stack finetuning lowers the
    original->ray-transform MSE."""
    cfg = PipelineConfig(seed=0, out=str(tmp_path), samples=12)
    assert cfg.subjects * cfg.samples // 2 == 120  # training pairs
    assert cfg.size == 64 and cfg.ced_depth == 3
    t0 = time.time()
    run_stages(cfg, [1, 2, 3, 4, 5])
    wall = time.time() - t0
    with open(RunPaths(cfg.out_dir).ced_metrics) as f:
        m = {row[0]: float(row[1]) for row in csv.reader(f) if row[0] != "key"}
    assert m["ced1_holdout_mse"] < m["identity_holdout_mse"], m
    assert m["stack_post_mse"] < m["stack_pre_mse"], m
    assert wall <= CED_BUDGET_S, f"took {wall:.0f}s"


def test_criterion_08_end_to_end_learning_effect(desk_run):
    """20 subjects x 10 samples at 64x64, <= 15 min per run: trained EER
    <= 15% and strictly below the untrained-extractor EER on the same split,
    trained DI above untrained DI; must hold for >= 2 of seeds {0, 1, 2}."""
    outcomes = {}
    for seed in (0, 1, 2):
        r = desk_run(seed)
        ok = (r["wall"] <= DESK_BUDGET_S
              and r["report"].eer <= 0.15
              and r["report"].eer < r["untrained"]["eer"]
              and r["report"].di > r["untrained"]["di"])
        outcomes[seed] = (ok, round(r["report"].eer, 4),
                          round(r["untrained"]["eer"], 4),
                          round(r["wall"]))
        if sum(passed for passed, *_ in outcomes.values()) >= 2:
            break
    n_pass = sum(passed for passed, *_ in outcomes.values())
    assert n_pass >= 2, f"only {n_pass} of seeds passed: {outcomes}"


def test_criterion_09_embedding_contract(desk_run):
    """Every pipeline-produced embedding has norm 1 +- 1e-5; the full-size
    preset exposes the 7x7x512 trunk interface and a 128-d embedding."""
    r = desk_run(0)
    enroll(r["cfg"])
    enrolled = load_arrays(RunPaths(r["cfg"].out_dir).enrollment)
    assert len(enrolled) == 100  # 20 subjects x 5 gallery samples
    norms = np.array([np.linalg.norm(e) for e in enrolled.values()])
    assert np.abs(norms - 1.0).max() <= 1e-5

    # batch path, untrained weights: the contract is architectural
    rng = np.random.default_rng(909)
    fe = build_fe(FEConfig(), seed=3)
    embs = embed_batch(fe, rng.uniform(size=(17, 3, 64, 64)).astype(np.float32))
    assert np.abs(np.linalg.norm(embs, axis=1) - 1.0).max() <= 1e-5

    # full-size preset interface
    full = build_fe(fullscale_config(), seed=0)
    x = Tensor(rng.uniform(size=(1, 3, 150, 150)).astype(np.float32))
    feat = adaptive_avg_pool2d(trunk_apply(full, x), 7)
    assert feat.shape == (1, 512, 7, 7)
    out = fe_apply(full, x)
    assert out.shape == (1, 128)
    assert abs(np.linalg.norm(out.data) - 1.0) <= 1e-5


def test_criterion_10_persistence_and_determinism(tmp_path):
    """Weights round-trip bit-exactly; two identical runs produce
    byte-identical metrics.csv."""
    rng = np.random.default_rng(1010)
    ps = ParamSet()
    ps.add("a.w", Tensor(rng.normal(size=(5, 3, 3, 3)).astype(np.float32),
                         requires_grad=True))
    ps.add("b.b", Tensor(rng.normal(size=7).astype(np.float32),
                         requires_grad=True))
    save_weights(ps, tmp_path / "w.vfw")
    arrays = load_arrays(tmp_path / "w.vfw")
    for name, t in ps.items():
        assert arrays[name].tobytes() == t.data.tobytes()

    run_full_pipeline(micro_config(tmp_path / "r1", seed=4))
    run_full_pipeline(micro_config(tmp_path / "r2", seed=4))
    m1 = (RunPaths(tmp_path / "r1").report / "metrics.csv").read_bytes()
    m2 = (RunPaths(tmp_path / "r2").report / "metrics.csv").read_bytes()
    assert m1 == m2
