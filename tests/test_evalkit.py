"""Evaluation-metric tests: brute-force recount oracles for ROC/EER/CRR,
formula oracles for DI, protocol counting identities, and report artifacts."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palmvein import ContractError, DimensionError
from palmvein.evalkit import (
    HISTOGRAM_BINS,
    ROCCurve,
    ScoreSet,
    build_report,
    crr,
    di,
    eer,
    emit_report,
    match_score,
    roc,
    score_all,
)

# ---------------------------------------------------------------------------
# Brute-force oracles (naive loops, no shared code with the implementation)
# ---------------------------------------------------------------------------


def brute_far_frr(gen, imp, t):
    far = sum(1 for s in imp if s < t) / len(imp)
    frr = sum(1 for s in gen if s >= t) / len(gen)
    return far, frr


def brute_eer(gen, imp):
    pooled = sorted(set(gen) | set(imp))
    eps = max(1e-9, (pooled[-1] - pooled[0]) * 1e-6)
    ts = [pooled[0] - eps] + pooled + [pooled[-1] + eps]
    pts = [brute_far_frr(gen, imp, t) for t in ts]
    d = [f - r for f, r in pts]
    i = next(j for j, v in enumerate(d) if v >= 0)
    if d[i] == 0:
        return 0.5 * (pts[i][0] + pts[i][1])
    lam = -d[i - 1] / (d[i] - d[i - 1])
    f_x = pts[i - 1][0] + lam * (pts[i][0] - pts[i - 1][0])
    r_x = pts[i - 1][1] + lam * (pts[i][1] - pts[i - 1][1])
    return 0.5 * (f_x + r_x)


def brute_di(gen, imp):
    mu_g, mu_i = np.mean(gen), np.mean(imp)
    var_g = np.mean((np.asarray(gen) - mu_g) ** 2)
    var_i = np.mean((np.asarray(imp) - mu_i) ** 2)
    return abs(mu_i - mu_g) / np.sqrt((var_g + var_i) / 2)


def brute_crr(gallery, probe, transform=lambda d: d):
    correct = 0
    for p_sid, p_emb in probe:
        best_idx, best_d = None, None
        for idx, (g_sid, g_emb) in enumerate(gallery):
            d = transform(match_score(p_emb, g_emb))
            if best_d is None or d < best_d:
                best_idx, best_d = idx, d
        correct += gallery[best_idx][0] == p_sid
    return correct / len(probe)


def random_scores(rng, n_gen=60, n_imp=140):
    return ScoreSet(genuine=rng.uniform(0.0, 1.1, size=n_gen),
                    impostor=rng.uniform(0.3, 2.0, size=n_imp))


def random_protocol(rng, n_subjects=6, n_gallery=2, n_probe=2, dim=8):
    gallery, probe = [], []
    for sid in range(n_subjects):
        center = rng.normal(size=dim)
        for _ in range(n_gallery):
            gallery.append((sid, center + 0.3 * rng.normal(size=dim)))
        for _ in range(n_probe):
            probe.append((sid, center + 0.3 * rng.normal(size=dim)))
    return gallery, probe


class TestMatchScore:
    def test_trivial_cases(self, rng):
        a = np.zeros(8); a[0] = 1.0
        b = np.zeros(8); b[1] = 1.0
        assert match_score(a, a.copy()) == 0.0
        assert match_score(a, b) == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_symmetry(self, rng):
        for _ in range(20):
            a, b = rng.normal(size=(2, 16))
            assert match_score(a, b) == match_score(b, a)

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimensionError):
            match_score(np.ones(4), np.ones(5))
        with pytest.raises(DimensionError):
            match_score(np.ones((2, 4)), np.ones((2, 4)))


class TestScoreAll:
    def test_counting_10_subjects(self, rng):
        gallery, probe = random_protocol(rng, n_subjects=10, n_gallery=2, n_probe=2)
        scores = score_all(gallery, probe)
        assert scores.genuine.size == 40
        assert scores.impostor.size == 360
        assert scores.genuine.size + scores.impostor.size == 400

    def test_large_protocol_counting(self, rng):
        # 200 subjects, 6 samples each split 3 gallery + 3 probe
        gallery, probe = random_protocol(rng, n_subjects=200, n_gallery=3,
                                         n_probe=3, dim=2)
        scores = score_all(gallery, probe)
        assert scores.genuine.size == 1800
        assert scores.impostor.size == 358200

    def test_counting_identity_random_sizes(self, rng):
        for _ in range(10):
            ns = int(rng.integers(2, 7))
            ng = int(rng.integers(1, 4))
            npr = int(rng.integers(1, 4))
            gallery, probe = random_protocol(rng, ns, ng, npr)
            s = score_all(gallery, probe)
            assert s.genuine.size + s.impostor.size == len(gallery) * len(probe)
            assert s.genuine.size == ns * ng * npr

    def test_matches_naive_loop_oracle(self, rng):
        gallery, probe = random_protocol(rng, n_subjects=4)
        scores = score_all(gallery, probe)
        gen, imp = [], []
        for p_sid, p_emb in probe:
            for g_sid, g_emb in gallery:
                (gen if p_sid == g_sid else imp).append(match_score(p_emb, g_emb))
        np.testing.assert_allclose(np.sort(scores.genuine), np.sort(gen), atol=1e-12)
        np.testing.assert_allclose(np.sort(scores.impostor), np.sort(imp), atol=1e-12)
        assert np.all(scores.genuine >= 0) and np.all(scores.impostor >= 0)

    def test_errors(self, rng):
        gallery, probe = random_protocol(rng)
        with pytest.raises(ContractError):
            score_all([], probe)
        with pytest.raises(ContractError):
            score_all(gallery, [])
        with pytest.raises(ContractError):
            score_all(gallery[:2], [(99, np.ones(8))])  # probe subject not enrolled


class TestROC:
    def test_matches_recount_oracle_exactly(self, rng):
        scores = random_scores(rng, 80, 120)
        curve = roc(scores)
        for t, far, frr in zip(curve.thresholds, curve.far, curve.frr):
            b_far, b_frr = brute_far_frr(scores.genuine, scores.impostor, t)
            assert far == b_far and frr == b_frr

    def test_monotone_and_bounded(self, rng):
        for _ in range(5):
            curve = roc(random_scores(rng))
            assert np.all(np.diff(curve.thresholds) > 0)
            assert np.all(np.diff(curve.far) >= 0)
            assert np.all(np.diff(curve.frr) <= 0)
            assert curve.far.min() >= 0 and curve.far.max() <= 1
            assert curve.frr.min() >= 0 and curve.frr.max() <= 1

    def test_endpoints(self, rng):
        curve = roc(random_scores(rng))
        assert curve.far[0] == 0.0 and curve.frr[0] == 1.0
        assert curve.far[-1] == 1.0 and curve.frr[-1] == 0.0

    def test_separable_has_perfect_point(self):
        scores = ScoreSet(genuine=[0.1, 0.15, 0.2], impostor=[0.8, 0.9, 1.0])
        curve = roc(scores)
        assert np.any((curve.far == 0.0) & (curve.frr == 0.0))

    def test_subsampling(self, rng):
        scores = random_scores(rng, 100, 200)
        curve = roc(scores, n_thresholds=16)
        assert len(curve) <= 16
        assert curve.far[0] == 0.0 and curve.far[-1] == 1.0
        assert np.all(np.diff(curve.far) >= 0)
        with pytest.raises(ContractError):
            roc(scores, n_thresholds=1)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            roc(ScoreSet(genuine=[], impostor=[0.5]))
        with pytest.raises(ContractError):
            ScoreSet(genuine=[-0.1], impostor=[0.5])


class TestEER:
    def test_separable_is_zero(self):
        assert eer(ScoreSet(genuine=[0.1, 0.2], impostor=[0.8, 0.9])) == 0.0

    def test_inverted_is_one(self):
        assert eer(ScoreSet(genuine=[0.8, 0.9], impostor=[0.1, 0.2])) == 1.0

    def test_interleaved_half(self):
        assert eer(ScoreSet(genuine=[0.1, 0.5], impostor=[0.3, 0.7])) == \
            pytest.approx(0.5, abs=1e-12)

    def test_matches_brute_force_on_100_sets(self, rng):
        for i in range(100):
            n_gen = int(rng.integers(5, 80))
            n_imp = int(rng.integers(5, 150))
            scores = random_scores(rng, n_gen, n_imp)
            got = eer(scores)
            want = brute_eer(list(scores.genuine), list(scores.impostor))
            assert got == pytest.approx(want, abs=1e-9), f"set {i}"
            assert 0.0 <= got <= 1.0

    def test_duplicate_scores_handled(self):
        scores = ScoreSet(genuine=[0.5, 0.5, 0.5], impostor=[0.5, 0.5])
        val = eer(scores)
        assert 0.0 <= val <= 1.0
        assert val == pytest.approx(
            brute_eer([0.5, 0.5, 0.5], [0.5, 0.5]), abs=1e-9)


class TestCRR:
    def test_all_correct(self, rng):
        # widely separated subject centers, tiny probe noise -> rank-1 perfect
        base = {s: rng.normal(size=16) * 10 for s in range(4)}
        gallery = [(s, base[s]) for s in range(4) for _ in range(2)]
        probe = [(s, base[s] + 0.01 * rng.normal(size=16))
                 for s in range(4) for _ in range(2)]
        assert crr(gallery, probe) == 1.0

    def test_none_correct(self):
        e = np.eye(3)
        gallery = [(0, e[0]), (1, e[1]), (2, e[2])]
        probe = [(0, e[1]), (1, e[2]), (2, e[0])]
        assert crr(gallery, probe) == 0.0

    def test_two_of_three(self):
        e = np.eye(3)
        gallery = [(0, e[0]), (1, e[1]), (2, e[2])]
        probe = [(0, e[0]), (1, e[1]), (2, e[0])]
        assert crr(gallery, probe) == pytest.approx(2 / 3, abs=1e-12)

    def test_tie_prefers_lowest_gallery_index(self):
        emb = np.ones(4)
        gallery = [(5, emb.copy()), (3, emb.copy())]
        assert crr(gallery, [(5, emb.copy())]) == 1.0
        assert crr(gallery, [(3, emb.copy())]) == 0.0

    def test_matches_naive_oracle(self, rng):
        for _ in range(20):
            gallery, probe = random_protocol(rng, n_subjects=5, dim=6)
            assert crr(gallery, probe) == brute_crr(gallery, probe)

    def test_monotone_transform_invariance(self, rng):
        # rank-1 depends only on distance order: squaring (strictly monotone
        # on >= 0) and positive embedding scaling must not change it
        for _ in range(10):
            gallery, probe = random_protocol(rng, n_subjects=5, dim=6)
            base = crr(gallery, probe)
            assert brute_crr(gallery, probe, transform=lambda d: d * d) == base
            alpha = float(rng.uniform(0.1, 7.0))
            scaled_g = [(s, alpha * e) for s, e in gallery]
            scaled_p = [(s, alpha * e) for s, e in probe]
            assert crr(scaled_g, scaled_p) == base

    def test_empty_rejected(self, rng):
        gallery, probe = random_protocol(rng)
        with pytest.raises(ContractError):
            crr([], probe)
        with pytest.raises(ContractError):
            crr(gallery, [])


class TestDI:
    def test_identical_distributions_zero(self, rng):
        s = rng.uniform(0, 1, size=50)
        assert di(ScoreSet(genuine=s, impostor=s.copy())) == 0.0

    def test_formula_substitution(self):
        # mu_gen=0 (var 0), impostor mean 2 with population var 2 -> DI = 2
        imp = [2 - np.sqrt(2), 2 + np.sqrt(2)]
        assert di(ScoreSet(genuine=[0.0, 0.0], impostor=imp)) == \
            pytest.approx(2.0, abs=1e-12)
        # mu_gen=1 var 1, mu_imp=2 var 4 -> 1/sqrt(2.5)
        got = di(ScoreSet(genuine=[0.0, 2.0], impostor=[0.0, 4.0, 0.0, 4.0]))
        assert got == pytest.approx(1 / np.sqrt(2.5), abs=1e-12)

    def test_matches_formula_oracle_on_100_sets(self, rng):
        for _ in range(100):
            scores = random_scores(rng, int(rng.integers(2, 60)),
                                   int(rng.integers(2, 60)))
            assert di(scores) == pytest.approx(
                brute_di(scores.genuine, scores.impostor), abs=1e-9)

    @settings(deadline=None, max_examples=50)
    @given(alpha=st.floats(0.05, 50.0), beta=st.floats(0.0, 10.0))
    def test_affine_invariance(self, alpha, beta):
        rng = np.random.default_rng(99)
        scores = random_scores(rng, 40, 40)
        transformed = ScoreSet(genuine=alpha * scores.genuine + beta,
                               impostor=alpha * scores.impostor + beta)
        assert di(transformed) == pytest.approx(di(scores), rel=1e-9)

    def test_degenerate_cases(self):
        assert di(ScoreSet(genuine=[0.5, 0.5], impostor=[0.5, 0.5])) == 0.0
        assert di(ScoreSet(genuine=[0.5, 0.5], impostor=[0.7, 0.7])) == np.inf
        with pytest.raises(ContractError):
            di(ScoreSet(genuine=[0.5], impostor=[0.7, 0.8]))


class TestReport:
    def test_build_report_consistent(self, rng):
        gallery, probe = random_protocol(rng, n_subjects=6, dim=12)
        report = build_report(gallery, probe)
        assert report.counts == (24, 120)
        assert 0.0 <= report.eer <= 1.0
        assert 0.0 <= report.crr <= 1.0
        assert report.di >= 0
        assert report.eer == eer(report.scores)
        assert len(report.roc) == len(report.roc.far)

    def test_emit_report_files(self, rng, tmp_path):
        gallery, probe = random_protocol(rng, n_subjects=5, dim=10)
        report = build_report(gallery, probe)
        files = emit_report(report, tmp_path)
        names = sorted(p.name for p in files)
        assert names == ["histogram.csv", "metrics.csv", "roc.csv", "roc.svg"]
        for p in files:
            assert p.exists()
            assert b"\r" not in p.read_bytes()

        roc_lines = (tmp_path / "roc.csv").read_text().splitlines()
        assert len(roc_lines) == len(report.roc) + 1  # header + points
        assert roc_lines[0] == "threshold,far,frr"

        hist_lines = (tmp_path / "histogram.csv").read_text().splitlines()
        assert len(hist_lines) == HISTOGRAM_BINS + 1
        gen_total = sum(int(line.split(",")[2]) for line in hist_lines[1:])
        imp_total = sum(int(line.split(",")[3]) for line in hist_lines[1:])
        assert gen_total == report.counts[0]
        assert imp_total == report.counts[1]

    def test_emit_deterministic_bytes(self, rng, tmp_path):
        gallery, probe = random_protocol(rng, n_subjects=4)
        report = build_report(gallery, probe)
        first = {p.name: p.read_bytes() for p in emit_report(report, tmp_path)}
        second = {p.name: p.read_bytes() for p in emit_report(report, tmp_path)}
        assert first == second

    def test_metrics_round_trip(self, rng, tmp_path):
        gallery, probe = random_protocol(rng, n_subjects=5)
        report = build_report(gallery, probe)
        emit_report(report, tmp_path)
        rows = dict(line.split(",") for line in
                    (tmp_path / "metrics.csv").read_text().splitlines()[1:])
        assert float(rows["eer"]) == pytest.approx(report.eer, abs=1e-9)
        assert float(rows["crr"]) == pytest.approx(report.crr, abs=1e-9)
        assert int(rows["n_genuine"]) == report.counts[0]

    def test_eer_threshold_row_is_first_roc_threshold_with_far_at_least_frr(
            self, rng, tmp_path):
        gallery, probe = random_protocol(rng, n_subjects=6)
        report = build_report(gallery, probe)
        emit_report(report, tmp_path)
        rows = dict(line.split(",") for line in
                    (tmp_path / "metrics.csv").read_text().splitlines()[1:])
        points = [tuple(map(float, line.split(","))) for line in
                  (tmp_path / "roc.csv").read_text().splitlines()[1:]]
        want = next(t for t, far, frr in points if far >= frr)
        assert float(rows["eer_threshold"]) == want == report.eer_threshold
        # the oracle: scan every observed score in order with brute counts
        gen, imp = report.scores.genuine.tolist(), report.scores.impostor.tolist()
        brute = next(t for t in sorted(set(gen) | set(imp))
                     if brute_far_frr(gen, imp, t)[0] >= brute_far_frr(gen, imp, t)[1])
        assert want == brute

    def test_svg_is_valid_xml_polyline(self, rng, tmp_path):
        gallery, probe = random_protocol(rng, n_subjects=4)
        report = build_report(gallery, probe)
        emit_report(report, tmp_path)
        root = ET.fromstring((tmp_path / "roc.svg").read_text())
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 1
        assert len(polylines[0].get("points").split()) == len(report.roc)
