"""Verification/identification evaluation: genuine vs impostor scoring under
the gallery/probe protocol, ROC sweep, EER, rank-1 CRR, decidability index,
and report emission (CSV + SVG).

Scoring convention: scores are L2 distances and a probe is *accepted* at
threshold ``t`` iff ``distance < t`` (strict).  Hence ``FAR(t)`` is the
fraction of impostor scores below ``t`` and ``FRR(t)`` the fraction of
genuine scores at or above ``t``.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ContractError, DimensionError

__all__ = [
    "EvalReport",
    "ROCCurve",
    "ScoreSet",
    "build_report",
    "crr",
    "di",
    "eer",
    "emit_report",
    "match_score",
    "roc",
    "score_all",
]

#: ordered (subject_id, embedding) pairs; list order defines the gallery index
LabeledEmbeddings = Sequence[tuple[int, np.ndarray]]


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScoreSet:
    """Distances for same-subject (genuine) and cross-subject (impostor) pairs."""

    genuine: np.ndarray
    impostor: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "genuine",
                           np.asarray(self.genuine, dtype=np.float64))
        object.__setattr__(self, "impostor",
                           np.asarray(self.impostor, dtype=np.float64))
        if np.any(self.genuine < 0) or np.any(self.impostor < 0):
            raise ContractError("scores are distances and must be >= 0")

    def require_nonempty(self) -> None:
        if self.genuine.size == 0 or self.impostor.size == 0:
            raise ContractError("metric computation needs non-empty score lists")


@dataclass(frozen=True)
class ROCCurve:
    """Sweep points: strictly increasing thresholds with FAR/FRR at each."""

    thresholds: np.ndarray
    far: np.ndarray
    frr: np.ndarray

    def __post_init__(self):
        for name in ("thresholds", "far", "frr"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=np.float64))
        if not (self.thresholds.shape == self.far.shape == self.frr.shape):
            raise ContractError("ROC arrays must be congruent")

    def __len__(self) -> int:
        return self.thresholds.size

    @property
    def gar(self) -> np.ndarray:
        """Genuine accept rate, 1 - FRR (the y axis of the ROC plot)."""
        return 1.0 - self.frr


@dataclass(frozen=True)
class EvalReport:
    eer: float
    crr: float
    di: float
    roc: ROCCurve
    counts: tuple[int, int]  # (n_genuine, n_impostor)
    scores: ScoreSet

    def __post_init__(self):
        if not (0.0 <= self.eer <= 1.0 and 0.0 <= self.crr <= 1.0):
            raise ContractError("eer and crr must lie in [0, 1]")
        if self.di < 0:
            raise ContractError("di must be non-negative")

    @property
    def eer_threshold(self) -> float:
        """The first ROC threshold at which FAR >= FRR: the equal-error
        operating point, which ``palmvein verify`` uses by default."""
        return float(self.roc.thresholds[_first_far_at_least_frr(self.roc)])


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------


def match_score(e1: np.ndarray, e2: np.ndarray) -> float:
    """Euclidean (not squared) distance between two embedding vectors."""
    e1 = np.asarray(e1)
    e2 = np.asarray(e2)
    if e1.shape != e2.shape or e1.ndim != 1:
        raise DimensionError(
            f"match_score expects equal 1-D vectors, got {e1.shape} vs {e2.shape}")
    return float(np.linalg.norm(e1 - e2))


def _split(labeled: LabeledEmbeddings) -> tuple[np.ndarray, np.ndarray]:
    sids = np.array([sid for sid, _ in labeled], dtype=np.int64)
    embs = np.stack([np.asarray(e, dtype=np.float64) for _, e in labeled])
    return sids, embs


def score_all(gallery: LabeledEmbeddings, probe: LabeledEmbeddings) -> ScoreSet:
    """Score every probe against every gallery sample.

    Same-subject pairs land in ``genuine``, the rest in ``impostor``;
    ``n_genuine + n_impostor == len(probe) * len(gallery)``.
    """
    if len(gallery) == 0 or len(probe) == 0:
        raise ContractError("gallery and probe must be non-empty")
    g_sids, g_embs = _split(gallery)
    p_sids, p_embs = _split(probe)
    if {int(s) for s in p_sids} - {int(s) for s in g_sids}:
        raise ContractError("every probe subject must be present in the gallery")

    diff = p_embs[:, None, :] - g_embs[None, :, :]
    dists = np.sqrt((diff * diff).sum(axis=2))
    same = p_sids[:, None] == g_sids[None, :]
    return ScoreSet(genuine=dists[same], impostor=dists[~same])


def crr(gallery: LabeledEmbeddings, probe: LabeledEmbeddings) -> float:
    """Rank-1 identification rate.

    Each probe is assigned the subject of its nearest gallery sample
    (ties broken by the lowest gallery index).
    """
    if len(gallery) == 0 or len(probe) == 0:
        raise ContractError("gallery and probe must be non-empty")
    g_sids, g_embs = _split(gallery)
    p_sids, p_embs = _split(probe)
    diff = p_embs[:, None, :] - g_embs[None, :, :]
    dists = np.sqrt((diff * diff).sum(axis=2))
    nearest = dists.argmin(axis=1)  # first occurrence == lowest gallery index
    return float(np.mean(g_sids[nearest] == p_sids))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def roc(scores: ScoreSet, n_thresholds: int | None = None) -> ROCCurve:
    """Sweep thresholds over the union of observed scores plus endpoints.

    By default every distinct score is a threshold (exact curve); pass
    ``n_thresholds`` to subsample evenly for plotting.
    """
    scores.require_nonempty()
    pooled = np.concatenate([scores.genuine, scores.impostor])
    lo, hi = float(pooled.min()), float(pooled.max())
    eps = max(1e-9, (hi - lo) * 1e-6)
    thresholds = np.unique(np.concatenate([[lo - eps], pooled, [hi + eps]]))
    if n_thresholds is not None:
        if n_thresholds < 2:
            raise ContractError(f"n_thresholds must be >= 2, got {n_thresholds}")
        if thresholds.size > n_thresholds:
            idx = np.round(np.linspace(0, thresholds.size - 1,
                                       n_thresholds)).astype(int)
            thresholds = thresholds[np.unique(idx)]

    imp = np.sort(scores.impostor)
    gen = np.sort(scores.genuine)
    far = np.searchsorted(imp, thresholds, side="left") / imp.size
    frr = (gen.size - np.searchsorted(gen, thresholds, side="left")) / gen.size
    return ROCCurve(thresholds=thresholds, far=far, frr=frr)


def _first_far_at_least_frr(curve: ROCCurve) -> int:
    return int(np.argmax(curve.far - curve.frr >= 0.0))


def eer(scores: ScoreSet) -> float:
    """Equal error rate: FAR == FRR, linearly interpolated over the sweep.

    FAR - FRR is non-decreasing over the full sweep and bracketed by the
    synthetic endpoints (below all scores: 0 - 1; above: 1 - 0), so exactly
    one sign change exists.
    """
    curve = roc(scores)
    d = curve.far - curve.frr
    i = _first_far_at_least_frr(curve)
    if d[i] == 0.0:
        return float(0.5 * (curve.far[i] + curve.frr[i]))
    lam = -d[i - 1] / (d[i] - d[i - 1])
    far_x = curve.far[i - 1] + lam * (curve.far[i] - curve.far[i - 1])
    frr_x = curve.frr[i - 1] + lam * (curve.frr[i] - curve.frr[i - 1])
    return float(0.5 * (far_x + frr_x))


def di(scores: ScoreSet) -> float:
    """Decidability index |mu_imp - mu_gen| / sqrt((var_gen + var_imp) / 2)
    with population variances."""
    scores.require_nonempty()
    if scores.genuine.size < 2 or scores.impostor.size < 2:
        raise ContractError("di needs >= 2 genuine and >= 2 impostor scores")
    mu_g, mu_i = scores.genuine.mean(), scores.impostor.mean()
    var_g = scores.genuine.var()  # population (ddof=0)
    var_i = scores.impostor.var()
    denom = np.sqrt((var_g + var_i) / 2.0)
    if denom == 0.0:
        return 0.0 if mu_g == mu_i else float("inf")
    return float(abs(mu_i - mu_g) / denom)


def build_report(gallery: LabeledEmbeddings, probe: LabeledEmbeddings,
                 n_thresholds: int | None = None) -> EvalReport:
    """Score the protocol and assemble all metrics into one report."""
    scores = score_all(gallery, probe)
    return EvalReport(
        eer=eer(scores),
        crr=crr(gallery, probe),
        di=di(scores),
        roc=roc(scores, n_thresholds),
        counts=(int(scores.genuine.size), int(scores.impostor.size)),
        scores=scores,
    )


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

HISTOGRAM_BINS = 50


def _render_roc_svg(curve: ROCCurve) -> str:
    size, margin = 480, 48
    span = size - 2 * margin

    def px(frac: float) -> float:
        return margin + frac * span

    def py(frac: float) -> float:
        return size - margin - frac * span

    pts = " ".join(f"{px(f):.2f},{py(g):.2f}"
                   for f, g in zip(curve.far, curve.gar))
    ticks = []
    for v in (0.0, 0.5, 1.0):
        ticks.append(f'<line x1="{px(v):.2f}" y1="{size - margin}" '
                     f'x2="{px(v):.2f}" y2="{size - margin + 6}" stroke="black"/>')
        ticks.append(f'<text x="{px(v):.2f}" y="{size - margin + 20}" '
                     f'font-size="12" text-anchor="middle">{v:g}</text>')
        ticks.append(f'<line x1="{margin - 6}" y1="{py(v):.2f}" '
                     f'x2="{margin}" y2="{py(v):.2f}" stroke="black"/>')
        ticks.append(f'<text x="{margin - 10}" y="{py(v) + 4:.2f}" '
                     f'font-size="12" text-anchor="end">{v:g}</text>')
    tick_markup = "\n  ".join(ticks)
    return f"""<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" viewBox="0 0 {size} {size}">
  <rect width="{size}" height="{size}" fill="white"/>
  <line x1="{margin}" y1="{size - margin}" x2="{size - margin}" y2="{size - margin}" stroke="black"/>
  <line x1="{margin}" y1="{margin}" x2="{margin}" y2="{size - margin}" stroke="black"/>
  {tick_markup}
  <text x="{size / 2:.0f}" y="{size - 8}" font-size="13" text-anchor="middle">False Accept Rate</text>
  <text x="14" y="{size / 2:.0f}" font-size="13" text-anchor="middle" transform="rotate(-90 14 {size / 2:.0f})">Genuine Accept Rate</text>
  <polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="1.5"/>
</svg>
"""


def emit_report(report: EvalReport, out_dir) -> list[Path]:
    """Write metrics.csv, roc.csv, roc.svg, and histogram.csv into ``out_dir``.

    Re-running with the same report produces byte-identical files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def write_csv(name: str, header: list[str], rows) -> Path:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        path = out / name
        path.write_bytes(buf.getvalue().encode("utf-8"))
        return path

    metrics = write_csv("metrics.csv", ["metric", "value"], [
        ["eer", repr(report.eer)],
        ["crr", repr(report.crr)],
        ["di", repr(report.di)],
        ["n_genuine", report.counts[0]],
        ["n_impostor", report.counts[1]],
        ["eer_threshold", repr(report.eer_threshold)],
    ])

    roc_csv = write_csv("roc.csv", ["threshold", "far", "frr"],
                        ([repr(float(t)), repr(float(f)), repr(float(r))]
                         for t, f, r in zip(report.roc.thresholds,
                                            report.roc.far, report.roc.frr)))

    svg_path = out / "roc.svg"
    svg_path.write_bytes(_render_roc_svg(report.roc).encode("utf-8"))

    pooled = np.concatenate([report.scores.genuine, report.scores.impostor])
    lo, hi = float(pooled.min()), float(pooled.max())
    if lo == hi:
        hi = lo + 1e-9
    edges = np.linspace(lo, hi, HISTOGRAM_BINS + 1)
    gen_counts, _ = np.histogram(report.scores.genuine, bins=edges)
    imp_counts, _ = np.histogram(report.scores.impostor, bins=edges)
    hist = write_csv("histogram.csv",
                     ["bin_lo", "bin_hi", "genuine_count", "impostor_count"],
                     ([repr(float(edges[i])), repr(float(edges[i + 1])),
                       int(gen_counts[i]), int(imp_counts[i])]
                      for i in range(HISTOGRAM_BINS)))

    return [metrics, roc_csv, svg_path, hist]
