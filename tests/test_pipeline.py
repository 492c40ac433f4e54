"""Pipeline tests: staged execution, artifacts, determinism, resumability,
prerequisite errors, and enroll/verify behavior. All at micro scale (3
subjects x 2 samples, 32px) so the whole file runs in seconds."""

import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import palmvein
import palmvein.ced as ced_module
import palmvein.pipeline as pipeline_module
from palmvein import (
    ContractError,
    CorruptWeightsError,
    PipelineConfig,
    RunPaths,
    StageError,
    derive_seed,
    enroll,
    run_full_pipeline,
    run_stages,
    verify_probe,
)
from palmvein.pipeline import (
    CKPT_CED1,
    CKPT_CED2,
    CKPT_E2E,
    CKPT_FE_PRETRAINED,
    CKPT_FE_TRIPLET,
    CKPT_STACK,
    STAGE_NAMES,
    _TAG_IRT,
    _chunked_triplet_backward,
    stage_evaluate,
    stage_finetune_e2e,
)
from palmvein.ced import build_ced, ced_apply, extract_features_batch, stack_ceds
from palmvein.fe import build_fe, fe_apply
from palmvein.optim import fit
from palmvein.tensor import ParamSet, Tensor, backward, concat_channels
from palmvein.triplet import Triplet, TripletBatch, triplet_loss_batch
from palmvein.dataio import load_image, read_manifest
from palmvein.transforms import irt, tcm
from palmvein.weights import load_arrays, save_weights
from palmvein.cli import main


def micro_config(out, seed=0, **extra):
    base = dict(
        seed=seed, out=str(out), subjects=3, samples=2, size=32, aug_copies=1,
        irt_rays=400, ced_depth=3, ced_base_channels=4,
        ced1_epochs=1, ced2_epochs=1, stack_epochs=1,
        fe_channels=(4, 8, 8, 8, 8, 8), fe_pool_grid=2, fe_embedding_dim=16,
        ae_epochs=1, triplet_steps=2, triplet_batch=6, triplet_subset=6,
        e2e_steps=1, e2e_batch=6,
    )
    base.update(extra)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """One full micro run shared by the read-only tests in this module."""
    out = tmp_path_factory.mktemp("micro_run")
    cfg = micro_config(out)
    report = run_full_pipeline(cfg)
    return cfg, RunPaths(cfg.out_dir), report


class TestFullRun:
    def test_report_sane(self, finished_run):
        _, _, report = finished_run
        assert 0.0 <= report.eer <= 1.0
        assert 0.0 <= report.crr <= 1.0
        # 3 probes, one per subject: 3 genuine and 6 impostor pairs
        assert report.counts == (3, 6)

    def test_checkpoints_exist(self, finished_run):
        _, paths, _ = finished_run
        for name in (CKPT_CED1, CKPT_CED2, CKPT_STACK, CKPT_FE_PRETRAINED,
                     CKPT_FE_TRIPLET, CKPT_E2E):
            assert paths.checkpoint(name).exists(), name

    def test_artifacts_exist(self, finished_run):
        _, paths, _ = finished_run
        for p in (paths.manifest, paths.features, paths.ced_metrics,
                  paths.ae_log, paths.training_log, paths.e2e_log,
                  paths.stage_log, paths.resolved_config):
            assert p.exists(), p
        for report_dir in (paths.report, paths.report_untrained):
            for fname in ("metrics.csv", "roc.csv", "roc.svg", "histogram.csv"):
                assert (report_dir / fname).exists(), (report_dir, fname)

    def test_stage_log_order(self, finished_run):
        _, paths, _ = finished_run
        lines = paths.stage_log.read_text().splitlines()
        assert lines[0] == "stage,name,seconds"
        ran = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert ran == [(str(i), STAGE_NAMES[i]) for i in range(1, 11)]

    def test_resolved_config_round_trips(self, finished_run):
        cfg, paths, _ = finished_run
        text = paths.resolved_config.read_text(encoding="utf-8")
        assert text == cfg.to_text()
        assert PipelineConfig.from_text(text) == cfg

    def test_e2e_checkpoint_covers_both_models(self, finished_run):
        _, paths, _ = finished_run
        names = list(load_arrays(paths.checkpoint(CKPT_E2E)))
        assert any(n.startswith("stack.ced1.") for n in names)
        assert any(n.startswith("stack.ced2.") for n in names)
        assert any(n.startswith("fe.trunk.") for n in names)
        assert any(n.startswith("fe.head.") for n in names)

    def test_run_stages_returns_results(self, finished_run):
        cfg, _, _ = finished_run
        results = run_stages(cfg, [10])
        assert results[10].counts == (3, 6)


class TestEvaluate:
    def test_one_ced_pass_per_image(self, finished_run, monkeypatch):
        # the trained and the untrained-baseline reports share one set of
        # feature images, so each CED sees every manifest image exactly once
        cfg, paths, _ = finished_run
        reports = {p: (p / "metrics.csv").read_bytes()
                   for p in (paths.report, paths.report_untrained)}
        images = []
        original = ced_module.ced_apply

        def counting(model, x):
            images.append(x.shape[0])
            return original(model, x)

        monkeypatch.setattr(ced_module, "ced_apply", counting)
        stage_evaluate(cfg)
        assert sum(images) == 2 * len(read_manifest(paths.manifest))
        for p, before in reports.items():
            assert (p / "metrics.csv").read_bytes() == before


def t(anchor, positive, negative):
    return Triplet(anchor=anchor, positive=positive, negative=negative)


# Triplet batches whose corners share samples: 11 distinct samples (more than
# one chunk, not a multiple of it), 4 (under one chunk) and exactly 8.
E2E_BATCHES = {
    "u11": (t((0, 0), (0, 1), (1, 0)), t((1, 0), (1, 1), (0, 0)),
            t((2, 0), (2, 1), (0, 1)), t((3, 0), (3, 1), (2, 0)),
            t((0, 2), (0, 3), (3, 0)), t((1, 2), (1, 0), (2, 1))),
    "u4": (t((0, 0), (0, 1), (1, 0)), t((1, 0), (1, 1), (0, 1))),
    "u8": (t((0, 0), (0, 1), (1, 0)), t((1, 0), (1, 1), (2, 0)),
           t((2, 0), (2, 1), (3, 0)), t((3, 0), (3, 1), (0, 0))),
}


def e2e_embedder(rng):
    """The stage-9 forward (CED, CED, channel stack, FE) over a 4x4 pool of
    random 32px images, and the parameters it trains."""
    cfg = micro_config("unused")
    stacked = stack_ceds(build_ced(cfg.ced_config(), seed=1),
                         build_ced(cfg.ced_config(), seed=2))
    fe = build_fe(cfg.fe_config(), seed=3)
    pool = rng.uniform(size=(4, 4, 32, 32)).astype(np.float32)

    def embed(refs):
        x = Tensor(np.stack([pool[sid, i] for sid, i in refs])[:, None])
        mid = ced_apply(stacked.first, x)
        out = ced_apply(stacked.second, mid)
        return fe_apply(fe, concat_channels(concat_channels(x, mid), out))

    return embed, ParamSet.union(("stack", stacked.params), ("fe", fe.params))


class TestFinetuneE2E:
    @pytest.mark.parametrize("name", sorted(E2E_BATCHES))
    def test_chunked_backward_matches_one_graph(self, name, rng):
        embed, params = e2e_embedder(rng)
        triplets = E2E_BATCHES[name]
        batch = TripletBatch(triplets, margin=1.0, checked=0, violators=0)

        params.zero_grad()
        loss = triplet_loss_batch(*(embed([getattr(tr, c) for tr in triplets])
                                    for c in ("anchor", "positive", "negative")), 1.0)
        backward(loss)
        one_graph = {n: p.grad.copy() for n, p in params.items()}

        params.zero_grad()
        loss_val = _chunked_triplet_backward(embed, batch)
        assert loss_val == pytest.approx(float(loss.data), rel=1e-6)
        for n, p in params.items():
            scale = np.abs(one_graph[n]).max()
            assert scale > 0, n
            np.testing.assert_allclose(p.grad, one_graph[n], rtol=1e-3,
                                       atol=1e-4 * scale, err_msg=n)

    def test_non_finite_loss_raises(self, rng):
        # stage 9's step, run through the training loop; a NaN weight from
        # step 3 on makes that step's loss non-finite
        embed, params = e2e_embedder(rng)
        batch = TripletBatch(E2E_BATCHES["u4"], margin=1.0, checked=0, violators=0)

        def grad_step(step, batch):
            if step == 3:
                params["fe.head.fc.w"].data[0, 0] = np.nan
            return _chunked_triplet_backward(embed, batch)

        with pytest.raises(ContractError, match="diverged at step 3"):
            fit(params, 1e-3, [batch] * 5, grad_step, "end-to-end training")

    def test_ced_sees_only_live_chunks(self, finished_run, tmp_path, monkeypatch):
        # mining reads stage 6's saved feature images, so the CEDs see only
        # each step's distinct corner samples: once without a graph, once
        # re-forwarded with one
        _, paths, _ = finished_run
        out = tmp_path / "run"
        shutil.copytree(paths.root, out)
        images, distinct = [], []
        apply, mine = ced_module.ced_apply, pipeline_module.build_batch

        def counting(model, x):
            images.append(x.shape[0])
            return apply(model, x)

        def recording(*args, **kwargs):
            batch = mine(*args, **kwargs)
            distinct.append(len({c for tr in batch.triplets
                                 for c in (tr.anchor, tr.positive, tr.negative)}))
            return batch

        monkeypatch.setattr(ced_module, "ced_apply", counting)
        monkeypatch.setattr(pipeline_module, "ced_apply", counting)
        monkeypatch.setattr(pipeline_module, "build_batch", recording)
        stage_finetune_e2e(micro_config(out, e2e_steps=2))
        assert len(distinct) == 2
        assert sum(images) == 2 * 2 * sum(distinct)  # two CEDs, two passes

    def test_saved_features_equal_the_stack_on_the_training_pool(self, finished_run):
        # what stage 9 mines against: stage 6's rows, bit-equal to running
        # the saved stack over each subject's raw training images
        cfg, paths, _ = finished_run
        stacked = pipeline_module._load_stack(cfg, paths, "test")
        images = pipeline_module._load_images(paths, read_manifest(paths.manifest))
        entries = pipeline_module._training_entries(
            pipeline_module._read_records(paths, "test"), cfg.aug_copies)
        pool = pipeline_module._load_training_pool(cfg, paths, "test")
        for sid, es in entries.items():
            raws = np.stack([pipeline_module._entry_raw(e, images, cfg.seed) for e in es])
            np.testing.assert_array_equal(np.stack(pool[sid]),
                                          extract_features_batch(stacked, raws))

    def test_step_memory_does_not_grow_with_batch(self, finished_run, tmp_path):
        # one stage-9 step holds one chunk's graph, whatever e2e.batch is
        _, paths, _ = finished_run
        peaks = {}
        for e2e_batch in (6, 30):
            out = tmp_path / f"batch{e2e_batch}"
            shutil.copytree(paths.root, out)
            tracemalloc.start()
            try:
                stage_finetune_e2e(micro_config(out, e2e_batch=e2e_batch))
                peaks[e2e_batch] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[30] < 1.5 * peaks[6], peaks


class TestTransformTargets:
    def test_targets_equal_images_alone(self, tmp_path):
        # stage 2 marches all images in one batched irt call; 5x2 images
        # spans more than one chunk, so this pins the image/seed pairing
        cfg = micro_config(tmp_path, subjects=5)
        run_stages(cfg, [1, 2])
        paths = RunPaths(cfg.out_dir)
        records = read_manifest(paths.manifest)
        assert len(records) == 10
        for r in records:
            tag = f"s{r.subject_id:04d}_i{r.sample_index:02d}"
            img = load_image(paths.data, r)
            want = irt(img, ray_count=cfg.irt_rays, n_max=cfg.irt_n_max,
                       seed=derive_seed(cfg.seed, _TAG_IRT, r.subject_id, r.sample_index))
            got = np.load(paths.targets / f"irt_{tag}.npy")
            assert got.dtype == np.float32 and got.shape == img.shape
            np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))
            np.testing.assert_array_equal(np.load(paths.targets / f"tcm_{tag}.npy"), tcm(img))


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path):
        reports = []
        for sub in ("a", "b"):
            cfg = micro_config(tmp_path / sub)
            reports.append(run_full_pipeline(cfg))
        pa, pb = RunPaths(tmp_path / "a"), RunPaths(tmp_path / "b")
        assert (pa.report / "metrics.csv").read_bytes() == \
               (pb.report / "metrics.csv").read_bytes()
        assert pa.checkpoint(CKPT_E2E).read_bytes() == \
               pb.checkpoint(CKPT_E2E).read_bytes()
        assert pa.features.read_bytes() == pb.features.read_bytes()
        assert reports[0].eer == reports[1].eer

    def test_seed_changes_output(self, tmp_path):
        run_full_pipeline(micro_config(tmp_path / "s0", seed=0))
        run_full_pipeline(micro_config(tmp_path / "s1", seed=1))
        a = RunPaths(tmp_path / "s0").checkpoint(CKPT_E2E).read_bytes()
        b = RunPaths(tmp_path / "s1").checkpoint(CKPT_E2E).read_bytes()
        assert a != b


class TestResumability:
    def test_fresh_process_resumes_from_checkpoints(self, tmp_path):
        cfg = micro_config(tmp_path)
        run_stages(cfg, [1, 2, 3, 4, 5, 6])
        # a brand-new config object (as a fresh process would build) continues
        cfg2 = micro_config(tmp_path)
        results = run_stages(cfg2, [7, 8, 9, 10])
        assert results[10].counts == (3, 6)

    def test_stage_by_stage_equals_one_shot(self, tmp_path):
        one = micro_config(tmp_path / "oneshot")
        run_full_pipeline(one)
        stepped = micro_config(tmp_path / "stepped")
        for i in range(1, 11):
            run_stages(stepped, [i])
        a = (RunPaths(one.out_dir).report / "metrics.csv").read_bytes()
        b = (RunPaths(stepped.out_dir).report / "metrics.csv").read_bytes()
        assert a == b


class TestFailures:
    def test_missing_prerequisite_names_stage(self, tmp_path):
        cfg = micro_config(tmp_path)
        with pytest.raises(StageError, match="train-ced1") as exc_info:
            run_stages(cfg, [3])
        assert "gen-data" in str(exc_info.value)  # hint at what to run

    def test_prior_artifacts_persist_after_failure(self, tmp_path):
        cfg = micro_config(tmp_path)
        run_stages(cfg, [1])
        paths = RunPaths(cfg.out_dir)
        assert paths.manifest.exists()
        with pytest.raises(StageError, match="train-ced1"):
            run_stages(cfg, [3])  # stage 2 targets missing
        assert paths.manifest.exists()  # stage 1 output untouched

    def test_bad_stage_index(self, tmp_path):
        cfg = micro_config(tmp_path)
        with pytest.raises(ContractError, match="stage"):
            run_stages(cfg, [0])
        with pytest.raises(ContractError, match="stage"):
            run_stages(cfg, [11])

    def test_stage_error_carries_stage_attribute(self, tmp_path):
        cfg = micro_config(tmp_path)
        try:
            run_stages(cfg, [5])
        except StageError as exc:
            assert exc.stage == "finetune-stack"
        else:
            pytest.fail("expected StageError")


class TestEnrollVerify:
    def test_identical_probe_distance_zero(self, finished_run):
        cfg, paths, _ = finished_run
        enroll(cfg)
        probe = paths.data / "s0000_i00.pgm"  # an enrolled gallery image
        distance, accepted = verify_probe(cfg, probe, threshold=1e-300)
        assert distance == 0.0
        assert accepted  # accepted at any positive threshold

    def test_impostor_rejected_at_tight_threshold(self, finished_run):
        cfg, paths, _ = finished_run
        enroll(cfg)
        probe = paths.data / "s0002_i01.pgm"  # probe-role image, subject 2
        distance, accepted = verify_probe(cfg, probe, threshold=1e-9)
        assert distance > 0.0
        assert not accepted

    def test_threshold_must_be_positive(self, finished_run):
        cfg, paths, _ = finished_run
        probe = paths.data / "s0000_i00.pgm"
        with pytest.raises(ContractError, match="threshold"):
            verify_probe(cfg, probe, threshold=0.0)

    def test_missing_enrollment(self, finished_run, tmp_path):
        cfg, paths, _ = finished_run
        probe = paths.data / "s0000_i00.pgm"
        with pytest.raises(StageError, match="enroll"):
            verify_probe(cfg, probe, threshold=0.5,
                         enrollment=tmp_path / "absent.vfw")

    def test_enroll_needs_final_checkpoint(self, tmp_path):
        cfg = micro_config(tmp_path)
        with pytest.raises(StageError, match="enroll"):
            enroll(cfg)


FRESH_VERIFY = """
import sys
from palmvein import PipelineConfig, verify_probe
cfg = PipelineConfig.from_file(sys.argv[1])
print(repr(verify_probe(cfg, sys.argv[2], 1.0)[0]))
"""


def fresh_process_distance(cfg, probe) -> float:
    """``verify_probe``'s distance from a new interpreter, with nothing cached."""
    cfg_file = cfg.out_dir / "fresh.cfg"
    cfg_file.write_text(cfg.to_text(), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(palmvein.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", FRESH_VERIFY, str(cfg_file), str(probe)],
                          env=env, capture_output=True, text=True, check=True, timeout=300)
    return float(done.stdout)


def overwrite_in_place(path: Path, data: bytes) -> None:
    """Write ``data`` over ``path`` in place and restore its timestamps: size,
    inode and mtime stay equal, the bytes do not."""
    before = path.stat()
    assert len(data) == before.st_size and data != path.read_bytes()
    with open(path, "r+b") as fh:
        fh.write(data)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_size, after.st_ino, after.st_mtime_ns) == \
        (before.st_size, before.st_ino, before.st_mtime_ns)


def perturbed(path: Path, seed: int) -> bytes:
    """The weights file at ``path`` with noise added to every value, same layout."""
    rng = np.random.default_rng(seed)
    staged = path.with_name(path.name + ".new")
    save_weights({name: arr + np.float32(0.05) * rng.standard_normal(arr.shape, np.float32)
                  for name, arr in load_arrays(path).items()}, staged)
    data = staged.read_bytes()
    staged.unlink()
    return data


@pytest.fixture
def run_copy(finished_run, tmp_path):
    """A private, enrolled copy of the finished micro run that a test may rewrite."""
    def copy(name: str):
        _, paths, _ = finished_run
        cfg = finished_run[0].override(out=str(tmp_path / name))
        shutil.copytree(paths.root, cfg.out_dir)
        enroll(cfg)
        return cfg, RunPaths(cfg.out_dir)
    return copy


class TestVerifierReuse:
    """The verifier's models and enrollment are parsed once per process and
    reused only while the bytes of their files are unchanged."""

    PROBE = "s0002_i01.pgm"  # probe-role image of subject 2

    def test_repeated_calls_equal_the_first_and_a_fresh_process(self, run_copy):
        cfg, paths = run_copy("a")
        probe = paths.data / self.PROBE
        first = verify_probe(cfg, probe, 1.0)
        assert [verify_probe(cfg, probe, 1.0) for _ in range(3)] == [first] * 3
        assert first[0] == fresh_process_distance(cfg, probe)

    def test_models_are_built_once_for_enroll_verify_and_evaluate(self, run_copy,
                                                                  monkeypatch):
        cfg, paths = run_copy("a")
        verify_probe(cfg, paths.data / self.PROBE, 1.0)
        builds = []
        original = pipeline_module.build_ced
        monkeypatch.setattr(pipeline_module, "build_ced",
                            lambda *a, **k: builds.append(a) or original(*a, **k))
        verify_probe(cfg, paths.data / self.PROBE, 1.0)
        enroll(cfg)
        stage_evaluate(cfg)
        assert builds == []

    def test_checkpoint_rewritten_in_place_is_reloaded(self, run_copy):
        cfg, paths = run_copy("a")
        probe = paths.data / self.PROBE
        before, _ = verify_probe(cfg, probe, 1.0)
        ckpt = paths.checkpoint(CKPT_E2E)
        overwrite_in_place(ckpt, perturbed(ckpt, seed=1))
        after, _ = verify_probe(cfg, probe, 1.0)
        assert after != before
        assert after == fresh_process_distance(cfg, probe)

    def test_enrollment_rewritten_in_place_is_reloaded(self, run_copy):
        cfg, paths = run_copy("a")
        probe = paths.data / self.PROBE
        before, _ = verify_probe(cfg, probe, 1.0)
        overwrite_in_place(paths.enrollment, perturbed(paths.enrollment, seed=2))
        after, _ = verify_probe(cfg, probe, 1.0)
        assert after != before
        assert after == fresh_process_distance(cfg, probe)

    @pytest.mark.parametrize("target", ["checkpoint", "enrollment"])
    def test_corrupt_file_after_a_cached_call_still_fails(self, run_copy, target):
        cfg, paths = run_copy("a")
        cfg_file = cfg.out_dir / "c.cfg"
        cfg_file.write_text(cfg.to_text(), encoding="utf-8")
        probe = paths.data / self.PROBE
        verify_probe(cfg, probe, 1.0)
        path = paths.checkpoint(CKPT_E2E) if target == "checkpoint" else paths.enrollment
        overwrite_in_place(path, b"X" + path.read_bytes()[1:])  # bad magic
        with pytest.raises(CorruptWeightsError, match="bad magic"):
            verify_probe(cfg, probe, 1.0)
        assert main(["--config", str(cfg_file), "verify", "--probe", str(probe),
                     "--threshold", "1"]) == 2

    def test_deleted_checkpoint_after_a_cached_call_still_fails(self, run_copy):
        cfg, paths = run_copy("a")
        cfg_file = cfg.out_dir / "c.cfg"
        cfg_file.write_text(cfg.to_text(), encoding="utf-8")
        probe = paths.data / self.PROBE
        verify_probe(cfg, probe, 1.0)
        paths.checkpoint(CKPT_E2E).unlink()
        with pytest.raises(StageError, match="finetune-e2e"):
            verify_probe(cfg, probe, 1.0)
        assert main(["--config", str(cfg_file), "verify", "--probe", str(probe),
                     "--threshold", "1"]) == 1

    def test_alternating_run_directories_each_give_their_own_distance(self, run_copy):
        cfg_a, paths_a = run_copy("a")
        cfg_b, paths_b = run_copy("b")
        ckpt_b = paths_b.checkpoint(CKPT_E2E)
        overwrite_in_place(ckpt_b, perturbed(ckpt_b, seed=3))
        enroll(cfg_b)
        probe = paths_a.data / self.PROBE  # the same image in both runs
        want = {"a": fresh_process_distance(cfg_a, probe),
                "b": fresh_process_distance(cfg_b, probe)}
        assert want["a"] != want["b"]
        for name in "abab":
            cfg = cfg_a if name == "a" else cfg_b
            assert verify_probe(cfg, probe, 1.0)[0] == want[name]


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, 1, 2) == derive_seed(0, 1, 2)

    def test_distinct_parts_distinct_seeds(self):
        seeds = {derive_seed(0, tag, i) for tag in (10, 20) for i in range(50)}
        assert len(seeds) == 100

    def test_range(self):
        s = derive_seed(123456789, 42)
        assert isinstance(s, int) and 0 <= s < 2**31
