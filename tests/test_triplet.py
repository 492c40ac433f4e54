"""Triplet-objective tests: bit-level hinge substitution, margin schedule
endpoints, mining vs exhaustive scan, batch invariants, staged training."""

import csv

import numpy as np
import pytest

from palmvein import (
    AdamState,
    ConfigError,
    ContractError,
    DimensionError,
    ParamSet,
    Tensor,
    adam_step,
    backward,
    check_gradients,
)
import palmvein.fe as fe_module
from palmvein.fe import (FEConfig, build_fe, embed_batch, fe_apply, head_apply,
                         pooled_trunk_batch, set_trainable, standard_stages)
from palmvein.triplet import (
    MarginSchedule,
    StepLog,
    Triplet,
    TripletHyper,
    build_batch,
    dataset_images,
    margin_at,
    mine_hard_negatives,
    train_triplet,
    triplet_loss_batch,
    write_training_log,
)
from test_fe import param_values


def tiny_fe(seed=0, size=32):
    cfg = FEConfig(input_size=size, stages=standard_stages((4, 4, 8, 8, 8, 8)),
                   pool_grid=2, embedding_dim=16)
    return build_fe(cfg, seed=seed)


def unit(rng, d=16):
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


def row(v):
    """One-row batch [1, d] of vector ``v``."""
    return Tensor(np.asarray(v, dtype=np.float64)[None].copy())


def loss1(a, p, hn, margin):
    """Triplet loss of a single triplet, as a one-row batch."""
    return float(triplet_loss_batch(row(a), row(p), row(hn), margin).data)


def squared_distance(a, b):
    """Squared distance as the loss sees it: hn = a and margin 0 leave 0.5 * J_p."""
    return 2.0 * loss1(a, b, a, 0.0)


class TestSquaredDistance:
    def test_trivial_unit_vector_cases(self):
        e = np.zeros(8)
        a = e.copy(); a[0] = 1.0
        b = e.copy(); b[1] = 1.0
        assert squared_distance(a, a.copy()) == 0.0
        assert squared_distance(a, b) == 2.0
        assert squared_distance(a, -a) == 4.0

    def test_matches_numpy_oracle(self, rng):
        for _ in range(50):
            a, b = rng.normal(size=(2, 24))
            assert squared_distance(a, b) == np.sum((a - b) ** 2)

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimensionError):
            triplet_loss_batch(row(rng.normal(size=4)), row(rng.normal(size=5)),
                               row(rng.normal(size=4)), 0.1)
        with pytest.raises(DimensionError):
            v = Tensor(rng.normal(size=4))
            triplet_loss_batch(v, v, v, 0.1)  # a vector is not a [N,d] batch


class TestTripletLoss:
    def test_trivial_substitution_cases(self, rng):
        v = unit(rng)
        assert loss1(v, v.copy(), v.copy(), 0.3) == pytest.approx(0.15, abs=1e-12)

        # J_p = 0, J_hn = 2 (orthogonal), margin 0.5 -> hinge inactive
        a = np.zeros(8); a[0] = 1.0
        hn = np.zeros(8); hn[1] = 1.0
        assert loss1(a, a.copy(), hn, 0.5) == 0.0

    def test_bit_level_substitution(self, rng):
        for _ in range(100):
            a, p, hn = (unit(rng) for _ in range(3))
            m = float(rng.uniform(0, 0.6))
            j_p = squared_distance(a, p)
            j_hn = squared_distance(a, hn)
            expected = 0.5 * max(0.0, (j_p + m) - j_hn)
            assert loss1(a, p, hn, m) == expected

    def test_negative_margin_rejected(self, rng):
        t = row(unit(rng))
        with pytest.raises(ContractError):
            triplet_loss_batch(t, t, t, -0.1)
        with pytest.raises(ContractError):
            triplet_loss_batch(Tensor(np.ones((2, 4))), Tensor(np.ones((2, 4))),
                               Tensor(np.ones((2, 4))), -1.0)

    def test_inactive_hinge_zero_gradient(self):
        a = Tensor(np.array([[1.0, 0.0, 0.0]]), requires_grad=True)
        p = Tensor(np.array([[1.0, 0.0, 0.0]]), requires_grad=True)   # J_p = 0
        hn = Tensor(np.array([[0.0, 1.0, 0.0]]), requires_grad=True)  # J_hn = 2
        loss = triplet_loss_batch(a, p, hn, 0.5)
        assert float(loss.data) == 0.0
        backward(loss)
        for t in (a, p, hn):
            np.testing.assert_array_equal(t.grad, np.zeros((1, 3)))

    def test_active_gradient_matches_fd(self, rng):
        a, p, hn = (Tensor(np.stack([unit(rng) for _ in range(4)]), requires_grad=True)
                    for _ in range(3))
        params = ParamSet()
        for name, t in (("a", a), ("p", p), ("hn", hn)):
            params.add(name, t)
        report = check_gradients(params, lambda: triplet_loss_batch(a, p, hn, 3.0),
                                 tolerance=1e-6)
        assert report.passed

    def test_gradient_step_decreases_objective(self, rng):
        for trial in range(10):
            a = Tensor(unit(rng)[None], requires_grad=True)
            p, hn = unit(rng), unit(rng)
            m = 3.0  # large margin keeps the hinge active
            loss = triplet_loss_batch(a, row(p), row(hn), m)
            assert float(loss.data) > 0
            backward(loss)
            stepped = a.data[0] - 1e-3 * a.grad[0]
            before = squared_distance(a.data[0], p) - squared_distance(a.data[0], hn)
            after = squared_distance(stepped, p) - squared_distance(stepped, hn)
            assert after < before

    def test_loss_bound_on_unit_sphere(self, rng):
        m = 0.5
        for _ in range(200):
            d = loss1(unit(rng), unit(rng), unit(rng), m)
            assert 0.0 <= d <= (m + 4.0) / 2 + 1e-12

    def test_batch_equals_mean_of_singles(self, rng):
        n = 12
        ea, ep, ehn = (np.stack([unit(rng) for _ in range(n)]) for _ in range(3))
        m = 0.4
        batch = float(triplet_loss_batch(Tensor(ea), Tensor(ep), Tensor(ehn), m).data)
        singles = [loss1(ea[i], ep[i], ehn[i], m) for i in range(n)]
        assert batch == pytest.approx(np.mean(singles), abs=1e-14)


class TestMarginSchedule:
    def test_endpoints_exact(self):
        sched = MarginSchedule(total_steps=137)
        assert margin_at(0, sched) == 0.2
        assert margin_at(137, sched) == 0.5

    def test_midpoint(self):
        sched = MarginSchedule(total_steps=100)
        assert margin_at(50, sched) == pytest.approx(0.35, abs=1e-12)

    def test_monotone_nondecreasing(self):
        sched = MarginSchedule(total_steps=313)
        vals = [margin_at(s, sched) for s in range(314)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_out_of_range_clamps_and_logs(self, caplog):
        sched = MarginSchedule(total_steps=10)
        with caplog.at_level("WARNING", logger="palmvein.triplet"):
            assert margin_at(-5, sched) == 0.2
            assert margin_at(17, sched) == 0.5
        assert len(caplog.records) == 2

    def test_constant_schedule_allowed(self):
        sched = MarginSchedule(total_steps=10, m_start=0.3, m_end=0.3)
        assert margin_at(5, sched) == 0.3

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            MarginSchedule(total_steps=0)
        with pytest.raises(ConfigError):
            MarginSchedule(total_steps=10, m_start=0.5, m_end=0.2)
        with pytest.raises(ConfigError):
            MarginSchedule(total_steps=10, m_start=-0.1, m_end=0.5)


class TestTripletType:
    def test_invariants_enforced(self):
        Triplet((0, 0), (0, 1), (1, 0))  # valid
        with pytest.raises(ContractError):
            Triplet((0, 0), (1, 1), (2, 0))   # positive from another subject
        with pytest.raises(ContractError):
            Triplet((0, 0), (0, 0), (1, 0))   # positive is the same sample
        with pytest.raises(ContractError):
            Triplet((0, 0), (0, 1), (0, 2))   # negative from same subject


def embedding_pool(dists):
    """Pool whose candidate i sits at exactly squared distance dists[i] from 0."""
    d = len(dists)
    pool = np.zeros((d, 16), dtype=np.float64)
    for i, dist in enumerate(dists):
        pool[i, i] = np.sqrt(dist)
    return pool


class TestMining:
    def test_trivial_threshold_case(self):
        emb = embedding_pool([0.4, 0.9, 0.7])
        res = mine_hard_negatives(np.zeros(16), emb, j_p=0.3, margin=0.5, k=3, seed=0,
                                  subset_size=8)
        assert res.negatives == (0, 2)       # 0.4 and 0.7 violate threshold 0.8
        assert res.distances == pytest.approx((0.4, 0.7), abs=1e-12)
        assert not res.fallback
        assert res.violators == 2 and res.checked == 3

    def test_no_violator_fallback(self):
        emb = embedding_pool([3.9, 3.9, 3.9])
        res = mine_hard_negatives(np.zeros(16), emb, j_p=0.1, margin=0.5, k=2, seed=0,
                                  subset_size=8)
        assert res.fallback
        assert len(res.negatives) == 1
        assert res.negatives[0] == 0         # tie broken by lowest pool index
        assert res.violators == 0

    def test_matches_exhaustive_scan(self, rng):
        fe = tiny_fe()
        pool = embed_batch(fe, rng.uniform(size=(20, 3, 32, 32)).astype(np.float32))
        e_a = embed_batch(fe, rng.uniform(size=(1, 3, 32, 32)).astype(np.float32))[0]
        for i in range(100):
            j_p = float(rng.uniform(0, 1.5))
            margin = float(rng.uniform(0, 0.6))
            k = int(rng.integers(1, 4))
            res = mine_hard_negatives(e_a, pool, j_p, margin, k=k, seed=i, subset_size=16)
            sub = np.array(res.subset)
            d = ((pool[sub] - e_a) ** 2).sum(axis=1)
            order = np.lexsort((sub, d))
            n_viol = int((d[order] < j_p + margin).sum())
            if n_viol == 0:
                expected = [int(sub[order[0]])]
                assert res.fallback
            else:
                expected = [int(sub[j]) for j in order[:min(k, n_viol)]]
                assert not res.fallback
            assert list(res.negatives) == expected
            assert res.violators == n_viol

    def test_deterministic(self, rng):
        pool = rng.normal(size=(12, 16))
        anchor = rng.normal(size=16)
        a = mine_hard_negatives(anchor, pool, 0.5, 0.4, seed=9, subset_size=6)
        b = mine_hard_negatives(anchor, pool, 0.5, 0.4, seed=9, subset_size=6)
        assert a == b

    def test_bad_inputs(self, rng):
        anchor = rng.normal(size=16)
        pool = rng.normal(size=(4, 16))
        with pytest.raises(ContractError):
            mine_hard_negatives(anchor, np.zeros((0, 16)), 0.5, 0.4)
        with pytest.raises(ContractError):
            mine_hard_negatives(anchor, pool, 0.5, 0.4, k=0)
        with pytest.raises(ContractError):
            mine_hard_negatives(anchor, pool, 0.5, -0.4)


def table_of(fe, data):
    """The embedding table ``build_batch`` mines against."""
    return embed_batch(fe, dataset_images(data))


def corner_rows(data, batch, corner):
    """Row of each triplet's ``corner`` sample in ``dataset_images(data)``."""
    keys = [(sid, i) for sid in sorted(data) for i in range(len(data[sid]))]
    row_of = {key: r for r, key in enumerate(keys)}
    return [row_of[getattr(t, corner)] for t in batch.triplets]


def param_values_grad(params):
    """A copy of every parameter's gradient, by name."""
    return {name: t.grad.copy() for name, t in params.items()}


def make_dataset(rng, n_subjects=4, n_samples=3, size=32, noise=0.05):
    """Random dataset: one base pattern per subject plus per-pose noise."""
    data = {}
    for sid in range(n_subjects):
        base = rng.uniform(size=(3, size, size)).astype(np.float32)
        data[sid] = [np.clip(base + noise * rng.normal(size=base.shape), 0, 1)
                     .astype(np.float32) for _ in range(n_samples)]
    return data


class TestBuildBatch:
    def test_default_batch_size_and_invariants(self, rng):
        fe = tiny_fe()
        data = make_dataset(rng)
        sched = MarginSchedule(total_steps=100)
        batch = build_batch(data, table_of(fe, data), sched, step=30, seed=0, subset_size=8)
        assert len(batch.triplets) == 90
        assert batch.margin == margin_at(30, sched)
        for t in batch.triplets:
            assert t.anchor[0] == t.positive[0]
            assert t.anchor[1] != t.positive[1]
            assert t.negative[0] != t.anchor[0]

    def test_deterministic(self, rng):
        fe = tiny_fe()
        data = make_dataset(rng)
        sched = MarginSchedule(total_steps=50)
        table = table_of(fe, data)
        a = build_batch(data, table, sched, step=7, batch_size=20, seed=3, subset_size=8)
        b = build_batch(data, table, sched, step=7, batch_size=20, seed=3, subset_size=8)
        assert a == b

    def test_mining_stats_accumulate(self, rng):
        fe = tiny_fe()
        data = make_dataset(rng, n_subjects=3, n_samples=2)
        sched = MarginSchedule(total_steps=10)
        batch = build_batch(data, table_of(fe, data), sched, step=0, batch_size=15, seed=0,
                            subset_size=8)
        # pool per anchor = 2 other subjects x 2 samples = 4 candidates
        assert batch.checked == 15 * 4
        assert 0.0 <= batch.violator_rate <= 1.0

    def test_insufficient_dataset_rejected(self, rng):
        fe = tiny_fe()
        sched = MarginSchedule(total_steps=10)
        one = {0: [rng.uniform(size=(3, 32, 32)).astype(np.float32)] * 3}
        with pytest.raises(ContractError):
            build_batch(one, table_of(fe, one), sched, 0)
        thin = make_dataset(rng, n_subjects=2, n_samples=3)
        thin[1] = thin[1][:1]  # second subject has a single sample
        with pytest.raises(ContractError):
            build_batch(thin, table_of(fe, thin), sched, 0)


class TestTraining:
    def test_degenerate_data_fixed_point(self, rng):
        fe = tiny_fe()
        img = np.full((3, 32, 32), 0.5, dtype=np.float32)
        data = {sid: [img.copy() for _ in range(3)] for sid in range(3)}
        sched = MarginSchedule(total_steps=4)
        log = train_triplet(fe, data, sched,
                            TripletHyper(batch_size=6, seed=0, subset_size=4))
        for entry in log:
            assert entry.loss == pytest.approx(entry.margin / 2, abs=1e-6)
            assert entry.violator_rate == 1.0  # zero distances trivially violate

    def test_frozen_phase_exact_and_head_trains(self, rng):
        fe = tiny_fe()
        data = make_dataset(rng)
        trunk_before = param_values(fe.trunk)
        head_before = param_values(fe.head)
        sched = MarginSchedule(total_steps=4)
        log = train_triplet(fe, data, sched,
                            TripletHyper(batch_size=8, seed=0, subset_size=8,
                                         stabilize_window=100))
        assert all(e.phase == "frozen" for e in log)
        for name, arr in trunk_before.items():
            np.testing.assert_array_equal(fe.trunk[name].data, arr)
        assert any(not np.array_equal(fe.head[name].data, arr)
                   for name, arr in head_before.items())

    def test_phase_switch_by_cap_then_trunk_trains(self, rng):
        fe = tiny_fe()
        data = make_dataset(rng)
        trunk_before = param_values(fe.trunk)
        sched = MarginSchedule(total_steps=8)
        log = train_triplet(fe, data, sched,
                            TripletHyper(batch_size=8, seed=0, subset_size=8,
                                         stabilize_window=2, stabilize_cap=2,
                                         stabilize_patience=99))
        assert [e.phase for e in log] == ["frozen"] * 4 + ["full"] * 4
        assert any(not np.array_equal(fe.trunk[name].data, arr)
                   for name, arr in trunk_before.items())

    def test_phase_switch_by_stability(self, rng):
        fe = tiny_fe()
        data = make_dataset(rng)
        sched = MarginSchedule(total_steps=8)
        log = train_triplet(fe, data, sched,
                            TripletHyper(batch_size=8, seed=0, subset_size=8,
                                         stabilize_window=2, stabilize_tol=1e9,
                                         stabilize_patience=1))
        assert [e.phase for e in log] == ["frozen"] * 4 + ["full"] * 4

    def test_loss_decreases_with_constant_margin(self, rng):
        fe = tiny_fe()
        data = make_dataset(rng, n_subjects=4, n_samples=4)
        sched = MarginSchedule(total_steps=30, m_start=0.3, m_end=0.3)
        log = train_triplet(fe, data, sched,
                            TripletHyper(batch_size=16, lr=1e-2, seed=0,
                                         subset_size=8, stabilize_window=3,
                                         stabilize_cap=2))
        first = np.mean([e.loss for e in log[:5]])
        last = np.mean([e.loss for e in log[-5:]])
        assert last < first

    def test_frozen_step_matches_live_path(self, rng):
        # one step's loss and head gradients, from cached pooled trunk rows
        # and from the full extractor on the images
        fe = tiny_fe()
        set_trainable(fe, trunk=False, head=True)
        data = make_dataset(rng)
        images = dataset_images(data)
        batch = build_batch(data, table_of(fe, data), MarginSchedule(total_steps=10), 0,
                            batch_size=12, seed=0, subset_size=8)
        rows = [corner_rows(data, batch, c) for c in ("anchor", "positive", "negative")]
        pooled = pooled_trunk_batch(fe, images)
        grads = []
        for embed, inputs in ((head_apply, pooled), (fe_apply, images)):
            fe.params.zero_grad()
            loss = triplet_loss_batch(*(embed(fe, Tensor(inputs[r])) for r in rows),
                                      batch.margin)
            backward(loss)
            grads.append((float(loss.data), param_values_grad(fe.head)))
            assert all(t.grad is None for t in fe.trunk.tensors())
        (cached_loss, cached), (live_loss, live) = grads
        assert cached_loss == pytest.approx(live_loss, rel=1e-6)
        for name in live:
            np.testing.assert_allclose(cached[name], live[name], rtol=1e-4, atol=1e-6)

    def test_frozen_run_matches_live_loop(self, rng):
        data = make_dataset(rng)
        sched = MarginSchedule(total_steps=5)
        hyper = TripletHyper(batch_size=8, seed=0, subset_size=8, stabilize_window=100)
        fe = tiny_fe()
        log = train_triplet(fe, data, sched, hyper)

        live = tiny_fe()
        set_trainable(live, trunk=False, head=True)
        state = AdamState()
        images = dataset_images(data)
        for step, entry in enumerate(log):
            batch = build_batch(data, embed_batch(live, images), sched, step,
                                batch_size=hyper.batch_size, seed=hyper.seed,
                                subset_size=hyper.subset_size)
            loss = triplet_loss_batch(
                *(fe_apply(live, Tensor(images[corner_rows(data, batch, c)]))
                  for c in ("anchor", "positive", "negative")), batch.margin)
            live.params.zero_grad()
            backward(loss)
            adam_step(live.params, state, lr=hyper.lr)
            assert entry.loss == pytest.approx(float(loss.data), rel=1e-5)
            assert entry.violator_rate == batch.violator_rate
        for name, t in live.params.items():
            np.testing.assert_allclose(fe.params[name].data, t.data, rtol=1e-5, atol=1e-6)

    def test_trunk_runs_once_while_frozen(self, rng, monkeypatch):
        data = make_dataset(rng)
        images = []
        original = fe_module.pooled_trunk_apply

        def counting(model, x):
            images.append(x.shape[0])
            return original(model, x)

        monkeypatch.setattr(fe_module, "pooled_trunk_apply", counting)
        log = train_triplet(tiny_fe(), data, MarginSchedule(total_steps=4),
                            TripletHyper(batch_size=8, seed=0, subset_size=8,
                                         stabilize_window=100))
        assert all(e.phase == "frozen" for e in log)
        assert sum(images) == sum(len(v) for v in data.values())

    def test_nan_divergence_aborts(self, rng):
        fe = tiny_fe()
        fe.head["fc.w"].data[0, 0] = np.nan
        data = make_dataset(rng)
        with pytest.raises(ContractError, match="diverged"):
            train_triplet(fe, data, MarginSchedule(total_steps=2),
                          TripletHyper(batch_size=4, subset_size=4))

    def test_log_csv_round_trip(self, rng, tmp_path):
        fe = tiny_fe()
        data = make_dataset(rng)
        log = train_triplet(fe, data, MarginSchedule(total_steps=3),
                            TripletHyper(batch_size=4, subset_size=4))
        path = tmp_path / "log.csv"
        write_training_log(log, path)
        with open(path, newline="") as fh:
            back = [StepLog(int(r["step"]), float(r["loss"]), float(r["margin"]),
                            float(r["violator_rate"]), r["phase"]) for r in csv.DictReader(fh)]
        assert back == log
        header = path.read_text().splitlines()[0]
        assert header == "step,loss,margin,violator_rate,phase"
