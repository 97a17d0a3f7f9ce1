"""Acceptance suite: every release-gating criterion with one printed verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
the experiment-level criteria (7 and 8) dominate the runtime.
"""

import json
import math
import time

import numpy as np
import pytest

from pbes.augmentation import augment_class_records, balance_plan
from pbes.benchmark import BLOB_BUDGET_SWEEP, BLOB_SEEDS, blob_config
from pbes.cli import main as cli_main
from pbes.harness import run_experiment
from pbes.metrics import evaluate
from pbes.model import (
    LossConfig,
    SoftmaxModel,
    TrainingBatch,
    loss_gradient,
    softmax_with_temperature,
)
from pbes.numerics import RngState, covariance, principal_directions, sign_normalize
from pbes.sampling import pbes_sample
from pbes.stats import dataset_stats

from oracles import (
    classical_jacobi,
    combine_losses,
    combined_loss,
    distillation_loss,
    finite_difference_gradient,
)


def report(number: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d}: {verdict} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_01_lemma_parity_exhaustive():
    gen = np.random.default_rng(314159)
    started = time.perf_counter()
    failures = 0
    for n in range(1, 41):
        X = gen.normal(size=(n, 3))
        for m in range(1, n + 1):
            sel = pbes_sample(X, m)
            expected = m if (m % 2) == (n % 2) else m + 1
            if sel.appended_count != expected or len(sel.ordered_indices) != m:
                failures += 1
    elapsed = time.perf_counter() - started
    report(
        1,
        failures == 0 and elapsed < 10.0,
        f"parity rule over all 1<=m<=n<=40: {failures} failures in {elapsed:.1f}s",
    )


def test_criterion_02_hand_traces():
    first = pbes_sample(np.array([[1.0], [2.0], [3.0], [4.0], [5.0]]), 2)
    second = pbes_sample(np.array([[10.0], [20.0], [30.0], [40.0]]), 3)
    ok = (
        first.ordered_indices == (2, 1)
        and first.appended_count == 3
        and second.ordered_indices == (1, 2, 0)
        and second.appended_count == 4
    )
    report(2, ok, "median-selection hand traces reproduce exactly")


def test_criterion_03_pca_oracle_equivalence():
    gen = np.random.default_rng(2718)
    worst_direction = 0.0
    worst_residual = 0.0
    for _ in range(200):
        n = int(gen.integers(2, 13))
        d = int(gen.integers(1, 7))
        X = gen.normal(size=(n, d))
        basis = principal_directions(X, d)
        cov = covariance(X)
        vals, vecs = classical_jacobi(cov, tol=1e-14)
        order = np.argsort(-vals, kind="stable")
        vecs = vecs[:, order]
        for i in range(min(d, basis.rank)):
            expected = sign_normalize(vecs[:, i] / np.linalg.norm(vecs[:, i]))
            worst_direction = max(
                worst_direction, float(np.abs(basis.directions[i] - expected).max())
            )
        for v, lam in zip(basis.directions, basis.eigenvalues):
            residual = float(np.abs(cov @ v - lam * v).max()) / (1.0 + lam)
            worst_residual = max(worst_residual, residual)
    ok = worst_direction < 1e-8 and worst_residual < 1e-8
    report(
        3,
        ok,
        f"200 matrices vs classical-Jacobi oracle: direction err {worst_direction:.2e}, "
        f"residual {worst_residual:.2e}",
    )


def test_criterion_04_gradient_check():
    gen = np.random.default_rng(777)
    combos = [(b, t) for b in (0.0, 0.5, 1.0) for t in (1.5, 2.0, 4.0)]
    worst = 0.0
    instances = 0
    while instances < 100:
        beta, temp = combos[instances % len(combos)]
        n = int(gen.integers(1, 6))
        d = int(gen.integers(1, 4))
        k = int(gen.integers(2, 5))
        k_old = int(gen.integers(1, k))
        ids = tuple(range(k))
        batch = TrainingBatch(
            gen.normal(size=(n, d)), gen.integers(0, k, size=n), ids
        )
        model = SoftmaxModel(gen.normal(size=(k, d)), gen.normal(size=k), ids)
        teacher = SoftmaxModel(
            gen.normal(size=(k_old, d)), gen.normal(size=k_old), ids[:k_old]
        )
        config = LossConfig(beta=beta, temperature=temp)

        def loss_at(W, b):
            return combined_loss(batch, SoftmaxModel(W, b, ids), teacher, config)

        gW, gb = loss_gradient(batch, model, teacher, config)
        fW, fb = finite_difference_gradient(loss_at, model.weights, model.bias)
        scale = max(1.0, float(np.abs(fW).max()), float(np.abs(fb).max()))
        worst = max(
            worst,
            float(np.abs(gW - fW).max()) / scale,
            float(np.abs(gb - fb).max()) / scale,
        )
        instances += 1
    report(
        4,
        worst < 1e-5,
        f"100 instances, beta in {{0,0.5,1}}, T in {{1.5,2,4}}: max rel err {worst:.2e}",
    )


def test_criterion_05_loss_algebra_fixtures():
    gen = np.random.default_rng(99)
    worst_sum = 0.0
    for _ in range(1000):
        k = int(gen.integers(1, 9))
        logits = gen.normal(scale=20.0, size=k)
        temp = float(gen.uniform(1.0, 8.0))
        probs = softmax_with_temperature(logits, temp)
        worst_sum = max(worst_sum, abs(float(probs.sum()) - 1.0))
    uniform = np.array([[1.0, 1.0]])
    self_loss = distillation_loss(uniform, uniform, 2.0)
    ok = (
        worst_sum < 1e-12
        and abs(self_loss - math.log(2.0)) < 1e-10
        and combine_losses(2.0, 4.0, 0.5) == 3.0
    )
    report(
        5,
        ok,
        f"softmax |sum-1| max {worst_sum:.1e}; uniform self-distillation ln2; "
        f"beta-combination exact",
    )


def test_criterion_06_augmentation_exactness():
    gen = np.random.default_rng(1234)
    sizes = {0: 191, 1: 150, 2: 98}
    classes = {
        cid: [gen.random((3, 8, 8)).astype(np.float32) for _ in range(count)]
        for cid, count in sizes.items()
    }
    plan = balance_plan(sizes)
    balanced_counts = {}
    clean_cut = True
    for cid, images in classes.items():
        extra = augment_class_records(images, plan[cid], RngState(5).derive(cid))
        balanced_counts[cid] = len(images) + len(extra)
        for out in (rec.image for rec in extra):
            match = False
            for src in images:
                diff = np.any(out != src, axis=0)
                if not diff.any():
                    continue
                rows = np.flatnonzero(diff.any(axis=1))
                cols = np.flatnonzero(diff.any(axis=0))
                box = out[:, rows.min() : rows.max() + 1, cols.min() : cols.max() + 1]
                if box.any():
                    continue
                patched = out.copy()
                patched[:, rows.min() : rows.max() + 1, cols.min() : cols.max() + 1] = src[
                    :, rows.min() : rows.max() + 1, cols.min() : cols.max() + 1
                ]
                if np.array_equal(patched, src):
                    match = True
                    break
            clean_cut = clean_cut and match
    ok = balanced_counts == {0: 191, 1: 191, 2: 191} and clean_cut
    report(
        6,
        ok,
        f"191/150/98 balanced to {sorted(balanced_counts.values())}; every generated "
        f"image is bit-exact outside one zeroed rectangle",
    )


@pytest.fixture(scope="module")
def blob_last_accuracies():
    started = time.perf_counter()
    last = {}
    for name, mode, sampler in [
        ("pbes", "method", "pbes"),
        ("random", "method", "random"),
        ("finetune", "finetune", "pbes"),
        ("upperbound", "upperbound", "pbes"),
    ]:
        last[name] = np.array(
            [
                run_experiment(blob_config(mode, seed, sampler=sampler))[-1].accuracy
                for seed in BLOB_SEEDS
            ]
        )
    return last, time.perf_counter() - started


def test_criterion_07_blob_robustness(blob_last_accuracies):
    last, elapsed = blob_last_accuracies
    vs_random = int(np.sum(last["pbes"] >= last["random"]))
    vs_finetune = int(np.sum(last["pbes"] >= last["finetune"]))
    best_method = np.vstack([last["pbes"], last["random"], last["finetune"]]).max(axis=0)
    upper_wins = int(np.sum(last["upperbound"] >= best_method))
    ok = (
        vs_random >= 14
        and vs_finetune >= 18
        and upper_wins >= 18
        and elapsed < 120.0
    )
    report(
        7,
        ok,
        f"20 seeds: pbes>=random {vs_random}/20, pbes>=finetune {vs_finetune}/20, "
        f"upperbound>=all {upper_wins}/20 in {elapsed:.0f}s "
        f"(source-protocol absolute accuracies are out of scope)",
    )


def test_criterion_08_budget_monotonicity():
    means = []
    for budget in BLOB_BUDGET_SWEEP:
        values = [
            run_experiment(blob_config("method", seed, budget=budget))[-1].avg_accuracy
            for seed in BLOB_SEEDS
        ]
        means.append(float(np.mean(values)))
    ok = all(b >= a - 0.01 for a, b in zip(means, means[1:]))
    detail = ", ".join(
        f"M={m}:{v:.3f}" for m, v in zip(BLOB_BUDGET_SWEEP, means)
    )
    report(8, ok, f"mean avg-accuracy over budgets non-decreasing within 0.01 ({detail})")


def test_criterion_09_end_to_end_determinism(tmp_path):
    config = {
        "seed": 13,
        "mode": "method",
        "sampler": "pbes",
        "memory_budget": 8,
        "loss": {"learning_rate": 0.001, "epochs": 50},
        "stream": {"synthetic": {"classes": 4, "tasks": 2, "class_size": 12, "dims": 3}},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["run", "--config", str(config_path), "--out", str(a)]) == 0
    assert cli_main(["run", "--config", str(config_path), "--out", str(b)]) == 0
    run_identical = a.read_bytes() == b.read_bytes()

    sweep = tmp_path / "sweep.csv"
    assert cli_main(
        ["sweep", "--config", str(config_path), "--budgets", "12,4,8", "--out", str(sweep)]
    ) == 0
    sweep_lines = sweep.read_text().splitlines(True)[1:]
    sweep_matches_runs = len(sweep_lines) == 6
    for budget in (4, 8, 12):
        single_path = tmp_path / f"m{budget}.json"
        single_path.write_text(json.dumps({**config, "memory_budget": budget}))
        single = tmp_path / f"m{budget}.csv"
        assert cli_main(["run", "--config", str(single_path), "--out", str(single)]) == 0
        block = [ln for ln in sweep_lines if ln.startswith(f"{budget},")]
        expected = [f"{budget},{ln}" for ln in single.read_text().splitlines(True)[1:]]
        sweep_matches_runs = sweep_matches_runs and block == expected
    report(
        9,
        run_identical and sweep_matches_runs,
        "rerun metrics CSV byte-identical; each sweep block matches its single run",
    )


def test_criterion_10_metrics_fixtures():
    weights = np.zeros((2, 3))
    weights[0, 0] = 10.0
    weights[1, 1] = 10.0
    weights[1, 2] = 10.0
    model = SoftmaxModel(weights, np.zeros(2), (0, 1))
    accuracy, macro_f1, gmean = evaluate(model, None, np.eye(3), [0, 0, 1])
    stats = dataset_stats([np.zeros((1, 1, 1)), np.ones((1, 1, 1))], [0, 0])
    variance = stats.per_class[0].channel_variances[0]
    ok = (
        f"{accuracy:.6f}" == "0.666667"
        and f"{macro_f1:.6f}" == "0.666667"
        and f"{gmean:.6f}" == f"{math.sqrt(0.5):.6f}"
        and variance == 0.25
    )
    report(
        10,
        ok,
        f"confusion fixture -> acc {accuracy:.6f}, F1 {macro_f1:.6f}, G-mean {gmean:.6f}; "
        f"two-image variance {variance}",
    )
