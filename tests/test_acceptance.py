"""Release acceptance gate: nine checks, one verdict line each.

Each check prints a single ``CRITERION n: PASS|FAIL`` line (written
through pytest's capture, so it shows in any run) before asserting.
The expensive artifacts, a 200/100 image synthetic dataset and three
training arms over three seeds, live in session-scoped fixtures shared
by the downstream checks.

Run only this gate with ``pytest tests/test_acceptance.py``.
"""

import filecmp
import os
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import edue.autodiff as ad
from edue.autodiff import Tape, Tensor
from edue.cli import main as cli_main
from edue.config import from_dict, preset, save_config
from edue.container import load_container, save_container
from edue.disagreement import (
    LossWeights,
    binarize_majority,
    gt_heatmap,
    model_heatmap,
    soft_majority,
    total_loss,
)
from edue.harness import (
    evaluate_arm,
    ood_experiment,
    quality_control,
    to_train_items,
    train_arm,
)
from edue.metrics import (
    distance_correlation,
    ncc,
    nll,
    soft_dice,
    spearman,
)
from edue.model import (
    aggregate_heads,
    build_model,
    build_single_head_model,
    forward,
    parameter_count,
    prob_maps,
)
from edue.raters import (
    generate_dataset,
    generate_sample,
)

from helpers import rater_agreement
from test_autodiff import numerical_grad, rel_err
from test_metrics import (
    oracle_dcor,
    oracle_ncc,
    oracle_nll,
    oracle_soft_dice,
    oracle_spearman,
)

SEEDS = (1, 2, 3)
DESK = preset("desk")


def _fixed_delta(delta):
    """Desk scene params with every sample drawn at one disagreement level."""
    return replace(DESK.scene_params(), delta_low=delta, delta_high=delta)


@pytest.fixture
def announce(capsys):
    """One verdict line per criterion, written through pytest's capture so
    it is always visible."""
    def _announce(n: int, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"CRITERION {n}: {verdict} - {detail}", file=sys.stdout,
                  flush=True)
    return _announce


# ---------------------------------------------------------------------------
# shared heavy fixtures


@pytest.fixture(scope="session")
def desk_data():
    """200 train / 100 test images at the desk scale used by the gate."""
    params = replace(DESK, seed=101).scene_params()  # 32x32, 4 raters, delta 0.5 or 3.0
    train_samples = generate_dataset(params, 200, np.random.default_rng(101))
    test_samples = generate_dataset(params, 100, np.random.default_rng(202))
    return train_samples, test_samples


def _single_rater_nll(model, samples, structure=0):
    """Mean NLL of a one-head model against the binarized majority vote
    (the only metric the single-rater control contributes)."""
    vals = []
    for s in samples:
        out = forward(model, Tensor(np.asarray(s.image)[None]))
        pred = out[0].data[0, 0]
        target = binarize_majority(soft_majority(s.masks[structure]))
        vals.append(nll(pred, target))
    return float(np.mean(vals))


@pytest.fixture(scope="session")
def desk_arms(desk_data):
    """EDUE, label-ensemble, and single-rater arms over three seeds.

    Returns the trained models, their test reports (per-seed mean NLL
    floats for the single-rater arm), and the wall-clock time of the
    whole train-plus-evaluate run.
    """
    train_samples, test_samples = desk_data
    items = to_train_items(train_samples)
    arms = {"edue": [], "le": [], "single": []}
    reports = {"edue": [], "le": [], "single": []}
    t0 = time.perf_counter()
    for seed in SEEDS:
        config = replace(DESK, seed=seed)
        edue_models, _ = train_arm("edue", config, items)
        le_models, _ = train_arm("le", config, items)
        (single_model,), _ = train_arm("single_rater", config, items)
        arms["edue"].append(edue_models)
        arms["le"].append(le_models)
        arms["single"].append(single_model)
        reports["edue"].append(evaluate_arm(edue_models, test_samples,
                                            batch_size=DESK.batch_size))
        reports["le"].append(evaluate_arm(le_models, test_samples,
                                          batch_size=DESK.batch_size))
        reports["single"].append(_single_rater_nll(single_model, test_samples))
    elapsed = time.perf_counter() - t0
    return arms, reports, elapsed


@pytest.fixture(scope="session")
def desk_ensembles(desk_data):
    """Three-member deep ensembles over the same three seeds."""
    train_samples, _ = desk_data
    items = to_train_items(train_samples)
    return [train_arm("de", replace(DESK, seed=seed), items)[0] for seed in SEEDS]


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness against finite differences


def _op_losses(rng):
    """Named scalar-loss builders covering every differentiable op.

    Each entry returns (build_loss, leaves); build_loss reconstructs the
    graph from the leaves' current data so finite differences can
    perturb them in place.
    """
    cases = []

    x = Tensor(rng.standard_normal((1, 2, 6, 6)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.5, requires_grad=True)
    b = Tensor(rng.standard_normal(3) * 0.1, requires_grad=True)
    proj = Tensor(rng.standard_normal((1, 3, 6, 6)))
    cases.append(("conv2d", lambda: ad.mean_all(ad.square(ad.add(
        ad.conv2d(x, w, b, stride=1, padding=1), proj))), [x, w, b]))

    xn = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
    gain = Tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True)
    shift = Tensor(rng.standard_normal(3) * 0.1, requires_grad=True)
    pn = Tensor(rng.standard_normal((2, 3, 4, 4)))
    cases.append(("channel_norm", lambda: ad.mean_all(ad.square(ad.add(
        ad.channel_norm(xn, gain, shift), pn))), [xn, gain, shift]))

    xs = Tensor(rng.standard_normal((2, 1, 4, 4)), requires_grad=True)
    ps = Tensor(rng.standard_normal((2, 1, 4, 4)))
    cases.append(("sigmoid", lambda: ad.mean_all(ad.square(ad.add(
        ad.sigmoid(xs), ps))), [xs]))

    # Keep relu inputs away from its kink at zero.
    xr_data = rng.standard_normal((2, 1, 4, 4))
    xr_data[np.abs(xr_data) < 0.2] = 0.5
    xr = Tensor(xr_data, requires_grad=True)
    pr = Tensor(rng.standard_normal((2, 1, 4, 4)))
    cases.append(("relu", lambda: ad.mean_all(ad.square(ad.add(
        ad.relu(xr), pr))), [xr]))

    xu = Tensor(rng.standard_normal((1, 2, 3, 3)), requires_grad=True)
    pu = Tensor(rng.standard_normal((1, 2, 6, 6)))
    cases.append(("upsample", lambda: ad.mean_all(ad.square(ad.add(
        ad.upsample_nearest(xu, 2), pu))), [xu]))

    stack = [Tensor(rng.uniform(0.1, 0.9, (1, 1, 4, 4)), requires_grad=True)
             for _ in range(3)]
    pv = Tensor(rng.standard_normal((1, 1, 4, 4)))
    cases.append(("variance", lambda: ad.mean_all(ad.square(ad.add(
        ad.variance_along_first_axis(ad.stack_first(stack)), pv))), stack))

    probs = Tensor(rng.uniform(0.1, 0.9, (2, 1, 4, 4)), requires_grad=True)
    targets = Tensor((rng.uniform(size=(2, 1, 4, 4)) < 0.5).astype(np.float64))
    cases.append(("bce", lambda: ad.bce_loss(probs, targets), [probs]))

    hm = Tensor(rng.uniform(0.0, 0.25, (2, 1, 4, 4)), requires_grad=True)
    hg = Tensor(rng.uniform(0.0, 0.25, (2, 1, 4, 4)))
    cases.append(("rmse", lambda: ad.sqrt(ad.mean_all(ad.square(
        ad.sub(hm, hg))), shift=1e-12), [hm]))

    return cases


def _two_head_params(rng):
    """A tiny non-downsampling conv stack with two sigmoid heads on 4x4
    input: the smallest graph exercising every loss path at once."""
    return {
        "w1": Tensor(rng.standard_normal((4, 1, 3, 3)) * 0.4, requires_grad=True),
        "b1": Tensor(rng.standard_normal(4) * 0.1, requires_grad=True),
        "g1": Tensor(rng.uniform(0.5, 1.5, 4), requires_grad=True),
        "s1": Tensor(rng.standard_normal(4) * 0.1, requires_grad=True),
        "hw0": Tensor(rng.standard_normal((1, 4, 1, 1)) * 0.5, requires_grad=True),
        "hb0": Tensor(rng.standard_normal(1) * 0.1, requires_grad=True),
        "hw1": Tensor(rng.standard_normal((1, 4, 1, 1)) * 0.5, requires_grad=True),
        "hb1": Tensor(rng.standard_normal(1) * 0.1, requires_grad=True),
    }


def _two_head_loss(params, x, head_targets, h_gt, weights):
    h = ad.conv2d(x, params["w1"], params["b1"], stride=1, padding=1)
    h = ad.relu(ad.channel_norm(h, params["g1"], params["s1"]))
    logits = [ad.conv2d(h, params["hw0"], params["hb0"]),
              ad.conv2d(h, params["hw1"], params["hb1"])]
    heads = [ad.sigmoid(z) for z in logits]
    loss, _ = total_loss(heads, head_targets, h_gt, weights)
    return loss


def _gradient_sweep(h: float, bias_atol: float) -> float:
    """Worst relative error between tape and finite-difference gradients
    across all ops plus the two-head total loss, in the active dtype."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _, build_loss, leaves in _op_losses(rng):
        with Tape() as tape:
            tape.backward(build_loss())
        analytic = [leaf.grad.copy() for leaf in leaves]
        numeric = numerical_grad(lambda: float(build_loss().data),
                                 [leaf.data for leaf in leaves], h)
        worst = max(worst, *(rel_err(a, n) for a, n in zip(analytic, numeric)))

    params = _two_head_params(rng)
    x = Tensor(rng.standard_normal((1, 1, 4, 4)))
    head_targets = [np.asarray((rng.uniform(size=(1, 1, 4, 4)) < 0.5),
                               dtype=np.float64) for _ in range(2)]
    h_gt = rng.uniform(0.0, 0.25, (1, 1, 4, 4))
    weights = LossWeights(alpha=1.0, beta=2.0)

    def full_loss():
        return _two_head_loss(params, x, head_targets, h_gt, weights)

    with Tape() as tape:
        tape.backward(full_loss())
    # The conv bias feeds channel_norm, whose mean subtraction cancels any
    # constant channel shift: its true gradient is zero up to rounding,
    # which a finite-difference quotient only sees as noise.
    assert float(np.abs(params["b1"].grad).max()) < bias_atol
    names = [k for k in params if k != "b1"]
    leaves = [params[k] for k in names]
    analytic = [leaf.grad.copy() for leaf in leaves]
    numeric = numerical_grad(lambda: float(full_loss().data),
                             [leaf.data for leaf in leaves], h)
    worst = max(worst, *(rel_err(a, n) for a, n in zip(analytic, numeric)))
    return worst


def test_criterion_1_gradients_match_finite_differences(announce):
    t0 = time.perf_counter()
    worst32 = _gradient_sweep(h=1e-3, bias_atol=1e-6)
    ad.set_default_dtype(np.float64)
    try:
        worst64 = _gradient_sweep(h=1e-5, bias_atol=1e-14)
    finally:
        ad.set_default_dtype(np.float32)
    elapsed = time.perf_counter() - t0
    ok = worst32 < 1e-2 and worst64 < 1e-5 and elapsed < 30.0
    announce(1, ok, f"max rel err {worst32:.2e} (32-bit), {worst64:.2e} (64-bit), "
                    f"{elapsed:.1f}s")
    assert worst32 < 1e-2
    assert worst64 < 1e-5
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# criterion 2: metric implementations against brute-force oracles


def test_criterion_2_metrics_match_oracles(announce):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    checked = 0
    for trial in range(120):
        n = int(rng.integers(5, 40))
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        if trial % 3 == 0:
            # Heavy ties exercise the midrank handling.
            x = rng.integers(0, 4, n).astype(np.float64)
            y = rng.integers(0, 4, n).astype(np.float64)
            if len(set(x.tolist())) < 2:
                x[0] += 1.0
            if len(set(y.tolist())) < 2:
                y[0] += 1.0
        worst = max(worst, abs(spearman(x, y) - oracle_spearman(x, y)),
                    abs(distance_correlation(x, y) - oracle_dcor(x, y)))

        shape = (int(rng.integers(3, 9)), int(rng.integers(3, 9)))
        a = rng.uniform(size=shape)
        b = rng.uniform(size=shape)
        pred = rng.uniform(0.01, 0.99, shape)
        target = (rng.uniform(size=shape) < 0.5).astype(np.float64)
        worst = max(worst, abs(ncc(a, b) - oracle_ncc(a, b)),
                    abs(nll(pred, target) - oracle_nll(pred, target)),
                    abs(soft_dice(pred, target) - oracle_soft_dice(pred, target)))
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and checked >= 100 and elapsed < 10.0
    announce(2, ok, f"max |impl - oracle| {worst:.2e} over {checked} random inputs, "
                    f"{elapsed:.1f}s")
    assert worst < 1e-12
    assert checked >= 100
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criterion 3: loss algebra


def test_criterion_3_loss_algebra_is_exact(announce):
    rng = np.random.default_rng(11)
    worst_gt = 0.0
    recompositions_exact = True
    for _ in range(25):
        # Rater variance equals the Bernoulli closed form p(1 - p).
        y, hgt, wdt = int(rng.integers(2, 7)), 5, 6
        masks = (rng.uniform(size=(y, hgt, wdt)) < rng.uniform()).astype(np.float64)
        p = masks.mean(axis=0)
        worst_gt = max(worst_gt, float(np.abs(gt_heatmap(masks) - p * (1 - p)).max()))

        # The combined loss recomposes from its parts bit for bit, in the
        # training dtype.
        heads = [rng.uniform(0.05, 0.95, (2, 1, 4, 4)) for _ in range(3)]
        targets = [(rng.uniform(size=(2, 1, 4, 4)) < 0.5).astype(np.float64)
                   for _ in range(3)]
        h_gt = rng.uniform(0.0, 0.25, (2, 1, 4, 4))
        w = LossWeights(alpha=float(rng.uniform(0.1, 2.0)),
                        beta=float(rng.uniform(0.1, 5.0)))
        tens = [Tensor(hd) for hd in heads]
        _, parts = total_loss(tens, targets, h_gt, w)
        f = ad.default_dtype()
        recomposed = f(f(parts["bce_sum"]) * f(w.alpha)) + f(f(parts["rmse"]) * f(w.beta))
        recompositions_exact &= (f(parts["total"]) == recomposed)

    # Head variance equals an explicit per-pixel loop; run in 64-bit test
    # mode so both sides share one precision.
    worst_hm = 0.0
    ad.set_default_dtype(np.float64)
    try:
        for _ in range(25):
            k = int(rng.integers(2, 5))
            probs = [rng.uniform(0.0, 1.0, (1, 1, 4, 4)) for _ in range(k)]
            hm = model_heatmap([Tensor(pr) for pr in probs]).data
            loop = np.empty((1, 1, 4, 4))
            stacked = np.stack(probs)
            for i in range(4):
                for j in range(4):
                    col = stacked[:, 0, 0, i, j]
                    loop[0, 0, i, j] = np.mean((col - col.mean()) ** 2)
            worst_hm = max(worst_hm, float(np.abs(hm - loop).max()))
    finally:
        ad.set_default_dtype(np.float32)

    ok = worst_gt < 1e-12 and worst_hm < 1e-12 and recompositions_exact
    announce(3, ok, f"closed-form gap {worst_gt:.2e}, loop gap {worst_hm:.2e}, "
                    f"recomposition exact: {recompositions_exact}")
    assert worst_gt < 1e-12
    assert worst_hm < 1e-12
    assert recompositions_exact


# ---------------------------------------------------------------------------
# criterion 4: directional end-to-end comparison


def test_criterion_4_directional_ordering(announce, desk_arms):
    _, reports, elapsed = desk_arms
    edue_sr = float(np.mean([r.dataset["sr"] for r in reports["edue"]]))
    le_sr = float(np.mean([r.dataset["sr"] for r in reports["le"]]))
    edue_ncc = float(np.mean([r.dataset["mean_ncc"] for r in reports["edue"]]))
    le_ncc = float(np.mean([r.dataset["mean_ncc"] for r in reports["le"]]))
    edue_nll = float(np.mean([r.dataset["mean_nll"] for r in reports["edue"]]))
    single_nll = float(np.mean(reports["single"]))
    ok = (edue_sr >= 0.5 and edue_sr > le_sr and edue_ncc > le_ncc
          and edue_nll <= single_nll and elapsed < 900.0)
    announce(4, ok, f"SR {edue_sr:.3f} (>= 0.5, LE {le_sr:.3f}), "
                    f"NCC {edue_ncc:.3f} vs LE {le_ncc:.3f}, "
                    f"NLL {edue_nll:.3f} vs single-rater {single_nll:.3f}, "
                    f"{elapsed:.0f}s")
    assert edue_sr >= 0.5
    assert edue_sr > le_sr
    assert edue_ncc > le_ncc
    assert edue_nll <= single_nll
    assert elapsed < 900.0


# ---------------------------------------------------------------------------
# criterion 5: single-pass contract and parameter ratio


def test_criterion_5_single_pass_and_parameter_ratio(announce):
    config = DESK.model_config()
    model = build_model(config)
    image = np.zeros((1, config.in_channels, *config.input_size), dtype=np.float32)
    aggregate_heads(prob_maps([model], image, batch_size=1)[0])
    aggregate_heads(prob_maps([model], image, batch_size=1)[0])
    edue_passes = model.trunk_passes

    m = 3
    members = [build_single_head_model(replace(DESK, seed=i).model_config())
               for i in range(m)]
    aggregate_heads(prob_maps(members, image, batch_size=1)[0])
    de_passes = sum(mm.trunk_passes for mm in members)

    desk_multi = parameter_count(config, "multi_head")
    desk_single = parameter_count(config, "single_head_full")
    full = preset("riga-like").model_config()
    full_multi = parameter_count(full, "multi_head")
    full_single = parameter_count(full, "single_head_full")

    ok = (edue_passes == 2 and de_passes == m
          and desk_multi < m * desk_single / m
          and full_multi < 5 * full_single / 5)
    announce(5, ok, f"1 trunk pass per prediction ({edue_passes} for 2 calls), "
                    f"{de_passes} member passes for m={m}; params "
                    f"{desk_multi} < DE total {m * desk_single} / {m} (desk), "
                    f"{full_multi} < {5 * full_single} / 5 (full scale)")
    assert edue_passes == 2
    assert de_passes == m
    assert desk_multi < m * desk_single / m
    assert full_multi < 5 * full_single / 5


# ---------------------------------------------------------------------------
# criterion 6: quality-control curve


def test_criterion_6_quality_control(announce, desk_arms):
    # Hand toy: four good then four poor images, uncertainty ranked
    # backwards, 5-point grid.  Derived with np.quantile interpolation.
    dice = [0.9] * 4 + [0.3] * 4
    sv = [8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]
    curve = quality_control(dice, sv, 0.7, quantile_grid=[0.0, 0.25, 0.5, 0.75, 1.0])
    expect_curve = [0.5, 2.0 / 3.0, 1.0, 1.0, 1.0]
    expect_ideal = [0.5, 1.0 / 3.0, 0.0, 0.0, 0.0]
    toy_ok = (np.allclose(curve.remaining_fraction, expect_curve, atol=1e-12)
              and np.allclose(curve.ideal_fraction, expect_ideal, atol=1e-12)
              and abs(curve.d_auc - 17.0 / 24.0) < 1e-12)

    # An oracle ordering (uncertainty = poorness rank) closes the gap.
    rng = np.random.default_rng(5)
    oracle_ok = True
    for _ in range(10):
        d = rng.uniform(0.0, 1.0, 30)
        poor = d < 0.7
        sv_oracle = np.where(poor, 100 + rng.uniform(size=30), rng.uniform(size=30))
        oracle_ok &= abs(quality_control(d, sv_oracle, 0.7).d_auc) < 1e-12

    _, reports, _ = desk_arms
    per = reports["edue"][0].per_image
    run = quality_control([r["soft_dice"] for r in per],
                          [r["sv_model"] for r in per], 0.7)
    run_ok = np.isfinite(run.d_auc)

    ok = toy_ok and oracle_ok and run_ok
    announce(6, ok, f"hand toy d-AUC {curve.d_auc:.6f} (= 17/24), oracle d-AUC 0, "
                    f"trained-run d-AUC {run.d_auc:.4f}")
    assert toy_ok
    assert oracle_ok
    assert run_ok


# ---------------------------------------------------------------------------
# criterion 7: distorted inputs lower agreement for every arm


def test_criterion_7_ood_agreement_drops(announce, desk_data, desk_arms, desk_ensembles):
    arms, _, _ = desk_arms
    _, test_samples = desk_data
    medians = {}
    ok = True
    for arm_name, predictors in (("edue", arms["edue"]), ("le", arms["le"]),
                                 ("de", desk_ensembles)):
        clean, noisy = [], []
        for i, predictor in enumerate(predictors):
            report = ood_experiment(predictor, test_samples, "gauss_noise", 0.3,
                                    rng=np.random.default_rng(900 + i),
                                    fractions=(0.0, 1.0),
                                    batch_size=DESK.batch_size)
            clean.extend(report.per_fraction[0]["scores"])
            noisy.extend(report.per_fraction[1]["scores"])
        med0 = float(np.median(clean))
        med1 = float(np.median(noisy))
        medians[arm_name] = (med0, med1)
        ok &= med1 <= med0
    detail = ", ".join(f"{k}: {v[0]:.3f} -> {v[1]:.3f}" for k, v in medians.items())
    announce(7, ok, f"median agreement clean -> 100% noise: {detail}")
    for med0, med1 in medians.values():
        assert med1 <= med0


# ---------------------------------------------------------------------------
# criterion 8: generator disagreement scales with delta


def test_criterion_8_generator_validity(announce):
    means = []
    for delta in (0.5, 1.0, 2.0, 4.0):
        rng = np.random.default_rng(23)
        params = _fixed_delta(delta)
        scores = [rater_agreement(generate_sample(params, rng).masks[0])
                  ["mean_pairwise_dice"] for _ in range(200)]
        means.append(float(np.mean(scores)))
    decreasing = all(means[i] > means[i + 1] for i in range(3))

    rng = np.random.default_rng(29)
    zero_ok = True
    for _ in range(20):
        s = generate_sample(_fixed_delta(0.0), rng)
        zero_ok &= all(np.array_equal(s.masks[0, 0], s.masks[0, j])
                       for j in range(1, s.masks.shape[1]))
        zero_ok &= float(gt_heatmap(s.masks[0]).max()) == 0.0

    ok = decreasing and zero_ok
    announce(8, ok, "mean pairwise dice " + " > ".join(f"{m:.3f}" for m in means)
                    + f"; delta=0 identical masks and zero heatmap: {zero_ok}")
    assert decreasing
    assert zero_ok


# ---------------------------------------------------------------------------
# criterion 9: byte-stable round trips


def _run_pipeline(root, cfg_path):
    data = os.path.join(root, "data")
    ckpt = os.path.join(root, "ckpt")
    eval_json = os.path.join(root, "eval.json")
    qc_json = os.path.join(root, "qc.json")
    ood_json = os.path.join(root, "ood.json")
    steps = [
        ["gen-data", "--config", cfg_path, "--out", data],
        ["train", "--config", cfg_path, "--data", data, "--arm", "edue",
         "--out", ckpt],
        ["eval", "--model", ckpt, "--data", data, "--out", eval_json],
        ["qc", "--model", ckpt, "--data", data, "--out", qc_json],
        ["ood", "--model", ckpt, "--data", data, "--kind", "gauss_noise",
         "--level", "0.3", "--out", ood_json],
    ]
    for argv in steps:
        assert cli_main(argv) == 0, f"pipeline step failed: {argv}"


def test_criterion_9_io_round_trips(announce, tmp_path):
    # Container round trip is bitwise.
    rng = np.random.default_rng(31)
    tensors = {f"t{i}": rng.standard_normal((i + 1, 3)).astype(np.float32)
               for i in range(4)}
    p1 = tmp_path / "a.edt"
    p2 = tmp_path / "b.edt"
    save_container(p1, tensors)
    loaded = load_container(p1)
    save_container(p2, loaded)
    container_ok = (p1.read_bytes() == p2.read_bytes()
                    and all(np.array_equal(tensors[k], loaded[k]) for k in tensors))

    # The whole pipeline, rerun with the same seed, reproduces every
    # report byte for byte.
    cfg = from_dict({"input_size": [16, 16], "base_channels": 4,
                     "epochs": 2, "batch_size": 4, "n_raters": 3,
                     "de_members": 2, "n_train": 6,
                     "seed": 17})
    cfg_path = tmp_path / "config.json"
    save_config(cfg_path, cfg)
    run_a = tmp_path / "run_a"
    run_b = tmp_path / "run_b"
    run_a.mkdir()
    run_b.mkdir()
    _run_pipeline(str(run_a), str(cfg_path))
    _run_pipeline(str(run_b), str(cfg_path))

    mismatches = []
    for dirpath, _, filenames in os.walk(run_a):
        rel = os.path.relpath(dirpath, run_a)
        for name in sorted(filenames):
            fa = os.path.join(dirpath, name)
            fb = os.path.join(run_b, rel, name)
            if not os.path.exists(fb) or not filecmp.cmp(fa, fb, shallow=False):
                mismatches.append(os.path.join(rel, name))
    n_files = sum(len(f) for _, _, f in os.walk(run_a))
    pipeline_ok = not mismatches and n_files > 0

    ok = container_ok and pipeline_ok
    announce(9, ok, f"container bitwise: {container_ok}; pipeline rerun identical "
                    f"across {n_files} files" + (f"; mismatches: {mismatches}"
                                                 if mismatches else ""))
    assert container_ok
    assert pipeline_ok
