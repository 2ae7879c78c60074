"""End-to-end acceptance gate: the seven headline guarantees of this package.

Each test evaluates one criterion at its stated tolerance, appends a single
``[criterion N] PASS/FAIL`` line (printed in the terminal summary via
conftest), and then asserts.  Criterion 5 trains the two default-protocol
configurations (10 seeds x 60 epochs each) once in a session fixture and is
by far the slowest part of the suite.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fullkl.grid import LabelGrid, Moments, discretize_gaussian, moments
from fullkl.losses import (
    FAMILY_FULL_KL,
    FAMILY_REFERENCE,
    LossSpec,
    batch_loss_and_grad,
    gaussian_kl,
)
from fullkl.model import MlpParams, _backward, _forward_cached, init_mlp
from fullkl.runner import compare, config_from_dict, load_config, run_experiment
from fullkl.verify import (
    MINIMA_INSTANCES,
    affine_invariance_errors,
    component_minima,
    exact_zero_violations,
    fd_grad,
    gaussian_kl_sweep,
    gradient_fidelity,
    rel_norm_error,
)

pytestmark = pytest.mark.acceptance

REPO_CONFIGS = Path(__file__).resolve().parent.parent / "configs"
G101 = LabelGrid(0.0, 100.0, 1.0)


def check(report, criterion, ok, detail):
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}"
    report.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def default_comparison(tmp_path_factory):
    """The full default-protocol comparison (both families, 10 seeds, 60 epochs)."""
    out = tmp_path_factory.mktemp("acceptance")
    cfg_a = replace(load_config(REPO_CONFIGS / "full_kl.json"), out_dir=out / "full_kl")
    cfg_b = replace(load_config(REPO_CONFIGS / "reference.json"), out_dir=out / "reference")
    start = time.perf_counter()
    result = compare(cfg_a, cfg_b, out_dir=out, quiet=True)
    elapsed = time.perf_counter() - start
    return result, elapsed


def summary_train_means(experiment, name):
    """Across-seed mean of a train-split metric, one value per epoch, read from the run's summary.csv."""
    lines = experiment.summary_path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# ")
    rows = [dict(zip(lines[1].split(","), line.split(","))) for line in lines[2:]]
    assert [int(r["epoch"]) for r in rows] == list(range(1, experiment.config.train.epochs + 1))
    return np.array([float(r[f"train_{name}_mean"]) for r in rows])


def test_criterion_1_gaussian_kl_oracle(criterion_report):
    start = time.perf_counter()
    sweep = gaussian_kl_sweep()
    elapsed = time.perf_counter() - start
    spot_a = gaussian_kl(Moments(0.0, 1.0), Moments(1.0, 1.0))
    spot_b = gaussian_kl(Moments(0.0, 1.0), Moments(0.0, 4.0))
    ok = (
        sweep.max_abs_err <= 1e-4
        and abs(spot_a - 0.5) <= 1e-12
        and abs(spot_b - 0.3181471805599453) <= 1e-6
        and elapsed <= 10.0
    )
    check(
        criterion_report, 1, ok,
        f"quadrature vs closed form: max |err| {sweep.max_abs_err:.3e} over "
        f"{len(sweep.rows)} pairs (tol 1e-4), spots {spot_a!r}/{spot_b:.6f}, {elapsed:.1f}s",
    )


def test_criterion_2_gradient_fidelity(criterion_report):
    start = time.perf_counter()
    fid_full = gradient_fidelity(LossSpec(FAMILY_FULL_KL))
    fid_ref = gradient_fidelity(LossSpec(FAMILY_REFERENCE, 1.0))

    dims = (3, 4, 5)
    g = LabelGrid(0.0, 4.0, 1.0)
    rng = np.random.default_rng(100)
    params = init_mlp(dims, 100)
    X = rng.uniform(-1.0, 1.0, (4, 3))
    T = np.exp(rng.normal(0.0, 1.5, (4, 5)))
    T /= T.sum(axis=1, keepdims=True)
    e2e = 0.0
    for spec in (LossSpec(FAMILY_FULL_KL), LossSpec(FAMILY_REFERENCE, 1.0)):
        def loss_of_vec(vec, _s=spec):
            logits = _forward_cached(MlpParams(dims, vec), X)[0]
            return float(np.mean(batch_loss_and_grad(T, logits, g, _s)[0]["total"]))

        logits, caches = _forward_cached(params, X)
        _, dlogits = batch_loss_and_grad(T, logits, g, spec)
        analytic = _backward(params, caches, dlogits / X.shape[0])
        vec = params.vec
        numeric = fd_grad(loss_of_vec, vec, 1e-5 * np.maximum(1.0, np.abs(vec)))
        e2e = max(e2e, rel_norm_error(analytic, numeric))
    elapsed = time.perf_counter() - start

    ok = (
        fid_full.max_rel_error <= 1e-6
        and fid_ref.max_rel_error <= 1e-6
        and e2e <= 1e-5
        and elapsed <= 60.0
    )
    check(
        criterion_report, 2, ok,
        f"analytic vs finite-difference gradients: full_kl {fid_full.max_rel_error:.3e}, "
        f"reference {fid_ref.max_rel_error:.3e} "
        f"(tol 1e-6, {fid_full.n_instances} instances x n in {fid_full.sizes}), "
        f"through-network {e2e:.3e} (tol 1e-5), {elapsed:.1f}s",
    )


def test_criterion_3_invariances_and_zeros(criterion_report):
    aff = affine_invariance_errors()
    zeros = exact_zero_violations()
    minima = component_minima()
    ok = (
        aff["full_total_rel"] <= 1e-9
        and aff["ref_scale_rel"] <= 1e-12
        and aff["unchanged_abs"] == 0.0
        and max(zeros.values()) == 0.0
        and min(minima.values()) >= 0.0
    )
    check(
        criterion_report, 3, ok,
        f"affine invariance rel {aff['full_total_rel']:.3e}/{aff['ref_scale_rel']:.3e}/"
        f"abs {aff['unchanged_abs']!r}, exact-zero violations {max(zeros.values())!r}, "
        f"component minimum {min(minima.values()):.3e} over {MINIMA_INSTANCES} instances",
    )


def test_criterion_4_discretization_recovery(criterion_report):
    m = moments(discretize_gaussian(40.0, 5.0, G101), G101)
    mu_err = abs(m.mu - 40.0)
    var_rel = abs(m.var / 25.0 - 1.0)
    ok = mu_err <= 0.01 and var_rel <= 0.01
    check(
        criterion_report, 4, ok,
        f"discretized N(40, 5^2) on the 0..100 grid recovers mu within {mu_err:.2e} "
        f"(tol 0.01) and variance within {var_rel:.2e} relative (tol 0.01)",
    )


def test_criterion_5_default_protocol_comparison(criterion_report, default_comparison):
    result, elapsed = default_comparison
    full, ref = result.result_a, result.result_b

    n_up = {}
    for name, exp in (("full_kl", full), ("reference", ref)):
        totals = summary_train_means(exp, "total")
        smoothed = np.convolve(totals, np.ones(5) / 5.0, mode="valid")
        n_up[name] = int(np.sum(np.diff(smoothed) > 0.0))
    a_ok = all(v == 0 for v in n_up.values())

    b_ok = abs(result.rel_diff) <= 0.15

    ld = summary_train_means(full, "l_ld")
    ex = summary_train_means(full, "l_exp")
    sm = summary_train_means(full, "l_smooth")
    c_ok = sm[-1] <= 0.1 * ld[-1] and sm[-1] <= 0.1 * ex[-1]

    ratios = ld / ex
    d_ok = bool(np.all((ratios >= 0.1) & (ratios <= 10.0)))

    t_ok = elapsed <= 600.0
    ok = a_ok and b_ok and c_ok and d_ok and t_ok
    check(
        criterion_report, 5, ok,
        f"(a) smoothed train totals non-increasing: {n_up['full_kl']}/{n_up['reference']} upticks; "
        f"(b) final val MAE {result.mean_a:.3f}+/-{result.std_a:.3f} vs {result.mean_b:.3f}"
        f"+/-{result.std_b:.3f}, rel diff {result.rel_diff:+.4f} (tol 0.15); "
        f"(c) final smoothness/KL {sm[-1] / ld[-1]:.4f} and /moment {sm[-1] / ex[-1]:.4f} (tol 0.1); "
        f"(d) KL/moment ratio in [{ratios.min():.3f}, {ratios.max():.3f}] (bounds [0.1, 10]); "
        f"{elapsed:.0f}s (limit 600s)",
    )


def test_criterion_6_reproducibility(criterion_report, tmp_path):
    identical = True
    n_files = 0
    for family, lam in ((FAMILY_FULL_KL, None), (FAMILY_REFERENCE, 1.0)):
        loss = {"family": family}
        if lam is not None:
            loss["lambda"] = lam
        cfg = config_from_dict({
            "dataset": {"type": "synthetic", "n": 300, "d_in": 16,
                        "sigma_range": [2.0, 6.0], "seed": 20240},
            "grid": {"start": 0.0, "stop": 100.0, "step": 1.0},
            "loss": loss,
            "train": {"epochs": 3, "batch_size": 128, "lr": 1e-3,
                      "lr_decay_factor": 0.1, "lr_decay_every": 30,
                      "hidden": [64, 64], "val_fraction": 0.2},
            "seeds": [0, 1],
            "out_dir": str(tmp_path / family),
        })
        run_experiment(cfg, quiet=True)
        first = {p.name: p.read_bytes() for p in (tmp_path / family).iterdir()}
        run_experiment(cfg, quiet=True)
        second = {p.name: p.read_bytes() for p in (tmp_path / family).iterdir()}
        identical = identical and first == second
        n_files += len(first)
    check(
        criterion_report, 6, identical,
        f"rerunning both families (300 samples, 2 seeds, 3 epochs) reproduced all "
        f"{n_files} output files byte-identically (metrics, summary, checkpoints)",
    )


def test_criterion_7_unit_invariance(criterion_report, tmp_path):
    """Labels rewritten as a*y + b: full_kl runs the same computation, the reference's lambda scales by a.

    Grid, target means and target sigmas all move with the labels, so a final
    val MAE divided by a is in the original units.  The reference's L1 term
    scales by a, so reference(a, lambda) is reference(1, a*lambda).
    """
    base = load_config(REPO_CONFIGS / "full_kl.json")

    def val_maes(a, b, lam=None):
        cfg = config_from_dict({
            "dataset": {"type": "synthetic", "n": 1000, "d_in": base.dataset.d_in,
                        "sigma_range": [a * s for s in base.dataset.sigma_range], "seed": base.dataset.seed},
            "grid": {"start": a * base.grid.lo + b, "stop": a * base.grid.hi + b, "step": a * base.grid.spacing},
            "loss": {"family": FAMILY_FULL_KL} if lam is None else {"family": FAMILY_REFERENCE, "lambda": lam},
            "train": {"epochs": 20, "batch_size": base.train.batch_size, "lr": base.train.lr,
                      "lr_decay_factor": base.train.lr_decay_factor, "lr_decay_every": base.train.lr_decay_every,
                      "hidden": list(base.train.hidden), "val_fraction": base.train.val_fraction},
            "seeds": [0, 1, 2],
            "out_dir": str(tmp_path / f"a{a}_b{b}_lam{lam}"),
        })
        return np.array([o.result.history[-1].mae for o in run_experiment(cfg, quiet=True).outcomes]) / a

    def rel(x, y):
        return float(np.max(np.abs(x - y) / y))

    start = time.perf_counter()
    full_1 = val_maes(1.0, 0.0)
    full_rel = max(rel(val_maes(a, b), full_1) for a in (0.1, 10.0) for b in (0.0, 1000.0))
    ref_1, ref_10 = val_maes(1.0, 0.0, lam=1.0), val_maes(10.0, 0.0, lam=1.0)
    lam_rel = rel(ref_10, val_maes(1.0, 0.0, lam=10.0))
    units_gap = abs(ref_10.mean() / ref_1.mean() - 1.0)
    elapsed = time.perf_counter() - start

    ok = full_rel <= 1e-12 and lam_rel <= 1e-12 and units_gap >= 0.01
    check(
        criterion_report, 7, ok,
        f"(a) full_kl final val MAE / a under y -> a*y + b, a in {{0.1, 10}}, b in {{0, 1000}}: "
        f"max rel diff {full_rel:.2e} (tol 1e-12); (b) reference(10, lambda=1) vs reference(1, lambda=10): "
        f"{lam_rel:.2e} (tol 1e-12); (c) reference(10, 1) vs reference(1, 1) mean MAE: {units_gap:.2%} apart "
        f"(at least 1%); 1000 samples, 20 epochs, seeds 0-2, {elapsed:.1f}s",
    )
