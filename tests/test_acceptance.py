"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities. Heavy artifacts (desk-scale datasets, trained
models) are built once per session and shared across criteria.

Desk scale: regression N=100/M=20/T=200, portfolio N=100, control
S=V=10/T=5; splits 60/20/20; K=10; 3 seeds where averaging is required.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from qproj.baselines import pca_projection, sharedp_train
from qproj.core import (
    QpInstance,
    eliminate_eq_doubling,
    eliminate_eq_nullspace,
    max_violation,
    project,
    recover,
)
from qproj.datasets import (
    gen_regression,
    generate_instance,
    portfolio_eq_instance,
)
from qproj.evaluate import (
    SolutionCache,
    evaluate_method,
    fixed_method,
    ours_method,
    rand_method,
)
from qproj.gnn import backward, forward, init_params
from qproj.solver import SolveStatus, SolverSettings, kkt_residuals, solve_qp
from qproj.theory import (
    AssumptionConstants,
    gen_bound,
    lipschitz_consts,
    validate_norm_bound,
    y_max,
)
from qproj.training import TrainConfig, envelope_grad, train

from oracles import (
    active_set,
    brute_force_min,
    random_pd_instance,
    reduced_instance_raw,
    u_of_raw_projection,
)

SEEDS = (0, 1, 2)
DESK_K = 10
DESK_EPOCHS = 15
DESK_SIZES = {
    "regression": {"n": 100, "m": 20, "t": 200},
    "portfolio": {"n": 100},
    "control": {"s": 10, "v": 10, "t": 5},
}


def _desk_split(family, which, count, base):
    sizes = DESK_SIZES[family]
    offset = {"train": 0, "val": 1000, "test": 2000}[which]
    out = []
    for i in range(count):
        inst = generate_instance(family, sizes, base + offset + i)
        meta = dict(inst.meta)
        meta["id"] = f"{family}-{which}-{i:03d}"
        out.append(QpInstance(Q=inst.Q, c=inst.c, A=inst.A, b=inst.b,
                              constant=inst.constant, meta=meta))
    return out


@pytest.fixture(scope="session")
def desk_data():
    data = {}
    for family in DESK_SIZES:
        data[family] = {
            "train": _desk_split(family, "train", 60, 0),
            "val": _desk_split(family, "val", 20, 0),
            "test": _desk_split(family, "test", 20, 0),
        }
    return data


@pytest.fixture(scope="session")
def u_star_cache():
    return SolutionCache()


@pytest.fixture(scope="session")
def trained_models(desk_data):
    """Ours trained per family per seed at K=10 (criteria 4, 6, 8, 11),
    plus K=5 / K=20 regression models for the K-trend criterion."""
    models = {}
    for family in DESK_SIZES:
        for seed in SEEDS:
            cfg = TrainConfig(k=DESK_K, batch_size=8, max_epochs=DESK_EPOCHS,
                              seed=seed, record_timings=False)
            params, _ = train(desk_data[family]["train"],
                              desk_data[family]["val"], cfg)
            models[(family, seed, DESK_K)] = params
    for k in (5, 20):
        cfg = TrainConfig(k=k, batch_size=8, max_epochs=DESK_EPOCHS, seed=0,
                          record_timings=False)
        params, _ = train(desk_data["regression"]["train"],
                          desk_data["regression"]["val"], cfg)
        models[("regression", 0, k)] = params
    return models


def _mean_error(method, test_set, cache):
    recs = evaluate_method(method, test_set, cache=cache, timing_repeats=0)
    return float(np.mean([r.relative_error for r in recs])), recs


def test_criterion_01_solver_oracle_equivalence():
    rng = np.random.default_rng(42)
    settings = SolverSettings()
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 9))
        inst = random_pd_instance(rng, n, m)
        res = solve_qp(inst, settings)
        assert res.status is SolveStatus.SOLVED
        ref, _ = brute_force_min(inst.Q, inst.c, inst.A, inst.b)
        worst = max(worst, abs(res.objective - ref))
        assert abs(res.objective - ref) <= 1e-6
        viol, dual, compl_res = kkt_residuals(inst, res.y_star, res.lambda_star)
        eps_pri = settings.eps_abs + settings.eps_rel * np.abs(inst.b).max()
        eps_dua = settings.eps_abs + settings.eps_rel * np.abs(inst.c).max()
        assert viol <= eps_pri and dual <= eps_dua and compl_res <= 10 * eps_pri
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\nPASS criterion 1: 200 instances, max |obj - oracle| = "
          f"{worst:.2e} (<=1e-6), KKT residuals in tolerance, {elapsed:.1f}s")


def test_criterion_02_envelope_gradient_finite_differences():
    rng = np.random.default_rng(7)
    fd_settings = SolverSettings(eps_abs=1e-10, eps_rel=1e-10)
    t0 = time.perf_counter()
    total, matched, excused = 0, 0, 0
    unexcused = []
    for trial in range(20):
        n = int(rng.integers(4, 9))
        m = int(rng.integers(3, 9))
        k = int(rng.integers(1, min(4, n)))
        inst = random_pd_instance(rng, n, m)
        P = np.linalg.qr(rng.normal(size=(n, k)))[0]
        res = solve_qp(reduced_instance_raw(inst, P), fd_settings)
        if res.status is not SolveStatus.SOLVED:
            continue
        g = envelope_grad(inst, P, res.y_star, res.lambda_star)
        base_act = active_set(res)
        h = 1e-5
        for i in range(n):
            for j in range(k):
                if abs(g[i, j]) <= 1e-6:
                    continue
                E = np.zeros_like(P)
                E[i, j] = h
                up, rp = u_of_raw_projection(inst, P + E, fd_settings)
                um, rm = u_of_raw_projection(inst, P - E, fd_settings)
                fd = (up - um) / (2 * h)
                total += 1
                rel = abs(fd - g[i, j]) / max(abs(fd), abs(g[i, j]))
                if rel <= 1e-3:
                    matched += 1
                elif active_set(rp) != base_act or active_set(rm) != base_act:
                    excused += 1    # kink of the optimal-value function
                else:
                    unexcused.append((trial, i, j, rel))
    elapsed = time.perf_counter() - t0
    assert total > 100
    assert matched / total >= 0.95, f"match rate {matched/total:.3f}"
    assert not unexcused, f"mismatches without active-set change: {unexcused}"
    assert elapsed < 120.0
    print(f"\nPASS criterion 2: {matched}/{total} entries within 1e-3 "
          f"({matched/total:.1%}), {excused} active-set-change mismatches, "
          f"0 unexcused, {elapsed:.1f}s")


def test_criterion_03_end_to_end_theta_gradient():
    rng = np.random.default_rng(11)
    fd_settings = SolverSettings(eps_abs=1e-10, eps_rel=1e-10)
    t0 = time.perf_counter()
    n, m, k = 8, 6, 3
    B = rng.normal(size=(n, n))
    inst = QpInstance(Q=B @ B.T + np.eye(n), c=2 * rng.normal(size=n),
                      A=rng.normal(size=(m, n)), b=rng.uniform(0.5, 2.0, m))
    params = None
    for seed in range(60):
        cand = init_params(seed, h=4, l=2, k=k, h_g=4)
        _, tape = forward(cand, inst, k)
        s = np.linalg.svd(tape.p_raw, compute_uv=False)
        if s[-1] > 0.05 * s[0]:
            params = cand
            break
    assert params is not None

    proj0, tape0 = forward(params, inst, k)
    res0 = solve_qp(project(inst, proj0), fd_settings)
    assert res0.status is SolveStatus.SOLVED
    g_env = envelope_grad(inst, proj0.P, res0.y_star, res0.lambda_star)
    grad_theta = backward(tape0, params, g_env).to_vector()

    def u_of(vec):
        proj, _ = forward(params.from_vector(vec), inst, k)
        res = solve_qp(project(inst, proj), fd_settings)
        assert res.status is SolveStatus.SOLVED
        return res.objective

    vec = params.to_vector()
    h = 1e-6
    worst = 0.0
    for trial in range(20):
        d = rng.normal(size=vec.size)
        d /= np.linalg.norm(d)
        fd = (u_of(vec + h * d) - u_of(vec - h * d)) / (2 * h)
        an = float(grad_theta @ d)
        rel = abs(fd - an) / max(abs(fd), abs(an), 1e-10)
        worst = max(worst, rel)
        assert rel <= 1e-2, f"direction {trial}: rel={rel:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\nPASS criterion 3: 20 directions, worst relative error "
          f"{worst:.2e} (<=1e-2), {elapsed:.1f}s")


def test_criterion_04_feasibility_all_projection_methods(
        desk_data, trained_models, u_star_cache):
    checked = 0
    for family in DESK_SIZES:
        test_set = desk_data[family]["test"]
        train_set = desk_data[family]["train"]
        n = test_set[0].n_vars
        u_star_cache.warm(train_set)
        sols = np.array([u_star_cache.entry(inst)["x_star"] for inst in train_set])
        pca = fixed_method(pca_projection(sols, DESK_K).P, "pca")
        shared_cfg = TrainConfig(k=DESK_K, batch_size=8, max_epochs=3, seed=0,
                                 record_timings=False)
        shared = sharedp_train(train_set, desk_data[family]["val"], shared_cfg)
        methods = [
            ours_method(trained_models[(family, 0, DESK_K)]),
            rand_method(DESK_K, base_seed=0),
            pca,
            fixed_method(shared.P, "sharedp"),
        ]
        for method in methods:
            for index, inst in enumerate(test_set):
                proj = method.projection(inst, index)
                res = solve_qp(project(inst, proj))
                if res.status is not SolveStatus.SOLVED:
                    continue
                x = recover(proj, res.y_star)
                viol = max_violation(inst, x)
                assert viol <= 1e-6, (family, method.name, index, viol)
                checked += 1
    print(f"\nPASS criterion 4: {checked} recovered solutions across "
          f"Ours/Rand/PCA/SharedP x 3 families, all max_violation <= 1e-6")


def test_criterion_05_identity_projection_sanity(desk_data, u_star_cache):
    rng = np.random.default_rng(3)
    worst = 0.0
    for family in DESK_SIZES:
        test_set = desk_data[family]["test"][:5]
        n = test_set[0].n_vars
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        method = fixed_method(q, "identity-k-eq-n")
        _, recs = _mean_error(method, test_set, u_star_cache)
        for rec in recs:
            worst = max(worst, abs(rec.relative_error))
            assert abs(rec.relative_error) <= 1e-6
    print(f"\nPASS criterion 5: K=N orthonormal projection, worst relative "
          f"error {worst:.2e} (<=1e-6)")


def test_criterion_06_desk_scale_quality_ordering(
        desk_data, trained_models, u_star_cache):
    test_set = desk_data["regression"]["test"]
    ours_errors, rand_errors = [], []
    for seed in SEEDS:
        e_ours, _ = _mean_error(ours_method(trained_models[("regression", seed,
                                                           DESK_K)]),
                                test_set, u_star_cache)
        e_rand, _ = _mean_error(rand_method(DESK_K, base_seed=seed), test_set,
                                u_star_cache)
        ours_errors.append(e_ours)
        rand_errors.append(e_rand)
    mean_ours = float(np.mean(ours_errors))
    mean_rand = float(np.mean(rand_errors))
    assert mean_ours < mean_rand
    assert mean_ours <= 0.5 * mean_rand
    print(f"\nPASS criterion 6: regression desk scale over 3 seeds: "
          f"ours={mean_ours:.4f} rand={mean_rand:.4f} "
          f"(ratio {mean_ours/mean_rand:.3f} <= 0.5)")


def test_criterion_07_k_monotonicity_trend(desk_data, trained_models,
                                           u_star_cache):
    test_set = desk_data["regression"]["test"]
    lines = []
    for name, make in [
        ("ours", lambda k: ours_method(trained_models[("regression", 0, k)])),
        ("rand", lambda k: rand_method(k, base_seed=0)),
    ]:
        e5, _ = _mean_error(make(5), test_set, u_star_cache)
        e20, _ = _mean_error(make(20), test_set, u_star_cache)
        assert e20 <= e5 + 0.02, (name, e5, e20)
        lines.append(f"{name}: K=5 err={e5:.4f} -> K=20 err={e20:.4f}")
    print("\nPASS criterion 7: " + "; ".join(lines))


def test_criterion_08_cross_dataset_diagonal(desk_data, trained_models,
                                             u_star_cache):
    families = list(DESK_SIZES)
    cell = {}
    for train_fam in families:
        for test_fam in families:
            errs = []
            for seed in SEEDS:
                params = trained_models[(train_fam, seed, DESK_K)]
                e, _ = _mean_error(ours_method(params),
                                   desk_data[test_fam]["test"], u_star_cache)
                errs.append(e)
            cell[(train_fam, test_fam)] = float(np.mean(errs))
    wins = 0
    for fam in families:
        diag = cell[(fam, fam)]
        others = [cell[(other, fam)] for other in families if other != fam]
        if diag <= min(others):
            wins += 1
    matrix = "; ".join(f"{tr}->{te}: {cell[(tr, te)]:.3f}"
                       for tr in families for te in families)
    assert wins >= 2, matrix
    print(f"\nPASS criterion 8: diagonal best in {wins}/3 cells. {matrix}")


def test_criterion_09_speedup_direction():
    # timing-only: an untrained generator exercises the same inference path
    instances = [gen_regression(n=500, m=50, seed=9000 + i) for i in range(5)]
    params = init_params(0, h=32, l=4, k=30, h_g=32)
    settings = SolverSettings()
    full_times, reduced_times = [], []
    for inst in instances:
        t0 = time.perf_counter()
        res_full = solve_qp(inst, settings)
        full_times.append(time.perf_counter() - t0)
        assert res_full.status is SolveStatus.SOLVED
        t0 = time.perf_counter()
        proj, _ = forward(params, inst, 30)
        red = project(inst, proj)
        res_red = solve_qp(red, settings)
        reduced_times.append(time.perf_counter() - t0)
        assert res_red.status is SolveStatus.SOLVED
    med_full = float(np.median(full_times))
    med_reduced = float(np.median(reduced_times))
    assert med_reduced < med_full
    print(f"\nPASS criterion 9: N=500 K=30 regression, median projected "
          f"total {med_reduced:.3f}s < median full {med_full:.3f}s "
          f"(speedup x{med_full/med_reduced:.1f})")


def test_criterion_10_equality_elimination_round_trip():
    worst_gap, worst_eq = 0.0, 0.0
    for i in range(50):
        n = int(np.random.default_rng(100 + i).integers(5, 31))
        eq, u0 = portfolio_eq_instance(n, seed=500 + i)
        doubled = eliminate_eq_doubling(eq)
        res_d = solve_qp(doubled)
        assert res_d.status is SolveStatus.SOLVED
        inst, rec = eliminate_eq_nullspace(eq, u0)
        res_n = solve_qp(inst)
        assert res_n.status is SolveStatus.SOLVED
        gap = abs(res_d.objective - (res_n.objective + rec.constant))
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-5
        u = rec.apply(res_n.y_star)
        eq_res = np.abs(eq.A_eq @ u - eq.b_eq).max()
        worst_eq = max(worst_eq, eq_res)
        assert eq_res <= 1e-6
    print(f"\nPASS criterion 10: 50 portfolio-style instances, max optimal-"
          f"value gap {worst_gap:.2e} (<=1e-5), max equality residual "
          f"{worst_eq:.2e} (<=1e-6)")


def test_criterion_11_theory_formulas(desk_data, trained_models):
    consts = AssumptionConstants(sigma_q=2.0, sigma_p=1.0, q0=1.0, c0=1.0,
                                 b=3.0, n=4, k=2)
    ym = y_max(consts)
    assert abs(ym - (1.0 + math.sqrt(13.0))) <= 1e-12 * ym
    c_prime, c_const = lipschitz_consts(consts)
    expected_prime = 8.0 * ym * ym + ym
    assert abs(c_prime - expected_prime) <= 1e-12 * expected_prime
    assert abs(c_const - math.sqrt(8.0) * expected_prime) <= 1e-12 * c_const
    bound = gen_bound(0.01, 0.05, 100, 1.0, 50.0, 10.0)
    expected = 0.1 + 2.0 + math.sqrt(2.0 * math.log(40.0) / 100.0)
    assert abs(bound - expected) <= 1e-12 * expected

    instances = [gen_regression(n=100, m=20, t=200, seed=7000 + i)
                 for i in range(50)]
    params = trained_models[("regression", 0, DESK_K)]
    report = validate_norm_bound(instances, params)
    assert len(report.rows) + report.skipped == 50
    assert report.violations == 0
    print(f"\nPASS criterion 11: formulas at 1e-12; norm bound holds on "
          f"{len(report.rows)}/50 regression instances (0 violations, "
          f"{report.skipped} skipped solves)")


def test_criterion_12_cli_determinism(tmp_path):
    """Two gen-data -> train -> eval runs write the same bytes. The
    guarantee holds per machine and BLAS thread count: under
    OPENBLAS_NUM_THREADS 1 and 2 the instance files and checkpoint.json are
    bitwise equal, but full-solve objectives, and so u* and the relative
    errors in records.csv, differ in their last one or two digits."""
    cfg = {
        "gen_data": {"family": "regression", "n": 12, "m": 3, "t": 24,
                     "train": 4, "val": 2, "test": 2, "base-seed": 0},
        "train": {"k": 3, "epochs": 2, "batch-size": 2, "hidden": 4,
                  "layers": 1, "head-hidden": 4, "record_timings": False},
        "eval": {"method": "rand", "k": 3, "timing-repeats": 0},
        "seed": 0,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))

    outputs = []
    for run in ("run1", "run2"):
        base = tmp_path / run
        cmds = [
            ["--config", str(cfg_path), "--out", str(base / "data"), "gen-data"],
            ["--seed", "0", "--config", str(cfg_path), "--out", str(base / "model"),
             "train", "--manifest", str(base / "data" / "manifest.json")],
            ["--seed", "0", "--config", str(cfg_path), "--out", str(base / "eval"),
             "eval", "--manifest", str(base / "data" / "manifest.json")],
        ]
        for cmd in cmds:
            proc = subprocess.run([sys.executable, "-m", "qproj.cli"] + cmd,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        outputs.append({
            "train_report": (base / "model" / "train_report.csv").read_bytes(),
            "records": (base / "eval" / "records.csv").read_bytes(),
            "checkpoint": (base / "model" / "checkpoint.json").read_bytes(),
            "manifest": (base / "data" / "manifest.json").read_bytes(),
        })
    for key in outputs[0]:
        assert outputs[0][key] == outputs[1][key], f"{key} differs between runs"
    print("\nPASS criterion 12: gen-data + train + eval reproduce "
          "bit-identical manifest, checkpoint, and CSV outputs across runs")
