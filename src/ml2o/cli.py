"""Command-line entry points: meta-train, compare, sweep, verify, interpolate.

Exit codes are a stable contract for scripting:

    0  success
    2  configuration problems (missing file, unknown key, bad value)
    3  training/adaptation divergence
    4  verification failure

Every command echoes the fully resolved configuration into the output
directory before doing any work, and never writes outside that directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .cell import (
    CheckpointError,
    load_checkpoint,
    random_params,
    save_checkpoint,
)
from .config import ConfigError, ExperimentConfig, load_config
from .harness import (
    TrainingCache,
    adapt_sweep,
    blend_params,
    compare_methods,
    confidence_interval,
    interpolate_eval,
)
from .numeric import RngStream, central_diff
from .tasks import NORMAL, QUADRATIC, OptimizeeTask, sample_task
from .theory import default_growth_report, measure_gaps
from .train import DivergenceError, train_ml2o, train_plain_l2o
from .unroll import jacobian_recursive, meta_grad, unroll

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_VERIFY = 4


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",") if p.strip())


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    cfg.echo(args.out)
    return cfg


def cmd_meta_train(args) -> int:
    cfg = _load(args)
    if args.method == "plain" and ("meta", "alpha") in cfg.explicit:
        print(
            "warning: [meta] alpha is ignored by plain training", file=sys.stderr
        )
    trainer = train_ml2o if args.method == "ml2o" else train_plain_l2o
    ckpt_path = os.path.join(args.out, f"checkpoint_{args.method}.ckpt")
    try:
        params, log = trainer(cfg.meta, cfg.dist_train)
    except DivergenceError as exc:
        last_path = os.path.join(args.out, "checkpoint_last_good.ckpt")
        save_checkpoint(
            exc.last_params, last_path, metadata=f"diverged-at-epoch={exc.epoch}"
        )
        print(f"error: {exc}; wrote {last_path}", file=sys.stderr)
        return EXIT_DIVERGED
    save_checkpoint(
        params,
        ckpt_path,
        metadata=f"method={args.method} seed={cfg.meta.seed} epochs={cfg.meta.epochs}",
    )
    log.checkpoints.append(ckpt_path)
    log.write_csv(os.path.join(args.out, "trainlog.csv"))
    print(f"wrote {ckpt_path}")
    print(f"final meta-loss: {log.meta_losses[-1]:.6g}")
    return EXIT_OK


def _report_diverged(table) -> None:
    """One warning per cell with diverged runs, with the first divergence's reason."""
    reasons = {}
    for r in table.records:
        if r.reason:
            reasons.setdefault((r.method, r.key), r.reason)
    for c in table.cells:
        if c.n_diverged > 0:
            reason = reasons.get((c.method, c.key))
            print(
                f"warning: method={c.method} key={c.key}: {c.n_diverged} diverged run(s)"
                + (f"; first: {reason}" if reason else ""),
                file=sys.stderr,
            )


def cmd_compare(args) -> int:
    cfg = _load(args)
    sigmas = _parse_floats(args.sigmas) if args.sigmas else cfg.sigmas
    sigma_list = sigmas if cfg.dist_test.kind == NORMAL else None
    cache = TrainingCache(args.cache_dir)
    table = compare_methods(
        cfg.meta,
        cfg.dist_train,
        cfg.dist_adapt,
        cfg.dist_test,
        sigma_list=sigma_list,
        n_seeds=args.n_seeds or cfg.n_seeds,
        horizon=cfg.horizon,
        n_tasks=cfg.n_tasks,
        adapt_alpha=cfg.adapt_alpha,
        fresh_per_step=cfg.adapt_fresh_per_step,
        cache=cache,
        jobs=args.jobs or cfg.jobs,
    )
    table.write_records_csv(os.path.join(args.out, "comparison.csv"))
    table.write_json(os.path.join(args.out, "comparison.json"))
    table.write_curves(os.path.join(args.out, "curves"))
    _report_diverged(table)
    for cell in table.cells:
        print(
            f"{cell.method:8s} key={cell.key:>12s} mean={cell.mean:9.4f} "
            f"+-{cell.half_width:7.4f} (n={cell.n})"
        )
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load(args)
    adapt_sigmas = (
        _parse_floats(args.adapt_sigmas) if args.adapt_sigmas else cfg.adapt_sigmas
    )
    test_sigma = args.test_sigma if args.test_sigma is not None else cfg.test_sigma
    cache = TrainingCache(args.cache_dir)
    table = adapt_sweep(
        cfg.meta,
        cfg.dist_train,
        cfg.dist_adapt,
        cfg.dist_test,
        adapt_sigmas=adapt_sigmas,
        test_sigma=test_sigma,
        n_seeds=args.n_seeds or cfg.n_seeds,
        horizon=cfg.horizon,
        n_tasks=cfg.n_tasks,
        adapt_alpha=cfg.adapt_alpha,
        fresh_per_step=cfg.adapt_fresh_per_step,
        cache=cache,
        jobs=args.jobs or cfg.jobs,
    )
    table.write_records_csv(os.path.join(args.out, "sweep.csv"))
    table.write_json(os.path.join(args.out, "sweep.json"))
    table.write_curves(os.path.join(args.out, "curves"))
    _report_diverged(table)
    for cell in table.cells:
        print(
            f"{cell.method:8s} adapt_sigma={cell.key:>8s} mean={cell.mean:9.4f} "
            f"+-{cell.half_width:7.4f} (n={cell.n})"
        )
    return EXIT_OK


def _rel_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))


def _grad_error(params, task, theta0, horizon) -> float:
    """Reverse-mode meta-gradient against central differences of the unrolled loss."""
    fd = central_diff(
        lambda flat: unroll(params.with_flat(flat), task, theta0, horizon).final_loss,
        params.to_flat(),
        1e-5,
    )
    return _rel_error(meta_grad(params, task, theta0, horizon), fd)


def _jacobian_error(params, task, theta0, horizon) -> float:
    """Forward-recursion Jacobian, chained with the final task gradient, against reverse mode."""
    jac = jacobian_recursive(params, task, theta0, horizon)
    res = unroll(params, task, theta0, horizon)
    chained = jac.T @ task.grad(res.theta_final)
    return _rel_error(chained, meta_grad(params, task, theta0, horizon))


# suite -> ((dim, horizon, hidden), tolerance, error of one case)
_WORST_CASE_SUITES = {
    "grad": ((3, 5, 4), 1e-4, _grad_error),
    "jacobian": ((2, 3, 3), 1e-8, _jacobian_error),
}


def _verify_worst_case(cfg: ExperimentConfig, out_dir: str, suite: str) -> int:
    """Run 20 random quadratic cases; fail if the worst error exceeds the tolerance.

    On failure the worst case is written to worst_case.json so it can be replayed.
    """
    (d, horizon, hidden), tol, error_of = _WORST_CASE_SUITES[suite]
    rng = RngStream(cfg.meta.seed).child(f"verify-{suite}")
    worst = (0.0, None)
    for i in range(20):
        a = rng.gen.normal(size=(d, d))
        b = rng.gen.normal(size=d)
        task = OptimizeeTask(kind=QUADRATIC, dim=d, a=a, b=b)
        params = random_params(hidden, 2, rng.child(f"params/{i}"))
        theta0 = rng.gen.normal(size=d)
        rel = error_of(params, task, theta0, horizon)
        if rel > worst[0]:
            worst = (rel, (task, theta0, params))
    ok = worst[0] <= tol
    print(f"{'PASS' if ok else 'FAIL'} {suite}: max rel error {worst[0]:.3e} (tol {tol:g})")
    if ok:
        return EXIT_OK
    task, theta0, params = worst[1]
    with open(os.path.join(out_dir, "worst_case.json"), "w") as fh:
        json.dump(
            {
                "suite": suite,
                "rel_error": worst[0],
                "task": json.loads(task.to_json()),
                "theta0": theta0.tolist(),
                "params_flat": params.to_flat().tolist(),
                "hidden": params.hidden,
                "feature_dim": params.feature_dim,
                "horizon": horizon,
            },
            fh,
            indent=2,
        )
    return EXIT_VERIFY


def _verify_gaps(cfg: ExperimentConfig, out_dir: str) -> int:
    seed = cfg.meta.seed
    d1, d2 = cfg.dist_adapt, cfg.dist_test
    if d1.dim != d2.dim:
        raise ConfigError(
            f"gaps suite needs matching dimensions, got {d1.dim} and {d2.dim}"
        )
    # Streams are keyed by the distribution label, so identical adapt/test
    # sources yield the identical task and hence exactly zero gaps.
    task1 = sample_task(d1, RngStream(seed).child(f"gaps/{d1.label()}"))
    task2 = sample_task(d2, RngStream(seed).child(f"gaps/{d2.label()}"))
    report = measure_gaps(
        task1,
        task2,
        probe_radius=2.0 * float(np.sqrt(d1.dim)),
        n_probes=200,
        rng=RngStream(seed).child("gaps-probes"),
    )
    path = os.path.join(out_dir, "gaps.json")
    with open(path, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"gaps: grad_gap={report.grad_gap:.6g} hess_gap={report.hess_gap:.6g} "
        f"(radius {report.probe_radius:g}, {report.n_probes} probes) -> {path}"
    )
    return EXIT_OK


def _verify_growth(cfg: ExperimentConfig, out_dir: str) -> int:
    report = default_growth_report(cfg.meta.seed)
    report.write_csv(os.path.join(out_dir, "growth.csv"))
    with open(os.path.join(out_dir, "growth.json"), "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        "growth: horizons "
        + ",".join(str(t) for t in report.horizons)
        + f"; nondecreasing pairs: {report.nondecreasing_fraction:.0%}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load(args)
    if args.suite in _WORST_CASE_SUITES:
        return _verify_worst_case(cfg, args.out, args.suite)
    suite = {"gaps": _verify_gaps, "growth": _verify_growth}[args.suite]
    return suite(cfg, args.out)


def cmd_interpolate(args) -> int:
    cfg = _load(args)
    w1 = load_checkpoint(args.w1)
    w2 = load_checkpoint(args.w2)
    blend_params(w1, w2, 0.5)  # shape check up front
    alphas = _parse_floats(args.alphas) if args.alphas else cfg.interp_alphas
    by_alpha = interpolate_eval(
        w1,
        w2,
        alphas,
        cfg.dist_test,
        cfg.horizon,
        n_seeds=args.n_seeds or cfg.n_seeds,
        root_seed=cfg.meta.seed,
        n_tasks=cfg.n_tasks,
    )
    curve_dir = os.path.join(args.out, "curves")
    os.makedirs(curve_dir, exist_ok=True)
    summary = []
    for key in sorted(by_alpha, key=float):
        records = by_alpha[key]
        values = [r.min_log_loss for r in records]
        mean, half = confidence_interval(values) if len(values) >= 2 else (values[0], 0.0)
        summary.append(
            {
                "alpha": float(key),
                "mean_min_log_loss": mean,
                "half_width": half,
                "n": len(values),
                "params_digest": records[0].params_digest,
            }
        )
        for r in records:
            name = f"curve_alpha{key}_seed{r.seed}_task{r.task_index}.csv"
            with open(os.path.join(curve_dir, name), "w") as fh:
                fh.write("step,loss\n")
                for t, loss in enumerate(r.losses):
                    fh.write(f"{t},{loss:.17g}\n")
        print(f"alpha={key:>6s} mean={mean:9.4f} +-{half:7.4f} (n={len(values)})")
    with open(os.path.join(args.out, "interpolation.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ml2o",
        description="Train, adapt and evaluate coordinate-wise learned optimizers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("meta-train", help="train an optimizer and save a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--method", choices=("ml2o", "plain"), default="ml2o")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_meta_train)

    p = sub.add_parser("compare", help="four-method comparison across sigmas")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sigmas", default=None, help="comma-separated, e.g. 10,25,50,100,200")
    p.add_argument("--n-seeds", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--cache-dir", default=None, help="reuse trained checkpoints across runs")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="vary the adaptation sigma at a fixed test sigma")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--adapt-sigmas", default=None)
    p.add_argument("--test-sigma", type=float, default=None)
    p.add_argument("--n-seeds", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="numerical checks of gradients and diagnostics")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--suite", choices=("grad", "jacobian", "gaps", "growth"), required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("interpolate", help="evaluate linear blends of two checkpoints")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--w1", required=True)
    p.add_argument("--w2", required=True)
    p.add_argument("--alphas", default=None)
    p.add_argument("--n-seeds", type=int, default=None)
    p.set_defaults(func=cmd_interpolate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


def entry() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entry()
