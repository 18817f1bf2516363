"""Command-line entry points: meta-train, compare, sweep, verify, interpolate.

Exit codes are a stable contract for scripting:

    0  success
    2  configuration problems (missing file, unknown key, bad value), and a
       result file that cannot be written
    3  training/adaptation divergence
    4  verification failure

Every command echoes the fully resolved configuration into the output
directory before doing any work, and never writes outside that directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from .cell import (
    FEATURE_DIM,
    CheckpointError,
    ParamStack,
    load_checkpoint,
    random_params,
    save_checkpoint,
)
from .config import ConfigError, ExperimentConfig, load_config, parse_float_list
from .harness import adapt_sweep, compare_methods, interpolate_eval, write_json
from .numeric import RngStream, central_diff, numeric_environment
from .store import TrainingCache
from .tasks import NORMAL, QUADRATIC, TaskDistribution, sample_task, sample_theta0
from .train import ML2O, PLAIN, DivergenceError, train_ml2o, train_plain_l2o, training_fields
from .unroll import jacobian_recursive, meta_grad, unroll

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_VERIFY = 4


# flag -> ([eval] key, also the ExperimentConfig field, parser); lists parse after the echo
_OVERRIDES = {
    "n_seeds": ("n_seeds", int),
    "jobs": ("jobs", int),
    "test_sigma": ("test_sigma", float),
    "sigmas": ("sigmas", parse_float_list),
    "adapt_sigmas": ("adapt_sigmas", parse_float_list),
    "alphas": ("interp_alphas", parse_float_list),
}


def _load(args) -> ExperimentConfig:
    """The config file with each flag the command was given applied, echoed into --out."""
    cfg = load_config(args.config)
    given = {
        name: (parse, getattr(args, flag))
        for flag, (name, parse) in _OVERRIDES.items()
        if getattr(args, flag, None) is not None
    }
    cfg.raw["eval"].update({name: str(value) for name, (_, value) in given.items()})
    try:
        cfg.echo(args.out)
    except OSError as exc:
        raise ConfigError(f"cannot write to --out {args.out}: {exc}") from exc
    if "sigmas" in given and cfg.dist_test.kind != NORMAL:
        raise ConfigError(
            f"--sigmas needs a normal test distribution, got [test] dist = {cfg.dist_test.kind}"
        )
    return replace(cfg, **{name: parse(value) for name, (parse, value) in given.items()})


def cmd_meta_train(args) -> int:
    cfg = _load(args)
    meta_adaptive = args.method == ML2O
    # the [meta] keys that this run's training does not read
    unread = vars(cfg.meta).keys() - training_fields(cfg.meta, meta_adaptive).keys()
    under = f" under grad_mode = {cfg.meta.grad_mode}" if meta_adaptive else ""
    for key in sorted(unread):
        if ("meta", key) in cfg.explicit:
            print(f"warning: [meta] {key} is ignored by {args.method} training{under}",
                  file=sys.stderr)
    trainer = train_ml2o if meta_adaptive else train_plain_l2o
    ckpt_path = os.path.join(args.out, f"checkpoint_{args.method}.ckpt")
    try:
        params, log = trainer(cfg.meta, cfg.dist_train)
    except DivergenceError as exc:
        last_path = os.path.join(args.out, "checkpoint_last_good.ckpt")
        save_checkpoint(
            exc.last_params,
            last_path,
            metadata=f"diverged-at-epoch={exc.epoch} {numeric_environment()}",
        )
        print(f"error: {exc}; wrote {last_path}", file=sys.stderr)
        return EXIT_DIVERGED
    save_checkpoint(
        params,
        ckpt_path,
        metadata=(
            f"method={args.method} seed={cfg.meta.seed} epochs={cfg.meta.epochs} "
            f"{numeric_environment()}"
        ),
    )
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


def _run_table(args, table_fn, stem: str, label: str, width: int) -> int:
    """Run `table_fn(cfg, cache)`, write `<stem>.csv`, `<stem>.json` and curves, print the cells."""
    cfg = _load(args)
    try:
        cache = TrainingCache(args.cache_dir)
    except OSError as exc:
        raise ConfigError(f"cannot use --cache-dir {args.cache_dir}: {exc}") from exc
    table = table_fn(cfg, cache)
    table.write_records_csv(os.path.join(args.out, f"{stem}.csv"))
    table.write_json(os.path.join(args.out, f"{stem}.json"))
    table.write_curves(os.path.join(args.out, "curves"))
    _report_diverged(table)
    for cell in table.cells:
        print(
            f"{cell.method:8s} {label}={cell.key:>{width}s} mean={cell.mean:9.4f} "
            f"+-{cell.half_width:7.4f} (n={cell.n})"
        )
    return EXIT_OK


def cmd_compare(args) -> int:
    return _run_table(args, compare_methods, "comparison", "key", 12)


def cmd_sweep(args) -> int:
    return _run_table(args, adapt_sweep, "sweep", "adapt_sigma", 8)


def _rel_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))


def _grad_error(params, task, theta0, horizon) -> float:
    """Reverse-mode meta-gradient against central differences of the unrolled loss."""
    fd = central_diff(
        lambda flat: unroll(ParamStack(flat, params.hidden), task, theta0, horizon).final_loss,
        params.flat,
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


def _is_worse(err: float, than: float) -> bool:
    """Whether error `err` is worse than `than`: larger, with NaN worse than any number."""
    return not math.isnan(than) and (math.isnan(err) or err > than)


def _worst_case(suite: str, rng: RngStream, label: str) -> tuple[float, tuple]:
    """The worst error of `suite` over 20 cases from `rng`, and its case.

    Each case draws a task of `quadratic-normal(sigma=1)` and then its start
    from `rng`, and case i draws its weights from `rng.child(f"{label}/{i}")`;
    the case is (task, theta0, params).  A NaN error counts as the worst, so
    that it fails the suite.
    """
    (d, horizon, hidden), _, error_of = _WORST_CASE_SUITES[suite]
    dist = TaskDistribution(kind=NORMAL, family=QUADRATIC, dim=d, sigma=1.0)
    worst, case = -math.inf, None
    for i in range(20):
        task = sample_task(dist, rng)
        params = random_params(hidden, rng.child(f"{label}/{i}"))
        theta0 = sample_theta0(dist, rng)
        rel = error_of(params, task, theta0, horizon)
        if _is_worse(rel, worst):
            worst, case = rel, (task, theta0, params)
    return worst, case


def _verify_worst_case(cfg: ExperimentConfig, out_dir: str, suite: str) -> int:
    """Fail if the worst error over the suite's cases exceeds its tolerance.

    On failure the worst case is written to worst_case.json so it can be replayed.
    """
    (_, horizon, _), tol, _ = _WORST_CASE_SUITES[suite]
    rel, (task, theta0, params) = _worst_case(
        suite, RngStream(cfg.meta.seed).child(f"verify-{suite}"), "params"
    )
    ok = rel <= tol
    print(f"{'PASS' if ok else 'FAIL'} {suite}: max rel error {rel:.3e} (tol {tol:g})")
    if ok:
        return EXIT_OK
    write_json(
        os.path.join(out_dir, "worst_case.json"),
        {
            "suite": suite,
            "rel_error": rel,
            "task": json.loads(task.to_json()),
            "theta0": theta0.tolist(),
            "params_flat": params.flat[0].tolist(),
            "hidden": params.hidden,
            "feature_dim": FEATURE_DIM,
            "horizon": horizon,
        },
    )
    return EXIT_VERIFY


def _verify_gaps(cfg: ExperimentConfig, out_dir: str) -> int:
    from .theory import measure_gaps  # only `verify` reads ml2o.theory

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
    write_json(path, asdict(report))
    print(
        f"gaps: grad_gap={report.grad_gap:.6g} hess_gap={report.hess_gap:.6g} "
        f"(radius {report.probe_radius:g}, {report.n_probes} probes) -> {path}"
    )
    return EXIT_OK


def _verify_growth(cfg: ExperimentConfig, out_dir: str) -> int:
    from .theory import default_growth_report  # only `verify` reads ml2o.theory

    report = default_growth_report(cfg.meta.seed)
    report.write_csv(os.path.join(out_dir, "growth.csv"))
    write_json(os.path.join(out_dir, "growth.json"), report.to_json_dict())
    print(
        "growth: horizons "
        + ",".join(str(t) for t in report.horizons)
        + f"; nondecreasing pairs: {report.nondecreasing_fraction:.0%}"
    )
    return EXIT_OK


# suite -> the report it writes; the other suites are `_WORST_CASE_SUITES`
_REPORT_SUITES = {"gaps": _verify_gaps, "growth": _verify_growth}


def cmd_verify(args) -> int:
    cfg = _load(args)
    if args.suite in _REPORT_SUITES:
        return _REPORT_SUITES[args.suite](cfg, args.out)
    return _verify_worst_case(cfg, args.out, args.suite)


def cmd_interpolate(args) -> int:
    cfg = _load(args)
    table = interpolate_eval(cfg, load_checkpoint(args.w1), load_checkpoint(args.w2))
    table.write_curves(
        os.path.join(args.out, "curves"),
        name=lambda r: f"curve_alpha{r.key}_seed{r.seed}_task{r.task_index}.csv",
    )
    digests = {r.key: r.params_digest for r in table.records}
    summary = []  # the statistic of `compare` and `sweep`: per-seed means over the tasks
    for cell in sorted(table.cells, key=lambda c: float(c.key)):
        summary.append({
            "alpha": float(cell.key), "mean_min_log_loss": cell.mean,
            "half_width": cell.half_width, "n": cell.n, "params_digest": digests[cell.key],
        })
        print(f"alpha={cell.key:>6s} mean={cell.mean:9.4f} +-{cell.half_width:7.4f} (n={cell.n})")
    write_json(os.path.join(args.out, "interpolation.json"), summary)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ml2o",
        description="Train, adapt and evaluate coordinate-wise learned optimizers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--config", required=True)
    io.add_argument("--out", required=True)
    cached = argparse.ArgumentParser(add_help=False, parents=[io])
    cached.add_argument("--cache-dir",
                        help="reuse trained and adapted weights and evaluated curves across runs")

    def command(name, func, help, parent=io, overrides=()):
        """Subcommand `name` with `parent`'s flags and each `_OVERRIDES` flag in `overrides`;
        a list flag stays text until `_load` has echoed it."""
        p = sub.add_parser(name, help=help, parents=[parent])
        p.set_defaults(func=func)
        for flag in overrides:
            parse = _OVERRIDES[flag][1]
            p.add_argument("--" + flag.replace("_", "-"),
                           type=parse if parse in (int, float) else None,
                           help={"sigmas": "comma-separated, e.g. 10,25,50,100,200"}.get(flag))
        return p

    p = command("meta-train", cmd_meta_train, "train an optimizer and save a checkpoint")
    p.add_argument("--method", choices=(ML2O, PLAIN), default=ML2O)
    command("compare", cmd_compare, "four-method comparison across sigmas", cached,
            ("sigmas", "n_seeds", "jobs"))
    command("sweep", cmd_sweep, "vary the adaptation sigma at a fixed test sigma", cached,
            ("adapt_sigmas", "test_sigma", "n_seeds", "jobs"))
    p = command("verify", cmd_verify, "numerical checks of gradients and diagnostics")
    p.add_argument("--suite", choices=(*_WORST_CASE_SUITES, *_REPORT_SUITES), required=True)
    p = command("interpolate", cmd_interpolate, "evaluate linear blends of two checkpoints",
                overrides=("alphas", "n_seeds"))
    p.add_argument("--w1", required=True)
    p.add_argument("--w2", required=True)
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
    except OSError as exc:  # every read turns its OSError into one of the errors above
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    """Console-script shim: run `main`, then exit with its code.

    Interpreter shutdown runs full collections over the tens of thousands of
    objects that importing numpy created; frozen objects are skipped.
    Freezing after `main` returns keeps the collector's default behaviour for
    the command itself and for every caller of `main`, and exits normally:
    atexit handlers and stream flushes run.
    """
    rc = main()
    gc.freeze()
    sys.exit(rc)


if __name__ == "__main__":
    entry()
