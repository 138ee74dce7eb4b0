"""Command-line front end.

    mmfuse simulate --table {2|3|4} [--seed N] [--trials N]
    mmfuse calibrate [--op NAME] [--signal]
    mmfuse serve [--port N]
    mmfuse repl
    mmfuse report --out DIR [--seed N]

Configuration comes from --config, the MMFUSE_CONFIG environment variable,
or built-in defaults; the serve port additionally honors MMFUSE_PORT.  Exit
code 0 on success, 2 on any validation failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from . import harness
from .config import AppConfig, ConfigError, PORT_ENV_VAR, resolve_config
from .emg import CalibrationError, calibrate_noise
from .fusion import InfeasibleTargetError
from .report import emit_chart, emit_report
from .seeding import make_rng
from .vocab import (
    FUSION_OPERATIONS,
    GESTURES,
    operation_for_command,
    parse_command_name,
)


class _CliError(Exception):
    """Validation failure to report on stderr with exit code 2."""


def _positive(value: int, what: str) -> int:
    if value <= 0:
        raise _CliError(f"{what} must be positive, got {value}")
    return value


def _print_modality_table(table: harness.ModalityTable, out) -> None:
    label = "gesture" if table.modality is harness.Modality.EMG else "command"
    width = max(len(label), max(len(r.item.value) for r in table.rows))
    print(f"{label:<{width}}  error %  correct %", file=out)
    for r in table.rows:
        print(
            f"{r.item.value:<{width}}  {r.error_pct:>7.1f}  {r.correct_pct:>9.1f}",
            file=out,
        )
    acc = harness.mean_accuracy(table.correct_percentages())
    print(f"mean accuracy: {acc:.2f}%", file=out)


def _cmd_simulate(args, cfg: AppConfig, out) -> int:
    seed = cfg.seed if args.seed is None else args.seed
    if args.table in (2, 3):
        trials = 1000 if args.trials is None else _positive(args.trials, "--trials")
        reps = 10 if trials >= 10 else 1
        if trials % reps:
            raise _CliError(f"--trials must be a multiple of {reps} for table {args.table}")
        modality = harness.Modality.EMG if args.table == 2 else harness.Modality.SPEECH
        table = harness.run_modality_experiment(
            modality,
            reps=reps,
            per_rep=trials // reps,
            seed=seed,
            gesture_model=cfg.gesture_model,
            speech_model=cfg.recognition_model,
        )
        print(f"table {args.table}: {trials} trials per item, seed {seed}", file=out)
        _print_modality_table(table, out)
        return 0

    trials = 200 if args.trials is None else _positive(args.trials, "--trials")
    blocks = 4
    if trials % blocks or trials < 2 * blocks:
        raise _CliError(f"--trials must be a multiple of {blocks} (and at least 8)")
    fusion_cfg = cfg.fusion_config()
    models = cfg.models()
    print(f"table 4: {trials} episodes per operation, seed {seed}", file=out)
    width = max(len(op.label) for op in FUSION_OPERATIONS)
    print(
        f"{'operation':<{width}}  blocks{'':<9} error %  variance", file=out
    )
    stats = []
    for op in FUSION_OPERATIONS:
        bs = harness.run_fusion_experiment(
            op,
            blocks=blocks,
            block_size=trials // blocks,
            cfg=fusion_cfg,
            seed=seed,
            models=models,
        )
        stats.append(bs)
        counts = " ".join(f"{c:>3d}" for c in bs.block_errors)
        print(
            f"{op.label:<{width}}  {counts}  {bs.error_pct:>7.1f}  {bs.variance:>8.2f}",
            file=out,
        )
    print(
        f"average fused error: {harness.fused_error_summary(stats):.1f}%", file=out
    )
    return 0


def _cmd_calibrate(args, cfg: AppConfig, out) -> int:
    if args.op is not None:
        try:
            ops = [operation_for_command(parse_command_name(args.op))]
        except ValueError as e:
            raise _CliError(str(e)) from e
    else:
        ops = list(FUSION_OPERATIONS)

    models = cfg.models()
    width = max(len(op.label) for op in ops)
    print(f"{'operation':<{width}}  g      s      target  d", file=out)
    for op in ops:
        g, s, target = harness.operation_rates(op, models)
        cal = harness.calibrate_operation(op, models)
        print(
            f"{op.label:<{width}}  {g:.3f}  {s:.3f}  {target:.3f}   "
            f"{cal.d:.6f} ({cal.status.value})",
            file=out,
        )

    if args.signal:
        seed = cfg.seed if args.seed is None else args.seed
        print(file=out)
        print("signal-layer noise calibration (seeded bisection):", file=out)
        gw = max(len(g.value) for g in GESTURES)
        for idx, g in enumerate(GESTURES):
            target = cfg.gesture_model.error_rate(g)
            try:
                cal = calibrate_noise(
                    g, target, make_rng(seed + idx), trials_per_eval=20000
                )
            except CalibrationError as e:
                raise _CliError(f"{g.value}: {e}") from e
            print(
                f"{g.value:<{gw}}  target {target:.3f}  sigma {cal.sigma:.4f}  "
                f"achieved {cal.achieved_error:.4f}",
                file=out,
            )
    return 0


def _cmd_serve(args, cfg: AppConfig, out) -> int:
    port = args.port
    if port is None:
        env_port = os.environ.get(PORT_ENV_VAR)
        if env_port is not None:
            try:
                port = int(env_port)
            except ValueError as e:
                raise _CliError(f"{PORT_ENV_VAR} must be an integer") from e
        else:
            port = cfg.port
    if not 1 <= port <= 65535:
        raise _CliError(f"port out of range: {port}")
    from .server import serve

    fusion_cfg = cfg.fusion_config()
    print(f"fusion server listening on {args.host}:{port}", file=out)
    try:
        serve(port=port, host=args.host, cfg=fusion_cfg)
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    return 0


def _cmd_repl(args, cfg: AppConfig, out) -> int:
    from .repl import run_repl

    return run_repl(cfg=cfg.fusion_config())


def _cmd_report(args, cfg: AppConfig, out) -> int:
    seed = cfg.seed if args.seed is None else args.seed
    results = harness.run_reference_experiments(
        seed=seed, cfg=cfg.fusion_config(), models=cfg.models()
    )
    paths = emit_report(results, args.out)
    chart = emit_chart(results.fusion, os.path.join(args.out, "figure4_fused.svg"))
    for p in list(paths) + [chart]:
        print(p, file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmfuse",
        description="Simulated gesture+speech fusion bench for a 5-servo arm.",
    )
    parser.add_argument("--config", help="YAML config path (or MMFUSE_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="reproduce a reference table")
    sim.add_argument("--table", type=int, choices=(2, 3, 4), required=True)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--trials", type=int, default=None)
    sim.set_defaults(func=_cmd_simulate)

    cal = sub.add_parser("calibrate", help="show calibrated detection probabilities")
    cal.add_argument("--op", help="one operation by its spoken command name")
    cal.add_argument(
        "--signal", action="store_true", help="also calibrate signal-layer noise"
    )
    cal.add_argument("--seed", type=int, default=None)
    cal.set_defaults(func=_cmd_calibrate)

    srv = sub.add_parser("serve", help="run the fusion server")
    srv.add_argument("--port", type=int, default=None)
    srv.add_argument("--host", default="127.0.0.1")
    srv.set_defaults(func=_cmd_serve)

    rep = sub.add_parser("repl", help="interactive episode driver")
    rep.set_defaults(func=_cmd_repl)

    rpt = sub.add_parser("report", help="run the bench and write report files")
    rpt.add_argument("--out", required=True)
    rpt.add_argument("--seed", type=int, default=None)
    rpt.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args.config)
        return args.func(args, cfg, sys.stdout)
    except (ConfigError, InfeasibleTargetError, _CliError) as e:
        print(f"mmfuse: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
