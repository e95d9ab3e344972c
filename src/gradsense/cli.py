"""Command-line entry points for the experiment runner.

Subcommands map to pipeline stages; `full` runs everything.  Every command
goes through `runner.run_full`, which saves the config and writes the
manifest, with the traceback of any failed stage.  Config files are YAML
documents matching ExperimentConfig (see README for the schema); --seed and
--out override the file values, --fast switches to the reduced-cost variant.
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from . import runner

_STAGE_HELP = {
    "gen": "generate fields, climatology, stations and models",
    "fidelity": "attribution vs ablation fidelity tables",
    "methods": "method comparison, quadrature and baseline sensitivity",
    "calibrate": "decile calibration, Gini ratios, overpayment",
    "select": "sensor selection strategies across budgets",
    "pay": "payments, stability intervals, shrinkage fits",
    "subadditivity": "joint-ablation ratios of the nearest station sets",
    "game": "adversarial scenario campaign",
    "detect": "detector evaluation over gaming outcomes",
    "converge": "cycle-vs-aggregate recovery and convergence",
    "report": "markdown summary over existing results",
    "full": "run every stage and write the manifest",
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gradsense",
                                description="desk-scale attribution valuation engine")
    sub = p.add_subparsers(dest="command", required=True)
    for name in runner.STAGES + ("full",):
        sp = sub.add_parser(name, help=_STAGE_HELP[name])
        sp.add_argument("--config", help="YAML config path (defaults to built-in desk config)")
        sp.add_argument("--seed", type=int, help="override the master seed")
        sp.add_argument("--out", help="override the output directory")
        sp.add_argument("--fast", action="store_true",
                        help="coarse quadrature and reduced resamples/seeds")
        if name == "full":
            sp.add_argument("--stage-filter", nargs="+", metavar="STAGE",
                            choices=runner.STAGES, help="run only these stages")
    return p


def _resolve_config(args) -> runner.ExperimentConfig:
    cfg = runner.load_config(args.config) if args.config else runner.ExperimentConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    if args.fast:
        cfg = runner.fast_variant(cfg)
    cfg.validate()
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = _resolve_config(args)
    if args.command == "full":
        stages = tuple(args.stage_filter) if args.stage_filter else None
    else:
        stages = (args.command,)
    manifest = runner.run_full(cfg, stage_filter=stages)
    for name in runner.STAGES:
        print(f"{name}: {manifest['stages'][name]}")
    return 0 if manifest["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
