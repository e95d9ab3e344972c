"""Command-line entry points for the experiment runner.

Subcommands map to the stages of `runner.STAGE_TABLE`, each with the help
the table gives it; `full` runs everything.  Every command goes through
`runner.run_full`, which checks the config, saves it and writes the manifest,
with the traceback of any failed stage.  Config files are YAML documents
matching `config.ExperimentConfig` (see README for the schema); --seed and
--out override the file values, --fast switches to the reduced-cost variant.
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from . import config, runner


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gradsense",
                                description="desk-scale attribution valuation engine")
    sub = p.add_subparsers(dest="command", required=True)
    helps = {stage.name: stage.help for stage in runner.STAGE_TABLE}
    helps["full"] = "run every stage and write the manifest"
    for name, text in helps.items():
        sp = sub.add_parser(name, help=text, description=text)
        sp.add_argument("--config", help="YAML config path (defaults to built-in desk config)")
        sp.add_argument("--seed", type=int, help="override the master seed")
        sp.add_argument("--out", help="override the output directory")
        sp.add_argument("--fast", action="store_true",
                        help="coarse quadrature and reduced resamples/seeds")
        if name == "full":
            sp.add_argument("--stage-filter", nargs="+", metavar="STAGE",
                            choices=runner.STAGES, help="run only these stages")
    return p


def _resolve_config(args) -> config.ExperimentConfig:
    cfg = config.load_config(args.config) if args.config else config.ExperimentConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out_dir=args.out)
    if args.fast:
        cfg = config.fast_variant(cfg)
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
