"""Command line interface: analyze / validate / demo.

Exit codes: 0 all requested certificates pass, 1 a numerical certificate
failed (the failing certificate is embedded in report.json), 2 the config
violates the schema (the message names the offending field).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .errors import ConfigError, SpecfamError
from .report import canonical_json, run_analysis, validate_config

DEMO_CONFIGS = {
    "dirac_circle": {
        "family": {"kind": "dirac_circle", "dim": 41,
                   "params": {"alpha": [0.0, 1.0]}},
        "grid": {"start": -0.49, "end": 0.49, "points": 401},
        "seed": 0,
        "analyses": [
            {"kind": "flow", "params": {}},
            {"kind": "discrete-spectrum", "params": {"b_levels": [0.4, 1.4, 2.4]}},
            {"kind": "distances", "params": {}},
        ],
    },
    "harmonic_perturbed": {
        "family": {"kind": "harmonic_perturbed", "dim": 24,
                   "params": {"coupling": [0.0, 0.5]}},
        "grid": {"start": 0.0, "end": 1.0, "points": 101},
        "seed": 0,
        "analyses": [
            {"kind": "certify-adapted", "params": {"level": 1.0}},
            {"kind": "graph-continuity", "params": {"delta": 0.45, "x_index": 50}},
            {"kind": "distances", "params": {}},
        ],
    },
    "tangent_blowup": {
        "family": {"kind": "tangent_blowup", "dim": 5, "params": {}},
        "grid": {"start": 0.05, "end": 0.45, "points": 101},
        "seed": 0,
        "analyses": [
            {"kind": "discrete-spectrum", "params": {"b_levels": [0.5, 1.5]}},
            {"kind": "distances", "params": {}},
        ],
    },
    "linear_crossing": {
        "family": {"kind": "linear_crossing", "dim": 5, "params": {}},
        "grid": {"start": 0.0, "end": 1.0, "points": 101},
        "seed": 0,
        "analyses": [
            {"kind": "flow", "params": {}},
            {"kind": "certify-adapted",
             "params": {"level": 0.25, "lo_index": 45, "hi_index": 55}},
        ],
    },
    "random_crossings": {
        "family": {"kind": "random_crossings", "dim": 8, "params": {}},
        "grid": {"start": 0.0, "end": 1.0, "points": 151},
        "seed": 42,
        "analyses": [
            {"kind": "flow", "params": {}},
            {"kind": "distances", "params": {}},
        ],
    },
}


def _read_config(config_path):
    """The parsed config file; a file that is not UTF-8 JSON exits 2."""
    try:
        return json.loads(Path(config_path).read_text(encoding="utf-8"))
    # bytes that are not UTF-8, bad syntax, or arrays nested past the recursion limit
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        click.echo(f"config is not valid JSON: {exc}", err=True)
        sys.exit(2)


@click.group()
def main():
    """Spectral certificates and flow computations for operator families."""


@main.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--output-dir", type=click.Path(file_okay=False), default=None,
              help="Where to write report.json and the CSV tables.")
@click.option("--threads", type=int, default=1, show_default=True,
              help="Worker threads that decompose the grid's operators before the "
                   "analyses run. Only linear_crossing and dense matrix files reach "
                   "them undecomposed; every other family is decomposed while it is "
                   "sampled, so the threads have nothing to do.")
@click.option("--quiet", is_flag=True, help="Suppress per-analysis progress lines.")
def analyze(config_path, output_dir, threads, quiet):
    """Run every analysis in CONFIG_PATH and write the report bundle."""
    config = _read_config(config_path)
    try:
        bundle = run_analysis(config, output_dir=output_dir, threads=threads,
                              quiet=quiet)
    except ConfigError as exc:
        click.echo(str(exc), err=True)
        sys.exit(2)
    except SpecfamError as exc:
        click.echo(f"analysis failed: {exc}", err=True)
        sys.exit(1)
    if not quiet:
        click.echo(f"report written to {bundle.report_path}")
    sys.exit(0 if bundle.all_passed else 1)


@main.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
def validate(config_path):
    """Check CONFIG_PATH against the schema without running anything."""
    config = _read_config(config_path)
    try:
        validate_config(config)
    except ConfigError as exc:
        click.echo(str(exc), err=True)
        sys.exit(2)
    click.echo("config OK")
    sys.exit(0)


@main.command()
@click.argument("family_kind", type=click.Choice(sorted(DEMO_CONFIGS)))
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None,
              help="Config file to write (default <kind>-config.json).")
def demo(family_kind, output):
    """Write a ready-made config for one of the built-in families."""
    path = Path(output if output else f"{family_kind}-config.json")
    path.write_text(canonical_json(DEMO_CONFIGS[family_kind]) + "\n",
                    encoding="utf-8")
    click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
