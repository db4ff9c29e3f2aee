"""Command line entry point: ``python -m repro.battles``.

Runs a battle match (the full default suites, or the fixed ``--smoke`` grid
CI uses), prints the per-battle table, optionally persists frontier rounds
to the solution store, and checks the resulting frontiers against the
committed golden fixture — exiting non-zero when any algorithm's frontier
regressed.  ``--write-golden`` regenerates the fixture after a deliberate
behaviour change.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.algorithms import default_algorithm_suite
from repro.battles.match import (
    GOLDEN_FRONTIERS_PATH,
    compare_frontiers,
    load_frontiers,
    run_match,
    run_smoke_match,
    save_frontiers,
    SMOKE_SEED,
    SMOKE_TRIALS,
)
from repro.battles.escalators import default_escalator_suite
from repro.experiments.competitive_ratio import ENGINE_CHOICES
from repro.experiments.parallel import parse_workers


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.battles",
        description="Battle every algorithm against the escalating adversary "
        "constructions and check the empirical frontiers for regressions.",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the fixed small CI grid (randPr and greedy-weight vs the "
        "smoke escalators) and check it against the committed golden fixture",
    )
    parser.add_argument("--trials", type=int, default=SMOKE_TRIALS)
    parser.add_argument("--seed", type=int, default=SMOKE_SEED)
    parser.add_argument("--max-rounds", type=int, default=None)
    parser.add_argument("--workers", type=parse_workers, default=1, metavar="N|auto")
    parser.add_argument("--engine", choices=ENGINE_CHOICES, default="auto")
    parser.add_argument(
        "--store",
        default=None,
        help="solution-store file for frontier rounds (default: the OSP_STORE "
        "environment variable; pass 'off' to disable persistence)",
    )
    parser.add_argument(
        "--write-golden",
        nargs="?",
        const=GOLDEN_FRONTIERS_PATH,
        default=None,
        metavar="PATH",
        help="write the match's frontiers as the golden fixture "
        "(default path: the committed fixture) instead of checking",
    )
    parser.add_argument(
        "--check-golden",
        default=None,
        metavar="PATH",
        help="fixture to check against (default: the committed fixture when "
        "running --smoke, otherwise no check)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="also print the frontiers as JSON on stdout",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the CLI; returns the process exit code.

    ``0`` on success, ``1`` on a frontier regression.

    >>> main(["--smoke", "--max-rounds", "1", "--store", "off",
    ...       "--check-golden", "off"])    # doctest: +ELLIPSIS
    battle match
    algorithm  escalator  ...
    0
    """
    options = _build_parser().parse_args(list(argv) if argv is not None else None)
    store = False if options.store == "off" else options.store
    if options.smoke:
        result = run_smoke_match(
            workers=options.workers,
            store=store,
            engine=options.engine,
            max_rounds=options.max_rounds,
        )
    else:
        result = run_match(
            default_algorithm_suite(),
            default_escalator_suite(),
            trials=options.trials,
            seed=options.seed,
            max_rounds=options.max_rounds,
            engine=options.engine,
            workers=options.workers,
            store=store,
        )
    print(result.table())
    frontiers = result.frontiers
    if options.json:
        print(json.dumps([frontier.as_dict() for frontier in frontiers], indent=2))

    if options.write_golden is not None:
        config = {
            "smoke": options.smoke,
            "trials": options.trials if not options.smoke else SMOKE_TRIALS,
            "seed": options.seed if not options.smoke else SMOKE_SEED,
            "max_rounds": options.max_rounds,
        }
        save_frontiers(frontiers, options.write_golden, config=config)
        print(f"wrote golden fixture: {options.write_golden}")
        return 0

    fixture = options.check_golden
    if fixture is None and options.smoke:
        fixture = GOLDEN_FRONTIERS_PATH
    if fixture is not None and fixture != "off":
        regressions = compare_frontiers(frontiers, load_frontiers(fixture))
        if regressions:
            print(f"FRONTIER REGRESSIONS ({len(regressions)}):", file=sys.stderr)
            for line in regressions:
                print(f"  - {line}", file=sys.stderr)
            return 1
        print(f"frontier check passed against {fixture}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
