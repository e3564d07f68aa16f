"""Everything a command does before its first path is stepped, then exit.

The benchmark times this script from spawn to exit as setup_s:
interpreter start, import harnack_lab, config parse, and the system,
grid, segment and schedule construction.

    PYTHONPATH=src python3 perfbench/setup_probe.py exp.ini
"""

import sys

from harnack_lab import cli, coupling


def main(path: str) -> int:
    with open(path) as fh:
        cfg = cli.parse_config(fh.read())
    coeffs = cli.config_coeffs(cfg)
    cli.config_grid(cfg)
    cli.config_segment(cfg, cfg.xi)
    cli.config_segment(cfg, cfg.eta)
    if cfg.t0 is not None:
        coupling.GammaSchedule(theta=cfg.theta, k4=coeffs.constants.k4, t0=cfg.t0)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
