"""Command-line interface.

Verbs:
  poisson-deconv run <config>        run an experiment (config file or preset name)
  poisson-deconv kernels dump        write the stock blur kernels as matrix text
  poisson-deconv dict info <atoms>   describe a patch-atom file

`run` reads a flat key=value config (or takes a preset name directly) and
accepts command-line overrides for the common knobs. All outputs land
under --out-dir with fixed names: metrics.csv, trace_<solver>.csv, and
recon_<solver>_<trial>.pgm when --dump-trials is set.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import io
from .experiments import PRESETS, build_config, parse_config_text, run_experiment
from .operators import gaussian_kernel_1d, inverse_quadratic_kernel


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poisson-deconv",
        description="Deconvolution of Poisson-noisy images with RL, sparse RL, and RLTV.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a config file or preset")
    run_p.add_argument(
        "config",
        help=f"path to a key=value config file, or a preset name ({', '.join(sorted(PRESETS))})",
    )
    run_p.add_argument("--preset", help="preset to base the config on")
    run_p.add_argument("--lambda", dest="lam", type=float, help="l1 regularization weight")
    run_p.add_argument("--n-trials", type=int, help="number of independent trials")
    run_p.add_argument("--seed", type=int, help="master seed for all trial streams")
    run_p.add_argument("--solver", help="comma list, e.g. rl:oracle,srl")
    run_p.add_argument("--out-dir", help="output directory")
    run_p.add_argument(
        "--dump-trials",
        action="store_true",
        default=None,
        help="also write per-trial truth/data matrices, reconstructions, traces",
    )

    kernels_p = sub.add_parser("kernels", help="stock kernel utilities")
    kernels_sub = kernels_p.add_subparsers(dest="kernels_command", required=True)
    dump_p = kernels_sub.add_parser("dump", help="write stock kernels as matrix text")
    dump_p.add_argument("--cutoff", type=float, default=0.2 * math.pi,
                        help="-3 dB cutoff of the 1-D Gaussian (rad/sample)")
    dump_p.add_argument("--out-dir", default=".", help="where to write the kernel files")

    dict_p = sub.add_parser("dict", help="dictionary utilities")
    dict_sub = dict_p.add_subparsers(dest="dict_command", required=True)
    info_p = dict_sub.add_parser("info", help="describe a patch-atom file")
    info_p.add_argument("atoms_file")

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    if os.path.exists(args.config):
        with open(args.config) as fh:
            mapping = parse_config_text(fh.read())
    elif args.config in PRESETS:
        mapping = {"experiment": args.config}
    else:
        print(
            f"error: {args.config!r} is neither a config file nor a preset name",
            file=sys.stderr,
        )
        return 1
    overrides = {
        "experiment": args.preset,
        "lambda": args.lam,
        "n_trials": args.n_trials,
        "seed": args.seed,
        "solvers": args.solver,
        "out_dir": args.out_dir,
        "dump_trials": args.dump_trials,
    }
    for key, value in overrides.items():
        if value is not None:
            mapping[key] = str(value)
    cfg = build_config(mapping)
    reports = run_experiment(cfg)
    for report in reports:
        flag = " (oracle)" if report.oracle else ""
        line = f"{report.method}{flag}: nmse={report.nmse_mean:.6g} +- {report.nmse_stderr:.2g}"
        if report.ssim_mean is not None:
            line += f", ssim={report.ssim_mean:.6g} +- {report.ssim_stderr:.2g}"
        print(line)
    print(f"wrote {os.path.join(cfg.out_dir, 'metrics.csv')}")
    return 0


def _cmd_kernels_dump(args: argparse.Namespace) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    g = gaussian_kernel_1d(args.cutoff)
    q = inverse_quadratic_kernel()
    gauss_path = os.path.join(args.out_dir, "kernel_gaussian_1d.txt")
    quad_path = os.path.join(args.out_dir, "kernel_inverse_quadratic_2d.txt")
    io.save_matrix_text(gauss_path, g.taps)
    io.save_matrix_text(quad_path, q.taps)
    print(f"wrote {gauss_path} ({g.taps.shape[0]} taps, sum={g.taps.sum():.12g})")
    print(f"wrote {quad_path} ({q.taps.shape[0]}x{q.taps.shape[1]}, sum={q.taps.sum():.12g})")
    return 0


def _cmd_dict_info(args: argparse.Namespace) -> int:
    atoms, stride = io.load_atoms(args.atoms_file)
    n_atoms, pr, pc = atoms.shape
    norms = np.linalg.norm(atoms.reshape(n_atoms, -1), axis=1)
    print(f"atoms file: {args.atoms_file}")
    print(f"patch size: {pr}x{pc}  atoms: {n_atoms}  stride: {stride}")
    print(f"overcompleteness per patch: {n_atoms / (pr * pc):.4g}")
    print(f"atom values in [{atoms.min():.6g}, {atoms.max():.6g}]")
    print(f"atom l2 norms in [{norms.min():.6g}, {norms.max():.6g}]")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "kernels":
            return _cmd_kernels_dump(args)
        if args.command == "dict":
            return _cmd_dict_info(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
