"""Batch command-line front end.

Every run writes a manifest.json describing the command, parameters, seed, and
model hash; every CSV cites the manifest in a comment header.  Outputs contain
no timestamps, so identical flags and seed give byte-identical files.

Exit codes: 0 ok, 2 validation failure (InputError), 3 numerical failure
(NumericalFailure or a LAPACK error), 4 usage error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, channel, gates, measurement, model, oracle, trajectory
from .errors import InputError, NumericalFailure, ValidationError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite (else exit 2)."""
    value = float(text)
    if not np.isfinite(value):
        raise ValidationError(f"{text!r} is not a finite number")
    return value


def int_at_least(low: int):
    """argparse type factory: an integer that is at least `low` (else exit 2)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValidationError(f"{text!r} is not an integer >= {low}")
        return value

    parse.__name__ = "int"  # argparse names the type in its message for a non-integer
    return parse


def int_list(low: int):
    """argparse type factory: comma-separated integers, each at least `low` (else exit 2)."""
    item = int_at_least(low)

    def parse(text: str) -> list[int]:
        return [item(x) for x in text.split(",")]

    parse.__name__ = "int list"  # argparse names the type in its message for a non-integer
    return parse


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    return str(v)


def _model_hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# The last model a run command read: (sha256 of its bytes, its Analysis).  A
# process that runs several commands on one model, such as a phase scan, then
# checks and analyzes it once; a file whose bytes change is read again.
_last_model: tuple[str, channel.Analysis] | None = None


def _model_analysis(path: str) -> tuple[channel.Analysis, str]:
    """The checked model at `path` (as `Analysis.point`) with its analysis, and its sha256.

    The file is read and hashed on every call; it is loaded, validated and
    analyzed only when the hash differs from the last model's.  A load that
    fails leaves no model kept.
    """
    global _last_model
    path = Path(path)
    digest = _model_hash(path)
    if _last_model is None or _last_model[0] != digest:
        _last_model = None
        _last_model = (digest, channel.analyze(model.load_model(path)))
    return _last_model[1], digest


class RunDir:
    """Output directory with a manifest; collects the files each command emits."""

    def __init__(self, out: str, command: str, params: dict, seed, model_hash: str | None):
        self.dir = Path(out)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.model_hash = model_hash
        self.manifest = {
            "tool": "sptmbqc",
            "version": __version__,
            "command": command,
            "params": {k: v for k, v in sorted(params.items())},
            "seed": seed,
            "model_sha256": self.model_hash,
            "outputs": [],
        }

    def csv(self, name: str, columns, rows):
        lines = ["# manifest: manifest.json"]
        if self.model_hash:
            lines.append(f"# model: sha256:{self.model_hash}")
        lines.append(",".join(columns))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        (self.dir / name).write_text("\n".join(lines) + "\n")
        self.manifest["outputs"].append(name)

    def json(self, name: str, payload: dict):
        payload = dict(payload)
        payload["manifest"] = "manifest.json"
        (self.dir / name).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        self.manifest["outputs"].append(name)

    def finish(self):
        (self.dir / "manifest.json").write_text(
            json.dumps(self.manifest, indent=1, sort_keys=True) + "\n")


def _params(args, skip=("func", "out")) -> dict:
    return {k: v for k, v in vars(args).items() if k not in skip and not k.startswith("_")}


# ---------------------------------------------------------------------------
# model subcommands

def cmd_model_build(args) -> int:
    point = model.build_cluster_point(args.D)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / args.name
    model.save_model(point, path)
    rd = RunDir(args.out, "model build", _params(args), None, _model_hash(path))
    rd.json("validation.json", {"label": point.label, "problems": [],
                                "injectivity_K": model.check_injectivity(point)})
    rd.finish()
    print(f"wrote {path}")
    return EXIT_OK


def cmd_model_perturb(args) -> int:
    base = model.load_model(Path(args.model)) if args.model else model.build_cluster_point(args.D)
    point = model.perturb_point(base, args.strength, args.junk_dim, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / args.name
    model.save_model(point, path)
    rd = RunDir(args.out, "model perturb", _params(args), args.seed, _model_hash(path))
    rd.json("validation.json", {"label": point.label, "problems": [],
                                "injectivity_K": point.injectivity_K})
    rd.finish()
    print(f"wrote {path} (injective at K={point.injectivity_K})")
    return EXIT_OK


def cmd_model_validate(args) -> int:
    point = model.load_model(Path(args.path), validate=False)
    problems = model.validate_point(point, check_injectivity_to=args.k_max)
    for p in problems:
        print(p, file=sys.stderr)
    if problems:
        return EXIT_VALIDATION
    print(f"{args.path}: valid ({point.label})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# run subcommands

def cmd_run_wire(args) -> int:
    analysis, digest = _model_analysis(args.model)
    point = analysis.point
    rng = np.random.default_rng(args.seed)
    L = channel.random_unit_vector(rng, point.Db)
    state = channel.VirtualState.from_boundary_vector(L, point.D, point.Dj)
    rd = RunDir(args.out, "run wire", _params(args), args.seed, digest)
    rd.csv("wire_residual.csv", ["n_sites", "schmidt_residual"],
           enumerate(channel.residual_curve(state, analysis, args.n)))
    if args.trajectories > 0:
        cfg = trajectory.RunConfig(analysis=analysis, program=gates.GateProgram((gates.WireStep(args.n),)),
                                   procedure=trajectory.Procedure.PROCEDURE_II,
                                   left_boundary=L)
        records = trajectory.TrajectoryEngine(cfg).sample(
            [np.random.default_rng((args.seed, t)) for t in range(args.trajectories)])
        trajectory.write_records_jsonl(records, Path(args.out) / "trajectories.jsonl")
        rd.manifest["outputs"].append("trajectories.jsonl")
    rd.finish()
    return EXIT_OK


def cmd_run_gate(args) -> int:
    analysis, digest = _model_analysis(args.model)
    analysis.nu  # fail on the nu invariants before any output is written
    pair = channel.check_pair(analysis.point.d, args.pair)
    rd = RunDir(args.out, "run gate", _params(args), args.seed, digest)
    rows = []
    for n in args.n_steps:
        fr = gates.finite_rotation(analysis, pair, args.alpha, args.beta, n)
        rows.append((n, fr.distance, fr.choi_fid))
    rd.csv("gate_error.csv", ["n_steps", "superop_distance", "choi_fidelity"], rows)
    rd.json("gate_summary.json", {
        "pair": list(pair), "alpha_rad": args.alpha, "beta_rad": args.beta,
        "distances": {str(n): d for (n, d, _) in rows},
    })
    rd.finish()
    return EXIT_OK


def cmd_run_measure(args) -> int:
    analysis, digest = _model_analysis(args.model)
    analysis.nu  # fail on the nu invariants before the pair is checked
    pair = analysis.pair(args.pair)
    params, phis = pair.filter, pair.eigenphases
    pops = np.full(len(phis), 1.0 / len(phis))
    rng = np.random.default_rng(args.seed)
    schedule = gates.MeasureStep(pair.index, args.alpha, args.nm).schedule
    seg_counts = measurement.filter_trajectories(
        params, phis, pops, schedule, args.trials, args.alpha, rng)
    rd = RunDir(args.out, "run measure", _params(args), args.seed, digest)
    interp = measurement.interpret_counts(params, args.alpha, seg_counts[0], seg_counts[1], phis)
    rows = [(t, args.nm, *seg_counts[0][t], *seg_counts[1][t],
             interp["cos_estimate"][t], interp["sin_estimate"][t], interp["phi_hat"][t],
             phis[interp["matched_index"][t]], interp["out_of_range"][t])
            for t in range(args.trials)]
    rd.csv("measure_scatter.csv",
           ["trial", "n_m", "n0_real", "n1_real", "n0_imag", "n1_imag",
            "cos_estimate", "sin_estimate", "phi_hat_rad", "matched_eigenphase_rad",
            "out_of_range"],
           rows)
    if args.curves:
        grid = np.linspace(-np.pi, np.pi, 513)
        rows = []
        for n0, n1 in ((1, 1), (5, 5), (50, 50)):
            curve = measurement.accumulated_filter(params, args.alpha, n0, n1, grid)
            rows.extend((n0, n1, p, c) for p, c in zip(grid, curve))
        rd.csv("filter_curves.csv", ["n0", "n1", "phi_rad", "filter_normalized"], rows)
    rd.finish()
    return EXIT_OK


def cmd_run_nu(args) -> int:
    analysis, digest = _model_analysis(args.model)
    rd = RunDir(args.out, "run nu", _params(args), args.seed, digest)
    rd.json("nu_exact.json", channel.nu_export(analysis))
    if not args.exact_only:
        rng = np.random.default_rng(args.seed)
        est = measurement.estimate_nu(analysis, args.samples, rng)
        rd.json("nu_selftest.json", {
            "diag_estimate": list(est.diag),
            "diag_sigma": list(est.diag_sigma),
            "diag_truth": list(est.diag_truth),
            "abs_nu10_estimate": est.abs_nu10,
            "abs_nu10_sigma": est.abs_nu10_sigma,
            "abs_nu10_truth": est.abs_nu10_truth,
            "delta_estimate": est.delta,
            "delta_sigma": est.delta_sigma,
            "delta_truth": est.delta_truth,
            "eigenphase_rad": est.eigenphase,
            "betas_rad": list(est.betas),
            "pair_frequencies": est.pair_frequencies.tolist(),
        })
    rd.finish()
    return EXIT_OK


def cmd_run_born(args) -> int:
    analysis, digest = _model_analysis(args.model)
    analysis.nu  # fail on the nu invariants before the state is checked
    pair = analysis.pair(args.pair)
    try:
        weights = [float(x) for x in args.state.split(",")]
    except ValueError:
        raise ValidationError(f"--state {args.state!r} is not a comma-separated list of numbers") from None
    if len(weights) != len(pair.eigenphases):
        raise ValidationError(f"state has {len(weights)} weights, "
                              f"observable has {len(pair.eigenphases)} eigenphases")
    if not (all(np.isfinite(w) and w >= 0 for w in weights) and abs(sum(weights) - 1.0) <= 1e-9):
        raise ValidationError(f"--state weights {args.state!r} must be finite and non-negative "
                              "and sum to 1")
    sigma = sum(w * (p @ p) / np.trace(p @ p).real for w, p in zip(weights, pair.projectors))
    rng = np.random.default_rng(args.seed)
    rep = measurement.born_statistics(sigma, analysis, pair.index, args.trials, args.nm, rng)
    rd = RunDir(args.out, "run born", _params(args), args.seed, digest)
    rd.csv("born.csv",
           ["eigenphase_rad", "frequency", "born_probability", "binomial_sigma"],
           [(p, f, b, s) for p, f, b, s in
            zip(rep.eigenphases, rep.frequencies, rep.born_reference, rep.binomial_sigma)])
    rd.finish()
    return EXIT_OK


def cmd_run_boundary(args) -> int:
    analysis, digest = _model_analysis(args.model)
    point = analysis.point
    rng = np.random.default_rng(args.seed)
    sig_vec = channel.random_unit_vector(rng, point.D)
    left = np.kron(np.outer(sig_vec, sig_vec.conj()), analysis.fix.rho)
    right = channel.random_unit_vector(rng, point.Db)
    # empty body: the byproduct distribution stays trivial, so the runway decay
    # of the boundary weight is visible instead of being twirled away
    program = gates.GateProgram((
        gates.MeasureStep((0, min(2, point.d - 1)), np.pi / 4, args.nm),
    ))
    reps = [trajectory.boundary_equivalence(analysis, program, runway_n=r, trials=args.trials,
                                            left_boundary=left, right_boundary=right,
                                            seed=args.seed)
            for r in args.runways]
    rows = [(r, rep.tv_exact, rep.tv_sampled if rep.tv_sampled is not None else "")
            for r, rep in zip(args.runways, reps)]
    rd = RunDir(args.out, "run boundary", _params(args), args.seed, digest)
    rd.csv("boundary_tv.csv", ["runway_sites", "tv_exact", "tv_sampled"], rows)
    rd.json("boundary_summary.json", {
        "runways": list(args.runways),
        "tv_exact": [rep.tv_exact for rep in reps],
        "tv_sampled": [rep.tv_sampled for rep in reps],
        "p_tilde": [list(rep.p_tilde) for rep in reps],
        "p_runway": [list(rep.p_runway) for rep in reps],
        "trials": args.trials,
    })
    rd.finish()
    return EXIT_OK


def cmd_run_conform(args) -> int:
    analysis, digest = _model_analysis(args.model)
    rng = np.random.default_rng(args.seed)
    # the suite builds its own Analysis of the point, so its cross-check stays independent
    rep = oracle.conformance_suite(analysis.point, args.n, rng, samples=args.samples)
    rd = RunDir(args.out, "run conform", _params(args), args.seed, digest)
    rd.json("conformance.json", {
        "deviations": rep.deviations,
        "max_deviation": rep.max_deviation,
        "sampled_z": rep.sampled_z,
        "tolerance": args.tol,
    })
    rd.finish()
    if rep.max_deviation > args.tol:
        worst = max(rep.deviations, key=rep.deviations.get)
        print(f"conformance failure: {worst} = {rep.deviations[worst]:.3e} > {args.tol}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    if rep.sampled_z > 5.0:
        print(f"conformance failure: sampled z-score {rep.sampled_z:.2f} > 5", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"conformance ok: max deviation {rep.max_deviation:.3e}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="sptmbqc", description=__doc__)
    sub = parser.add_subparsers(dest="group", required=True)

    m = sub.add_parser("model", help="build, perturb, and validate phase-point models")
    msub = m.add_subparsers(dest="command", required=True)

    b = msub.add_parser("build", help="build a qudit-cluster point")
    b.add_argument("--group", default="Z2xZ2", help="symmetry group tag ZDxZD")
    b.add_argument("--D", type=int, default=None, help="logical dimension (overrides --group)")
    b.add_argument("--out", default=".")
    b.add_argument("--name", default="model.json")
    b.set_defaults(func=cmd_model_build)

    p = msub.add_parser("perturb", help="perturb junk matrices at fixed byproducts")
    p.add_argument("--model", default=None, help="base model path (default: cluster point)")
    p.add_argument("--D", type=int, default=2, help="cluster dimension when no base model is given")
    p.add_argument("--strength", type=finite_float, required=True)
    p.add_argument("--junk-dim", dest="junk_dim", type=int, required=True)
    p.add_argument("--seed", type=int_at_least(0), required=True)
    p.add_argument("--out", default=".")
    p.add_argument("--name", default="model_perturbed.json")
    p.set_defaults(func=cmd_model_perturb)

    v = msub.add_parser("validate", help="check a model file against all invariants")
    v.add_argument("path")
    v.add_argument("--k-max", dest="k_max", type=int, default=model.K_MAX_DEFAULT)
    v.set_defaults(func=cmd_model_validate)

    r = sub.add_parser("run", help="run simulations and emit CSV/JSON data")
    rsub = r.add_subparsers(dest="command", required=True)

    def common(sp, seed=True):
        sp.add_argument("--model", required=True)
        sp.add_argument("--out", default=".")
        if seed:
            sp.add_argument("--seed", type=int_at_least(0), default=0)

    w = rsub.add_parser("wire", help="factorization residual vs wire length")
    common(w)
    w.add_argument("--n", type=int_at_least(0), default=200)
    w.add_argument("--trajectories", type=int_at_least(0), default=0,
                   help="also sample this many wire runs into a JSONL log")
    w.set_defaults(func=cmd_run_wire)

    g = rsub.add_parser("gate", help="finite-rotation error vs step count")
    common(g)
    g.add_argument("--pair", type=int, nargs=2, default=(0, 1))
    g.add_argument("--alpha", type=finite_float, default=np.pi / 4)
    g.add_argument("--beta", type=finite_float, default=np.pi / 2)
    g.add_argument("--n-steps", dest="n_steps", type=int_list(1), default=(100, 200, 400))
    g.set_defaults(func=cmd_run_gate)

    me = rsub.add_parser("measure", help="weak-measurement estimate scatter")
    common(me)
    me.add_argument("--pair", type=int, nargs=2, default=(0, 1))
    me.add_argument("--nm", type=int_at_least(2), default=1600)
    me.add_argument("--alpha", type=finite_float, default=np.pi / 4)
    me.add_argument("--trials", type=int_at_least(1), default=200)
    me.add_argument("--curves", action="store_true", help="also emit accumulated filter curves")
    me.set_defaults(func=cmd_run_measure)

    nu = rsub.add_parser("nu", help="exact nu matrix export and sampled self-test")
    common(nu)
    nu.add_argument("--samples", type=int_at_least(1), default=100_000)
    nu.add_argument("--exact-only", dest="exact_only", action="store_true")
    nu.set_defaults(func=cmd_run_nu)

    bo = rsub.add_parser("born", help="Born-rule statistics for a mixed logical input")
    common(bo)
    bo.add_argument("--pair", type=int, nargs=2, default=(0, 1))
    bo.add_argument("--trials", type=int_at_least(1), default=10_000)
    bo.add_argument("--nm", type=int_at_least(2), default=600)
    bo.add_argument("--state", default="0.7,0.3", help="eigenphase weights, comma separated, summing to 1")
    bo.set_defaults(func=cmd_run_born)

    bd = rsub.add_parser("boundary", help="active reversal vs traced runway")
    common(bd)
    bd.add_argument("--runways", type=int_list(0), default=(0, 5, 25, 140))
    bd.add_argument("--trials", type=int_at_least(0), default=0)
    bd.add_argument("--nm", type=int, default=20)
    bd.set_defaults(func=cmd_run_boundary)

    cf = rsub.add_parser("conform", help="dense-oracle conformance suite")
    common(cf)
    cf.add_argument("--n", type=int_at_least(1), default=6)
    cf.add_argument("--samples", type=int_at_least(1), default=10_000)
    cf.add_argument("--tol", type=finite_float, default=1e-10)
    cf.set_defaults(func=cmd_run_conform)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser, built once per process: parsing leaves it unchanged, and its defaults are immutable."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) == "build" and args.D is None:
            tag = args.group.replace("x", " ").split()
            try:
                args.D = int(tag[0].lstrip("Z"))
            except (ValueError, IndexError):
                parser.error(f"cannot parse group tag {args.group!r}; pass --D")
        return args.func(args)
    except InputError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalFailure, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
