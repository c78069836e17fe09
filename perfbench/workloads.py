"""Workload plans: the CLI commands of one pass, derived from the workload seed.

Every input comes from the workload seed.  Inputs whose exact outputs are
checked against `reference.json` (model perturbation seeds, and the `--seed`
of `run wire`, `run boundary` and `run conform`, which draws their boundary
vectors) come from the seed's variant, `seed % VARIANTS`, because references
were recorded once per variant.  Purely statistical inputs (the `--seed` of
`run measure`, `run nu` and `run born`) come from the full seed.

Each operation records the exit code expected for its input, and, where the
code at the time of recording fails on that input, the known defect.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

VARIANTS = 4
WORKLOADS = ("readme", "sampling", "sweep")

# Sampling workload: the D=2 boundary model is drawn until its default wire
# length falls in this band, so the runway work per trial is alike across
# variants (site draws per trial are nm * (1 + wire length)).
BOUNDARY_WIRE_BAND = (72, 82)


def derive(tag: str, value: int) -> int:
    """Deterministic 31-bit seed for one input, from a tag and a seed or variant."""
    digest = hashlib.sha256(f"{tag}:{value}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % (1 << 31)


@dataclass(frozen=True)
class ModelSpec:
    D: int
    junk_dim: int
    strength: float
    seed: int | None        # None: the unperturbed cluster point


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]   # sptmbqc CLI arguments, paths relative to the pass directory
    kind: str               # output check to apply (see checks.py)
    point: str              # reference key of the model the command runs on
    out: str | None = None  # output directory of the command
    expect: int = 0         # exit code expected for this input
    known_defect: str | None = None  # why the recorded code does not give `expect`

    def arg(self, flag: str, default: str | None = None) -> str | None:
        """Value given for a CLI flag, or the default."""
        return self.argv[self.argv.index(flag) + 1] if flag in self.argv else default


@dataclass
class Plan:
    workload: str
    seed: int
    variant: int
    in_process: bool                 # True: the whole pass runs in one process
    models: dict[str, ModelSpec] = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)

    def model_path(self, point: str) -> str:
        """Path of a model, relative to the pass directory."""
        if self.workload == "sampling":
            return f"../models/{point}.json"
        name = "model.json" if self.models[point].seed is None else "model_perturbed.json"
        return f"{point}/{name}"


def build(workload: str, seed: int, tiny: bool = False) -> Plan:
    """Plan of one pass; `tiny` shrinks every size for the smoke test."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    plan = Plan(workload, seed, seed % VARIANTS, in_process=workload == "sweep")
    {"readme": _readme, "sampling": _sampling, "sweep": _sweep}[workload](plan, tiny)
    return plan


def _perturb_op(plan: Plan, point: str) -> Op:
    spec = plan.models[point]
    dim = () if spec.D == 2 else ("--D", str(spec.D))   # README form for D=2
    return Op(("model", "perturb") + dim + ("--strength", str(spec.strength),
               "--junk-dim", str(spec.junk_dim), "--seed", str(spec.seed), "--out", point),
              "perturb", point, out=point)


def _readme(plan: Plan, tiny: bool) -> None:
    """The ten README commands with their README arguments; seeds from the workload seed."""
    v, s = plan.variant, plan.seed
    plan.models["readme.cluster"] = ModelSpec(2, 1, 0.0, None)
    plan.models["readme"] = ModelSpec(2, 2, 0.3, derive("readme.model", v))
    m = plan.model_path("readme")
    pt = "readme"

    def run(kind, *args):
        return Op(("run", kind, "--model", m) + args + ("--out", f"runs/{kind}"), kind, pt,
                  out=f"runs/{kind}")

    plan.ops += [
        Op(("model", "build", "--group", "Z2xZ2", "--out", "readme.cluster"), "build",
           "readme.cluster", out="readme.cluster"),
        _perturb_op(plan, "readme"),
        Op(("model", "validate", m), "validate", pt),
        run("wire", "--n", "50" if tiny else "200", "--trajectories", "5" if tiny else "50",
            "--seed", str(derive("readme.wire", v))),
        run("gate", "--pair", "0", "1", "--alpha", "0.7854", "--beta", "1.5708",
            "--n-steps", "100,200" if tiny else "100,200,400"),
        run("measure", "--pair", "0", "1", "--nm", "400" if tiny else "1600", "--alpha", "0.7854",
            "--trials", "20" if tiny else "200", "--seed", str(derive("readme.measure", s)),
            "--curves"),
        run("nu", "--samples", "20000" if tiny else "100000", "--seed", str(derive("readme.nu", s))),
        run("born", "--pair", "0", "1", "--trials", "1000" if tiny else "10000",
            "--nm", "200" if tiny else "600", "--state", "0.7,0.3",
            "--seed", str(derive("readme.born", s))),
        run("boundary", "--runways", "0,5" if tiny else "0,5,25,140",
            "--seed", str(derive("readme.boundary", v))),
        run("conform", "--n", "6", "--seed", str(derive("readme.conform", v))),
    ]


def boundary_model_seed(v: int) -> int:
    """First seed-derived D=2/Dj=2 perturbation whose default wire length is in the band."""
    from sptmbqc import channel, model

    base = model.build_cluster_point(2)
    for k in range(1000):
        seed = derive(f"sampling.model.d2.{k}", v)
        wn = channel.default_wire_length(model.perturb_point(base, 0.3, 2, seed))
        if BOUNDARY_WIRE_BAND[0] <= wn <= BOUNDARY_WIRE_BAND[1]:
            return seed
    raise RuntimeError("no boundary model in the wire-length band")


def _sampling(plan: Plan, tiny: bool) -> None:
    """Sampler-bound commands on a D=2/Dj=2 and a D=3/Dj=4 model, built at set-up."""
    v, s = plan.variant, plan.seed
    plan.models["sampling.d2"] = ModelSpec(2, 2, 0.3, boundary_model_seed(v))
    plan.models["sampling.d3"] = ModelSpec(3, 4, 0.3, derive("sampling.model.d3", v))
    d2, d3 = plan.model_path("sampling.d2"), plan.model_path("sampling.d3")
    plan.ops += [
        # one runway long enough that tv_exact is ~0, so the two boundary modes
        # must sample alike; 60 trials keep the tv_sampled bound well below 1
        # (a coarse check: see checks.Checker._boundary)
        Op(("run", "boundary", "--model", d2, "--runways", "25", "--nm", "1" if tiny else "2",
            "--trials", "30" if tiny else "60", "--seed", str(derive("sampling.boundary", v)),
            "--out", "boundary"), "boundary", "sampling.d2", out="boundary"),
        Op(("run", "wire", "--model", d2, "--n", "100" if tiny else "1000",
            "--trajectories", "5" if tiny else "40", "--seed", str(derive("sampling.wire.d2", v)),
            "--out", "wire_d2"), "wire", "sampling.d2", out="wire_d2"),
        Op(("run", "wire", "--model", d3, "--n", "100" if tiny else "1000",
            "--trajectories", "3" if tiny else "16", "--seed", str(derive("sampling.wire.d3", v)),
            "--out", "wire_d3"), "wire", "sampling.d3", out="wire_d3"),
        Op(("run", "born", "--model", d2, "--trials", "2000" if tiny else "10000",
            "--nm", "200" if tiny else "600", "--seed", str(derive("sampling.born", s)),
            "--out", "born"), "born", "sampling.d2", out="born"),
        Op(("run", "measure", "--model", d2, "--trials", "100" if tiny else "1000",
            "--nm", "400" if tiny else "1600", "--seed", str(derive("sampling.measure", s)),
            "--out", "measure"), "measure", "sampling.d2", out="measure"),
    ]


NU_D3_DEFECT = ("the nu self-test ends in a traceback on D=3 models: "
                "gates.available_axes assumes 2x2 Paulis")

SWEEP_POINTS = [(2, dj, st) for dj in (2, 4, 8) for st in (0.2, 0.5)] + \
               [(3, dj, st) for dj in (2, 4, 6) for st in (0.2, 0.5)]


def _sweep(plan: Plan, tiny: bool) -> None:
    """Phase-diagram scan: six commands per phase point, all in one process."""
    v, s = plan.variant, plan.seed
    points = [SWEEP_POINTS[0], SWEEP_POINTS[6]] if tiny else SWEEP_POINTS
    for D, dj, st in points:
        pt = f"sweep.D{D}.Dj{dj}.s{st}"
        plan.models[pt] = ModelSpec(D, dj, st, derive(f"{pt}.model", v))
        m = plan.model_path(pt)

        def run(kind, *args, known_defect=None):
            return Op(("run", kind, "--model", m) + args + ("--out", f"{pt}/{kind}"), kind, pt,
                      out=f"{pt}/{kind}", known_defect=known_defect)

        plan.ops += [
            _perturb_op(plan, pt),
            run("gate", "--n-steps", "100,200" if tiny else "100,200,400,800"),
            run("wire", "--n", "100" if tiny else "400", "--seed", str(derive(f"{pt}.wire", v))),
            run("boundary", "--trials", "0", "--seed", str(derive(f"{pt}.boundary", v))),
            # on D=3 the known defect counts as a failed operation; it does not make
            # the run incorrect
            run("nu", "--samples", "2000", "--seed", str(derive(f"{pt}.nu", s)),
                known_defect=NU_D3_DEFECT if D == 3 else None),
            # D=3 uses n=4 to stay under the oracle's amplitude cap
            run("conform", "--n", "6" if D == 2 else "4", "--seed", str(derive(f"{pt}.conform", v))),
        ]
