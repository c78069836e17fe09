"""Monte Carlo simulation of individual runs on the bond space.

Trajectories are sampled site by site with exact conditional probabilities:
the weight of the unmeasured remainder of the chain is the reverse transfer
map Fbar applied to the boundary operator (the identity when the right
boundary is a physical system, |R><R| propagated through a traced runway for
standard open boundaries).  Byproducts are tracked explicitly; gate and
measurement sites use byproduct-adapted bases, so in the corrected frame the
per-outcome actions are record-independent and only the boundary weight feels
the accumulated byproduct.  That weight depends on the byproduct only through
its Z_D x Z_D label, which is what the traced-runway sampler carries.

All trials of one configuration are sampled in a single pass over the sites,
each from its own random stream.  The transfer map is gapped, so the future
weight settles within a few correlation lengths of the right end: the backward
recursion stops there and every site further left shares the settled array.
Each distinct (site, weight) pair gets one outcome table, laid out so that a
site's outcome weights are vec(tau) @ table[code], where code is the trial's
Z_D x Z_D label (always 0 for the physical boundary).  Tables of the settled
weight are built once and shared; the table of a weight only one site sees is
built at that site and dropped.  Every record keeps the log of its drawn
string's probability.
"""

from __future__ import annotations

import collections
import enum
import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import gates, measurement
from .channel import (
    Analysis,
    Channel,
    VirtualState,
    fixed_point,
    reverse_junk_channel,
)
from .errors import DegenerateLeadingEigenvalue, ValidationError
from .model import PhasePoint, encode_matrix

SETTLE_TOL = 1e-13  # relative step below which the backward weight recursion has settled


class Procedure(enum.Enum):
    PROCEDURE_I = "I"      # outcomes kept, byproduct left on the boundary
    PROCEDURE_II = "II"    # outcomes kept, byproduct reversed
    PROCEDURE_III = "III"  # byproduct reversed, outcomes then discarded


class BoundaryMode(enum.Enum):
    PHI_TILDE = "phi_tilde"    # physical right-boundary system, active reversal possible
    PHI_RUNWAY = "phi_runway"  # standard <R| boundary behind a traced runway


def _check_boundary(name: str, value) -> None:
    if value is None:
        return
    arr = np.asarray(value, dtype=complex)
    if not np.all(np.isfinite(arr)) or not np.any(arr):
        raise ValidationError(f"{name} must be finite and nonzero")


@dataclass(frozen=True)
class RunConfig:
    analysis: Analysis
    program: gates.GateProgram
    procedure: Procedure = Procedure.PROCEDURE_II
    boundary: BoundaryMode = BoundaryMode.PHI_TILDE
    runway_n: int = 0
    left_boundary: np.ndarray | None = None
    right_boundary: np.ndarray | None = None

    def __post_init__(self):
        if self.runway_n < 0:
            raise ValidationError("runway_n must be >= 0")
        _check_boundary("left_boundary", self.left_boundary)
        _check_boundary("right_boundary", self.right_boundary)


@dataclass
class TrajectoryRecord:
    outcomes: tuple[int, ...] | None
    outcome_counts: np.ndarray
    byproduct: np.ndarray | None
    boundary_outcome: float | None
    procedure: Procedure
    boundary: BoundaryMode
    final_state: VirtualState
    log_prob: float | None        # log of the drawn string's probability, None when erased
    measure_counts: list[tuple[tuple[int, int], tuple[int, int]]] = field(default_factory=list)


@dataclass(frozen=True)
class _Site:
    ops: np.ndarray               # (n_out, Db, Db) byproduct-corrected per-outcome virtual actions
    kind: str                     # "wire" | "gate" | "measure"
    adapted: bool                 # byproduct grows on the right (adapted basis) or left (wire)
    segment: int | None = None
    half: int | None = None       # 0: beta=0 block, 1: beta=pi/2 block
    pair: tuple[int, int] | None = None

    @cached_property
    def dag(self) -> np.ndarray:
        """ops^dag, computed once per distinct site."""
        return self.ops.conj().swapaxes(-1, -2)


def _wire_ops(point: PhasePoint) -> np.ndarray:
    ident = np.eye(point.D)
    return np.stack([np.kron(ident, b) for b in point.B])


def expand_sites(analysis: Analysis, program: gates.GateProgram) -> tuple[list[_Site], list]:
    """Per-site instruction list and the measurement-segment steps."""
    point = analysis.point
    wire = _Site(ops=_wire_ops(point), kind="wire", adapted=False)
    sites: list[_Site] = []
    segments = []
    for step in program.steps:
        if isinstance(step, gates.WireStep):
            sites.extend([wire] * step.n)
        elif isinstance(step, gates.GateStep):
            wn = step.wire_n if step.wire_n is not None else analysis.wire_length
            ops = gates.step_virtual_ops(point, step.pair, np.arctan(step.dalpha), step.beta)
            one = [_Site(ops=ops, kind="gate", adapted=True, pair=step.pair)] + [wire] * wn
            sites.extend(one * step.repeats)
        elif isinstance(step, gates.MeasureStep):
            wn = step.wire_n if step.wire_n is not None else analysis.wire_length
            seg = len(segments)
            segments.append(step)
            for half, (n_steps, beta) in enumerate(step.schedule):
                ops = gates.step_virtual_ops(point, step.pair, step.alpha, beta)
                block = [_Site(ops=ops, kind="measure", adapted=True, segment=seg, half=half,
                               pair=step.pair)] + [wire] * wn
                sites.extend(block * n_steps)
        else:
            raise ValidationError(f"unknown step type {type(step).__name__}")
    return sites, segments


def label_states(analysis: Analysis, sites: list[_Site], left: np.ndarray) -> np.ndarray:
    """Byproduct-resolved states, shape (D, D, Db, Db).

    Entry [a, b] sums the actions of every outcome string on `left` whose
    byproduct carries the Z_D x Z_D label (a, b): per site, each outcome's
    op tau op^dag moves to the label shifted by that outcome's label.  The
    labels are read first, so the symmetry condition is checked even for no sites.
    """
    labels = analysis.labels
    D = analysis.point.D
    states = np.zeros((D, D) + left.shape, dtype=complex)
    states[0, 0] = left
    for site in sites:
        new = np.zeros_like(states)
        for op, g in zip(site.ops, labels):
            new += np.roll(op @ states @ op.conj().T, g, axis=(0, 1))
        states = new
    return states


def _left_density(point: PhasePoint, left) -> np.ndarray:
    """Initial bond-space density matrix from a vector, a density matrix, or None."""
    if left is None:
        left = _default_left(point)
    left = np.asarray(left, dtype=complex)
    if left.ndim == 1:
        left = np.outer(left, left.conj())
    return left / np.trace(left).real


def runway_weight(fbar: Channel, right_boundary, n: int) -> np.ndarray:
    """Fbar^n(|R><R|): the weight of an n-site traced runway behind the <R| boundary."""
    r = np.asarray(right_boundary, dtype=complex).reshape(-1)
    w = np.outer(r, r.conj())
    for _ in range(n):
        w = fbar.apply(w)
    return w


def future_weights(fbar: Channel, base: np.ndarray, n: int) -> list[np.ndarray]:
    """w_t = Fbar^(n-t)(base) for t = 0..n, the weight of the chain right of site t.

    The backward recursion stops once a step moves the weight by at most
    SETTLE_TOL of its largest entry; every site further left shares that
    array.  A weight that never settles is recursed over the whole chain.
    """
    weights = [base] * (n + 1)
    for t in range(n - 1, -1, -1):
        w = fbar.apply(weights[t + 1])
        if np.max(np.abs(w - weights[t + 1])) <= SETTLE_TOL * np.max(np.abs(weights[t + 1])):
            weights[:t + 1] = [w] * (t + 1)
            break
        weights[t] = w
    return weights


class TrajectoryEngine:
    """Precomputed site plan, future weights, and outcome tables for one config."""

    def __init__(self, config: RunConfig):
        self.config = config
        point = config.analysis.point
        self.point = point
        self.sites, self.segments = expand_sites(config.analysis, config.program)
        self.left = _left_density(point, config.left_boundary)
        self.tilde = config.boundary is BoundaryMode.PHI_TILDE
        if self.tilde:
            base = np.eye(point.Db, dtype=complex)
            # the weight has an identity logical factor, so the byproduct drops
            # out: one label code, seen through the identity
            self._next = np.zeros((1, point.d), dtype=int)
            self._frames = np.eye(point.Db, dtype=complex)[None]
        else:
            if config.right_boundary is None:
                raise ValidationError("PHI_RUNWAY mode needs a right boundary vector")
            base = runway_weight(config.analysis.fbar, config.right_boundary, config.runway_n)
            # the byproduct is a Weyl element V(g) up to a phase, which cancels
            # in the weight conjugation; trials are tracked by the code aD + b
            # of g = (a, b), and _next[c, k] is the code after outcome k
            D = point.D
            a, b = np.divmod(np.arange(D * D), D)
            labels = np.array(config.analysis.labels)                      # (d, 2)
            self._next = (a[:, None] + labels[:, 0]) % D * D + (b[:, None] + labels[:, 1]) % D
            self._frames = config.analysis.weyl.reshape(D * D, point.Db, point.Db)
        self.weights = future_weights(config.analysis.fbar, base, len(self.sites))
        # tables shared by several sites are built here; the table of a weight
        # only one site sees (right of the settle point) is built and dropped
        # at that site, so memory does not grow with the unsettled stretch
        # (a PHI_RUNWAY table is D^2 times a PHI_TILDE one)
        keys = [(id(site), id(w)) for site, w in zip(self.sites, self.weights[1:])]
        uses = collections.Counter(keys)
        built = {}
        self.tables = []
        for t, key in enumerate(keys):
            if uses[key] > 1 and key not in built:
                built[key] = self._outcome_table(self.sites[t], self.weights[t + 1])
            self.tables.append(built.get(key))
        self.byproducts = np.stack(point.C)
        if self.segments:
            # the boundary outcome is the eigenphase the final measurement reads
            final = self.segments[-1]
            obs = config.analysis.pair(final.pair)
            self._interp = (obs.filter, final.alpha, obs.eigenphases)

    def _outcome_table(self, site: _Site, w: np.ndarray) -> np.ndarray:
        """Outcome weights of one site, probs = vec(tau) @ table[code], shape (codes, Db^2, n_out).

        A trial with label code c that draws outcome k sees the future weight
        w through the frame V(g) of its new label code _next[c, k].
        """
        seen = self._frames.conj().swapaxes(-1, -2) @ w @ self._frames   # (codes, Db, Db)
        n_mats = site.dag @ seen[self._next] @ site.ops                   # (codes, n_out, Db, Db)
        return n_mats.transpose(0, 3, 2, 1).reshape(len(self._next), -1, len(site.ops))

    def sample(self, rngs) -> list[TrajectoryRecord]:
        """One record per generator; trial t draws its sites from rngs[t] alone.

        All trials advance together site by site (sequential exact sampling of
        the chain), so a trial's record does not depend on the batch it is in.
        """
        config, point = self.config, self.point
        T, n = len(rngs), len(self.sites)
        draws = np.array([rng.random(n) for rng in rngs]).reshape(T, n)
        tau = np.broadcast_to(self.left, (T,) + self.left.shape).copy()
        byprod = np.broadcast_to(np.eye(point.D, dtype=complex), (T, point.D, point.D)).copy()
        code = np.zeros(T, dtype=int)
        outcomes = np.empty((T, n), dtype=int)
        chosen, totals = np.empty((T, n)), np.empty((T, n))
        seg_counts = np.zeros((T, len(self.segments), 2, 2), dtype=int)
        rows = np.arange(T)

        for t, site in enumerate(self.sites):
            table = self.tables[t]
            if table is None:
                table = self._outcome_table(site, self.weights[t + 1])
            vec = tau.reshape(T, -1)
            if self.tilde:
                probs = (vec @ table[0]).real
            else:
                probs = (vec[:, None] @ table[code])[:, 0].real
            probs = np.clip(probs, 0.0, None)
            s = measurement.draw_outcomes(probs, draws[:, t])
            chosen[:, t] = probs[rows, s]
            totals[:, t] = probs.sum(axis=1)
            tau = site.ops[s] @ tau @ site.dag[s]
            tau = tau / np.einsum("tii->t", tau).real[:, None, None]
            c = self.byproducts[s]
            byprod = (byprod @ c) if site.adapted else (c @ byprod)
            if not self.tilde:
                code = self._next[code, s]
            outcomes[:, t] = s
            if site.kind == "measure":
                for k in (0, 1):
                    seg_counts[:, site.segment, site.half, k] += s == site.pair[k]

        boundary = [None] * T
        if self.segments:
            params, alpha, phis = self._interp
            last = seg_counts[:, -1]
            matched = measurement.interpret_counts(params, alpha, last[:, 0], last[:, 1],
                                                   phis)["matched_index"]
            boundary = [float(x) for x in phis[matched]]

        log_prob = (np.log(chosen) - np.log(totals)).sum(axis=1)
        erase = config.procedure is Procedure.PROCEDURE_III
        ident_j = np.eye(point.Dj)
        records = []
        for i in range(T):
            rho = tau[i]
            if config.procedure is Procedure.PROCEDURE_I:
                g = np.kron(byprod[i], ident_j)
                rho = g @ rho @ g.conj().T
            records.append(TrajectoryRecord(
                outcomes=None if erase else tuple(outcomes[i].tolist()),
                outcome_counts=np.bincount(outcomes[i], minlength=point.d),
                byproduct=None if erase else byprod[i],
                log_prob=None if erase else float(log_prob[i]),
                boundary_outcome=boundary[i],
                procedure=config.procedure,
                boundary=config.boundary,
                final_state=VirtualState(rho, point.D, point.Dj),
                measure_counts=[(tuple(r), tuple(im)) for r, im in seg_counts[i].tolist()],
            ))
        return records


def _default_left(point: PhasePoint) -> np.ndarray:
    v = np.zeros(point.Db, dtype=complex)
    v[0] = 1.0
    return v


def byproduct_from_outcomes(point: PhasePoint, outcomes) -> np.ndarray:
    """Recompute prod_k C_{s_k} (site order, latest factor leftmost) for wire runs."""
    g = np.eye(point.D, dtype=complex)
    for s in outcomes:
        g = point.C[s] @ g
    return g


@dataclass
class PathSumResult:
    state: VirtualState
    n_paths: int
    stderr: float


def add_paths(config: RunConfig, trials: int, seed: int, exact: bool = False) -> PathSumResult:
    """Path sum of corrected trajectories: Monte Carlo average over `trials` runs, or the exact sum.

    The exact sum applies the outcome-summed map sum_k op_k rho op_k^dag site
    by site, which adds all d^n outcome strings.  Per-trial streams are
    spawned from (seed, trial index), so the estimate is independent of
    execution order.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    point = config.analysis.point
    if exact:
        sites, _ = expand_sites(config.analysis, config.program)
        rho = _left_density(point, config.left_boundary)
        for site in sites:
            rho = (site.ops @ rho @ site.ops.conj().swapaxes(-1, -2)).sum(axis=0)
        return PathSumResult(state=VirtualState(rho / np.trace(rho).real, point.D, point.Dj),
                             n_paths=point.d ** len(sites), stderr=0.0)
    records = TrajectoryEngine(config).sample([np.random.default_rng((seed, t)) for t in range(trials)])
    rhos = np.stack([rec.final_state.rho for rec in records])
    mean = rhos.mean(axis=0)
    var = max(np.sum(np.abs(rhos) ** 2) / trials - np.linalg.norm(mean) ** 2, 0.0)
    stderr = float(np.sqrt(var / trials))
    return PathSumResult(state=VirtualState(mean / np.trace(mean).real, point.D, point.Dj),
                         n_paths=trials, stderr=stderr)


# ---------------------------------------------------------------------------
# boundary reversion (active correction vs traced runway)

@dataclass
class BoundaryReport:
    runway_n: int
    p_tilde: np.ndarray
    p_runway: np.ndarray
    tv_exact: float
    tv_sampled: float | None
    trials: int


def boundary_equivalence(
    analysis: Analysis,
    program: gates.GateProgram,
    runway_n: int,
    trials: int = 0,
    left_boundary: np.ndarray | None = None,
    right_boundary: np.ndarray | None = None,
    seed: int = 0,
) -> BoundaryReport:
    """Compare final-measurement statistics under active reversal vs a traced runway.

    The program must end in a MeasureStep.  The channel-exact branch evolves
    byproduct-resolved states through the program body and takes the ideal
    projective limit of the final measurement, so the two boundary treatments
    differ only through the weight operator Fbar^runway(|R><R|) conjugated by
    the accumulated byproduct.  The sampled branch runs the full protocol,
    weak-measurement block included; trial t of boundary mode m draws from the
    stream (seed, runway_n, m, t), so runways are sampled independently.
    """
    if not program.steps or not isinstance(program.steps[-1], gates.MeasureStep):
        raise ValidationError("program must end in a logical measurement")
    _check_boundary("left_boundary", left_boundary)
    _check_boundary("right_boundary", right_boundary)
    point = analysis.point
    final = program.steps[-1]
    sites, _ = expand_sites(analysis, gates.GateProgram(program.steps[:-1]))
    left = _left_density(point, left_boundary)
    states = label_states(analysis, sites, left)

    obs = analysis.pair(final.pair)
    phis = obs.eigenphases
    if right_boundary is None:
        right_boundary = _default_left(point)
    w_run = runway_weight(analysis.fbar, right_boundary, runway_n)
    # one projected state per (eigenphase, label); the runway weight as seen through each label
    pw = np.stack([np.kron(p, np.eye(point.Dj)) for p in obs.projectors])[:, None, None]
    cut = pw @ states @ pw.conj().swapaxes(-1, -2)                        # (m, D, D, Db, Db)
    seen = analysis.weyl.conj().swapaxes(-1, -2) @ w_run @ analysis.weyl  # (D, D, Db, Db)
    p_tilde = np.trace(cut, axis1=-2, axis2=-1).real.sum(axis=(1, 2))
    p_run = np.einsum("mghab,ghba->m", cut, seen).real
    p_tilde /= p_tilde.sum()
    p_run /= p_run.sum()
    tv_exact = 0.5 * float(np.sum(np.abs(p_tilde - p_run)))

    tv_sampled = None
    if trials > 0:
        freqs = {}
        for m_idx, mode in enumerate(BoundaryMode):
            cfg = RunConfig(analysis=analysis, program=program, procedure=Procedure.PROCEDURE_II,
                            boundary=mode, runway_n=runway_n,
                            left_boundary=left, right_boundary=right_boundary)
            records = TrajectoryEngine(cfg).sample(
                [np.random.default_rng((seed, runway_n, m_idx, t)) for t in range(trials)])
            outs = np.array([rec.boundary_outcome for rec in records])
            idx = np.argmin(np.abs(np.angle(np.exp(1j * (phis[None, :] - outs[:, None])))), axis=1)
            freqs[mode] = np.bincount(idx, minlength=len(phis)) / trials
        tv_sampled = 0.5 * float(np.sum(np.abs(freqs[BoundaryMode.PHI_TILDE]
                                               - freqs[BoundaryMode.PHI_RUNWAY])))

    return BoundaryReport(runway_n=runway_n, p_tilde=p_tilde, p_runway=p_run,
                          tv_exact=tv_exact, tv_sampled=tv_sampled, trials=trials)


@dataclass
class ReverseFixedPoint:
    operator: np.ndarray
    eigenvalue: float
    junk_fixed: np.ndarray
    junk_eigenvalue: float
    logical_deviation: float
    eigenvalue_gap: float
    forward_overlap: float


def completely_oblivious_fixed_point(analysis: Analysis) -> ReverseFixedPoint:
    """Top eigenoperator of Fbar = sum_s [A_s^dag], checked against I/D (x) junk fixed point."""
    point = analysis.point
    fix_full = fixed_point(analysis.fbar)  # raises DegenerateLeadingEigenvalue when degenerate
    fix_junk = fixed_point(reverse_junk_channel(point))
    tau = fix_full.rho
    logical = tau.reshape(point.D, point.Dj, point.D, point.Dj).trace(axis1=1, axis2=3)
    logical_dev = float(np.max(np.abs(logical - np.eye(point.D) / point.D)))
    gap = abs(fix_full.eigenvalue - fix_junk.eigenvalue)
    forward = analysis.fix
    overlap = float(np.trace(forward.rho @ fix_junk.rho).real)
    if overlap <= 1e-10:
        raise DegenerateLeadingEigenvalue(
            f"forward/reverse junk fixed points are orthogonal (overlap {overlap:.3e})"
        )
    return ReverseFixedPoint(
        operator=tau,
        eigenvalue=fix_full.eigenvalue,
        junk_fixed=fix_junk.rho,
        junk_eigenvalue=fix_junk.eigenvalue,
        logical_deviation=logical_dev,
        eigenvalue_gap=gap,
        forward_overlap=overlap,
    )


def record_to_json(record: TrajectoryRecord) -> dict:
    """JSON-ready view of one trajectory record (one line of a JSONL log)."""
    return {
        "outcomes": list(record.outcomes) if record.outcomes is not None else None,
        "outcome_counts": [int(c) for c in record.outcome_counts],
        "byproduct": encode_matrix(record.byproduct) if record.byproduct is not None else None,
        "boundary_outcome": record.boundary_outcome,
        "procedure": record.procedure.value,
        "boundary": record.boundary.value,
        "measure_counts": [[list(r), list(i)] for r, i in record.measure_counts],
    }


def write_records_jsonl(records, path) -> None:
    """One JSON record per line."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(record_to_json(rec)) + "\n")


def procedure_kraus_family(point: PhasePoint, n: int) -> list[np.ndarray]:
    """Explicit physical-space Kraus family P_s = |s><s| (x) Sigma(s)^-1 for an n-site block."""
    d = point.d
    ops = []
    for s in itertools.product(range(d), repeat=n):
        proj = np.zeros((d ** n, d ** n), dtype=complex)
        idx = 0
        for sk in s:  # site 1 is the most significant digit
            idx = idx * d + sk
        proj[idx, idx] = 1.0
        sigma = byproduct_from_outcomes(point, s)
        ops.append(np.kron(proj, np.kron(sigma.conj().T, np.eye(point.Dj))))
    return ops
