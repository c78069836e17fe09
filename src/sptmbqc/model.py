"""Phase-point models: wire-basis site tensors C_i (x) B_i, their validation and serialization.

A phase point is specified by d unitary byproduct operators C_i on the logical
bond space and d junk matrices B_i, normalized so the junk transfer channel has
spectral radius one.  The qudit-cluster family and seeded symmetry-respecting
perturbations of it are the shipped model generators.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    InjectivityFailure,
    NotInjective,
    ParseError,
    SchemaVersionError,
    ValidationError,
)

SCHEMA = "spt-mbqc/1"

UNITARY_TOL = 1e-12
SPECTRAL_TOL = 1e-10
SYMMETRY_TOL = 1e-10
RANK_RTOL = 1e-10
K_MAX_DEFAULT = 4


def weyl_x(D: int) -> np.ndarray:
    """Cyclic shift X|z> = |z+1 mod D>."""
    x = np.zeros((D, D), dtype=complex)
    for z in range(D):
        x[(z + 1) % D, z] = 1.0
    return x


def weyl_z(D: int) -> np.ndarray:
    """Clock operator Z|z> = exp(2 pi i z / D)|z>."""
    return np.diag(np.exp(2j * np.pi * np.arange(D) / D))


def weyl_unitary(D: int, a: int, b: int) -> np.ndarray:
    """X^a Z^b in dimension D."""
    return np.linalg.matrix_power(weyl_x(D), a % D) @ np.linalg.matrix_power(weyl_z(D), b % D)


def _freeze(mats) -> tuple[np.ndarray, ...]:
    out = []
    for m in mats:
        a = np.array(m, dtype=complex)
        a.setflags(write=False)
        out.append(a)
    return tuple(out)


@dataclass(frozen=True, eq=False)
class PhasePoint:
    """Wire-basis model: site tensors A[i] = C_i (x) B_i on a D*Dj bond space.

    Points compare and hash by identity: their fields hold numpy arrays.
    """

    d: int
    D: int
    Dj: int
    C: tuple[np.ndarray, ...]
    B: tuple[np.ndarray, ...]
    kappa_norm: float = 1.0
    label: str = ""
    # smallest injective block length, where the builder checked it (not serialized)
    injectivity_K: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "C", _freeze(self.C))
        object.__setattr__(self, "B", _freeze(self.B))

    @property
    def Db(self) -> int:
        return self.D * self.Dj

    def site_tensors(self) -> np.ndarray:
        """The site tensors C_i (x) B_i stacked as (d, Db, Db), read-only, built on the first call."""
        return self._site_tensors

    @cached_property
    def _site_tensors(self) -> np.ndarray:
        tensors = np.stack([np.kron(c, b) for c, b in zip(self.C, self.B)])
        tensors.setflags(write=False)
        return tensors


def _junk_superop(B) -> np.ndarray:
    # row-major vectorization: superop of rho -> sum_i B_i rho B_i^dag
    return sum(np.kron(b, b.conj()) for b in B)


def _spectral_radius(B) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(_junk_superop(B)))))


def validate_point(point: PhasePoint, *, check_injectivity_to: int | None = None) -> list[str]:
    """Return the list of violated invariants (empty means valid)."""
    problems = []
    if len(point.C) != point.d or len(point.B) != point.d:
        problems.append(f"expected {point.d} site tensors, got {len(point.C)} C and {len(point.B)} B")
        return problems
    for i, c in enumerate(point.C):
        if c.shape != (point.D, point.D):
            problems.append(f"C[{i}] has shape {c.shape}, expected ({point.D}, {point.D})")
            continue
        dev = np.linalg.norm(c.conj().T @ c - np.eye(point.D))
        if dev > UNITARY_TOL:
            problems.append(f"C[{i}] is not unitary: ||C^dag C - I|| = {dev:.3e}")
    for i, b in enumerate(point.B):
        if b.shape != (point.Dj, point.Dj):
            problems.append(f"B[{i}] has shape {b.shape}, expected ({point.Dj}, {point.Dj})")
    if not problems:
        radius = _spectral_radius(point.B)
        if abs(radius - 1.0) > SPECTRAL_TOL:
            problems.append(f"junk channel spectral radius {radius!r} deviates from 1 beyond {SPECTRAL_TOL}")
    if check_injectivity_to is not None and not problems:
        try:
            check_injectivity(point, k_max=check_injectivity_to)
        except NotInjective as exc:
            problems.append(str(exc))
    return problems


def require_valid(point: PhasePoint, **kwargs) -> PhasePoint:
    problems = validate_point(point, **kwargs)
    if problems:
        raise ValidationError("; ".join(problems))
    return point


def build_cluster_point(D: int) -> PhasePoint:
    """Qudit-cluster-compatible point: d = D^2, C_{a*D+b} = X^a Z^b, scalar junk 1/D."""
    if D < 2:
        raise ValidationError(f"D must be >= 2, got {D}")
    C = [weyl_unitary(D, a, b) for a in range(D) for b in range(D)]
    B = [np.array([[1.0 / D]], dtype=complex) for _ in range(D * D)]
    return PhasePoint(d=D * D, D=D, Dj=1, C=C, B=B, kappa_norm=1.0, label=f"cluster-D{D}")


def perturb_point(
    base: PhasePoint,
    strength: float,
    junk_dim: int,
    seed: int,
    *,
    k_max: int = K_MAX_DEFAULT,
) -> PhasePoint:
    """Perturb the junk matrices at fixed byproduct operators.

    B_i = (1/sqrt(d)) (b_i I + strength R_i) with b_i the scalar junk of the base
    point and R_i seeded complex Gaussian matrices, renormalized so the junk
    channel has spectral radius one.  Deterministic in (base, strength, junk_dim, seed).
    The returned point carries the block length of its injectivity check.
    """
    if not 0.0 <= strength < 1.0:
        raise ValidationError(f"strength must lie in [0, 1), got {strength}")
    if junk_dim < 1:
        raise ValidationError(f"junk_dim must be >= 1, got {junk_dim}")
    if base.Dj != 1:
        raise ValidationError("perturb_point expects a scalar-junk base point")
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(base.d)
    raw = []
    for i in range(base.d):
        b_i = complex(base.B[i][0, 0]) * np.sqrt(base.d)
        r_i = (rng.standard_normal((junk_dim, junk_dim)) + 1j * rng.standard_normal((junk_dim, junk_dim))) / np.sqrt(2)
        raw.append(scale * (b_i * np.eye(junk_dim) + strength * r_i))
    radius = _spectral_radius(raw)
    if radius <= 0:
        raise InjectivityFailure("perturbation produced a zero junk channel; retry with another seed")
    kappa = 1.0 / np.sqrt(radius)
    point = PhasePoint(
        d=base.d,
        D=base.D,
        Dj=junk_dim,
        C=base.C,
        B=[kappa * b for b in raw],
        kappa_norm=kappa,
        label=f"{base.label}-perturbed-s{strength}-j{junk_dim}-seed{seed}",
    )
    try:
        k = check_injectivity(point, k_max=k_max)
    except NotInjective as exc:
        raise InjectivityFailure(
            f"perturbed point is not injective for K <= {k_max}; retry with a different seed or larger strength"
        ) from exc
    return dataclasses.replace(point, injectivity_K=k)


def check_injectivity(point: PhasePoint, k_max: int = K_MAX_DEFAULT, rtol: float = RANK_RTOL) -> int:
    """Smallest block length K <= k_max whose d^K blocked tensors span all bond operators."""
    Db = point.Db
    tensors = point.site_tensors()
    blocks = np.eye(Db, dtype=complex)[None]
    for k in range(1, k_max + 1):
        blocks = (tensors[:, None] @ blocks).reshape(-1, Db, Db)  # A_a M for each a, then each M
        if len(blocks) < Db * Db:
            continue  # fewer blocks than bond operators cannot span them
        svals = np.linalg.svd(blocks.reshape(len(blocks), -1), compute_uv=False)
        rank = int(np.sum(svals > rtol * svals[0])) if svals[0] > 0 else 0
        if rank == Db * Db:
            return k
    raise NotInjective(k_max)


@dataclass(frozen=True)
class SymmetryData:
    """Projective (bond) and linear (physical) representations of Z_D x Z_D."""

    group: str
    D: int
    V: dict = field(repr=False)
    u: dict = field(repr=False)


def weyl_symmetry_data(D: int) -> SymmetryData:
    """Heisenberg-Weyl data for the d = D^2 cluster family.

    u(g) is diagonal in the wire basis with the commutator phases
    V(g)^dag V(h) V(g) = omega^{a b_h - b a_h} V(h).
    """
    omega = np.exp(2j * np.pi / D)
    V = {(a, b): weyl_unitary(D, a, b) for a in range(D) for b in range(D)}
    u = {}
    for a in range(D):
        for b in range(D):
            phases = [omega ** ((a * bh - b * ah) % D) for ah in range(D) for bh in range(D)]
            u[(a, b)] = np.diag(np.array(phases, dtype=complex))
    return SymmetryData(group=f"Z{D}xZ{D}", D=D, V=V, u=u)


@dataclass(frozen=True)
class ByproductMatch:
    index: int
    group_element: tuple | None
    phase: complex | None
    deviation: float


@dataclass(frozen=True)
class SymmetryReport:
    matches: tuple[ByproductMatch, ...]
    passed: bool


def check_byproduct_symmetry(point: PhasePoint, sym: SymmetryData, tol: float = SYMMETRY_TOL) -> SymmetryReport:
    """Match every C_i to phase * V(g) for some group element g, up to tol."""
    if sym.D != point.D:
        raise DimensionMismatch(f"symmetry data is for D={sym.D}, point has D={point.D}")
    matches = []
    for i, c in enumerate(point.C):
        best = ByproductMatch(i, None, None, np.inf)
        for g, v in sym.V.items():
            phase = np.trace(v.conj().T @ c) / point.D
            if abs(phase) < 1e-14:
                continue
            phase = phase / abs(phase)
            dev = float(np.linalg.norm(c - phase * v))
            if dev < best.deviation:
                best = ByproductMatch(i, g, complex(phase), dev)
        if best.deviation > tol:
            best = ByproductMatch(i, None, None, best.deviation)
        matches.append(best)
    return SymmetryReport(tuple(matches), all(m.group_element is not None for m in matches))


def encode_matrix(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _decode_matrix(data) -> np.ndarray:
    try:
        return np.array([[complex(re, im) for re, im in row] for row in data], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed complex matrix entry: {exc}") from exc


def save_model(point: PhasePoint, path) -> None:
    doc = {
        "schema": SCHEMA,
        "label": point.label,
        "d": point.d,
        "D": point.D,
        "Dj": point.Dj,
        "C": [encode_matrix(c) for c in point.C],
        "B": [encode_matrix(b) for b in point.B],
        "kappa_norm": float(point.kappa_norm),
    }
    Path(path).write_text(json.dumps(doc))


def load_model(path, validate: bool = True) -> PhasePoint:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "schema" not in doc:
        raise ParseError("missing 'schema' field")
    if doc["schema"] != SCHEMA:
        raise SchemaVersionError(f"unsupported schema {doc['schema']!r}, expected {SCHEMA!r}")
    for key in ("label", "d", "D", "Dj", "C", "B", "kappa_norm"):
        if key not in doc:
            raise ParseError(f"missing {key!r} field")
    point = PhasePoint(
        d=int(doc["d"]),
        D=int(doc["D"]),
        Dj=int(doc["Dj"]),
        C=[_decode_matrix(m) for m in doc["C"]],
        B=[_decode_matrix(m) for m in doc["B"]],
        kappa_norm=float(doc["kappa_norm"]),
        label=str(doc["label"]),
    )
    return require_valid(point) if validate else point
