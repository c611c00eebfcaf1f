"""Correctness checks on the outputs the workloads produce.

Each check returns a list of problems; an empty list means the output is
correct.  None of them trusts the code it checks: coverage and matching are
recomputed with a literal double loop over ``geom.kabsch_rmsd``.
"""
from __future__ import annotations

import hashlib

import numpy as np

from moldiff import geom

# tolerance on |coordinate mean| for a chain's output to count as centred
CENTRED_TOL = 1e-9


def params_digest(params: dict[str, np.ndarray]) -> str:
    """SHA-256 over every parameter's name and bytes, in name order."""
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name]).tobytes())
    return h.hexdigest()


def training_problems(history: list[dict[str, float]], params: dict[str, np.ndarray]) -> list[str]:
    """Every recorded loss and every parameter is finite."""
    problems = []
    for row in history:
        for key, value in row.items():
            if not np.isfinite(value):
                problems.append(f"epoch {row.get('epoch')}: loss {key} = {value}")
    for name, arr in params.items():
        if not np.all(np.isfinite(arr)):
            problems.append(f"parameter {name} is not finite")
    return problems


def coords_problem(coords: np.ndarray, n_atoms: int) -> str | None:
    """Why a sampled conformation is wrong, or None."""
    if coords.shape != (n_atoms, 3):
        return f"shape {coords.shape}, expected ({n_atoms}, 3)"
    if not np.all(np.isfinite(coords)):
        return "non-finite coordinates"
    off = float(np.abs(coords.mean(axis=0)).max())
    if off > CENTRED_TOL:
        return f"not centred: |mean| {off:.3e}"
    return None


def conformation_problems(refs, gens, per_mol: int) -> list[str]:
    """``gens`` holds ``per_mol`` samples of each reference topology, in
    order; each keeps its topology and is finite and centred."""
    if len(gens) != len(refs) * per_mol:
        return [f"{len(gens)} conformations for {len(refs)} x {per_mol}"]
    problems = []
    for idx, gen in enumerate(gens):
        ref = refs[idx // per_mol]
        if gen.topo != ref.topo:
            problems.append(f"conformation {idx}: topology changed")
        why = coords_problem(gen.geom.coords, ref.n_atoms)
        if why:
            problems.append(f"conformation {idx}: {why}")
    return problems


def topology_problems(refs, outs) -> list[str]:
    """One sampled topology per reference geometry, on that geometry."""
    if len(outs) != len(refs):
        return [f"{len(outs)} topologies for {len(refs)} geometries"]
    problems = []
    for idx, (ref, out) in enumerate(zip(refs, outs)):
        if out.n_atoms != ref.n_atoms:
            problems.append(f"topology {idx}: {out.n_atoms} atoms, expected {ref.n_atoms}")
        elif not np.array_equal(out.geom.coords, ref.geom.coords):
            problems.append(f"topology {idx}: conditioning coordinates changed")
    return problems


def covmat_problems(report: dict, refs, gens, per_mol: int, delta: float) -> list[str]:
    """The ``eval-covmat`` report equals a literal double loop over
    ``geom.kabsch_rmsd``, exactly."""
    coverages, matchings = [], []
    for i, ref in enumerate(refs):
        best = np.inf
        for gen in gens[i * per_mol : (i + 1) * per_mol]:
            best = min(best, geom.kabsch_rmsd(ref.geom.coords, gen.geom.coords))
        coverages.append(1.0 if best <= delta else 0.0)
        matchings.append(float(best))
    want = {
        "coverage": float(np.mean(np.array(coverages))),
        "matching": float(np.mean(np.array(matchings))),
        "n_molecules": len(refs),
        "per_molecule": [
            {"coverage": c, "matching": m} for c, m in zip(coverages, matchings)
        ],
    }
    return [
        f"covmat {key}: report {report.get(key)!r}, double loop {value!r}"
        for key, value in want.items()
        if report.get(key) != value
    ]
