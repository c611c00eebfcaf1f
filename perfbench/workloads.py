"""The benchmark's workloads: what each one sets up and what one round does.

A workload builds its inputs from the workload seed in ``setup`` and then
runs rounds, each a fixed mix of operations (training steps and sampled
chains) driven through moldiff's public API by one caller.  ``run_round``
returns what the round attempted, what failed, its wall time and a digest of
everything it produced, so two runs of one seed can be compared bitwise.

Every moldiff function is called through its module (``objectives.train``,
not a name imported from it), so the wrappers the traced run installs see
every call.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from moldiff import cli, config, geom, model, moldata, objectives, sampling, synthetic

from . import checks

# the recipe of acceptance gate 6: TRAIN_OVERRIDES, TRAIN_BATCH and TRAIN_LR
# in tests/test_acceptance.py
GATE_OVERRIDES = {
    "model.hidden": "48", "model.edge_hidden": "48",
    "model.layers": "2", "model.attn_layers": "1",
    "model.proj_dim": "16", "model.time_freqs": "8",
    "sde.variant": "ve", "sde.sigma_max": "7.0", "sde.steps": "250",
}
GATE_BATCH = 24
GATE_LR = 3e-3
CORPUS_SIZE = 200

# widths small enough for a test to run every workload in seconds
SMOKE_OVERRIDES = {
    "model.hidden": "8", "model.edge_hidden": "8",
    "model.layers": "1", "model.attn_layers": "1",
    "model.proj_dim": "4", "model.time_freqs": "4", "model.rbf_count": "6",
    "sde.variant": "ve", "sde.sigma_max": "7.0", "sde.steps": "4",
}


@dataclass
class Round:
    """Outcome of one round of a workload."""

    wall_s: float
    work: int  # training steps plus sampled chains
    attempted: int  # steps, chains and CLI commands
    failed: int
    digest: str
    problems: list[str] = field(default_factory=list)


def round_seed(seed: int, index: int) -> int:
    """Seed handed to the program for round ``index`` of a run."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


def _history_bytes(history: list[dict[str, float]]) -> bytes:
    return json.dumps(history, sort_keys=True).encode()


def _no_span(name):
    return contextlib.nullcontext()


class TrainGate:
    """Gate-6 training: ``objectives.train`` over a 200-molecule corpus; one
    round is one epoch (9 steps of batch 24, the last one 8 molecules)."""

    name = "train-gate"

    def __init__(self, smoke: bool = False):
        self.overrides = SMOKE_OVERRIDES if smoke else GATE_OVERRIDES
        self.corpus_size = 12 if smoke else CORPUS_SIZE
        self.batch = 4 if smoke else GATE_BATCH

    def setup(self, seed: int, workdir: str):
        cfg = config.load_config(None, dict(self.overrides))
        corpus = synthetic.gen_synthetic(self.corpus_size, seed)
        mdl = model.Model.init(cfg.model_config(), cfg.schedule(), seed)
        return {"seed": seed, "corpus": corpus, "model": mdl}

    def run_round(self, state, index: int, span=_no_span) -> Round:
        steps = -(-len(state["corpus"]) // self.batch)
        t0 = time.perf_counter()
        try:
            with span("bench.train"):
                history = objectives.train(
                    state["corpus"], state["model"], epochs=1, batch_size=self.batch,
                    lr=GATE_LR, weights=objectives.LossWeights(),
                    seed=round_seed(state["seed"], index), max_steps=steps,
                )
        except Exception as exc:  # a raising step fails the round's steps
            return Round(time.perf_counter() - t0, steps, steps, steps, "", [repr(exc)])
        wall = time.perf_counter() - t0
        params = state["model"].params
        problems = checks.training_problems(history, params)
        digest = _digest(_history_bytes(history), checks.params_digest(params).encode())
        return Round(wall, steps, steps, steps if problems else 0, digest, problems)


def stratified_subset(corpus, seed: int, sizes: tuple[int, ...]):
    """One molecule per target atom count, drawn with the seed from the
    corpus molecules of that size (or of the nearest size present), so every
    seed samples the same size profile."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5A)))
    present = sorted({p.n_atoms for p in corpus})
    out = []
    for size in sizes:
        nearest = min(present, key=lambda n: (abs(n - size), n))
        pool = [p for p in corpus if p.n_atoms == nearest and p not in out]
        out.append(pool[int(rng.integers(len(pool)))])
    return out


class SampleGate:
    """In-process CLI: ``sample-conf --per-mol 2``, ``eval-covmat`` and
    ``sample-topo`` on a size-stratified subset of the gate corpus, with a
    checkpoint written at set-up and the gate schedule (250 reverse steps,
    one corrector round)."""

    name = "sample-gate"
    per_mol = 2
    delta = 0.5

    def __init__(self, smoke: bool = False):
        self.overrides = SMOKE_OVERRIDES if smoke else GATE_OVERRIDES
        self.corpus_size = 12 if smoke else CORPUS_SIZE
        self.sizes = (5,) if smoke else (6, 10)

    def setup(self, seed: int, workdir: str):
        cfg = config.load_config(None, dict(self.overrides))
        corpus = synthetic.gen_synthetic(self.corpus_size, seed)
        refs = stratified_subset(corpus, seed, self.sizes)
        refs_path = os.path.join(workdir, "refs.txt")
        moldata.write_corpus(refs_path, refs)
        ckpt = os.path.join(workdir, "model.ckpt")
        model.Model.init(cfg.model_config(), cfg.schedule(), seed).save(ckpt)
        sets = [arg for k, v in self.overrides.items() for arg in ("--set", f"{k}={v}")]
        return {"seed": seed, "refs": refs, "refs_path": refs_path, "ckpt": ckpt,
                "sets": sets, "workdir": workdir}

    def _command(self, argv, span) -> int:
        with span(f"cli.{argv[0]}"), contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    @staticmethod
    def _read(path, problems):
        """A sampled corpus as ``read_corpus`` validates it, or None."""
        try:
            return moldata.read_corpus(path)
        except moldata.ValidationError as exc:
            problems.append(f"{os.path.basename(path)}: {exc}")
            return None

    def run_round(self, state, index: int, span=_no_span) -> Round:
        refs, k = state["refs"], self.per_mol
        out = {name: os.path.join(state["workdir"], f"{name}.{index}")
               for name in ("conf", "report", "topo")}
        common = ["--corpus", state["refs_path"], "--checkpoint", state["ckpt"],
                  "--seed", str(round_seed(state["seed"], index)), *state["sets"]]
        n_conf, n_topo = len(refs) * k, len(refs)
        problems: list[str] = []
        failed = 0
        t0 = time.perf_counter()
        rc_conf = self._command(
            ["sample-conf", *common, "--per-mol", str(k), "--out", out["conf"]], span)
        rc_cov = self._command(
            ["eval-covmat", "--references", state["refs_path"], "--generated", out["conf"],
             "--per-mol", str(k), "--delta", str(self.delta), "--out", out["report"]], span)
        rc_topo = self._command(["sample-topo", *common, "--out", out["topo"]], span)
        wall = time.perf_counter() - t0

        for cmd, rc, chains in (("sample-conf", rc_conf, n_conf),
                                ("eval-covmat", rc_cov, 0), ("sample-topo", rc_topo, n_topo)):
            if rc != 0:
                problems.append(f"{cmd} exited {rc}")
                failed += 1 + chains
        gens = self._read(out["conf"], problems) if rc_conf == 0 else None
        if gens is None:
            failed += 0 if rc_conf else 1 + n_conf
        else:
            bad = checks.conformation_problems(refs, gens, k)
            problems += bad
            failed += min(len(bad), n_conf)
            if rc_cov == 0:
                with open(out["report"], encoding="utf-8") as fh:
                    report = json.load(fh)
                bad = checks.covmat_problems(report, refs, gens, k, self.delta)
                problems += bad
                failed += 1 if bad else 0
        topos = self._read(out["topo"], problems) if rc_topo == 0 else None
        if topos is None:
            failed += 0 if rc_topo else 1 + n_topo
        else:
            bad = checks.topology_problems(refs, topos)
            problems += bad
            failed += min(len(bad), n_topo)
        blobs = []
        for path in out.values():
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    blobs.append(fh.read())
                os.remove(path)
        return Round(wall, n_conf + n_topo, n_conf + n_topo + 3, failed,
                     _digest(*blobs), problems)


# tetrahedral zigzag for chain backbones, as gen_synthetic draws them
BOND = 1.5
_HALF = np.deg2rad(109.47128 / 2.0)
_ELEMENTS = np.array([6, 6, 6, 6, 7, 8], dtype=np.int64)
_VALENCE = {6: 4, 7: 3, 8: 2}


def large_molecule(kind: str, n: int, rng: np.random.Generator) -> moldata.MoleculePair:
    """A chain, ring or branched chain of ``n`` atoms, built from the public
    record types with ``gen_synthetic``'s geometry rules at a larger size."""
    n_branch = n // 5 if kind == "branched" else 0
    m = n - n_branch
    k = np.arange(m)
    if kind == "ring":
        radius = BOND / (2.0 * np.sin(np.pi / m))
        phi = 2.0 * np.pi * k / m
        coords = np.stack([radius * np.cos(phi), radius * np.sin(phi), np.zeros(m)], axis=1)
        pairs = [(i, (i + 1) % m) for i in range(m)]
    else:
        coords = np.stack(
            [k * BOND * np.sin(_HALF), (k % 2) * BOND * np.cos(_HALF), np.zeros(m)], axis=1)
        pairs = [(i, i + 1) for i in range(m - 1)]
    types = _ELEMENTS[rng.integers(0, len(_ELEMENTS), size=n)]
    if n_branch:
        hosts = np.sort(rng.choice(np.arange(1, m - 1), size=n_branch, replace=False))
        stubs = []
        for b, host in enumerate(hosts):
            side = 1.0 if b % 2 == 0 else -1.0
            stubs.append(coords[host] + np.array([0.0, 0.3 * side, 1.47 * side]))
            pairs.append((int(host), m + b))
        coords = np.concatenate([coords, np.array(stubs)])
        types[hosts] = 6  # a branch point has degree 3
    bonds = np.array(sorted((min(i, j), max(i, j), 0, 0, 0) for i, j in pairs), dtype=np.int64)
    degree, aromatic, in_ring = moldata.derived_atom_columns(n, bonds)
    atoms = np.zeros((n, 9), dtype=np.int64)
    atoms[:, 0] = types
    atoms[:, 2] = degree
    atoms[:, 4] = np.maximum(np.array([_VALENCE[int(t)] for t in types]) - degree, 0)
    atoms[:, 6] = 2  # sp3
    atoms[:, 7] = aromatic
    atoms[:, 8] = in_ring
    coords = geom.center_coordinates(coords + rng.uniform(-0.05, 0.05, size=coords.shape))
    pair = moldata.MoleculePair(
        moldata.Molecule2D(atoms, bonds), moldata.Molecule3D(types.copy(), coords))
    # the text format's validation is the arbiter of a well-formed record
    return moldata.parse_molecule(moldata.serialize_molecule(pair))


class LargeMol:
    """Molecules of 24-36 atoms: per round one training step on all of them
    (batch 4) plus one short conformation chain per molecule."""

    name = "large-mol"
    chain_steps = 10

    def __init__(self, smoke: bool = False):
        self.overrides = dict(SMOKE_OVERRIDES if smoke else GATE_OVERRIDES)
        if not smoke:
            self.overrides["sde.steps"] = str(self.chain_steps)
        self.sizes = (8, 9) if smoke else (24, 28, 32, 36)

    def setup(self, seed: int, workdir: str):
        cfg = config.load_config(None, dict(self.overrides))
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0x1A)))
        kinds = ("chain", "ring", "branched")
        mols = [large_molecule(kinds[int(rng.integers(3))], n, rng) for n in self.sizes]
        mdl = model.Model.init(cfg.model_config(), cfg.schedule(), seed)
        return {"seed": seed, "mols": mols, "model": mdl}

    def run_round(self, state, index: int, span=_no_span) -> Round:
        mols, mdl = state["mols"], state["model"]
        seed = round_seed(state["seed"], index)
        attempted = 1 + len(mols)
        t0 = time.perf_counter()
        try:
            with span("bench.train"):
                history = objectives.train(
                    mols, mdl, epochs=1, batch_size=len(mols), lr=GATE_LR,
                    weights=objectives.LossWeights(), seed=seed, max_steps=1)
            samples = []
            for i, pair in enumerate(mols):
                rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
                with span("bench.chain"):
                    samples.append(sampling.sample_conformation(mdl, pair.topo, rng))
        except Exception as exc:
            return Round(time.perf_counter() - t0, attempted, attempted, attempted, "",
                         [repr(exc)])
        wall = time.perf_counter() - t0
        problems = checks.training_problems(history, mdl.params)
        failed = 1 if problems else 0
        for i, (pair, coords) in enumerate(zip(mols, samples)):
            why = checks.coords_problem(coords, pair.n_atoms)
            if why:
                problems.append(f"chain {i}: {why}")
                failed += 1
        digest = _digest(_history_bytes(history), checks.params_digest(mdl.params).encode(),
                         *(c.tobytes() for c in samples))
        return Round(wall, attempted, attempted, failed, digest, problems)


WORKLOADS = {w.name: w for w in (TrainGate, SampleGate, LargeMol)}
