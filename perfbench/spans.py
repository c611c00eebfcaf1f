"""Spans recorded around moldiff's public functions, from outside the package.

``Tracer.install`` replaces each function in ``TRACED`` at every module
binding that holds it (``from .encoders import encode_2d`` binds the name
again in ``scorenets`` and ``objectives``) by one wrapper that records a
span: name, start, end, parent span and operation id.  Spans stay in memory
until the run ends; ``uninstall`` puts the original functions back.

An operation is a training step or a sampled chain.  A call to a function in
``OPERATIONS`` that is not nested in another one starts a new operation, and
every span after it carries that operation's id until the next one starts.
"""
from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from contextlib import contextmanager

TRACED = (
    ("moldiff.autodiff", "Tensor.backward"),
    ("moldiff.autodiff", "adam_step"),
    ("moldiff.autodiff", "load_checkpoint"),
    ("moldiff.objectives", "total_loss"),
    ("moldiff.objectives", "loss_2d_to_3d"),
    ("moldiff.objectives", "loss_3d_to_2d"),
    ("moldiff.encoders", "encode_2d"),
    ("moldiff.encoders", "encode_3d"),
    ("moldiff.scorenets", "conf_score"),
    ("moldiff.scorenets", "topo_scores"),
    ("moldiff.geom", "edge_frames"),
    ("moldiff.geom", "rbf_expand"),
    ("moldiff.sde", "pc_sample"),
    ("moldiff.sde", "predictor_step"),
    ("moldiff.sde", "langevin_corrector"),
    ("moldiff.sampling", "sample_conformation"),
    ("moldiff.sampling", "sample_topology"),
    ("moldiff.moldata", "read_corpus"),
    ("moldiff.moldata", "write_corpus"),
    ("moldiff.moldata", "decode_topology"),
    ("moldiff.metrics", "cov_mat"),
    ("moldiff.synthetic", "gen_synthetic"),
)

# span name -> kind of operation it starts
OPERATIONS = {
    "objectives.total_loss": "step",
    "sampling.sample_conformation": "conf_chain",
    "sde.pc_sample": "conf_chain",
    "sampling.sample_topology": "topo_chain",
}
# spans that end a training step after its loss
STEP_TAIL = ("autodiff.backward", "autodiff.adam_step")


def _mask_arg(args, kwargs):
    return kwargs.get("mask", args[3] if len(args) > 3 else None)


def _topology_key(args, kwargs) -> bytes:
    topo = args[0]
    raw = topo.atoms.tobytes() + b"|" + topo.bonds.tobytes()
    return hashlib.blake2b(raw + repr(_mask_arg(args, kwargs)).encode()).digest()


def _geometry_key(args, kwargs) -> bytes:
    geom = args[0]
    raw = geom.atom_types.tobytes() + b"|" + geom.coords.tobytes()
    return hashlib.blake2b(raw + repr(_mask_arg(args, kwargs)).encode()).digest()


# functions whose input is digested to count calls on input already encoded
# in the same operation
INPUT_KEYS = {"encoders.encode_2d": _topology_key, "encoders.encode_3d": _geometry_key}


class Tracer:
    """In-memory span recorder; one per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.op_kinds: list[str] = []  # index = operation id
        self.op_spans: list[int] = []  # span that started each operation
        self.nodes = 0  # autodiff tensors constructed
        self.input_calls: dict[str, int] = {}
        self.input_repeats: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._open_ops = 0
        self._seen: dict[str, set] = {}
        self._seen_op = -1
        self._undo: list[tuple[object, str, object]] = []

    @property
    def op(self) -> int:
        return len(self.op_kinds) - 1

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _note_input(self, name: str, key: bytes) -> None:
        if self._seen_op != self.op:
            self._seen = {}
            self._seen_op = self.op
        seen = self._seen.setdefault(name, set())
        self.input_calls[name] = self.input_calls.get(name, 0) + 1
        if key in seen:
            self.input_repeats[name] = self.input_repeats.get(name, 0) + 1
        seen.add(key)

    def _wrapper(self, name: str, fn):
        kind = OPERATIONS.get(name)
        key_fn = INPUT_KEYS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            starts_op = kind is not None and tracer._open_ops == 0
            if kind is not None:
                tracer._open_ops += 1
            if starts_op:
                tracer.op_kinds.append(kind)
            if key_fn is not None:
                tracer._note_input(name, key_fn(args, kwargs))
            idx = tracer._open(name)
            if starts_op:
                tracer.op_spans.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                if kind is not None:
                    tracer._open_ops -= 1

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at each of its bindings in the
        imported ``moldiff`` modules, and count autodiff tensors."""
        mods = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "moldiff" or n.startswith("moldiff."))
        ]
        for modname, attr in TRACED:
            mod = sys.modules.get(modname)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = getattr(owner, fn_name, None)
            name = f"{modname.rpartition('.')[2]}.{fn_name}"
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._wrapper(name, fn)
            if owner_name:
                bindings = [(owner, fn_name)]
            else:
                bindings = [
                    (m, key) for m in mods for key, val in vars(m).items() if val is fn
                ]
            for target, key in bindings:
                setattr(target, key, wrapper)
                self._undo.append((target, key, fn))
        if self.missing:
            print(f"trace: not found, left untraced: {self.missing}", file=sys.stderr)

        tensor = sys.modules["moldiff.autodiff"].Tensor
        init = tensor.__init__
        tracer = self

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            tracer.nodes += 1

        tensor.__init__ = counted_init
        self._undo.append((tensor, "__init__", init))

    def uninstall(self) -> None:
        while self._undo:
            target, key, fn = self._undo.pop()
            setattr(target, key, fn)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per span: its duration minus the time its child spans cover.
        Children of one span never overlap (one thread), so that is the
        duration minus the sum of the children's durations."""
        child = [0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[idx] - self.starts[idx]
        return [e - s - c for s, e, c in zip(self.starts, self.ends, child)]

    def layer_totals(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, total and self nanoseconds."""
        out: dict[str, dict[str, int]] = {}
        for name, s, e, own in zip(self.names, self.starts, self.ends, self.self_times()):
            row = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["total_ns"] += e - s
            row["self_ns"] += own
        return out

    def op_latencies_ms(self) -> dict[str, list[float]]:
        """Wall time of each operation, by kind.  A chain is the outermost
        span that started it; a step runs from its ``total_loss`` call to
        the end of its backward pass and Adam update."""
        tail_end: dict[int, int] = {}
        for name, end, op in zip(self.names, self.ends, self.ops):
            if name in STEP_TAIL:
                tail_end[op] = end
        out: dict[str, list[float]] = {}
        for op, idx in enumerate(self.op_spans):
            stop = max(self.ends[idx], tail_end.get(op, 0))
            out.setdefault(self.op_kinds[op], []).append((stop - self.starts[idx]) / 1e6)
        return out

    def write(self, path) -> None:
        """Write every span as JSON: name, start and end in ns, parent index,
        operation id, plus the operation kinds."""
        payload = {
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": [
                list(row)
                for row in zip(self.names, self.starts, self.ends, self.parents, self.ops)
            ],
            "op_kinds": self.op_kinds,
            "tensor_nodes": self.nodes,
            "untraced": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
