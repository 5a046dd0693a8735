"""In-memory span tracer that instruments cnfgrad from outside its source.

``Tracer.install`` replaces the public functions and methods listed in
``FUNCTIONS`` and ``METHODS`` with wrappers that record one span per
call, and wraps the ``Tensor`` constructor to count the tape nodes and
the bytes of their data arrays. A function is replaced under every name
that refers to it in every loaded ``cnfgrad`` module, because callers
look names up where they imported them: ``tasks`` and ``verify`` import
``cnf_loss``, ``assemble_prediction``, ``bound_loss``, ``brute_force``
and ``build_matrix`` by name. ``uninstall`` puts the originals back.

Spans hold name, start, end, parent span and run id, stay in memory,
and are written out once with ``dump`` after the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

# (module, function, span name)
FUNCTIONS = (
    ("tensor", "backward", "tensor.backward"),
    ("closs", "cnf_loss", "closs.cnf_loss"),
    ("closs", "cnf_loss_forward", "closs.cnf_loss_forward"),
    ("closs", "assemble_prediction", "closs.assemble_prediction"),
    ("closs", "bound_loss", "closs.bound_loss"),
    ("closs", "closed_form_grad", "closs.closed_form_grad"),
    ("nn", "run_training", "nn.run_training"),
    ("nn", "train_epoch", "nn.train_epoch"),
    ("nn", "predict_with_inference_trick", "nn.inference_trick"),
    ("tasks", "make_task", "tasks.make_task"),
    ("datasets", "synthetic_features", "datasets.synthetic_features"),
    ("datasets", "gen_grid_puzzles", "datasets.gen_grid_puzzles"),
    ("datasets", "solved_boards", "datasets.solved_boards"),
    ("datasets", "naked_single_completion", "datasets.naked_single_completion"),
    ("cnf", "build_matrix", "cnf.build_matrix"),
    ("cnf", "brute_force", "cnf.brute_force"),
    ("verify", "run_all", "verify.run_all"),
    ("verify", "golden_example", "verify.golden"),
    ("verify", "value_suite", "verify.value_suite"),
    ("verify", "gradient_suite", "verify.gradient_suite"),
    ("verify", "tgf_suite", "verify.tgf_suite"),
    ("verify", "finite_difference_suite", "verify.finite_difference_suite"),
)

# (module, class, method, span name); "TaskSpec" means every task class
# that defines the method itself.
METHODS = (
    ("nn", "Mlp", "forward", "nn.forward"),
    ("nn", "Mlp", "predict", "nn.predict"),
    ("nn", "Optimizer", "step", "nn.step"),
    ("tasks", "TaskSpec", "build_net", "tasks.build_net"),
    ("tasks", "TaskSpec", "make_data", "tasks.make_data"),
    ("tasks", "TaskSpec", "instance_loss", "tasks.instance_loss"),
    ("tasks", "TaskSpec", "evaluate", "tasks.evaluate"),
    ("tasks", "TaskSpec", "verify_board", "tasks.verify_board"),
)


def optional_span(tracer: "Tracer | None", name: str):
    """A span of ``tracer``, or nothing when the run is untraced."""
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _count_satisfiable(tracer: "Tracer", report) -> None:
    tracer.counts["cnf.brute_force.satisfiable"] += int(bool(report.satisfiable))


def _count_puzzles(tracer: "Tracer", puzzles) -> None:
    tracer.counts["datasets.gen_grid_puzzles.returned"] += len(puzzles)


# Span name -> hook run on the wrapped call's result.
RESULT_HOOKS = {
    "cnf.brute_force": _count_satisfiable,
    "datasets.gen_grid_puzzles": _count_puzzles,
}


class Tracer:
    """Span and counter store; one per benchmark process."""

    def __init__(self) -> None:
        self.name_ids: dict[str, int] = {}
        self.names: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.runs: list[int] = []
        self.nodes: list[int] = []
        self.nbytes: list[int] = []
        self.run_kinds: list[str] = []
        self.counts: dict[str, int] = {
            "cnf.brute_force.satisfiable": 0,
            "datasets.gen_grid_puzzles.returned": 0,
        }
        self.run_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def begin_run(self, kind: str) -> None:
        """Start a new run id (one set-up or one measured repetition)."""
        self.run_kinds.append(kind)
        self.run_id = len(self.run_kinds) - 1

    def open(self, name: str) -> int:
        name_id = self.name_ids.setdefault(name, len(self.name_ids))
        idx = len(self.names)
        self.names.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(self.run_id)
        self.nodes.append(0)
        self.nbytes.append(0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    # -- instrumentation ---------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self
        hook = RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(tracer, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, mods: dict) -> None:
        """Instrument the cnfgrad modules in ``mods`` (short name -> module)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = [m for n, m in sorted(sys.modules.items()) if n == "cnfgrad" or n.startswith("cnfgrad.")]
        for module, fname, span in FUNCTIONS:
            original = getattr(mods[module], fname)
            wrapper = self._wrap(original, span)
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        task_base = mods["tasks"].TaskSpec
        for module, cls_name, meth, span in METHODS:
            if cls_name == "TaskSpec":
                classes = [c for c in vars(mods[module]).values() if isinstance(c, type) and issubclass(c, task_base)]
            else:
                classes = [getattr(mods[module], cls_name)]
            for cls in classes:
                if meth in vars(cls):
                    self._patch(cls, meth, self._wrap(vars(cls)[meth], span))

        tensor_cls = mods["tensor"].Tensor
        original_init = tensor_cls.__init__
        stack, nodes, nbytes = self._stack, self.nodes, self.nbytes

        @functools.wraps(original_init)
        def counting_init(tensor, *args, **kwargs):
            original_init(tensor, *args, **kwargs)
            if stack:
                nodes[stack[-1]] += 1
                nbytes[stack[-1]] += tensor.data.nbytes

        self._patch(tensor_cls, "__init__", counting_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results --------------------------------------------------------------

    def summarize(self) -> tuple[dict, dict]:
        """Aggregate spans by run kind and name.

        Self time is a span's duration minus the time its child spans
        cover; nodes and bytes are counted inclusively, so a span's
        totals include those created inside its children. Returns
        ``{kind: {name: {"self_s", "calls", "nodes", "bytes"}}}`` totals
        and ``{kind: {"name<parent name": calls}}``.
        """
        count = len(self.names)
        names = {i: n for n, i in self.name_ids.items()}
        child_time = [0.0] * count
        incl_nodes = list(self.nodes)
        incl_bytes = list(self.nbytes)
        # Children always come after their parent, so one reverse sweep
        # folds every subtree into its root.
        for i in range(count - 1, -1, -1):
            p = self.parents[i]
            if p >= 0:
                child_time[p] += self.ends[i] - self.starts[i]
                incl_nodes[p] += incl_nodes[i]
                incl_bytes[p] += incl_bytes[i]
        out: dict = {}
        by_parent: dict = {}
        for i in range(count):
            kind = self.run_kinds[self.runs[i]]
            name = names[self.names[i]]
            row = out.setdefault(kind, {}).setdefault(name, {"self_s": 0.0, "calls": 0, "nodes": 0, "bytes": 0})
            row["self_s"] += (self.ends[i] - self.starts[i]) - child_time[i]
            row["calls"] += 1
            row["nodes"] += incl_nodes[i]
            row["bytes"] += incl_bytes[i]
            p = self.parents[i]
            parent = names[self.names[p]] if p >= 0 else ""
            key = f"{name}<{parent}"
            kind_counts = by_parent.setdefault(kind, {})
            kind_counts[key] = kind_counts.get(key, 0) + 1
        return out, by_parent

    def dump(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent, run."""
        names = {i: n for n, i in self.name_ids.items()}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"runs": self.run_kinds, "fields": ["name", "start", "end", "parent", "run"]}) + "\n")
            fh.writelines(
                json.dumps([names[self.names[i]], self.starts[i], self.ends[i], self.parents[i], self.runs[i]]) + "\n"
                for i in range(len(self.names))
            )
