"""Spans around the calls into each lefsig module, recorded from outside.

`Tracer.install` rebinds the public names listed in TARGETS wherever a lefsig
module holds them (the defining module, the modules that import them and the
package namespace), plus `Matrix.__matmul__`; `uninstall` puts the originals
back.  Nothing inside lefsig changes.  A span is (name, start, end, parent,
job); spans stay in memory until `write` is called after the pass.

A span's self time is its duration minus the durations of its direct
children.  Its module is the part of its name before the first dot.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

# (module, attribute, span name).  Several functions may share one span name;
# the name is then a group, and its inclusive time counts only the outermost
# call of the group, so nested calls (kernel_basis -> solve_linear) are not
# counted twice within the group.
TARGETS = (
    ("lefsig.cli", "main", "cli.main"),
    ("lefsig.cli", "parse_fibration_document", "cli.parse"),
    ("lefsig.cli", "parse_matrix_document", "cli.parse"),
    ("lefsig.engine", "signature", "engine.signature"),
    ("lefsig.engine", "local_sigma", "engine.local_sigma"),
    ("lefsig.engine", "local_sigma_via_maslov", "engine.local_sigma_via_maslov"),
    ("lefsig.symplectic", "word_action", "symplectic.word_action"),
    ("lefsig.symplectic", "transvection", "symplectic.transvection"),
    ("lefsig.symplectic", "is_symplectic", "symplectic.is_symplectic"),
    ("lefsig.symplectic", "graph_lagrangians", "symplectic.graph_lagrangians"),
    ("lefsig.ratlinalg", "solve_linear", "ratlinalg.solve"),
    ("lefsig.ratlinalg", "solve_many", "ratlinalg.solve"),
    ("lefsig.ratlinalg", "span_basis", "ratlinalg.span"),
    ("lefsig.ratlinalg", "intersect_spans", "ratlinalg.span"),
    ("lefsig.ratlinalg", "sum_spans", "ratlinalg.span"),
    ("lefsig.ratlinalg", "kernel_basis", "ratlinalg.span"),
    ("lefsig.ratlinalg", "in_span", "ratlinalg.span"),
    ("lefsig.ratlinalg", "rank", "ratlinalg.span"),
    ("lefsig.ratlinalg", "signature_symmetric", "ratlinalg.signature_symmetric"),
    ("lefsig.maslov", "fiber_sum_defect", "maslov.fiber_sum_defect"),
    ("lefsig.maslov", "wall_space", "maslov.wall_space"),
    ("lefsig.cover", "correction_sigma", "cover.correction_sigma"),
    ("lefsig.positive", "generate", "positive.generate"),
    ("lefsig.positive", "signature_zero_certificate", "positive.certificate"),
)
MATMUL = "ratlinalg.matmul"
MODULES = ("cli", "engine", "symplectic", "ratlinalg", "maslov", "cover", "positive")
Span = tuple[str, float, float, int, int]


def _bits(x: Any) -> int:
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.stack: list[int] = []
        self.job = -1
        self.records: list[Any] = []  # StepRecords of the current job
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if hook is not None:
                hook(result)
            return result

        return traced

    def install(self) -> None:
        from lefsig import ratlinalg

        hooks = {
            "engine.local_sigma": self.records.append,
            "maslov.wall_space": self._wall_dim,
        }
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "lefsig" or name.startswith("lefsig."))]
        for module_name, attr, span in TARGETS:
            orig = getattr(sys.modules[module_name], attr, None)
            if orig is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            traced = self.wrap(span, orig, hooks.get(span))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._undo.append((module, key, orig))
                        setattr(module, key, traced)
        matrix = ratlinalg.Matrix
        self._undo.append((matrix, "__matmul__", matrix.__matmul__))
        matrix.__matmul__ = self.wrap(MATMUL, matrix.__matmul__)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def _wall_dim(self, wall: Any) -> None:
        self.counts["maslov.wall_dim.total"] += wall.form_matrix.rows

    def end_job(self) -> None:
        """Fold the current job's step records into the counts, outside any
        timed region, and drop them."""
        c = self.counts
        for rec in self.records:
            if rec.cycle.is_null_homologous:
                c["engine.steps.null"] += 1
            elif rec.solvable:
                c["engine.steps.solvable"] += 1
            else:
                c["engine.steps.unsolvable"] += 1
            phi_bits = max(_bits(x) for row in rec.cumulative_action.entries for x in row)
            c["engine.max_phi_bits"] = max(c["engine.max_phi_bits"], phi_bits)
            if rec.witness is not None:
                c["engine.max_witness_bits"] = max(
                    c["engine.max_witness_bits"], max(_bits(x) for x in rec.witness))
        self.records.clear()

    def write(self, path: Path) -> None:
        with path.open("w") as out:
            out.write("job\tname\tstart\tend\tparent\n")
            for name, start, end, parent, job in self.spans:
                out.write(f"{job}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")

    def summary(self) -> dict[str, float]:
        """Per-name calls, inclusive and self time; per-module self time."""
        spans = self.spans
        n = len(spans)
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * n
        groups: dict[str, int] = {}
        mask = [0] * n  # bit set of names on the span's ancestor chain
        under_ladder = [False] * n
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, _, _, parent, _) in enumerate(spans):
            bit = 1 << groups.setdefault(name, len(groups))
            if parent >= 0:
                child[parent] += dur[i]
                pname = spans[parent][0]
                mask[i] = mask[parent] | (1 << groups[pname])
                under_ladder[i] = under_ladder[parent] or pname == "cover.correction_sigma"
            calls[name] += 1
            if not mask[i] & bit:
                incl[name] += dur[i]
        module_self: dict[str, float] = defaultdict(float)
        for i, (name, *_rest) in enumerate(spans):
            own = dur[i] - child[i]
            self_s[name] += own
            module_self[name.split(".", 1)[0]] += own
        out: dict[str, float] = {}
        for name in set(calls) | {t[2] for t in TARGETS} | {MATMUL}:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.s"] = incl.get(name, 0.0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for module in MODULES:
            out[f"{module}.self_s"] = module_self.get(module, 0.0)
        out["cover.matmul.calls"] = sum(
            1 for i, s in enumerate(spans) if s[0] == MATMUL and under_ladder[i])
        out["trace.spans"] = n
        for key in ("engine.steps.solvable", "engine.steps.unsolvable", "engine.steps.null",
                    "engine.max_phi_bits", "engine.max_witness_bits", "maslov.wall_dim.total"):
            out[key] = self.counts.get(key, 0)
        return out
