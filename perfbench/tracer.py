"""Span recording by wrapping module attributes at run time.

Each wrapped call records a span ``[name, start_ns, end_ns, parent]``
(``parent`` indexes the enclosing span, -1 at the top).  Spans stay in
memory until ``dump``.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

import scipy.optimize

from uqcr import bounds, certainty, cli, coherence
from uqcr import majorization as mj

# (owner, attribute, span name, private hook, counter)
# Attributes are wrapped where the program looks them up, so a function
# imported by name into another module is wrapped in that module.
HOOKS = (
    (cli, "main", "cli.main", False, None),
    (cli, "parse_observable_file", "cli.parse_observable_file", False, None),
    (cli, "_dump_json", "cli._dump_json", True, None),
    (cli, "_atomic_write", "cli._atomic_write", True, None),
    (bounds, "infimum_t", "bounds.infimum_t", False, None),
    (bounds, "supremum_s", "bounds.supremum_s", False, None),
    (bounds, "enumerate_choices", "bounds.enumerate_choices", False,
     lambda c, r: c.update(choice_ops=len(r))),
    (bounds, "max_topn_over_states", "bounds.max_topn_over_states", False, None),
    (bounds, "_Oracle", "bounds._Oracle", True,
     lambda c, r: c.update(oracle_states=int(r.states.shape[0]))),
    (bounds, "_eig_seed_states", "bounds._eig_seed_states", True, None),
    (bounds, "_kelley_dual_bound", "bounds._kelley_dual_bound", True, None),
    (bounds, "_min_level_all_states", "bounds._min_level_all_states", True, None),
    (bounds, "_nm_multistart", "bounds._nm_multistart", True, None),
    (scipy.optimize, "linprog", "scipy.optimize.linprog", False, None),
    (scipy.optimize, "minimize", "scipy.optimize.minimize", False,
     lambda c, r: c.update(nm_fevs=int(r.nfev))),
    (certainty, "certify_state", "certainty.certify_state", False, None),
    (certainty, "born_probabilities", "quantum.born_probabilities", False, None),
    (mj, "is_majorized_by", "majorization.is_majorized_by", False, None),
    (mj, "lorenz", "majorization.lorenz", False, None),
    (mj, "from_unsorted", "majorization.from_unsorted", False, None),
    (mj, "direct_sum", "majorization.direct_sum", False, None),
    (mj, "shannon_entropy", "majorization.shannon_entropy", False, None),
    (mj, "relative_entropy_term", "majorization.relative_entropy_term", False, None),
    (mj, "join", "majorization.join", False, None),
    (coherence, "coherence_vector_mixed_approx", "coherence.coherence_vector_mixed_approx",
     False, None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.private: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        for owner, attr, name, private, counter in HOOKS:
            if not hasattr(owner, attr):
                self.absent.append(name)
            elif private:
                self.private.append(name)

    def install(self) -> None:
        for owner, attr, name, _private, counter in HOOKS:
            orig = getattr(owner, attr, None)
            if orig is not None:
                setattr(owner, attr, self._wrap(orig, name, counter))
                self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _wrap(self, orig, name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter_ns()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                counter(counts, result)
            return result

        return traced

    def totals(self):
        """Per span name: inclusive seconds, self seconds and call count."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive, own, calls = defaultdict(float), defaultdict(float), Counter()
        for (name, start, end, _parent), covered in zip(self.spans, child):
            inclusive[name] += (end - start) * 1e-9
            own[name] += (end - start - covered) * 1e-9
            calls[name] += 1
        return inclusive, own, calls

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
