"""In-memory tracing of one `spiralglue run` op, from outside the program.

The tracer replaces module attributes of the package (for example
`spiralglue.cli.decompose`, `spiralglue.verify.check_pair`, or the `norm`
that `spiralglue.bank` imported) with wrappers while an op runs, and restores
them afterwards. Every wrapper pushes a frame, so self time (duration minus
the time of wrapped children) is exact for each recorded name.

Stage-level calls keep one span each: (op, id, parent id, name, start, end).
The hot kernels (`norm`, `apply`, `blend_apply`, `embed`, `direction_gain`,
the weight evaluator) run hundreds of thousands of times per op, so they keep
only call counts and summed times; their time still counts as a child of the
enclosing span.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "schedule", "pointset", "spaces", "bank", "glue", "verify")

# (module the attribute lives in, attribute, recorded name, keep one span per call)
WRAPPED = (
    ("cli", "parse_config", "cli.parse_config", True),
    ("cli", "run_pipeline", "cli.run_pipeline", True),
    ("cli", "build_schedule", "schedule.build_schedule", True),
    ("cli", "generate_annular", "pointset.generate_annular", True),
    ("cli", "decompose", "pointset.decompose", True),
    ("cli", "_certify_vectors", "cli._certify_vectors", True),
    ("cli", "build_bank", "bank.build_bank", True),
    ("cli", "select_subsequence", "bank.select_subsequence", True),
    ("bank", "_level_ok", "bank._level_ok", True),
    ("cli", "distortion_report", "verify.distortion_report", True),
    ("verify", "check_pair", "verify.check_pair", True),
    ("cli", "embed_all", "glue.embed_all", True),
    ("cli", "_write_json", "cli._write_json", True),
    ("cli", "_write_pairs_csv", "cli._write_pairs_csv", True),
    ("verify", "embed", "glue.embed", False),
    ("glue", "embed", "glue.embed", False),
    ("verify", "direction_gain", "glue.direction_gain", False),
    ("glue", "active_weights_log", "schedule.active_weights_log", False),
    ("pointset", "norm", "spaces.norm", False),
    ("bank", "norm", "spaces.norm", False),
    ("glue", "norm", "spaces.norm", False),
    ("verify", "norm", "spaces.norm", False),
    ("bank", "blend_apply", "spaces.blend_apply", False),
    ("glue", "blend_apply", "spaces.blend_apply", False),
    ("bank", "apply", "spaces.apply", False),
    # the `apply` that blend_apply looks up inside spaces; its caller is the
    # module that called blend_apply
    ("spaces", "apply", "spaces.apply", False),
)


def _n_directions(args, kwargs, result):
    return {"pointset.directions": sum(len(level) for level in result.directions),
            "pointset.points": len(args[0])}


def _n_certify(args, kwargs, result):
    certify = args[5] if len(args) > 5 else kwargs["certify_set"]
    return {"bank.certify_vectors": len(certify)}


def _level_accepted(args, kwargs, result):
    return {"bank.select_accepted": int(result[0] >= 0.0)}


def _kept(args, kwargs, result):
    return {"verify.pair_checks_kept": len(getattr(result, "pair_checks", ()))}


# values read off a wrapped call's arguments and result
OBSERVERS = {
    "pointset.decompose": _n_directions,
    "bank.build_bank": _n_certify,
    "bank._level_ok": _level_accepted,
    "verify.distortion_report": _kept,
}


class Tracer:
    """Counts, times and spans of the ops run between install() and uninstall()."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._saved: list[tuple] = []
        self._next_id = 0
        self.op = -1

    def begin_op(self) -> None:
        """Start a fresh set of per-op counters; spans accumulate across ops."""
        self.op += 1
        # (name, calling module, enclosing span name) -> calls
        self.calls: Counter = Counter()
        # (name, calling module) -> seconds
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.values: Counter = Counter()

    def install(self) -> None:
        for mod_name, attr, name, keep in WRAPPED:
            module = importlib.import_module(f"spiralglue.{mod_name}")
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, mod_name, keep))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, module, keep):
        def wrapper(*args, **kwargs):
            return self.call(fn, name, module, keep, args, kwargs)

        return wrapper

    def call(self, fn, name, module, keep, args, kwargs=None):
        """Run fn(*args, **kwargs) as a frame named `name`, called from `module`."""
        kwargs = kwargs or {}
        stack = self._stack
        parent = stack[-1] if stack else None
        caller = parent[1] if module == "spaces" and parent else module
        scope = parent[2] if parent else None
        self.calls[(name, caller, scope)] += 1
        if keep:
            span_id = self._next_id
            self._next_id += 1
            scope = name
        else:
            span_id = parent[4] if parent else None
        # frame: name, calling module, enclosing span name, child seconds,
        # id of the span itself or of the enclosing one
        frame = [name, caller, scope, 0.0, span_id]
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            self.total[(name, caller)] += duration
            self.self_time[(name, caller)] += duration - frame[3]
            if parent:
                parent[3] += duration
            if keep:
                self.spans.append(
                    (self.op, span_id, parent[4] if parent else None, name, start, end)
                )
        observe = OBSERVERS.get(name)
        if observe is not None:
            self.values.update(observe(args, kwargs, result))
        return result


NORM_CALLERS = ("pointset", "bank", "glue", "verify")
APPLY_CALLERS = ("bank", "glue")


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(t: Tracer) -> dict[str, float]:
    """The per-layer metrics of the op last traced by t.

    Stage times (`*.build_s`, `decompose_s`, `sweep_s`, `select_s`, ...) are
    the wall time of the stage call, children included; `check_pair_s`,
    `embed_s`, `norm_s` and `<layer>.self_s` are self times.
    """

    def calls(name, caller=None, scope=None):
        return sum(
            v
            for (n, c, s), v in t.calls.items()
            if n == name and caller in (None, c) and scope in (None, s)
        )

    def total(name):
        return sum(v for (n, _), v in t.total.items() if n == name)

    def own(name, caller=None):
        return sum(v for (n, c), v in t.self_time.items() if n == name and caller in (None, c))

    pair_diffs = calls("spaces.norm", scope="pointset.decompose") - t.values["pointset.points"]
    directions = t.values["pointset.directions"]
    candidates = calls("bank._level_ok")
    m = {
        "schedule.build_s": total("schedule.build_schedule"),
        "schedule.weight_calls": calls("schedule.active_weights_log"),
        "pointset.generate_s": total("pointset.generate_annular"),
        "pointset.decompose_s": total("pointset.decompose"),
        "pointset.pair_diffs": pair_diffs,
        "pointset.directions": directions,
        "pointset.dedup_ratio": _share(directions, pair_diffs),
        "bank.build_s": total("bank.build_bank"),
        "bank.certify_vectors": t.values["bank.certify_vectors"],
        "bank.certify_evals": calls("spaces.apply", scope="bank.build_bank"),
        "bank.select_s": total("bank.select_subsequence"),
        "bank.select_candidates": candidates,
        "bank.select_accept_ratio": _share(t.values["bank.select_accepted"], candidates),
        "verify.sweep_s": total("verify.distortion_report"),
        "verify.check_pair_calls": calls("verify.check_pair"),
        "verify.check_pair_s": own("verify.check_pair"),
        "verify.pair_checks_kept": t.values["verify.pair_checks_kept"],
        "glue.embed_calls": calls("glue.embed"),
        "glue.embed_s": own("glue.embed"),
        "glue.gain_calls": calls("glue.direction_gain"),
        "spaces.norm_calls": calls("spaces.norm"),
        "spaces.norm_s": own("spaces.norm"),
        "spaces.apply_calls": calls("spaces.apply"),
        "cli.parse_s": total("cli.parse_config"),
        "cli.write_s": total("cli._write_json") + total("cli._write_pairs_csv"),
    }
    for caller in NORM_CALLERS:
        m[f"spaces.norm_calls.{caller}"] = calls("spaces.norm", caller)
        m[f"spaces.norm_s.{caller}"] = own("spaces.norm", caller)
    for caller in APPLY_CALLERS:
        m[f"spaces.apply_calls.{caller}"] = calls("spaces.apply", caller)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            v for (n, _), v in t.self_time.items() if n.split(".")[0] == layer
        )
    return m
