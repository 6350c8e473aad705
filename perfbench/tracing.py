"""Per-layer spans recorded from outside the program.

Nothing under src/ knows about tracing.  `Recorder.install` replaces, in each
caller module, the name under which it binds a weakmeas function (for example
`weakmeas.protocols.apply_coupling` or `weakmeas.cli.direct_density`) with a
wrapper that records a span; `uninstall` puts the original objects back, so
an untraced pass runs exactly the code a user runs.

A span has a key such as `evolution.moment`; the part before the first dot is
its layer.  Self time is the span's duration minus the child spans on the
same thread.  Counts are computed from argument shapes and results, so they
repeat exactly between runs of the same inputs.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
import weakref
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor

# Span key -> function names.  A name is wrapped in every caller module that
# binds it, including its defining module when the module calls it itself.
SPANS = {
    "cli.main": ("main",),
    "cli.run": ("cmd_run",),
    "cli.report": ("cmd_report",),
    "cli.run_one_gt": ("_run_one_gt",),
    "protocols.route": (
        "direct_wavefunction", "direct_dirac", "direct_density",
        "scheme1_weak_product", "scheme2_weak_product", "weak_strong_product",
    ),
    "protocols.helper": (
        "extrapolate_sweep", "convergence_slope", "invert_dirac",
        "dirac_to_density", "mixed_state_response", "calibrate_scheme1",
    ),
    "evolution.make_joint": ("make_joint",),
    "evolution.couple": ("apply_coupling",),
    "evolution.cond_couple": ("apply_conditional_coupling",),
    "evolution.measure": ("strong_measure", "postselect"),
    "evolution.moment": ("joint_ann_moment",),
    "evolution.readout": (
        "pointer_moments", "reduced_position_density",
        "reduced_momentum_density", "reduced_system_density",
    ),
    "pointer.gaussian": ("gaussian_pointer",),
    "sampling": ("sample_protocol",),
    "oracle": (
        "weak_value_pure", "weak_value_mixed", "weak_average", "dirac_exact",
        "density_from_triple_exact", "weak_strong_exact",
    ),
    "hilbert": (
        "standard_ket", "fourier_ket", "standard_basis", "fourier_basis",
        "projector", "unbiasedness_defect", "triple_projector", "s_ab_operator",
        "random_density", "random_state", "trace_distance", "expectation",
    ),
}
CALLERS = (
    "weakmeas.cli", "weakmeas.protocols", "weakmeas.sampling",
    "weakmeas.oracle", "weakmeas.evolution",
)
POOL_WAIT = "cli.pool_wait"  # main thread blocked on cmd_run's pool: waiting, no layer


class Span:
    __slots__ = ("key", "thread", "parent", "start", "end", "child", "counts")

    def __init__(self, key: str, thread: int, parent: Span | None) -> None:
        self.key = key
        self.thread = thread
        self.parent = parent
        self.child = 0.0
        self.counts: dict = {}

    @property
    def layer(self) -> str | None:
        return None if self.key == POOL_WAIT else self.key.split(".")[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _tensor_bytes(joint) -> int:
    return sum(b.amps.size * b.amps.itemsize for b in joint.branches)


class Recorder:
    """Collects spans from every thread; one recorder per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._unread = weakref.WeakSet()  # conditioned states no readout has used yet
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _open(self, key: str) -> Span:
        stack = self._local.__dict__.setdefault("stack", [])
        span = Span(key, threading.get_ident(), stack[-1] if stack else None)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._local.stack
        stack.pop()
        if stack:
            stack[-1].child += span.duration
        self.spans.append(span)

    def take(self) -> list[Span]:
        """Spans recorded since the last call."""
        spans, self.spans = self.spans, []
        return spans

    # ------------------------------------------------------------ counts

    def _built(self, states) -> None:
        with self._lock:
            for state in states:
                self._unread.add(state)

    def _read(self, joint) -> int:
        with self._lock:
            if joint in self._unread:
                self._unread.discard(joint)
                return 1
        return 0

    def _count(self, key: str, args, result) -> dict:
        if key == "evolution.moment":
            joint, indices = args[0], args[1:]
            elems = len(joint.branches) * joint.branches[0].amps.size
            return {
                "calls": 1,
                "fft_elems": elems * (2 ** len(indices) - 1),
                "read": self._read(joint),
            }
        if key == "evolution.readout":
            return {"read": self._read(args[0])}
        if key == "evolution.measure":
            if isinstance(result, list):  # strong_measure
                states = [c for _, _, c in result if c is not None]
                outcomes = len(result)
            else:  # postselect
                states, outcomes = [result[1]], 1
            self._built(states)
            return {"outcomes": outcomes, "built": len(states)}
        if key == "sampling":
            return {"shots": args[1].shots}
        if key == "evolution.validate":
            return {"tensor_bytes": _tensor_bytes(args[0])}
        return {"calls": 1}

    # ------------------------------------------------------------ install

    def _wrap(self, fn, key: str):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = recorder._open(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(span)
            span.counts = recorder._count(key, args, result)
            return result

        return traced

    def _patch(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("recorder already installed")
        modules = [importlib.import_module(m) for m in CALLERS]
        for key, names in SPANS.items():
            for module in modules:
                for name in names:
                    fn = module.__dict__.get(name)
                    if callable(fn) and not isinstance(fn, type):
                        self._patch(module, name, self._wrap(fn, key))
        evolution = importlib.import_module("weakmeas.evolution")
        self._patch(
            evolution.JointState, "__init__",
            self._wrap(evolution.JointState.__init__, "evolution.validate"),
        )
        recorder = self

        class WaitedPool(ThreadPoolExecutor):
            def __enter__(self):
                self._wait_span = recorder._open(POOL_WAIT)
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    recorder._close(self._wait_span)

        self._patch(importlib.import_module("weakmeas.cli"), "ThreadPoolExecutor", WaitedPool)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures for the spans of one pass."""
    self_s: dict[str, float] = defaultdict(float)
    dur_s: dict[str, float] = defaultdict(float)
    counts: dict[str, Counter] = defaultdict(Counter)
    layer_self: dict[str, float] = defaultdict(float)
    tensor_bytes_max = 0
    for span in spans:
        own = span.duration - span.child
        self_s[span.key] += own
        dur_s[span.key] += span.duration
        counts[span.key].update(span.counts)
        if span.layer is not None:
            layer_self[span.layer] += own
        tensor_bytes_max = max(tensor_bytes_max, span.counts.get("tensor_bytes", 0))
    measure = counts["evolution.measure"]
    read = counts["evolution.moment"]["read"] + counts["evolution.readout"]["read"]
    shots = counts["sampling"]["shots"]
    cmd_run_s = dur_s["cli.run"]
    return {
        "cli.self_s": layer_self["cli"],
        "cli.report_s": dur_s["cli.report"],
        "cli.pool_overlap": dur_s["cli.run_one_gt"] / cmd_run_s if cmd_run_s else 0.0,
        "cli.pool_wait_s": self_s[POOL_WAIT],
        "protocols.self_s": layer_self["protocols"],
        "protocols.route_calls": counts["protocols.route"]["calls"],
        "evolution.moment_s": self_s["evolution.moment"],
        "evolution.moment.calls": counts["evolution.moment"]["calls"],
        "evolution.moment.fft_elems": counts["evolution.moment"]["fft_elems"],
        "evolution.measure_s": self_s["evolution.measure"],
        "evolution.measure.outcomes": measure["outcomes"],
        "evolution.measure.useful_frac": read / measure["built"] if measure["built"] else 0.0,
        "evolution.couple_s": self_s["evolution.couple"],
        "evolution.couple.calls": counts["evolution.couple"]["calls"],
        "evolution.cond_couple_s": self_s["evolution.cond_couple"],
        "evolution.cond_couple.calls": counts["evolution.cond_couple"]["calls"],
        "evolution.readout_s": self_s["evolution.readout"],
        "evolution.validate_s": self_s["evolution.validate"],
        "evolution.make_joint_s": self_s["evolution.make_joint"],
        "evolution.tensor_bytes_max": tensor_bytes_max,
        "pointer.gaussian_s": self_s["pointer.gaussian"],
        "pointer.gaussian.calls": counts["pointer.gaussian"]["calls"],
        "hilbert.s": self_s["hilbert"],
        "hilbert.calls": counts["hilbert"]["calls"],
        "oracle.s": self_s["oracle"],
        "sampling.self_s": self_s["sampling"],
        "sampling.shots": shots,
        "sampling.shots_per_s": shots / self_s["sampling"] if shots else 0.0,
        "trace.self_s": sum(layer_self.values()),
    }
