"""Per-layer tracing for the benchmark, from outside the package.

Each public function the benchmark attributes to a layer is replaced by a
timing wrapper in every module that holds a binding to it (``render``, for
example, is imported by name into ``sim.env``, ``sim`` and ``evaluation``).
Wrappers nest: a span's self time is its duration minus the time of the
spans it encloses. Nothing under ``src/`` is modified; ``install`` fails
when a binding is left unwrapped, so a missed binding cannot read as 0 ms.

The program is single-threaded and has no queues, so no layer waits for
another: there is no wait time to report.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict

# Layers reported with a call count and self time, in report order.
LAYERS = (
    "planner.decompose",
    "sim.render", "sim.fold", "sim.expert",
    "images.png_write", "images.pgm_write", "images.png_read", "images.pgm_read",
    "perception.segment", "perception.text_tower", "perception.image_tower",
    "perception.fusion", "perception.decoder",
    "autodiff.backward", "autodiff.adam",
    "trainer.prepare", "trainer.loss", "trainer.clip",
    "checkpoint.save", "checkpoint.load",
    "evaluation.episode", "evaluation.target", "evaluation.metrics",
    "geometry.backproject",
)

# Backward closures reported one by one: the ops that take at least 2% of
# backward time in the train workload (D=64, DoRA, cross-attention). The
# rest is summed into ``autodiff.bw.other``.
BW_OPS = ("matmul", "layer_norm", "conv1x1", "softmax", "bilinear_upsample",
          "tanh", "mul", "add", "scale_columns", "scale")

WAIT_NOTE = "no wait time: one thread, no queues"


class Tracer:
    """In-memory span statistics keyed by (phase, layer)."""

    def __init__(self):
        self.phase = "setup"
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.nbytes = defaultdict(int)
        self.episode_s: list[float] = []      # inclusive run_episode time, loop only
        self.counts = defaultdict(int)        # phase-independent counters
        self._stack: list[float] = []
        self._in_step = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _close(self, layer: str, t0: float) -> float:
        dt = time.perf_counter() - t0
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += dt
        key = (self.phase, layer)
        self.calls[key] += 1
        self.self_s[key] += dt - child
        return dt

    def span(self, fn, layer, after=None):
        """Wrap ``fn`` as a span named ``layer`` (a string, or a function of
        the call's positional arguments). ``after(args, result, seconds)``
        runs when the call returns normally."""

        def traced(*args, **kwargs):
            name = layer if isinstance(layer, str) else layer(args)
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(name, t0)
                raise
            dt = self._close(name, t0)
            if after is not None:
                after(args, out, dt)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> int:
        n = 0
        for mod in list(sys.modules.values()):
            d = getattr(mod, "__dict__", None)
            if not d:
                continue
            for attr, val in list(d.items()):
                if val is original:
                    setattr(mod, attr, replacement)
                    self._restore.append((mod, attr, original))
                    n += 1
        return n

    def _wrap_function(self, module: str, attr: str, layer, after=None):
        original = getattr(importlib.import_module(module), attr)
        if self._replace_everywhere(original, self.span(original, layer, after)) == 0:
            raise RuntimeError(f"{module}.{attr}: no binding found to trace")
        return original

    def _wrap_method(self, cls, attr: str, replacement):
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        """Wrap every traced function and method; fail on a missed binding."""
        import clothfold.cli  # noqa: F401  (load every module that binds a target)
        from clothfold import autodiff as ad
        from clothfold.perception.decoder import CunDecoder
        from clothfold.perception.encoder import EncoderBlock, FrozenEncoder
        from clothfold.perception.fusion import FusionBlock
        from clothfold.sim.env import ClothSim

        originals = []
        counts = self.counts

        def file_bytes(layer):
            def after(args, out, dt):
                self.nbytes[(self.phase, layer)] += os.path.getsize(args[0])
            return after

        def on_render(args, out, dt):
            counts["renders"] += 1
            if self._in_step:
                counts["renders_in_step"] += 1

        def counting(total_key, unit_key, units):
            def hook(fn):
                def counted(*args, **kwargs):
                    before = counts["renders"]
                    out = fn(*args, **kwargs)
                    counts[total_key] += counts["renders"] - before
                    counts[unit_key] += units(out)
                    return out
                counted.__wrapped__ = fn
                return counted
            return hook

        def keep_duration(args, out, dt):
            if self.phase == "loop":
                self.episode_s.append(dt)

        plain = [
            ("clothfold.planner.templates", "decompose", "planner.decompose", None),
            ("clothfold.sim.render", "render", "sim.render", on_render),
            ("clothfold.sim.mesh", "fold", "sim.fold", None),
            ("clothfold.sim.expert", "scripted_expert", "sim.expert", None),
            ("clothfold.images", "write_png_rgb", "images.png_write",
             file_bytes("images.png_write")),
            ("clothfold.images", "write_pgm16", "images.pgm_write",
             file_bytes("images.pgm_write")),
            ("clothfold.images", "read_png_rgb", "images.png_read",
             file_bytes("images.png_read")),
            ("clothfold.images", "read_pgm16", "images.pgm_read",
             file_bytes("images.pgm_read")),
            ("clothfold.perception.model", "segment_workspace", "perception.segment", None),
            ("clothfold.trainer.train", "prepare_sample", "trainer.prepare", None),
            ("clothfold.trainer.heatmaps", "total_loss", "trainer.loss", None),
            ("clothfold.trainer.train", "clip_gradients", "trainer.clip", None),
            ("clothfold.checkpoint", "save_checkpoint", "checkpoint.save",
             file_bytes("checkpoint.save")),
            ("clothfold.checkpoint", "load_checkpoint", "checkpoint.load", None),
            ("clothfold.evaluation", "run_episode", "evaluation.episode", keep_duration),
            ("clothfold.evaluation", "expert_rollout", "evaluation.target", None),
            ("clothfold.evaluation", "mpd", "evaluation.metrics", None),
            ("clothfold.evaluation", "miou", "evaluation.metrics", None),
            ("clothfold.evaluation", "pixel_to_base", "geometry.backproject", None),
            ("clothfold.geometry", "action_to_primitives", "geometry.backproject", None),
        ]
        for module, attr, layer, after in plain:
            originals.append(self._wrap_function(module, attr, layer, after))

        # Render counters per generated demo and per episode; installed on top
        # of the spans above, so they see the traced render.
        for module, attr, total_key, unit_key, units in (
                ("clothfold.trainer.dataset", "generate_dataset",
                 "renders_in_gen", "demos_generated", lambda m: len(m.demos)),
                ("clothfold.evaluation", "run_episode",
                 "renders_in_episodes", "episodes", lambda r: 1)):
            current = getattr(importlib.import_module(module), attr)
            wrapped = counting(total_key, unit_key, units)(current)
            if self._replace_everywhere(current, wrapped) == 0:
                raise RuntimeError(f"{module}.{attr}: no binding found to count")
            originals.append(current)

        def tower(args):
            return ("perception.text_tower" if args[0].name.startswith("text.")
                    else "perception.image_tower")

        self._wrap_method(EncoderBlock, "forward",
                          self.span(EncoderBlock.forward, tower))
        self._wrap_method(FrozenEncoder, "embed_text",
                          self.span(FrozenEncoder.embed_text, "perception.text_tower"))
        self._wrap_method(FrozenEncoder, "embed_image",
                          self.span(FrozenEncoder.embed_image, "perception.image_tower"))
        self._wrap_method(FusionBlock, "fuse",
                          self.span(FusionBlock.fuse, "perception.fusion"))
        self._wrap_method(CunDecoder, "forward",
                          self.span(CunDecoder.forward, "perception.decoder"))
        self._wrap_method(ad.Adam, "step", self.span(ad.Adam.step, "autodiff.adam"))

        def on_backward(args, out, dt):
            counts["tapes"] += 1
            counts["tape_nodes"] += len(args[0].nodes)

        self._wrap_method(ad.Tape, "backward",
                          self.span(ad.Tape.backward, "autodiff.backward", on_backward))

        record = ad.Tape.record

        def traced_record(tape, out, inputs, backward_fn):
            op = backward_fn.__qualname__.split(".", 1)[0]
            record(tape, out, inputs, self.span(backward_fn, f"autodiff.bw.{op}"))

        self._wrap_method(ad.Tape, "record", traced_record)

        tensor_init = ad.Tensor.__init__

        def counted_init(tensor, *args, **kwargs):
            tensor_init(tensor, *args, **kwargs)
            if ad.Tape._active is not None:
                counts["tensors_on_tape"] += 1

        self._wrap_method(ad.Tensor, "__init__", counted_init)

        step = ClothSim.step

        def traced_step(sim, *args, **kwargs):
            self._in_step += 1
            try:
                return step(sim, *args, **kwargs)
            finally:
                self._in_step -= 1

        self._wrap_method(ClothSim, "step", traced_step)

        original_ids = {id(o) for o in originals}
        for module_name, mod in list(sys.modules.items()):
            d = getattr(mod, "__dict__", None) or {}
            for attr, val in d.items():
                if id(val) in original_ids:
                    raise RuntimeError(f"untraced binding {module_name}.{attr}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- report -------------------------------------------------------------

    def _per_unit(self, layer: str, table, n_iter: int, n_setup: int) -> float:
        """Per measured iteration for a layer that runs in the loop, else per
        set-up (layers that only run while setting up, e.g. checkpoints)."""
        loop = table[("loop", layer)]
        if self.calls[("loop", layer)]:
            return loop / max(n_iter, 1)
        return table[("setup", layer)] / max(n_setup, 1)

    def layer_metrics(self, n_iter: int, n_setup: int) -> dict:
        """Name -> (value, unit, better). A layer a workload never calls
        reads as 0 calls and 0 ms."""
        out = {}

        def put(name, value, unit, better):
            out[name] = (float(value), unit, better)

        for layer in LAYERS:
            put(f"{layer}.calls", self._per_unit(layer, self.calls, n_iter, n_setup),
                "count", "lower")
            put(f"{layer}.self_ms",
                1e3 * self._per_unit(layer, self.self_s, n_iter, n_setup), "ms", "lower")
        for layer in ("images.png_write", "images.pgm_write", "checkpoint.save"):
            name = "checkpoint.bytes" if layer == "checkpoint.save" else f"{layer}.bytes"
            put(name, self._per_unit(layer, self.nbytes, n_iter, n_setup), "bytes", "lower")

        c = self.counts
        put("sim.render.per_demo", c["renders_in_gen"] / max(c["demos_generated"], 1),
            "count", "lower")
        put("sim.render.per_episode", c["renders_in_episodes"] / max(c["episodes"], 1),
            "count", "lower")
        put("sim.render.useful_ratio",
            (c["renders"] - c["renders_in_step"]) / max(c["renders"], 1), "ratio", "higher")

        put("autodiff.tape_nodes_per_sample", c["tape_nodes"] / max(c["tapes"], 1),
            "count", "lower")
        put("autodiff.tensors_per_sample", c["tensors_on_tape"] / max(c["tapes"], 1),
            "count", "lower")
        bw_phase = "loop" if self.calls[("loop", "autodiff.backward")] else "setup"
        bw_div = max(n_iter if bw_phase == "loop" else n_setup, 1)
        other = 0.0
        for (phase, layer), s in self.self_s.items():
            if phase == bw_phase and layer.startswith("autodiff.bw.") \
                    and layer[len("autodiff.bw."):] not in BW_OPS:
                other += s
        for op in BW_OPS:
            put(f"autodiff.bw.{op}.self_ms",
                1e3 * self.self_s[(bw_phase, f"autodiff.bw.{op}")] / bw_div, "ms", "lower")
        put("autodiff.bw.other.self_ms", 1e3 * other / bw_div, "ms", "lower")

        p50, tail, tail_pct = episode_percentiles(self.episode_s)
        put("evaluation.episode.p50_ms", 1e3 * p50, "ms", "lower")
        put("evaluation.episode.tail_ms", 1e3 * tail, "ms", "lower")
        put("evaluation.episode.tail_pct", tail_pct, "pct", "higher")
        return out

    def bw_shares(self) -> dict:
        """Share of backward-closure time per op, over the whole run."""
        per_op = defaultdict(float)
        for (_, layer), s in self.self_s.items():
            if layer.startswith("autodiff.bw."):
                per_op[layer[len("autodiff.bw."):]] += s
        total = sum(per_op.values()) or 1.0
        return {op: s / total for op, s in sorted(per_op.items(), key=lambda kv: -kv[1])}


def episode_percentiles(durations: list) -> tuple[float, float, float]:
    """Median and the highest percentile with at least ten samples above it."""
    n = len(durations)
    if n == 0:
        return 0.0, 0.0, 0.0
    xs = sorted(durations)
    p50 = xs[(n - 1) // 2] if n % 2 else 0.5 * (xs[n // 2 - 1] + xs[n // 2])
    if n <= 10:
        return p50, p50, 50.0
    k = n - 11                       # ten samples lie strictly above xs[k]
    return p50, xs[k], 100.0 * (k + 1) / n
