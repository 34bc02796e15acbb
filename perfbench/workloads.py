"""The three benchmark workloads, their output checks and their metrics.

Every workload drives the library from outside, through ``training.train``,
``metrics.evaluate_sweep``, ``checkpoint.save_checkpoint``/``load_checkpoint``
and ``data.synthetic_dataset``.  All inputs (images, model initialisation,
shuffle and channel noise streams) are derived from the ``--seed`` argument.
See README.md in this directory for why each workload exists and which layer
metrics it is expected to move.

Untraced runs time the library under test against ``reference/dscjscc``, a
frozen copy of the library as it stood when the benchmark was defined.  Both
copies run in one process and take strict turns every few milliseconds (see
:class:`Duet`), and the timing metrics are ratios of the two.  That cancels
the bursts and drift of a shared host's speed, which raw times cannot escape.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import json
import math
import os
import resource
import statistics
import sys
import threading
import time
import traceback
import types
from pathlib import Path

import numpy as np

from tracer import KERNEL_OPS, Tracer

WORKLOADS = {
    # name: (variant, measured loop)
    "train-dense": ("baseline", "train"),
    "train-separable": ("dsc-jscc-100", "train"),
    "eval-sweep": ("dsc-jscc-60-e2d2", "sweep"),
}

INPUT_SHAPE = (32, 32, 3)  # (W, H, C)
CHANNEL_COUNT = 8
BATCH = 32
TRAIN_SNR_DB = 10.0
LEARNING_RATE = 1e-3
SNR_LIST = [0.0, 5.0, 10.0, 15.0, 19.0]
TRAIN_IMAGES = 64
EPISODE_STEPS = 8  # one train() call; a fixed length keeps its final loss bitwise repeatable
TRAIN_TEST_IMAGES = 16  # the train workloads sweep their trained model, 1 draw per image
TRAIN_SWEEPS = 2  # a 16-image sweep is short: two per unit give its median enough samples
SWEEP_IMAGES = 48  # eval-sweep test set: larger than one training batch
SWEEP_DRAWS = 3
PROBE_STEPS = 6  # train steps of the eval-sweep model after each sweep
SETUP_REPEATS = 5  # set-up takes about 20 ms: repeat it so its median rests on enough samples

MODULES = ("autodiff", "channel", "checkpoint", "complexity", "data", "kernels", "metrics", "model",
           "training")
REFERENCE = Path(__file__).resolve().parent / "reference" / "dscjscc"


def _import_package(name: str, package: Path) -> types.SimpleNamespace:
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    mods = {m: importlib.import_module(f"{name}.{m}") for m in MODULES}
    found = Path(mods["model"].__file__).resolve().parent
    if found != package.resolve():
        raise ImportError(f"{name} imported from {found}, expected {package}")
    return types.SimpleNamespace(**mods)


def load_library(root: Path) -> types.SimpleNamespace:
    """Import dscjscc from the checkout's src/, never from an installed copy."""
    package = root / "src" / "dscjscc"
    if not (package / "__init__.py").is_file():
        raise FileNotFoundError(f"no dscjscc sources under {package.parent}")
    return _import_package("dscjscc", package)


def load_reference() -> types.SimpleNamespace:
    """Import the frozen reference copy under its own package name."""
    return _import_package("dscjscc_reference", REFERENCE)


def source_digest(root: Path) -> str:
    """Digest of the library's and the benchmark's sources.

    The last bits of a loss can depend on what ran earlier in the process,
    most likely through array alignment in numpy's vectorised reductions, so
    a quality record binds only runs of the same benchmark code too.
    """
    h = hashlib.sha256()
    for path in sorted([*(root / "src" / "dscjscc").rglob("*.py"), *(root / "perfbench").rglob("*.py")]):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class NoResult(RuntimeError):
    """Too few successful operations to compute the metrics."""


class Checks:
    """Counts operations and output checks; a failure is reported, never fatal."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return bool(ok)

    def run(self, what: str, fn):
        """Run one library operation; an exception counts as a failed operation."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # the workload goes on and reports the failure
            self.failed += 1
            print(f"operation failed: {what}", file=sys.stderr)
            traceback.print_exc()
            return None


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """One workload on one seed, for one copy of the library, traced or not.

    Each unit of the measured loop is a whole experiment with identical
    inputs: set-up, the workload's main operation, a checkpoint round trip
    and a shorter run of the other operation (a sweep after training, a train
    probe after the sweep).  A unit is a generator that yields after each
    operation.  Every duration is read from :meth:`clock`, which stops while
    the run waits for its turn in a :class:`Duet`.
    """

    def __init__(self, lib, workload: str, seed: int, trace: bool, work_dir: Path, checks: Checks):
        self.lib = lib
        self.workload = workload
        self.variant_name, self.loop = WORKLOADS[workload]
        self.variant = lib.model.VariantId.from_name(self.variant_name)
        self.arch = lib.model.build_variant_architecture(self.variant, INPUT_SHAPE, CHANNEL_COUNT)
        self.work_dir = work_dir
        s = np.random.SeedSequence(seed).generate_state(6)
        self.seeds = dict(zip(("data", "test", "model", "shuffle", "channel", "eval"), map(int, s)))
        self.checks = checks
        self.tracer = Tracer() if trace else None
        # durations in seconds, keyed by whether the tracer was installed
        self.setup_s: dict[bool, list[float]] = {True: [], False: []}
        self.step_s: dict[bool, list[float]] = {True: [], False: []}
        self.sweep_s: dict[bool, list[float]] = {True: [], False: []}
        self.train_images = 0
        self.train_time = 0.0
        self.final_losses: list[float] = []
        self.sweep_rows: list[tuple] = []
        self.traced = False
        self.last = (None, None)  # (model, test set) of the latest unit
        self.peak_rss_mb = 0.0
        self.waited = 0.0  # seconds spent waiting for a turn
        self.duet: Duet | None = None
        self._install_hooks()  # before any tracer, whose uninstall restores them

    # -- tracing ------------------------------------------------------------
    def _set_tracing(self, on: bool) -> None:
        if self.tracer is None:
            return
        self.tracer.uninstall()
        self.traced = on
        if on:
            self.tracer.install(self.lib)

    def clock(self) -> float:
        return time.perf_counter() - self.waited

    def turn(self) -> None:
        """Let the other run of a duet go; a no-op outside a duet."""
        if self.duet is not None:
            self.duet.switch(self)

    def _install_hooks(self) -> None:
        """Time every optimizer step that train() runs, and offer the turn after
        each step, each kernel call and each PSNR.  The only hooks in untraced runs."""
        training = self.lib.training
        train_step = training.train_step
        run = self

        def timed_step(*args, **kwargs):
            t0 = run.clock()
            result = train_step(*args, **kwargs)
            run.step_s[run.traced].append(run.clock() - t0)
            run.turn()
            return result

        training.train_step = timed_step
        for owner, attr in ((self.lib.metrics, "psnr"), *((self.lib.kernels, k) for k in KERNEL_OPS)):
            self._turn_after(owner, attr)

    def _turn_after(self, owner, attr: str) -> None:
        original = getattr(owner, attr)
        run = self

        def hooked(*args, **kwargs):
            result = original(*args, **kwargs)
            run.turn()
            return result

        setattr(owner, attr, hooked)

    # -- building blocks ---------------------------------------------------
    def _dataset(self, count: int, key: str, split: str):
        return self.lib.data.synthetic_dataset(count, INPUT_SHAPE[0], seed=self.seeds[key], split=split)

    def _fresh_model(self):
        return self.lib.model.CodecModel(self.arch, variant=self.variant, seed=self.seeds["model"])

    def _train(self, model, images, steps: int) -> None:
        training, channel = self.lib.training, self.lib.channel
        cfg = training.TrainConfig(learning_rate=LEARNING_RATE, batch_size=BATCH, epochs=10_000,
                                   snr_db=TRAIN_SNR_DB, seed=self.seeds["shuffle"], max_steps=steps)
        ch = channel.ChannelConfig(power=model.power, snr_db=TRAIN_SNR_DB, seed=self.seeds["channel"])
        t0 = self.clock()
        result = self.checks.run("train", lambda: training.train(model, images, cfg, ch))
        self.train_time += self.clock() - t0
        if result is None:
            return
        self.train_images += len(result.history) * BATCH
        self.checks.expect(len(result.history) == steps, f"train ran {len(result.history)} of {steps} steps")
        for rec in result.history:
            self.checks.expect(math.isfinite(rec.loss), f"non-finite loss at step {rec.step}")
        self.final_losses.append(result.history[-1].loss)

    def _round_trip(self, model):
        ckpt = self.lib.checkpoint
        path = self.work_dir / f"ckpt-{os.getpid()}.dscj"
        try:
            loaded = self.checks.run("checkpoint round trip",
                                     lambda: (ckpt.save_checkpoint(model, path), ckpt.load_checkpoint(path))[1])
        finally:
            path.unlink(missing_ok=True)
        if loaded is None:
            return None
        same = loaded.params.keys() == model.params.keys() and all(
            np.array_equal(loaded.params[k].data, p.data.astype(np.float32).astype(np.float64))
            for k, p in model.params.items())
        self.checks.expect(same, "checkpoint round trip changed parameters beyond f32 rounding")
        return loaded

    def _check_power(self, model, images) -> None:
        z = self.checks.run("encode", lambda: model.encode(images))
        if z is None:
            return
        energy = np.sum(np.abs(z) ** 2, axis=1)
        target = model.k * model.power
        self.checks.expect(np.allclose(energy, target, rtol=1e-9, atol=0.0),
                           f"power constraint |z|^2 = k*P = {target} violated (max dev "
                           f"{np.max(np.abs(energy - target)):.3e})")

    def _sweep(self, model, test, draws: int) -> None:
        metrics = self.lib.metrics
        t0 = self.clock()
        rows = self.checks.run("evaluate_sweep", lambda: metrics.evaluate_sweep(
            model, test, SNR_LIST, draws_per_image=draws, seed=self.seeds["eval"]))
        elapsed = self.clock() - t0
        if rows is None:
            return
        self.sweep_s[self.traced].append(elapsed)
        for r in rows:
            self.checks.expect(math.isfinite(r.mean_psnr_db) and math.isfinite(r.std_psnr_db),
                               f"non-finite sweep row at {r.snr_db} dB")
        key = tuple((r.snr_db, r.mean_psnr_db, r.std_psnr_db, r.n_images, r.n_draws) for r in rows)
        if self.sweep_rows:
            self.checks.expect(key == self.sweep_rows[0], "sweep rows differ between identical sweeps")
        self.sweep_rows.append(key)

    def _setup(self, build):
        """Build the unit's state SETUP_REPEATS times, timing each; every build is identical."""
        for _ in range(SETUP_REPEATS):
            t0 = self.clock()
            state = build()
            self.setup_s[self.traced].append(self.clock() - t0)
            self.turn()
        return state

    # -- workloads -----------------------------------------------------------
    def _train_unit(self):
        """Set up, train a fresh seeded model, save and reload it, sweep the reloaded model."""
        def build():
            return (self._dataset(TRAIN_IMAGES, "data", "train"),
                    self._dataset(TRAIN_TEST_IMAGES, "test", "test"), self._fresh_model())

        train_set, test_set, model = self._setup(build)
        yield
        self._train(model, train_set, EPISODE_STEPS)
        yield
        loaded = self._round_trip(model)
        yield
        if loaded is not None:
            for _ in range(TRAIN_SWEEPS):
                self._sweep(loaded, test_set, 1)
        self.last = (loaded, test_set)

    def _sweep_unit(self):
        """Set up a seeded model through a checkpoint, sweep it, then the train probe on a copy."""
        def build():
            return (self._dataset(SWEEP_IMAGES, "test", "test"), self._dataset(BATCH, "data", "train"),
                    self._round_trip(self._fresh_model()))

        test_set, probe_set, loaded = self._setup(build)
        self.last = (loaded, test_set)
        if loaded is None:
            return
        yield
        self._sweep(loaded, test_set, SWEEP_DRAWS)
        yield
        copy = self.lib.model.CodecModel(self.arch, variant=self.variant, power=loaded.power,
                                         params={k: t.data.copy() for k, t in loaded.params.items()})
        self._train(copy, probe_set, PROBE_STEPS)

    def unit(self):
        return self._train_unit() if self.loop == "train" else self._sweep_unit()

    def warm_up(self) -> None:
        """Run one unit untimed, then record the peak resident set it reached.

        The warm-up lets lazy set-up in numpy and the allocator finish before
        timing.  Its samples are dropped; its output checks still count.
        """
        for _ in self.unit():
            pass
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for d in (self.setup_s, self.step_s, self.sweep_s):
            d[False].clear()
        self.train_images, self.train_time = 0, 0.0

    def execute(self, seconds: float, reference: Run | None = None) -> None:
        """Run units until ``seconds`` have passed; the unit in progress finishes.

        With a reference, this run and the reference run their units side by
        side in a :class:`Duet`.  Without one, traced and untraced units
        alternate.
        """
        if reference is not None:
            Duet(self, reference).run(seconds)
            return
        deadline = time.perf_counter() + seconds
        i = 0
        while i < 2 or time.perf_counter() < deadline:
            self._set_tracing(i % 2 == 0)
            try:
                for _ in self.unit():
                    pass
            finally:
                self._set_tracing(False)
            i += 1
        self.finish()

    def run_until(self, deadline: float) -> None:
        """Run units until the deadline, giving up the turn after each operation."""
        while True:
            for _ in self.unit():
                self.turn()
            if time.perf_counter() >= deadline:
                break

    def finish(self) -> None:
        model, test_set = self.last
        if model is not None:
            self._check_power(model, test_set.images)
        # every unit starts from the same seeded inputs: identical losses
        if self.final_losses:
            self.checks.expect(len(set(self.final_losses)) == 1,
                               f"final train loss differs between identical train() calls: {self.final_losses}")

    # -- results -----------------------------------------------------------
    def quality(self) -> dict[str, float]:
        if not self.final_losses or not self.sweep_rows:
            raise NoResult("no successful train() or evaluate_sweep() call to report")
        return {"train_loss_final": self.final_losses[0],
                "psnr_db_mean": statistics.fmean(r[1] for r in self.sweep_rows[0])}

    def check_repeatable(self, digest: str, seed: int, quality: dict[str, float]) -> None:
        """Same seed and same sources must give bitwise the same quality figures, run after run."""
        path = self.work_dir / f"quality-{self.workload}-{seed}-{digest}.json"
        if path.is_file():
            before = json.loads(path.read_text())
            for name, value in quality.items():
                self.checks.expect(before.get(name) == value,
                                   f"{name} {value!r} differs from an earlier run with this seed ({before.get(name)!r})")
        else:
            tmp = path.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps(quality))
            os.replace(tmp, path)

    def timings(self) -> dict[str, float]:
        """Raw untraced timings: set-up and sweep in s, step p50/p75 in ms, images per second."""
        steps, sweeps, setups = self.step_s[False], self.sweep_s[False], self.setup_s[False]
        if len(steps) < 2 or not sweeps or not setups or self.train_time <= 0:
            raise NoResult("too few successful steps or sweeps to report")
        return {"setup_s": statistics.median(setups),
                "train_step_ms_p50": 1e3 * statistics.median(steps),
                "train_step_ms_p75": 1e3 * percentile(steps, 75),
                "train_images_per_s": self.train_images / self.train_time,
                "sweep_s": statistics.median(sweeps)}

    def end_to_end(self, quality: dict[str, float], reference: Run) -> dict[str, tuple[float, str]]:
        """End-to-end metrics; each timing is a ratio to the reference, both from the same duet."""
        mine, ref = self.timings(), reference.timings()
        return {
            "setup_s": (mine["setup_s"], "s"),
            "train_step_p50_vs_ref": (mine["train_step_ms_p50"] / ref["train_step_ms_p50"], "ratio"),
            "train_step_p75_vs_ref": (mine["train_step_ms_p75"] / ref["train_step_ms_p75"], "ratio"),
            "train_images_per_s_vs_ref": (mine["train_images_per_s"] / ref["train_images_per_s"], "ratio"),
            "sweep_s_vs_ref": (mine["sweep_s"] / ref["sweep_s"], "ratio"),
            "train_loss_final": (quality["train_loss_final"], "mse"),
            "psnr_db_mean": (quality["psnr_db_mean"], "dB"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def samples(self) -> dict[str, int]:
        """Sample counts behind each median and percentile, untraced/traced."""
        return {f"{name}_{'traced' if traced else 'untraced'}": len(d[traced])
                for name, d in (("setups", self.setup_s), ("train_steps", self.step_s), ("sweeps", self.sweep_s))
                for traced in (False, True)}


class Duet:
    """Two runs in two threads that take strict turns, so only one ever computes.

    A run offers its turn after every operation of a unit, every train
    step, every kernel call and every PSNR of a sweep, and hands it over once
    it has held it for QUANTUM_S.  The two copies then alternate every few
    tens of milliseconds, inside train steps too, and a burst of contention
    on the host slows both alike, so their ratio holds.  Each run's clock stops
    while it waits for its turn.  Every switch costs the copies some cache
    state: with a turn per batch-1 decode (about 3 ms), decoding ran 19 %
    slower than alone on one core of a 2-core VM, so turns are longer.
    """

    QUANTUM_S = 0.1

    def __init__(self, first: Run, second: Run):
        self.runs = (first, second)
        self.cond = threading.Condition()
        self.turn = first
        self.since = 0.0  # when the current turn began
        self.done: set[Run] = set()

    def _other(self, run: Run) -> Run:
        return self.runs[1] if run is self.runs[0] else self.runs[0]

    def _wait_turn(self, run: Run) -> None:
        """Wait, holding self.cond, until it is run's turn or the other run has ended."""
        while self.turn is not run and self._other(run) not in self.done:
            self.cond.wait()

    def switch(self, run: Run) -> None:
        t0 = time.perf_counter()
        if t0 - self.since < self.QUANTUM_S:
            return
        with self.cond:
            self.turn = self._other(run)
            self.cond.notify_all()
            self._wait_turn(run)
        self.since = time.perf_counter()
        run.waited += self.since - t0

    def _body(self, run: Run, deadline: float, errors: list) -> None:
        try:
            with self.cond:
                self._wait_turn(run)
            self.since = time.perf_counter()
            run.run_until(deadline)
        except BaseException as e:  # re-raised by run() in the main thread
            errors.append(e)
        finally:
            with self.cond:
                self.done.add(run)
                self.cond.notify_all()

    def run(self, seconds: float) -> None:
        errors: list[BaseException] = []
        deadline = time.perf_counter() + seconds
        for run in self.runs:
            run.duet = self
        threads = [threading.Thread(target=self._body, args=(run, deadline, errors), name=f"duet-{i}",
                                    daemon=True) for i, run in enumerate(self.runs)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for run in self.runs:
            run.duet = None
        if errors:
            raise errors[0]
        for run in self.runs:
            run.finish()


def environment(workload: str, seed: int, seconds: float, trace: bool, blas_threads: int,
                cpu: int | None) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy too old for mode="dicts"
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload, "variant": WORKLOADS[workload][0], "seed": seed,
        "seconds": seconds, "trace": int(trace),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads, "pinned_cpu": cpu,
        "numpy": np.__version__, "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": sys.version.split()[0], "cpu": cpu,
    }
