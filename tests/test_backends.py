"""The pluggable backend registry and the vectorized engine backend.

Covers the selection machinery itself (precedence chain, env var,
unknown names, unavailable extras), the vectorized backend's fallback
rules, and the byte-level artifacts the backend contract promises:
identical JSONL trace streams and backend-pinned sweep journals.

Everything here runs on a numpy-less install too: vectorized-specific
cases skip (never fail) when the ``[perf]`` extra is absent.
"""

import io
import random

import pytest

from repro.algorithms.linial import LinialColoring
from repro.algorithms.rand_tree_coloring import (
    ColorBiddingAlgorithm,
    ColorBiddingConfig,
)
from repro.core import (
    BACKEND_ENV_VAR,
    Model,
    ReproError,
    available_backend_names,
    backend_names,
    current_backend_name,
    get_backend,
    register_backend,
    run_local,
    use_backend,
)
from repro.core.backend import _REGISTRY
from repro.faults import FaultPlan
from repro.graphs.generators import cycle_graph, random_tree_bounded_degree

NUMPY_AVAILABLE = "vectorized" in available_backend_names()

needs_vectorized = pytest.mark.skipif(
    not NUMPY_AVAILABLE,
    reason="vectorized backend unavailable ([perf] extra not installed)",
)


@pytest.fixture
def scratch_backend():
    """Register a temporary backend; restore the registry afterwards."""
    registered = []

    def add(name, loader, description=""):
        assert name not in _REGISTRY
        register_backend(name, loader, description=description)
        registered.append(name)
        return get_backend(name)

    yield add
    for name in registered:
        del _REGISTRY[name]


def _color_bidding_tree(n=200, seed=1):
    graph = random_tree_bounded_degree(n, 9, random.Random(seed))
    return graph, {"config": ColorBiddingConfig(), "main_palette": 6}


# ----------------------------------------------------------------------
# Registry and selection precedence
# ----------------------------------------------------------------------
class TestRegistry:
    def test_shipped_backends_registered(self):
        assert backend_names() == ("fast", "reference", "vectorized")

    def test_fast_and_reference_always_available(self):
        available = available_backend_names()
        assert "fast" in available
        assert "reference" in available

    def test_unknown_backend_name_raises_with_known_set(self, monkeypatch):
        # "sharded" is a removed backend: every selection route must
        # reject it as loudly as a name that never existed.
        for name in ("warp-drive", "sharded"):
            known = (
                f"unknown engine backend '{name}'; "
                "registered backends: fast, reference, vectorized"
            )
            with pytest.raises(ReproError, match=known):
                get_backend(name)
            with pytest.raises(ReproError, match=known):
                with use_backend(name):
                    pass  # pragma: no cover — must not be reached
            monkeypatch.setenv(BACKEND_ENV_VAR, name)
            with pytest.raises(ReproError, match=known):
                run_local(cycle_graph(4), LinialColoring(), Model.DET)
            monkeypatch.delenv(BACKEND_ENV_VAR)

    def test_run_local_rejects_unknown_backend(self):
        with pytest.raises(ReproError, match="unknown engine backend"):
            run_local(
                cycle_graph(4),
                LinialColoring(),
                Model.DET,
                backend="warp-drive",
            )

    def test_use_backend_rejects_unknown_name_eagerly(self):
        with pytest.raises(ReproError, match="unknown engine backend"):
            with use_backend("warp-drive"):
                pass  # pragma: no cover — must not be reached

    def test_unavailable_backend_skipped_not_failed(self, scratch_backend):
        def loader():
            raise ReproError(
                "the 'phantom' backend requires a missing extra"
            )

        backend = scratch_backend("phantom", loader)
        assert not backend.available()
        assert "phantom" in backend_names()
        assert "phantom" not in available_backend_names()
        # Selecting it is allowed; the run itself raises the guidance.
        with use_backend("phantom"):
            with pytest.raises(ReproError, match="missing extra"):
                run_local(cycle_graph(4), LinialColoring(), Model.DET)

    def test_replacing_the_default_backend_is_honored(self):
        """register_backend("fast", ...) replaces the default: every
        selection route (default, explicit, ambient) must route through
        the registry entry, not a hardwired engine."""
        calls = []
        original = _REGISTRY["fast"]

        def probe_runner(*args, **kwargs):
            calls.append("probe")
            return original.load()(*args, **kwargs)

        register_backend(
            "fast", lambda: probe_runner, description="probe override"
        )
        try:
            graph = cycle_graph(4)
            run_local(graph, LinialColoring(), Model.DET)
            run_local(
                graph, LinialColoring(), Model.DET, backend="fast"
            )
            with use_backend("fast"):
                run_local(graph, LinialColoring(), Model.DET)
        finally:
            _REGISTRY["fast"] = original
        assert calls == ["probe", "probe", "probe"]

    def test_vectorized_loader_guidance_without_numpy(self, monkeypatch):
        """The loader's ImportError branch names the install command."""
        import importlib

        from repro.core import engine

        def refuse(name):
            raise ImportError("No module named 'numpy'")

        monkeypatch.setattr(importlib, "import_module", refuse)
        with pytest.raises(ReproError, match=r"repro\[perf\]"):
            engine._load_vectorized_backend()


class TestSelectionPrecedence:
    def test_default_is_fast(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert current_backend_name() == "fast"

    def test_env_var_beats_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        assert current_backend_name() == "reference"

    def test_ambient_scope_beats_env_var(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        with use_backend("fast"):
            assert current_backend_name() == "fast"
        assert current_backend_name() == "reference"

    def test_scopes_nest_innermost_wins(self):
        with use_backend("reference"):
            with use_backend("fast"):
                assert current_backend_name() == "fast"
            assert current_backend_name() == "reference"

    def test_scope_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with use_backend("reference"):
                raise RuntimeError("boom")
        assert current_backend_name() == "fast"

    def test_explicit_argument_beats_ambient(self, scratch_backend):
        calls = []

        def probe_runner(*args, **kwargs):
            calls.append("probe")
            from repro.core.engine import _run_local_fast

            return _run_local_fast(*args, **kwargs)

        scratch_backend("probe", lambda: probe_runner)
        with use_backend("reference"):
            run_local(
                cycle_graph(4),
                LinialColoring(),
                Model.DET,
                backend="probe",
            )
        assert calls == ["probe"]

    def test_env_var_selects_run_local_backend(
        self, monkeypatch, scratch_backend
    ):
        calls = []

        def probe_runner(*args, **kwargs):
            calls.append("probe")
            from repro.core.engine import _run_local_fast

            return _run_local_fast(*args, **kwargs)

        scratch_backend("probe", lambda: probe_runner)
        monkeypatch.setenv(BACKEND_ENV_VAR, "probe")
        run_local(cycle_graph(4), LinialColoring(), Model.DET)
        assert calls == ["probe"]


# ----------------------------------------------------------------------
# Vectorized backend: kernel path and fallback rules
# ----------------------------------------------------------------------
@needs_vectorized
class TestVectorizedBackend:
    def test_kernel_registered_for_color_bidding(self):
        from repro.backends.vectorized import kernel_for

        assert kernel_for(ColorBiddingAlgorithm()) is not None

    def test_supports_veto_large_palette(self):
        """Palettes beyond the int64 bitmask width fall back — and the
        fallback result still matches the fast engine bit-for-bit."""
        from repro.backends.vectorized import run_local_vectorized

        graph, params = _color_bidding_tree()
        params = dict(params, main_palette=70)
        fast = run_local(
            graph, ColorBiddingAlgorithm(), Model.RAND, seed=3,
            global_params=params, trace=True,
        )
        vec = run_local_vectorized(
            graph, ColorBiddingAlgorithm(), Model.RAND, seed=3,
            global_params=params, trace=True,
        )
        assert fast.outputs == vec.outputs
        assert fast.trace == vec.trace

    def test_crash_faults_identical_on_kernel_path(self):
        graph, params = _color_bidding_tree()
        plan = FaultPlan(
            seed=5, crashes={3: 1}, crash_rate=0.05, crash_round=2
        )
        fast = run_local(
            graph, ColorBiddingAlgorithm(), Model.RAND, seed=9,
            global_params=params, trace=True, fault_plan=plan,
        )
        vec = run_local(
            graph, ColorBiddingAlgorithm(), Model.RAND, seed=9,
            global_params=params, trace=True, fault_plan=plan,
            backend="vectorized",
        )
        assert fast.outputs == vec.outputs
        assert fast.failures == vec.failures
        assert fast.trace == vec.trace
        assert fast.failures  # the plan really crashed someone

    def _linial_sparse_ids(self, n=30):
        """Sparse IDs in a 2^20 space: a 3-stage schedule, so a color
        frozen by an early crash can be out of range for later stages."""
        graph = cycle_graph(n)
        ids = [(v * 34567 + 11) % (1 << 20) for v in range(n)]
        assert len(set(ids)) == n
        return graph, ids, {"id_space": 1 << 20}

    def _forbid_fallback(self, monkeypatch):
        from repro.backends import vectorized

        def boom(*args, **kwargs):  # pragma: no cover — must not run
            raise AssertionError("unexpected fallback to fast engine")

        monkeypatch.setattr(vectorized, "_run_local_fast", boom)

    def test_linial_crash_faults_identical_on_kernel_path(
        self, monkeypatch
    ):
        """A vertex crashed mid-schedule keeps publishing its frozen
        color; neighbors must recolor against it exactly as the scalar
        engines do — on the kernel path, not via fallback."""
        graph, ids, params = self._linial_sparse_ids()
        plan = FaultPlan(seed=5, crashes={3: 1, 11: 1})
        fast = run_local(
            graph, LinialColoring(), Model.DET, ids=ids,
            global_params=params, trace=True, fault_plan=plan,
        )
        self._forbid_fallback(monkeypatch)
        vec = run_local(
            graph, LinialColoring(), Model.DET, ids=ids,
            global_params=params, trace=True, fault_plan=plan,
            backend="vectorized",
        )
        assert fast.outputs == vec.outputs
        assert fast.failures == vec.failures
        assert fast.trace == vec.trace
        assert fast.failures  # the plan really crashed someone

    def test_linial_stale_crash_color_raises_identically(self):
        """A round-0 crash freezes the published ID, which is out of
        range for the stage-1 cover-free family — the scalar path
        raises ValueError from cover_free_set, and the kernel must
        raise the identical error."""
        graph, ids, params = self._linial_sparse_ids()
        plan = FaultPlan(seed=5, crashes={3: 0})
        outcomes = []
        for backend in ("fast", "vectorized", "reference"):
            with pytest.raises(ValueError, match="out of range") as exc:
                run_local(
                    graph, LinialColoring(), Model.DET, ids=ids,
                    global_params=params, fault_plan=plan,
                    backend=backend,
                )
            outcomes.append(str(exc.value))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_oriented_linial_crash_faults_identical(self, monkeypatch):
        from repro.algorithms.linial import OrientedLinialColoring
        from repro.graphs.generators import random_tree_prufer

        graph = random_tree_prufer(40, random.Random(3))
        parent = {0: None}
        order, seen, head = [0], {0}, 0
        while head < len(order):
            v = order[head]
            head += 1
            for u in graph.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    parent[u] = v
                    order.append(u)
        inputs = [
            {
                "out_ports": (
                    [graph.port_of(v, parent[v])]
                    if parent[v] is not None
                    else []
                )
            }
            for v in graph.vertices()
        ]
        ids = [(v * 9176 + 5) % (1 << 18) for v in range(40)]
        params = {"out_degree": 1, "id_space": 1 << 18}
        plan = FaultPlan(seed=1, crashes={0: 0, 9: 2})
        fast = run_local(
            graph, OrientedLinialColoring(), Model.DET, ids=ids,
            node_inputs=inputs, global_params=params, trace=True,
            fault_plan=plan,
        )
        self._forbid_fallback(monkeypatch)
        vec = run_local(
            graph, OrientedLinialColoring(), Model.DET, ids=ids,
            node_inputs=inputs, global_params=params, trace=True,
            fault_plan=plan, backend="vectorized",
        )
        assert fast.outputs == vec.outputs
        assert fast.failures == vec.failures
        assert fast.trace == vec.trace

    def test_crash_plan_falls_back_without_declared_support(
        self, monkeypatch
    ):
        """Kernels that do not declare ``handles_crashes`` must leave
        the vectorized path whenever the plan crashes anybody — and the
        fallback result still matches the fast engine."""
        from repro.algorithms import kernels
        from repro.backends import vectorized

        calls = []
        original = vectorized._run_local_fast

        def counting(*args, **kwargs):
            calls.append("fast")
            return original(*args, **kwargs)

        monkeypatch.setattr(vectorized, "_run_local_fast", counting)
        monkeypatch.setattr(
            kernels.LinialKernel, "handles_crashes", False
        )
        graph, ids, params = self._linial_sparse_ids()
        plan = FaultPlan(seed=5, crashes={3: 1})
        fast = run_local(
            graph, LinialColoring(), Model.DET, ids=ids,
            global_params=params, trace=True, fault_plan=plan,
        )
        vec = run_local(
            graph, LinialColoring(), Model.DET, ids=ids,
            global_params=params, trace=True, fault_plan=plan,
            backend="vectorized",
        )
        assert calls == ["fast"]
        assert fast.outputs == vec.outputs
        assert fast.trace == vec.trace

    def test_message_faults_fall_back_and_match(self):
        graph, params = _color_bidding_tree(n=80)
        plan = FaultPlan(seed=2, drop_rate=0.05, round_budget=256)
        outcomes = []
        for backend in ("fast", "vectorized"):
            try:
                result = run_local(
                    graph, ColorBiddingAlgorithm(), Model.RAND,
                    seed=4, global_params=params, fault_plan=plan,
                    backend=backend,
                )
                outcomes.append(("ok", result.outputs, result.rounds))
            except Exception as exc:  # noqa: BLE001 — outcome folding
                outcomes.append(("error", f"{type(exc).__name__}: {exc}"))
        assert outcomes[0] == outcomes[1]


# ----------------------------------------------------------------------
# Kuhn–Wattenhofer reduction kernel
# ----------------------------------------------------------------------
def _kw_instance(n=60, seed=2, target=None, layered=False):
    """A tree with a proper coloring from a shuffled ID range; with
    ``layered`` every vertex reads only a random subset of its ports
    (the Theorem 9 within-layer shape), sized so a free offset exists."""
    rng = random.Random(seed)
    graph = random_tree_bounded_degree(n, 5, rng)
    colors = rng.sample(range(4 * n), n)
    inputs = [{"color": c} for c in colors]
    if layered:
        target = target or 3
        for v, node_input in enumerate(inputs):
            ports = list(range(graph.degree(v)))
            rng.shuffle(ports)
            node_input["active_ports"] = ports[: target - 1]
    elif target is None:
        target = graph.max_degree + 1
    params = {"palette": 4 * n, "target": target}
    return graph, inputs, params


@needs_vectorized
class TestKuhnWattenhoferKernel:
    """The KW kernel against the fast engine: outputs, failures,
    RunResult trace and JSONL trace bytes (payload values included),
    with the fallback forbidden so the kernel path is what ran."""

    def _forbid_fallback(self, monkeypatch):
        from repro.backends import vectorized

        def boom(*args, **kwargs):  # pragma: no cover — must not run
            raise AssertionError("unexpected fallback to fast engine")

        monkeypatch.setattr(vectorized, "_run_local_fast", boom)

    def _outcome(self, backend, graph, inputs, params, plan=None):
        from repro.algorithms.reduction import KuhnWattenhoferReduction
        from repro.obs import JsonlTraceObserver

        sink = io.StringIO()
        try:
            result = run_local(
                graph, KuhnWattenhoferReduction(), Model.DET,
                node_inputs=inputs, global_params=params, trace=True,
                fault_plan=plan, backend=backend,
                observers=[JsonlTraceObserver(sink, payload_values=True)],
            )
        except Exception as exc:  # noqa: BLE001 — outcome folding
            return ("error", type(exc).__name__, str(exc))
        unobserved = run_local(
            graph, KuhnWattenhoferReduction(), Model.DET,
            node_inputs=inputs, global_params=params, fault_plan=plan,
            backend=backend,
        )
        assert unobserved.outputs == result.outputs
        return (
            result.outputs, result.rounds, result.messages,
            result.failures, result.trace, sink.getvalue(),
        )

    def _assert_kernel_matches(self, monkeypatch, *instance, plan=None):
        fast = self._outcome("fast", *instance, plan=plan)
        self._forbid_fallback(monkeypatch)
        vec = self._outcome("vectorized", *instance, plan=plan)
        assert vec == fast
        return fast

    def test_kernel_registered(self):
        from repro.algorithms.kernels import KuhnWattenhoferKernel
        from repro.algorithms.reduction import KuhnWattenhoferReduction
        from repro.backends.vectorized import kernel_for

        assert (
            kernel_for(KuhnWattenhoferReduction()) is KuhnWattenhoferKernel
        )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_all_ports_matches_fast(self, monkeypatch, seed):
        outcome = self._assert_kernel_matches(
            monkeypatch, *_kw_instance(seed=seed)
        )
        assert outcome[1] > 0  # a multi-stage plan really ran

    @pytest.mark.parametrize("target", [1, 2, 3, 5])
    def test_active_ports_matches_fast(self, monkeypatch, target):
        """Target 1 recolors in the stage's last round: two publishes
        in one round, of which the scalar engine records the last."""
        self._assert_kernel_matches(
            monkeypatch, *_kw_instance(target=target, layered=True)
        )

    def test_empty_stage_plan_halts_in_setup(self, monkeypatch):
        graph, inputs, params = _kw_instance()
        params = dict(params, palette=params["target"])
        outcome = self._assert_kernel_matches(
            monkeypatch, graph, inputs, params
        )
        assert outcome[1] == 0
        assert outcome[0] == [ni["color"] for ni in inputs]

    def test_no_free_offset_raises_identically(self, monkeypatch):
        graph, inputs, params = _kw_instance()
        params = dict(params, target=1)
        outcome = self._assert_kernel_matches(
            monkeypatch, graph, inputs, params
        )
        assert outcome[:2] == ("error", "AssertionError")

    @pytest.mark.parametrize("crash_round", [0, 1, 3])
    def test_crash_faults_identical_on_kernel_path(
        self, monkeypatch, crash_round
    ):
        """A crashed vertex keeps publishing its frozen pair; same-block
        neighbors must read it exactly as the scalar engines do."""
        plan = FaultPlan(seed=7, crash_rate=0.15, crash_round=crash_round)
        outcome = self._assert_kernel_matches(
            monkeypatch, *_kw_instance(target=3, layered=True), plan=plan
        )
        assert outcome[3]  # the plan really crashed someone

    @pytest.mark.parametrize(
        "mutate",
        [
            "mixed_ports",
            "wide_target",
            "bool_color",
            "port_out_of_range",
            "float_port",
        ],
    )
    def test_supports_vetoes_and_fallback_matches(self, mutate):
        from repro.algorithms.kernels import KuhnWattenhoferKernel
        from repro.algorithms.reduction import KuhnWattenhoferReduction
        from repro.backends.vectorized import VectorRun

        graph, inputs, params = _kw_instance(target=3, layered=True)
        leaf = next(v for v in graph.vertices() if graph.degree(v) == 1)
        if mutate == "mixed_ports":
            del inputs[0]["active_ports"]
        elif mutate == "wide_target":
            params = dict(params, target=63, palette=1 << 10)
        elif mutate == "bool_color":
            inputs[0]["color"] = True
        elif mutate == "port_out_of_range":
            inputs[leaf]["active_ports"] = [1]
        else:
            inputs[leaf]["active_ports"] = [0.0]
        run = VectorRun(
            graph, Model.DET, ids=None, seed=None, node_inputs=inputs,
            global_params=params, rng_factory=None,
            allow_duplicate_ids=False,
        )
        assert not KuhnWattenhoferKernel.supports(
            KuhnWattenhoferReduction(), run
        )
        fast = self._outcome("fast", graph, inputs, params)
        assert self._outcome("vectorized", graph, inputs, params) == fast


# ----------------------------------------------------------------------
# popcount: numpy>=2 fast path and the SWAR fallback for numpy 1.x
# ----------------------------------------------------------------------
@needs_vectorized
class TestPopcount:
    def _reference(self, masks):
        return [bin(m).count("1") for m in masks]

    def test_swar_fallback_matches_python(self):
        import numpy as np

        from repro.backends.vectorized import _popcount_swar, popcount

        rng = random.Random(99)
        masks = [0, 1, 2, 3, (1 << 62) - 1, 2**63 - 1]
        masks += [rng.getrandbits(62) for _ in range(500)]
        arr = np.asarray(masks, dtype=np.int64)
        expected = self._reference(masks)
        # Both the numpy 1.x fallback and whatever ``popcount`` resolved
        # to on this install must agree with pure-python counting.
        assert _popcount_swar(arr).tolist() == expected
        assert popcount(arr).tolist() == expected
        assert _popcount_swar(arr).dtype == np.int64


# ----------------------------------------------------------------------
# VectorMT: the vectorized per-vertex random streams
# ----------------------------------------------------------------------
@needs_vectorized
class TestVectorMT:
    """Word-exact parity with ``[random.Random(s) for s in seeds]`` —
    the property that lets kernels replay scalar draw sequences."""

    def _pair(self, seeds):
        import numpy as np

        from repro.backends.mt19937 import VectorMT

        arr = np.array(seeds, dtype=np.uint64)
        return VectorMT(arr), [random.Random(int(s)) for s in seeds]

    def test_interleaved_draws_match_across_block_boundary(self):
        import numpy as np

        master = random.Random(2024)
        seeds = [master.getrandbits(64) for _ in range(23)]
        vmt, scalars = self._pair(seeds)
        verts = np.arange(len(seeds))
        script = random.Random(7)
        for _ in range(420):  # > 624 words consumed: crosses a refill
            kind = script.randrange(3)
            if kind == 0:
                assert (
                    vmt.random(verts)
                    == np.array([r.random() for r in scalars])
                ).all()
            elif kind == 1:
                sizes = np.array(
                    [script.randrange(1, 40) for _ in scalars]
                )
                assert (
                    vmt.randrange(verts, sizes)
                    == np.array(
                        [
                            r.randrange(int(k))
                            for r, k in zip(scalars, sizes)
                        ]
                    )
                ).all()
            else:
                counts = np.array(
                    [script.randrange(0, 5) for _ in scalars]
                )
                expected = [
                    r.random()
                    for r, c in zip(scalars, counts)
                    for _ in range(int(c))
                ]
                got = vmt.random_runs(verts, counts)
                assert got.tolist() == expected

    def test_subset_draws_desynchronize_positions_safely(self):
        import numpy as np

        vmt, scalars = self._pair([10**18 + v for v in range(9)])
        verts = np.arange(9)
        subset = np.array([0, 3, 8])
        for _ in range(400):  # subset streams refill before the rest
            assert (
                vmt.random(subset)
                == np.array([scalars[int(v)].random() for v in subset])
            ).all()
        assert (
            vmt.random(verts)
            == np.array([r.random() for r in scalars])
        ).all()

    def test_edge_seeds_use_scalar_seeding_path(self):
        """Seeds below 2³² have a different init_by_array key length."""
        import numpy as np

        seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
        vmt, scalars = self._pair(seeds)
        verts = np.arange(len(seeds))
        for _ in range(700):
            assert (
                vmt.random(verts)
                == np.array([r.random() for r in scalars])
            ).all()

    def test_randrange_one_still_consumes_a_word(self):
        import numpy as np

        vmt, scalars = self._pair([42, 43])
        verts = np.arange(2)
        ones = np.array([1, 1])
        assert (
            vmt.randrange(verts, ones)
            == np.array([r.randrange(1) for r in scalars])
        ).all()
        assert (
            vmt.random(verts)
            == np.array([r.random() for r in scalars])
        ).all()

    def test_randrange_empty_matches_stdlib_error(self):
        import numpy as np

        vmt, _ = self._pair([5])
        with pytest.raises(ValueError, match="empty range"):
            vmt.randrange(np.array([0]), np.array([0]))

    def _words(self, vmt, verts, count):
        import numpy as np

        verts = np.asarray(verts)
        ones = np.full(verts.size, 32)
        return np.array(
            [vmt.getrandbits(verts, ones) for _ in range(count)]
        ).T.tolist()

    def test_streams_match_across_a_chunk_boundary(self):
        """n > _CHUNK with short seeds (< 2³², and 0) in the second
        chunk: word-for-word equal to ``random.Random``, before and
        after a ``_grow`` refill."""
        import numpy as np

        from repro.backends.mt19937 import _CHUNK, VectorMT

        n = _CHUNK + 40
        master = random.Random(11)
        seeds = [master.getrandbits(64) for _ in range(n)]
        short = {_CHUNK + 1: 0, _CHUNK + 7: 12345, _CHUNK + 39: 2**32 - 1}
        for v, seed in short.items():
            seeds[v] = seed
        vmt = VectorMT(np.array(seeds, dtype=np.uint64), min_words=8)
        checked = [0, _CHUNK - 1, _CHUNK, *short, n - 1]
        scalars = [random.Random(seeds[v]) for v in checked]
        # 8 buffered words, then 40 more: crosses a _grow refill.
        for _ in range(2):
            got = self._words(vmt, checked, 24)
            assert got == [
                [r.getrandbits(32) for _ in range(24)] for r in scalars
            ]
        assert vmt.words >= 48

    def test_small_chunks_match_stdlib_for_every_stream(self, monkeypatch):
        """Many chunks (including a ragged last one) and a grow past one
        MT block: every stream equals ``random.Random`` word for word."""
        import numpy as np

        from repro.backends import mt19937

        monkeypatch.setattr(mt19937, "_CHUNK", 4)
        master = random.Random(3)
        seeds = [master.getrandbits(64) for _ in range(11)]
        seeds[5], seeds[9] = 0, 7
        vmt = mt19937.VectorMT(np.array(seeds, dtype=np.uint64), min_words=4)
        scalars = [random.Random(s) for s in seeds]
        got = self._words(vmt, range(len(seeds)), 700)
        assert got == [
            [r.getrandbits(32) for _ in range(700)] for r in scalars
        ]

    def test_run_master_seeds_match_make_node_rngs(self):
        """``vector_rng``'s one wide ``getrandbits`` read derives the
        same per-vertex streams as ``make_node_rngs``."""
        import numpy as np

        from repro.backends.vectorized import VectorRun
        from repro.core.engine import make_node_rngs

        graph = cycle_graph(37)
        run = VectorRun(
            graph, Model.RAND, ids=None, seed=2024, node_inputs=None,
            global_params=None, rng_factory=None,
            allow_duplicate_ids=False,
        )
        master = random.Random(2024)
        expected = [master.getrandbits(64) for _ in range(37)]
        vmt = run.vector_rng(min_words=4)
        assert vmt._seeds.tolist() == expected
        scalars = make_node_rngs(37, 2024)
        assert self._words(vmt, np.arange(37), 5) == [
            [r.getrandbits(32) for _ in range(5)] for r in scalars
        ]


# ----------------------------------------------------------------------
# Byte-level artifacts: JSONL traces and sweep journals
# ----------------------------------------------------------------------
class TestTraceBytes:
    def _trace_bytes(self, backend):
        from repro.obs import JsonlTraceObserver

        graph, params = _color_bidding_tree(n=60)
        sink = io.StringIO()
        observer = JsonlTraceObserver(sink, node_steps=True)
        run_local(
            graph, ColorBiddingAlgorithm(), Model.RAND, seed=7,
            global_params=params, observers=[observer],
            backend=backend,
        )
        return sink.getvalue()

    def test_jsonl_trace_bytes_identical_across_backends(self):
        streams = {
            name: self._trace_bytes(name)
            for name in available_backend_names()
        }
        baseline = streams["fast"]
        assert baseline  # the observer really wrote events
        for name, stream in streams.items():
            assert stream == baseline, f"backend {name!r} trace differs"


class TestSweepBackendThreading:
    def _measure(self, x, seed):
        graph = cycle_graph(int(x))
        result = run_local(
            graph, LinialColoring(), Model.DET,
            ids=list(range(int(x))),
        )
        return result.rounds + seed

    def test_backend_pinned_results_match_default(self):
        from repro.analysis.experiments import run_sweep

        base = run_sweep(
            "s", [8.0, 12.0], self._measure, seeds=(0, 1)
        )
        pinned = run_sweep(
            "s", [8.0, 12.0], self._measure, seeds=(0, 1),
            backend="reference",
        )
        assert base.as_dict() == pinned.as_dict()

    def test_unknown_backend_rejected_before_any_cell_runs(self):
        from repro.analysis.experiments import run_sweep

        with pytest.raises(ReproError, match="unknown engine backend"):
            run_sweep("s", [6.0], self._measure, backend="warp-drive")

    def test_journal_fingerprint_pins_backend(self, tmp_path):
        """Resuming a journaled sweep under a different backend must be
        refused — never silently mixed."""
        from repro.analysis.experiments import run_sweep

        journal = str(tmp_path / "sweep.jsonl")
        run_sweep(
            "s", [6.0], self._measure, seeds=(0,), journal=journal,
            backend="fast",
        )
        with pytest.raises(ValueError, match="fingerprint"):
            run_sweep(
                "s", [6.0], self._measure, seeds=(0,),
                journal=journal, backend="reference",
            )

    def test_ambient_scope_is_captured_in_fingerprint(self, tmp_path):
        from repro.analysis.experiments import run_sweep

        journal = str(tmp_path / "sweep.jsonl")
        with use_backend("reference"):
            run_sweep(
                "s", [6.0], self._measure, seeds=(0,), journal=journal
            )
        # Same ambient backend resumes cleanly …
        with use_backend("reference"):
            run_sweep(
                "s", [6.0], self._measure, seeds=(0,), journal=journal
            )
        # … the default (fast) does not.
        with pytest.raises(ValueError, match="fingerprint"):
            run_sweep(
                "s", [6.0], self._measure, seeds=(0,), journal=journal
            )

    @needs_vectorized
    def test_pooled_sweep_threads_vectorized_backend(self):
        """Fork-pool children must run under the parent's backend; with
        the deterministic contract the pooled vectorized sweep equals
        the serial fast sweep bit-for-bit."""
        from repro.analysis.experiments import run_sweep

        def measure(x, seed):
            graph = random_tree_bounded_degree(
                int(x), 9, random.Random(seed)
            )
            result = run_local(
                graph,
                ColorBiddingAlgorithm(),
                Model.RAND,
                seed=seed,
                global_params={
                    "config": ColorBiddingConfig(),
                    "main_palette": 6,
                },
            )
            return sum(1 for out in result.outputs if out == -1)

        serial = run_sweep("bad", [60.0, 90.0], measure, seeds=(0, 1))
        pooled = run_sweep(
            "bad", [60.0, 90.0], measure, seeds=(0, 1),
            workers=2, backend="vectorized",
        )
        assert serial.as_dict() == pooled.as_dict()


# ----------------------------------------------------------------------
# Backend-surface drift: every registered backend on every surface
# ----------------------------------------------------------------------
class TestBackendSurfaces:
    """The meta-test for backend-surface drift: registering a backend
    must make it appear on every user-facing surface that names
    backends — the CLI choices, the bench rows, the sweep journal
    fingerprint, and the supervise degradation ladder.  A backend
    missing from any of these fails here, not in production."""

    def test_cli_backend_choices_track_the_registry(self):
        from repro.cli import build_parser

        parser = build_parser()
        action = next(
            a
            for a in parser._actions
            if "--backend" in getattr(a, "option_strings", ())
        )
        assert tuple(action.choices) == tuple(backend_names())

    def test_bench_rows_cover_every_available_backend(self):
        from repro.analysis.perf import backend_engine_metrics

        timings = backend_engine_metrics(n=240, repeats=1)
        assert set(timings) == set(available_backend_names())

    def test_sweep_journal_fingerprint_accepts_every_backend(
        self, tmp_path
    ):
        """The journal fingerprint must round-trip every registered
        backend name: same backend resumes cleanly, a different one is
        refused."""
        from repro.analysis.experiments import run_sweep

        def measure(x, seed):
            graph = cycle_graph(int(x))
            result = run_local(
                graph, LinialColoring(), Model.DET,
                ids=list(range(int(x))),
            )
            return result.rounds + seed

        for name in available_backend_names():
            journal = str(tmp_path / f"sweep-{name}.jsonl")
            run_sweep(
                "s", [6.0], measure, seeds=(0,), journal=journal,
                backend=name,
            )
            run_sweep(  # same backend: clean resume
                "s", [6.0], measure, seeds=(0,), journal=journal,
                backend=name,
            )
            other = next(
                n for n in available_backend_names() if n != name
            )
            with pytest.raises(ValueError, match="fingerprint"):
                run_sweep(
                    "s", [6.0], measure, seeds=(0,), journal=journal,
                    backend=other,
                )

    def test_supervise_degradation_backend_is_registered(self):
        from repro.supervise import DEGRADATION_BACKEND

        assert DEGRADATION_BACKEND in backend_names()
        assert DEGRADATION_BACKEND in available_backend_names()

    def test_every_backend_supports_checkpoint_capture(self):
        """The checkpoint/supervise stack requires capture/restore
        from every registered backend (PR 9's capability contract)."""
        for name in backend_names():
            backend = get_backend(name)
            assert backend.capture_state is not None, name
            assert backend.restore_state is not None, name
