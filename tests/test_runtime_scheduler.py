"""Unit tests for the scheduling policies."""

from repro.runtime import DataRef, SchedulingPolicy, Task
from repro.runtime.scheduler import (
    DataLocalityScheduler,
    GenerationOrderScheduler,
    make_scheduler,
)


class FakeCluster:
    """A ClusterView stub with explicit per-node availability."""

    def __init__(self, free_cores, free_gpus=None):
        self.free_cores = free_cores
        self.free_gpus = free_gpus or [1] * len(free_cores)

    def num_nodes(self):
        return len(self.free_cores)

    def has_free_slot(self, node, needs_gpu, ram_bytes=0):
        if self.free_cores[node] < 1:
            return False
        if needs_gpu and self.free_gpus[node] < 1:
            return False
        return True


def _task(task_id, input_homes=(), parallel=False):
    from repro.perfmodel import TaskCost

    inputs = tuple(
        DataRef(size_bytes=100, home_node=home) for home in input_homes
    )
    cost = TaskCost(
        serial_flops=1.0,
        parallel_flops=100.0 if parallel else 0.0,
        parallel_items=10.0 if parallel else 0.0,
        arithmetic_intensity=1.0,
        input_bytes=100,
        output_bytes=10,
        host_device_bytes=0,
        gpu_memory_bytes=0,
    )
    return Task(
        task_id=task_id,
        name=f"t{task_id}",
        inputs=inputs,
        outputs=(DataRef(size_bytes=10),),
        cost=cost,
    )



def _never_gpu(task):
    return False


def _eligible_gpu(task):
    return task.gpu_eligible


class TestGenerationOrder:
    def test_picks_head_of_queue(self):
        scheduler = GenerationOrderScheduler()
        ready = [_task(3), _task(7)]
        choice = scheduler.select(ready, FakeCluster([1, 1]), _never_gpu)
        assert choice.task.task_id == 3

    def test_round_robin_spreads_nodes(self):
        scheduler = GenerationOrderScheduler()
        cluster = FakeCluster([2, 2, 2])
        nodes = [
            scheduler.select([_task(i)], cluster, _never_gpu).node
            for i in range(3)
        ]
        assert nodes == [0, 1, 2]

    def test_skips_full_nodes(self):
        scheduler = GenerationOrderScheduler()
        cluster = FakeCluster([0, 0, 1])
        choice = scheduler.select([_task(0)], cluster, _never_gpu)
        assert choice.node == 2

    def test_returns_none_when_cluster_full(self):
        scheduler = GenerationOrderScheduler()
        assert scheduler.select([_task(0)], FakeCluster([0, 0]), _never_gpu) is None

    def test_returns_none_when_queue_empty(self):
        scheduler = GenerationOrderScheduler()
        assert scheduler.select([], FakeCluster([1]), _never_gpu) is None

    def test_gpu_requirement_respected(self):
        scheduler = GenerationOrderScheduler()
        cluster = FakeCluster([1, 1], free_gpus=[0, 1])
        choice = scheduler.select([_task(0, parallel=True)], cluster, _eligible_gpu)
        assert choice.node == 1

    def test_serial_task_needs_no_gpu_even_in_gpu_mode(self):
        scheduler = GenerationOrderScheduler()
        cluster = FakeCluster([1], free_gpus=[0])
        choice = scheduler.select([_task(0, parallel=False)], cluster, _eligible_gpu)
        assert choice is not None


class TestDataLocality:
    def test_prefers_owner_node(self):
        scheduler = DataLocalityScheduler()
        cluster = FakeCluster([1, 1, 1])
        choice = scheduler.select([_task(0, input_homes=[2])], cluster, _never_gpu)
        assert choice.node == 2

    def test_majority_bytes_win(self):
        scheduler = DataLocalityScheduler()
        cluster = FakeCluster([1, 1])
        task = _task(0, input_homes=[0, 1, 1])
        choice = scheduler.select([task], cluster, _never_gpu)
        assert choice.node == 1

    def test_falls_back_when_owner_busy(self):
        scheduler = DataLocalityScheduler()
        cluster = FakeCluster([1, 0])
        choice = scheduler.select([_task(0, input_homes=[1])], cluster, _never_gpu)
        assert choice.node == 0

    def test_scans_past_blocked_tasks(self):
        scheduler = DataLocalityScheduler()
        cluster = FakeCluster([1], free_gpus=[0])
        blocked = _task(0, parallel=True)
        runnable = _task(1, input_homes=[0], parallel=False)
        choice = scheduler.select([blocked, runnable], cluster, _eligible_gpu)
        assert choice.task.task_id == 1

    def test_returns_none_when_cluster_full(self):
        scheduler = DataLocalityScheduler()
        assert scheduler.select([_task(0)], FakeCluster([0]), _never_gpu) is None


class TestFactory:
    def test_make_scheduler(self):
        assert isinstance(
            make_scheduler(SchedulingPolicy.GENERATION_ORDER),
            GenerationOrderScheduler,
        )
        assert isinstance(
            make_scheduler(SchedulingPolicy.DATA_LOCALITY), DataLocalityScheduler
        )

    def test_policy_labels(self):
        assert SchedulingPolicy.GENERATION_ORDER.label == "task generation order"
        assert SchedulingPolicy.DATA_LOCALITY.label == "data locality"


class TestLifo:
    def test_picks_tail_of_queue(self):
        from repro.runtime.scheduler import LifoScheduler

        scheduler = LifoScheduler()
        ready = [_task(3), _task(7)]
        choice = scheduler.select(ready, FakeCluster([1, 1]), _never_gpu)
        assert choice.task.task_id == 7

    def test_round_robin_nodes(self):
        from repro.runtime.scheduler import LifoScheduler

        scheduler = LifoScheduler()
        cluster = FakeCluster([2, 2])
        nodes = [
            scheduler.select([_task(i)], cluster, _never_gpu).node
            for i in range(2)
        ]
        assert nodes == [0, 1]

    def test_returns_none_when_full(self):
        from repro.runtime.scheduler import LifoScheduler

        scheduler = LifoScheduler()
        assert scheduler.select([_task(0)], FakeCluster([0]), _never_gpu) is None

    def test_factory_and_label(self):
        from repro.runtime.scheduler import LifoScheduler

        assert isinstance(make_scheduler(SchedulingPolicy.LIFO), LifoScheduler)
        assert SchedulingPolicy.LIFO.label == "LIFO"

    def test_end_to_end_lifo_run(self):
        from repro.perfmodel import TaskCost
        from repro.runtime import Runtime, RuntimeConfig

        rt = Runtime(RuntimeConfig(scheduling=SchedulingPolicy.LIFO))
        cost = TaskCost(
            serial_flops=1e9, parallel_flops=0, parallel_items=0,
            arithmetic_intensity=0, input_bytes=10**6, output_bytes=10**5,
            host_device_bytes=0, gpu_memory_bytes=0,
        )
        for i in range(20):
            ref = rt.register_input(10**6, name=f"in{i}")
            rt.submit(name="w", inputs=[ref], cost=cost)
        assert len(rt.run().trace.tasks) == 20


class _FreeCoreGuard:
    """Wraps a policy and asserts each ``select`` call could place a task.

    The dispatcher may only ask when some live, non-blacklisted node has
    a free core; on a full cluster every policy returns ``None``, so the
    call is skipped.
    """

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.saw_blacklist = False

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def select(self, ready, cluster, requires_gpu):
        nodes = range(cluster.num_nodes())
        blacklisted = [node for node in nodes if cluster.is_blacklisted(node)]
        # With one core per CPU task, a zero-RAM CPU probe is exactly
        # "alive and one core free", asked through the view's own API.
        assert any(
            cluster.has_free_slot(node, needs_gpu=False)
            for node in nodes
            if node not in blacklisted
        ), "select asked on a cluster with no free core"
        self.calls += 1
        self.saw_blacklist |= bool(blacklisted)
        return self.inner.select(ready, cluster, requires_gpu)


class TestExecutorSkipsFullCluster:
    """The executor skips ``select`` when no node has a free core, and the
    skip leaves every placement, and so the trace digest, unchanged."""

    @staticmethod
    def _run(config, build, monkeypatch=None):
        """Run once; with ``monkeypatch``, behind a :class:`_FreeCoreGuard`.

        Returns the trace digest and the guards that were installed.
        """
        from repro.runtime import Runtime
        from repro.runtime.backends import simulated
        from repro.tracing import trace_digest

        guards = []
        if monkeypatch is not None:
            def guarded(policy):
                guards.append(_FreeCoreGuard(make_scheduler(policy)))
                return guards[-1]

            monkeypatch.setattr(simulated, "make_scheduler", guarded)
        runtime = Runtime(config)
        build(runtime)
        result = runtime.run()
        return trace_digest(result.trace, result.failed_task_ids), guards

    def test_fig10_matmul8_locality_local_disk(self, monkeypatch):
        from repro.algorithms import MatmulWorkflow
        from repro.data import paper_datasets
        from repro.hardware import StorageKind, minotauro
        from repro.runtime import RuntimeConfig

        config = RuntimeConfig(
            cluster=minotauro(),
            storage=StorageKind.LOCAL,
            scheduling=SchedulingPolicy.DATA_LOCALITY,
            use_gpu=False,
        )

        def build(runtime):
            MatmulWorkflow(paper_datasets()["matmul_8gb"], grid=8).build(runtime)

        plain, _ = self._run(config, build)
        guarded, guards = self._run(config, build, monkeypatch)
        assert guarded == plain
        assert len(guards) == 1 and guards[0].calls >= 8 * 8 * 8

    def test_fault_cell_with_blacklisted_node(self, monkeypatch):
        from tests.golden_matrix import golden_cases

        case = next(
            c for c in golden_cases() if c.key == "wide16|data_locality|faults"
        )
        plain, _ = self._run(case.config, case.build)
        guarded, guards = self._run(case.config, case.build, monkeypatch)
        assert guarded == plain
        assert len(guards) == 1 and guards[0].saw_blacklist
