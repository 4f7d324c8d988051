"""Property-based tests for the scheduling policies.

Rather than enumerating cluster states by hand, Hypothesis generates
random ready queues, node capacities, and blacklists, and asserts the
contracts every policy must honour:

* an :class:`Assignment` always targets a node with a free slot;
* a blacklisted node is never chosen, whatever the policy;
* ``GenerationOrderScheduler`` always dispatches the head of the queue;
* round-robin node choice wraps around and spreads consecutive picks;
* ``DataLocalityScheduler`` breaks all-zero locality ties round-robin
  instead of piling every tie onto node 0 (regression for the
  tie-breaking fix);
* ``DataLocalityScheduler.select`` — which probes each resource key's
  nodes once per call — agrees with a nested ready x nodes scan over
  whole select sequences, and a cluster with free cores but busy GPUs
  costs it one probe per (key, node) pair;
* the fast dispatch path's incrementally maintained state — the ready
  queue, the GPU-intended counter, and the per-node
  :class:`~repro.runtime.locality.LocalityIndex` — equals a from-scratch
  recomputation after **every** ready-set mutation of a full simulated
  run (random generated DAGs, with and without injected faults);
* locality scoring resolves input bytes against *current* block
  residency, so a stale ``home_node`` (block moved or evicted since the
  ref was written) earns no credit.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import GeneratedDagWorkflow
from repro.faults import FaultPlan, NodeFault, RetryPolicy
from repro.hardware import StorageKind
from repro.perfmodel import TaskCost
from repro.runtime import DataRef, Runtime, RuntimeConfig, SchedulingPolicy, Task
from repro.runtime.backends.simulated import SimulatedExecutor
from repro.runtime.locality import LocalityIndex
from repro.runtime.scheduler import (
    Assignment,
    DataLocalityScheduler,
    GenerationOrderScheduler,
    LifoScheduler,
    make_scheduler,
    node_usable,
    task_ram_bytes,
)


class FakeCluster:
    """A ClusterView stub with per-node cores, GPUs, RAM and a blacklist.

    ``free_ram`` defaults to unlimited; ``probes`` counts every
    ``has_free_slot`` call.
    """

    def __init__(self, free_cores, free_gpus=None, blacklist=(), free_ram=None):
        self.free_cores = list(free_cores)
        self.free_gpus = list(free_gpus or [1] * len(free_cores))
        self.free_ram = list(free_ram or [float("inf")] * len(free_cores))
        self.blacklist = set(blacklist)
        self.probes = 0

    def num_nodes(self):
        return len(self.free_cores)

    def is_blacklisted(self, node):
        return node in self.blacklist

    def has_free_slot(self, node, needs_gpu, ram_bytes=0):
        self.probes += 1
        if self.free_cores[node] < 1:
            return False
        if needs_gpu and self.free_gpus[node] < 1:
            return False
        if ram_bytes > self.free_ram[node]:
            return False
        return True


def _task(task_id, input_homes=(), ram_bytes=0):
    cost = TaskCost(
        serial_flops=1.0,
        parallel_flops=0.0,
        parallel_items=0.0,
        arithmetic_intensity=1.0,
        input_bytes=100,
        output_bytes=10,
        host_device_bytes=0,
        gpu_memory_bytes=0,
        host_memory_bytes=ram_bytes,
    )
    return Task(
        task_id=task_id,
        name=f"t{task_id}",
        inputs=tuple(DataRef(size_bytes=100, home_node=h) for h in input_homes),
        outputs=(DataRef(size_bytes=10),),
        cost=cost,
    )


def _never_gpu(task):
    return False


@st.composite
def cluster_and_ready(draw):
    """A random cluster state plus a random ready queue."""
    n = draw(st.integers(min_value=1, max_value=6))
    free_cores = draw(
        st.lists(st.integers(0, 3), min_size=n, max_size=n)
    )
    free_gpus = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    blacklist = draw(st.sets(st.integers(0, n - 1), max_size=n))
    cluster = FakeCluster(free_cores, free_gpus, blacklist)
    num_ready = draw(st.integers(0, 8))
    ready = [
        _task(i, input_homes=draw(st.lists(st.integers(0, n - 1), max_size=3)))
        for i in range(num_ready)
    ]
    return cluster, ready


ALL_POLICIES = list(SchedulingPolicy)


@settings(max_examples=60, deadline=None)
@given(state=cluster_and_ready(), policy=st.sampled_from(ALL_POLICIES))
def test_assignment_targets_free_non_blacklisted_node(state, policy):
    cluster, ready = state
    scheduler = make_scheduler(policy)
    choice = scheduler.select(ready, cluster, _never_gpu)
    if choice is None:
        return
    assert choice.task in ready
    assert cluster.has_free_slot(choice.node, False)
    assert not cluster.is_blacklisted(choice.node)


@settings(max_examples=60, deadline=None)
@given(state=cluster_and_ready(), policy=st.sampled_from(ALL_POLICIES))
def test_none_only_when_no_placement_exists(state, policy):
    # A scheduler may only give up when every (queue-head, node) pairing
    # it considers is infeasible; with a uniformly usable node and a
    # non-empty queue it must place something.
    cluster, ready = state
    usable = [
        node
        for node in range(cluster.num_nodes())
        if cluster.has_free_slot(node, False) and not cluster.is_blacklisted(node)
    ]
    scheduler = make_scheduler(policy)
    choice = scheduler.select(ready, cluster, _never_gpu)
    if ready and usable:
        assert choice is not None


@settings(max_examples=60, deadline=None)
@given(state=cluster_and_ready())
def test_generation_order_always_picks_queue_head(state):
    cluster, ready = state
    scheduler = GenerationOrderScheduler()
    choice = scheduler.select(ready, cluster, _never_gpu)
    if choice is not None:
        assert choice.task is ready[0]


@settings(max_examples=60, deadline=None)
@given(state=cluster_and_ready())
def test_lifo_always_picks_queue_tail(state):
    cluster, ready = state
    scheduler = LifoScheduler()
    choice = scheduler.select(ready, cluster, _never_gpu)
    if choice is not None:
        assert choice.task is ready[-1]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 6), picks=st.integers(2, 20))
def test_round_robin_wraps_around(n, picks):
    # With every node free, consecutive picks cycle 0, 1, ..., n-1, 0, ...
    scheduler = GenerationOrderScheduler()
    cluster = FakeCluster([10] * n)
    nodes = [
        scheduler.select([_task(i)], cluster, _never_gpu).node
        for i in range(picks)
    ]
    assert nodes == [i % n for i in range(picks)]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 6), picks=st.integers(2, 20))
def test_locality_all_zero_ties_round_robin(n, picks):
    # Regression: tasks with no local input bytes anywhere used to land on
    # node 0 every time; ties must now rotate like generation order.
    scheduler = DataLocalityScheduler()
    cluster = FakeCluster([10] * n)
    nodes = [
        scheduler.select([_task(i)], cluster, _never_gpu).node
        for i in range(picks)
    ]
    assert nodes == [i % n for i in range(picks)]
    assert len(set(nodes)) == min(n, picks)


@settings(max_examples=60, deadline=None)
@given(state=cluster_and_ready())
def test_locality_still_prefers_owner_over_rotation(state):
    # The tie-break fix must not weaken the policy itself: when one node
    # holds strictly more of the head task's bytes than all others and is
    # usable, it wins regardless of the rotation cursor.
    cluster, ready = state
    if not ready:
        return
    owner = 0
    if cluster.num_nodes() > 0:
        task = _task(99, input_homes=[owner, owner])
        scheduler = DataLocalityScheduler()
        choice = scheduler.select([task], cluster, _never_gpu)
        if (
            cluster.has_free_slot(owner, False)
            and not cluster.is_blacklisted(owner)
        ):
            assert choice is not None and choice.node == owner


def test_blacklisted_preferred_owner_falls_back():
    # Deterministic regression: the owner node is blacklisted, so the
    # locality policy must place the task elsewhere.
    scheduler = DataLocalityScheduler()
    cluster = FakeCluster([1, 1, 1], blacklist={2})
    choice = scheduler.select([_task(0, input_homes=[2])], cluster, _never_gpu)
    assert choice is not None
    assert choice.node != 2


def test_stub_without_blacklist_still_works():
    # ClusterViews that predate the blacklist (plain stubs) keep working.
    class Bare:
        def num_nodes(self):
            return 2

        def has_free_slot(self, node, needs_gpu, ram_bytes=0):
            return True

    for policy in ALL_POLICIES:
        choice = make_scheduler(policy).select([_task(0)], Bare(), _never_gpu)
        assert choice is not None


# ------------------------------------------------------- residency resolution


class ResolvingCluster(FakeCluster):
    """A view whose ``resident_node`` may disagree with ``ref.home_node``,
    modelling blocks that moved or were evicted since the ref was written."""

    def __init__(self, free_cores, residency, **kwargs):
        super().__init__(free_cores, **kwargs)
        self._residency = residency

    def resident_node(self, ref):
        return self._residency(ref)


def test_locality_scores_against_residency_not_stale_home():
    # Regression (moved block): the ref still records home_node=1, but the
    # block now lives on node 2 — the resolver, not the stale home, must
    # earn the locality credit.
    scheduler = DataLocalityScheduler()
    cluster = ResolvingCluster([1, 1, 1], residency=lambda ref: 2)
    choice = scheduler.select([_task(0, input_homes=[1, 1])], cluster, _never_gpu)
    assert choice is not None
    assert choice.node == 2


def test_locality_gives_no_credit_for_evicted_blocks():
    # Regression (evicted block): the resolver reports every input as
    # off-cluster, so the stale home_node=2 must not attract the task;
    # an all-zero tie falls back to the round-robin cursor (node 0).
    scheduler = DataLocalityScheduler()
    cluster = ResolvingCluster([1, 1, 1], residency=lambda ref: None)
    choice = scheduler.select([_task(0, input_homes=[2, 2])], cluster, _never_gpu)
    assert choice is not None
    assert choice.node == 0


def test_index_scores_win_over_both_home_and_resolver():
    # When the view maintains a LocalityIndex the scheduler must read it
    # (O(1)) instead of re-resolving; give the three sources three
    # different answers and check the index one wins.
    index = LocalityIndex()
    task = _task(0, input_homes=[1])
    index.add(task, lambda ref: 2)

    cluster = ResolvingCluster([1, 1, 1], residency=lambda ref: 0)
    cluster.locality_index = index
    choice = DataLocalityScheduler().select([task], cluster, _never_gpu)
    assert choice is not None
    assert choice.node == 2


# ------------------------------------------------------ nested-scan oracle


class NestedScanLocalityScheduler(DataLocalityScheduler):
    """The data-locality policy as a plain ready x nodes scan.

    Every ready task re-probes every node.  It is the oracle that the
    per-resource-key memo of :meth:`DataLocalityScheduler.select` must
    agree with, assignment for assignment and cursor for cursor.
    """

    def select(self, ready, cluster, requires_gpu):
        n = cluster.num_nodes()
        index = getattr(cluster, "locality_index", None)
        resolve = getattr(cluster, "resident_node", None)
        for task in ready:
            best_node = None
            best_bytes = -1
            needs_gpu = requires_gpu(task)
            ram_bytes = task_ram_bytes(task)
            by_node = index.bytes_map(task.task_id) if index is not None else None
            for offset in range(n):
                node = (self._next_node + offset) % n
                if not node_usable(cluster, node, needs_gpu, ram_bytes):
                    continue
                if by_node is not None:
                    local_bytes = by_node.get(node, 0)
                elif resolve is not None:
                    local_bytes = sum(
                        ref.size_bytes for ref in task.inputs if resolve(ref) == node
                    )
                else:
                    local_bytes = sum(
                        ref.size_bytes for ref in task.inputs if ref.home_node == node
                    )
                if local_bytes > best_bytes:
                    best_bytes = local_bytes
                    best_node = node
            if best_node is not None:
                self._next_node = (best_node + 1) % n
                return Assignment(task=task, node=best_node)
        return None


RAM_SIZES = (0, 100, 300)


@st.composite
def select_sequences(draw):
    """A random cluster, ready queue, scoring variant and op sequence."""
    n = draw(st.integers(1, 6))
    nodes = st.integers(0, n - 1)
    cluster_args = dict(
        free_cores=draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
        free_gpus=draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
        free_ram=draw(
            st.lists(st.sampled_from((0, 100, 200, 400)), min_size=n, max_size=n)
        ),
        blacklist=draw(st.sets(nodes, max_size=n)),
    )
    task_args = st.tuples(st.lists(nodes, max_size=3), st.sampled_from(RAM_SIZES))
    ready = draw(st.lists(task_args, max_size=12))
    ops = draw(
        st.lists(
            st.one_of(
                st.just(("select",)),
                st.tuples(st.just("release"), nodes),
                st.tuples(st.just("blacklist"), nodes),
                st.tuples(st.just("reboot"), nodes),
                st.tuples(st.just("arrive"), task_args),
            ),
            max_size=30,
        )
    )
    gpu_ids = draw(st.sets(st.integers(0, 40)))
    scoring = draw(st.sampled_from(("index", "resolver", "home")))
    # Resolver and index variants see some blocks moved or lost.
    moved = draw(st.dictionaries(nodes, st.one_of(st.none(), nodes)))
    return n, cluster_args, ready, ops, gpu_ids, scoring, moved


@settings(max_examples=150, deadline=None)
@given(case=select_sequences())
def test_locality_select_equals_nested_scan_oracle(case):
    # Over a whole sequence of selects interleaved with dispatches,
    # releases, blacklisting and arrivals, the memoised select and the
    # nested-scan oracle make the same assignments and move the cursor
    # the same way, under every scoring source.
    n, cluster_args, ready_args, ops, gpu_ids, scoring, moved = case

    def resolve(ref):
        return moved.get(ref.home_node, ref.home_node)

    if scoring == "home":
        cluster = FakeCluster(**cluster_args)
    else:
        cluster = ResolvingCluster(residency=resolve, **cluster_args)
    index = LocalityIndex() if scoring == "index" else None
    if index is not None:
        cluster.locality_index = index

    ready = []
    task_ids = itertools.count()

    def arrive(homes, ram_bytes):
        task = _task(next(task_ids), input_homes=homes, ram_bytes=ram_bytes)
        ready.append(task)
        if index is not None:
            index.add(task, resolve)

    for homes, ram_bytes in ready_args:
        arrive(homes, ram_bytes)

    def requires_gpu(task):
        return task.task_id % 41 in gpu_ids

    memo, oracle = DataLocalityScheduler(), NestedScanLocalityScheduler()
    for op in ops + [("select",)]:
        if op[0] == "select":
            got = memo.select(ready, cluster, requires_gpu)
            want = oracle.select(ready, cluster, requires_gpu)
            assert got == want
            assert memo._next_node == oracle._next_node
            if got is None:
                continue
            task, node = got.task, got.node
            cluster.free_cores[node] -= 1
            if requires_gpu(task):
                cluster.free_gpus[node] -= 1
            cluster.free_ram[node] -= task_ram_bytes(task)
            ready.remove(task)
            if index is not None:
                index.discard(task.task_id)
        elif op[0] == "release":
            cluster.free_cores[op[1]] += 1
            cluster.free_gpus[op[1]] += 1
            cluster.free_ram[op[1]] += 100
        elif op[0] == "blacklist":
            cluster.blacklist.add(op[1])
        elif op[0] == "reboot":
            cluster.blacklist.discard(op[1])
        else:
            arrive(*op[1])


def test_busy_gpus_select_probes_each_key_once():
    # Every node has free cores but no free GPU -- a cluster the executor
    # still hands to select.  500 ready GPU tasks in two RAM keys, then
    # one CPU task: one select probes each of the three keys' nodes once
    # (24 probes) and places the CPU task, where the nested scan probes
    # every (task, node) pair (4,008).
    ready = [
        _task(i, input_homes=[i % 8], ram_bytes=(i % 2) * 100) for i in range(500)
    ]
    ready.append(_task(500, input_homes=[3]))

    def gpu_tasks(task):
        return task.task_id < 500

    cluster = FakeCluster([4] * 8, free_gpus=[0] * 8)
    assert DataLocalityScheduler().select(ready, cluster, gpu_tasks) == Assignment(
        task=ready[-1], node=3
    )
    assert cluster.probes <= 24

    cluster = FakeCluster([4] * 8, free_gpus=[0] * 8)
    assert NestedScanLocalityScheduler().select(
        ready, cluster, gpu_tasks
    ) == Assignment(task=ready[-1], node=3)
    assert cluster.probes == 4008


# ------------------------------------------------- locality-index equivalence


@st.composite
def index_op_sequences(draw):
    """Random interleavings of add / discard / node-failure operations."""
    n_nodes = draw(st.integers(1, 4))
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("add"),
                    st.integers(0, 9),
                    st.lists(st.integers(0, n_nodes - 1), max_size=4),
                ),
                st.tuples(st.just("discard"), st.integers(0, 9)),
                st.tuples(st.just("drop"), st.integers(0, n_nodes - 1)),
            ),
            max_size=24,
        )
    )
    return n_nodes, ops


@settings(max_examples=80, deadline=None)
@given(state=index_op_sequences())
def test_locality_index_equals_recompute_after_every_op(state):
    # The index's incremental state must equal summing each indexed
    # task's inputs from scratch against current residency, after every
    # single mutation — including node failures purging resident bytes.
    _, ops = state
    index = LocalityIndex()
    tasks: dict[int, Task] = {}
    indexed: set[int] = set()
    dead: set[int] = set()

    def resolve(ref):
        return ref.home_node if ref.home_node not in dead else None

    for op in ops:
        if op[0] == "add":
            _, task_id, homes = op
            if task_id in indexed:
                continue  # ready-set ids are unique at any instant
            task = _task(task_id, input_homes=homes)
            tasks[task_id] = task
            indexed.add(task_id)
            index.add(task, resolve)
        elif op[0] == "discard":
            indexed.discard(op[1])
            index.discard(op[1])
        else:
            dead.add(op[1])
            index.drop_node(op[1])
        expected = {
            task_id: {
                node: total
                for node, total in _bytes_by_node(tasks[task_id], resolve).items()
            }
            for task_id in indexed
        }
        actual = index.snapshot()
        # A task whose inputs all died keeps an (empty) entry; both sides
        # score identically, so compare non-empty maps plus membership.
        assert set(actual) == indexed
        assert {t: m for t, m in actual.items() if m} == {
            t: m for t, m in expected.items() if m
        }
        for task_id in indexed:
            for node in range(4):
                assert index.bytes_for(task_id, node) == expected[task_id].get(
                    node, 0
                )


def _bytes_by_node(task, resolve):
    by_node: dict[int, int] = {}
    for ref in task.inputs:
        node = resolve(ref)
        if node is not None:
            by_node[node] = by_node.get(node, 0) + ref.size_bytes
    return by_node


# ------------------------------------------- executor-level state equivalence


class CheckedExecutor(SimulatedExecutor):
    """Re-derives the fast dispatch path's state from scratch after every
    ready-set mutation and asserts it matches the incremental version."""

    checks = 0

    def _check_state(self) -> None:
        self.checks += 1
        assert self._ready == sorted(set(self._ready))
        expected_gpu = sum(
            1 for task_id in self._ready if task_id in self._gpu_intended_ids
        )
        assert self._ready_gpu_intended == expected_gpu
        if self._locality_index is None:
            return
        expected = {
            task_id: _bytes_by_node(
                self._graph.task(task_id), self._view.resident_node
            )
            for task_id in self._ready
        }
        actual = self._locality_index.snapshot()
        assert set(actual) == set(self._ready)
        assert {t: m for t, m in actual.items() if m} == {
            t: m for t, m in expected.items() if m
        }

    def _ready_insert(self, task_id):
        super()._ready_insert(task_id)
        self._check_state()

    def _ready_remove(self, task_id):
        removed = super()._ready_remove(task_id)
        self._check_state()
        return removed


@settings(max_examples=20, deadline=None)
@given(
    width=st.integers(2, 5),
    depth=st.integers(2, 4),
    fan_in=st.integers(1, 3),
    seed=st.integers(0, 10_000),
    policy=st.sampled_from(
        [SchedulingPolicy.DATA_LOCALITY, SchedulingPolicy.GENERATION_ORDER]
    ),
    use_gpu=st.booleans(),
    faults=st.booleans(),
)
def test_incremental_dispatch_state_equals_recompute(
    width, depth, fan_in, seed, policy, use_gpu, faults
):
    # Full simulated runs over random generated DAGs: after every
    # completion event (and every dispatch) the incrementally maintained
    # ready set, GPU-intended counter, and locality index must equal a
    # from-scratch recomputation — with faults, that includes node deaths
    # purging the index mid-run.
    config = RuntimeConfig(
        storage=StorageKind.LOCAL,
        scheduling=policy,
        use_gpu=use_gpu,
        fault_plan=(
            FaultPlan(
                node_faults=(NodeFault(node=1, at_time=0.05),),
                crash_probability=0.05,
                seed=seed % 97,
            )
            if faults
            else None
        ),
        retry_policy=(
            RetryPolicy(max_attempts=2, backoff_base=0.01) if faults else None
        ),
    )
    runtime = Runtime(config)
    GeneratedDagWorkflow(
        width=width, depth=depth, fan_in=fan_in, block_mb=1.0, seed=seed
    ).build(runtime)
    executor = CheckedExecutor(
        cluster_spec=config.cluster,
        storage=config.storage,
        scheduling=config.scheduling,
        use_gpu=config.use_gpu,
        fault_plan=config.fault_plan,
        retry_policy=config.retry_policy,
    )
    executor.execute(runtime.graph)
    assert executor.checks >= width * depth
