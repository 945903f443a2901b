"""Simulated MPI runtime with PMPI-style instrumentation.

Models the message-passing behaviour GenIDLEST exhibits: asynchronous
``MPI_Isend``/``MPI_Irecv`` ghost-cell updates that overlap with on-rank
copies, plus barriers and reductions.  Communication cost follows the
standard latency/bandwidth (Hockney) model with a NUMAlink-style
hop-dependent latency term.

Every MPI call is wrapped in a profiler region named after the operation
(``"MPI_Isend()"``...), mirroring how real TAU interposes PMPI — so MPI time
shows up in profiles as its own events, distinguishable by the ``MPI``
group, and rules can reason about communication fractions.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import KW_ONLY, dataclass

from ..machine import Machine, WorkSignature
from . import trace as T
from .exec import RegionAccess, execute_work
from .tau import Profiler


class MPIError(Exception):
    """Raised for invalid ranks, unmatched messages, or misuse."""


@dataclass(frozen=True)
class CommModel:
    """Hockney-style communication cost parameters.

    Defaults approximate NUMAlink 4: ~1.2 µs base latency, ~0.15 µs per
    fabric hop, ~3.2 GB/s per-link bandwidth.
    """

    base_latency_s: float = 1.2e-6
    per_hop_latency_s: float = 0.15e-6
    bandwidth_bytes_per_s: float = 3.2e9

    def transfer_seconds(self, nbytes: float, hops: int) -> float:
        if nbytes < 0:
            raise MPIError("message size must be non-negative")
        return (
            self.base_latency_s
            + self.per_hop_latency_s * hops
            + nbytes / self.bandwidth_bytes_per_s
        )


#: Per posted kind: its PMPI event, trace event kind and plural noun.
_POSTS = {"send": ("MPI_Isend()", T.SEND, "sends"),
          "recv": ("MPI_Irecv()", T.RECV, "receives")}
#: Per posted kind: the trace attrs key of its partner rank.
_PARTNER = {"send": "dest", "recv": "source"}


@dataclass(eq=False, slots=True)
class Request:
    """Handle returned by nonblocking operations (MPI_Request).

    ``id`` numbers the requests of one :class:`MPIRuntime` from 1 in
    posting order, so a rerun records the same ids.
    """

    kind: str  # 'send' | 'recv'
    rank: int
    _: KW_ONLY
    #: Peer rank (dest for sends, source for recvs).
    partner: int | None = None
    nbytes: float = 0.0
    tag: int = 0
    id: int = 0
    #: Completion time; None until matched (recv) / immediately (send).
    complete_at: float | None = None
    matched: bool = False
    #: When the matching send was posted (recvs; own post time for sends).
    posted_at: float | None = None


class MPIRuntime:
    """``n_ranks`` simulated MPI processes pinned one-per-CPU.

    Parameters
    ----------
    cpus:
        CPU each rank runs on; defaults to ranks 0..n-1 on CPUs 0..n-1.
    """

    comm = CommModel()

    def __init__(
        self,
        machine: Machine,
        profiler: Profiler,
        n_ranks: int,
        *,
        cpus: list[int] | None = None,
    ) -> None:
        if n_ranks < 1:
            raise MPIError("need at least one rank")
        self.machine = machine
        self.profiler = profiler
        self.n_ranks = n_ranks
        if cpus is None:
            cpus = list(range(n_ranks))
        if len(cpus) != n_ranks or len(set(cpus)) != n_ranks:
            raise MPIError("cpus must be one distinct cpu per rank")
        for c in cpus:
            if not 0 <= c < machine.n_cpus:
                raise MPIError(f"cpu {c} out of range")
        self.cpus = list(cpus)
        # (dest, src, tag) → (ready_at, posted_at) of the messages in
        # flight: when each is available at the receiver and was sent
        self._in_flight: dict[tuple[int, int, int], list[tuple[float, float]]] = {}
        # each rank's posted receives not yet matched
        self._pending: dict[int, list[Request]] = {r: [] for r in range(n_ranks)}
        self._hop_counts: dict[tuple[int, int], int] = {}
        #: Sequence numbers grouping the participants of one collective.
        self._collective_seq = itertools.count(0)
        self._next_request_id = 1

    @property
    def _trace(self) -> "T.EventTrace | None":
        return self.profiler.trace

    # -- helpers --------------------------------------------------------------
    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.n_ranks:
            raise MPIError(f"rank {rank} out of range (size {self.n_ranks})")

    def cpu_of(self, rank: int) -> int:
        self._check_rank(rank)
        return self.cpus[rank]

    def clock(self, rank: int) -> float:
        return self.profiler.clock(self.cpu_of(rank))

    def _hops(self, a: int, b: int) -> int:
        if (a, b) not in self._hop_counts:
            self._hop_counts[a, b] = self.machine.topology.hops(
                self.machine.node_of_cpu(self.cpu_of(a)),
                self.machine.node_of_cpu(self.cpu_of(b)))
        return self._hop_counts[a, b]

    # -- point-to-point ------------------------------------------------------
    #: CPU-side cost of posting a nonblocking operation.
    POST_OVERHEAD_S = 0.4e-6

    def isend(self, rank: int, dest: int, nbytes: float, *, tag: int = 0) -> Request:
        return self.post([rank], [("send", [dest], tag)], [nbytes])[0][0]

    def irecv(self, rank: int, source: int, nbytes: float, *, tag: int = 0) -> Request:
        return self.post([rank], [("recv", [source], tag)], [nbytes])[0][0]

    def post(
        self,
        ranks: list[int],
        ops: list[tuple[str, list[int], int]],
        nbytes: list[float],
    ) -> list[list[Request]]:
        """Post nonblocking operations on distinct ``ranks`` in lockstep:
        for each ``(kind, partners, tag)`` of ``ops`` (``"send"``/``"recv"``)
        rank ``ranks[i]`` posts ``nbytes[i]`` bytes with ``partners[i]``, as
        a loop over the ranks calling :meth:`isend`/:meth:`irecv` would
        (request ids and trace order included).  Returns each rank's
        requests in posting order."""
        for rank in itertools.chain(ranks, *(partners for _, partners, _ in ops)):
            self._check_rank(rank)
        cpus = [self.cpus[r] for r in ranks]
        n, stride = len(ranks), len(ops)
        first = self._next_request_id
        self._next_request_id += n * stride
        requests: list[list[Request]] = [[] for _ in ranks]
        prof, trace = self.profiler, self._trace
        idle = self.machine.processor.idle_vector(self.POST_OVERHEAD_S).as_array()
        with prof.lockstep(cpus):
            for j, (kind, partners, tag) in enumerate(ops):
                event, trace_kind, noun = _POSTS[kind]
                if any(map(operator.eq, ranks, partners)):
                    raise MPIError(f"self-{noun} are not modeled")
                prof.leaf_set(cpus, event, idle, group="MPI", _idle=True)
                posted = prof.clocks(cpus)
                ids = range(first + j, first + n * stride, stride)
                if kind == "send":
                    # Nonblocking sends complete locally once the payload is
                    # handed to the NIC, which the post overhead charges.
                    reqs = [Request(kind, rank, partner=partner, nbytes=size,
                                    tag=tag, id=i, complete_at=at,
                                    matched=True, posted_at=at)
                            for rank, partner, size, i, at
                            in zip(ranks, partners, nbytes, ids, posted)]
                    ready = self._send(reqs)
                else:
                    reqs = [Request(kind, rank, partner=partner, nbytes=size,
                                    tag=tag, id=i)
                            for rank, partner, size, i
                            in zip(ranks, partners, nbytes, ids)]
                    for rank, req in zip(ranks, reqs):
                        self._pending[rank].append(req)
                for mine, req in zip(requests, reqs):
                    mine.append(req)
                if trace is not None:
                    attrs = {"rank": list(ranks), _PARTNER[kind]: list(partners),
                             "bytes": list(nbytes), "tag": [tag] * n}
                    if kind == "send":
                        attrs["ready_at"] = ready
                    attrs["req_id"] = list(ids)
                    trace.emit_many(trace_kind, cpus, posted, event, attrs)
        return requests

    def _send(self, reqs: list[Request]) -> list[float]:
        """Put posted sends' messages in flight; returns when each lands
        at its receiver."""
        ready = []
        for req in reqs:
            at = req.posted_at + self.comm.transfer_seconds(
                req.nbytes, self._hops(req.rank, req.partner))
            self._in_flight.setdefault(
                (req.partner, req.rank, req.tag), []).append((at, req.posted_at))
            ready.append(at)
        return ready

    def _match(self, req: Request) -> None:
        """Complete a posted receive with the oldest matching message."""
        key = (req.rank, req.partner, req.tag)
        queue = self._in_flight.get(key, [])
        if not queue:
            raise MPIError(
                f"rank {req.rank}: no matching send for recv(source="
                f"{req.partner}, tag={req.tag}) — deadlock in simulated app"
            )
        req.complete_at, req.posted_at = queue.pop(0)
        if not queue:
            del self._in_flight[key]
        req.matched = True

    def wait(self, rank: int, request: Request) -> None:
        self.waitall(rank, [request])

    def waitall(self, rank: int, requests: list[Request]) -> None:
        """Block until all requests complete; wait time is charged inside
        the ``MPI_Waitall()`` event."""
        self.waitall_set([rank], [requests])

    def waitall_set(self, ranks: list[int], requests: list[list[Request]]) -> None:
        """:meth:`waitall` ``requests[i]`` on ``ranks[i]`` for each of the
        distinct ``ranks``, in lockstep."""
        for rank in ranks:
            self._check_rank(rank)
        cpus = [self.cpus[r] for r in ranks]
        starts = self.profiler.clocks(cpus)
        targets = []
        for rank, reqs, start in zip(ranks, requests, starts):
            for req in reqs:
                if req.rank != rank:
                    raise MPIError("waiting on another rank's request")
                if req.kind == "recv" and not req.matched:
                    mine = self._pending[rank]
                    if req not in mine:
                        raise MPIError("unknown request")
                    self._match(req)
                    mine.remove(req)
            targets.append(max(
                [req.complete_at for req in reqs if req.complete_at is not None],
                default=start,
            ))
        with self.profiler.lockstep(cpus):
            self.profiler.enter_set(cpus, "MPI_Waitall()", group="MPI")
            self.profiler.advance_set(cpus, targets)
            self.profiler.exit_set(cpus, "MPI_Waitall()")
            if self._trace is not None:
                self._trace.emit_many(T.WAIT, cpus, starts, "MPI_Waitall()", {
                    "rank": list(ranks), "start": starts,
                    "end": self.profiler.clocks(cpus),
                    "requests": [list(reqs) for reqs in requests]})

    # -- collectives ----------------------------------------------------------
    def barrier(self, *, event: str = "MPI_Barrier()") -> None:
        """All ranks synchronize; log-depth latency cost on top."""
        self._collective(event, self.comm.base_latency_s, {})

    def allreduce(self, nbytes: float) -> None:
        """Recursive-doubling allreduce: log2(p) rounds of nbytes messages."""
        per_round = self.comm.transfer_seconds(
            nbytes, self.machine.topology.max_hops)
        self._collective("MPI_Allreduce()", per_round, {"bytes": nbytes})

    def _collective(self, event: str, per_round: float, extra: dict) -> None:
        """Every rank waits for the last arrival plus log2(p) rounds of
        ``per_round`` seconds inside ``event``."""
        rounds = max(1, math.ceil(math.log2(max(self.n_ranks, 2))))
        cpus = self.cpus
        clocks = self.profiler.clocks(cpus)
        target = max(clocks) + rounds * per_round
        seq = next(self._collective_seq)
        with self.profiler.lockstep(cpus):
            if self._trace is not None:
                n = len(cpus)
                self._trace.emit_many(T.COLLECTIVE, cpus, clocks, event, {
                    "rank": list(range(n)), "arrive": clocks,
                    "release": [target] * n, "seq": [seq] * n,
                    **{key: [value] * n for key, value in extra.items()}})
            self.profiler.enter_set(cpus, event, group="MPI")
            self.profiler.advance_set(cpus, [target] * len(cpus))
            self.profiler.exit_set(cpus, event)

    # -- compute on a rank ------------------------------------------------
    def compute(
        self,
        rank: int,
        event: str,
        work: WorkSignature,
        *,
        page_table=None,
        access: RegionAccess | None = None,
        group: str = "TAU_DEFAULT",
    ) -> None:
        """Run application work on a rank inside a named region."""
        cpu = self.cpu_of(rank)
        self.profiler.enter(cpu, event, group=group)
        execute_work(
            self.machine, self.profiler, cpu, work,
            page_table=page_table, access=access,
        )
        self.profiler.exit(cpu, event)
