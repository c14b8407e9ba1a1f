"""The Raft consensus protocol: elections, replication, commit.

A :class:`RaftNode` is embedded in each Raft OSN (as Fabric 1.4 embeds etcd
raft in the orderer).  It implements the full protocol of the Raft paper:

- randomized election timeouts; candidates solicit votes with their log's
  last index/term, voters grant at most one vote per term and only to
  candidates whose log is at least as up-to-date (§5.2, §5.4.1);
- AppendEntries with the (prevLogIndex, prevLogTerm) consistency check and
  conflict truncation (§5.3);
- commit advancement only over majorities *in the leader's current term*
  (§5.4.2), with a no-op entry appended on election so earlier-term entries
  commit promptly;
- fail-stop crashes: a crashed node neither sends nor receives; on recovery
  it rejoins as a follower with its log intact.

The node delegates message transport, CPU costs, and timers to its owner
(an OSN), keeping the protocol logic pure.
"""

from __future__ import annotations

import enum
import typing

from repro.orderer.raft.log import LogEntry, RaftLog
from repro.sim.network import Message

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.node import NodeBase

#: Max entries shipped per AppendEntries message.
MAX_ENTRIES_PER_APPEND = 16


class RaftState(enum.Enum):
    FOLLOWER = "follower"
    CANDIDATE = "candidate"
    LEADER = "leader"


class RaftNode:
    """The consensus component embedded in one OSN."""

    def __init__(self, owner: "NodeBase", peer_names: list[str],
                 election_timeout: float, heartbeat_interval: float,
                 apply_callback: typing.Callable[
                     [typing.Any], typing.Generator],
                 on_leader_change: typing.Callable[[str | None], None]
                 ) -> None:
        self.owner = owner
        self.sim = owner.sim
        self.name = owner.name
        self.peers = [name for name in peer_names if name != owner.name]
        self.cluster_size = len(peer_names)
        self.election_timeout = election_timeout
        self.heartbeat_interval = heartbeat_interval
        self._apply_callback = apply_callback
        self._on_leader_change = on_leader_change
        self._rng = owner.context.rng.stream(f"raft.{self.name}")

        # Persistent state.
        self.current_term = 0
        self.voted_for: str | None = None
        self.log = RaftLog()
        # Volatile state.
        self.state = RaftState.FOLLOWER
        self.commit_index = 0
        self.last_applied = 0
        self.leader_id: str | None = None
        self.votes_received: set[str] = set()
        # Leader state.
        self.next_index: dict[str, int] = {}
        self.match_index: dict[str, int] = {}

        self._election_epoch = 0
        self._heartbeat_epoch = 0
        self._started = False
        self._applying = False

        owner.on("raft_request_vote", self._handle_request_vote)
        owner.on("raft_vote", self._handle_vote)
        owner.on("raft_append_entries", self._handle_append_entries)
        owner.on("raft_append_response", self._handle_append_response)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def start(self) -> None:
        if not self._started:
            self._started = True
            self._reset_election_timer()

    def on_recover(self) -> None:
        """Rejoin as a follower after a fail-stop crash (log intact).

        All timers that were pending when the node crashed have fired and
        bailed on the ``owner.crashed`` check, so the election timer must be
        re-armed or the node would never participate again.
        """
        if not self._started:
            return
        if self.state is not RaftState.FOLLOWER:
            self.state = RaftState.FOLLOWER
            self._heartbeat_epoch += 1
        self._set_leader(None)
        self.votes_received = set()
        self._reset_election_timer()

    @property
    def is_leader(self) -> bool:
        return self.state is RaftState.LEADER

    @property
    def majority(self) -> int:
        return self.cluster_size // 2 + 1

    def _reset_election_timer(self) -> None:
        self._election_epoch += 1
        if self.cluster_size == 1 and self.state is not RaftState.LEADER:
            # Single-node cluster: win immediately, no one to wait for.
            self.sim.process(self._single_node_ascend())
            return
        delay = self._rng.uniform(self.election_timeout,
                                  2 * self.election_timeout)
        self.sim.process(self._election_timer(self._election_epoch, delay))

    def _single_node_ascend(self):
        yield self.sim.timeout(0)
        if not self.owner.crashed and self.state is not RaftState.LEADER:
            self._start_election()

    def _election_timer(self, epoch: int, delay: float):
        yield self.sim.timeout(delay)
        if (self.owner.crashed or epoch != self._election_epoch
                or self.state is RaftState.LEADER):
            return
        self._start_election()

    # ------------------------------------------------------------------
    # Elections
    # ------------------------------------------------------------------

    def _start_election(self) -> None:
        self.current_term += 1
        self.state = RaftState.CANDIDATE
        self.voted_for = self.name
        self.votes_received = {self.name}
        self._set_leader(None)
        self._reset_election_timer()
        if len(self.votes_received) >= self.majority:
            self._become_leader()
            return
        for peer in self.peers:
            self.owner.send(peer, "raft_request_vote", {
                "term": self.current_term,
                "candidate": self.name,
                "last_log_index": self.log.last_index,
                "last_log_term": self.log.last_term,
            })

    def _handle_request_vote(self, message: Message):
        payload = message.payload
        term = payload["term"]
        if term > self.current_term:
            self._step_down(term)
        granted = False
        if (term == self.current_term
                and self.voted_for in (None, payload["candidate"])
                and self.log.is_up_to_date(payload["last_log_index"],
                                           payload["last_log_term"])):
            granted = True
            self.voted_for = payload["candidate"]
            self._reset_election_timer()
        self.owner.send(message.source, "raft_vote", {
            "term": self.current_term,
            "granted": granted,
            "voter": self.name,
        })

    def _handle_vote(self, message: Message):
        payload = message.payload
        if payload["term"] > self.current_term:
            self._step_down(payload["term"])
            return
        if (self.state is not RaftState.CANDIDATE
                or payload["term"] != self.current_term
                or not payload["granted"]):
            return
        self.votes_received.add(payload["voter"])
        if len(self.votes_received) >= self.majority:
            self._become_leader()

    def _become_leader(self) -> None:
        self.state = RaftState.LEADER
        self._set_leader(self.name)
        self.next_index = {peer: self.log.last_index + 1
                           for peer in self.peers}
        self.match_index = {peer: 0 for peer in self.peers}
        self._election_epoch += 1  # stop the election timer
        # Raft §5.4.2: a no-op in the new term lets earlier entries commit.
        self.propose(("noop", self.current_term))
        self._heartbeat_epoch += 1
        self.sim.process(self._heartbeat_loop(self._heartbeat_epoch))

    def _step_down(self, term: int) -> None:
        higher_term = term > self.current_term
        if higher_term:
            self.current_term = term
            self.voted_for = None
        if self.state is not RaftState.FOLLOWER or higher_term:
            self.state = RaftState.FOLLOWER
            self._heartbeat_epoch += 1
            self._reset_election_timer()

    def _set_leader(self, leader: str | None) -> None:
        if leader != self.leader_id:
            self.leader_id = leader
            self._on_leader_change(leader)

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------

    def propose(self, payload: typing.Any) -> int | None:
        """Leader-only: append ``payload`` and replicate.  Returns index."""
        if self.state is not RaftState.LEADER:
            return None
        index = self.log.append(LogEntry(self.current_term, payload))
        if self.cluster_size == 1:
            self._advance_commit()
            self._kick_apply()
        else:
            for peer in self.peers:
                self._send_append(peer)
        return index

    def _heartbeat_loop(self, epoch: int):
        while True:
            yield self.sim.timeout(self.heartbeat_interval)
            if (self.owner.crashed or epoch != self._heartbeat_epoch
                    or self.state is not RaftState.LEADER):
                return
            for peer in self.peers:
                self._send_append(peer)

    def _send_append(self, peer: str) -> None:
        next_index = self.next_index[peer]
        prev_index = next_index - 1
        prev_term = self.log.term_at(prev_index) if (
            prev_index <= self.log.last_index) else 0
        entries = self.log.slice_from(next_index, MAX_ENTRIES_PER_APPEND)
        size = 128 + sum(self._entry_size(entry) for entry in entries)
        self.owner.send(peer, "raft_append_entries", {
            "term": self.current_term,
            "leader": self.name,
            "prev_log_index": prev_index,
            "prev_log_term": prev_term,
            "entries": entries,
            "leader_commit": self.commit_index,
        }, size=size)

    @staticmethod
    def _entry_size(entry: LogEntry) -> int:
        kind = entry.payload[0] if isinstance(entry.payload, tuple) else ""
        if kind == "block":
            return entry.payload[1].wire_size()
        return 64

    def _handle_append_entries(self, message: Message):
        payload = message.payload
        term = payload["term"]
        if term > self.current_term:
            self._step_down(term)
        if term < self.current_term:
            self.owner.send(message.source, "raft_append_response", {
                "term": self.current_term, "success": False,
                "follower": self.name, "match_index": 0,
            })
            return
        # Valid leader for our term.
        if self.state is not RaftState.FOLLOWER:
            self._step_down(term)
        self._set_leader(payload["leader"])
        self._reset_election_timer()
        if not self.log.matches(payload["prev_log_index"],
                                payload["prev_log_term"]):
            self.owner.send(message.source, "raft_append_response", {
                "term": self.current_term, "success": False,
                "follower": self.name, "match_index": 0,
            })
            return
        entries: list[LogEntry] = payload["entries"]
        if entries:
            yield from self.owner.compute(
                self.owner.costs.raft_append_cpu * len(entries))
            yield from self.owner.compute(
                self.owner.costs.consensus_fsync_io)
            self.log.merge(payload["prev_log_index"], entries)
        match_index = payload["prev_log_index"] + len(entries)
        if payload["leader_commit"] > self.commit_index:
            self.commit_index = min(payload["leader_commit"],
                                    self.log.last_index)
            self._kick_apply()
        self.owner.send(message.source, "raft_append_response", {
            "term": self.current_term, "success": True,
            "follower": self.name, "match_index": match_index,
        })

    def _handle_append_response(self, message: Message):
        payload = message.payload
        if payload["term"] > self.current_term:
            self._step_down(payload["term"])
            return
        if (self.state is not RaftState.LEADER
                or payload["term"] != self.current_term):
            return
        follower = payload["follower"]
        if payload["success"]:
            match = payload["match_index"]
            if match > self.match_index.get(follower, 0):
                self.match_index[follower] = match
            self.next_index[follower] = self.match_index[follower] + 1
            self._advance_commit()
            if self.next_index[follower] <= self.log.last_index:
                self._send_append(follower)  # ship the backlog
        else:
            self.next_index[follower] = max(1,
                                            self.next_index[follower] - 1)
            self._send_append(follower)
        self._kick_apply()

    def _advance_commit(self) -> None:
        """Commit the highest index replicated on a majority in this term."""
        for index in range(self.log.last_index, self.commit_index, -1):
            if self.log.term_at(index) != self.current_term:
                break  # §5.4.2: only current-term entries commit by count
            replicas = 1 + sum(
                1 for peer in self.peers
                if self.match_index.get(peer, 0) >= index)
            if replicas >= self.majority:
                self.commit_index = index
                break

    def _kick_apply(self) -> None:
        """Start the apply pump if committed entries are waiting.

        Application is serialized through a single pump process: concurrent
        AppendEntries handlers must never interleave apply callbacks, or
        blocks would be delivered out of order.
        """
        if not self._applying and self.last_applied < self.commit_index:
            self.sim.process(self._apply_pump())

    def _apply_pump(self):
        self._applying = True
        try:
            while self.last_applied < self.commit_index:
                self.last_applied += 1
                entry = self.log.entry_at(self.last_applied)
                yield from self._apply_callback(entry.payload)
        finally:
            self._applying = False
