"""Configuration dataclasses for networks, channels, orderers, workloads.

Defaults mirror the paper's experimental configuration (Table I and §III/§IV):
20 machines, 1 Gbps Ethernet, BatchSize 100, BatchTimeout 1 s, Kafka
partition=1 / replication-factor=3, a 3-second client-side ordering timeout,
and one workload client per endorsing peer.
"""

from __future__ import annotations

import dataclasses
import typing
from math import inf

from repro.common.errors import ConfigurationError

ORDERER_KINDS = ("solo", "kafka", "raft")
#: Transaction shapes: fresh-key writes, or read-modify-writes that conflict.
WORKLOAD_KINDS = ("unique", "conflict")


@dataclasses.dataclass
class OrdererConfig:
    """Ordering-service configuration (§III of the paper)."""

    kind: str = "solo"
    num_osns: int = 1
    # Kafka-specific (ignored by solo/raft):
    num_brokers: int = 3
    num_zookeepers: int = 3
    partitions: int = 1
    replication_factor: int = 3
    # Block cutting (shared by all kinds):
    batch_size: int = 100
    batch_timeout: float = 1.0
    # Consensus-internal timing:
    raft_election_timeout: float = 0.5
    raft_heartbeat_interval: float = 0.1
    kafka_session_timeout: float = 1.0
    kafka_heartbeat_interval: float = 0.25
    kafka_isr_ack_timeout: float = 0.5

    def validate(self) -> None:
        if self.kind not in ORDERER_KINDS:
            raise ConfigurationError(
                f"unknown orderer kind {self.kind!r}; "
                f"expected one of {ORDERER_KINDS}")
        if self.num_osns < 1:
            raise ConfigurationError("need at least one ordering service node")
        if self.kind == "solo" and self.num_osns != 1:
            raise ConfigurationError(
                "solo ordering runs on a single node by definition")
        if self.batch_size < 1:
            raise ConfigurationError("BatchSize must be >= 1")
        # Written so that NaN fails it: the kernel cannot schedule a NaN or
        # infinite delay, and would fail mid-run without naming the field.
        for field in ("batch_timeout", "raft_election_timeout",
                      "raft_heartbeat_interval", "kafka_session_timeout",
                      "kafka_heartbeat_interval", "kafka_isr_ack_timeout"):
            value = getattr(self, field)
            if not 0 < value < inf:
                raise ConfigurationError(
                    f"{field} must be finite and positive, got {value}")
        if self.kind == "kafka":
            if self.num_brokers < 1 or self.num_zookeepers < 1:
                raise ConfigurationError(
                    "kafka requires at least one broker and one zookeeper")
            if self.replication_factor > self.num_brokers:
                raise ConfigurationError(
                    f"replication factor {self.replication_factor} exceeds "
                    f"broker count {self.num_brokers}")
            if self.partitions != 1:
                raise ConfigurationError(
                    "Fabric uses one Kafka partition per channel")


@dataclasses.dataclass
class ChannelConfig:
    """A channel and the endorsement policy governing it."""

    name: str = "mychannel"
    endorsement_policy: str = "OR(1..n)"  # resolved by the policy parser

    def validate(self) -> None:
        if not self.name:
            raise ConfigurationError("channel name must be non-empty")
        if not self.endorsement_policy:
            raise ConfigurationError("endorsement policy must be non-empty")


@dataclasses.dataclass
class ChannelWorkload:
    """Per-channel workload mix: one channel's share of the offered load.

    ``rate`` is the channel's aggregate arrival rate in tx/s; 0 is a valid
    *idle* channel (joined, ordered, but receiving no traffic).  ``workload``
    picks the transaction shape ("unique" fresh-key writes or "conflict"
    read-modify-writes).  ``key_space``/``skew``/``tx_size`` default to the
    enclosing :class:`WorkloadConfig` values when ``None``.
    """

    rate: float = 0.0
    workload: str = "unique"
    tx_size: int | None = None
    key_space: int | None = None
    skew: float | None = None

    def validate(self, channel: str = "?") -> None:
        if not 0 <= self.rate < inf:
            raise ConfigurationError(
                f"channel {channel!r} rate must be finite and >= 0, got "
                f"{self.rate}")
        if self.workload not in WORKLOAD_KINDS:
            raise ConfigurationError(
                f"channel {channel!r} has unknown workload "
                f"{self.workload!r}; expected 'unique' or 'conflict'")
        if self.tx_size is not None and self.tx_size < 1:
            raise ConfigurationError(
                f"channel {channel!r} tx_size must be >= 1")
        if self.key_space is not None and self.key_space < 1:
            raise ConfigurationError(
                f"channel {channel!r} key_space must be >= 1")
        if self.skew is not None and not self.skew >= 0:
            raise ConfigurationError(
                f"channel {channel!r} skew must be >= 0, got {self.skew}")


@dataclasses.dataclass
class PopulationConfig:
    """Aggregated client population: millions of users, O(cohorts) processes.

    Instead of one kernel process (and one simulated SDK machine) per
    client, the population mode carries ``num_users`` *virtual* users on
    ``cohorts_per_channel`` cohort processes per channel.  Each cohort
    generates the superposed open-loop Poisson arrival stream of its user
    slice (the superposition of N independent Poisson(λ) streams is
    Poisson(Nλ), so one exponential draw per arrival suffices) and stamps
    every transaction with the virtual user that issued it.

    ``user_rate`` is the per-user arrival rate in tx/s; when set, a
    channel's offered load is ``users_on_channel * user_rate`` and
    overrides both ``WorkloadConfig.arrival_rate`` and per-channel rates.
    When ``None``, the aggregate rate comes from the per-channel mixes (or
    an even split of ``arrival_rate``).
    """

    num_users: int = 0
    cohorts_per_channel: int = 1
    user_rate: float | None = None

    def validate(self) -> None:
        if self.num_users < 1:
            raise ConfigurationError(
                f"population num_users must be >= 1, got {self.num_users}")
        if self.cohorts_per_channel < 1:
            raise ConfigurationError(
                "population cohorts_per_channel must be >= 1, got "
                f"{self.cohorts_per_channel}")
        if self.user_rate is not None and not 0 <= self.user_rate < inf:
            raise ConfigurationError(
                f"population user_rate must be finite and >= 0, got "
                f"{self.user_rate}")


@dataclasses.dataclass
class WorkloadConfig:
    """Open-loop workload parameters (§IV.A of the paper)."""

    arrival_rate: float = 100.0      # aggregate transactions per second
    duration: float = 30.0           # seconds of load generation
    tx_size: int = 1                 # paper default: 1-byte transactions
    num_clients: int | None = None   # default: one client per endorsing peer
    arrival_process: str = "uniform"  # "uniform" or "poisson"
    ordering_timeout: float = 3.0    # client rejects after this (paper §IV.C)
    #: Deadline for collecting endorsements, separate from the ordering
    #: timeout (historically the two were conflated into one knob).
    endorsement_timeout: float = 3.0
    #: Bounded client-side resubmission budget per transaction.  0 (the
    #: default) keeps the paper's fire-once client; fault experiments raise
    #: it so clients survive orderer crashes and leader elections.
    max_resubmits: int = 0
    #: Base delay of the exponential backoff between resubmissions; the
    #: actual delay is ``base * 2**attempt`` jittered by ``resubmit_jitter``.
    resubmit_backoff: float = 0.25
    resubmit_jitter: float = 0.5
    warmup: float = 3.0              # measurement window trim, start
    cooldown: float = 2.0            # measurement window trim, end
    key_space: int = 10_000          # distinct keys touched by the workload
    read_write_conflict_skew: float = 0.0  # 0 = uniform keys, >0 = zipfian
    #: Per-channel workload mixes, keyed by channel name.  When set, every
    #: channel of the topology must be listed (explicit is the point:
    #: silent starvation of unlisted channels is exactly the bug this
    #: replaces) and each channel runs its own rate / transaction shape;
    #: a rate of 0 keeps a channel idle.
    per_channel: dict[str, ChannelWorkload] | None = None
    #: Aggregated client-population mode (millions of virtual users on
    #: O(cohorts) kernel processes).  ``None`` keeps the classic
    #: one-process-per-client generator.
    population: PopulationConfig | None = None

    def validate(self) -> None:
        # Zero is a valid *idle* workload (e.g. a drain-only run, or the
        # base rate when every channel carries its own per-channel rate);
        # only negative rates are configuration errors.  Every range check
        # below is written so that NaN fails it, and each rate, delay or
        # horizon must also be finite: the kernel cannot schedule at inf.
        if not 0 <= self.arrival_rate < inf:
            raise ConfigurationError(
                f"arrival_rate must be finite and >= 0, got "
                f"{self.arrival_rate}")
        if not 0 < self.duration < inf:
            raise ConfigurationError(
                f"duration must be finite and positive, got {self.duration}")
        if self.arrival_process not in ("uniform", "poisson"):
            raise ConfigurationError(
                f"unknown arrival process {self.arrival_process!r}")
        if self.num_clients is not None and self.num_clients < 1:
            raise ConfigurationError(
                f"num_clients must be >= 1, got {self.num_clients}; omit "
                "it (None) to default to one client per endorsing peer")
        if not 0 < self.ordering_timeout < inf:
            raise ConfigurationError(
                f"ordering_timeout must be finite and positive, got "
                f"{self.ordering_timeout}")
        if not 0 < self.endorsement_timeout < inf:
            raise ConfigurationError(
                f"endorsement_timeout must be finite and positive, got "
                f"{self.endorsement_timeout}")
        if self.max_resubmits < 0:
            raise ConfigurationError("max_resubmits must be >= 0")
        if not 0 <= self.resubmit_backoff < inf:
            raise ConfigurationError(
                f"resubmit_backoff must be finite and >= 0, got "
                f"{self.resubmit_backoff}")
        if not 0 <= self.resubmit_jitter < 1:
            raise ConfigurationError(
                f"resubmit_jitter must be in [0, 1), got "
                f"{self.resubmit_jitter}")
        if not self.warmup >= 0:
            raise ConfigurationError(
                f"warmup must be >= 0, got {self.warmup}")
        if not self.cooldown >= 0:
            raise ConfigurationError(
                f"cooldown must be >= 0, got {self.cooldown}")
        if not 0 <= self.read_write_conflict_skew < inf:
            raise ConfigurationError(
                f"read_write_conflict_skew must be finite and >= 0, got "
                f"{self.read_write_conflict_skew}")
        if self.warmup + self.cooldown >= self.duration:
            raise ConfigurationError(
                f"warmup ({self.warmup:g}s) + cooldown ({self.cooldown:g}s) "
                f"must be less than duration ({self.duration:g}s) to leave "
                "a measurement window")
        if self.per_channel is not None:
            for channel, mix in self.per_channel.items():
                mix.validate(channel)
        if self.population is not None:
            self.population.validate()


STATEDB_KINDS = ("leveldb", "couchdb")


@dataclasses.dataclass
class StateDBConfig:
    """State-database backend selection and the Thakkar-style toggles.

    ``kind`` picks the cost model: "leveldb" (embedded GoLevelDB — cheap
    point reads, batched sequential writes) or "couchdb" (out-of-process —
    per-HTTP-request overhead, revision lookups on write, bulk APIs).
    ``cache``/``bulk`` enable the read cache and bulk-read/bulk-write
    batching of Thakkar et al.; ``snapshot_interval`` > 0 takes a state
    snapshot every N blocks so a recovered peer can catch up from the
    latest snapshot plus block replay instead of replaying from genesis.
    """

    kind: str = "leveldb"
    #: Versioned read cache in the peer, write-through on commit.
    cache: bool = False
    cache_size: int = 4096
    #: Bulk-read the validation read set and bulk-write the commit batch.
    bulk: bool = False
    #: Take a snapshot every N committed blocks (0 disables snapshots).
    snapshot_interval: int = 0
    #: Model the state DB as lost on crash: a recovering peer rebuilds it
    #: from the latest snapshot + block replay (or genesis replay).
    wipe_on_crash: bool = False

    def validate(self) -> None:
        if self.kind not in STATEDB_KINDS:
            raise ConfigurationError(
                f"unknown state database kind {self.kind!r}; "
                f"expected one of {STATEDB_KINDS}")
        if self.cache_size < 1:
            raise ConfigurationError("cache_size must be >= 1")
        if self.snapshot_interval < 0:
            raise ConfigurationError("snapshot_interval must be >= 0")


@dataclasses.dataclass
class TopologyConfig:
    """Machine and node placement, mirroring the paper's 20-machine cluster."""

    num_endorsing_peers: int = 10
    num_committing_only_peers: int = 0
    orderer: OrdererConfig = dataclasses.field(default_factory=OrdererConfig)
    channel: ChannelConfig = dataclasses.field(default_factory=ChannelConfig)
    #: Further channels beyond the primary one; every peer joins all of
    #: them and the ordering service orders each independently (§II).
    extra_channels: list[ChannelConfig] = dataclasses.field(
        default_factory=list)
    #: State database backend shared by every peer (Fabric configures the
    #: state DB per peer, but the paper's clusters are homogeneous).
    statedb: StateDBConfig = dataclasses.field(default_factory=StateDBConfig)
    # 1 Gbps Ethernet; bandwidth in bytes/second.
    network_bandwidth: float = 125_000_000.0
    network_latency: float = 0.00025
    network_jitter: float = 0.2
    tls_enabled: bool = True
    #: False: every peer opens a deliver stream to an OSN (the paper's
    #: setup).  True: only a leader peer does, and gossips blocks onward.
    gossip: bool = False
    #: Gossip dissemination fan-out.  N > 0 arranges the peers in an
    #: N-ary relay tree rooted at the leader, so a block reaches P peers
    #: in O(log_N P) hops with every peer forwarding at most N copies —
    #: the sane shape for 100+ peer deployments, where a flat fan-out
    #: serialises P-1 unicasts through the leader's NIC.  0 (the default)
    #: is that flat fan-out: the tree of fan-out P-1.
    gossip_fanout: int = 0

    def validate(self, workload: "WorkloadConfig | None" = None) -> None:
        """Validate the topology, optionally cross-checked with a workload.

        Passing the :class:`WorkloadConfig` that will drive this topology
        catches cross-config mistakes a single config cannot see — most
        importantly silent channel starvation, where fewer clients than
        channels leaves the round-robin assignment with zero traffic on
        some channels, or no client to carry a channel's per-channel
        rate (see :func:`plan_load`).
        """
        if self.num_endorsing_peers < 1:
            raise ConfigurationError("need at least one endorsing peer")
        if self.num_committing_only_peers < 0:
            raise ConfigurationError("committing-only peer count must be >= 0")
        if self.gossip_fanout < 0:
            raise ConfigurationError(
                f"gossip_fanout must be >= 0, got {self.gossip_fanout}")
        if not 0 < self.network_bandwidth < inf:
            raise ConfigurationError(
                f"network_bandwidth must be finite and positive, got "
                f"{self.network_bandwidth}")
        for field in ("network_latency", "network_jitter"):
            value = getattr(self, field)
            if not 0 <= value < inf:
                raise ConfigurationError(
                    f"{field} must be finite and >= 0, got {value}")
        self.orderer.validate()
        self.channel.validate()
        self.statedb.validate()
        for channel in self.extra_channels:
            channel.validate()
        names = self.channel_names
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate channel names in {names}")
        if workload is not None:
            self._validate_workload(workload, names)

    def _validate_workload(self, workload: "WorkloadConfig",
                           channel_names: list[str]) -> None:
        if workload.per_channel is not None:
            unknown = sorted(set(workload.per_channel) - set(channel_names))
            if unknown:
                raise ConfigurationError(
                    f"per_channel workload names unknown channel(s) "
                    f"{unknown}; topology channels are {channel_names}")
            missing = [name for name in channel_names
                       if name not in workload.per_channel]
            if missing:
                raise ConfigurationError(
                    f"per_channel workload must cover every channel; "
                    f"missing {missing} (use ChannelWorkload(rate=0) for "
                    "deliberately idle channels)")
        # The planner raises for channels the load cannot reach.
        plan_load(self, workload)

    @property
    def channel_names(self) -> list[str]:
        """The primary channel's name, then the extra channels'."""
        return [self.channel.name] + [channel.name
                                      for channel in self.extra_channels]

    @property
    def num_peers(self) -> int:
        return self.num_endorsing_peers + self.num_committing_only_peers

    @property
    def peer_names(self) -> list[str]:
        """Every peer's name, the endorsing peers first."""
        return [f"peer{index}" for index in range(self.num_peers)]


def chaincode_for(workload: str) -> str:
    """The chaincode each workload shape drives."""
    return "noop" if workload == "unique" else "kvstore"


@dataclasses.dataclass(frozen=True, slots=True)
class LoadSlice:
    """One submitting client's share of the offered load.

    A classic client (``client<i>``) staggers its first arrival by
    ``index / group_size`` of its inter-arrival interval, ``group_size``
    being the number of clients sharing its rate pool.  A cohort
    (``cohort<i>``) carries the virtual users
    ``[user_base, user_base + users)``.
    """

    name: str
    channel: str
    #: This client's arrival rate (tx/s); 0 keeps it idle.
    rate: float
    #: Transaction shape: "unique" fresh-key writes or "conflict" RMWs.
    workload: str
    chaincode: str
    tx_size: int
    key_space: int
    skew: float
    index: int = 0
    group_size: int = 1
    users: int = 0
    user_base: int = 0


def _channel_shape(workload: WorkloadConfig, mix: ChannelWorkload | None,
                   kind: str) -> dict[str, typing.Any]:
    """A channel's transaction shape: its mix, else the workload's."""
    shape: dict[str, typing.Any] = {
        "workload": kind, "tx_size": workload.tx_size,
        "key_space": workload.key_space,
        "skew": workload.read_write_conflict_skew}
    if mix is not None:
        shape["workload"] = mix.workload
        for field in ("tx_size", "key_space", "skew"):
            if getattr(mix, field) is not None:
                shape[field] = getattr(mix, field)
    shape["chaincode"] = chaincode_for(shape["workload"])
    return shape


def plan_load(topology: TopologyConfig, workload: WorkloadConfig,
              kind: str = "unique") -> list[LoadSlice]:
    """Resolve a workload into one load slice per client, in build order.

    This is the one statement of the load rule; the network builds these
    clients, the workload generator drives them, and the analytic model
    sums them per channel.  ``kind`` is the transaction shape of channels
    without a per-channel mix.

    Classic mode (§IV.A, Fig. 1) builds ``num_clients`` clients, by
    default one per endorsing peer; client *i* is bound to channel *i*
    mod C.  The aggregate ``arrival_rate`` splits evenly over all
    clients, or, with per-channel mixes, each channel's rate splits
    evenly over the clients bound to it.

    Population mode builds ``cohorts_per_channel`` cohorts per channel,
    channel-major, and splits the users as evenly as possible (remainder
    to the earliest cohorts).  A cohort's rate is, in priority order,
    ``users * user_rate``, an even share of its channel's mix rate, or an
    even share of ``arrival_rate / C``.  A cohort without users is idle.

    The workload is assumed to cover the topology's channels (see
    :meth:`TopologyConfig.validate`).  Raises
    :class:`~repro.common.errors.ConfigurationError` for an unknown
    ``kind``, a round-robin that leaves channels without clients, and a
    loaded per-channel mix that no client reaches.
    """
    if kind not in WORKLOAD_KINDS:
        raise ConfigurationError(
            f"unknown workload {kind!r}; expected one of {WORKLOAD_KINDS}")
    channels = topology.channel_names
    mixes = workload.per_channel or {}
    shapes = {name: _channel_shape(workload, mixes.get(name), kind)
              for name in channels}
    plan: list[LoadSlice] = []
    population = workload.population
    if population is not None:
        population.validate()
        per_channel = population.cohorts_per_channel
        base_users, remainder = divmod(population.num_users,
                                       per_channel * len(channels))
        user_base = 0
        for channel in channels:
            mix = mixes.get(channel)
            channel_rate = (mix.rate if mix is not None
                            else workload.arrival_rate / len(channels))
            for _ in range(per_channel):
                index = len(plan)
                users = base_users + (1 if index < remainder else 0)
                if users == 0:
                    rate = 0.0
                elif population.user_rate is not None:
                    rate = users * population.user_rate
                else:
                    rate = channel_rate / per_channel
                plan.append(LoadSlice(
                    f"cohort{index}", channel, rate, users=users,
                    user_base=user_base, **shapes[channel]))
                user_base += users
        return plan

    clients = (workload.num_clients if workload.num_clients is not None
               else topology.num_endorsing_peers)
    bound = [channels[index % len(channels)] for index in range(clients)]
    if workload.per_channel is None:
        if clients < len(channels):
            starved = channels[clients:]
            raise ConfigurationError(
                f"{clients} client(s) across {len(channels)} channels "
                f"leaves {starved} with zero traffic; raise num_clients to "
                f">= {len(channels)}, or configure an explicit "
                "per_channel workload mix (rate=0 marks a channel idle on "
                "purpose)")
        rate = workload.arrival_rate / clients
        return [LoadSlice(f"client{index}", channel, rate, index=index,
                          group_size=clients, **shapes[channel])
                for index, channel in enumerate(bound)]
    group_sizes = {name: bound.count(name) for name in channels}
    for channel, mix in mixes.items():
        if mix.rate > 0 and not group_sizes[channel]:
            raise ConfigurationError(
                f"channel {channel!r} has rate {mix.rate:g} tx/s but "
                "no client is bound to it; raise num_clients so the "
                "round-robin reaches it (or set its rate to 0)")
    positions = dict.fromkeys(channels, 0)
    for index, channel in enumerate(bound):
        group_size = group_sizes[channel]
        plan.append(LoadSlice(
            f"client{index}", channel, mixes[channel].rate / group_size,
            index=positions[channel], group_size=group_size,
            **shapes[channel]))
        positions[channel] += 1
    return plan
