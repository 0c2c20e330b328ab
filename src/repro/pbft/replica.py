"""The PBFT replica state machine.

Implements normal-case operation (pre-prepare / prepare / commit, batching,
in-order execution with a simulated service time), checkpointing with
garbage collection, the view-change protocol, and the request/view-change
timer discipline — with the *shared timer* implementation bug from the paper
as the faithful default (see :mod:`repro.pbft.timers`).

Authentication: the replica verifies its own MAC tag on every client request
it handles, whether the request arrived directly, relayed by a backup, or
embedded in a pre-prepare. A request whose tag it cannot verify is not
accepted; a pre-prepare containing such a request is held un-accepted until
an authenticated copy of every request arrives (client retransmissions
re-MAC the request). This is precisely the surface of the Big MAC attack.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Set, Tuple

from ..crypto import KeyStore, MacGenerator, compute_mac, stable_digest
from ..crypto.keys import derive_session_key
from ..sim import Network, Simulator
from ..sim.node import CrashAwareNode
from .behaviors import CORRECT_REPLICA, ReplicaBehavior, mask_corruption_policy
from .config import PbftConfig, replica_name
from .log import ReplicaLog, SequenceSlot
from .messages import (
    CheckpointMsg,
    Commit,
    CommittedSlots,
    FetchCommitted,
    ForwardedRequest,
    NewView,
    PrePrepare,
    Prepare,
    Reply,
    Request,
    Status,
    ViewChange,
    _FNV_OFFSET,
    _FNV_PRIME,
    _MASK64,
)
from .timers import RequestKey, make_view_change_timer

#: Domain-separation constant for execution-result MAC payloads (the
#: PREPARE/COMMIT domains live in :mod:`repro.pbft.messages` next to the
#: message classes that memoize payloads under them).
_RESULT_DOMAIN = stable_digest("pbft-result")
#: ``mix64(_RESULT_DOMAIN, d)`` is one more FNV step from this state.
_RESULT_STATE = ((_FNV_OFFSET ^ (_RESULT_DOMAIN & _MASK64)) * _FNV_PRIME) & _MASK64


class Replica(CrashAwareNode):
    """One PBFT replica (primary duties included when ``view % n == index``)."""

    def __init__(
        self,
        index: int,
        config: PbftConfig,
        simulator: Simulator,
        network: Network,
        key_root: int,
    ) -> None:
        super().__init__(replica_name(index), simulator, network)
        self.index = index
        self.config = config
        self.behavior = CORRECT_REPLICA
        self.key_root = key_root
        self.keystore = KeyStore(key_root, self.name)
        self.mac = MacGenerator(self.keystore)
        self.replica_names = tuple(replica_name(i) for i in range(config.n_replicas))
        self.peer_names = tuple(n for n in self.replica_names if n != self.name)
        # Hoisted config values (two are properties) for the per-message
        # handlers, which also inline `is_primary`, `primary_of` and
        # `high_watermark` from them.
        self._n_replicas = config.n_replicas
        self._watermark_window = config.watermark_window
        self._quorum = config.quorum
        self._prepare_quorum = 2 * config.f

        # -- protocol state -------------------------------------------------
        self.view = 0
        self.seq_counter = 0  # last sequence number assigned (primary only)
        self.log = ReplicaLog()
        self.last_executed = 0
        self.stable_seq = 0
        self.checkpoints: Dict[int, Dict[str, int]] = {}
        self.state_digest = stable_digest(("genesis",))

        # -- request handling ------------------------------------------------
        #: Authenticated request copies by request digest.
        self.authenticated: Dict[int, Request] = {}
        #: Primary's ordering queue, keyed by request key (insertion ordered).
        self.pending: Dict[RequestKey, Request] = {}
        #: client -> (last executed timestamp, cached reply).
        self.client_table: Dict[str, Tuple[int, Reply]] = {}
        #: Conservative "a pre-prepare may be stalled on authentication"
        #: flag: set on every `_try_accept` failure, cleared when a retry
        #: scan finds no unaccepted slot left. While False, the per-request
        #: retry scan is skipped entirely (the common benign case).
        self._maybe_held = False
        #: Hoisted defense flag (checked once per request verification).
        self._client_signatures = config.defenses.client_signatures

        # -- timers -----------------------------------------------------------
        self.vc_timer = make_view_change_timer(
            self,
            config.view_change_timer_us,
            self._on_liveness_timeout,
            config.per_request_timers,
        )
        self._batch_timer = None
        self._vc_state_timer = None
        self._slow_tick_timer = None
        self._synth_timer = None

        # -- view change state -------------------------------------------------
        self.in_view_change = False
        self.vc_target = 0
        self.view_change_msgs: Dict[int, Dict[str, ViewChange]] = {}
        self.consecutive_view_changes = 0

        # -- execution pipeline -------------------------------------------------
        self._executing = False
        self._exec_handle = None

        # -- defenses (Aardvark-style hardening, see pbft.defenses) ---------------
        #: client -> authentication failures observed.
        self._auth_failures: Dict[str, int] = {}
        self.blacklisted: set = set()
        self._period_executed = 0
        self._best_period_executed = 0
        self._demand_this_period = False
        if config.defenses.min_throughput_check:
            self.set_timer(config.view_change_timer_us, self._throughput_watch)

        # -- recovery (status gossip + state transfer) ----------------------------
        #: The NEW-VIEW that installed the current view (re-sent to stragglers).
        self._latest_new_view: Optional[NewView] = None
        #: My latest checkpoint vote (seq, digest), piggybacked on Status.
        self._my_checkpoint: Optional[Tuple[int, int]] = None
        #: State digests at recent checkpoints, for fast-forward transfers.
        self._checkpoint_states: Dict[int, int] = {0: self.state_digest}
        self._fetch_timeout = None
        self._status_timer = self.set_timer(self._status_interval(), self._status_tick)

        # -- counters (also mirrored into simulator metrics) ---------------------
        self.requests_rejected_bad_mac = 0
        self.view_changes_started = 0
        self.new_views_installed = 0
        self.batches_executed = 0
        self.requests_executed = 0

        if self.is_primary:
            self._arm_primary()

    # ------------------------------------------------------------------
    # attack activation
    # ------------------------------------------------------------------
    def apply_behavior(self, behavior: ReplicaBehavior) -> None:
        """Switch to ``behavior`` (the only way a replica turns malicious).

        The MAC corruption policy is swapped, a synthesis timer is armed,
        and a slow primary stops batching on demand and starts ticking.
        Runs inside the deployment's priority activation event, so a forked
        run and a from-scratch run apply it at the identical point.
        """
        self.behavior = behavior
        self.mac.corruption_policy = mask_corruption_policy(behavior.mac_mask)
        if behavior.synthesize_interval_us is not None and self._synth_timer is None:
            self._synth_timer = self.set_timer(
                behavior.synthesize_interval_us, self._synthesize_message
            )
        if behavior.slow_primary is not None and self.is_primary and not self.in_view_change:
            self.cancel_timer(self._batch_timer)
            self._batch_timer = None
            if self._slow_tick_timer is None:
                self._schedule_slow_tick()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @property
    def is_primary(self) -> bool:
        return self.primary_of(self.view) == self.name

    def primary_of(self, view: int) -> str:
        return self.replica_names[view % self._n_replicas]

    @property
    def high_watermark(self) -> int:
        return self.stable_seq + self._watermark_window

    def _counter(self, name: str) -> None:
        self.simulator.metrics.counter(f"pbft.{name}").increment()

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------
    def handle_message(self, payload: object, src: str) -> None:
        kind = type(payload)
        if kind is Request:
            self._on_request(payload, src, direct=True)
        elif kind is Prepare:
            self._on_prepare(payload)
        elif kind is Commit:
            self._on_commit(payload)
        elif kind is PrePrepare:
            self._on_pre_prepare(payload)
        elif kind is ForwardedRequest:
            self._on_request(payload.request, payload.forwarder, direct=False)
        elif kind is CheckpointMsg:
            self._on_checkpoint(payload)
        elif kind is Status:
            self._on_status(payload)
        elif kind is FetchCommitted:
            self._on_fetch_committed(payload)
        elif kind is CommittedSlots:
            self._on_committed_slots(payload)
        elif kind is ViewChange:
            self._on_view_change(payload)
        elif kind is NewView:
            self._on_new_view(payload)

    # ------------------------------------------------------------------
    # client requests
    # ------------------------------------------------------------------
    def _verify_request(self, request: Request) -> bool:
        """Authenticate a client request per the deployment's crypto model.

        MAC mode (the paper's PBFT): verify only this replica's tag.
        Signature mode (Aardvark defense): the authenticator acts as a
        signature — it must verify for EVERY replica, so a request one
        replica accepts is acceptable to all (no Big MAC asymmetry).
        """
        if not self._client_signatures:
            return request.authenticator.verifies_for(
                self.keystore, request.client, request.digest
            )
        for verifier in self.replica_names:
            tag = request.authenticator.tag_for(verifier)
            expected = compute_mac(
                derive_session_key(self.key_root, request.client, verifier),
                request.digest,
            )
            if tag != expected:
                return False
        return True

    def _record_auth_failure(self, client: str) -> None:
        self.requests_rejected_bad_mac += 1
        self._counter("request_bad_mac")
        if not self.config.defenses.client_blacklisting:
            return
        failures = self._auth_failures.get(client, 0) + 1
        self._auth_failures[client] = failures
        if failures >= self.config.defenses.blacklist_threshold:
            if client not in self.blacklisted:
                self.blacklisted.add(client)
                self._counter("client_blacklisted")
            # Forget any liveness suspicion fuelled by this client.
            for key in [k for k in self.vc_timer.outstanding if k[0] == client]:
                self.vc_timer.request_executed(key)

    def _on_request(self, request: Request, src: str, direct: bool) -> None:
        if request.client in self.blacklisted:
            return
        key = request.key
        entry = self.client_table.get(request.client)
        if entry is not None and request.timestamp <= entry[0]:
            # Already executed: resend the cached reply for the latest request.
            cached_reply = entry[1]
            if direct and cached_reply is not None and cached_reply.timestamp == request.timestamp:
                self.send(request.client, cached_reply)
            return

        primary = self.replica_names[self.view % self._n_replicas]
        is_primary = primary == self.name
        if direct and not is_primary:
            # Faithful to the implementation the paper tested: a backup
            # relays a direct client request and arms the liveness timer
            # BEFORE authenticating it (Sec. 6 describes forward+set-timer
            # unconditionally). This is why a client corrupting the MACs in
            # all of its messages still drives the system into view changes:
            # the suspect request can never be executed, so the timer keeps
            # expiring (and the implementation eventually crashes).
            self.send(primary, ForwardedRequest(request, self.name))
            # SRF001 fires here by design: mutating demand state before
            # _verify_request IS the paper's forward-before-auth behaviour
            # (Sec. 6), kept faithfully. Fixing it would erase the Big MAC
            # result the harness exists to rediscover.
            self._demand_this_period = True  # repro: lint-ignore[SRF001]
            if not self.in_view_change:
                self.vc_timer.request_pending(key)

        if not self._verify_request(request):
            self._record_auth_failure(request.client)
            return
        newly_authenticated = request.digest not in self.authenticated
        self.authenticated[request.digest] = request

        if is_primary and not self.in_view_change:
            if key not in self.pending:
                self.pending[key] = request
                self._maybe_schedule_batch()

        if newly_authenticated:
            self._retry_unaccepted_slots(request.digest)

    # ------------------------------------------------------------------
    # primary: batching
    # ------------------------------------------------------------------
    def _arm_primary(self) -> None:
        """Set up ordering duties after becoming primary."""
        if self.behavior.slow_primary is not None:
            self._schedule_slow_tick()
        elif self.pending:
            self._maybe_schedule_batch()

    def _maybe_schedule_batch(self) -> None:
        if self.behavior.slow_primary is not None:
            return  # the slow primary orders only on its own ticks
        if len(self.pending) >= self.config.batch_size_max:
            self.cancel_timer(self._batch_timer)
            self._batch_timer = None
            self._send_batch()
        elif self._batch_timer is None:
            self._batch_timer = self.set_timer(self.config.batch_interval_us, self._batch_tick)

    def _batch_tick(self) -> None:
        self._batch_timer = None
        self._send_batch()

    def _take_pending(self, limit: int, only_client: Optional[str] = None) -> List[Request]:
        """Pop up to ``limit`` not-yet-executed requests from the queue."""
        taken: List[Request] = []
        for key in list(self.pending):
            if len(taken) >= limit:
                break
            request = self.pending[key]
            if only_client is not None and request.client != only_client:
                continue
            del self.pending[key]
            executed_ts, _ = self.client_table.get(request.client, (0, None))
            if request.timestamp <= executed_ts:
                continue
            taken.append(request)
        return taken

    def _send_batch(self, batch: Optional[List[Request]] = None) -> None:
        if self.replica_names[self.view % self._n_replicas] != self.name or self.in_view_change:
            return
        if batch is None:
            batch = self._take_pending(self.config.batch_size_max)
        if not batch:
            return
        if self.seq_counter >= self.stable_seq + self._watermark_window:
            # Log window full (checkpointing stalled): put the batch back and
            # retry after the next checkpoint stabilizes.
            for request in batch:
                self.pending.setdefault(request.key, request)
            return
        self.seq_counter += 1
        message = PrePrepare(self.view, self.seq_counter, tuple(batch), self.name)
        message.authenticator = self.mac.authenticator(self.peer_names, message.batch_digest)
        slot = self.log.slot(self.seq_counter, self.view)
        slot.pre_prepare = message
        slot.accepted = True  # the primary authenticated every request already
        self.broadcast(self.peer_names, message)
        self._check_prepared(slot)
        if self.pending and self.behavior.slow_primary is None:
            self._maybe_schedule_batch()

    # -- slow primary ------------------------------------------------------
    def _schedule_slow_tick(self) -> None:
        policy = self.behavior.slow_primary
        interval = int(self.config.view_change_timer_us * policy.period_fraction)
        self._slow_tick_timer = self.set_timer(interval, self._slow_tick)

    def _slow_tick(self) -> None:
        self._slow_tick_timer = None
        if not self.is_primary or self.in_view_change:
            return
        policy = self.behavior.slow_primary
        batch = self._take_pending(policy.requests_per_tick, policy.serve_only_client)
        if batch:
            self._send_batch(batch)
        self._schedule_slow_tick()

    # ------------------------------------------------------------------
    # agreement: pre-prepare / prepare / commit
    # ------------------------------------------------------------------
    def _on_pre_prepare(self, message: PrePrepare) -> None:
        if self.in_view_change or message.view != self.view:
            return
        if (
            message.sender != self.replica_names[message.view % self._n_replicas]
            or message.sender == self.name
        ):
            return
        stable_seq = self.stable_seq
        if not (stable_seq < message.seq <= stable_seq + self._watermark_window):
            return
        if message.authenticator is not None and not message.authenticator.verifies_for(
            self.keystore, message.sender, message.batch_digest
        ):
            self._counter("preprepare_bad_mac")
            return
        slot = self.log.slot(message.seq, message.view)
        if slot.executed:
            return
        if slot.pre_prepare is not None and slot.pre_prepare.batch_digest != message.batch_digest:
            return  # equivocation: keep the first proposal
        slot.pre_prepare = message
        self._try_accept(slot)

    def _try_accept(self, slot: SequenceSlot) -> None:
        """Accept the pre-prepare once every batched request is authenticated."""
        if slot.accepted or slot.pre_prepare is None:
            return
        for request in slot.pre_prepare.batch:
            entry = self.client_table.get(request.client)
            if entry is not None and request.timestamp <= entry[0]:
                continue  # stale: authenticated by virtue of having executed
            if request.digest in self.authenticated:
                continue
            if self._verify_request(request):
                self.authenticated[request.digest] = request
                continue
            self._counter("preprepare_unauthenticated_request")
            self._maybe_held = True
            return  # cannot authenticate this batch (yet) — the Big MAC stall
        slot.accepted = True
        slot.prepares[self.name] = slot.pre_prepare.batch_digest
        self.broadcast(self.peer_names, self._make_prepare(slot))
        self._check_prepared(slot)

    def _make_prepare(self, slot: SequenceSlot) -> Prepare:
        prepare = Prepare(slot.view, slot.seq, slot.pre_prepare.batch_digest, self.name)
        prepare.authenticator = self.mac.authenticator(self.peer_names, prepare.mac_payload())
        return prepare

    def _make_commit(self, slot: SequenceSlot) -> Commit:
        commit = Commit(slot.view, slot.seq, slot.pre_prepare.batch_digest, self.name)
        commit.authenticator = self.mac.authenticator(self.peer_names, commit.mac_payload())
        return commit

    def _retry_unaccepted_slots(self, digest: int) -> None:
        """A new authenticated request copy may unblock a held pre-prepare.

        Guarded by ``_maybe_held``: every path that leaves a slot
        unaccepted with a pre-prepare in place goes through a
        ``_try_accept`` failure (which sets the flag), so while it is
        False the scan cannot find anything. When a scan finds no
        unaccepted slot in *any* view, the flag resets.
        """
        if not self._maybe_held:
            return
        view = self.view
        still_held = False
        for slot in self.log.slots.values():
            if slot.accepted or slot.pre_prepare is None:
                continue
            still_held = True
            if slot.view != view:
                continue
            for request in slot.pre_prepare.batch:
                if request.digest == digest:
                    self._try_accept(slot)
                    break
        if not still_held:
            self._maybe_held = False

    def _on_prepare(self, message: Prepare) -> None:
        if self.in_view_change or message.view != self.view:
            return
        stable_seq = self.stable_seq
        if not (stable_seq < message.seq <= stable_seq + self._watermark_window):
            return
        if message.replica == self.replica_names[message.view % self._n_replicas]:
            return  # the primary never sends PREPARE; its pre-prepare counts
        if message.authenticator is not None and not message.authenticator.verifies_for(
            self.keystore, message.replica, message.mac_payload()
        ):
            self._counter("prepare_bad_mac")
            return
        slot = self.log.slot(message.seq, message.view)
        slot.prepares[message.replica] = message.batch_digest
        self._check_prepared(slot)

    def _check_prepared(self, slot: SequenceSlot) -> None:
        if slot.prepared or not slot.accepted or slot.pre_prepare is None:
            return
        # prepared == pre-prepare + 2f PREPAREs from backups (own included).
        if slot.matching_prepares() < self._prepare_quorum:
            return
        slot.prepared = True
        slot.commits[self.name] = slot.pre_prepare.batch_digest
        slot.commit_sent = True
        self.broadcast(self.peer_names, self._make_commit(slot))
        self._check_committed(slot)

    def _on_commit(self, message: Commit) -> None:
        if self.in_view_change or message.view != self.view:
            return
        stable_seq = self.stable_seq
        if not (stable_seq < message.seq <= stable_seq + self._watermark_window):
            return
        if message.authenticator is not None and not message.authenticator.verifies_for(
            self.keystore, message.replica, message.mac_payload()
        ):
            self._counter("commit_bad_mac")
            return
        slot = self.log.slot(message.seq, message.view)
        slot.commits[message.replica] = message.batch_digest
        self._check_committed(slot)

    def _check_committed(self, slot: SequenceSlot) -> None:
        if slot.committed or not slot.prepared:
            return
        if slot.matching_commits() < self._quorum:
            return
        slot.committed = True
        self._try_execute()

    # ------------------------------------------------------------------
    # execution (in sequence order, with simulated service time)
    # ------------------------------------------------------------------
    def _try_execute(self) -> None:
        if self._executing:
            return
        slot = self.log.peek(self.last_executed + 1)
        if slot is None or not slot.committed or slot.executed:
            return
        self._executing = True
        cost = self.config.exec_batch_overhead_us + self.config.exec_per_request_us * len(
            slot.batch()
        )
        self._exec_handle = self.set_timer(cost, self._finish_execution, slot)

    def _finish_execution(self, slot: SequenceSlot) -> None:
        self._executing = False
        self._exec_handle = None
        slot.executed = True
        self.last_executed = slot.seq
        batch = slot.batch()
        executed = 0
        client_table = self.client_table
        authenticated = self.authenticated
        pending = self.pending
        vc_timer = self.vc_timer
        suspected = vc_timer.outstanding
        state_digest = self.state_digest
        view = self.view
        name = self.name
        send = self.send
        for request in batch:
            client = request.client
            timestamp = request.timestamp
            entry = client_table.get(client)
            if entry is not None and timestamp <= entry[0]:
                continue  # duplicate ordered twice across a view change
            # The two folds are `mix64(state_digest, digest)` and
            # `mix64(_RESULT_DOMAIN, digest)`, inlined.
            digest = request.digest
            folded = digest & _MASK64
            state_digest = ((_FNV_OFFSET ^ (state_digest & _MASK64)) * _FNV_PRIME) & _MASK64
            state_digest = ((state_digest ^ folded) * _FNV_PRIME) & _MASK64
            result = ((_RESULT_STATE ^ folded) * _FNV_PRIME) & _MASK64
            reply = Reply(view, timestamp, client, name, result)
            client_table[client] = (timestamp, reply)
            send(client, reply)
            authenticated.pop(digest, None)
            key = request.key
            pending.pop(key, None)
            if key in suspected:
                vc_timer.request_executed(key)
            executed += 1
        self.state_digest = state_digest
        if executed:
            self.requests_executed += executed
            self._period_executed += executed
        executed_real_request = executed > 0
        self.batches_executed += 1
        if executed_real_request and not suspected:
            # Every request the replica was suspicious about has now been
            # served: the (fragile) view-change path is out of the picture.
            self.consecutive_view_changes = 0
        if slot.seq % self.config.checkpoint_interval == 0:
            self._take_checkpoint(slot.seq)
        self._try_execute()

    # ------------------------------------------------------------------
    # checkpointing / garbage collection
    # ------------------------------------------------------------------
    def _take_checkpoint(self, seq: int) -> None:
        message = CheckpointMsg(seq, self.state_digest, self.name)
        self._my_checkpoint = (seq, self.state_digest)
        self._checkpoint_states[seq] = self.state_digest
        self._record_checkpoint(message)
        self.broadcast(self.peer_names, message)

    def _on_checkpoint(self, message: CheckpointMsg) -> None:
        self._record_checkpoint(message)

    def _record_checkpoint(self, message: CheckpointMsg) -> None:
        if message.seq <= self.stable_seq:
            return
        votes = self.checkpoints.setdefault(message.seq, {})
        votes[message.replica] = message.state_digest
        # Counter preserves first-seen order, so the scan is deterministic
        # (and O(n)) no matter how votes arrived; iterating set(digests)
        # here would order candidates by process-specific hashing.
        digest_counts = Counter(votes.values())
        stable_digest_value = next(
            (d for d, count in digest_counts.items() if count >= self.config.quorum),
            None,
        )
        if stable_digest_value is None:
            return
        self.stable_seq = message.seq
        self.log.garbage_collect(self.stable_seq)
        for seq in [s for s in self.checkpoints if s <= self.stable_seq]:
            del self.checkpoints[seq]
        for seq in [s for s in self._checkpoint_states if s < self.stable_seq]:
            del self._checkpoint_states[seq]
        self._checkpoint_states.setdefault(self.stable_seq, stable_digest_value)
        if self.last_executed < self.stable_seq:
            self._state_transfer(self.stable_seq, stable_digest_value)

    def _state_transfer(self, seq: int, state_digest: int) -> None:
        """Catch up to a proven checkpoint the local replica fell behind.

        Models PBFT's state-transfer mechanism: adopt the quorum-certified
        state, skip the missing sequence numbers, and consider all pending
        direct requests served (their executions happened elsewhere; clients
        that are still unserved will retransmit and re-arm timers).
        """
        self._counter("state_transfer")
        self.last_executed = seq
        self.state_digest = state_digest
        self._checkpoint_states[seq] = state_digest
        self.cancel_timer(self._exec_handle)
        self._exec_handle = None
        self._executing = False
        self.vc_timer.stop_all()
        self.vc_timer.outstanding.clear()
        self.consecutive_view_changes = 0
        self._try_execute()

    # ------------------------------------------------------------------
    # view changes
    # ------------------------------------------------------------------
    def _on_liveness_timeout(self) -> None:
        self._counter("liveness_timeout")
        self._start_view_change(self.view + 1)

    def _start_view_change(self, target_view: int) -> None:
        if target_view <= self.view:
            return
        if self.in_view_change and target_view <= self.vc_target:
            return
        self.in_view_change = True
        self.vc_target = target_view
        self.view_changes_started += 1
        self._counter("view_change_started")
        self.vc_timer.stop_all()
        self.cancel_timer(self._batch_timer)
        self._batch_timer = None
        self.cancel_timer(self._slow_tick_timer)
        self._slow_tick_timer = None

        self.consecutive_view_changes += 1
        threshold = self.config.crash_after_consecutive_view_changes
        if threshold is not None and self.consecutive_view_changes >= threshold:
            # The implementation fragility the paper observed: a sustained
            # view-change storm crashes the replica.
            self._counter("replica_crashed")
            self.crash()
            return

        message = ViewChange(
            target_view,
            self.stable_seq,
            self.log.prepared_certificates(self.stable_seq),
            self.name,
        )
        self._record_view_change(message)
        self.broadcast(self.peer_names, message)

        # If the new primary fails to install the view in time, move on.
        self.cancel_timer(self._vc_state_timer)
        self._vc_state_timer = self.set_timer(
            self.config.view_change_timer_us, self._on_vc_state_timeout
        )

    def _on_vc_state_timeout(self) -> None:
        self._vc_state_timer = None
        if self.in_view_change:
            self._start_view_change(self.vc_target + 1)

    def _on_view_change(self, message: ViewChange) -> None:
        if message.new_view <= self.view:
            return
        self._record_view_change(message)
        # Liveness join rule: f+1 distinct replicas voting for higher views
        # prove at least one correct replica timed out; join the smallest.
        if not self.in_view_change or self.vc_target < message.new_view:
            higher_voters: Set[str] = set()
            candidate_views: List[int] = []
            for view, votes in self.view_change_msgs.items():
                if view > self.view and (not self.in_view_change or view > self.vc_target):
                    higher_voters.update(votes)
                    candidate_views.append(view)
            if len(higher_voters) >= self.config.f + 1 and candidate_views:
                self._start_view_change(min(candidate_views))
        self._maybe_install_view(message.new_view)

    def _record_view_change(self, message: ViewChange) -> None:
        votes = self.view_change_msgs.setdefault(message.new_view, {})
        votes[message.replica] = message

    def _maybe_install_view(self, target_view: int) -> None:
        """If we are the new primary and hold 2f+1 votes, send NEW-VIEW."""
        if self.primary_of(target_view) != self.name or target_view <= self.view:
            return
        votes = self.view_change_msgs.get(target_view, {})
        if len(votes) < self.config.quorum:
            return
        stable = max(vote.stable_seq for vote in votes.values())
        prepared: Dict[int, Tuple[int, Tuple[Request, ...]]] = {}
        for vote in votes.values():
            for seq, (digest, batch) in vote.prepared.items():
                if seq > stable and seq not in prepared:
                    prepared[seq] = (digest, batch)
        max_seq = max(prepared) if prepared else stable
        pre_prepares = []
        for seq in range(stable + 1, max_seq + 1):
            batch = prepared.get(seq, (0, ()))[1]
            pre_prepares.append(PrePrepare(target_view, seq, batch, self.name))
        new_view = NewView(
            target_view, tuple(votes), tuple(pre_prepares), stable, self.name
        )
        # Never regress behind what this replica already executed/assigned.
        self.seq_counter = max(max_seq, self.last_executed, self.seq_counter)
        self.broadcast(self.peer_names, new_view)
        self._install_new_view(new_view)

    def _on_new_view(self, message: NewView) -> None:
        if message.view <= self.view:
            return
        if message.replica != self.primary_of(message.view):
            return
        if len(message.voters) < self.config.quorum:
            return
        self._install_new_view(message)

    def _install_new_view(self, message: NewView) -> None:
        self.view = message.view
        self.in_view_change = False
        self._latest_new_view = message
        self.vc_target = message.view
        self.new_views_installed += 1
        self._counter("new_view_installed")
        self.cancel_timer(self._vc_state_timer)
        self._vc_state_timer = None
        for view in [v for v in self.view_change_msgs if v <= self.view]:
            del self.view_change_msgs[view]

        # Adopt the re-proposed batches.
        for pre_prepare in message.pre_prepares:
            if pre_prepare.seq <= self.last_executed:
                continue
            slot = self.log.slot(pre_prepare.seq, self.view)
            if slot.executed:
                continue
            slot.pre_prepare = pre_prepare
            if self.name == message.replica:
                slot.accepted = True
                self._check_prepared(slot)
            else:
                self._try_accept(slot)

        # Outstanding direct requests are still unserved: re-arm liveness.
        self.vc_timer.restart_pending()
        if self.is_primary:
            self._arm_primary()

    # ------------------------------------------------------------------
    # defense: minimum-throughput primary rotation (Aardvark)
    # ------------------------------------------------------------------
    def _throughput_watch(self) -> None:
        """Suspect a primary that under-delivers while demand exists.

        The floor is demand-aware: a primary must serve at least
        ``min_throughput_fraction`` of the work it was offered this period
        (executions + requests left starving). A slow primary that drips one
        request per period while dozens starve falls below any fraction; a
        healthy primary with an empty backlog never trips it.
        """
        executed = self._period_executed
        starving = len(self.vc_timer.outstanding)
        demand = self._demand_this_period or starving > 0
        self._period_executed = 0
        self._demand_this_period = False
        self._best_period_executed = max(self._best_period_executed, executed)
        self.set_timer(self.config.view_change_timer_us, self._throughput_watch)
        if self.is_primary or self.in_view_change:
            return
        floor = max(
            1.0,
            (executed + starving) * self.config.defenses.min_throughput_fraction,
        )
        if demand and executed < floor:
            self._counter("throughput_suspicion")
            self._start_view_change(self.view + 1)

    # ------------------------------------------------------------------
    # recovery: status gossip and state transfer (PBFT Sec. 4.6 machinery)
    # ------------------------------------------------------------------
    def _status_interval(self) -> int:
        """Status period: a fraction of the view-change timer, so recovery
        always outruns liveness suspicion."""
        return max(self.config.view_change_timer_us // 5, 1_000)

    def _status_tick(self) -> None:
        message = Status(
            self.view, self.last_executed, self.stable_seq, self._my_checkpoint, self.name
        )
        self.broadcast(self.peer_names, message)
        self._redrive_frontier()
        self._status_timer = self.set_timer(self._status_interval(), self._status_tick)

    def _redrive_frontier(self) -> None:
        """Retransmit protocol messages for the oldest unexecuted slot.

        A lossy network can strand a slot (dropped pre-prepare or quorum
        votes); real PBFT retransmits on its timers. Re-driving only the
        execution frontier bounds the overhead to one slot per status tick.
        """
        if self.in_view_change:
            return
        slot = self.log.peek(self.last_executed + 1)
        if slot is None or slot.executed or slot.view != self.view:
            return
        if slot.pre_prepare is None:
            return
        if slot.pre_prepare.sender == self.name:
            self.broadcast(self.peer_names, slot.pre_prepare)
        if slot.accepted and self.name in slot.prepares:
            self.broadcast(self.peer_names, self._make_prepare(slot))
        if slot.commit_sent:
            self.broadcast(self.peer_names, self._make_commit(slot))

    def _on_status(self, message: Status) -> None:
        # (a) Checkpoint votes are idempotent: re-deliver dropped ones.
        if message.checkpoint is not None:
            seq, digest = message.checkpoint
            self._record_checkpoint(CheckpointMsg(seq, digest, message.replica))
        # (b) Repair stragglers stuck in an older view: the NEW-VIEW message
        # itself may have been lost, so re-send the one we installed.
        if (
            message.view < self.view
            and self._latest_new_view is not None
            and self._latest_new_view.view == self.view
        ):
            self.send(message.replica, self._latest_new_view)
        # (c) Catch up when a peer's execution frontier is ahead.
        if message.last_executed > self.last_executed and self._fetch_timeout is None:
            self.send(message.replica, FetchCommitted(self.last_executed + 1, self.name))
            self._fetch_timeout = self.set_timer(
                2 * self._status_interval(), self._clear_fetch_timeout
            )

    def _clear_fetch_timeout(self) -> None:
        self._fetch_timeout = None

    def _on_fetch_committed(self, message: FetchCommitted) -> None:
        base = None
        from_seq = message.from_seq
        if from_seq <= self.stable_seq:
            # The requested range was garbage-collected: hand over the
            # stable checkpoint as a fast-forward base instead.
            base_digest = self._checkpoint_states.get(self.stable_seq)
            if base_digest is None:
                return
            base = (self.stable_seq, base_digest)
            from_seq = self.stable_seq + 1
        slots = []
        for seq in range(from_seq, self.last_executed + 1):
            slot = self.log.peek(seq)
            if slot is None or not slot.executed or slot.pre_prepare is None:
                break
            slots.append((seq, slot.pre_prepare.batch))
        if base is not None or slots:
            self.send(message.replica, CommittedSlots(base, tuple(slots), self.name))

    def _on_committed_slots(self, message: CommittedSlots) -> None:
        """Adopt committed batches fetched from a peer.

        In real PBFT a state transfer is certified by a checkpoint quorum;
        the simulation ships batches directly (correct replicas never lie on
        this channel, and the modelled malicious behaviours do not use it).
        """
        self.cancel_timer(self._fetch_timeout)
        self._fetch_timeout = None
        if message.base is not None and message.base[0] > self.last_executed:
            self._state_transfer(*message.base)
        applied = False
        for seq, batch in message.slots:
            if seq <= self.last_executed:
                continue
            if seq != self.last_executed + 1 and not applied:
                # A gap we cannot bridge (our frontier moved meanwhile).
                if self.log.peek(seq) is None:
                    continue
            slot = self.log.slot(seq, self.view)
            if slot.executed:
                continue
            if slot.pre_prepare is None:
                slot.pre_prepare = PrePrepare(slot.view, seq, batch, message.replica)
            slot.accepted = True
            slot.prepared = True
            slot.committed = True
            applied = True
        if applied:
            self._try_execute()

    # ------------------------------------------------------------------
    # message synthesis hook (malicious replica tool)
    # ------------------------------------------------------------------
    def _synthesize_message(self) -> None:
        """Emit an out-of-protocol message (relaxed-constraint synthesis)."""
        kind = self.behavior.synthesize_kind
        if kind == "view_change":
            message = ViewChange(self.view + 1, self.stable_seq, {}, self.name)
        elif kind == "prepare":
            message = Prepare(self.view, self.last_executed + 1, 0, self.name)
        elif kind == "commit":
            message = Commit(self.view, self.last_executed + 1, 0, self.name)
        else:
            raise ValueError(f"unknown synthesis kind: {kind!r}")
        self.broadcast(self.peer_names, message)
        self._counter("synthesized_message")
        self._synth_timer = self.set_timer(
            self.behavior.synthesize_interval_us, self._synthesize_message
        )


__all__ = ["Replica"]
