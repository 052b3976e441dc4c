"""DetSan: incremental state-hash of the executed event stream.

Determinism is a load-bearing property: sweeps cache results by config
hash, CI compares summaries across machines, and a same-seed rerun is
the first debugging tool for any simulation bug.  ``sslint``'s D-rules
catch the *static* hazards (unseeded RNGs, iteration over unordered
containers); DetSan catches the dynamic residue -- two same-seed runs
whose event streams diverge anywhere, for any reason.

Each executed event folds ``(packed time key, owning component, handler
name)`` into a chained CRC32 -- and so does every registrant a phase
wheel (:mod:`repro.core.wheel`) runs from its one event per phase, so a
link's landing and a router's step keep their own entries.  The
per-entry ``(key, digest, component, handler)`` tuples are kept in a
bounded trace; :func:`first_divergence` diffs two traces to the first
divergent entry, i.e. the exact tick, component and handler where the
runs parted ways -- far more actionable than "the final latencies
differ".

DetSan keeps a second, *delivery* digest alongside the event digest.
How deliveries are packed into events is not part of a simulation's
meaning: the landing wheel (``repro.net.channel``) drains every link
due at a tick from one event, the per-channel batch events it replaced
scheduled one per busy link, and the retired one-event-per-item path
one per item.  The delivery digest hashes the
*items* landing at each ``(tick, epsilon)``: item fingerprints within
one time key are folded commutatively (count + XOR + sum), then the
per-key bucket is chained in key order.  Two runs produce the same
delivery digest iff every flit and credit lands on the same channel at
the same time carrying the same identity -- regardless of how the
deliveries were packed into events.  This is the equality the golden
tests assert (pinned one-event-per-item digests, sharded vs
single-process); the order-sensitive event digest remains the right
tool for comparing two runs of the *same* code path.

CRC32 is deliberate: this is a fast fingerprint for diffing two runs
the user controls, not a collision-resistant digest, and it keeps the
sanitized hot path cheap.
"""

from __future__ import annotations

import zlib
from typing import List, Optional, Tuple

from repro import factory
from repro.core.wheel import PhaseWheel
from repro.net.channel import Channel, CreditChannel
from repro.sanitize.base import MethodPatch, Sanitizer

#: (packed time key, chained digest after this entry, component, handler)
TraceEntry = Tuple[int, int, str, str]

#: one flushed delivery bucket: (packed key, count, xor, sum)
DeliveryBucket = Tuple[int, int, int, int]


def merge_delivery_digests(
    bucket_streams: List[List[DeliveryBucket]],
) -> str:
    """Fold several runs' retained delivery buckets into one digest.

    The delivery digest is commutative *within* a time key and chained
    *across* keys in increasing order, so per-shard digests of a
    partitioned run merge exactly: buckets sharing a key combine by
    summing counts/sums and XOR-ing the xors, then the merged buckets
    chain in sorted key order.  The result equals the single-process
    ``delivery_digest`` iff every shard delivered the same items at the
    same times as the unpartitioned simulation -- the equality the PDES
    runtime's golden tests pin down.

    Requires each sanitizer to have retained its buckets
    (``DetSan(retain_buckets=True)`` or the ``retain_buckets``
    attribute set before any delivery).
    """
    merged: dict = {}
    for stream in bucket_streams:
        for key, count, xor, total in stream:
            entry = merged.get(key)
            if entry is None:
                merged[key] = [count, xor, total]
            else:
                entry[0] += count
                entry[1] ^= xor
                entry[2] += total
    digest = 0
    for key in sorted(merged):
        count, xor, total = merged[key]
        digest = zlib.crc32(
            f"{key}|{count}|{xor:08x}|{total:x}".encode(), digest
        )
    return f"{digest:08x}"


def first_divergence(
    trace_a: List[TraceEntry], trace_b: List[TraceEntry]
) -> Optional[int]:
    """Index of the first event where two traces differ, or None.

    A shared prefix with different lengths diverges at the shorter
    trace's end (one run executed events the other did not).
    """
    for index, (entry_a, entry_b) in enumerate(zip(trace_a, trace_b)):
        if entry_a != entry_b:
            return index
    if len(trace_a) != len(trace_b):
        return min(len(trace_a), len(trace_b))
    return None


@factory.register(Sanitizer, "det")
class DetSan(Sanitizer):
    """Chained CRC32 over the event stream, with a bounded trace."""

    name = "det"
    description = (
        "incremental state-hash of the event stream so two same-seed "
        "runs diff to the first divergent tick"
    )

    #: default bound on the per-event trace; the chained digest keeps
    #: covering every event after the trace fills.
    DEFAULT_MAX_TRACE = 1_000_000

    def __init__(
        self,
        max_trace: int = DEFAULT_MAX_TRACE,
        retain_buckets: bool = False,
    ) -> None:
        super().__init__()
        self.max_trace = max_trace
        self.digest = 0
        self.trace: List[TraceEntry] = []
        self.trace_truncated = False
        # Delivery digest state: the commutative bucket for the current
        # (tick, epsilon) key, chained into delivery_digest at each key
        # change (see the module docstring).
        self.delivery_digest = 0
        self.deliveries = 0
        self._bucket_key = -1
        self._bucket_count = 0
        self._bucket_xor = 0
        self._bucket_sum = 0
        # When retaining, every flushed bucket is also kept raw so the
        # digests of several runs (the shards of a partitioned
        # simulation) can be merged by merge_delivery_digests().
        self.retain_buckets = retain_buckets
        self.delivery_buckets: List[DeliveryBucket] = []

    def _install(self, simulation) -> None:
        from repro.core.simulator import EPSILON_BITS

        sim = simulation.simulator
        crc32 = zlib.crc32
        fold_item = self._fold_item

        def wrap_deliver_flit(original):
            def _deliver_item(channel, flit):
                if channel.simulator is sim:
                    fold_item(
                        (sim.tick << EPSILON_BITS) | sim.epsilon,
                        crc32(
                            f"F|{channel.full_name}|{flit.vc}|"
                            f"{flit.packet.global_id}|{flit.index}".encode()
                        ),
                    )
                original(channel, flit)

            return _deliver_item

        def wrap_deliver_credit(original):
            def _deliver_item(channel, credit):
                if channel.simulator is sim:
                    fold_item(
                        (sim.tick << EPSILON_BITS) | sim.epsilon,
                        crc32(f"C|{channel.full_name}|{credit.vc}".encode()),
                    )
                original(channel, credit)

            return _deliver_item

        fold_call = self._fold_call

        def wrap_fire(original):
            def _fire(wheel, event):
                if wheel.simulator is sim:
                    key = (event.tick << EPSILON_BITS) | event.epsilon
                    for registrant in wheel._slots[event.tick]:
                        fold_call(key, registrant)
                original(wheel, event)

            return _fire

        self._patches = [
            MethodPatch(Channel, "_deliver_item", wrap_deliver_flit),
            MethodPatch(CreditChannel, "_deliver_item", wrap_deliver_credit),
            MethodPatch(PhaseWheel, "_fire", wrap_fire),
        ]

    def _fold_item(self, key: int, item_crc: int) -> None:
        """Fold one delivered item into the current time-key bucket."""
        if key != self._bucket_key:
            self._flush_bucket()
            self._bucket_key = key
        self.deliveries += 1
        self._bucket_count += 1
        self._bucket_xor ^= item_crc
        self._bucket_sum += item_crc

    def _flush_bucket(self) -> None:
        if self._bucket_key < 0:
            return
        self.delivery_digest = zlib.crc32(
            f"{self._bucket_key}|{self._bucket_count}|"
            f"{self._bucket_xor:08x}|{self._bucket_sum:x}".encode(),
            self.delivery_digest,
        )
        if self.retain_buckets:
            self.delivery_buckets.append((
                self._bucket_key,
                self._bucket_count,
                self._bucket_xor,
                self._bucket_sum,
            ))
        self._bucket_key = -1
        self._bucket_count = 0
        self._bucket_xor = 0
        self._bucket_sum = 0

    def finish(self) -> None:
        self._flush_bucket()

    def _fold_call(self, key: int, handler) -> None:
        """Fold one handler invocation: an engine event's handler or a
        wheel registrant (a bound method, or a link the landing wheel
        drains itself)."""
        self.checks += 1
        owner = getattr(handler, "__self__", handler)
        owner_name = getattr(owner, "full_name", "")
        name = getattr(handler, "__qualname__", type(handler).__name__)
        self.digest = zlib.crc32(
            f"{key}|{owner_name}|{name}".encode(), self.digest
        )
        if len(self.trace) < self.max_trace:
            self.trace.append((key, self.digest, owner_name, name))
        else:
            self.trace_truncated = True

    def pre_event_hook(self):
        fold_call = self._fold_call
        return lambda entry_key, event: fold_call(entry_key, event.handler)

    def diff(self, other: "DetSan") -> Optional[dict]:
        """Compare against another run's DetSan; None when identical.

        Returns a dict locating the first divergent entry: its index,
        and each run's (tick, epsilon, digest, component, handler) at
        that index (None past the end of a shorter trace).
        """
        index = first_divergence(self.trace, other.trace)
        if index is None:
            if self.digest != other.digest:
                # Traces agree over the recorded window but digests
                # differ: divergence happened past the trace bound.
                return {
                    "index": len(self.trace),
                    "self": None,
                    "other": None,
                    "truncated": True,
                }
            return None
        return {
            "index": index,
            "self": self._locate(index),
            "other": other._locate(index),
            "truncated": False,
        }

    def _locate(self, index: int) -> Optional[dict]:
        from repro.core.simulator import EPSILON_BITS, EPSILON_LIMIT

        if index >= len(self.trace):
            return None
        key, digest, component, handler = self.trace[index]
        return {
            "tick": key >> EPSILON_BITS,
            "epsilon": key & (EPSILON_LIMIT - 1),
            "digest": digest,
            "component": component,
            "handler": handler,
        }

    def report(self):
        self._flush_bucket()
        return {
            "checks": self.checks,
            "digest": f"{self.digest:08x}",
            "delivery_digest": f"{self.delivery_digest:08x}",
            "deliveries": self.deliveries,
            "trace_length": len(self.trace),
            "trace_truncated": self.trace_truncated,
        }
