"""The hub's eager bookkeeping, kept as the reference its fold is checked against.

Spans and metrics used to be built as the run went: ``_emit`` filed
each record into a span leg through a route table that
``SpanCollector.begin`` kept (a worker leg mapped its ``(txn, node)``;
a root mapped ``(txn, None)`` and, until a leg opened there, its own
node), bumped the record's counter, and the lock and ``txn_done``
hooks kept a grant-time shadow and observed the per-transaction
histograms on the spot.  Now each hook folds its own arguments —
counts, hold times, a per-transaction accumulator for the forced writes
and messages — and span membership is a fold of the stream when read
(``Observability._fold``).

:class:`EagerReference` is that old bookkeeping as a listener of every
record, the way ``reference_watch`` keeps the polling fault watcher.
It files into its own lists, so a test can ask whether the fold put
*the same record objects* in the same places, and counts into its own
registry.
"""

from repro.obs.hub import _COUNTERS
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import PROTOCOL_MSG_KINDS, WORKER

#: The categories whose counter splits on a detail flag.
_SPLIT = {"txn_done": "committed", "log_append": "sync"}

_LOCK_CATEGORIES = frozenset({"lock_grant", "lock_wait", "lock_timeout", "lock_release"})


def _lock_leg(manager, txn):
    """The node whose leg of ``txn`` owns a record of lock manager
    ``locks:<node>``; locks of non-transaction owners stay off the spans."""
    return manager.removeprefix("locks:") if isinstance(txn, int) else None


class EagerReference:
    """Files and counts every record of ``obs`` as it is appended."""

    def __init__(self, obs):
        self.obs = obs
        #: ``(txn, node)`` -> the list of the span that owns that node's
        #: records, set when the span opens.
        self.route = {}
        #: span id -> the records the reference filed there.
        self.events = {}
        self.cluster_events = []
        self.metrics = MetricsRegistry()
        self.lock_grants = {}
        begin = obs.spans.begin

        def opening(txn_id, *, role, actor, **kwargs):
            key = (txn_id, actor if role == WORKER else None)
            known = obs.spans._spans.get(key)
            span = begin(txn_id, role=role, actor=actor, **kwargs)
            if span is not known:
                events = self.events[span.span_id] = []
                self.route[key] = events
                if role != WORKER:
                    self.route.setdefault((txn_id, actor), events)
            return span

        obs.spans.begin = opening
        obs.subscribe(self.hear)

    def hear(self, record):
        category, detail = record.category, record.detail
        txn = detail.get("txn")
        if category in _LOCK_CATEGORIES:
            node = _lock_leg(record.actor, txn)
            assert record.node == node, (record, node)
        else:
            node = record.node
        if node is not None:
            events = self.route.get((txn, node))
            if events is None:
                events = self.route.get((txn, None), self.cluster_events)
            events.append(record)
        key = (category, detail[_SPLIT[category]]) if category in _SPLIT else category
        if key in _COUNTERS:
            self.metrics.inc(_COUNTERS[key], detail["removed"] if category == "log_gc" else 1.0)
        if category == "lock_grant":
            self.lock_grants[(record.actor, txn, detail["obj"])] = record.time
        elif category == "lock_release":
            granted = self.lock_grants.pop((record.actor, txn, detail["obj"]), None)
            if granted is not None:
                self.metrics.observe("locks.hold_time", record.time - granted)
        elif category == "crash":
            held = f"locks:{record.actor}"
            self.lock_grants = {k: t for k, t in self.lock_grants.items() if k[0] != held}
        elif category == "txn_done":
            self.metrics.observe("txn.client_latency", detail["latency"])
            root = self.obs.spans._spans.get((txn, None))
            if root is not None:
                forced = messages = 0
                for event in self.tree(root):
                    if event.category == "log_append":
                        forced += bool(event.detail["sync"])
                    elif event.category == "msg_send" and event.detail["kind"] in PROTOCOL_MSG_KINDS:
                        messages += 1
                self.metrics.observe("txn.forced_writes", float(forced))
                self.metrics.observe("txn.messages", float(messages))

    def tree(self, span):
        """The records filed on ``span`` and its legs, span by span."""
        yield from self.events[span.span_id]
        for child in span.children:
            yield from self.tree(child)


def mismatches(obs, reference):
    """Where a read of ``obs``'s views differs from ``reference``: each
    span's records and the cluster-scope ones must be the same objects in
    the same order, and the metrics snapshot equal (the campaign runner's
    own ``campaign.*`` counters aside, which are writes, not folds)."""
    found = []
    snapshot = obs.metrics.snapshot()
    snapshot["counters"] = {
        name: value for name, value in snapshot["counters"].items()
        if not name.startswith("campaign.")
    }
    if snapshot != reference.metrics.snapshot():
        found.append(("metrics", snapshot, reference.metrics.snapshot()))
    for span in obs.spans:
        if not _same_objects(span.events, reference.events[span.span_id]):
            found.append(("span", span.span_id))
    if not _same_objects(obs.spans.cluster_events, reference.cluster_events):
        found.append(("cluster_events",))
    return found


def _same_objects(mine, theirs):
    return len(mine) == len(theirs) and all(a is b for a, b in zip(mine, theirs))
