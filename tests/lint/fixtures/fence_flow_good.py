# repro: path src/repro/core/flow_probe_ok.py
"""FENCE002 fixture: fences factored into helpers — clean.

Exercises both halves of the helper-aware discipline:

* ``fenced_sweep`` calls a read-hiding helper, but a fence-establishing
  helper call dominates it, which discharges the helper's read;
* ``direct_probe`` reads directly after calling the fencing helper.
"""


def _ensure_fenced(cluster, requester, worker):
    if not cluster.storage.fencing.is_fenced(worker):
        yield from cluster.fencing_driver.fence(requester, worker)


def _pull_records(cluster, requester, worker, txn_id):
    records = yield from cluster.storage.read_remote_log(requester, worker)
    return [r for r in records if r.txn_id == txn_id]


def fenced_sweep(cluster, requester, worker, txn_id):
    yield from _ensure_fenced(cluster, requester, worker)
    records = yield from _pull_records(cluster, requester, worker, txn_id)
    return records


def direct_probe(cluster, requester, worker):
    yield from _ensure_fenced(cluster, requester, worker)
    records = yield from cluster.storage.read_remote_log(requester, worker)
    return records
