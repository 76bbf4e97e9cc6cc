# repro: path src/repro/core/flow_probe.py
"""FENCE002 fixture: the remote-log read hides inside a helper.

The helper's read is not fenced, so it becomes the obligation of its
caller; the caller contains no read at all and fences nothing, and no
one calls it, so the finding lands at the call in the caller with the
helper chain spelled out.
"""


def _pull_records(cluster, requester, worker, txn_id):
    records = yield from cluster.storage.read_remote_log(requester, worker)
    return [r for r in records if r.txn_id == txn_id]


def unfenced_sweep(cluster, requester, worker, txn_id):
    # FENCE002: _pull_records() reaches read_remote_log and nothing
    # here fences the worker first.
    records = yield from _pull_records(cluster, requester, worker, txn_id)
    return records
