"""The lock table's grant check against its original definition.

``LockManager._grantable`` reads the holders in place and allocates
nothing; the reference below is the definition it replaced, which
built the map of the *other* holders and asked ``all(...)`` of it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.locks import LockManager, LockMode
from repro.locks.manager import _LockEntry
from repro.sim import Simulator


def reference_grantable(holders, txn_id, mode):
    others = {t: m for t, m in holders.items() if t != txn_id}
    if not others:
        return True
    if mode is LockMode.SHARED:
        return all(m is LockMode.SHARED for m in others.values())
    return False


txns = st.integers(min_value=0, max_value=5)
modes = st.sampled_from(LockMode)


@settings(max_examples=300)
@given(st.dictionaries(txns, modes, max_size=6), txns, modes)
def test_grant_check_agrees_with_the_reference(holders, requester, mode):
    entry = _LockEntry()
    entry.holders.update(holders)
    mgr = LockManager(Simulator())
    assert mgr._grantable(entry, requester, mode) is reference_grantable(
        holders, requester, mode
    )
    assert entry.holders == holders  # read, never rewritten
