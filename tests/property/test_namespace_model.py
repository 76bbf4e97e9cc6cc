"""Model-based testing of the full namespace stack.

A random sequence of CREATE / DELETE / RENAME operations over two
provisioned directories is executed twice: once against the real cluster (placement,
locks, WAL, commit protocol — the works) and once against a trivial
in-memory dictionary model.  Outcomes (success or failure *and* the
reason class) and the final tree must agree exactly.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mds.scenarios import distributed_create_cluster

import pytest

pytestmark = pytest.mark.slow


class TreeModel:
    """The obviously-correct model: a dict of directory -> set of names."""

    def __init__(self, dirs):
        self.dirs: dict[str, set[str]] = {d: set() for d in dirs}

    @staticmethod
    def split(path):
        head, _, tail = path.rpartition("/")
        return head, tail

    def create(self, path):
        parent, name = self.split(path)
        if name in self.dirs[parent]:
            return "exists"
        self.dirs[parent].add(name)
        return "ok"

    def delete(self, path):
        parent, name = self.split(path)
        if name not in self.dirs[parent]:
            return "missing"
        self.dirs[parent].remove(name)
        return "ok"

    def rename(self, src, dst):
        if src == dst:
            return "skip"  # POSIX no-op; the planner rejects it upfront
        sp, sn = self.split(src)
        dp, dn = self.split(dst)
        if sn not in self.dirs[sp]:
            return "missing"
        # An existing destination is replaced atomically.
        self.dirs[sp].remove(sn)
        self.dirs[dp].add(dn)
        return "ok"


# Operation scripts over a tiny name alphabet in two directories.
DIRS = ("/dir1", "/dir2")
paths = st.builds(lambda d, n: f"{d}/{n}", st.sampled_from(DIRS), st.sampled_from(["a", "b", "c"]))
ops = st.lists(
    st.tuples(st.sampled_from(["create", "delete", "rename"]), paths, paths),
    min_size=1,
    max_size=14,
)


def apply_real(cluster, client, op, path, dst=None):
    """Run one op through the cluster; returns an outcome class."""

    def driver(sim):
        try:
            if op == "create":
                result = yield from client.create(path)
            elif op == "delete":
                result = yield from client.delete(path)
            else:
                result = yield from client.rename(path, dst)
        except FileNotFoundError:
            return "missing"
        return "ok" if result["committed"] else "aborted"

    p = cluster.sim.process(driver(cluster.sim))
    cluster.sim.run(until=p)
    return p.value


@given(ops)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_cluster_agrees_with_tree_model(script):
    cluster, client = distributed_create_cluster("1PC", trace="off")
    cluster.mkdir("/dir2")
    model = TreeModel(DIRS)

    for op, path, dst in script:
        if op == "rename":
            expected = model.rename(path, dst)
            if expected == "skip":
                continue
            real = apply_real(cluster, client, "rename", path, dst)
        else:
            expected = getattr(model, op)(path)
            real = apply_real(cluster, client, op, path)
        if expected == "ok":
            assert real == "ok", (op, path, real)
        elif expected == "missing":
            assert real in ("missing", "aborted"), (op, path, real)
        else:  # exists -> abort at the cluster
            assert real == "aborted", (op, path, real, expected)

    # Final tree comparison.
    cluster.sim.run(until=cluster.sim.now + 60.0)
    assert cluster.check_invariants() == []
    for dir_path, entries in model.dirs.items():
        assert set(cluster.listdir(dir_path)) == entries, dir_path
