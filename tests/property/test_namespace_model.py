"""Model-based testing of the full namespace stack.

A random sequence of MKDIR / CREATE / DELETE / RMDIR / RENAME
operations is executed twice: once against the real cluster (placement,
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
    """The obviously-correct model: a dict of directory -> name -> kind."""

    def __init__(self):
        self.dirs: dict[str, dict[str, str]] = {"/dir1": {}}

    @staticmethod
    def split(path):
        head, _, tail = path.rstrip("/").rpartition("/")
        return head or "/", tail

    def full(self, parent, name):
        return f"{parent.rstrip('/')}/{name}"

    def mkdir(self, path):
        parent, name = self.split(path)
        if parent not in self.dirs:
            return "noparent"
        if name in self.dirs[parent]:
            return "exists"
        self.dirs[parent][name] = "dir"
        self.dirs[path] = {}
        return "ok"

    def create(self, path):
        parent, name = self.split(path)
        if parent not in self.dirs:
            return "noparent"
        if name in self.dirs[parent]:
            return "exists"
        self.dirs[parent][name] = "file"
        return "ok"

    def delete(self, path):
        parent, name = self.split(path)
        if parent not in self.dirs or self.dirs[parent].get(name) != "file":
            return "missing"
        del self.dirs[parent][name]
        return "ok"

    def rmdir(self, path):
        parent, name = self.split(path)
        if parent not in self.dirs or self.dirs[parent].get(name) != "dir":
            return "missing"
        if self.dirs.get(path):
            return "notempty"
        del self.dirs[parent][name]
        self.dirs.pop(path, None)
        return "ok"

    def rename(self, src, dst):
        if src == dst:
            return "skip"  # POSIX no-op; the planner rejects it upfront
        sp, sn = self.split(src)
        dp, dn = self.split(dst)
        if sp not in self.dirs or sn not in self.dirs.get(sp, {}):
            return "missing"
        if self.dirs[sp][sn] == "dir":
            return "skip"  # directory renames are out of scope
        if dp not in self.dirs:
            return "noparent"
        if self.dirs.get(dp, {}).get(dn) == "dir":
            return "skip"  # replacing a directory is out of scope
        kind = self.dirs[sp].pop(sn)
        self.dirs[dp][dn] = kind
        return "ok"


# Operation scripts over a tiny name alphabet rooted at /dir1.
names = st.sampled_from(["a", "b", "c"])
ops = st.lists(
    st.tuples(st.sampled_from(["mkdir", "create", "delete", "rmdir", "rename"]), names, names),
    min_size=1,
    max_size=14,
)


def apply_real(cluster, client, op, path, dst=None):
    """Run one op through the cluster; returns an outcome class."""

    def driver(sim):
        try:
            if op == "mkdir":
                result = yield from client.mkdir(path)
            elif op == "create":
                result = yield from client.create(path)
            elif op == "delete":
                result = yield from client.delete(path)
            elif op == "rmdir":
                result = yield from client.rmdir(path)
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
    model = TreeModel()

    for op, n1, n2 in script:
        # Choose paths one level under /dir1 (plus nested one level).
        path = f"/dir1/{n1}"
        nested = f"/dir1/{n1}/{n2}"
        if op == "rename":
            expected = model.rename(path, f"/dir1/{n2}")
            if expected == "skip":
                continue
            real = apply_real(cluster, client, "rename", path, f"/dir1/{n2}")
            if expected == "missing":
                assert real == "missing"
            elif expected == "ok":
                assert real == "ok"
            else:
                assert real in ("aborted", "missing")
            continue
        target = nested if op in ("create", "delete") and model.dirs.get(path) is not None and model.dirs.get("/dir1", {}).get(n1) == "dir" else path
        if op == "mkdir":
            expected = model.mkdir(target)
        elif op == "create":
            expected = model.create(target)
        elif op == "delete":
            expected = model.delete(target)
        else:
            expected = model.rmdir(target)
        real = apply_real(cluster, client, op, target)
        if expected == "ok":
            assert real == "ok", (op, target, real)
        elif expected == "missing":
            assert real in ("missing", "aborted"), (op, target, real)
        else:  # exists / notempty / noparent -> abort at the cluster
            assert real == "aborted", (op, target, real, expected)

    # Final tree comparison.
    cluster.sim.run(until=cluster.sim.now + 60.0)
    assert cluster.check_invariants() == []
    for dir_path, entries in model.dirs.items():
        real_entries = cluster.listdir(dir_path)
        assert set(real_entries) == set(entries), (dir_path, real_entries, entries)
