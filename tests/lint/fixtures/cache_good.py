# repro: path src/repro/exec/cache_fixture.py
"""CACHE fixture: canonical serialisation on the exec path."""

import json


def write_entry(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_index(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
