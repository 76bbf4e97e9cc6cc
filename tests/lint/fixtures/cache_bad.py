# repro: path src/repro/exec/cache_fixture.py
"""CACHE fixture: exec-path JSON that leaks dict insertion order."""

import json


def write_entry(doc):
    # CACHE001: no sort_keys — byte layout depends on insertion order.
    return json.dumps(doc, indent=2)


def write_index(doc):
    # CACHE001: sort_keys present but not literally True.
    return json.dumps(doc, sort_keys=False)
