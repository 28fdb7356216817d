"""Generated traces are pinned per benchmark, not only through their stats.

`trace_digests.json` holds, for every registry benchmark at ``tiny`` scale
and seed 7, the sha256 of ``canonical_json(spec_to_obj(kernel))``: the
complete launch tree, every address and every compute burst. Datagen and
trace-building rewrites must keep these byte-identical, or bump
``TRACE_VERSION`` and regenerate the file with
``PYTHONPATH=src python tests/test_trace_digests.py > tests/trace_digests.json``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.gpu.serialize import canonical_json, spec_to_obj
from repro.harness.registry import benchmark_names, load_benchmark

PIN = json.loads((Path(__file__).parent / "trace_digests.json").read_text())


def trace_digest(name: str, scale: str, seed: int) -> str:
    kernel = load_benchmark(name, scale=scale, seed=seed).kernel()
    return hashlib.sha256(canonical_json(spec_to_obj(kernel)).encode("utf-8")).hexdigest()


def test_pin_covers_every_benchmark():
    assert sorted(PIN["digests"]) == sorted(benchmark_names())


@pytest.mark.parametrize("name", sorted(PIN["digests"]))
def test_trace_matches_pinned_digest(name):
    assert trace_digest(name, PIN["scale"], PIN["seed"]) == PIN["digests"][name]


if __name__ == "__main__":
    digests = {name: trace_digest(name, PIN["scale"], PIN["seed"]) for name in benchmark_names()}
    print(json.dumps(dict(PIN, digests=digests), indent=2, sort_keys=True))
