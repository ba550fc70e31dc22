"""Engine choice is execution strategy, not result identity.

The engines are proven result-equivalent (tests/net/test_engine_differential),
so a RunSpec's ``engine`` must not enter its content hash: a result cached
under one engine satisfies the same spec under any other, and ``--engine``
can never silently invalidate a warm cache.
"""

from __future__ import annotations

import pickle

import pytest

from repro.runtime import ParallelExecutor, ResultCache, RunSpec


def test_engine_excluded_from_spec_identity():
    des = RunSpec.make("FIG2", t=16, engine="des")
    fast = RunSpec.make("FIG2", t=16, engine="batch")
    default = RunSpec.make("FIG2", t=16)
    assert des.canonical_key() == fast.canonical_key() == default.canonical_key()
    assert des.spec_hash() == fast.spec_hash() == default.spec_hash()
    assert des == fast == default
    assert des.engine == "des" and fast.engine == "batch"


def test_engine_validated_eagerly():
    with pytest.raises(ValueError, match="unknown engine"):
        RunSpec.make("FIG2", t=16, engine="warp")


def test_warm_cache_hits_regardless_of_engine(tmp_path):
    """Cold run on one engine; the other engine replays from cache."""
    cold = ParallelExecutor(jobs=1, cache=ResultCache(tmp_path))
    cold_records = cold.run([RunSpec.make("FIG2", t=16, engine="des")])
    assert cold.submissions == 1

    warm = ParallelExecutor(jobs=1, cache=ResultCache(tmp_path))
    warm_records = warm.run([RunSpec.make("FIG2", t=16, engine="batch")])
    assert warm.submissions == 0
    assert warm_records[0].cached
    assert pickle.dumps(warm_records[0].result) == pickle.dumps(
        cold_records[0].result
    )


def test_run_spec_results_identical_across_engines():
    """Executing the same spec under each engine yields equal results."""
    from repro.experiments.registry import run_spec

    des = run_spec(RunSpec.make("FIG2", t=16, engine="des"))
    fast = run_spec(RunSpec.make("FIG2", t=16, engine="batch"))
    assert pickle.dumps(des) == pickle.dumps(fast)
