"""Work the serving path does once instead of per call, and the contracts
that make it invisible.

* **Models, once per EP rank per fleet run.** ``run_fleet_serving`` keeps
  each EP rank's model across segments and rebinds it to every new world
  (communicator, compute hook, gate rng restored to its post-build state).
  A fleet driven through ``_Fleet`` with ``_run_serving`` and no model
  pool — which builds every segment's models fresh — must give the same requests, goodput and
  span dump, crashes and hedges included.
* **Collective prices, once per key.** A communicator prices an
  (op kind, bytes, algorithm) key once; every price must equal what
  ``collective_seconds`` computes for the call.
* **The MoE aux loss, on read.** Forwards whose aux loss nobody reads
  (KV-cached decode) never compute it; one read is cached, and it is built
  under the grad mode of the forward that routed the tokens.
"""

import json
import sys
from functools import partial

import numpy as np
import pytest

import repro.serve.engine as engine_mod
import repro.serve.fleet as fleet_mod
from repro.data import ShardedLoader, SyntheticCorpus
from repro.errors import FaultInjected
from repro.models import MoELanguageModel, MoELayer, tiny_config
from repro.network import sunway_network
from repro.parallel import TrainingRunConfig, run_distributed_training
from repro.serve import FleetConfig, KVCache, ServeConfig, run_fleet_serving, run_serving
from repro.simmpi import Comm, FaultPlan, run_spmd
from repro.simmpi.comm import collective_seconds
from repro.tensor import Tensor, no_grad
from tests.test_pinned_trajectories import PLATFORM, _platform


# --------------------------------------------------------------------- #
# One model build per EP rank per fleet run
# --------------------------------------------------------------------- #

#: The engine call of a fleet that builds every segment's models fresh.
FRESH_BUILDS = partial(engine_mod._run_serving, pool=None)

#: Every third segment's rank 1 dies at this op: mid-decode for the tiny
#: model (9 collectives per engine iteration).
CRASH_AT_OP = 40


def scripted_crashes(engine):
    """``engine`` with a crash scripted into every third segment.

    Rank 1 dies at its ``CRASH_AT_OP``-th operation, and the crash instant
    is that rank's clock. Left to the engine, the instant is the furthest
    clock any rank thread reached before the abort got to it, which the
    thread scheduler decides; pinning it makes two runs comparable.
    """
    def call(cfg, **kwargs):
        call.segments += 1
        if call.segments % 3 == 0:
            kwargs["faults"] = FaultPlan().kill_rank(1, at_op=CRASH_AT_OP)
        try:
            return engine(cfg, **kwargs)
        except FaultInjected as exc:
            exc.partial_clocks = [exc.partial_clocks[exc.rank]]
            raise

    call.segments = 0
    return call


def fleet_config(**serve_kw):
    serve = ServeConfig(
        model=tiny_config(gate=serve_kw.pop("gate", "topk")), ep_size=2,
        num_requests=16, arrival_rate=20_000.0, max_new_tokens=6,
        max_batch_size=4, observe=True, **serve_kw,
    )
    return FleetConfig(serve=serve, replicas=2, hedge_after_ms=0.1,
                       retry_max=8, backoff_base=2e-4, backoff_cap=2e-3)


def outputs(result):
    spans = json.dumps({"spans": result.context.spans.records()}, sort_keys=True)
    return result.requests, result.goodput, spans


@pytest.mark.parametrize(
    "serve_kw",
    [{"gate": "noisy-topk"}, {"gate": "random"}, {"expert_capacity": 1}],
    ids=["noisy-topk", "random", "capacity"],
)
def test_pooled_fleet_equals_fresh_builds(monkeypatch, serve_kw):
    cfg = fleet_config(**serve_kw)
    fresh = fleet_mod._Fleet(cfg, scripted_crashes(FRESH_BUILDS)).run()

    builds = []
    real_build = engine_mod.MoELanguageModel

    def counted(*args, **kwargs):
        builds.append(None)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "MoELanguageModel", counted)
    crashing = scripted_crashes(engine_mod._run_serving)
    monkeypatch.setattr(fleet_mod, "_run_serving", crashing)
    pooled = run_fleet_serving(cfg)

    assert pooled.crashes >= 1 and pooled.hedges >= 1
    assert len(builds) == cfg.serve.ep_size
    assert crashing.segments >= 4
    assert outputs(pooled) == outputs(fresh)


def test_pooled_healthy_fleet_equals_fresh_builds():
    cfg = fleet_config(gate="noisy-topk", overlap_chunks=2)
    assert outputs(run_fleet_serving(cfg)) == outputs(
        fleet_mod._Fleet(cfg, FRESH_BUILDS).run()
    )


# --------------------------------------------------------------------- #
# One price per collective key
# --------------------------------------------------------------------- #


@pytest.fixture
def prices(monkeypatch):
    """Every collective's ``(network, op, bytes, members, algorithm, cost)``."""
    seen = []
    real = Comm._collective

    def spy(self, op, value, t_start, nbytes, algorithm=None):
        request = real(self, op, value, t_start, nbytes, algorithm)
        seen.append((self.network, op, nbytes, self.members, algorithm,
                     request._cost))
        return request

    monkeypatch.setattr(Comm, "_collective", spy)
    return seen


def assert_priced_fresh(seen):
    """Each cached price is the one the op table computes for its call,
    and some keys were met more than once (the cache was exercised)."""
    assert seen
    for network, op, nbytes, members, algorithm, cost in seen:
        assert cost == collective_seconds(network, op, nbytes, members, algorithm)
    keys = {(op, nbytes, members, algorithm) for _, op, nbytes, members, algorithm, _ in seen}
    assert len(keys) < len(seen)


def test_traced_overlapped_training_run_is_priced_fresh(prices):
    run_distributed_training(TrainingRunConfig(
        model=tiny_config(), world_size=4, ep_size=2, overlap_chunks=2,
        num_steps=2, batch_size=2, seq_len=8, trace=True,
    ))
    assert {"ialltoall", "allreduce"} <= {op for _, op, *_ in prices}
    assert_priced_fresh(prices)


def test_fleet_segment_is_priced_fresh(prices):
    run_serving(fleet_config(overlap_chunks=2).serve)
    assert_priced_fresh(prices)


def test_no_price_is_reused_across_keys(prices):
    """One communicator, two sizes, every algorithm: six allreduce keys
    and four alltoall keys, each called twice, give ten distinct prices
    on a network where every formula differs."""

    def program(comm):
        for _ in range(2):
            for algorithm in ("ring", "tree", "hierarchical"):
                for n in (1, 1024):
                    comm.allreduce(np.zeros(n), algorithm=algorithm)
            for algorithm in ("flat", "hierarchical"):
                for n in (1, 1024):
                    comm.alltoall([np.zeros(n)] * comm.size, algorithm=algorithm)

    run_spmd(program, 4, network=sunway_network(4, supernode_size=2))
    assert_priced_fresh(prices)
    by_key = {}
    for _, op, nbytes, members, algorithm, cost in prices:
        by_key.setdefault((op, nbytes, algorithm), set()).add(cost)
    assert len(by_key) == 10
    assert all(len(costs) == 1 for costs in by_key.values())
    assert len({cost for (cost,) in by_key.values()}) == 10


def test_prices_under_thread_churn(prices):
    """Eight rank threads switching every microsecond race on the same few
    keys of one communicator: every price is still the table's, and the
    symmetric program leaves every rank at one clock."""

    def program(comm):
        for i in range(60):
            comm.allreduce(np.zeros(1 + i % 3))
        return comm.clock

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        clocks = run_spmd(program, 8, network=sunway_network(8), timeout=60).returns
    finally:
        sys.setswitchinterval(interval)
    assert_priced_fresh(prices)
    assert len(prices) == 8 * 60 and len(set(clocks)) == 1


# --------------------------------------------------------------------- #
# The aux loss is computed on read
# --------------------------------------------------------------------- #


@pytest.fixture
def balance_calls(monkeypatch):
    import repro.models.moe_layer as moe_mod

    calls = []
    real = moe_mod.load_balance_loss

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(moe_mod, "load_balance_loss", counted)
    return calls


def test_cached_decode_never_computes_the_aux_loss(balance_calls):
    cfg = tiny_config()
    model = MoELanguageModel(cfg, seed=0).eval()
    cache = KVCache.for_model(model, batch_size=2)
    prompts = np.arange(12).reshape(2, 6) % cfg.vocab_size
    with no_grad():
        model(prompts, kv_cache=cache)
        for _ in range(3):
            model(prompts[:, -1:], kv_cache=cache)
    assert balance_calls == []
    aux = model.aux_loss()  # read after the no_grad block...
    assert len(balance_calls) == len(model.moe_layers())
    assert aux._node is None  # ...yet built under the forward's no_grad


def test_one_read_is_cached(balance_calls):
    layer = MoELayer(8, 16, 4, np.random.default_rng(0))
    layer(Tensor(np.random.default_rng(1).normal(size=(6, 8))))
    first = layer.last_aux_loss
    assert layer.last_aux_loss is first
    assert len(balance_calls) == 1


def test_read_under_no_grad_keeps_the_forwards_graph():
    layer = MoELayer(8, 16, 4, np.random.default_rng(0))
    layer(Tensor(np.random.default_rng(1).normal(size=(6, 8))))
    with no_grad():
        aux = layer.last_aux_loss
    aux.backward()
    assert layer.router.weight.grad is not None


@pytest.mark.parametrize(
    "overrides,expected",
    [({}, 4.874099890391032),
     ({"top_k": 2}, 4.873222192128499)],
    ids=["balance", "balance-top2"],
)
def test_eval_loss_is_unchanged(overrides, expected):
    """Literals computed when the aux loss was still built inside forward
    (on the arithmetic the pinned trajectories fingerprint)."""
    if _platform() != PLATFORM:
        pytest.skip("BLAS/libm round differently here than where the literals were generated")
    cfg = tiny_config(**overrides)
    model = MoELanguageModel(cfg, seed=7)
    loader = ShardedLoader(SyntheticCorpus(vocab_size=cfg.vocab_size, seed=11), 4, 16)
    model.eval()
    total = 0.0
    with no_grad():
        for step in range(3):
            batch = loader.get_batch(step)
            total += float(model.loss(batch.tokens, batch.targets).item())
    assert total / 3 == expected
