"""The config boundary: construct, or raise ``ConfigError``.

``ParallelPlan`` is where every layout and workload field is checked;
``TrainingRunConfig`` validates by building its plan, ``PlannerConfig`` by
building the run of its data-parallel layout, and ``ElasticRunConfig`` by
building its full-width run. So a nonsense field is refused at
construction, with the one error type, instead of inside a rank thread (or,
for a supervised run, after every retry the supervisor has). The serving
configs (``ServeConfig``, ``FleetConfig``, ``AutoscalerConfig``) hold the
same line, and their errors name the field they refuse; so does
``ModelConfig`` for its sizes, capacity factor and loss weights. NaN is
refused by every float field, with the field named. The name fields (gate, dtype,
collective algorithms) and the arrival ramp are perturbed too: a config
that constructs holds a value its run accepts, and a refusal names the
field.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.models import ModelConfig, tiny_config
from repro.parallel import TrainingRunConfig
from repro.perf import ParallelPlan
from repro.plan import PlannerConfig
from repro.resilience import BackoffPolicy, ElasticRunConfig
from repro.network import sunway_network
from repro.serve import AutoscalerConfig, FleetConfig, ServeConfig

MODEL = tiny_config()

#: One valid keyword set per config; the suite perturbs their numbers.
BASES = {
    ParallelPlan: dict(num_nodes=4, ep_size=2, micro_batch=2, seq_len=8),
    TrainingRunConfig: dict(model=MODEL, world_size=4, ep_size=2,
                            batch_size=2, seq_len=8),
    PlannerConfig: dict(model=MODEL, num_nodes=4, cluster="toy",
                        micro_batch=2, seq_len=8),
    ElasticRunConfig: dict(model=MODEL, world_size=4, ep_size=2,
                           total_steps=4, checkpoint_every=2,
                           checkpoint_dir="unused", batch_size=2, seq_len=8),
}

#: The serving family: the same perturbations, and each refusal names a
#: perturbed field.
SERVING_BASES = {
    ServeConfig: dict(model=MODEL, ep_size=2),
    FleetConfig: dict(serve=ServeConfig(model=MODEL, ep_size=2),
                      autoscale=AutoscalerConfig()),
    AutoscalerConfig: dict(),
}

#: Mostly small (where every divisibility and sign rule lives), sometimes
#: anything a 64-bit int holds.
INTS = st.one_of(st.integers(-2, 9), st.integers(-(2**63), 2**63 - 1))
FLOATS = st.floats(allow_nan=True, allow_infinity=True)


def _numeric_fields(cls) -> dict[str, st.SearchStrategy]:
    # Annotations are strings under ``from __future__ import annotations``.
    kinds = {"int": INTS, "float": FLOATS,
             "int | None": st.none() | INTS, "float | None": st.none() | FLOATS}
    return {
        f.name: kinds[f.type] for f in dataclasses.fields(cls) if f.type in kinds
    }


def _perturbed(cls, base: dict, data) -> tuple[list[str], dict]:
    fields = _numeric_fields(cls)
    names = data.draw(
        st.lists(st.sampled_from(sorted(fields)), min_size=1, max_size=3, unique=True)
    )
    kwargs = dict(base)
    kwargs.update({name: data.draw(fields[name], label=name) for name in names})
    return names, kwargs


@pytest.mark.parametrize("cls", list(BASES) + list(SERVING_BASES),
                         ids=lambda cls: cls.__name__)
def test_every_config_has_numbers_to_perturb(cls):
    strategies = list(_numeric_fields(cls).values())
    assert INTS in strategies and FLOATS in strategies


@pytest.mark.parametrize("cls", list(BASES), ids=lambda cls: cls.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_perturbed_fields_construct_or_raise_config_error(cls, data):
    _, kwargs = _perturbed(cls, BASES[cls], data)
    try:
        cls(**kwargs)
    except ConfigError:
        pass


@pytest.mark.parametrize("cls", list(SERVING_BASES), ids=lambda cls: cls.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_perturbed_serving_fields_construct_or_name_the_field(cls, data):
    names, kwargs = _perturbed(cls, SERVING_BASES[cls], data)
    try:
        cls(**kwargs)
    except ConfigError as exc:
        assert any(name in str(exc) for name in names), (names, str(exc))


def _model_config_ok(config: ModelConfig) -> bool:
    """What a constructed model config may hold, written out here rather
    than imported, so the oracle does not share the code it checks."""
    sizes = (config.vocab_size, config.max_seq_len, config.d_model, config.n_layers,
             config.n_heads, config.d_ff, config.num_experts, config.moe_every)
    return (
        all(n >= 1 for n in sizes)
        and 1 <= config.top_k <= config.num_experts
        and config.d_model % config.n_heads == 0
        and (config.capacity_factor is None or 0 < config.capacity_factor < math.inf)
        and 0 <= config.aux_weight < math.inf
        and 0 <= config.z_weight < math.inf
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_perturbed_model_fields_construct_or_name_the_field(data):
    """Every size, the capacity factor and the two loss weights: a model
    config that constructs can be built, and a refusal names the field."""
    names, kwargs = _perturbed(ModelConfig, dataclasses.asdict(MODEL), data)
    assert "capacity_factor" in _numeric_fields(ModelConfig)
    try:
        config = ModelConfig(**kwargs)
    except ConfigError as exc:
        assert any(name in str(exc) for name in names), (names, str(exc))
    else:
        assert _model_config_ok(config), kwargs


@pytest.mark.parametrize(
    "bad",
    [dict(vocab_size=0), dict(max_seq_len=0), dict(d_model=0), dict(n_layers=0),
     dict(d_ff=-1), dict(n_heads=0), dict(aux_weight=-1.0), dict(z_weight=-1e-3),
     dict(aux_weight=math.nan), dict(capacity_factor=math.nan),
     dict(capacity_factor=0.0)],
    ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
)
def test_model_config_refuses_nonsense_naming_the_field(bad):
    """The parent constructed each of these (``n_heads=0`` raised
    ``ZeroDivisionError``)."""
    (name,) = bad
    with pytest.raises(ConfigError, match=name):
        dataclasses.replace(MODEL, **bad)


def test_model_config_allows_zero_loss_weights():
    config = dataclasses.replace(MODEL, aux_weight=0.0, z_weight=0.0)
    assert config.aux_weight == config.z_weight == 0.0


#: Names a run accepts, written out here rather than imported, so the
#: oracle does not share the code it checks. ``None`` and ``""`` mean the
#: network's default policy.
ALLREDUCE_NAMES = {None, "", "auto", "ring", "tree", "hierarchical"}
ALLTOALL_NAMES = {None, "", "auto", "flat", "hierarchical"}
GATE_NAMES = {"topk", "noisy-topk", "balanced", "random"}
DTYPE_NAMES = {"fp64", "fp32", "fp16", "bf16"}

#: Known names, near misses and arbitrary text.
TEXT = st.one_of(
    st.sampled_from(sorted((ALLREDUCE_NAMES | ALLTOALL_NAMES | GATE_NAMES | DTYPE_NAMES)
                           - {None}) + ["hierarchcal", "rng", "bogus", "fp8", "Auto"]),
    st.text(max_size=8),
)
#: Ramps mostly start at t=0 with positive rates, so the ordering and
#: rate checks are reached as well as the start check.
RAMP_TIMES = st.one_of(st.sampled_from((0.0, 1.0, 5.0)), FLOATS)
RAMP_RATES = st.one_of(st.sampled_from((1.0, 2.0)), FLOATS)
RAMPS = st.none() | st.lists(st.tuples(RAMP_TIMES, RAMP_RATES), max_size=4).map(tuple)


def _ramp_ok(ramp) -> bool:
    return ramp is None or (
        len(ramp) >= 1
        and ramp[0][0] == 0.0
        and all(rate > 0 for _, rate in ramp)
        and all(b[0] > a[0] for a, b in zip(ramp, ramp[1:]))
    )


def _algorithms(allreduce: str, alltoall: str) -> dict:
    return {allreduce: (st.none() | TEXT, ALLREDUCE_NAMES.__contains__),
            alltoall: (st.none() | TEXT, ALLTOALL_NAMES.__contains__)}


#: Per config: field -> (values drawn, what a constructed config may hold).
TEXT_FIELDS = {
    ModelConfig: {"gate": (TEXT, GATE_NAMES.__contains__),
                  "dtype": (TEXT, DTYPE_NAMES.__contains__)},
    ParallelPlan: _algorithms("allreduce", "alltoall"),
    TrainingRunConfig: _algorithms("allreduce_algorithm", "alltoall_algorithm"),
    ElasticRunConfig: _algorithms("allreduce_algorithm", "alltoall_algorithm"),
    ServeConfig: {"alltoall_algorithm": (st.none() | TEXT, ALLTOALL_NAMES.__contains__),
                  "arrival_ramp": (RAMPS, _ramp_ok)},
}


@pytest.mark.parametrize("cls", list(TEXT_FIELDS), ids=lambda cls: cls.__name__)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_perturbed_name_and_ramp_fields_are_valid_or_named(cls, data):
    fields = TEXT_FIELDS[cls]
    names = data.draw(
        st.lists(st.sampled_from(sorted(fields)), min_size=1, max_size=2, unique=True)
    )
    base = dataclasses.asdict(MODEL) if cls is ModelConfig else {**BASES, **SERVING_BASES}[cls]
    values = {name: data.draw(fields[name][0], label=name) for name in names}
    try:
        cls(**{**base, **values})
    except ConfigError as exc:
        assert any(name in str(exc) for name in names), (names, str(exc))
    else:
        for name, value in values.items():
            assert fields[name][1](value), f"{cls.__name__} accepted {name}={value!r}"


@pytest.mark.parametrize("bad", [dict(gate="bogus"), dict(dtype="fp8")],
                         ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
def test_misspelt_gate_or_dtype_is_refused_before_a_supervised_launch(bad):
    """The parent built these configs; a supervisor then relaunched the
    dying world six times (``training failed 6 times; giving up``)."""
    (name,) = bad
    with pytest.raises(ConfigError, match=name):
        ElasticRunConfig(**{**BASES[ElasticRunConfig], "model": tiny_config(**bad)})


@pytest.mark.parametrize(
    ("cls", "name", "value"),
    [(TrainingRunConfig, "alltoall_algorithm", "hierarchcal"),
     (TrainingRunConfig, "allreduce_algorithm", "rng"),
     (ElasticRunConfig, "alltoall_algorithm", "hierarchcal"),
     (ServeConfig, "alltoall_algorithm", "hierarchcal"),
     (ParallelPlan, "alltoall", "hierarchcal"),
     (ParallelPlan, "allreduce", "rng")],
    ids=lambda v: v if isinstance(v, str) else v.__name__,
)
def test_unknown_algorithm_name_is_refused_naming_the_field(cls, name, value):
    """The parent constructed these and priced the misspelt name as "auto"."""
    base = {**BASES, **SERVING_BASES}[cls]
    with pytest.raises(ConfigError, match=name):
        cls(**{**base, name: value})


def test_network_model_refuses_an_unknown_algorithm_name():
    net = sunway_network(8)
    with pytest.raises(ConfigError, match="allreduce_algorithm"):
        net.allreduce_time(1024.0, range(8), algorithm="rng")
    with pytest.raises(ConfigError, match="alltoall_algorithm"):
        net.alltoall_time(1024.0, range(8), algorithm="hierarchcal")


def test_nan_arrival_ramp_time_is_refused():
    """The parent built this ramp and never entered its middle segment."""
    with pytest.raises(ConfigError, match="arrival_ramp"):
        ServeConfig(**SERVING_BASES[ServeConfig],
                    arrival_ramp=((0.0, 1.0), (math.nan, 2.0), (5.0, 3.0)))


@pytest.mark.parametrize(
    "bad",
    [dict(expert_capacity=0), dict(expert_capacity=-1),
     dict(supernode_size=0), dict(timeout=0.0)],
    ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
)
def test_serve_config_rejects_at_construction_what_used_to_fail_after_launch(bad):
    """The parent constructed these; the run then died inside its rank
    threads (``ConfigError``), building the network (``TopologyError``) or
    waiting for them (``DeadlockError``)."""
    (name,) = bad
    with pytest.raises(ConfigError, match=name):
        ServeConfig(**SERVING_BASES[ServeConfig], **bad)


@pytest.mark.parametrize(
    "bad",
    [dict(batch_size=0), dict(seq_len=0), dict(num_microbatches=0),
     dict(ep_size=0), dict(overlap_chunks=0)],
    ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
)
def test_training_run_config_rejects_workload_at_construction(bad):
    with pytest.raises(ConfigError):
        TrainingRunConfig(**{**BASES[TrainingRunConfig], **bad})


def test_ep_not_dividing_world_reads_the_layout_message():
    with pytest.raises(ConfigError, match="must divide the stage plane"):
        TrainingRunConfig(model=MODEL, world_size=4, ep_size=3)


def test_elastic_run_config_rejects_workload_at_construction():
    """The parent built this config, then retried the dying launch as if it
    were a fault until ``CommunicatorError: training failed 6 times``."""
    with pytest.raises(ConfigError, match="micro_batch and seq_len"):
        ElasticRunConfig(**{**BASES[ElasticRunConfig], "batch_size": 0})


def test_training_run_config_rejects_a_sequence_longer_than_the_model():
    """The parent constructed this and failed inside a rank thread."""
    with pytest.raises(ConfigError, match="plan seq_len=64 exceeds model max_seq_len=32"):
        TrainingRunConfig(model=MODEL, world_size=2, ep_size=2, seq_len=64)


def test_elastic_run_config_rejects_a_sequence_longer_than_the_model():
    """The parent retried this until ``CommunicatorError: training failed 6 times``."""
    with pytest.raises(ConfigError, match="plan seq_len=64 exceeds model max_seq_len=32"):
        ElasticRunConfig(**{**BASES[ElasticRunConfig], "seq_len": 64})


#: Every float field that used to construct with NaN (its check was written
#: ``x <= 0``, which NaN passes).
NAN_FIELDS = {
    TrainingRunConfig: ("lr", "corpus_predictability", "timeout"),
    ServeConfig: ("arrival_rate", "slo_ms", "timeout"),
    FleetConfig: ("mtbf", "hedge_after_ms", "request_timeout_ms", "backoff_base",
                  "backoff_cap", "slo_horizon_s"),
    AutoscalerConfig: ("ttft_slo_s", "signal_window_s", "queue_high", "queue_low",
                       "cooldown_s", "spawn_delay_s", "dispatch_window_s"),
    ElasticRunConfig: ("lr", "corpus_predictability", "backoff_base", "backoff_cap",
                       "timeout"),
    PlannerConfig: ("load_imbalance",),
    ParallelPlan: ("load_imbalance",),
    BackoffPolicy: ("base", "cap"),
}


@pytest.mark.parametrize(
    ("cls", "name"),
    [(cls, name) for cls, names in NAN_FIELDS.items() for name in names],
    ids=lambda v: v if isinstance(v, str) else v.__name__,
)
def test_nan_is_refused_naming_the_field(cls, name):
    base = {**BASES, **SERVING_BASES}.get(cls, {})
    with pytest.raises(ConfigError, match=name):
        cls(**{**base, name: math.nan})


def test_planner_config_rejects_workload_at_construction():
    base = BASES[PlannerConfig]
    for bad in (dict(micro_batch=0), dict(num_nodes=0), dict(overlap_chunks=0),
                dict(load_imbalance=0.5), dict(max_tp=0)):
        with pytest.raises(ConfigError):
            PlannerConfig(**{**base, **bad})


def test_run_plan_is_derived_once_and_matches_the_layout():
    cfg = TrainingRunConfig(model=MODEL, world_size=8, ep_size=2, tp_size=2,
                            zero_shards=1, batch_size=2, seq_len=8,
                            alltoall_algorithm="flat", allreduce_algorithm="ring")
    assert cfg.plan is cfg.plan
    assert cfg.layout is cfg.plan.layout
    assert cfg.plan == ParallelPlan(
        num_nodes=8, ep_size=2, tp_size=2, pp_size=1, zero_shards=1,
        micro_batch=2, seq_len=8, num_microbatches=2, overlap_chunks=1,
        alltoall="flat", allreduce="ring",
    )
    # Still a value: the cached plan is not a field.
    assert "plan" not in {f.name for f in dataclasses.fields(cfg)}
    assert dataclasses.replace(cfg, num_steps=1).plan == cfg.plan
