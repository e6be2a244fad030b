"""F7 — capacity-factor sweep: token drop rate vs buffer size vs quality.

Paper context (reconstructed): static expert buffers make MoE traffic
fixed-size; the capacity factor trades dropped tokens (quality) against
buffer memory and alltoall payload. This bench sweeps the factor over a
skewed stream and reports drop rate and converged loss.
"""

import numpy as np

from repro.data import ShardedLoader, SyntheticCorpus
from repro.models import build_model, tiny_config
from repro.moe import build_dispatch, expert_capacity, make_gate
from repro.models import Embedding, Linear
from repro.train import Adam, ConstantLR, Trainer

VOCAB = 256
EXPERTS = 16


def test_f7_drop_rate_vs_capacity(benchmark, report):
    """Routing-level sweep on a Zipf stream with a top-k gate."""
    rng = np.random.default_rng(0)
    corpus = SyntheticCorpus(vocab_size=VOCAB, zipf_alpha=1.2, seed=0)
    tokens = corpus.sample(2048)
    emb = Embedding(VOCAB, 16, rng)
    router = Linear(16, EXPERTS, rng, bias=False)
    logits = router(emb(tokens.reshape(1, -1)).reshape(-1, 16))
    gate = make_gate("topk", EXPERTS, top_k=1)
    out = gate(logits, rng)

    def sweep():
        rows = []
        for factor in (0.5, 1.0, 1.5, 2.0, 4.0):
            buffer = expert_capacity(2048, EXPERTS, 1, factor)
            dropped = 2048 - build_dispatch(out.indices, EXPERTS, buffer).num_slots
            rows.append(
                {
                    "capacity_factor": factor,
                    "buffer_per_expert": buffer,
                    "dropped_tokens": dropped,
                    "drop_rate": round(dropped / 2048, 4),
                }
            )
        return rows

    rows = benchmark(sweep)
    report("f7_drop_rate", "F7a: token drop rate vs capacity factor (topk gate)", rows)

    drops = [r["drop_rate"] for r in rows]
    assert all(a >= b for a, b in zip(drops, drops[1:])), "drop rate must fall"
    assert drops[0] > 0.1
    assert drops[-1] < 0.05


def test_f7_balanced_gate_never_needs_drops(benchmark, report):
    """The balanced gate's assignment respects capacity by construction."""
    rng = np.random.default_rng(1)
    corpus = SyntheticCorpus(vocab_size=VOCAB, zipf_alpha=1.2, seed=1)
    tokens = corpus.sample(2048)
    emb = Embedding(VOCAB, 16, rng)
    router = Linear(16, EXPERTS, rng, bias=False)
    logits = router(emb(tokens.reshape(1, -1)).reshape(-1, 16))

    def sweep():
        rows = []
        for name in ("topk", "balanced"):
            gate = make_gate(name, EXPERTS, top_k=1)
            out = gate(logits, np.random.default_rng(2))
            plan = build_dispatch(out.indices, EXPERTS, expert_capacity(2048, EXPERTS, 1, 1.0))
            dropped = 2048 - plan.num_slots
            rows.append({"gate": name, "drop_rate_at_cf1": round(dropped / 2048, 4)})
        return rows

    rows = benchmark(sweep)
    report("f7_balanced", "F7b: drops at capacity factor 1.0 by gate", rows)
    by = {r["gate"]: r["drop_rate_at_cf1"] for r in rows}
    assert by["balanced"] <= 0.01
    assert by["topk"] > by["balanced"]


def test_f7_training_quality_vs_capacity(benchmark, report):
    """End-to-end: tighter capacity drops more tokens and costs loss."""

    def run():
        rows = []
        for factor in (0.5, 2.0):
            cfg = tiny_config(capacity_factor=factor)
            model = build_model(cfg, seed=4)
            corpus = SyntheticCorpus(vocab_size=cfg.vocab_size, predictability=0.9, seed=6)
            loader = ShardedLoader(corpus, batch_size=8, seq_len=16)
            trainer = Trainer(model, Adam(model.parameters(), lr=3e-3),
                              schedule=ConstantLR(3e-3))
            hist = trainer.fit(loader, 50)
            drop = float(np.mean([m.last_drop_fraction for m in model.moe_layers()]))
            rows.append(
                {
                    "capacity_factor": factor,
                    "final_drop_rate": round(drop, 4),
                    "final_loss": round(float(np.mean([h.loss for h in hist[-10:]])), 4),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report("f7_quality", "F7c: training loss vs capacity factor", rows)

    tight, loose = rows[0], rows[1]
    assert tight["final_drop_rate"] >= loose["final_drop_rate"]
    # Quality ordering can be noisy at toy scale; require no *large* win
    # for the tighter buffer.
    assert tight["final_loss"] >= loose["final_loss"] - 0.1
