"""Distributed checkpoints with expert resharding.

A 14.5 T-parameter model cannot be checkpointed through one rank; BaGuaLu-
class systems write shards in parallel. Layout used here (a directory):

* ``dense.npz``    — replicated parameters, written by world rank 0;
* ``experts_<ep_rank>of<ep_size>.npz`` — each EP position's expert
  parameters, written by that position's expert-data-parallel leader,
  keyed by **global** parameter names (``blocks.3.ffn.experts.17.fc_in.weight``);
* ``optim_dense.npz`` / ``optim_experts_<ep_rank>of<ep_size>.npz`` —
  optimizer state (Adam moments, fp16 masters) under the
  same global names (``m::<param name>`` etc.), written by the same
  leaders (replicated state is identical across replicas by the gradient
  sync invariant, so one writer per shard suffices);
* ``meta.json``    — step/layout metadata plus the manifest of every
  shard file, written last (after the shards synchronize), so its
  presence marks a snapshot as complete and :func:`verify_snapshot` can
  reject snapshots that lost or truncated a shard afterwards.

Because every key is global, loading is *layout-independent*: a
checkpoint saved at ``ep_size=4`` restores — parameters **and** optimizer
state — into a model sharded at ``ep_size=2`` (or 1) on any world size.
This is the resharding path real systems need when the allocation changes
between runs, and what lets the resilience supervisor shrink the world
around a dead node and resume exactly.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.errors import CheckpointError
from repro.models.module import Parameter
from repro.models.transformer import MoELanguageModel
from repro.parallel.ep import DistributedMoELayer
from repro.parallel.groups import MoDaGroups
from repro.tensor import quantize

__all__ = [
    "save_distributed",
    "load_distributed",
    "global_expert_state",
    "dense_state",
    "named_optimizer_state",
    "load_named_optimizer_state",
    "verify_snapshot",
    "latest_snapshot",
]

_META = "meta.json"
#: Separator between an optimizer-state kind ("m", "v", ...) and the
#: global parameter name in optimizer shard keys.
_OPT_SEP = "::"


def _global_expert_params(model: MoELanguageModel) -> Iterator[tuple[str, Parameter]]:
    """``(global name, param)`` for every expert parameter this rank holds:
    ``blocks.<layer>.ffn.experts.<global expert id>.<param name>``."""
    for layer_idx, block in enumerate(model.blocks):
        layer = block.ffn
        if not isinstance(layer, DistributedMoELayer):
            continue
        for local_idx, gid in enumerate(layer.global_expert_ids):
            for pname, p in layer.experts[local_idx].named_parameters():
                yield f"blocks.{layer_idx}.ffn.experts.{gid}.{pname}", p


def global_expert_state(model: MoELanguageModel) -> dict[str, np.ndarray]:
    """This rank's expert parameters under global (layout-free) names."""
    return {name: p.data.copy() for name, p in _global_expert_params(model)}


def dense_state(model: MoELanguageModel) -> dict[str, np.ndarray]:
    """Replicated (non-expert) parameters by their model names."""
    return {
        name: p.data.copy()
        for name, p in model.named_parameters()
        if not getattr(p, "is_expert", False)
    }


def _global_param_names(model: MoELanguageModel) -> dict[int, str]:
    """id(param) -> global (layout-free) name, dense and expert alike."""
    names: dict[int, str] = {}
    for name, p in model.named_parameters():
        if not getattr(p, "is_expert", False):
            names[id(p)] = name
    for name, p in _global_expert_params(model):
        names[id(p)] = name
    return names


def named_optimizer_state(model: MoELanguageModel, optimizer) -> dict[str, np.ndarray]:
    """Optimizer state re-keyed by global parameter names.

    :meth:`~repro.train.optim.Adam.state_dict` keys state by the
    parameter's *position* in the optimizer's list (``m.3``), which is a
    property of one rank's layout. This maps each entry to
    ``<kind>::<global param name>`` (``m::blocks.0.ffn.experts.5.fc_in.weight``),
    making the state restorable under any world size / EP width.
    """
    names = _global_param_names(model)
    out: dict[str, np.ndarray] = {}
    for key, value in optimizer.state_dict().items():
        if key == "step_count":
            out[key] = np.asarray(value)
            continue
        kind, _, idx = key.rpartition(".")
        param = optimizer.params[int(idx)]
        name = names.get(id(param))
        if name is None:
            raise CheckpointError(
                f"optimizer entry {key!r} refers to a parameter the model "
                "does not own; cannot key it globally"
            )
        out[f"{kind}{_OPT_SEP}{name}"] = np.asarray(value)
    return out


def load_named_optimizer_state(
    model: MoELanguageModel, optimizer, state: dict[str, np.ndarray]
) -> None:
    """Restore globally-named optimizer ``state`` into ``optimizer``.

    Entries for parameters this rank does not hold (other ranks' experts)
    are skipped — each rank picks its own slice out of the union of the
    optimizer shard files, mirroring the parameter restore path.
    """
    names = _global_param_names(model)
    index_of: dict[str, int] = {}
    for i, p in enumerate(optimizer.params):
        name = names.get(id(p))
        if name is not None:
            index_of[name] = i
    if "step_count" not in state:
        raise CheckpointError("optimizer state is missing 'step_count'")
    converted: dict[str, np.ndarray | float] = {
        "step_count": float(state["step_count"])
    }
    for key, value in state.items():
        if key == "step_count":
            continue
        kind, sep, name = key.partition(_OPT_SEP)
        if not sep:
            raise CheckpointError(f"unrecognized optimizer state key {key!r}")
        idx = index_of.get(name)
        if idx is None:
            continue  # another rank's expert shard
        converted[f"{kind}.{idx}"] = value
    optimizer.load_state_dict(converted)


def save_distributed(
    directory: str | Path,
    model: MoELanguageModel,
    groups: MoDaGroups,
    step: int = 0,
    optimizer=None,
) -> Path:
    """Write this rank's contribution to a sharded checkpoint.

    Collective over ``groups.world``: shard writers report their file
    names through a gather, and rank 0 writes ``meta.json`` (with the
    manifest) only after every shard landed — so a complete ``meta.json``
    certifies a complete snapshot. When ``optimizer`` is given
    (:class:`~repro.train.optim.Adam`), its state is saved
    under global parameter names and restores under any layout. Returns
    the directory path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ep_size = groups.ep.size
    written: list[str] = []

    if groups.world.rank == 0:
        np.savez(directory / "dense.npz", **dense_state(model))
        written.append("dense.npz")
    if groups.edp.rank == 0:
        shard = global_expert_state(model)
        if shard:
            fname = f"experts_{groups.ep_rank}of{ep_size}.npz"
            np.savez(directory / fname, **shard)
            written.append(fname)
    if optimizer is not None:
        state = named_optimizer_state(model, optimizer)
        dense_names = {
            name
            for name, p in model.named_parameters()
            if not getattr(p, "is_expert", False)
        }
        dense_entries: dict[str, np.ndarray] = {}
        expert_entries: dict[str, np.ndarray] = {}
        for key, value in state.items():
            if key == "step_count":
                dense_entries[key] = value
                expert_entries[key] = value
                continue
            _, _, name = key.partition(_OPT_SEP)
            target = dense_entries if name in dense_names else expert_entries
            target[key] = value
        if groups.world.rank == 0:
            np.savez(directory / "optim_dense.npz", **dense_entries)
            written.append("optim_dense.npz")
        if groups.edp.rank == 0 and len(expert_entries) > 1:
            fname = f"optim_experts_{groups.ep_rank}of{ep_size}.npz"
            np.savez(directory / fname, **expert_entries)
            written.append(fname)

    # The gather doubles as the pre-metadata barrier: every rank blocks
    # until all shard writes above have happened.
    listed = groups.world.gather(written, root=0)
    if groups.world.rank == 0:
        assert listed is not None
        manifest = sorted({name for sub in listed for name in sub})
        meta = {
            "step": int(step),
            "ep_size": ep_size,
            "world_size": groups.world.size,
            "model": model.config.name,
            "files": manifest,
            "format": 2,
        }
        (directory / _META).write_text(json.dumps(meta))
    groups.world.barrier()
    return directory


def verify_snapshot(directory: str | Path) -> dict:
    """Check a snapshot directory against its manifest; return the meta.

    Raises :class:`~repro.errors.CheckpointError` when ``meta.json`` is
    absent/corrupt, or any manifest file is missing or fails to open as a
    zip archive (truncated write, bit rot). Snapshots from before the
    manifest existed (no ``files`` key) fall back to the old
    meta.json-presence-only contract.
    """
    directory = Path(directory)
    meta_path = directory / _META
    if not meta_path.exists():
        raise CheckpointError(f"not a distributed checkpoint: {directory}")
    try:
        meta = json.loads(meta_path.read_text())
    except (json.JSONDecodeError, OSError) as exc:
        raise CheckpointError(f"corrupt metadata in {directory}: {exc}") from exc
    for fname in meta.get("files", []):
        path = directory / fname
        if not path.exists():
            raise CheckpointError(
                f"incomplete snapshot {directory}: missing shard {fname!r} "
                "listed in the manifest"
            )
        if path.suffix == ".npz":
            try:
                with np.load(path) as blob:
                    _ = blob.files
            except (zipfile.BadZipFile, OSError, ValueError, EOFError) as exc:
                raise CheckpointError(
                    f"truncated or corrupt shard {fname!r} in {directory}: {exc}"
                ) from exc
    return meta


def latest_snapshot(root: str | Path) -> tuple[Path | None, int]:
    """Newest *verified* ``step-<n>/`` snapshot under ``root``.

    Snapshots that fail :func:`verify_snapshot` (missing/truncated shards
    — e.g. debris from a crash, or a file lost after the save) are
    skipped, so recovery falls back to the newest snapshot that can
    actually restore. Returns ``(None, 0)`` when nothing usable exists.
    """
    best: tuple[Path | None, int] = (None, 0)
    root = Path(root)
    if not root.exists():
        return best
    for sub in root.glob("step-*"):
        try:
            step = int(sub.name.split("-")[1])
        except (IndexError, ValueError):
            continue
        if step <= best[1]:
            continue
        try:
            verify_snapshot(sub)
        except CheckpointError:
            continue
        best = (sub, step)
    return best


def load_distributed(
    directory: str | Path,
    model: MoELanguageModel,
    optimizer=None,
) -> dict:
    """Restore a sharded checkpoint into ``model`` (any EP layout).

    Per-rank local operation: each rank reads ``dense.npz`` plus whichever
    expert shards contain its local experts. When ``optimizer`` is given,
    its state is restored from the globally-named optimizer shards —
    layout-independent, so the saving and loading world sizes / EP widths
    may differ (the elastic-restart path). Returns the metadata dict.
    """
    directory = Path(directory)
    meta_path = directory / _META
    if not meta_path.exists():
        raise CheckpointError(f"not a distributed checkpoint: {directory}")
    meta = json.loads(meta_path.read_text())

    dense_path = directory / "dense.npz"
    if not dense_path.exists():
        raise CheckpointError(f"missing dense shard in {directory}")
    dense = np.load(dense_path)
    for name, p in model.named_parameters():
        if getattr(p, "is_expert", False):
            continue
        if name not in dense.files:
            raise CheckpointError(f"dense parameter {name!r} missing from checkpoint")
        arr = dense[name]
        if arr.shape != p.shape:
            raise CheckpointError(
                f"shape mismatch for {name!r}: checkpoint {arr.shape}, model {p.shape}"
            )
        p.data = quantize(arr, p.dtype).copy()

    # Index every expert key across all shard files (lazy per-file load).
    shard_files = sorted(directory.glob("experts_*.npz"))
    key_to_file: dict[str, Path] = {}
    for f in shard_files:
        with np.load(f) as blob:
            for key in blob.files:
                key_to_file[key] = f
    cache: dict[Path, dict[str, np.ndarray]] = {}

    def fetch(key: str) -> np.ndarray:
        f = key_to_file.get(key)
        if f is None:
            raise CheckpointError(f"expert parameter {key!r} not found in any shard")
        if f not in cache:
            with np.load(f) as blob:
                cache[f] = {k: blob[k] for k in blob.files}
        return cache[f][key]

    for key, p in _global_expert_params(model):
        arr = fetch(key)
        if arr.shape != p.shape:
            raise CheckpointError(
                f"shape mismatch for {key!r}: checkpoint {arr.shape}, model {p.shape}"
            )
        p.data = quantize(arr, p.dtype).copy()

    if optimizer is not None:
        opt_files = sorted(directory.glob("optim_*.npz"))
        if not opt_files:
            raise CheckpointError(
                f"checkpoint {directory} holds no optimizer state "
                "(saved without optimizer=...)"
            )
        state: dict[str, np.ndarray] = {}
        for f in opt_files:
            with np.load(f) as blob:
                for k in blob.files:
                    state[k] = blob[k]
        load_named_optimizer_state(model, optimizer, state)
    return meta
