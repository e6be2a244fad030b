"""The autograd hot path does only the work whose result is not known.

Three mechanisms, each checked against the path it replaced, byte for byte:

(a) ops that only move values pass ``exact=True`` to ``_make`` and are not
    rounded again — the reference is the same node built through
    ``Tensor(...)``, which still rounds whatever it is given;
(b) ``_scatter_add`` replaces ``np.add.at`` — the reference is ``np.add.at``;
(c) the optimizers update their state in place — the reference is a
    literal copy of the allocate-everything update.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.amp import cast_model
from repro.models import MoELanguageModel, Parameter, tiny_config
from repro.parallel import (
    ParallelLayout, ZeroAdamW, build_groups, build_moda_model, load_distributed,
    save_distributed,
)
from repro.parallel.collective_ops import (
    PendingAlltoallRows, copy_to_tp_region, place_rows,
)
from repro.simmpi import run_spmd
from repro.tensor import Tensor, embedding, gather_rows, quantize
from repro.tensor import ops as T
from repro.tensor.ops import _scatter_add
from repro.train import Adam
from repro.train.optim import BETA1, BETA2, EPS

DTYPES = ("fp16", "bf16", "fp32")


def _values(rng, shape, dtype):
    """Random values on ``dtype``'s grid, signed zeros and an inf included."""
    raw = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4)
    flat = raw.reshape(-1)
    if flat.size > 2:
        flat[rng.integers(flat.size)] = -0.0
        flat[rng.integers(flat.size)] = np.inf
    return quantize(raw, dtype)


def _leaf(rng, shape, dtype):
    return Tensor(_values(rng, shape, dtype), requires_grad=True, dtype=dtype)


def _through_init(out: Tensor) -> Tensor:
    """The same node built the way every op output used to be: rounded by ``__init__``."""
    return Tensor(out.data, dtype=out.dtype, _parents=out._parents, _backward=out._backward)


def _check_exact(rng, build, leaves):
    """``build()`` -> op output; compare it with the rounded construction."""
    out = build()
    ref = _through_init(out)
    assert isinstance(out.data, np.ndarray)
    assert out.data.dtype == out.dtype.storage
    assert out.data.tobytes() == quantize(out.data, out.dtype).tobytes() == ref.data.tobytes()
    # Same memory order too, or NumPy's pairwise reductions downstream differ.
    assert out.sum().data.tobytes() == ref.sum().data.tobytes()
    assert out.data.flags.c_contiguous == ref.data.flags.c_contiguous

    g = _values(rng, out.shape, out.dtype)
    got = []
    for node in (out, ref):
        for leaf in leaves:
            leaf.zero_grad()
        # The two heads share ``out``'s parents and everything above them:
        # the first backward has to leave that graph for the second.
        node.backward(g, retain_graph=node is out)
        got.append([leaf.grad.tobytes() for leaf in leaves])
        for leaf in leaves:
            assert leaf.grad.tobytes() == quantize(leaf.grad, leaf.dtype).tobytes()
            assert leaf.grad.flags.c_contiguous and leaf.grad.flags.owndata
    assert got[0] == got[1]


# --------------------------------------------------------------------- #
# (a) one case per ``exact=True`` call site, keyed by the function's name
# --------------------------------------------------------------------- #

def _case_reshape(rng, dtype):
    a = _leaf(rng, (rng.integers(1, 5), 6, rng.integers(1, 4)), dtype)
    src = a if rng.integers(2) else a.transpose(2, 0, 1)  # a non-contiguous source copies
    return (lambda: src.reshape(-1, 3)), [a]


def _case_transpose(rng, dtype):
    shape = tuple(rng.integers(1, 5, size=rng.integers(2, 5)))
    a = _leaf(rng, shape, dtype)
    axes = tuple(rng.permutation(len(shape)))
    return (lambda: T.transpose(a, axes if rng.integers(2) else None)), [a]


def _case_getitem(rng, dtype):
    a = _leaf(rng, (rng.integers(2, 6), rng.integers(3, 9), 4), dtype)
    n, m = a.shape[:2]
    index = [
        (slice(None), slice(0, m - 1)),          # a view with gaps
        (slice(None, None, 2), Ellipsis, slice(1, 3)),
        (-1, None, slice(None, None, -1)),
        rng.integers(-n, n, size=(3, 2)),         # an integer array with repeats
        _values(rng, a.shape, dtype) > 0,         # a boolean mask
        (rng.integers(n, size=5), rng.integers(m, size=5)),
        (int(rng.integers(n)), int(rng.integers(m)), 2),  # a NumPy scalar
    ][rng.integers(7)]
    return (lambda: a[index]), [a]


def _case_concat(rng, dtype):
    # A mixed fp16/bf16 concat is the one that may not claim exactness.
    dtypes = [dtype] + [DTYPES[i] for i in rng.integers(3, size=2)]
    parts = [_leaf(rng, (rng.integers(1, 4), 5), d) for d in dtypes]
    return (lambda: T.concat(parts, axis=0)), parts


def _case_gather_rows(rng, dtype):
    x = _leaf(rng, (rng.integers(1, 9), 4), dtype)
    idx = rng.integers(x.shape[0], size=rng.integers(0, 20))
    return (lambda: gather_rows(x, idx)), [x]


def _case_embedding(rng, dtype):
    w = _leaf(rng, (rng.integers(1, 9), 4), dtype)
    ids = rng.integers(w.shape[0], size=(rng.integers(1, 4), rng.integers(1, 6)))
    return (lambda: embedding(w, ids)), [w]


def _case_place_rows(rng, dtype):
    total = int(rng.integers(2, 12))
    cut = int(rng.integers(1, total))
    perm = rng.permutation(total)
    lists = [perm[:cut], perm[cut:]]
    chunks = [_leaf(rng, (len(idx), 3), dtype) for idx in lists]
    return (lambda: place_rows(chunks, lists, total)), chunks


def _case_detach(rng, dtype):
    a = _leaf(rng, (3, 4), dtype)
    a.name = "kept"
    out = a.detach()
    assert out.name == "kept" and out.data is a.data
    assert not out.requires_grad and out._parents == () and out._backward is None
    return (lambda: (a * 2.0).transpose().detach()), []  # cut off: no leaf to reach


LOCAL_CASES = {
    "reshape": _case_reshape,
    "transpose": _case_transpose,
    "getitem": _case_getitem,
    "concat": _case_concat,
    "gather_rows": _case_gather_rows,
    "embedding": _case_embedding,
    "place_rows": _case_place_rows,
    "Tensor.detach": _case_detach,
}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", sorted(LOCAL_CASES))
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=12, deadline=None)
def test_exact_ops_equal_the_rounded_construction(name, dtype, seed):
    rng = np.random.default_rng(seed)
    build, leaves = LOCAL_CASES[name](rng, dtype)
    _check_exact(rng, build, leaves)


def _comm_cases(comm, dtype, seed):
    """The call sites that need a communicator (the row exchange by both its
    call forms), on every rank of a world of 2."""
    rng = np.random.default_rng(seed)  # same stream on both ranks: counts line up
    for _ in range(4):
        counts = [int(c) for c in rng.integers(0, 4, size=comm.size)]
        x = _leaf(rng, (sum(counts), 3), dtype)
        for nonblocking in (False, True):
            _check_exact(
                rng,
                lambda: PendingAlltoallRows(x, counts, comm, None, nonblocking).wait()[0],
                [x],
            )
        y = _leaf(rng, (4, 3), dtype)
        _check_exact(rng, lambda: copy_to_tp_region(y, comm), [y])
    return True


COMM_CASES = {"PendingAlltoallRows.wait", "copy_to_tp_region"}


@pytest.mark.parametrize("dtype", DTYPES)
def test_exact_collective_ops_equal_the_rounded_construction(dtype):
    assert all(run_spmd(_comm_cases, 2, args=(dtype, 7), timeout=60).returns)


def test_every_exact_call_site_is_covered_above():
    """A new ``exact=`` claim in ``src/`` must come with a case here."""
    sites = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        text = path.read_text()
        if "exact=" not in text:
            continue
        tree = ast.parse(text)
        scopes = [(tree, "")]
        while scopes:
            scope, prefix = scopes.pop()
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, ast.ClassDef):
                    scopes.append((node, f"{node.name}."))
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if any(isinstance(call, ast.Call)
                           and any(kw.arg == "exact" for kw in call.keywords)
                           for call in ast.walk(node)):
                        sites.add(prefix + node.name)
    assert sites == set(LOCAL_CASES) | COMM_CASES


@pytest.mark.parametrize("dtype", ["fp16", "bf16"])
def test_narrow_outputs_keep_the_memory_order_rounding_gave(dtype):
    """Rounding also copied (fp16: the source's order, densely; bf16: C order).

    NumPy adds in memory order, so ``x[:, :200].sum()`` over a view with
    gaps differs in the last bits from the sum over that copy.
    """
    rng = np.random.default_rng(3)
    x = Tensor(quantize(rng.standard_normal((64, 256)), dtype), dtype=dtype)
    for moved, raw in ((x[:, :200], x.data[:, :200]), (x.transpose(), x.data.T),
                       (x.transpose()[:100], x.data.T[:100])):
        old = Tensor(raw, dtype=dtype)
        assert moved.data.strides == old.data.strides
        for axis in (None, 0, -1):
            assert moved.sum(axis=axis).data.tobytes() == old.sum(axis=axis).data.tobytes()


def test_init_still_rounds_and_computed_values_still_round():
    raw = np.array([1.0 + 2.0 ** -12, 70000.0, -0.0], dtype=np.float32)
    assert Tensor(raw, dtype="fp16").data.tobytes() == quantize(raw, "fp16").tobytes()
    a = Tensor(np.array([0.1, 0.2, 0.3]), dtype="fp16")
    for out in (a * a, T.where(np.array([True, False, True]), a * 3.0, a),
                T.clip(a, 0.15, 0.25), T.maximum(a, 0.25)):
        assert out.data.tobytes() == quantize(out.data, "fp16").tobytes()


# --------------------------------------------------------------------- #
# (b) _scatter_add against np.add.at
# --------------------------------------------------------------------- #

def _same_as_add_at(shape, index, rows, dtype=np.float32):
    want = np.zeros(shape, dtype=dtype)
    got = np.zeros(shape, dtype=dtype)
    want[...] = got[...] = 0.5  # a destination that is not all zeros
    with np.errstate(invalid="ignore"):
        np.add.at(want, index, rows)
        _scatter_add(got, index, rows)
    # Every bit but a NaN's sign: when both operands of an addition are NaN,
    # which one survives depends on the operand order of the compiled loop
    # (``add.at``'s and ``+=``'s differ); no other value can tell.
    want[np.isnan(want)] = got[np.isnan(got)] = np.nan
    assert got.tobytes() == want.tobytes()


def _rows(rng, shape, dtype):
    rows = (rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 5, size=shape)).astype(dtype)
    special = rng.random(shape) < 0.1
    rows[special] = rng.choice([-0.0, 0.0, np.inf, -np.inf, np.nan], size=int(special.sum()))
    return rows


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), m=st.integers(0, 60),
       tail=st.sampled_from([(), (3,), (2, 3)]), dtype=st.sampled_from([np.float32, np.float64]))
@settings(max_examples=150, deadline=None)
def test_scatter_add_integer_arrays(seed, n, m, tail, dtype):
    rng = np.random.default_rng(seed)
    # Few destinations and many rows: multiplicities up to 40 and beyond.
    index = rng.integers(-n, n, size=m) if rng.integers(2) else rng.integers(n, size=m)
    _same_as_add_at((n,) + tail, index, _rows(rng, (m,) + tail, dtype), dtype)


def test_scatter_add_integer_array_shapes():
    rng = np.random.default_rng(0)
    d = (4,)
    _same_as_add_at((5,) + d, np.zeros(0, dtype=np.int64), _rows(rng, (0,) + d, np.float32))
    _same_as_add_at((5,) + d, np.full(40, 3), _rows(rng, (40,) + d, np.float32))
    _same_as_add_at((9,) + d, rng.permutation(9), _rows(rng, (9,) + d, np.float32))
    _same_as_add_at((9,) + d, rng.permutation(9).astype(np.uint8), _rows(rng, (9,) + d, np.float32))
    _same_as_add_at((3,) + d, np.array([-1, 2, -3, 0, 2]), _rows(rng, (5,) + d, np.float32))
    ids = rng.integers(7, size=(3, 5))                      # embedding's (B, T) ids
    _same_as_add_at((7,) + d, ids, _rows(rng, ids.shape + d, np.float32))
    _same_as_add_at((7,) + d, np.array(2), _rows(rng, d, np.float32))
    _same_as_add_at((7,) + d, ids, np.float32(1.5))         # broadcast rows: left to add.at
    with pytest.raises(IndexError):
        _scatter_add(np.zeros((3, 2)), np.array([0, 3]), np.ones((2, 2)))


@pytest.mark.parametrize("index", [
    3, -1, np.int64(2), slice(1, 4), slice(None, None, 2), slice(None, None, -3),
    (slice(None), 1), (Ellipsis, slice(0, 2)), (None, 2), (1, Ellipsis, None, 0),
    (slice(4, 1, -1), slice(None), -2), True,
], ids=repr)
def test_scatter_add_basic_indices(index):
    rng = np.random.default_rng(1)
    shape = (6, 4, 3)
    _same_as_add_at(shape, index, _rows(rng, np.zeros(shape)[index].shape, np.float32))


def test_scatter_add_leaves_other_index_kinds_to_add_at():
    rng = np.random.default_rng(2)
    mask = rng.random((6, 4)) < 0.5
    _same_as_add_at((6, 4), mask, _rows(rng, (int(mask.sum()),), np.float32))
    pair = (np.array([0, 0, 5, 0]), np.array([1, 1, 3, 1]))
    _same_as_add_at((6, 4), pair, _rows(rng, (4,), np.float32))
    _same_as_add_at((6, 4), [1, 1, 2], _rows(rng, (3, 4), np.float32))
    _same_as_add_at((6, 4), (slice(None), np.array([0, 0, 3])), _rows(rng, (6, 3), np.float32))


# --------------------------------------------------------------------- #
# (c) optimizers against the allocate-everything update they replaced
# --------------------------------------------------------------------- #

class _OldAdam(Adam):
    def step(self, grad_scale: float = 1.0) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1**t
        bc2 = 1.0 - BETA2**t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad.astype(np.float32) * grad_scale
            master = self._masters.get(i, p.data).astype(np.float32)
            m = self._m.get(i)
            v = self._v.get(i)
            m = (1 - BETA1) * g if m is None else BETA1 * m + (1 - BETA1) * g
            v = (1 - BETA2) * g * g if v is None else BETA2 * v + (1 - BETA2) * g * g
            self._m[i], self._v[i] = m, v
            update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
            new_master = master - self.lr * update
            if i in self._masters:
                self._masters[i] = new_master
                p.data = quantize(new_master, p.dtype)
            else:
                p.data = new_master.astype(p.data.dtype, copy=False)


OPTIMIZERS = {
    "adam": (Adam, _OldAdam, dict(lr=1e-2)),
}


def _state_arrays(opt) -> dict:
    return {k: v for k, v in opt.state_dict().items() if isinstance(v, np.ndarray)}


@pytest.mark.parametrize("dtype", ["fp16", "fp32"])
@pytest.mark.parametrize("kind", sorted(OPTIMIZERS))
def test_optimizers_are_bit_identical_to_the_update_they_replaced(kind, dtype):
    new_cls, old_cls, kwargs = OPTIMIZERS[kind]
    rng = np.random.default_rng(5)
    init = [rng.standard_normal(shape) for shape in ((7, 5), (11,), (2, 3, 4))]
    sides = []
    for cls in (new_cls, old_cls):
        params = [Parameter(a, dtype=dtype) for a in init]
        sides.append((params, cls(params, **kwargs)))
    for step in range(20):
        scale = float(2.0 ** rng.integers(-12, 1))
        grads = [quantize(rng.standard_normal(a.shape) * 100.0, dtype) for a in init]
        for params, opt in sides:
            for i, (p, g) in enumerate(zip(params, grads)):
                # The last parameter joins late: its moments start at t = 4.
                p.grad = None if (i == 2 and step < 3) else g.copy()
            opt.step(grad_scale=scale)
        (new_params, new_opt), (old_params, old_opt) = sides
        for p, q in zip(new_params, old_params):
            assert p.data.tobytes() == q.data.tobytes()
            assert p.data.tobytes() == quantize(p.data, dtype).tobytes()
        new_state, old_state = _state_arrays(new_opt), _state_arrays(old_opt)
        assert new_state.keys() == old_state.keys()
        for key, value in new_state.items():
            assert value.tobytes() == old_state[key].tobytes(), (step, key)
            assert value.dtype == old_state[key].dtype
    assert (dtype == "fp16") == any(k.startswith("master.") for k in new_state)


@pytest.mark.parametrize("kind", ["adam"])
def test_state_dict_does_not_alias_the_state_updated_in_place(kind):
    cls, _, kwargs = OPTIMIZERS[kind]
    rng = np.random.default_rng(6)
    params = [Parameter(rng.standard_normal((4, 3)), dtype="fp16")]
    opt = cls(params, **kwargs)
    for _ in range(2):
        params[0].grad = quantize(rng.standard_normal((4, 3)), "fp16")
        opt.step()
    grad_before = params[0].grad.copy()
    saved = _state_arrays(opt)
    frozen = {k: v.copy() for k, v in saved.items()}
    for _ in range(3):
        opt.step()
    assert params[0].grad.tobytes() == grad_before.tobytes()
    live = _state_arrays(opt)
    for key, value in saved.items():
        assert value.tobytes() == frozen[key].tobytes()
        assert value.tobytes() != live[key].tobytes()


class _OldZeroAdamW(ZeroAdamW):
    """``ZeroAdamW.step`` as it was before it shared ``adam_update`` (PR 22)."""

    def step(self, grad_scale: float = 1.0) -> None:
        self.step_count += 1
        t = self.step_count
        chunks = [
            np.zeros(p.size, dtype=np.float32) if p.grad is None
            else p.grad.astype(np.float32).reshape(-1) * grad_scale
            for p in self.params
        ]
        g = np.concatenate(chunks)[self._lo: self._hi]
        self._m = BETA1 * self._m + (1 - BETA1) * g
        self._v = BETA2 * self._v + (1 - BETA2) * g * g
        bc1 = 1.0 - BETA1**t
        bc2 = 1.0 - BETA2**t
        update = (self._m / bc1) / (np.sqrt(self._v / bc2) + EPS)
        self._master = self._master - self.lr * update
        flat = np.concatenate(self.comm.allgather(self._master))
        offset = 0
        for p in self.params:
            p.data = quantize(flat[offset: offset + p.size].reshape(p.shape), p.dtype)
            offset += p.size


@pytest.mark.parametrize("dtype", ["fp16", "fp32"])
def test_zero_adamw_is_bit_identical_to_the_update_it_replaced(dtype):
    """Three ranks, uneven shards; gradients carry exact zeros of both signs
    (``m`` starts from zeros here, so a first ``-0`` gradient folds to ``+0`` —
    the one place the two Adams' first steps differ) and a late joiner."""
    def program(comm):
        rng = np.random.default_rng(5)
        init = [rng.standard_normal(shape) for shape in ((7, 5), (11,), (2, 3, 4))]
        sides = []
        for cls in (ZeroAdamW, _OldZeroAdamW):
            params = [Parameter(a, dtype=dtype) for a in init]
            sides.append((params, cls(params, comm, lr=1e-2)))
        for step in range(12):
            scale = float(2.0 ** rng.integers(-12, 1))
            grads = [quantize(rng.standard_normal(a.shape) * 100.0, dtype) for a in init]
            grads[0][0, :3] = (0.0, -0.0, 0.0)
            grads[1][::2] = -0.0
            for params, opt in sides:
                for i, (p, g) in enumerate(zip(params, grads)):
                    p.grad = None if (i == 2 and step < 3) else g.copy()
                opt.step(grad_scale=scale)
            (new_params, new_opt), (old_params, old_opt) = sides
            for p, q in zip(new_params, old_params):
                assert p.data.tobytes() == q.data.tobytes()
            new_state, old_state = _state_arrays(new_opt), _state_arrays(old_opt)
            assert new_state.keys() == old_state.keys() == {"master", "m", "v"}
            for key, value in new_state.items():
                assert value.tobytes() == old_state[key].tobytes(), (step, key)
                assert value.dtype == old_state[key].dtype
        return True

    assert all(run_spmd(program, 3).returns)


# --------------------------------------------------------------------- #
# The invariant ``exact`` relies on: parameter loaders round what they load
# --------------------------------------------------------------------- #

def _off_grid(state: dict) -> dict:
    return {k: (np.asarray(v) * (1.0 + 2.0 ** -14)).astype(np.float32) for k, v in state.items()}


def test_load_state_dict_rounds_onto_the_parameter_grid():
    cfg = tiny_config(num_experts=2)
    state = _off_grid(MoELanguageModel(cfg, seed=1).state_dict())
    model = cast_model(MoELanguageModel(cfg, seed=2), "fp16")
    model.load_state_dict(state)
    changed = 0
    for name, p in model.named_parameters():
        assert p.data.tobytes() == quantize(state[name], "fp16").tobytes(), name
        assert not np.shares_memory(p.data, state[name])
        changed += p.data.tobytes() != state[name].tobytes()
    assert changed  # the fp32 values were not on the fp16 grid to begin with
    fp32 = MoELanguageModel(cfg, seed=3)
    fp32.load_state_dict(state)
    for name, p in fp32.named_parameters():
        assert p.data.tobytes() == state[name].tobytes()
        assert not np.shares_memory(p.data, state[name])


def test_load_distributed_rounds_dense_and_expert_parameters(tmp_path):
    cfg = tiny_config(num_experts=4)

    def program(comm):
        groups = build_groups(comm, ParallelLayout(comm.size, 2))
        source = build_moda_model(cfg, groups, seed=3)
        for p in source.parameters():
            p.data = (p.data * (1.0 + 2.0 ** -14)).astype(np.float32)  # off the fp16 grid
        save_distributed(tmp_path / "ckpt", source, groups, step=0)
        model = cast_model(build_moda_model(cfg, groups, seed=4), "fp16")
        load_distributed(tmp_path / "ckpt", model)
        want = dict(source.named_parameters())
        rounded = set()  # which restore path met values off the grid
        for name, p in model.named_parameters():
            assert p.data.tobytes() == quantize(want[name].data, "fp16").tobytes(), name
            if p.data.tobytes() != want[name].data.tobytes():
                rounded.add("expert" if p.is_expert else "dense")
        return rounded

    assert run_spmd(program, 2, timeout=120).returns == [{"dense", "expert"}] * 2
