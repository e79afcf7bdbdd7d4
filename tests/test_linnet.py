"""Layer stacks: shapes, products, gradients, and the structured initializers."""

import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovflow.cost import QuadraticMatrixCost, parse_scalar_cost
from ovflow.linnet import (
    DegenerateWidthWarning,
    LayerStack,
    NetShape,
    balanced_init,
    flow_field,
    layer_gradients,
    layer_shapes,
    pack,
    product,
    random_init,
    read_stack_csv,
    rescale_pair,
    unpacker,
    write_stack_csv,
)

from _oracles import fd_layer_gradients, rel_err


def test_layer_shapes_sandwich():
    # k x n up front, k x k in the middle, n x k on top
    assert layer_shapes(NetShape(n=2, k=3, depth=4)) == [(3, 2), (3, 3), (3, 3), (2, 3)]
    assert layer_shapes(NetShape(n=2, k=3, depth=2)) == [(3, 2), (2, 3)]
    assert layer_shapes(NetShape(n=2, k=2, depth=1)) == [(2, 2)]


def test_shape_validation():
    with pytest.raises(ValueError):
        NetShape(n=0, k=1, depth=2)
    with pytest.raises(ValueError):
        NetShape(n=2, k=1, depth=3)  # hidden width below n
    with pytest.raises(ValueError):
        NetShape(n=2, k=3, depth=1)  # depth 1 must have k = n
    with pytest.raises(ValueError):
        NetShape(n=2, k=2, depth=0)


def test_width_equal_n_warns():
    with pytest.warns(DegenerateWidthWarning):
        NetShape(n=2, k=2, depth=2)


def test_stack_layers_are_defensive_copies():
    raw = [np.ones((3, 2)), np.ones((2, 3))]
    stack = LayerStack.from_layers(raw)
    raw[0][0, 0] = 99.0
    assert stack.layers[0][0, 0] == 1.0
    with pytest.raises(ValueError):
        stack.layers[0][0, 0] = 5.0  # read-only views


def test_stack_rejects_wrong_shapes_and_nonfinite():
    shape = NetShape(n=1, k=2, depth=2)
    with pytest.raises(ValueError):
        LayerStack(shape, (np.ones((2, 2)), np.ones((1, 2))))
    with pytest.raises(ValueError):
        LayerStack(shape, (np.array([[np.nan], [0.0]]), np.ones((1, 2))))
    with pytest.raises(ValueError):
        LayerStack.from_layers([])


def test_product_folds_right_to_left():
    w1 = np.array([[1.0], [2.0]])
    w2 = np.array([[3.0, 4.0]])
    stack = LayerStack.from_layers([w1, w2])
    np.testing.assert_allclose(product(stack.layers), [[11.0]])  # 3*1 + 4*2


def test_depth_one_product_is_the_layer():
    stack = LayerStack(NetShape(1, 1, 1), (np.array([[7.0]]),))
    np.testing.assert_allclose(product(stack.layers), [[7.0]])


def test_layer_gradients_match_fd_fixed_cases():
    cost = QuadraticMatrixCost(np.array([[2.0, -1.0], [0.5, 1.0]]))
    rng = np.random.default_rng(7)
    for depth in range(1, 7):
        shape = NetShape(n=2, k=2 if depth == 1 else 4, depth=depth)
        layers = [rng.normal(0.0, 0.6, s) for s in layer_shapes(shape)]
        stack = LayerStack.from_layers(layers)
        grads = layer_gradients(stack.layers, cost)
        want = fd_layer_gradients(list(stack.layers), cost)
        for got, ref in zip(grads, want):
            assert rel_err(got, ref) < 1e-6


@settings(max_examples=25, deadline=None)
@given(
    depth=st.integers(2, 6),
    n=st.integers(1, 3),
    extra=st.integers(1, 3),
    seed=st.integers(0, 10_000),
)
def test_layer_gradients_match_fd_property(depth, n, extra, seed):
    shape = NetShape(n=n, k=n + extra, depth=depth)
    cost = QuadraticMatrixCost(np.eye(n) + 0.1)
    rng = np.random.default_rng(seed)
    stack = LayerStack.from_layers([rng.normal(0.0, 0.5, s) for s in layer_shapes(shape)])
    grads = layer_gradients(stack.layers, cost)
    want = fd_layer_gradients(list(stack.layers), cost)
    for got, ref in zip(grads, want):
        assert rel_err(got, ref) < 1e-6


def test_balanced_init_hits_target_with_zero_invariants():
    target = np.array([[2.0, 1.0], [0.0, 1.0]])
    for depth in (2, 3, 4):
        stack = balanced_init(target, NetShape(n=2, k=5, depth=depth), seed=3)
        np.testing.assert_allclose(product(stack.layers), target, atol=1e-12)
        for lower, upper in zip(stack.layers, stack.layers[1:]):
            C = lower @ lower.T - upper.T @ upper
            assert np.abs(C).max() < 1e-12


def test_balanced_init_depth_one_returns_target():
    target = np.array([[3.0]])
    stack = balanced_init(target, NetShape(n=1, k=1, depth=1))
    np.testing.assert_allclose(product(stack.layers), target)


def test_balanced_init_rejects_rank_deficient_target():
    with pytest.raises(ValueError):
        balanced_init(np.array([[1.0, 0.0], [0.0, 0.0]]), NetShape(n=2, k=3, depth=2))


def test_balanced_init_is_seeded():
    target = np.array([[2.0, 1.0], [0.0, 1.0]])
    shape = NetShape(n=2, k=4, depth=3)
    a = balanced_init(target, shape, seed=11)
    b = balanced_init(target, shape, seed=11)
    c = balanced_init(target, shape, seed=12)
    for x, y in zip(a.layers, b.layers):
        np.testing.assert_array_equal(x, y)
    assert any(not np.array_equal(x, y) for x, y in zip(a.layers, c.layers))


def test_random_init_reproducible_and_scaled():
    shape = NetShape(n=2, k=3, depth=3)
    a = random_init(shape, seed=5, scale=0.5)
    b = random_init(shape, seed=5, scale=0.5)
    for x, y in zip(a.layers, b.layers):
        np.testing.assert_array_equal(x, y)
    wide = random_init(shape, seed=5, scale=5.0)
    assert np.abs(wide.layers[0]).max() > np.abs(a.layers[0]).max()
    with pytest.raises(ValueError):
        random_init(shape, seed=5, scale=0.0)


@settings(max_examples=20, deadline=None)
@given(eta=st.floats(0.1, 10.0), seed=st.integers(0, 1000))
def test_rescale_pair_preserves_product(eta, seed):
    target = np.array([[1.5, 0.2], [-0.3, 1.0]])
    stack = balanced_init(target, NetShape(n=2, k=4, depth=3), seed=seed)
    for i in (1, 2):
        scaled = rescale_pair(stack, i, eta)
        np.testing.assert_allclose(product(scaled.layers), product(stack.layers), atol=1e-10)


def test_rescale_pair_changes_one_invariant():
    target = np.array([[2.0]])
    stack = balanced_init(target, NetShape(n=1, k=3, depth=2), seed=0)
    scaled = rescale_pair(stack, 1, 2.0)
    C = scaled.layers[0] @ scaled.layers[0].T - scaled.layers[1].T @ scaled.layers[1]
    assert np.abs(C).max() > 0.1


def test_rescale_pair_validation():
    stack = balanced_init(np.array([[2.0]]), NetShape(n=1, k=2, depth=2), seed=0)
    with pytest.raises(ValueError):
        rescale_pair(stack, 0, 2.0)
    with pytest.raises(ValueError):
        rescale_pair(stack, 2, 2.0)  # only depth - 1 interfaces
    with pytest.raises(ValueError):
        rescale_pair(stack, 1, 0.0)


def test_stack_csv_round_trip_is_exact(tmp_path):
    stack = random_init(NetShape(n=2, k=3, depth=3), seed=9, scale=1.0)
    path = tmp_path / "stack.csv"
    write_stack_csv(stack, str(path))
    back = read_stack_csv(str(path))
    assert back.shape == stack.shape
    for x, y in zip(back.layers, stack.layers):
        np.testing.assert_array_equal(x, y)  # 17 significant digits round-trip


@pytest.mark.parametrize(
    "rows, message",
    [
        (["1,0,0,0.5", "1,0,1"], "line 3 has 3 fields"),
        (["1,0,0,0.5", "1,0,0,0.7"], r"repeats layer 1 cell \(0, 0\)"),
        (["1,0,0,0.5", "1,1,1,0.7"], r"missing layer 1 cell \(0, 1\)"),
        (["1,0,0,0.5", "1,-1,0,0.7"], r"layer 1 cell \(-1, 0\) has an index out of range"),
    ],
    ids=["short_row", "repeated_cell", "missing_cell", "negative_index"],
)
def test_stack_csv_rejects_malformed_cells(tmp_path, rows, message):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(["layer,row,col,value", *rows]) + "\n")
    with pytest.raises(ValueError, match=message):
        read_stack_csv(str(path))


def test_scalar_cost_drives_gradients_too():
    cost = parse_scalar_cost("(1 - w)^2").as_matrix()
    stack = LayerStack.from_layers([np.array([[0.3], [0.4]]), np.array([[0.5, -0.2]])])
    grads = layer_gradients(stack.layers, cost)
    want = fd_layer_gradients(list(stack.layers), cost)
    for got, ref in zip(grads, want):
        assert rel_err(got, ref) < 1e-6


def test_flow_field_rows_match_the_batch_bit_for_bit():
    # one flow's 2-D layers and a batch's (B, r, c) stacks take different
    # product routines; every row must still round exactly as the batch does
    rng = np.random.default_rng(8)
    scalar = parse_scalar_cost("w^4 - 3 * w^2 + w").as_matrix()
    for depth in range(1, 6):
        for n in range(1, 4):
            for k in [n] if depth == 1 else range(n, n + 4):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DegenerateWidthWarning)
                    shape = NetShape(n=n, k=k, depth=depth)
                quadratic = QuadraticMatrixCost(np.eye(n) + 0.3 * rng.standard_normal((n, n)))
                for cost in [quadratic, scalar] if n == 1 else [quadratic]:
                    field = flow_field(shape, cost)
                    Y = rng.standard_normal((20, sum(r * c for r, c in layer_shapes(shape))))
                    batch, row = np.empty_like(Y), np.empty(Y.shape[1])
                    field(Y, batch)
                    for i in range(len(Y)):
                        field(Y[i], row)
                        assert row.tobytes() == batch[i].tobytes(), (shape, cost, i)


def _every_shape():
    """Every depth 1-5, n 1-3, k n..n+3 shape (depth 1 only has k = n)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateWidthWarning)
        return [NetShape(n=n, k=k, depth=depth)
                for depth in range(1, 6) for n in range(1, 4) for k in ([n] if depth == 1 else range(n, n + 4))]


def test_flow_field_writes_the_packed_field_bit_for_bit():
    # the in-place field must give -pack(layer_gradients(unpack(y))) exactly;
    # row 0 is the zero stack, whose field has signed zeros, so compare bytes
    rng = np.random.default_rng(12)
    for shape in _every_shape():
        cost = QuadraticMatrixCost(np.eye(shape.n) + 0.3 * rng.standard_normal((shape.n, shape.n)))
        field, unpack = flow_field(shape, cost), unpacker(shape)
        Y = rng.standard_normal((6, sum(r * c for r, c in layer_shapes(shape))))
        Y[0] = 0.0
        out = np.empty_like(Y)
        for _ in range(2):  # the second call reuses the bound views
            field(Y, out)
            assert out.tobytes() == (-pack(layer_gradients(unpack(Y), cost))).tobytes(), shape
        row = np.empty(Y.shape[1])
        for y in Y:
            field(y, row)
            assert row.tobytes() == (-pack(layer_gradients(unpack(y), cost))).tobytes(), shape


def test_flow_field_binds_a_chain_per_pair_of_arrays():
    # a chain is bound per (y, out) pair, and y's chains share its work
    # arrays: a new y into a used out, and a used y into new outs (which past
    # the binding limit drop y's own binding), must each give the field at y
    rng = np.random.default_rng(21)
    scalar = parse_scalar_cost("w^4 - 3 * w^2 + w").as_matrix()
    for depth in range(1, 5):
        for n in (1, 2):
            shape = NetShape(n=n, k=n if depth == 1 else n + 1, depth=depth)
            quadratic = QuadraticMatrixCost(np.eye(n) + 0.3 * rng.standard_normal((n, n)))
            for cost in [quadratic, scalar] if n == 1 else [quadratic]:
                field, unpack = flow_field(shape, cost), unpacker(shape)
                dim = sum(r * c for r, c in layer_shapes(shape))
                for lead in [(), (3,)]:
                    def check(y, out):
                        field(y, out)
                        assert out.tobytes() == (-pack(layer_gradients(unpack(y), cost))).tobytes(), (shape, lead)

                    y, out = rng.standard_normal(lead + (dim,)), np.empty(lead + (dim,))
                    check(y, out)
                    for _ in range(3):
                        check(rng.standard_normal(lead + (dim,)), out)
                    for _ in range(30):
                        check(y, np.empty(lead + (dim,)))
                    check(y, out)


def test_flow_field_reads_a_rewritten_buffer_afresh():
    shape = NetShape(n=2, k=3, depth=3)
    cost = QuadraticMatrixCost(np.eye(2))
    field = flow_field(shape, cost)
    first = pack(random_init(shape, seed=1, scale=0.5).layers)
    second = pack(random_init(shape, seed=2, scale=0.5).layers)
    y, out, want = np.empty_like(first), np.empty_like(first), np.empty_like(first)
    y[:] = first
    field(y, out)
    y[:] = second
    field(y, out)
    field(second.copy(), want)
    assert out.tobytes() == want.tobytes()
    field(first.copy(), want)
    assert out.tobytes() != want.tobytes()


def test_flow_field_keeps_few_fresh_arrays_alive():
    shape = NetShape(n=2, k=4, depth=2)
    field = flow_field(shape, QuadraticMatrixCost(np.eye(2)))
    rng = np.random.default_rng(3)
    refs = []
    for _ in range(100):
        y, out = rng.standard_normal(16), np.empty(16)
        field(y, out)
        refs += [weakref.ref(y), weakref.ref(out)]
        del y, out
    alive = sum(ref() is not None for ref in refs)
    assert alive <= 24  # the binding keeps at most 24 arrays
