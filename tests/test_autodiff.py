"""Tests for the reverse-mode tensor engine.

The oracles live at the top of this file and are deliberately naive:
a six-nested-loop convolution and its gradients, and a central
finite-difference gradient, all independent of the engine's vectorized
paths.  Beside them sits an NCHW im2col conv2d, the arithmetic conv2d
must reproduce bit for bit.
"""

import contextlib
import itertools

import numpy as np
import pytest

from edue import autodiff as ad
from edue import model as model_module
from edue.autodiff import (
    Adam,
    ShapeError,
    Tape,
    Tensor,
    add,
    bce_loss,
    channel_norm,
    concat_channels,
    conv2d,
    mean_all,
    relu,
    scale,
    sigmoid,
    sqrt,
    square,
    stack_first,
    sub,
    upsample_nearest,
    variance_along_first_axis,
)
from edue.config import preset


# ---------------------------------------------------------------------------
# oracles


def naive_conv2d(x, w, b, stride=1, padding=0):
    """Six nested loops, no vectorization; the reference for conv2d."""
    bsz, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((bsz, cout, ho, wo), dtype=np.float64)
    for n in range(bsz):
        for o in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for c in range(cin):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[n, c, i * stride + u, j * stride + v] * w[o, c, u, v]
                    out[n, o, i, j] = acc + b[o]
    return out


def naive_conv2d_grads(x, w, g, stride=1, padding=0):
    """Loop gradients of naive_conv2d given the output gradient g, in
    float64: (dx, dw, db)."""
    x, w, g = (np.asarray(a, dtype=np.float64) for a in (x, w, g))
    bsz, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    db = np.zeros(cout)
    for n in range(bsz):
        for o in range(cout):
            for i in range(g.shape[2]):
                for j in range(g.shape[3]):
                    gij = g[n, o, i, j]
                    db[o] += gij
                    for c in range(cin):
                        for u in range(kh):
                            for v in range(kw):
                                dw[o, c, u, v] += gij * xp[n, c, i * stride + u, j * stride + v]
                                dxp[n, c, i * stride + u, j * stride + v] += gij * w[o, c, u, v]
    return dxp[:, :, padding:padding + h, padding:padding + wd], dw, db


def nchw_im2col_conv2d(x, w, b, g, stride, padding):
    """conv2d's arithmetic as an NCHW unrolling: an as_strided window
    gather and a per-tap scatter of dx.  Returns (out, dx, dw, db) for
    output gradient g, each gradient accumulated onto zeros the way the
    engine accumulates onto a fresh grad buffer."""
    bsz, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    sb, sc, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, (bsz, cin, ho, wo, kh, kw), (sb, sc, sh * stride, sw * stride, sh, sw))
    cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5)).reshape(bsz * ho * wo, cin * kh * kw)
    w2 = w.reshape(cout, cin * kh * kw)
    out = (cols @ w2.T + b).reshape(bsz, ho, wo, cout).transpose(0, 3, 1, 2)
    g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(bsz * ho * wo, cout)
    db = np.zeros_like(b)
    db += g2.sum(axis=0)
    dw = np.zeros_like(w)
    dw += (g2.T @ cols).reshape(w.shape)
    dcols = (g2 @ w2).reshape(bsz, ho, wo, cin, kh, kw)
    dxp = np.zeros_like(xp)
    for u in range(kh):
        for v in range(kw):
            dxp[:, :, u:u + stride * ho:stride, v:v + stride * wo:stride] += \
                dcols[:, :, :, :, u, v].transpose(0, 3, 1, 2)
    dx = np.zeros_like(x)
    dx += dxp[:, :, padding:padding + h, padding:padding + wd]
    return np.ascontiguousarray(out), dx, dw, db


def engine_conv2d(x, w, b, g, stride, padding):
    """conv2d's output and the gradients its backward rule gives for
    output gradient g, at the engine's current default dtype."""
    leaves = [Tensor(a, requires_grad=True) for a in (x, w, b)]
    with Tape() as tape:
        out = conv2d(*leaves, stride=stride, padding=padding)
    (_, backward), = tape.records
    backward(np.asarray(g, dtype=out.data.dtype))
    return (out.data,) + tuple(leaf.grad for leaf in leaves)


def numerical_grad(f, arrays, h):
    """Central finite differences of scalar f with respect to each array."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr, dtype=np.float64)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def rel_err(analytic, numeric):
    return np.max(np.abs(analytic - numeric)) / max(np.max(np.abs(numeric)), 1e-8)


@contextlib.contextmanager
def dtype64():
    ad.set_default_dtype(np.float64)
    try:
        yield
    finally:
        ad.set_default_dtype(np.float32)


def check_gradients(build_loss, leaves, h, tol):
    """Compare tape gradients of build_loss() against finite differences.

    build_loss must construct the graph from the leaves' current data and
    return the scalar loss Tensor; leaves are requires_grad Tensors.
    """
    with Tape() as tape:
        loss = build_loss()
        tape.backward(loss)
    analytic = [leaf.grad.copy() for leaf in leaves]

    def f():
        return float(build_loss().data)

    numeric = numerical_grad(f, [leaf.data for leaf in leaves], h)
    for a, n in zip(analytic, numeric):
        assert rel_err(a, n) < tol, f"gradient mismatch: rel err {rel_err(a, n):.3e}"


def projected_loss(out, projector):
    """Scalar with non-uniform dependence on every output element."""
    return mean_all(square(add(out, projector)))


# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(0)
    x = Tensor(rng.random((2, 3, 5, 5)))
    w = Tensor(np.ones((3, 3, 1, 1)) * np.eye(3)[:, :, None, None])
    b = Tensor(np.zeros(3))
    out = conv2d(x, w, b, stride=1, padding=0)
    np.testing.assert_allclose(out.data, x.data, rtol=1e-6)


def test_conv2d_box_sum_interior():
    c = 0.7
    x = Tensor(np.full((1, 1, 6, 6), c))
    w = Tensor(np.ones((1, 1, 3, 3)))
    b = Tensor(np.zeros(1))
    out = conv2d(x, w, b, stride=1, padding=1)
    assert out.data.shape == (1, 1, 6, 6)
    np.testing.assert_allclose(out.data[0, 0, 1:-1, 1:-1], 9 * c, rtol=1e-5)


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
def test_conv2d_matches_naive_loops(stride, padding):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 3, 6, 7)).astype(np.float32)
    w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    out = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
    ref = naive_conv2d(x.astype(np.float64), w.astype(np.float64), b.astype(np.float64),
                       stride=stride, padding=padding)
    np.testing.assert_allclose(out.data, ref, atol=1e-5)


@pytest.mark.parametrize("stride,padding,k", [(1, 0, 3), (1, 1, 3), (2, 1, 3), (1, 0, 1)])
def test_conv2d_gradients_match_naive_loops(stride, padding, k):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 3, 6, 7))
    w = rng.standard_normal((4, 3, k, k))
    b = rng.standard_normal(4)
    ho = (6 + 2 * padding - k) // stride + 1
    wo = (7 + 2 * padding - k) // stride + 1
    g = rng.standard_normal((2, 4, ho, wo))
    with dtype64():
        _, dx, dw, db = engine_conv2d(x, w, b, g, stride, padding)
    for got, ref in zip((dx, dw, db), naive_conv2d_grads(x, w, g, stride, padding)):
        np.testing.assert_allclose(got, ref, atol=1e-5)


def _assert_conv2d_matches_nchw_im2col(rng, x_shape, w_shape, stride, padding, dtype,
                                       monkeypatch, block_rows=(None,)):
    """conv2d equals the NCHW unrolling bit for bit, with its default row
    blocks and with blocks of each of block_rows output rows."""
    x = rng.standard_normal(x_shape).astype(dtype)
    w = rng.standard_normal(w_shape).astype(dtype)
    b = rng.standard_normal(w_shape[0]).astype(dtype)
    ho, wo = ((n + 2 * padding - w_shape[2]) // stride + 1 for n in x_shape[2:])
    g = rng.standard_normal((x_shape[0], w_shape[0], ho, wo)).astype(dtype)
    expected = nchw_im2col_conv2d(x, w, b, g, stride, padding)
    row_bytes = x_shape[0] * wo * int(np.prod(w_shape[1:])) * np.dtype(dtype).itemsize
    for rows in block_rows:
        monkeypatch.setattr(ad, "_BLOCK_BYTES", rows * row_bytes if rows else 1 << 20)
        with dtype64() if dtype == np.float64 else contextlib.nullcontext():
            got = engine_conv2d(x, w, b, g, stride, padding)
        case = (f"x {x_shape}, kernel {w_shape}, stride {stride}, padding {padding}, "
                f"{np.dtype(dtype)}, block rows {rows or 'default'}")
        for name, a, e in zip(("out", "x.grad", "kernel.grad", "bias.grad"), got, expected):
            assert a.dtype == e.dtype and np.array_equal(a, e), f"{name} differs for {case}"


@pytest.mark.parametrize("dtype,k,stride,padding",
                         list(itertools.product((np.float32, np.float64), (1, 3, 4), (1, 2), (0, 1))))
def test_conv2d_bit_identical_to_nchw_im2col(dtype, k, stride, padding, monkeypatch):
    """The channels-last gather and scatter must add the same terms in the
    same order as the NCHW unrolling, however the rows are blocked: equal
    bits, not a tolerance."""
    rng = np.random.default_rng(5)
    for bsz, cin, size in itertools.product((1, 3), (1, 3, 16), ((7, 6), (8, 8))):
        _assert_conv2d_matches_nchw_im2col(rng, (bsz, cin, *size), (4, cin, k, k),
                                           stride, padding, dtype, monkeypatch,
                                           block_rows=(None, 1, 2, 3))


@pytest.mark.parametrize("build", [model_module.build_model, model_module.build_single_head_model])
def test_conv2d_bit_identical_on_desk_forward_shapes(build, monkeypatch):
    model = build(preset("desk").model_config())
    cfg = model.config
    shapes = []
    real_conv2d = ad.conv2d

    def recording_conv2d(x, kernel, bias, stride=1, padding=0):
        shapes.append((x.data.shape, kernel.data.shape, stride, padding))
        return real_conv2d(x, kernel, bias, stride=stride, padding=padding)

    monkeypatch.setattr(ad, "conv2d", recording_conv2d)
    model_module.forward(model, Tensor(np.zeros((8, cfg.in_channels, *cfg.input_size))))
    monkeypatch.undo()
    assert {stride for _, _, stride, _ in shapes} == {1, 2}
    rng = np.random.default_rng(6)
    for x_shape, w_shape, stride, padding in shapes:
        _assert_conv2d_matches_nchw_im2col(rng, x_shape, w_shape, stride, padding, np.float32,
                                           monkeypatch)


def test_conv2d_gradients_fd_32bit():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((2, 2, 4, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.5, requires_grad=True)
    b = Tensor(rng.standard_normal(3) * 0.1, requires_grad=True)
    proj = Tensor(rng.standard_normal((2, 3, 4, 4)))
    check_gradients(lambda: projected_loss(conv2d(x, w, b, stride=1, padding=1), proj),
                    [x, w, b], h=1e-3, tol=1e-2)


def test_conv2d_gradients_fd_64bit():
    with dtype64():
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((2, 2, 4, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.5, requires_grad=True)
        b = Tensor(rng.standard_normal(3) * 0.1, requires_grad=True)
        proj = Tensor(rng.standard_normal((2, 3, 2, 2)))
        check_gradients(lambda: projected_loss(conv2d(x, w, b, stride=2, padding=1), proj),
                        [x, w, b], h=1e-5, tol=1e-5)


def test_conv2d_shape_mismatch_names_both_shapes():
    x = Tensor(np.zeros((1, 2, 4, 4)))
    w = Tensor(np.zeros((3, 5, 3, 3)))
    b = Tensor(np.zeros(3))
    with pytest.raises(ShapeError) as exc:
        conv2d(x, w, b)
    assert "(1, 2, 4, 4)" in str(exc.value) and "(3, 5, 3, 3)" in str(exc.value)


def test_conv2d_kernel_too_large():
    with pytest.raises(ShapeError):
        conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))), Tensor(np.zeros(1)))


# ---------------------------------------------------------------------------
# the forward-only workspace


def _conv2d_grid(rng, dtype):
    """(x, kernel, bias, stride, padding) over the bit-identity test's grid;
    consecutive cases grow and shrink, so a reused buffer holds stale columns."""
    cases = []
    for k, stride, padding, bsz, cin, size in itertools.product(
            (1, 3, 4), (1, 2), (0, 1), (1, 3), (1, 3, 16), ((7, 6), (8, 8))):
        cases.append((rng.standard_normal((bsz, cin, *size)).astype(dtype),
                      rng.standard_normal((4, cin, k, k)).astype(dtype),
                      rng.standard_normal(4).astype(dtype), stride, padding))
    return cases


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv2d_bit_identical_in_a_workspace(dtype):
    cases = _conv2d_grid(np.random.default_rng(12), dtype)
    with dtype64() if dtype == np.float64 else contextlib.nullcontext():
        def run(ws=None):
            """Each case's output, and the workspace's buffer after it."""
            return [(conv2d(Tensor(x), Tensor(w), Tensor(b), stride=s, padding=p).data,
                     ws.buffer if ws else None) for x, w, b, s, p in cases]
        expected = run()
        with ad.Workspace() as ws:
            assert ad.Workspace.active() is ws
            got = run(ws)
    assert ws.buffer.size == 0 and ad.Workspace.active() is None
    held = [buf for _, buf in got]
    assert all(buf.dtype == dtype for buf in held)
    for (x, w, _, s, p), (a, _), (e, _) in zip(cases, got, expected):
        case = f"x {x.shape}, kernel {w.shape}, stride {s}, padding {p}"
        assert a.dtype == e.dtype and np.array_equal(a, e), case
        assert not any(np.shares_memory(a, buf) for buf in held), case


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv2d_under_a_tape_leaves_the_workspace_alone(dtype):
    rng = np.random.default_rng(13)
    for x, w, b, s, p in _conv2d_grid(rng, dtype)[::7]:
        ho, wo = ((n + 2 * p - w.shape[2]) // s + 1 for n in x.shape[2:])
        g = rng.standard_normal((x.shape[0], 4, ho, wo)).astype(dtype)
        with dtype64() if dtype == np.float64 else contextlib.nullcontext():
            expected = engine_conv2d(x, w, b, g, s, p)
            with ad.Workspace() as ws:
                got = engine_conv2d(x, w, b, g, s, p)
                assert ws.buffer.size == 0
        for name, a, e in zip(("out", "x.grad", "kernel.grad", "bias.grad"), got, expected):
            assert np.array_equal(a, e), name


def test_workspace_buffer_grows_and_is_reused():
    """conv2d regrows the one buffer only when it is too small or of
    another dtype; otherwise the next call reuses it."""
    rng = np.random.default_rng(14)

    def conv_args(bsz, side):
        return (Tensor(rng.standard_normal((bsz, 2, side, side))),
                Tensor(rng.standard_normal((3, 2, 3, 3))), Tensor(rng.standard_normal(3)))

    small, big = conv_args(1, 6), conv_args(2, 8)
    with dtype64():
        wide = conv_args(1, 6)
    with ad.Workspace() as ws:
        conv2d(*small)
        first = ws.buffer
        conv2d(*big)
        grown = ws.buffer
        conv2d(*small)
        assert ws.buffer is grown
        conv2d(*wide)
        regrown = ws.buffer
    # column counts: batch * rows * cols of the output, times 2 * 3 * 3
    assert first.dtype == grown.dtype == np.float32
    assert (first.size, grown.size) == (1 * 4 * 4 * 18, 2 * 6 * 6 * 18)
    assert regrown.dtype == np.float64 and regrown.size == 1 * 4 * 4 * 18
    assert ws.buffer.size == 0


@pytest.mark.parametrize("context", [ad.Workspace, Tape])
def test_a_second_active_context_fails(context):
    """One tape and one workspace at a time: entering a second of either
    inside the first fails, and leaves the first active."""
    with context() as first:
        with pytest.raises(AssertionError, match="already"):
            with context():
                pass
        assert context.active() is first
    assert context.active() is None


# ---------------------------------------------------------------------------
# pointwise ops


def test_relu_values_and_simple_gradient():
    x = Tensor(np.array([-1.0, 0.0, 2.0]).reshape(1, 1, 1, 3), requires_grad=True)
    with Tape() as tape:
        out = relu(x)
        np.testing.assert_array_equal(out.data.ravel(), [0.0, 0.0, 2.0])
        tape.backward(mean_all(out))
    # gradient of sum is 3x the gradient of mean over 3 elements
    np.testing.assert_allclose(x.grad.ravel() * 3.0, [0.0, 0.0, 1.0])


def test_relu_gradient_fd():
    rng = np.random.default_rng(4)
    data = rng.standard_normal((2, 3, 4, 4))
    data[np.abs(data) < 2e-2] = 0.5  # keep fd away from the kink
    x = Tensor(data, requires_grad=True)
    proj = Tensor(rng.standard_normal((2, 3, 4, 4)))
    # the composed loss is piecewise quadratic, so central differences are
    # exact away from the kink and a wide step drowns float32 rounding
    check_gradients(lambda: projected_loss(relu(x), proj), [x], h=1e-2, tol=1e-3)


def relu_reference(x):
    """relu's earlier formula, which the engine must match bit for bit."""
    return np.where(x > 0, x, 0.0).astype(x.dtype)


def sigmoid_reference(x):
    """sigmoid's earlier formula, which the engine must match bit for bit."""
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x)))).astype(x.dtype)


def engine_pointwise(op, x, g):
    """op's output and the input gradient its backward gives for g,
    accumulated into a zeroed buffer."""
    leaf = Tensor(x, requires_grad=True)
    with Tape() as tape:
        out = op(leaf)
    (_, backward), = tape.records
    backward(g)
    return out.data, leaf.grad


def bits(a):
    return a.view(np.int32 if a.dtype == np.float32 else np.int64)


@pytest.mark.parametrize("dtype, tiny", [(np.float32, 1e-45), (np.float64, 5e-324)])
def test_relu_bit_identical_to_where_formula(dtype, tiny):
    special = np.array([np.nan, -np.nan, np.copysign(np.nan, -1.0), 0.0, -0.0,
                        np.inf, -np.inf, 1e-45, -1e-45, tiny, -tiny, 1.0, -1.0])
    rng = np.random.default_rng(40)
    # short arrays put each special value in the vector loop's scalar tail too
    cases = [np.resize(np.roll(special, k), n)
             for n in (1, 2, 3, 5, 7, 9, 13, 17, 31) for k in range(special.size)]
    cases.append(np.concatenate([special, rng.standard_normal(4096 - special.size)]))
    for x in cases:
        x = x.astype(dtype).reshape(1, 1, 1, -1)
        g = rng.standard_normal(x.shape).astype(dtype)
        with (dtype64() if dtype == np.float64 else contextlib.nullcontext()):
            out, grad = engine_pointwise(relu, x, g)
        assert out.dtype == dtype
        np.testing.assert_array_equal(bits(out), bits(relu_reference(x)))
        np.testing.assert_array_equal(bits(grad), bits(np.zeros_like(g) + g * (x > 0)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_bit_identical_to_three_exp_formula(dtype):
    rng = np.random.default_rng(41)
    x = np.concatenate([np.linspace(-100.0, 100.0, 2001), [0.0, -0.0],
                        rng.uniform(-100.0, 100.0, 4096 - 2003)])
    x = x.astype(dtype).reshape(4, 4, 16, 16)
    g = rng.standard_normal(x.shape).astype(dtype)
    with (dtype64() if dtype == np.float64 else contextlib.nullcontext()):
        out, grad = engine_pointwise(sigmoid, x, g)
    ref = sigmoid_reference(x)
    assert out.dtype == dtype
    np.testing.assert_array_equal(bits(out), bits(ref))
    np.testing.assert_array_equal(bits(grad),
                                  bits(np.zeros_like(g) + g * ref * (1.0 - ref)))


def test_sigmoid_midpoint_and_saturation():
    x = Tensor(np.array([0.0, 100.0, -100.0]).reshape(1, 1, 1, 3))
    out = sigmoid(x).data.ravel()
    assert out[0] == pytest.approx(0.5)
    assert out[1] == pytest.approx(1.0)
    assert 0.0 < out[2] < 1e-40
    assert np.all(np.isfinite(out))


def test_sigmoid_derivative_at_zero():
    x = Tensor(np.zeros((1, 1, 1, 1)), requires_grad=True)
    with Tape() as tape:
        tape.backward(mean_all(sigmoid(x)))
    assert x.grad.ravel()[0] == pytest.approx(0.25, rel=1e-6)

    def f():
        return float(mean_all(sigmoid(x)).data)

    (num,) = numerical_grad(f, [x.data], h=1e-3)
    assert num.ravel()[0] == pytest.approx(0.25, rel=1e-3)


# ---------------------------------------------------------------------------
# upsample


def test_upsample_factor_one_is_identity():
    x = Tensor(np.arange(8.0).reshape(1, 2, 2, 2), requires_grad=True)
    with Tape() as tape:
        out = upsample_nearest(x, 1)
    np.testing.assert_array_equal(out.data, x.data)
    assert not np.shares_memory(out.data, x.data)
    (_, backward), = tape.records
    g = np.random.default_rng(15).standard_normal((1, 2, 2, 2)).astype(out.data.dtype)
    backward(g)
    np.testing.assert_array_equal(x.grad, g)


def test_upsample_block_replication():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
    out = upsample_nearest(x, 2).data[0, 0]
    expected = np.array([
        [1, 1, 2, 2],
        [1, 1, 2, 2],
        [3, 3, 4, 4],
        [3, 3, 4, 4],
    ], dtype=np.float64)
    np.testing.assert_array_equal(out, expected)


def test_upsample_gradient_counts_replicas():
    factor = 3
    x = Tensor(np.zeros((1, 1, 2, 2)), requires_grad=True)
    with Tape() as tape:
        out = upsample_nearest(x, factor)
        tape.backward(scale(mean_all(out), float(out.data.size)))  # sum of outputs
    np.testing.assert_allclose(x.grad, factor * factor)


# ---------------------------------------------------------------------------
# channel_norm


def test_channel_norm_constant_channel_is_zeroed():
    x = Tensor(np.full((2, 3, 4, 4), 7.0))
    gain = Tensor(np.ones(3))
    shift = Tensor(np.zeros(3))
    out = channel_norm(x, gain, shift)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-6)


def test_channel_norm_moments_match_affine():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((2, 3, 8, 8)) * 4.0 + 2.0)
    gain = Tensor(np.array([1.0, 2.0, 0.5]))
    shift = Tensor(np.array([0.0, -1.0, 3.0]))
    out = channel_norm(x, gain, shift, epsilon=1e-8).data
    for b in range(2):
        for c in range(3):
            plane = out[b, c]
            assert plane.mean() == pytest.approx(shift.data[c], abs=1e-4)
            assert plane.std() == pytest.approx(gain.data[c], abs=1e-4)


def test_channel_norm_gradient_fd():
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True)
    gain = Tensor(np.array([1.5, 0.7]), requires_grad=True)
    shift = Tensor(np.array([0.1, -0.2]), requires_grad=True)
    proj = Tensor(rng.standard_normal((2, 2, 3, 3)))
    check_gradients(lambda: projected_loss(channel_norm(x, gain, shift), proj),
                    [x, gain, shift], h=1e-3, tol=1e-2)


def test_channel_norm_gradient_fd_64bit():
    with dtype64():
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True)
        gain = Tensor(np.array([1.5, 0.7]), requires_grad=True)
        shift = Tensor(np.array([0.1, -0.2]), requires_grad=True)
        proj = Tensor(rng.standard_normal((2, 2, 3, 3)))
        check_gradients(lambda: projected_loss(channel_norm(x, gain, shift), proj),
                        [x, gain, shift], h=1e-5, tol=1e-5)


def channel_norm_reference(x, gain, shift, g, epsilon=1e-5):
    """channel_norm's earlier forward, which centres x twice, and its
    backward: (out, dx, dgain, dshift) for output gradient g."""
    mu = x.mean(axis=(2, 3), keepdims=True)
    var = x.var(axis=(2, 3), keepdims=True)
    inv = 1.0 / np.sqrt(var + x.dtype.type(epsilon))
    xhat = (x - mu) * inv
    out = gain[None, :, None, None] * xhat + shift[None, :, None, None]
    gx = g * gain[None, :, None, None]
    m1 = gx.mean(axis=(2, 3), keepdims=True)
    m2 = (gx * xhat).mean(axis=(2, 3), keepdims=True)
    dx = np.zeros_like(x) + inv * (gx - m1 - xhat * m2)
    dgain = np.zeros_like(gain) + (g * xhat).sum(axis=(0, 2, 3))
    dshift = np.zeros_like(shift) + g.sum(axis=(0, 2, 3))
    return out.astype(x.dtype), dx, dgain, dshift


@pytest.mark.parametrize("dtype, shape", [
    (np.float32, (8, 8, 32, 32)),   # desk
    (np.float32, (2, 8, 256, 256)),  # riga-like
    (np.float64, (8, 8, 32, 32)),
])
def test_channel_norm_bit_identical_to_two_pass_formula(dtype, shape):
    rng = np.random.default_rng(42)
    x = (rng.standard_normal(shape) * 3.0 + 1.5).astype(dtype)
    gain = rng.uniform(0.5, 1.5, shape[1]).astype(dtype)
    shift = rng.standard_normal(shape[1]).astype(dtype)
    g = rng.standard_normal(shape).astype(dtype)
    with (dtype64() if dtype == np.float64 else contextlib.nullcontext()):
        leaves = [Tensor(a, requires_grad=True) for a in (x, gain, shift)]
        with Tape() as tape:
            out = channel_norm(*leaves)
        (_, backward), = tape.records
        backward(g)
    got = (out.data,) + tuple(leaf.grad for leaf in leaves)
    for name, a, b in zip(("out", "dx", "dgain", "dshift"), got,
                          channel_norm_reference(x, gain, shift, g)):
        assert a.dtype == dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)


# ---------------------------------------------------------------------------
# variance along the stacked axis


def test_variance_identical_maps_is_zero():
    m = np.random.default_rng(8).random((1, 1, 3, 3))
    stacked = Tensor(np.stack([m, m, m]))
    np.testing.assert_allclose(variance_along_first_axis(stacked).data, 0.0, atol=1e-7)


def test_variance_binary_half_split():
    stacked = Tensor(np.array([0.0, 0.0, 1.0, 1.0]).reshape(4, 1, 1, 1))
    assert variance_along_first_axis(stacked).data.ravel()[0] == pytest.approx(0.25)


def test_variance_one_of_three():
    # mean = 2/3, population variance = ((1/3)^2 + 2*(1/3)^2 ... ) = 2/9
    stacked = Tensor(np.array([0.0, 1.0, 1.0]).reshape(3, 1, 1, 1))
    assert variance_along_first_axis(stacked).data.ravel()[0] == pytest.approx(2.0 / 9.0, rel=1e-6)


def test_variance_requires_two_slices():
    with pytest.raises(ShapeError):
        variance_along_first_axis(Tensor(np.zeros((1, 1, 2, 2))))


def test_variance_bounds_for_unit_interval_inputs():
    rng = np.random.default_rng(9)
    for _ in range(20):
        stacked = Tensor(rng.random((5, 2, 3, 3)))
        v = variance_along_first_axis(stacked).data
        assert np.all(v >= 0.0) and np.all(v <= 0.25 + 1e-7)


def test_variance_gradient_fd():
    rng = np.random.default_rng(10)
    x = Tensor(rng.random((3, 1, 2, 2)), requires_grad=True)
    proj = Tensor(rng.standard_normal((1, 2, 2)))
    check_gradients(lambda: projected_loss(variance_along_first_axis(x), proj),
                    [x], h=1e-3, tol=1e-2)


# ---------------------------------------------------------------------------
# plumbing ops and tape semantics


def test_add_zero_is_identity_and_shape_checked():
    x = Tensor(np.arange(4.0).reshape(1, 1, 2, 2))
    z = Tensor(np.zeros((1, 1, 2, 2)))
    np.testing.assert_array_equal(add(x, z).data, x.data)
    with pytest.raises(ShapeError) as exc:
        add(x, Tensor(np.zeros((1, 1, 2, 3))))
    assert "(1, 1, 2, 2)" in str(exc.value) and "(1, 1, 2, 3)" in str(exc.value)


def test_mean_all_gradient_is_one_over_numel():
    x = Tensor(np.random.default_rng(11).random((2, 1, 3, 3)), requires_grad=True)
    with Tape() as tape:
        tape.backward(mean_all(x))
    np.testing.assert_allclose(x.grad, 1.0 / 18.0, rtol=1e-6)


def test_concat_channels_splits_gradient():
    a = Tensor(np.ones((1, 2, 2, 2)), requires_grad=True)
    b = Tensor(np.ones((1, 3, 2, 2)), requires_grad=True)
    with Tape() as tape:
        out = concat_channels([a, b])
        assert out.data.shape == (1, 5, 2, 2)
        tape.backward(mean_all(out))
    np.testing.assert_allclose(a.grad, 1.0 / 20.0, rtol=1e-6)
    np.testing.assert_allclose(b.grad, 1.0 / 20.0, rtol=1e-6)


def test_stack_first_roundtrips_gradient():
    parts = [Tensor(np.full((1, 1, 2, 2), float(i)), requires_grad=True) for i in range(3)]
    with Tape() as tape:
        out = stack_first(parts)
        assert out.data.shape == (3, 1, 1, 2, 2)
        tape.backward(mean_all(out))
    for p in parts:
        np.testing.assert_allclose(p.grad, 1.0 / 12.0, rtol=1e-6)


def test_two_consumer_node_accumulates_both_paths():
    # loss = mean(x + x) -> dloss/dx = 2/numel, computed by hand
    x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
    with Tape() as tape:
        tape.backward(mean_all(add(x, x)))
    np.testing.assert_allclose(x.grad, 2.0 / 4.0)

    # a node feeding two distinct consumers: loss = mean(square(x)) + mean(x)
    y = Tensor(np.full((1, 1, 1, 2), 3.0), requires_grad=True)
    with Tape() as tape:
        loss = add(mean_all(square(y)), mean_all(y))
        tape.backward(loss)
    np.testing.assert_allclose(y.grad, 2.0 * 3.0 / 2.0 + 1.0 / 2.0)


def test_leaf_grads_accumulate_across_tapes():
    # training without zero_grad between steps relies on this
    x = Tensor(np.ones((1, 1, 1, 2)), requires_grad=True)
    for _ in range(2):
        with Tape() as tape:
            tape.backward(mean_all(x))
    np.testing.assert_array_equal(x.grad, 2.0 * np.full((1, 1, 1, 2), 0.5))


def test_backward_on_a_spent_tape_raises():
    x = Tensor(np.ones((1, 1, 1, 2)), requires_grad=True)
    with Tape() as tape:
        loss = mean_all(x)
        tape.backward(loss)
        assert tape.records == []
        with pytest.raises(RuntimeError, match="tape was already used"):
            tape.backward(loss)
    np.testing.assert_array_equal(x.grad, np.full((1, 1, 1, 2), 0.5))


def test_no_tape_means_no_recording():
    x = Tensor(np.ones((1, 1, 1, 2)), requires_grad=True)
    out = relu(x)
    assert out.requires_grad is False and out.grad is None


def test_sqrt_shift_guards_zero():
    x = Tensor(np.zeros((1, 1, 1, 1)), requires_grad=True)
    with Tape() as tape:
        out = sqrt(x, shift=1e-12)
        tape.backward(out)
    assert out.data.ravel()[0] == pytest.approx(1e-6)
    assert np.all(np.isfinite(x.grad))


# ---------------------------------------------------------------------------
# bce


def test_bce_at_half_is_ln2():
    p = Tensor(np.full((1, 1, 2, 2), 0.5))
    t = Tensor(np.ones((1, 1, 2, 2)))
    assert float(bce_loss(p, t).data) == pytest.approx(np.log(2.0), rel=1e-6)


def test_bce_gradient_fd():
    rng = np.random.default_rng(12)
    p = Tensor(rng.uniform(0.1, 0.9, (1, 1, 3, 3)), requires_grad=True)
    t = Tensor((rng.random((1, 1, 3, 3)) > 0.5).astype(np.float64))
    check_gradients(lambda: bce_loss(p, t), [p], h=1e-4, tol=1e-2)


def test_bce_clamps_saturated_probabilities():
    p = Tensor(np.array([0.0, 1.0]).reshape(1, 1, 1, 2))
    t = Tensor(np.array([0.0, 1.0]).reshape(1, 1, 1, 2))
    loss = float(bce_loss(p, t).data)
    assert 0.0 <= loss < 1e-5


# ---------------------------------------------------------------------------
# leaves without a gradient


FROZEN_OPS = {
    "conv2d": (lambda x, w, b: conv2d(x, w, b, stride=1, padding=1),
               [(2, 3, 6, 6), (4, 3, 3, 3), (4,)]),
    "channel_norm": (channel_norm, [(2, 3, 5, 5), (3,), (3,)]),
    "bce_loss": (bce_loss, [(2, 1, 4, 4), (2, 1, 4, 4)]),
}


@pytest.mark.parametrize("op, frozen", [("conv2d", 0), ("conv2d", 1), ("conv2d", 2),
                                        ("channel_norm", 0), ("channel_norm", 1),
                                        ("channel_norm", 2), ("bce_loss", 0)])
def test_a_leaf_without_gradient_keeps_none(op, frozen):
    # (x, kernel, bias), (x, gain, shift) or (probs, targets): the frozen
    # leaf's grad stays None and every other gradient keeps its bits
    fn, shapes = FROZEN_OPS[op]
    rng = np.random.default_rng(29)
    arrays = [rng.uniform(0.05, 0.95, shape) for shape in shapes]
    g = np.asarray(rng.standard_normal(fn(*map(Tensor, arrays)).data.shape))

    def grads(needs):
        leaves = [Tensor(a, requires_grad=r) for a, r in zip(arrays, needs)]
        with Tape() as tape:
            out = fn(*leaves)
        (_, backward), = tape.records
        backward(g.astype(out.data.dtype))
        return [leaf.grad for leaf in leaves]

    every = grads([True] * len(shapes))
    some = grads([i != frozen for i in range(len(shapes))])
    assert some[frozen] is None
    for i in range(len(shapes)):
        if i != frozen:
            np.testing.assert_array_equal(bits(some[i]), bits(every[i]))


# ---------------------------------------------------------------------------
# optimizer


def test_adam_first_step_is_almost_lr():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([1.0], dtype=p.data.dtype)
    opt = Adam({"p": p}, lr=0.1)
    opt.step()
    # bias correction makes the first step lr * g / (|g| + eps)
    assert p.data[0] == pytest.approx(1.0 - 0.1, abs=1e-6)


def test_adam_zero_gradient_keeps_parameter():
    p = Tensor(np.array([2.5]), requires_grad=True)
    p.grad = np.zeros(1, dtype=p.data.dtype)
    opt = Adam({"p": p}, lr=0.1)
    opt.step()
    assert p.data[0] == pytest.approx(2.5)


def test_adam_converges_on_quadratic():
    with dtype64():
        p = Tensor(np.array([[[[8.0]]]]), requires_grad=True)
        target = Tensor(np.array([[[[3.0]]]]))
        opt = Adam({"p": p}, lr=0.05)
        for _ in range(2000):
            opt.zero_grad()
            with Tape() as tape:
                loss = mean_all(square(sub(p, target)))
                tape.backward(loss)
            opt.step()
            if abs(p.data.ravel()[0] - 3.0) < 1e-3:
                break
        assert abs(p.data.ravel()[0] - 3.0) < 1e-3


def test_adam_rejects_non_finite_gradient_with_name():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([np.nan], dtype=p.data.dtype)
    opt = Adam({"encoder.w": p}, lr=0.1)
    with pytest.raises(FloatingPointError) as exc:
        opt.step()
    assert "encoder.w" in str(exc.value)
