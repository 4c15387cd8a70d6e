"""A layer's price is derived once per compile, and equals a fresh one.

A layer's default kernel times — and a conv's algorithm menu and
max-speed pick beside them — are a pure function of the built layer and
the device model; a layer's working set ``l_i`` and the net's
``l_peak`` are a pure function of the built net.  The compiling engine
stores the first (``Net.price``, under its compile lock), every
``Net.build()`` the second, and everything else reads them.  These tests pin both the call counts of one compile
and that every stored value is the value an uncached walk derives.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from repro import Engine, RuntimeConfig
from repro.core import tensor_state
from repro.core.tensor_state import ALLOWED_TRANSITIONS, SessionTensorState
from repro.device.model import K40_MODEL, DeviceModel
from repro import layers
from repro.layers import conv as conv_module
from repro.layers.base import Layer
from repro.layers.conv import Conv2D, conv_algorithms
from repro.tensors.tensor import Placement, Tensor, TensorKind
from repro.zoo import NETWORK_BUILDERS
from repro.zoo.lenet import lenet


def convs(net):
    return [l for l in net.layers if isinstance(l, Conv2D)]


def fresh_menu(layer: Conv2D, model):
    n, c, h, w = layer.in_shapes[0]
    _, _, oh, ow = layer.out_shape
    return tuple(conv_algorithms(n, c, layer.out_channels, (h, w), (oh, ow),
                                 layer.kernel, layer.stride, model))


def fresh_times(layer: Layer, model):
    """The default forward and backward kernel times, derived anew: a
    conv's at its menu's first algorithm, a compute-bound layer's from
    its FLOPs, any other's from the bytes it touches."""
    if isinstance(layer, Conv2D):
        default = fresh_menu(layer, model)[0]
        return (default.time(layer.flops_forward(), model),
                default.time(layer.flops_backward(), model))
    if layer.is_compute_bound():
        rate = model.compute_tflops
        work = layer.flops_forward(), layer.flops_backward()
    else:
        rate = model.mem_bandwidth
        work = layer.bytes_touched_forward(), layer.bytes_touched_backward()
    return tuple(w / rate + model.kernel_launch_overhead for w in work)


def assert_priced_like_fresh(layer: Layer, model) -> None:
    assert (layer.sim_time_forward(model), layer.sim_time_backward(model)) \
        == fresh_times(layer, model)
    if isinstance(layer, Conv2D):
        menu = fresh_menu(layer, model)
        assert layer.algorithms(model) == menu
        assert layer.max_speed_algo(model) == max(menu,
                                                  key=lambda a: a.speed)


def stored_models(layer: Layer):
    return [p.model for p in layer._prices]


class TestOneCompilePricesOnce:
    def test_a_verified_costed_two_mode_compile(self, monkeypatch):
        """resnet50 b8, built, verified and costed in both modes: one
        menu per conv (477 at nine per conv before), one price per other
        layer (472 kernel-time derivations, one per call, before) and
        one working set per layer (352, two walks, before)."""
        menus, walks, prices = [], [], []
        derive_menu, derive_walk = conv_algorithms, Layer.working_set_bytes
        derive_price = Layer._price

        def counted_menu(*args):
            menus.append(args)
            return derive_menu(*args)

        def counted_walk(layer):
            walks.append(layer)
            return derive_walk(layer)

        def counted_price(layer, model):
            prices.append(layer)
            return derive_price(layer, model)

        monkeypatch.setattr(conv_module, "conv_algorithms", counted_menu)
        monkeypatch.setattr(Layer, "working_set_bytes", counted_walk)
        monkeypatch.setattr(Layer, "_price", counted_price)
        net = NETWORK_BUILDERS["resnet50"](batch=8)
        engine = repro.compile(net, RuntimeConfig.superneurons(concrete=False),
                               modes=("train", "infer"), verify=True,
                               cost_report=True)
        assert len(convs(net)) == 53 and len(net.layers) == 176
        assert len(menus) == 53
        assert len(prices) == 176 - 53  # Conv2D prices itself
        assert len(walks) == 176
        assert sorted(engine.cost_reports) == ["infer", "train"]


class TestStoredEqualsFresh:
    @pytest.mark.parametrize("batch", [8, 32])
    @pytest.mark.parametrize("name", sorted(NETWORK_BUILDERS))
    def test_every_zoo_net(self, name, batch):
        net = NETWORK_BUILDERS[name](batch=batch)
        net.price(K40_MODEL)
        walk = [l.working_set_bytes() for l in net.layers]
        assert [l.l_i for l in net.layers] == walk
        assert net.l_peak == net.max_layer_bytes() == max(walk)
        for layer in net.layers:
            assert stored_models(layer) == [K40_MODEL]
            assert layer.sim_time_forward(K40_MODEL) \
                is layer._prices[0].forward_s
            assert_priced_like_fresh(layer, K40_MODEL)
        for layer in convs(net):
            assert layer.algorithms(K40_MODEL) is layer._prices[0].menu

    def test_the_zoo_holds_every_layer_type(self):
        """so :meth:`test_every_zoo_net` checks every type's price"""
        types = {type(layer) for build in NETWORK_BUILDERS.values()
                 for layer in build(batch=8).layers}
        assert types == {getattr(layers, name) for name in layers.__all__
                         if isinstance(getattr(layers, name), type)
                         and issubclass(getattr(layers, name), Layer)
                         and name != "Layer"}

    def test_an_engine_prices_its_model_at_planning(self):
        net = lenet(batch=2, image=12)
        assert all(not l._prices for l in convs(net))
        engine = Engine(net, RuntimeConfig(concrete=False))
        engine.planning("infer")
        assert all(stored_models(l) == [K40_MODEL] for l in net.layers)

    def test_an_unseen_model_is_priced_but_not_stored(self):
        net = lenet(batch=2, image=12)
        net.price(K40_MODEL)
        twin = DeviceModel()  # equal to K40_MODEL, but another object
        for layer in net.layers:
            assert_priced_like_fresh(layer, twin)
            assert stored_models(layer) == [K40_MODEL]
        for layer in convs(net):
            assert layer.algorithms(twin) is not layer.algorithms(K40_MODEL)


class TestEnginesOverOneNet:
    def test_each_engine_reads_its_own_models_menus(self):
        gemm_first = DeviceModel(
            name="gemm-first", compute_tflops=6.0e12,
            conv_algo_speed={"implicit_gemm": 1.0, "gemm": 3.0,
                             "winograd": 2.2, "fft": 1.9})
        net = lenet(batch=8, image=28)
        cfg = RuntimeConfig.superneurons(concrete=False)
        engines = [Engine(net, cfg),
                   Engine(net, replace(cfg, device=gemm_first))]
        picks = []
        for engine in engines:
            with engine.session("train") as s:
                picks.append({(c.layer_name, c.phase): c.max_speed_algo.name
                              for c in s.run_iteration(0).workspace_choices})
        for layer in net.layers:
            assert stored_models(layer) == [K40_MODEL, gemm_first]
            for model in (K40_MODEL, gemm_first):
                assert_priced_like_fresh(layer, model)
        k40, gemm = picks
        assert sorted(k40) == sorted(gemm) and len(k40) == 4  # 2 convs
        assert set(k40.values()) == {"fft"}
        assert set(gemm.values()) == {"gemm"}


class TestRebuild:
    def test_a_rebuilt_net_derives_its_working_sets_again(self):
        """Stale values do not survive ``Net.build()``: each build
        derives the working sets of the layers it built."""
        net = lenet(batch=2, image=12)
        for layer in net.layers:
            layer.l_i = -1
        net.l_peak = -1
        net._built = False
        net.build()
        walk = [l.working_set_bytes() for l in net.layers]
        assert [l.l_i for l in net.layers] == walk
        assert net.l_peak == max(walk) > 0


# ----------------------------------------------------------- the census
#: the one function in src/ that derives a conv's algorithm menu
PRICING = ("layers/conv.py", "Conv2D", "_price")


def menu_calls() -> list:
    """``(file, class, function)`` of every ``conv_algorithms(...)``
    call in src/repro, and of every aliased import of it (a renamed
    call would hide)."""
    root = Path(repro.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))

        def visit(node, cls, func):
            for child in ast.iter_child_nodes(node):
                c, f = cls, func
                if isinstance(child, ast.ClassDef):
                    c, f = child.name, None
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    f = child.name
                callee = getattr(child, "func", None)
                if isinstance(child, ast.Call) and (
                        isinstance(callee, ast.Name)
                        and callee.id == "conv_algorithms"
                        or isinstance(callee, ast.Attribute)
                        and callee.attr == "conv_algorithms") \
                        or isinstance(child, ast.ImportFrom) and any(
                            a.name == "conv_algorithms" and a.asname
                            for a in child.names):
                    found.append((rel, cls, func))
                visit(child, c, f)
        visit(tree, None, None)
    return found


def test_one_place_prices_a_conv():
    calls = menu_calls()
    assert calls == [PRICING], (
        f"{calls} derive a conv's algorithm menu; only "
        f"{'::'.join(PRICING)} may, so every caller reads the stored "
        f"price")


# ----------------------------------------------------- the placement check
class TestPlacementCheck:
    def test_the_identity_table_is_the_allowed_transitions(self):
        edges = {(old, new) for old in Placement
                 for new in tensor_state._MOVES_FROM[id(old)]}
        assert edges == ALLOWED_TRANSITIONS

    def test_an_armed_check_hashes_no_enum(self):
        """Every legal move of an armed state machine, checked with no
        frame entered in the ``enum`` module; then a refused one."""
        state = SessionTensorState(validate=True)
        t = Tensor((4, 4), TensorKind.DATA, name="t")
        enum_file = sys.modules["enum"].__file__
        entered = []

        def profile(frame, event, _arg):
            if event == "call" and frame.f_code.co_filename == enum_file:
                entered.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            state.to_gpu(t)
            state.to_host(t)
            state.to_gpu(t)
            state.to_freed(t)
            state.to_gpu(t)
            state.to_freed(t)
        finally:
            sys.setprofile(None)
        assert entered == []
        with pytest.raises(tensor_state.IllegalPlacementTransition):
            state.to_host(t)
