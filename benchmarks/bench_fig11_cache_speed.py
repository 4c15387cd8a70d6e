"""Fig. 11 — normalized training speed with vs without the tensor cache.

Paper (AlexNet b=128, rest b=32): dropping the cache costs up to 33% of
speed, and the loss is bigger on nonlinear networks (ResNets, Inception)
whose thin layers cannot hide the eager offload traffic under compute.
"""

from repro.analysis.report import Table
from repro.core.config import RuntimeConfig
from repro.core.session import Session
from repro.zoo import alexnet, inception_v4, resnet50, resnet101, resnet152, vgg16

from benchmarks.common import img_per_sec, once, write_result

NETS = {
    "alexnet": lambda: alexnet(batch=128, image=227),
    "vgg16": lambda: vgg16(batch=32),
    "inception_v4": lambda: inception_v4(batch=32),
    "resnet50": lambda: resnet50(batch=32),
    "resnet101": lambda: resnet101(batch=32),
    "resnet152": lambda: resnet152(batch=32),
}


def _speed(mk, use_cache: bool):
    net = mk()
    ex = Session(net, RuntimeConfig.superneurons(
        use_tensor_cache=use_cache, concrete=False)).executor
    r = ex.run_iteration(0)
    s = img_per_sec(net, r)
    ex.close()
    return s


def _measure():
    tab = Table("Fig. 11: normalized speed with/without tensor cache",
                ["network", "img/s no cache", "img/s cache",
                 "normalized (no cache / cache)"])
    out = {}
    for name, mk in NETS.items():
        s_no = _speed(mk, use_cache=False)
        s_yes = _speed(mk, use_cache=True)
        out[name] = (s_no, s_yes, s_no / s_yes)
        tab.add(name, f"{s_no:.1f}", f"{s_yes:.1f}", f"{s_no / s_yes:.3f}")
    write_result("fig11_cache_speed", tab.render())
    return out


def test_fig11_cache_speed(benchmark):
    out = once(benchmark, _measure)
    # paper shape 1: the cache never hurts
    for name, (_n, _y, ratio) in out.items():
        assert ratio <= 1.001, f"{name}: cache slower ({ratio:.3f})"
    # paper shape 2: some nonlinear network visibly suffers without it
    worst = min(r for _, _, r in out.values())
    assert worst < 0.98, f"no visible cache benefit anywhere (worst {worst})"
    # paper shape 3: nonlinear nets lose more than the linear AlexNet
    nonlinear_worst = min(out[n][2] for n in
                          ("resnet50", "resnet101", "resnet152",
                           "inception_v4"))
    assert nonlinear_worst <= out["alexnet"][2] + 1e-9
