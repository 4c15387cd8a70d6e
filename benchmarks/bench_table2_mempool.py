"""Table 2 — heap memory pool vs native cudaMalloc/cudaFree.

Paper (img/s, AlexNet b=128, rest b=16): speedups 1.12x (AlexNet),
1.19x (VGG16), 1.48x (Inception v4), 1.53x/1.68x/1.77x (ResNet 50/101/
152): the deeper and more nonlinear the network, the more allocator
calls per iteration and the bigger the pool's win.
"""

from repro.analysis.report import Table
from repro.core.config import RuntimeConfig, WorkspacePolicy
from repro.core.session import Session
from repro.zoo import alexnet, inception_v4, resnet50, resnet101, resnet152, vgg16

from benchmarks.common import img_per_sec, once, write_result

NETS = {
    "alexnet": lambda: alexnet(batch=128, image=227),
    "vgg16": lambda: vgg16(batch=16),
    "inception_v4": lambda: inception_v4(batch=16),
    "resnet50": lambda: resnet50(batch=16),
    "resnet101": lambda: resnet101(batch=16),
    "resnet152": lambda: resnet152(batch=16),
}


def _run(mk, use_pool: bool):
    net = mk()
    ex = Session(net, RuntimeConfig.superneurons(
        concrete=False, use_pool_allocator=use_pool,
        workspace_policy=WorkspacePolicy.NONE)).executor
    r = ex.run_iteration(0)
    speed = img_per_sec(net, r)
    calls = r.alloc_calls
    overhead = r.alloc_overhead
    ex.close()
    return speed, calls, overhead


def _measure():
    tab = Table("Table 2: heap pool vs cudaMalloc/cudaFree (img/s)",
                ["network", "cudaMalloc img/s", "pool img/s", "speedup",
                 "alloc calls/iter"])
    out = {}
    for name, mk in NETS.items():
        s_cuda, calls, ovh_cuda = _run(mk, use_pool=False)
        s_pool, _, _ = _run(mk, use_pool=True)
        speedup = s_pool / s_cuda
        out[name] = (s_cuda, s_pool, speedup, calls)
        tab.add(name, f"{s_cuda:.1f}", f"{s_pool:.1f}", f"{speedup:.2f}x",
                calls)
    write_result("table2_mempool", tab.render())
    return out


def test_table2_mempool(benchmark):
    out = once(benchmark, _measure)
    # paper shape 1: the pool wins everywhere
    for name, (_c, _p, speedup, _n) in out.items():
        assert speedup > 1.0, f"{name}: pool not faster ({speedup:.2f}x)"
    # paper shape 2: nonlinear/deep nets gain more than linear ones
    assert out["resnet152"][2] > out["alexnet"][2]
    assert out["resnet101"][2] > out["vgg16"][2]
    # paper shape 3: speedup grows with depth within the ResNet family
    assert out["resnet152"][2] >= out["resnet50"][2]
    # the mechanism: deeper nets make far more allocator calls
    assert out["resnet152"][3] > 3 * out["alexnet"][3]
