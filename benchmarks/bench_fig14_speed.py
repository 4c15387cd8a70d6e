"""Fig. 14 — end-to-end training speed (img/s) vs batch size.

Paper (TITAN Xp): SuperNeurons leads on every network; baseline curves
stop early at their OOM batch; SuperNeurons' own curve declines gently
once tensor swapping begins (communication starts to outweigh the fixed
computation per image).
"""

from repro.analysis.report import series_to_text
from repro.device.model import TITANXP_MODEL
from repro.frameworks import framework_config

from benchmarks.common import (
    FRAMEWORK_ORDER,
    PAPER_NETWORKS,
    img_per_sec,
    once,
    steady_run,
    write_result,
)

SWEEPS = {
    "alexnet": [128, 256, 512, 1024, 1408],
    "vgg16": [16, 32, 64, 128, 192],
    "inception_v4": [8, 16, 32, 64, 128],
    "resnet50": [16, 32, 64, 128, 192],
    "resnet101": [8, 16, 32, 64, 128],
    "resnet152": [8, 16, 32, 64, 96],
}


def _speed(net_name: str, batch: int, fw: str):
    builder, kw = PAPER_NETWORKS[net_name]
    kw = {k: v for k, v in kw.items() if k != "batch"}
    net = builder(batch=batch, **kw)
    cfg = framework_config(fw, concrete=False, device=TITANXP_MODEL)
    return img_per_sec(net, steady_run(net, cfg))


def _measure():
    blocks = []
    out = {}
    for net_name, batches in SWEEPS.items():
        series = {}
        for fw in FRAMEWORK_ORDER:
            vals = []
            for b in batches:
                s = _speed(net_name, b, fw)
                vals.append(None if s is None else f"{s:.0f}")
                out[(net_name, fw, b)] = s
            series[fw] = vals
        blocks.append(series_to_text(
            f"Fig. 14: {net_name} img/s vs batch", batches, series,
            x_label="batch"))
    write_result("fig14_speed", "\n\n".join(blocks))
    return out


def test_fig14_speed(benchmark):
    out = once(benchmark, _measure)
    for net_name, batches in SWEEPS.items():
        # paper shape 1: SuperNeurons survives the largest batch of the
        # sweep on every network; at least one baseline has died by then
        top = batches[-1]
        assert out[(net_name, "superneurons", top)] is not None, net_name
        assert any(out[(net_name, fw, top)] is None
                   for fw in FRAMEWORK_ORDER[:-1]), \
            f"{net_name}: every baseline survived batch {top}"
        # paper shape 2: at the largest shared-survivor batch,
        # SuperNeurons is at least competitive (>= 85% of the best).
        # Our Caffe model gets its greedy max-speed workspaces for free
        # while memory is ample, and SuperNeurons pays a real recompute
        # overhead — a tradeoff the paper's coarser timing hides.
        for b in reversed(batches):
            alive = {fw: out[(net_name, fw, b)] for fw in FRAMEWORK_ORDER
                     if out[(net_name, fw, b)] is not None}
            if len(alive) == len(FRAMEWORK_ORDER):
                best = max(alive.values())
                assert alive["superneurons"] >= 0.85 * best, (net_name, b)
                break
    # paper shape 3: SuperNeurons' AlexNet curve declines gently, not a
    # cliff, as batches grow into swap territory
    s_small = out[("alexnet", "superneurons", 256)]
    s_big = out[("alexnet", "superneurons", 1408)]
    assert s_big > 0.4 * s_small
