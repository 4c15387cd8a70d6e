"""The network container: wiring, shape inference, validation."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.device.model import DeviceModel
from repro.layers.base import Layer, LayerType
from repro.layers.data import DataLayer
from repro.layers.softmax import SoftmaxLoss


class Net:
    """A nonlinear DAG of layers.

    Layers must be added in a topological order (each layer's inputs
    already present) — natural for builder code and verified at
    :meth:`build` time.  ``add`` returns the layer so builders can chain.
    The net owns its layers: a layer holds its inputs (``prev``) but
    only weak links to its consumers (``next``), so the graph holds no
    reference cycle and a dropped net is freed by reference counting.
    """

    def __init__(self, name: str = "net"):
        self.name = name
        self.layers: List[Layer] = []
        self._built = False
        #: max(l_i), derived with every layer's ``l_i`` by :meth:`build`
        self.l_peak = 0

    # -- construction -----------------------------------------------------
    def add(self, layer: Layer, inputs: Optional[Sequence[Layer]] = None) -> Layer:
        if self._built:
            raise RuntimeError("cannot add layers after build()")
        layer.layer_id = len(self.layers)
        self.layers.append(layer)
        if inputs:
            for src in inputs:
                if src.layer_id < 0 or src.layer_id >= layer.layer_id:
                    raise ValueError(
                        f"{layer.name}: input {src.name} must be added before "
                        f"its consumer (topological insertion order)"
                    )
            layer.connect_from(inputs)
        elif not isinstance(layer, DataLayer) and self.layers[:-1]:
            # default: linear chaining onto the previously added layer
            layer.connect_from([self.layers[-2]])
        layer.infer()  # shapes available to builder code immediately
        return layer

    def build(self) -> "Net":
        """Infer every shape and create the tensor descriptors."""
        if self._built:
            return self
        data_layers = [l for l in self.layers if isinstance(l, DataLayer)]
        if len(data_layers) != 1:
            raise ValueError(
                f"net needs exactly one DataLayer, found {len(data_layers)}"
            )
        for layer in self.layers:
            if not isinstance(layer, DataLayer) and not layer.prev:
                raise ValueError(f"layer {layer.name} has no inputs")
            layer.build()
        # a working set reads the layer's consumers and its inputs'
        # shapes, all wired by now: derive each once, here
        for layer in self.layers:
            layer.l_i = layer.working_set_bytes()
        self.l_peak = max(layer.l_i for layer in self.layers)
        # (No label-source wiring: labels flow through the per-session
        # LayerContext — the data layer's forward writes ctx.labels,
        # the loss layer reads them.  set_label_source remains only for
        # layer-level driving with a stub source.)
        self._built = True
        return self

    # -- accessors -------------------------------------------------------------
    @property
    def data_layer(self) -> DataLayer:
        for l in self.layers:
            if isinstance(l, DataLayer):
                return l
        raise ValueError("net has no DataLayer")

    @property
    def loss_layer(self) -> Optional[SoftmaxLoss]:
        for l in reversed(self.layers):
            if isinstance(l, SoftmaxLoss):
                return l
        return None

    def layer_by_name(self, name: str) -> Layer:
        for l in self.layers:
            if l.name == name:
                return l
        raise KeyError(name)

    def __len__(self) -> int:
        return len(self.layers)

    # -- summaries ----------------------------------------------------------------
    def total_param_bytes(self) -> int:
        return sum(p.nbytes for l in self.layers for p in l.params)

    def total_forward_bytes(self) -> int:
        """Σ l_f — every layer output, the liveness baseline's forward term."""
        return sum(l.l_f() for l in self.layers)

    def total_backward_bytes(self) -> int:
        """Σ l_b with the two grads no runtime materializes excluded:
        the data layer's (inputs get no gradient) and the terminal
        layer's (nothing feeds it a gradient)."""
        total = 0
        for l in self.layers:
            if l.next and l.ltype is not LayerType.DATA \
                    and l.grad_output is not None:
                total += l.grad_output.nbytes
            total += sum(g.nbytes for g in l.param_grads)
        return total

    def baseline_peak_bytes(self) -> int:
        """The naive allocation peak Σ l_f + Σ l_b (paper §3 baseline)."""
        return self.total_forward_bytes() + self.total_backward_bytes()

    def max_layer_bytes(self) -> int:
        """l_peak = max(l_i): the floor every optimization drives toward.

        l_i is the layer's *working set* — what its forward or backward
        kernel must have resident simultaneously (paper §3.4 step 1).
        A built net reads the value :meth:`build` derived.
        """
        if self._built:
            return self.l_peak
        return max(l.working_set_bytes() for l in self.layers)

    def price(self, model: DeviceModel) -> None:
        """Store every layer's price on ``model`` (:meth:`Layer.price`).
        A compiling engine calls it under its compile lock; what it
        stores is a pure function of the built net and the model, so
        every session and engine that reads it reads the same values."""
        for layer in self.layers:
            layer.price(model)

    def summary(self) -> str:
        rows = [f"{self.name}: {len(self.layers)} layers"]
        for l in self.layers:
            srcs = ",".join(p.name for p in l.prev) or "-"
            rows.append(
                f"  [{l.layer_id:4d}] {l.ltype.value:8s} {l.name:24s} "
                f"out={l.out_shape} <- {srcs}"
            )
        return "\n".join(rows)
