"""Layer base class: shapes, parameters, cost model, compute contract.

A layer is a node in the network DAG.  It owns:

* its output tensor descriptor (created once at build time — shapes are
  static, placement is not);
* its parameter tensors (long-lived, never scheduled by liveness);
* the NumPy kernels that compute forward/backward values;
* the analytic cost model used by the simulated timeline.

The scheduling-relevant byte quantities of the paper's cost model map
onto methods here: ``l_f`` (forward memory of the layer) and ``l_b``
(extra memory the backward step needs).
"""

from __future__ import annotations

import enum
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.check.instrument import TracedLock
from repro.device.model import DeviceModel
from repro.tensors.tensor import Tensor, TensorKind


class LayerType(enum.Enum):
    """Layer taxonomy used for checkpoints and Fig. 8 breakdowns."""

    DATA = "DATA"
    CONV = "CONV"
    POOL = "POOL"
    ACT = "ACT"
    FC = "FC"
    LRN = "LRN"
    BN = "BN"
    DROPOUT = "DROPOUT"
    SOFTMAX = "SOFTMAX"
    JOIN = "JOIN"
    CONCAT = "CONCAT"


#: Layers whose forward outputs UTP offloads (paper §3.3.1 offloads only
#: CONV outputs; DATA is included as segment anchor for recomputation).
CHECKPOINT_TYPES = frozenset({LayerType.CONV, LayerType.FC, LayerType.DATA})

#: Layers cheap enough that recomputation frees their outputs.
RECOMPUTE_TYPES = frozenset(
    {LayerType.POOL, LayerType.ACT, LayerType.LRN, LayerType.BN,
     LayerType.DROPOUT, LayerType.JOIN, LayerType.CONCAT}
)


@dataclass
class LayerContext:
    """Per-execution context passed to kernels.

    ``iteration`` seeds dropout masks so a recomputation pass replays
    exactly the same mask the original forward used — without this,
    recompute would silently change the training trajectory.

    ``labels`` and ``last_loss`` thread the batch labels (set by the
    data layer) and the scalar loss (set by the softmax layer) through
    the iteration.  They used to live on the shared layer objects,
    which concurrent sessions of one engine would race on; a
    ``LayerContext`` belongs to exactly one session's iteration.

    ``feed`` carries a caller-supplied input batch: when set, the data
    layer returns it instead of calling its provider (the serving path
    — :mod:`repro.serve` assembles request batches and feeds them in).
    ``capture_final`` asks the executor to keep the terminal layer's
    concrete output on ``final_output`` so serving can hand per-request
    rows back; both ride the per-session context, so concurrent
    sessions of one engine feed and capture independently.
    """

    iteration: int = 0
    training: bool = True
    rng_salt: int = 0
    labels: Optional["np.ndarray"] = None
    last_loss: Optional[float] = None
    feed: Optional["np.ndarray"] = None
    capture_final: bool = False
    final_output: Optional["np.ndarray"] = None

    def layer_rng(self, layer_id: int) -> np.random.Generator:
        seed = (self.rng_salt * 1_000_003 + self.iteration) * 131_071 + layer_id
        return np.random.default_rng(seed & 0x7FFFFFFF)


#: the bytes of He-normal draws :func:`he_normal` keeps
DRAWS_LIMIT = 128 << 20
#: (seed, shape, fan-in) -> its draw, least recently used first
_draws: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
_draws_lock = TracedLock("layers.draws")


def he_normal(seed: int, shape: Tuple[int, ...], fan_in: int) -> np.ndarray:
    """The seeded He-normal initial weights N(0, 2 / ``fan_in``) of
    ``shape``, float32 and read-only.  A pure function of its
    arguments, so one array serves every build of a layer: the draws
    are memoised, the least recently used going once they hold more
    than :data:`DRAWS_LIMIT` bytes.  Training never writes a weight in
    place (an optimizer step makes a new array), and anything that
    tried would raise."""
    key = (seed, shape, fan_in)
    with _draws_lock:
        w = _draws.get(key)
        if w is not None:
            _draws.move_to_end(key)
            return w
    w = np.random.default_rng(seed).normal(
        0.0, np.sqrt(2.0 / fan_in), size=shape).astype(np.float32)
    w.flags.writeable = False
    with _draws_lock:
        _draws[key] = w
        held = sum(a.nbytes for a in _draws.values())
        while held > DRAWS_LIMIT:
            held -= _draws.popitem(last=False)[1].nbytes
    return w


class _LazyParams(dict):
    """tensor_id -> value map that materializes initial values on first
    access.  Simulated-mode runs (descriptor-only) never touch values,
    so multi-thousand-layer capacity probes skip all the RNG work."""

    def __init__(self):
        super().__init__()
        self.factories: Dict[int, "Callable[[], np.ndarray]"] = {}

    def __missing__(self, key: int) -> np.ndarray:
        value = self.factories[key]()
        self[key] = value
        return value


class Price(NamedTuple):
    """A layer's default kernel times on one device model: a pure
    function of the built layer and the model, stored by
    :meth:`Layer.price`."""

    model: DeviceModel
    forward_s: float
    backward_s: float


class Layer:
    """Abstract layer.  Subclasses implement shapes, kernels, and costs.

    Its default kernel times are read from a price the compiling engine
    stores once per device model (:meth:`price`); a model the layer was
    never priced for is priced on every call and stored nowhere.
    """

    ltype: LayerType = LayerType.DATA
    #: ``ltype`` in CHECKPOINT_TYPES / RECOMPUTE_TYPES, derived once per
    #: class (every ``ltype`` is class-level), so a read hashes no enum
    is_checkpoint: bool = ltype in CHECKPOINT_TYPES
    is_recomputable: bool = ltype in RECOMPUTE_TYPES

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.is_checkpoint = cls.ltype in CHECKPOINT_TYPES
        cls.is_recomputable = cls.ltype in RECOMPUTE_TYPES

    def __init__(self, name: str):
        self.name = name
        self.layer_id: int = -1              # assigned by Net.add
        self.prev: List["Layer"] = []
        self._next: List["weakref.ref[Layer]"] = []
        self.in_shapes: List[Tuple[int, ...]] = []
        self.out_shape: Tuple[int, ...] = ()
        self.output: Optional[Tensor] = None
        self.grad_output: Optional[Tensor] = None
        self.params: List[Tensor] = []
        self.param_grads: List[Tensor] = []
        self.param_values: _LazyParams = _LazyParams()  # tensor_id -> value
        #: the working set ``working_set_bytes()``, derived by every
        #: ``Net.build()`` once the whole graph is wired (0 before)
        self.l_i: int = 0
        #: one price per device model priced, replaced whole (never
        #: mutated), so a reader sees the tuple before or after a store
        self._prices: tuple = ()

    # -- graph wiring (called by Net) ----------------------------------------
    def connect_from(self, sources: Sequence["Layer"]) -> None:
        for s in sources:
            self.prev.append(s)
            s._next.append(weakref.ref(self))

    @property
    def next(self) -> List["Layer"]:
        """The layers that read this one's output, in wiring order.

        Held weakly: the :class:`~repro.graph.network.Net` owns its
        layers, and the only strong links between layers run from a
        consumer to its inputs (``prev``), so a built net holds no
        reference cycle and is freed by reference counting alone.  A
        consumer whose net has been dropped is gone from the list."""
        consumers = [ref() for ref in self._next]
        return consumers if None not in consumers \
            else [c for c in consumers if c is not None]

    def infer(self) -> None:
        """Shape inference only (run at wiring time so builders can read
        ``out_shape`` of intermediate layers mid-construction)."""
        self.in_shapes = [p.out_shape for p in self.prev]
        self.out_shape = self.infer_shape(self.in_shapes)

    def build(self) -> None:
        """Create tensor descriptors and parameters (idempotent-safe:
        called once by Net.build)."""
        if not self.out_shape:
            self.infer()
        self.output = Tensor(
            self.out_shape, TensorKind.DATA,
            name=f"{self.name}:out", producer=self.layer_id,
        )
        self.grad_output = Tensor(
            self.out_shape, TensorKind.GRAD,
            name=f"{self.name}:grad", producer=self.layer_id,
        )
        self._build_params()

    def infer_shape(self, in_shapes: List[Tuple[int, ...]]) -> Tuple[int, ...]:
        raise NotImplementedError

    def _build_params(self) -> None:
        """Create parameter descriptors + initial values (default: none)."""

    def _add_param(self, shape: Tuple[int, ...], init, tag: str) -> Tensor:
        """Register a parameter.  ``init`` is either an ndarray or a
        zero-arg factory producing one (factories defer the RNG work
        until a concrete-mode execution actually reads the value)."""
        p = Tensor(shape, TensorKind.PARAM, name=f"{self.name}:{tag}",
                   producer=self.layer_id)
        g = Tensor(shape, TensorKind.PARAM_GRAD, name=f"{self.name}:d{tag}",
                   producer=self.layer_id)
        self.params.append(p)
        self.param_grads.append(g)
        if callable(init):
            self.param_values.factories[p.tensor_id] = (
                lambda: np.ascontiguousarray(init(), dtype=np.float32)
            )
        else:
            self.param_values[p.tensor_id] = np.ascontiguousarray(
                init, dtype=np.float32
            )
        return p

    # -- compute contract ------------------------------------------------------
    def forward(
        self, inputs: List[np.ndarray], ctx: LayerContext
    ) -> np.ndarray:
        """Compute the output value from input values."""
        raise NotImplementedError

    def backward(
        self,
        inputs: List[np.ndarray],
        output: np.ndarray,
        grad_out: np.ndarray,
        ctx: LayerContext,
    ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Return (grads w.r.t. each input, grads w.r.t. each param)."""
        raise NotImplementedError

    #: inputs the backward kernel actually reads.  Most layers need their
    #: forward inputs; ReLU/Pool variants can work from the output alone.
    needs_inputs_in_backward: bool = True
    needs_output_in_backward: bool = True

    # -- cost model ----------------------------------------------------------------
    def flops_forward(self) -> float:
        """FLOPs of one forward execution (0 for pure data movement)."""
        return 0.0

    def flops_backward(self) -> float:
        return 2.0 * self.flops_forward()

    def bytes_touched_forward(self) -> float:
        """Bytes read+written by the forward kernel (memory-bound model)."""
        inp = sum(_nbytes(s) for s in self.in_shapes)
        return inp + _nbytes(self.out_shape)

    def bytes_touched_backward(self) -> float:
        return 2.0 * self.bytes_touched_forward()

    def is_compute_bound(self) -> bool:
        return self.ltype in (LayerType.CONV, LayerType.FC)

    def _price(self, model: DeviceModel) -> Price:
        """Derive the layer's default kernel times on ``model``."""
        if self.is_compute_bound():
            fw = self.flops_forward() / model.compute_tflops
            bw = self.flops_backward() / model.compute_tflops
        else:
            fw = self.bytes_touched_forward() / model.mem_bandwidth
            bw = self.bytes_touched_backward() / model.mem_bandwidth
        return Price(model, fw + model.kernel_launch_overhead,
                     bw + model.kernel_launch_overhead)

    def price(self, model: DeviceModel) -> None:
        """Store the layer's price on ``model`` unless it holds one.

        Only a compiling engine calls it, under its compile lock, before
        any executor of its planning runs; a session only reads.  Two
        engines over one net may each store their own model's price;
        should their compiles race and one store be lost, that model is
        priced per call — the same values, not stored."""
        prices = self._prices
        if all(p.model is not model for p in prices):
            self._prices = (*prices, self._price(model))

    def _priced(self, model: DeviceModel):
        for p in self._prices:
            if p.model is model:
                return p
        return self._price(model)

    def sim_time_forward(self, model: DeviceModel) -> float:
        """Simulated duration of the forward kernel on ``model``."""
        return self._priced(model).forward_s

    def sim_time_backward(self, model: DeviceModel) -> float:
        return self._priced(model).backward_s

    # -- paper cost-model quantities ----------------------------------------------
    def l_f(self) -> int:
        """Forward memory of the layer: its output bytes (paper's l_f)."""
        return self.output.nbytes if self.output is not None else 0

    def l_b(self) -> int:
        """Backward memory: gradient bytes this layer's backward creates."""
        grad = self.grad_output.nbytes if self.grad_output is not None else 0
        return grad + sum(g.nbytes for g in self.param_grads)

    def working_set_bytes(self) -> int:
        """Peak bytes the layer's own computation must have resident —
        the paper's ``l_i`` whose maximum is the floor ``l_peak``.

        Forward: inputs + output + params.  Backward: the forward
        tensors the kernel reads (per the cuDNN-signature flags) +
        incoming gradient + produced input-gradients + params + param
        grads.  For AlexNet's big LRN/ACT layers this is the paper's
        "4 tensors of one layer" (x, y, dy, dx) quantity.
        """
        params = sum(p.nbytes for p in self.params)
        in_bytes = sum(_nbytes(s) for s in self.in_shapes)
        out_bytes = _nbytes(self.out_shape) if self.out_shape else 0
        fw = in_bytes + out_bytes + params

        bw = params + sum(g.nbytes for g in self.param_grads)
        if self.needs_inputs_in_backward:
            bw += in_bytes
        if self.needs_output_in_backward:
            bw += out_bytes
        if self.next:                      # incoming gradient dy
            bw += out_bytes
        if self.prev and self.prev[0].out_shape:  # produced dx per input
            bw += in_bytes
        return max(fw, bw)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"{type(self).__name__}(id={self.layer_id}, name={self.name!r}, "
                f"out={self.out_shape})")


def _nbytes(shape: Tuple[int, ...], itemsize: int = 4) -> int:
    n = 1
    for d in shape:
        n *= int(d)
    return n * itemsize
