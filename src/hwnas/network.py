"""Parameter and MAC counts of the network a cell genome stacks into, and its layer DAG.

The macro skeleton stacks the searched cell: ``num_reduction_cells + 1``
stages of ``N`` stride-1 cells separated by stride-2 cells, then global
average pooling and a linear classifier.  Filter count starts at ``F`` and
doubles immediately after each stride-2 cell.  No weights are materialized.
:func:`network_costs` counts the totals per cell, and the evaluator uses it;
:func:`build_network` expands the same network into a graph with shapes and
per-node counts, for inspection, and its totals are the reference the count
is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .search_space import (
    CellGenome,
    GenomeError,
    Operation,
    unused_block_outputs,
    validate_genome,
)

KIND_INPUT = "input"
KIND_OP = "op"
KIND_ADD = "add"
KIND_CONCAT = "concat"
KIND_PROJECTION = "projection1x1"
KIND_GLOBAL_POOL = "global_pool"
KIND_CLASSIFIER = "classifier"


class BuildError(ValueError):
    """Inconsistent macro parameters or shapes during graph construction."""


@dataclass(frozen=True)
class TensorShape:
    height: int
    width: int
    channels: int

    def __post_init__(self) -> None:
        if self.height <= 0 or self.width <= 0 or self.channels <= 0:
            raise BuildError(f"tensor dimensions must be positive: {self}")

    def spatial(self) -> tuple[int, int]:
        return (self.height, self.width)


@dataclass(frozen=True)
class MacroConfig:
    """Macro network parameters: cell repeats N, initial filters F, reductions, input, classes."""

    N: int = 2
    F: int = 24
    num_reduction_cells: int = 2
    input_shape: TensorShape = TensorShape(32, 32, 3)
    num_classes: int = 10

    def __post_init__(self) -> None:
        for name in ("N", "F", "num_reduction_cells", "num_classes"):
            value = getattr(self, name)
            if type(value) is not int:
                raise BuildError(f"{name} must be an int, got {value!r}")
        # A JSON config gives input_shape as a list, checked before TensorShape compares it.
        shape = self.input_shape
        dims = [shape.height, shape.width, shape.channels] if isinstance(shape, TensorShape) else shape
        if not (isinstance(dims, list) and len(dims) == 3 and all(type(v) is int for v in dims)):
            raise BuildError(f"input_shape must hold three ints, got {dims!r}")
        object.__setattr__(self, "input_shape", TensorShape(*dims))
        if self.N < 1 or self.F < 1:
            raise BuildError("N and F must be >= 1")
        if self.num_reduction_cells < 0:
            raise BuildError("num_reduction_cells must be >= 0")
        if self.num_classes < 1:
            raise BuildError("num_classes must be >= 1")
        divisor = 2**self.num_reduction_cells
        if self.input_shape.height % divisor or self.input_shape.width % divisor:
            raise BuildError(
                f"input {self.input_shape.height}x{self.input_shape.width} not divisible "
                f"by 2^{self.num_reduction_cells}"
            )

    def to_json_dict(self) -> dict:
        return {
            "N": self.N,
            "F": self.F,
            "num_reduction_cells": self.num_reduction_cells,
            "input_shape": [
                self.input_shape.height,
                self.input_shape.width,
                self.input_shape.channels,
            ],
            "num_classes": self.num_classes,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "MacroConfig":
        if not isinstance(d, dict):
            raise BuildError(f"macro must be a JSON object (dict), got {d!r}")
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise BuildError(f"unknown macro fields: {sorted(unknown)}")
        return cls(**d)


@dataclass(frozen=True)
class LayerNode:
    id: int
    kind: str
    inputs: tuple[int, ...]
    out_shape: TensorShape
    params: int
    flops: int
    op: Operation | None = None


@dataclass(frozen=True)
class NetworkGraph:
    """Topologically ordered DAG with per-node and aggregate cost counts."""

    nodes: tuple[LayerNode, ...]
    total_params: int
    total_flops: int
    output_id: int


def count_params(kind: str, in_channels: int, out_channels: int, kernel: int = 1) -> int:
    """Weight count per node kind; biases and normalization are excluded.

    conv k: k^2*Cin*Cout; sep k: k^2*Cin + Cin*Cout (depthwise + pointwise);
    projection1x1 and classifier: Cin*Cout; everything else: 0.
    """
    if in_channels <= 0 or out_channels <= 0 or kernel <= 0:
        raise BuildError("count_params requires positive dimensions")
    if kind == "conv":
        return kernel * kernel * in_channels * out_channels
    if kind == "sep":
        return kernel * kernel * in_channels + in_channels * out_channels
    if kind in (KIND_PROJECTION, KIND_CLASSIFIER):
        return in_channels * out_channels
    return 0


def count_flops(kind: str, out_shape: TensorShape, in_channels: int, kernel: int = 1) -> int:
    """Multiply-accumulate count per node.

    Weighted nodes cost params * out_height * out_width; max pooling counts
    k^2 comparisons per output element; add costs one op per element;
    identity, concat, pooling-to-scalar and input cost nothing.
    """
    h, w, c = out_shape.height, out_shape.width, out_shape.channels
    if kind in ("conv", "sep", KIND_PROJECTION, KIND_CLASSIFIER):
        return count_params(kind, in_channels, c, kernel) * h * w
    if kind == "max":
        return kernel * kernel * h * w * c
    if kind == KIND_ADD:
        return h * w * c
    return 0


class _GraphBuilder:
    def __init__(self) -> None:
        self.nodes: list[LayerNode] = []

    def shape(self, node_id: int) -> TensorShape:
        return self.nodes[node_id].out_shape

    def add(
        self,
        kind: str,
        inputs: tuple[int, ...],
        out_shape: TensorShape,
        op: Operation | None = None,
        cost_kind: str | None = None,
        kernel: int = 1,
    ) -> int:
        for i in inputs:
            if not 0 <= i < len(self.nodes):
                raise BuildError(f"node input {i} not yet defined")
        in_channels = self.nodes[inputs[0]].out_shape.channels if inputs else 1
        ck = cost_kind if cost_kind is not None else kind
        params = count_params(ck, max(in_channels, 1), out_shape.channels, kernel) if inputs else 0
        flops = count_flops(ck, out_shape, max(in_channels, 1), kernel) if inputs else 0
        node = LayerNode(
            id=len(self.nodes),
            kind=kind,
            inputs=inputs,
            out_shape=out_shape,
            params=params,
            flops=flops,
            op=op,
        )
        self.nodes.append(node)
        return node.id

    def finish(self, output_id: int) -> NetworkGraph:
        return NetworkGraph(
            nodes=tuple(self.nodes),
            total_params=sum(n.params for n in self.nodes),
            total_flops=sum(n.flops for n in self.nodes),
            output_id=output_id,
        )


def _append_cell(
    b: _GraphBuilder,
    genome: CellGenome,
    prev_id: int,
    prev_prev_id: int,
    filters: int,
    stride: int,
) -> int:
    """Append one cell reading from two earlier nodes; returns the concat output id."""
    violations = validate_genome(genome)
    if violations:
        raise GenomeError("; ".join(violations))
    if filters < 1:
        raise BuildError("filters must be >= 1")
    if stride not in (1, 2):
        raise BuildError(f"stride must be 1 or 2, got {stride}")

    prev_shape = b.shape(prev_id)
    if prev_shape.height % stride or prev_shape.width % stride:
        raise BuildError(f"spatial size {prev_shape.spatial()} not divisible by stride {stride}")
    target_h = prev_shape.height // stride
    target_w = prev_shape.width // stride
    target = TensorShape(target_h, target_w, filters)

    # External inputs are aligned lazily: a 1x1 projection (stride 1 or 2) is
    # inserted only when a block actually consumes an input whose channel
    # count or spatial size differs from the cell's working shape.
    sources = {0: prev_id, 1: prev_prev_id}
    aligned: dict[int, int] = {}

    def external(ref: int) -> int:
        if ref not in aligned:
            src = sources[ref]
            shape = b.shape(src)
            if shape == target:
                aligned[ref] = src
            else:
                if shape.height % target_h or shape.width % target_w:
                    raise BuildError(
                        f"cannot align input of shape {shape} to {target.spatial()}"
                    )
                ratio_h = shape.height // target_h
                ratio_w = shape.width // target_w
                if ratio_h != ratio_w or ratio_h not in (1, 2):
                    raise BuildError(
                        f"projection stride {ratio_h}x{ratio_w} unsupported (shape {shape})"
                    )
                aligned[ref] = b.add(KIND_PROJECTION, (src,), target)
        return aligned[ref]

    block_outputs: list[int] = []
    for blk in genome.blocks:
        op_ids = []
        for ref, op in ((blk.input1, blk.op1), (blk.input2, blk.op2)):
            in_id = external(ref) if ref < 2 else block_outputs[ref - 2]
            op_ids.append(
                b.add(
                    KIND_OP,
                    (in_id,),
                    target,
                    op=op,
                    cost_kind=op.family,
                    kernel=op.kernel_size,
                )
            )
        block_outputs.append(b.add(KIND_ADD, tuple(op_ids), target))

    unused = sorted(unused_block_outputs(genome))
    concat_shape = TensorShape(target_h, target_w, filters * len(unused))
    return b.add(KIND_CONCAT, tuple(block_outputs[j] for j in unused), concat_shape)


def build_cell(
    genome: CellGenome,
    prev_shape: TensorShape,
    prev_prev_shape: TensorShape,
    filters: int,
    stride: int,
) -> NetworkGraph:
    """Build one cell as a standalone subgraph with two input nodes and one concat output."""
    b = _GraphBuilder()
    prev_id = b.add(KIND_INPUT, (), prev_shape)
    prev_prev_id = b.add(KIND_INPUT, (), prev_prev_shape)
    out = _append_cell(b, genome, prev_id, prev_prev_id, filters, stride)
    return b.finish(out)


def build_network(genome: CellGenome, macro: MacroConfig) -> NetworkGraph:
    """Stack the cell per the macro skeleton and finish with pooling + classifier."""
    b = _GraphBuilder()
    in_id = b.add(KIND_INPUT, (), macro.input_shape)
    prev_prev = in_id
    prev = in_id
    filters = macro.F
    for stage in range(macro.num_reduction_cells + 1):
        for _ in range(macro.N):
            out = _append_cell(b, genome, prev, prev_prev, filters, stride=1)
            prev_prev, prev = prev, out
        if stage < macro.num_reduction_cells:
            out = _append_cell(b, genome, prev, prev_prev, filters, stride=2)
            prev_prev, prev = prev, out
            filters *= 2

    final = b.shape(prev)
    pooled = b.add(KIND_GLOBAL_POOL, (prev,), TensorShape(1, 1, final.channels))
    logits = b.add(KIND_CLASSIFIER, (pooled,), TensorShape(1, 1, macro.num_classes))
    return b.finish(logits)


def network_costs(genome: CellGenome, macro: MacroConfig) -> tuple[int, int]:
    """``(total_params, total_flops)`` of ``build_network(genome, macro)``, without the graph.

    The genome's ops are summed once, so each cell of the macro plan costs
    O(1): with F working filters, a cell's ops weigh ``square*F^2 +
    linear*F`` (conv k: k^2 F^2; sep k: k^2 F + F^2), and every weighted
    node, the 1x1 projections included, costs its weights times H'W' MACs.
    Max pooling adds k^2 H'W'F and each block's add H'W'F.
    """
    violations = validate_genome(genome)
    if violations:
        raise GenomeError("; ".join(violations))
    square = linear = per_element = 0
    external: set[int] = set()
    consumed: set[int] = set()
    for blk in genome.blocks:
        per_element += 1  # the block's add
        for ref, op in ((blk.input1, blk.op1), (blk.input2, blk.op2)):
            if ref < 2:
                external.add(ref)
            else:
                consumed.add(ref - 2)
            k2 = op.kernel_size**2
            family = op.family
            if family == "conv":
                square += k2
            elif family == "sep":
                square += 1
                linear += k2
            elif family == "max":
                per_element += k2
    concat_width = genome.num_blocks - len(consumed)

    shape = macro.input_shape
    prev = prev_prev = (shape.height, shape.width, shape.channels)
    strides = ([1] * macro.N + [2]) * macro.num_reduction_cells + [1] * macro.N
    filters = macro.F
    params = flops = 0
    for stride in strides:
        target = (prev[0] // stride, prev[1] // stride, filters)
        area = target[0] * target[1]
        weights = square * filters * filters + linear * filters
        for ref in external:
            source = prev if ref == 0 else prev_prev
            if source != target:
                weights += source[2] * filters
        params += weights
        flops += (weights + per_element * filters) * area
        prev_prev, prev = prev, (target[0], target[1], filters * concat_width)
        if stride == 2:
            filters *= 2
    classifier = prev[2] * macro.num_classes
    return params + classifier, flops + classifier
