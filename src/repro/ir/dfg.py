"""Per-basic-block dataflow graphs.

The ISE algorithms of the paper operate on the dataflow graph (DFG) of each
basic block: nodes are the block's instructions, edges are SSA def-use
relations within the block. Values flowing in from outside the block
(arguments, phis, instructions in other blocks, constants) are graph inputs;
instruction results used outside the block (or by instructions excluded from
a candidate) are graph outputs.

Built on :class:`networkx.DiGraph` so that standard graph algorithms
(topological sort, ancestors/descendants for convexity checks) are available
to the identification algorithms.
"""

from __future__ import annotations

from typing import Collection

import networkx as nx

from repro.ir.basicblock import BasicBlock
from repro.ir.instructions import Instruction, PhiInstruction
from repro.ir.values import Value


class DataFlowGraph:
    """Dataflow graph of one basic block.

    Nodes are :class:`Instruction` objects (phis and the terminator are kept
    out of the graph body: phis act as external inputs, the terminator as an
    external consumer).
    """

    def __init__(self, block: BasicBlock) -> None:
        self.block = block
        self.graph: nx.DiGraph = nx.DiGraph()
        self._body: list[Instruction] = []
        self._body_ids: set[int] = set()

        terminator = block.terminator
        for instr in block.instructions:
            if isinstance(instr, PhiInstruction) or instr is terminator:
                continue
            self._body.append(instr)
            self._body_ids.add(id(instr))
            self.graph.add_node(instr)

        for instr in self._body:
            for operand in instr.operands:
                if isinstance(operand, Instruction) and id(operand) in self._body_ids:
                    self.graph.add_edge(operand, instr)

        self._external_uses = self._compute_external_uses()

    # -- node sets -------------------------------------------------------------
    @property
    def nodes(self) -> list[Instruction]:
        """Body instructions in original program order."""
        return list(self._body)

    def __len__(self) -> int:
        return len(self._body)

    def contains(self, instr: Instruction) -> bool:
        return id(instr) in self._body_ids

    # -- inputs / outputs ----------------------------------------------------
    def inputs_of(self, nodes: Collection[Instruction]) -> list[Value]:
        """Distinct external data inputs of a node subset, in first-use
        order over *nodes*.

        Constants are not counted as inputs (they are baked into the
        hardware datapath), matching common ISE I/O-constraint practice.
        Where port order matters, pass an ordered sequence such as
        ``Candidate.nodes``: a set iterates by memory address, so the order
        would differ between processes.
        """
        from repro.ir.values import Constant

        node_ids = {id(n) for n in nodes}
        seen: dict[int, Value] = {}
        for instr in nodes:
            for operand in instr.operands:
                if isinstance(operand, Constant):
                    continue
                if isinstance(operand, Instruction) and id(operand) in node_ids:
                    continue
                seen.setdefault(id(operand), operand)
        return list(seen.values())

    def outputs_of(self, nodes: Collection[Instruction]) -> list[Instruction]:
        """Subset members whose results are consumed outside the subset, in
        the order of *nodes* (see :meth:`inputs_of` on port order)."""
        node_ids = {id(n) for n in nodes}
        outs = []
        for instr in nodes:
            if not instr.has_result:
                continue
            used_outside = False
            for consumer in self.graph.successors(instr):
                if id(consumer) not in node_ids:
                    used_outside = True
                    break
            if not used_outside and self._external_uses.get(id(instr), False):
                used_outside = True
            if used_outside:
                outs.append(instr)
        return outs

    def _compute_external_uses(self) -> dict[int, bool]:
        """Which body instructions are used outside the DFG body.

        "Outside" means: by the block terminator, by phis in this block, or
        by any instruction in another block of the function.
        """
        external: dict[int, bool] = {}
        func = self.block.parent
        if func is None:
            return external
        for block in func.blocks:
            for instr in block.instructions:
                in_body = id(instr) in self._body_ids and not isinstance(
                    instr, PhiInstruction
                )
                is_our_terminator = instr is self.block.terminator
                if in_body and not is_our_terminator and block is self.block:
                    continue
                for operand in instr.operands:
                    if isinstance(operand, Instruction) and id(operand) in self._body_ids:
                        external[id(operand)] = True
        return external

    # -- convexity ---------------------------------------------------------
    def is_convex(self, nodes: set[Instruction] | frozenset[Instruction]) -> bool:
        """A subset is convex if no path between two members leaves the subset.

        Convexity is required for a candidate to be schedulable as a single
        atomic instruction.
        """
        node_set = set(nodes)
        node_ids = {id(n) for n in node_set}
        for node in node_set:
            for succ in self.graph.successors(node):
                if id(succ) in node_ids:
                    continue
                # Walk forward from the external successor; if we re-enter the
                # subset, the subset is non-convex.
                for reach in nx.descendants(self.graph, succ):
                    if id(reach) in node_ids:
                        return False
        return True

    def topological_order(self, nodes: set[Instruction] | None = None) -> list[Instruction]:
        """Topological order of the whole body or of an induced subgraph."""
        if nodes is None:
            graph = self.graph
        else:
            graph = self.graph.subgraph(nodes)
        order = list(nx.topological_sort(graph))
        # Stabilize: networkx topological sort is not deterministic across
        # runs for equal-rank nodes; tie-break by program order.
        rank = {id(n): i for i, n in enumerate(self._body)}
        # Kahn with deterministic tie-breaks:
        indeg = {n: graph.in_degree(n) for n in graph.nodes}
        ready = sorted(
            (n for n, d in indeg.items() if d == 0), key=lambda n: rank[id(n)]
        )
        out: list[Instruction] = []
        import heapq

        heap = [(rank[id(n)], id(n), n) for n in ready]
        heapq.heapify(heap)
        while heap:
            _, _, node = heapq.heappop(heap)
            out.append(node)
            for succ in graph.successors(node):
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    heapq.heappush(heap, (rank[id(succ)], id(succ), succ))
        if len(out) != len(order):  # pragma: no cover - cycle guard
            raise ValueError("dataflow graph contains a cycle")
        return out

    def critical_path_length(
        self,
        nodes: set[Instruction] | frozenset[Instruction],
        weight_fn,
    ) -> float:
        """Longest weighted path through the induced subgraph.

        ``weight_fn(instr) -> float`` gives each node's latency; used by the
        PivPav estimator to compute a candidate's hardware latency.
        """
        node_set = set(nodes)
        dist: dict[int, float] = {}
        best = 0.0
        for instr in self.topological_order(node_set):
            w = weight_fn(instr)
            d = w
            for pred in self.graph.predecessors(instr):
                if pred in node_set and id(pred) in dist:
                    d = max(d, dist[id(pred)] + w)
            dist[id(instr)] = d
            best = max(best, d)
        return best
