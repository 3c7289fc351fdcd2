"""Marginal and bimarginal projections of the structured plan.

The three structured families are one recursion: a path of nodes
0 .. T-1 whose messages carry one extra mode, the separator of a junction
tree (Haasler, Ringh, Chen and Karlsson, arXiv 2004.06909).  The carried
mode is

  - chain: nothing (a mode of size 1);
  - od_cycle, and any ``general`` graph whose edges are the path plus chords
    (0, b): the state of node 0.  The forward seed is the identity and each
    chord (0, b), kernel times potential, is the carried factor of node b;
  - species_hub: the species index, which is the hub node.  The hub
    potential seeds the backward pass and each hub edge, kernel times
    potential, is the carried factor of its time node.

The engine computes projections by passing these messages along the path,
never materializing the tensor.  A dense engine sums out one variable at a
time (variable elimination) on every other small ``general`` graph.  It is
also the reference the path recursion is tested against, and is itself
tested against a brute-force tensor.

Message conventions (messages have shape ``(carried, n_j)``):
  - forward messages aggregate everything strictly left of a node,
  - backward messages aggregate everything strictly right of it,
  - the potential and the carried factor of the node itself are always
    excluded, so the coordinate update weights come straight from message
    products without any division.
"""

import math

import numpy as np

from .errors import SizeBoundExceeded, TopologyMismatch
from .model import GENERAL, SPECIES_HUB, ScaledArray, smul

DENSE_ENTRY_BUDGET = 6 ** 6


class _EngineBase:
    def __init__(self, spec, rescale_log=None):
        self.spec = spec
        self._log = rescale_log

    def _note(self, shift):
        if self._log is not None:
            self._log.note(shift)

    def _fin(self, mantissa, log_scale):
        arr = ScaledArray(mantissa, log_scale)
        self._note(arr.renormalize())
        return arr

    def _kernel_with_edge_factor(self, e, pots):
        """Kernel times any potential factor living on the same edge."""
        k = self.spec.kernels[e]
        u_edge = pots.edge_value(e)
        if u_edge is None:
            return k.m, k.log_scale
        return k.m * u_edge.m, k.log_scale + u_edge.log_scale


class ChainEngine(_EngineBase):
    """Forward/backward substitution along a path with one carried mode.

    Serves the chain, od_cycle and species_hub topologies and every graph
    whose edges are the path plus chords from node 0 (``path_chords``).
    ``T`` is the number of path nodes and ``carried`` maps a path node to
    the edge whose kernel and potential form its carried factor.  ``order``
    walks the path left to right: at each node the carried edge, the node,
    the path edge to the right, then the push of the forward message past
    the node.  The hub carries no cost of its own and heads the order only
    so that the order names every node and every edge once.
    """

    def __init__(self, spec, rescale_log=None):
        topo = spec.topology
        chords = topo.path_chords
        if topo.kind != SPECIES_HUB and chords is None:
            raise TopologyMismatch("the path engine needs a species hub or a path plus "
                                   "chords from node 0, not the edges %r" % (topo.edges,))
        super().__init__(spec, rescale_log)
        self.T = len(topo.time_nodes)
        self.hub = topo.hub
        n0 = spec.node_sizes[0]
        if self.hub is not None:
            seed = np.ones((topo.species_count, n0))
            self.carried = {j: (self.hub, j) for j in range(self.T)}
        else:
            seed = np.eye(n0) if chords else np.ones((1, n0))
            self.carried = {b: (0, b) for _, b in chords}
        self.fwd = [ScaledArray(seed, 0.0)] + [None] * (self.T - 1)
        self.bwd = [None] * self.T
        self.order = [] if self.hub is None else [("node", self.hub)]
        for j in range(self.T):
            if j in self.carried:
                self.order.append(("edge", self.carried[j]))
            self.order.append(("node", j))
            if j < self.T - 1:
                self.order += [("edge", (j, j + 1)), ("push", j)]

    def _times_carried(self, m, ls, j, pots):
        """``(m, ls)`` times the carried factor of path node ``j``, if it has one."""
        e = self.carried.get(j)
        if e is None:
            return m, ls
        fm, fls = self._kernel_with_edge_factor(e, pots)
        return m * fm, ls + fls

    def _absorb(self, msg, j, pots):
        """A message times the carried factor and the potential of node ``j``."""
        m, ls = self._times_carried(msg.m, msg.log_scale, j, pots)
        u = pots.node_value(j)
        return m * u.m, ls + u.log_scale

    def _joint(self, j, pots):
        """Carried mode by the state of path node ``j``: the plan summed over the rest."""
        u = pots.node_value(j)
        fwd, bwd = self.fwd[j], self.bwd[j]
        return self._times_carried(u.m * fwd.m * bwd.m,
                                   u.log_scale + fwd.log_scale + bwd.log_scale, j, pots)

    def _carried_node(self, e):
        """The path node whose carried factor edge ``e`` is, or None."""
        return e[1] if self.carried.get(e[1]) == e else None

    def _path_node(self, e):
        j = e[0]
        if e != (j, j + 1) or j + 1 >= self.T:
            raise TopologyMismatch("no path or carried edge %r in the %s engine"
                                   % (e, self.spec.topology.kind))
        return j

    def refresh(self, pots):
        self.rebuild_backward(pots)
        for j in range(self.T - 1):
            self.push_forward(j, pots)

    def rebuild_backward(self, pots):
        last = self.T - 1
        if self.hub is None:
            seed = ScaledArray(np.ones(self.fwd[0].shape[0]), 0.0)
        else:
            seed = pots.node_value(self.hub)
        self.bwd[last] = self._fin(
            np.broadcast_to(seed.m[:, None],
                            (seed.m.size, self.spec.node_sizes[last])).copy(),
            seed.log_scale)
        for j in range(last - 1, -1, -1):
            m, ls = self._absorb(self.bwd[j + 1], j + 1, pots)
            km, kls = self._kernel_with_edge_factor((j, j + 1), pots)
            self.bwd[j] = self._fin(m @ km.T, ls + kls)

    def push_forward(self, j, pots):
        m, ls = self._absorb(self.fwd[j], j, pots)
        km, kls = self._kernel_with_edge_factor((j, j + 1), pots)
        self.fwd[j + 1] = self._fin(m @ km, ls + kls)

    def w_node(self, j, pots):
        fwd, bwd = self.fwd[j], self.bwd[j]
        m, ls = self._times_carried(fwd.m * bwd.m, fwd.log_scale + bwd.log_scale, j, pots)
        return self._fin(m.sum(axis=0), ls)

    def w_edge(self, e, pots):
        j = self._carried_node(e)
        if j is not None:
            u = pots.node_value(j)
            k = self.spec.kernels[e]
            fwd, bwd = self.fwd[j], self.bwd[j]
            return self._fin(fwd.m * bwd.m * u.m * k.m,
                             fwd.log_scale + bwd.log_scale + u.log_scale + k.log_scale)
        j = self._path_node(e)
        left = self._fin(*self._absorb(self.fwd[j], j, pots))
        right = self._fin(*self._absorb(self.bwd[j + 1], j + 1, pots))
        k = self.spec.kernels[e]
        return self._fin(k.m * (left.m.T @ right.m),
                         k.log_scale + left.log_scale + right.log_scale)

    def marginal(self, j, pots):
        if j == self.hub:
            m, ls = self._joint(0, pots)
            return self._fin(m.sum(axis=1), ls)
        m, ls = self._joint(j, pots)
        return self._fin(m.sum(axis=0), ls)

    def bimarginal(self, e, pots):
        j = self._carried_node(e)
        if j is not None:
            return self._fin(*self._joint(j, pots))
        w = self.w_edge(e, pots)
        u_edge = pots.edge_value(e)
        if u_edge is None:
            return w
        return smul(w, u_edge, note=self._note)


class DenseEngine(_EngineBase):
    """Variable elimination on a small graph of any topology (arXiv 2006.14113).

    ``make_engine`` picks it for every ``general`` graph the path engine
    does not fit; on any graph it is the oracle the path engine is checked
    against.

    A projection contracts the node potentials and, per edge, the kernel
    times any edge potential, leaving an excluded factor out.  The pairwise
    order of each ``(keep, exclude)`` signature comes from ``np.einsum_path``
    once per engine and is replayed with plain ``np.einsum``, so the plan
    tensor is never formed.  ``order``: every node, then every edge.
    """

    def __init__(self, spec, rescale_log=None):
        super().__init__(spec, rescale_log)
        self.sizes = list(spec.node_sizes)
        total = math.prod(self.sizes)
        if total > DENSE_ENTRY_BUDGET:
            raise SizeBoundExceeded("dense reference limited to %d entries, instance has %d"
                                    % (DENSE_ENTRY_BUDGET, total))
        self.order = ([("node", j) for j in range(len(self.sizes))]
                      + [("edge", e) for e in spec.topology.edges])
        self._plans = {}

    def rebuild_backward(self, pots):
        pass

    def refresh(self, pots):
        pass

    def _plan(self, keep, exclude):
        """Contraction steps ``(positions, "ab,bc->ac")`` of one signature.

        A step pops the operands at ``positions`` and appends their
        contraction, which keeps only the modes ``keep`` or a later operand needs.
        """
        letter = [chr(ord("a") + j) for j in range(len(self.sizes))]
        subs = [letter[j] for j in range(len(self.sizes)) if exclude != ("node", j)]
        subs += [letter[a] + letter[b] for a, b in self.spec.topology.edges]
        out = "".join(letter[j] for j in keep)
        shapes = [np.empty([self.sizes[letter.index(c)] for c in s]) for s in subs]
        steps = []
        for pos in np.einsum_path(",".join(subs) + "->" + out, *shapes, optimize="greedy")[0][1:]:
            pos = sorted(pos, reverse=True)
            taken = [subs.pop(p) for p in pos]
            live = set(out).union(*subs)
            res = "".join(sorted(set("".join(taken)) & live)) if subs else out
            steps.append((pos, ",".join(taken) + "->" + res))
            subs.append(res)
        return steps

    def project(self, pots, keep, exclude=None):
        """Sum the plan over every mode not listed in ``keep``, in ``keep`` order."""
        key = (tuple(keep), exclude)
        if key not in self._plans:
            self._plans[key] = self._plan(*key)
        nodes = [pots.node_value(j) for j in range(len(self.sizes)) if exclude != ("node", j)]
        ops, ls = [u.m for u in nodes], sum(u.log_scale for u in nodes)
        for e in self.spec.topology.edges:
            k = self.spec.kernels[e]
            m, kls = ((k.m, k.log_scale) if exclude == ("edge", e)
                      else self._kernel_with_edge_factor(e, pots))
            ops.append(m)
            ls += kls
        for pos, subscripts in self._plans[key]:
            ops.append(np.einsum(subscripts, *[ops.pop(p) for p in pos]))
        return self._fin(ops[0], ls)

    def w_node(self, j, pots):
        return self.project(pots, (j,), exclude=("node", j))

    def w_edge(self, e, pots):
        return self.project(pots, e, exclude=("edge", e))

    def marginal(self, j, pots):
        return self.project(pots, (j,))

    def bimarginal(self, e, pots):
        return self.project(pots, e)


def make_engine(spec, rescale_log=None):
    if spec.topology.kind == GENERAL and spec.topology.path_chords is None:
        return DenseEngine(spec, rescale_log)
    return ChainEngine(spec, rescale_log)
