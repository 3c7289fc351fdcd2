"""Marginal and bimarginal projections of the structured plan.

The three structured families are one recursion: a path of nodes
0 .. T-1 whose messages carry one extra mode, the separator of a junction
tree (Haasler, Ringh, Chen and Karlsson, arXiv 2004.06909).  The carried
mode is

  - chain: nothing (a mode of size 1);
  - od_cycle: the state of node 0.  The forward seed is the identity and the
    chord, kernel times potential, is the carried factor of node T-1;
  - species_hub: the species index, which is the hub node.  The hub
    potential seeds the backward pass and each hub edge, kernel times
    potential, is the carried factor of its time node.

The engine computes projections by passing these messages along the path,
never materializing the tensor.  A dense reference engine does materialize
it, for small instances, and is the ground truth the path recursion is
tested against.

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
from .model import (CHAIN, GENERAL, OD_CYCLE, SPECIES_HUB, ScaledArray, smul)

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


class ChainEngine(_EngineBase):
    """Forward/backward substitution along a path with one carried mode.

    Serves the chain, od_cycle and species_hub topologies; ``T`` is the
    number of path nodes and ``carried`` maps a path node to the edge whose
    kernel and potential form its carried factor.  ``order`` walks the path
    left to right: at each node the carried edge, the node, the path edge
    to the right, then the push of the forward message past the node.  The
    hub carries no cost of its own and heads the order only so that the
    order names every node and every edge once.
    """

    def __init__(self, spec, rescale_log=None):
        topo = spec.topology
        if topo.kind not in (CHAIN, OD_CYCLE, SPECIES_HUB):
            raise TopologyMismatch("the path engine needs a chain, od_cycle or "
                                   "species_hub topology, not %r" % (topo.kind,))
        super().__init__(spec, rescale_log)
        self.T = len(topo.time_nodes)
        self.hub = topo.hub
        n0 = spec.node_sizes[0]
        if topo.kind == CHAIN:
            seed = np.ones((1, n0))
            self.carried = {}
        elif topo.kind == OD_CYCLE:
            seed = np.eye(n0)
            self.carried = {self.T - 1: topo.chord}
        else:
            seed = np.ones((topo.species_count, n0))
            self.carried = {j: (self.hub, j) for j in range(self.T)}
        self.fwd = [ScaledArray(seed, 0.0)] + [None] * (self.T - 1)
        self.bwd = [None] * self.T
        self.order = [] if self.hub is None else [("node", self.hub)]
        for j in range(self.T):
            if j in self.carried:
                self.order.append(("edge", self.carried[j]))
            self.order.append(("node", j))
            if j < self.T - 1:
                self.order += [("edge", (j, j + 1)), ("push", j)]

    def _kernel_with_edge_factor(self, e, pots):
        """Kernel times any potential factor living on the same edge."""
        k = self.spec.kernels[e]
        u_edge = pots.edge_value(e)
        if u_edge is None:
            return k.m, k.log_scale
        return k.m * u_edge.m, k.log_scale + u_edge.log_scale

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
    """Brute-force reference: materializes the plan and sums modes out.

    Every projection is recomputed from the potentials, so ``order`` needs
    no message pushes: every node, then every edge.
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

    def rebuild_backward(self, pots):
        pass

    def refresh(self, pots):
        pass

    def _axis_shape(self, axes):
        shape = [1] * len(self.sizes)
        for ax in axes:
            shape[ax] = self.sizes[ax]
        return shape

    def tensor(self, pots, exclude=None):
        """The full plan, optionally with one node or edge factor left out."""
        m = np.ones(self.sizes)
        ls = 0.0
        for j in range(len(self.sizes)):
            if exclude == ("node", j):
                continue
            u = pots.node_value(j)
            m = m * u.m.reshape(self._axis_shape([j]))
            ls += u.log_scale
        for e in self.spec.topology.edges:
            a, b = e
            km = self.spec.kernels[e].m
            ls += self.spec.kernels[e].log_scale
            if exclude != ("edge", e):
                u_edge = pots.edge_value(e)
                if u_edge is not None:
                    km = km * u_edge.m
                    ls += u_edge.log_scale
            if a < b:
                m = m * km.reshape(self._axis_shape([a, b]))
            else:
                m = m * km.T.reshape(self._axis_shape([b, a]))
        out = ScaledArray(m, ls)
        self._note(out.renormalize())
        return out

    def project(self, pots, keep, exclude=None):
        """Sum the plan over every mode not listed in ``keep``."""
        keep = tuple(keep)
        full = self.tensor(pots, exclude=exclude)
        drop = tuple(ax for ax in range(len(self.sizes)) if ax not in keep)
        m = full.m.sum(axis=drop) if drop else full.m
        order = tuple(sorted(keep))
        if order != keep:
            m = np.transpose(m, [order.index(ax) for ax in keep])
        return self._fin(m, full.log_scale)

    def w_node(self, j, pots):
        return self.project(pots, (j,), exclude=("node", j))

    def w_edge(self, e, pots):
        return self.project(pots, e, exclude=("edge", e))

    def marginal(self, j, pots):
        return self.project(pots, (j,))

    def bimarginal(self, e, pots):
        return self.project(pots, e)


def make_engine(spec, rescale_log=None):
    if spec.topology.kind == GENERAL:
        return DenseEngine(spec, rescale_log)
    return ChainEngine(spec, rescale_log)
