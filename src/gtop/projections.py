"""Marginal and bimarginal projections of the structured plan.

Every projection is its block's update weight times its own factor,
``P_b = u_b * w_b``, where ``w_b`` is the plan summed onto the block's modes
with ``u_b`` left out.  ``_EngineBase`` forms that product once.  An engine
implements its weights ``w_node``/``w_edge``, its sweep ``order`` and, if it
passes messages, ``refresh``, ``rebuild_backward`` and ``push_forward``.

Every structured graph is one recursion: a path whose messages carry one
extra mode, the separator of a junction tree (Haasler, Ringh, Chen and
Karlsson, arXiv 2004.06909).  ``GraphTopology.path_chords`` names the path
and the chords (path[0], b) off it; the carried mode is the state of the
path's first node.  With no chord it is dropped (a mode of size 1).  With
chords the forward seed is the identity, and each chord, kernel times
potential, is the carried factor of its node b.  Which graphs are such a
path, and in which node order, is the topology's decision alone.

The path engine computes its weights by passing these messages along the path,
never materializing the tensor.  A dense engine sums out one variable at a
time (variable elimination) on every other graph.  It is also the
reference the path recursion is tested against, and is itself tested
against a brute-force tensor.

Message conventions (messages have shape ``(carried, n_v)`` and are
indexed by path position):
  - forward messages aggregate everything strictly left of a node,
  - backward messages aggregate everything strictly right of it,
  - the potential and the carried factor of the node itself are always
    excluded, so the coordinate update weights come straight from message
    products without any division.
"""

import math

import numpy as np

from .errors import SizeBoundExceeded, TopologyMismatch
from .model import ScaledArray

DENSE_ENTRY_BUDGET = 6 ** 6
# ``DenseEngine`` names each node by one letter in its einsum subscripts.
_DENSE_NODE_LIMIT = 26
# A renormalization shifting the log scale by more than this is a rescale event.
_RESCALE_THRESHOLD = 200.0


class _EngineBase:
    """Projections from the engine's weights; all ends in ``_fin``, counting ``rescale_events``.

    ``_fin`` renormalizes in place a fresh array that no input holds; the
    caller of each projection then owns it."""

    def __init__(self, spec):
        self.spec = spec
        self.rescale_events = 0

    def _fin(self, mantissa, log_scale):
        arr = ScaledArray(mantissa, log_scale)
        if arr.renormalize(in_place=True) > _RESCALE_THRESHOLD:
            self.rescale_events += 1
        return arr

    def marginal(self, j, pots):
        return self._own_factor_times(self.w_node(j, pots), pots.value(("node", j)))

    def bimarginal(self, e, pots):
        return self._own_factor_times(self.w_edge(e, pots), pots.value(("edge", e)))

    def _own_factor_times(self, w, u):
        """P_b = u_b * w_b; a block with no cost has no factor and returns its weight."""
        return w if u is None else self._fin(w.m * u.m, w.log_scale + u.log_scale)

    @staticmethod
    def _times(m, ls, u):
        """``(m, ls)`` times the factor ``u``; unchanged if there is none (None)."""
        return (m, ls) if u is None else (m * u.m, ls + u.log_scale)

    def projection(self, block, pots):
        """The marginal of a ("node", j) block, the bimarginal of an ("edge", e) one."""
        kind, where = block
        return (self.marginal if kind == "node" else self.bimarginal)(where, pots)

    def _kernel_with_edge_factor(self, e, pots):
        """Kernel times any potential factor living on the same edge, as one matrix."""
        k = self.spec.kernels[e]
        return self._times(k.full(), k.log_scale, pots.value(("edge", e)))


class ChainEngine(_EngineBase):
    """Forward/backward substitution along a path with one carried mode.

    Serves every graph whose edges are a path plus chords from its first
    node (``GraphTopology.path_chords``).  ``carried`` maps a path position
    to the chord whose kernel and potential form its carried factor.
    ``order`` walks the path left to right: at each node its chord, the
    node, the path edge to the right, then ``("push", v)``, the push of the
    forward message past the node ``v``.
    """

    def __init__(self, spec):
        route = spec.topology.path_chords
        if route is None:
            raise TopologyMismatch("the path engine needs a path plus chords from its first "
                                   "node, not the edges %r" % (spec.topology.edges,))
        super().__init__(spec)
        self.path, chords = route
        self.T = len(self.path)
        self.pos = {v: i for i, v in enumerate(self.path)}
        n_first = spec.node_sizes[self.path[0]]
        seed = np.eye(n_first) if chords else np.ones((1, n_first))
        self.carried = {self.pos[b]: (a, b) for a, b in chords}
        self.steps = {e: i for i, e in enumerate(zip(self.path, self.path[1:]))}
        self.fwd = [ScaledArray(seed, 0.0)] + [None] * (self.T - 1)
        self.bwd = [None] * self.T
        self.order = []
        for i, v in enumerate(self.path):
            if i in self.carried:
                self.order.append(("edge", self.carried[i]))
            self.order.append(("node", v))
            if i < self.T - 1:
                self.order += [("edge", (v, self.path[i + 1])), ("push", v)]

    def _times_carried(self, m, ls, i, pots):
        """``(m, ls)`` times the carried factor of path position ``i``, if it has one."""
        e = self.carried.get(i)
        if e is None:
            return m, ls
        fm, fls = self._kernel_with_edge_factor(e, pots)
        return m * fm, ls + fls

    def _absorb(self, msg, i, pots):
        """A message times the carried factor and the potential at position ``i``."""
        m, ls = self._times_carried(msg.m, msg.log_scale, i, pots)
        return self._times(m, ls, pots.value(("node", self.path[i])))

    def _absorbed(self, msg, i, pots):
        """``_absorb`` renormalized; a message with nothing to absorb comes back
        as it is: it is renormalized already, and ``_fin`` must not write it."""
        m, ls = self._absorb(msg, i, pots)
        return msg if m is msg.m else self._fin(m, ls)

    def _step(self, e):
        i = self.steps.get(e)
        if i is None:
            raise TopologyMismatch("no path or carried edge %r in the path engine" % (e,))
        return i

    def refresh(self, pots):
        self.rebuild_backward(pots)
        for v in self.path[:-1]:
            self.push_forward(v, pots)

    def _pass(self, msg, i, e, pots, transpose=False):
        """The message ``msg`` at path position ``i``, absorbed there, times the
        kernel of path edge ``e`` or its transpose.  A bare kernel applies
        itself; one times an edge potential is formed as one matrix."""
        m, ls = self._absorb(msg, i, pots)
        if ("edge", e) not in pots.factors:
            k = self.spec.kernels[e]
            return self._fin(k.apply(m, transpose), ls + k.log_scale)
        km, kls = self._kernel_with_edge_factor(e, pots)
        return self._fin(m @ (km.T if transpose else km), ls + kls)

    def rebuild_backward(self, pots):
        last = self.T - 1
        self.bwd[last] = ScaledArray(
            np.ones((self.fwd[0].shape[0], self.spec.node_sizes[self.path[last]])), 0.0)
        for i in range(last - 1, -1, -1):
            self.bwd[i] = self._pass(self.bwd[i + 1], i + 1, (self.path[i], self.path[i + 1]),
                                     pots, transpose=True)

    def push_forward(self, v, pots):
        i = self.pos[v]
        self.fwd[i + 1] = self._pass(self.fwd[i], i, (v, self.path[i + 1]), pots)

    def w_node(self, v, pots):
        i = self.pos[v]
        fwd, bwd = self.fwd[i], self.bwd[i]
        m, ls = self._times_carried(fwd.m * bwd.m, fwd.log_scale + bwd.log_scale, i, pots)
        return self._fin(m.sum(axis=0), ls)

    def w_edge(self, e, pots):
        i = self.pos.get(e[1])
        if self.carried.get(i) == e:  # a chord: its kernel is the carried factor at e[1]
            k = self.spec.kernels[e]
            fwd, bwd = self.fwd[i], self.bwd[i]
            m, ls = self._times(fwd.m * bwd.m, fwd.log_scale + bwd.log_scale,
                                pots.value(("node", e[1])))
            return self._fin(m * k.full(), ls + k.log_scale)
        i = self._step(e)
        left = self._absorbed(self.fwd[i], i, pots)
        right = self._absorbed(self.bwd[i + 1], i + 1, pots)
        k = self.spec.kernels[e]
        return self._fin(k.times(left.m.T @ right.m),
                         k.log_scale + left.log_scale + right.log_scale)


class DenseEngine(_EngineBase):
    """Variable elimination on a small graph of any topology (arXiv 2006.14113).

    ``make_engine`` picks it for every graph the path engine does not fit;
    on any graph it is the oracle the path engine is checked against.

    A projection contracts the node factors that exist and, per edge, the
    kernel times any edge potential, leaving an excluded factor out; a node
    with no factor is summed out, as in the path engine.  The pairwise order
    of each ``(keep, nodes with a factor)`` signature comes from
    ``np.einsum_path`` once per engine and is replayed with plain
    ``np.einsum``, so the plan tensor is never formed.
    ``order``: every node, then every edge.
    """

    def __init__(self, spec):
        super().__init__(spec)
        self.sizes = list(spec.node_sizes)
        total = math.prod(self.sizes)
        if total > DENSE_ENTRY_BUDGET or len(self.sizes) > _DENSE_NODE_LIMIT:
            raise SizeBoundExceeded("dense reference limited to %d entries and %d nodes, "
                                    "instance has %d entries and %d nodes"
                                    % (DENSE_ENTRY_BUDGET, _DENSE_NODE_LIMIT, total,
                                       len(self.sizes)))
        self.order = ([("node", j) for j in range(len(self.sizes))]
                      + [("edge", e) for e in spec.topology.edges])
        self._plans = {}

    def rebuild_backward(self, pots):
        pass

    def refresh(self, pots):
        pass

    def _plan(self, keep, nodes):
        """Contraction steps ``(positions, "ab,bc->ac")`` of one signature.

        A step pops the operands at ``positions`` and appends their
        contraction, which keeps only the modes ``keep`` or a later operand needs.
        """
        letter = [chr(ord("a") + j) for j in range(len(self.sizes))]
        subs = [letter[j] for j in nodes]
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
        nodes = {j: u for j in range(len(self.sizes))
                 if exclude != ("node", j) and (u := pots.value(("node", j))) is not None}
        key = (tuple(keep), tuple(nodes))
        if key not in self._plans:
            self._plans[key] = self._plan(*key)
        ops, ls = [u.m for u in nodes.values()], sum(u.log_scale for u in nodes.values())
        for e in self.spec.topology.edges:
            k = self.spec.kernels[e]
            m, kls = ((k.full(), k.log_scale) if exclude == ("edge", e)
                      else self._kernel_with_edge_factor(e, pots))
            ops.append(m)
            ls += kls
        for pos, subscripts in self._plans[key]:
            ops.append(np.einsum(subscripts, *[ops.pop(p) for p in pos]))
        # A lone operand (one edge, no node factor) may come back as a view of
        # its kernel: ``_fin`` gets a copy.
        return self._fin(ops[0] if len(pos) > 1 else ops[0].copy(order="K"), ls)

    def w_node(self, j, pots):
        return self.project(pots, (j,), exclude=("node", j))

    def w_edge(self, e, pots):
        return self.project(pots, e, exclude=("edge", e))


def make_engine(spec):
    if spec.topology.path_chords is None:
        return DenseEngine(spec)
    return ChainEngine(spec)
