"""Core problem model: scaled arrays, graph topologies, kernels, dual potentials.

Plans are never stored as full tensors.  A plan is the elementwise product of
edge kernels and rank-structured potential factors; all magnitudes are kept as
a float mantissa array paired with a single log-scale offset so that products
of many small kernel entries survive strong regularization.
"""

import math
import warnings

import numpy as np

from .errors import InvalidInput, NumericalFailure

# Topology kinds.
CHAIN = "chain"
OD_CYCLE = "od_cycle"
SPECIES_HUB = "species_hub"
GENERAL = "general"

# exp(-x) may round to zero only for x beyond this spread.
_UNDERFLOW_SPREAD = -math.log(np.finfo(float).smallest_subnormal)
# A renormalization shifting the log scale by more than this is a rescale event.
_RESCALE_THRESHOLD = 200.0


class ScaledArray:
    """Nonnegative array stored as ``mantissa * exp(log_scale)``.

    The mantissa max-norm is pulled back to 1 by :meth:`renormalize`, which
    leaves the represented value unchanged.  Entries may be exactly zero;
    those encode states that have been eliminated from the plan.
    """

    __slots__ = ("m", "log_scale")

    def __init__(self, mantissa, log_scale=0.0):
        self.m = np.asarray(mantissa, dtype=float)
        self.log_scale = float(log_scale)

    @classmethod
    def from_values(cls, values):
        out = cls(np.array(values, dtype=float), 0.0)
        out.renormalize()
        return out

    @classmethod
    def ones(cls, shape):
        return cls(np.ones(shape), 0.0)

    @property
    def shape(self):
        return self.m.shape

    def renormalize(self):
        """Rescale the mantissa peak to 1; returns the absolute log shift."""
        peak = float(np.max(np.abs(self.m))) if self.m.size else 0.0
        if not math.isfinite(peak):
            raise NumericalFailure("non-finite mantissa encountered during renormalization")
        if peak == 0.0:
            shift = abs(self.log_scale)
            self.log_scale = 0.0
            return shift
        if peak == 1.0:
            return 0.0
        shift = math.log(peak)
        self.m = self.m / peak
        self.log_scale += shift
        return abs(shift)

    def value(self):
        with np.errstate(over="ignore"):
            return self.m * np.exp(self.log_scale)

    def log_value(self):
        with np.errstate(divide="ignore"):
            return np.log(self.m) + self.log_scale

    def total(self):
        """Sum of the represented values as a plain float (inf on overflow)."""
        s = float(self.m.sum())
        if s == 0.0:
            return 0.0
        with np.errstate(over="ignore"):
            return float(s * np.exp(self.log_scale))

    def log_total(self):
        s = float(self.m.sum())
        return -math.inf if s == 0.0 else math.log(s) + self.log_scale

    def copy(self):
        return ScaledArray(self.m.copy(), self.log_scale)

    def __repr__(self):
        return "ScaledArray(shape=%s, log_scale=%.6g)" % (self.m.shape, self.log_scale)


class RescaleLog:
    """Counts renormalizations whose log shift exceeded ``_RESCALE_THRESHOLD``."""

    def __init__(self):
        self.events = 0

    def note(self, shift):
        if shift > _RESCALE_THRESHOLD:
            self.events += 1


def _as_mantissa(x):
    if isinstance(x, ScaledArray):
        return x.m, x.log_scale
    if isinstance(x, EdgeKernel):
        return x.m, x.log_scale
    return np.asarray(x, dtype=float), 0.0


def smul(*factors, note=None):
    """Elementwise product of scaled arrays (numpy broadcasting applies)."""
    m, ls = _as_mantissa(factors[0])
    m = np.array(m, dtype=float, copy=True)
    for f in factors[1:]:
        fm, fls = _as_mantissa(f)
        m = m * fm
        ls += fls
    out = ScaledArray(m, ls)
    shift = out.renormalize()
    if note is not None:
        note(shift)
    return out


class GraphTopology:
    """Connected marginal graph with one of four recognized structures.

    Nodes are the tensor modes, numbered ``0 .. node_count-1``.  For the
    species-hub structure the hub is the last node; the remaining nodes form
    the time path and every one of them is joined to the hub.
    """

    def __init__(self, node_count, edges, kind, hub=None, species_count=None):
        self.node_count = int(node_count)
        self.edges = tuple((int(a), int(b)) for a, b in edges)
        self.kind = kind
        self.hub = None if hub is None else int(hub)
        self.species_count = None if species_count is None else int(species_count)
        self._validate()

    @classmethod
    def chain(cls, node_count):
        edges = [(t, t + 1) for t in range(node_count - 1)]
        return cls(node_count, edges, CHAIN)

    @classmethod
    def od_cycle(cls, node_count):
        edges = [(t, t + 1) for t in range(node_count - 1)]
        edges.append((0, node_count - 1))
        return cls(node_count, edges, OD_CYCLE)

    @classmethod
    def species_hub(cls, time_node_count, species_count):
        hub = int(time_node_count)
        edges = [(t, t + 1) for t in range(time_node_count - 1)]
        edges += [(hub, j) for j in range(time_node_count)]
        return cls(time_node_count + 1, edges, SPECIES_HUB, hub=hub,
                   species_count=species_count)

    @classmethod
    def general(cls, node_count, edges):
        return cls(node_count, edges, GENERAL)

    @property
    def chord(self):
        if self.kind != OD_CYCLE:
            return None
        return (0, self.node_count - 1)

    @property
    def time_nodes(self):
        if self.kind == SPECIES_HUB:
            return tuple(range(self.hub))
        return tuple(range(self.node_count))

    @property
    def hub_edges(self):
        if self.kind != SPECIES_HUB:
            return ()
        return tuple((self.hub, j) for j in range(self.hub))

    def _validate(self):
        n = self.node_count
        if n < 2:
            raise InvalidInput("a graph needs at least two nodes, got %d" % n)
        seen = set()
        for a, b in self.edges:
            if not (0 <= a < n and 0 <= b < n):
                raise InvalidInput("edge (%d, %d) references a missing node" % (a, b))
            if a == b:
                raise InvalidInput("self edge (%d, %d) is not allowed" % (a, b))
            key = frozenset((a, b))
            if key in seen:
                raise InvalidInput("duplicate edge between %d and %d" % (a, b))
            seen.add(key)
        if not self._connected():
            raise InvalidInput("graph is not connected")
        if self.kind == CHAIN:
            expect = tuple((t, t + 1) for t in range(n - 1))
            if self.edges != expect:
                raise InvalidInput("chain topology requires consecutive edges only")
        elif self.kind == OD_CYCLE:
            if n < 3:
                raise InvalidInput("a cycle over the endpoints needs at least 3 nodes")
            expect = tuple((t, t + 1) for t in range(n - 1)) + ((0, n - 1),)
            if tuple(sorted(self.edges)) != tuple(sorted(expect)):
                raise InvalidInput("od_cycle topology requires a path plus the (first, last) chord")
        elif self.kind == SPECIES_HUB:
            if self.hub != n - 1 or self.species_count is None or self.species_count < 1:
                raise InvalidInput("species_hub topology requires hub = last node and a species count")
            if n < 3:
                raise InvalidInput("species_hub topology needs at least two time nodes")
            expect = tuple((t, t + 1) for t in range(self.hub - 1))
            expect += tuple((self.hub, j) for j in range(self.hub))
            if tuple(sorted(self.edges)) != tuple(sorted(expect)):
                raise InvalidInput("species_hub topology requires the time path plus all hub edges")
        elif self.kind == GENERAL:
            if n > 6:
                raise InvalidInput("general topologies are admitted only up to 6 nodes")
        else:
            raise InvalidInput("unknown topology kind %r" % (self.kind,))

    def _connected(self):
        adj = {v: set() for v in range(self.node_count)}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.node_count


class EdgeKernel:
    """Pairwise kernel ``exp(-cost / epsilon)`` stored in mantissa form.

    ``support`` marks entries with finite cost; zero mantissa entries encode
    forbidden transitions and stay exactly zero through every operation.
    """

    __slots__ = ("m", "log_scale", "support")

    def __init__(self, mantissa, log_scale=0.0):
        self.m = np.asarray(mantissa, dtype=float)
        if self.m.ndim != 2:
            raise InvalidInput("kernel must be a matrix")
        if not np.all(np.isfinite(self.m)) or np.any(self.m < 0):
            raise InvalidInput("kernel entries must be finite and nonnegative")
        self.log_scale = float(log_scale)
        self.support = self.m > 0

    @classmethod
    def ones(cls, shape):
        return cls(np.ones(shape), 0.0)

    @property
    def shape(self):
        return self.m.shape

    def as_scaled(self):
        return ScaledArray(self.m, self.log_scale)

    def cost(self, epsilon):
        """Recover the cost matrix ``-epsilon * log`` (inf on zero entries)."""
        with np.errstate(divide="ignore"):
            return -epsilon * (np.log(self.m) + self.log_scale)


def build_kernel(cost, epsilon):
    """Exponentiate ``-cost/epsilon`` into an :class:`EdgeKernel`.

    Infinite costs map to exact zeros; the log scale is chosen so the largest
    mantissa equals 1, which makes the stored matrix safe to multiply.  A
    finite cost more than about 745 * epsilon above the smallest one
    underflows to zero as well; a RuntimeWarning reports how many did.
    """
    cost = np.asarray(cost, dtype=float)
    if not (np.isscalar(epsilon) or np.ndim(epsilon) == 0) or not math.isfinite(float(epsilon)) \
            or float(epsilon) <= 0:
        raise InvalidInput("epsilon must be a positive finite scalar")
    epsilon = float(epsilon)
    if cost.ndim != 2:
        raise InvalidInput("cost must be a matrix")
    if np.any(np.isnan(cost)) or np.any(cost == -np.inf):
        raise InvalidInput("cost entries must be > -inf and not NaN")
    finite = np.isfinite(cost)
    if not finite.any():
        return EdgeKernel(np.zeros(cost.shape), 0.0)
    # One working copy of the finite costs becomes the kernel values in place.
    vals = cost[finite]
    cmin = float(vals.min())
    spread = (float(vals.max()) - cmin) / epsilon
    vals -= cmin
    vals /= -epsilon
    np.exp(vals, out=vals)
    if spread > _UNDERFLOW_SPREAD:
        lost = int(np.count_nonzero(vals == 0.0))
        if lost:
            warnings.warn("%d finite-cost kernel entries underflow to zero (forbidden "
                          "transitions) at epsilon=%g: their cost exceeds the smallest by "
                          "more than %.0f * epsilon" % (lost, epsilon, _UNDERFLOW_SPREAD),
                          RuntimeWarning, stacklevel=2)
    m = np.zeros(cost.shape)
    m[finite] = vals
    return EdgeKernel(m, -cmin / epsilon)


class DualPotentials:
    """Scaling factors of the plan, one list per node and per functional edge.

    A node or edge carrying several stacked costs holds one factor per cost;
    the factor acting on the plan is their elementwise product.
    """

    def __init__(self, nodes, edges):
        self.nodes = nodes
        self.edges = edges

    @classmethod
    def ones_for(cls, spec):
        nodes = {}
        for j in range(spec.topology.node_count):
            k = len(_parts(spec.node_fn(j)))
            nodes[j] = [ScaledArray.ones(spec.node_sizes[j]) for _ in range(k)]
        edges = {}
        for e in spec.functional_edges:
            k = len(_parts(spec.edge_fn(e)))
            shape = (spec.node_sizes[e[0]], spec.node_sizes[e[1]])
            edges[e] = [ScaledArray.ones(shape) for _ in range(k)]
        return cls(nodes, edges)

    def node_value(self, j):
        factors = self.nodes[j]
        if len(factors) == 1:
            return factors[0]
        return smul(*factors)

    def edge_value(self, e):
        factors = self.edges.get(e)
        if factors is None:
            return None
        if len(factors) == 1:
            return factors[0]
        return smul(*factors)

    def copy(self):
        return DualPotentials(
            {j: [f.copy() for f in fs] for j, fs in self.nodes.items()},
            {e: [f.copy() for f in fs] for e, fs in self.edges.items()},
        )

    def max_abs_log(self):
        """Largest |log| over all positive entries; gauges dual iterate growth."""
        worst = 0.0
        for fs in list(self.nodes.values()) + list(self.edges.values()):
            for f in fs:
                lv = f.log_value()
                finite = np.isfinite(lv)
                if finite.any():
                    worst = max(worst, float(np.max(np.abs(lv[finite]))))
        return worst


def _parts(fn):
    """Stacked cost list for a node or edge function (length 1 if plain)."""
    parts = getattr(fn, "parts", None)
    return list(parts) if parts is not None else [fn]


class ProblemSpec:
    """Immutable description of one optimization instance.

    Holds the graph, a kernel per edge, one convex cost per node and per
    functional edge, and the regularization strength.  Construction validates
    shapes and the placement rules each projector relies on.
    """

    def __init__(self, topology, kernels, node_functions=None, edge_functions=None,
                 epsilon=1.0):
        from .functions import Zero  # deferred to avoid an import cycle

        self.topology = topology
        self.epsilon = float(epsilon)
        if not math.isfinite(self.epsilon) or self.epsilon <= 0:
            raise InvalidInput("epsilon must be a positive finite scalar")

        kernels = dict(kernels or {})
        node_functions = dict(node_functions or {})
        edge_functions = dict(edge_functions or {})
        for key in kernels:
            if tuple(key) not in topology.edges:
                raise InvalidInput("kernel given for non-edge %r" % (key,))
        for key in node_functions:
            if not (0 <= key < topology.node_count):
                raise InvalidInput("node function given for missing node %r" % (key,))
        for key in edge_functions:
            if tuple(key) not in topology.edges:
                raise InvalidInput("edge function given for non-edge %r" % (key,))

        self.node_sizes = self._infer_sizes(topology, kernels)
        self.kernels = {}
        for e in topology.edges:
            shape = (self.node_sizes[e[0]], self.node_sizes[e[1]])
            k = kernels.get(e)
            if k is None:
                k = EdgeKernel.ones(shape)
            if k.shape != shape:
                raise InvalidInput("kernel on edge %r has shape %r, expected %r"
                                   % (e, k.shape, shape))
            self.kernels[e] = k

        self._zero = Zero()
        self.node_functions = {j: node_functions.get(j, self._zero)
                               for j in range(topology.node_count)}
        self.edge_functions = {e: edge_functions.get(e, self._zero)
                               for e in topology.edges}
        self._validate_functions()
        # Cost of every block keyed by ("node", j) or ("edge", e): each node,
        # then each functional edge.
        self.blocks = {("node", j): fn for j, fn in self.node_functions.items()}
        self.blocks.update((("edge", e), self.edge_functions[e]) for e in self.functional_edges)

    @staticmethod
    def _infer_sizes(topology, kernels):
        sizes = {}
        if topology.kind == SPECIES_HUB:
            sizes[topology.hub] = topology.species_count
        for e, k in kernels.items():
            for node, dim in zip(e, k.shape):
                if sizes.setdefault(node, dim) != dim:
                    raise InvalidInput("inconsistent size for node %d" % node)
        missing = [j for j in range(topology.node_count) if j not in sizes]
        if missing:
            raise InvalidInput("cannot infer sizes for nodes %r; give kernels covering them"
                               % (missing,))
        if topology.kind == GENERAL:
            if any(sizes[j] > 6 for j in sizes):
                raise InvalidInput("general topologies are admitted only with node sizes up to 6")
        return [sizes[j] for j in range(topology.node_count)]

    def _validate_functions(self):
        topo = self.topology
        for j, fn in self.node_functions.items():
            for part in _parts(fn):
                part.validate_size(self.node_sizes[j], where="node %d" % j)
        for e, fn in self.edge_functions.items():
            shape = (self.node_sizes[e[0]], self.node_sizes[e[1]])
            for part in _parts(fn):
                part.validate_size(shape[0] * shape[1], where="edge %r" % (e,))
        nontrivial = self.functional_edges
        if topo.kind == CHAIN:
            pass
        elif topo.kind == OD_CYCLE:
            bad = [e for e in nontrivial if e != topo.chord]
            if bad:
                raise InvalidInput("od_cycle supports edge costs only on the chord, not %r" % bad)
        elif topo.kind == SPECIES_HUB:
            allowed = set(topo.hub_edges)
            bad = [e for e in nontrivial if e not in allowed]
            if bad:
                raise InvalidInput("species_hub supports edge costs only on hub edges, not %r" % bad)
            if not self.node_functions[topo.hub].is_zero:
                raise InvalidInput("the hub node cannot carry its own cost; attach it to a hub edge")

    @property
    def functional_edges(self):
        return tuple(e for e in self.topology.edges if not self.edge_functions[e].is_zero)

    def node_fn(self, j):
        return self.node_functions[j]

    def edge_fn(self, e):
        return self.edge_functions[e]


def total_mass(potentials, spec, engine=None):
    """Total plan mass, evaluated as the sum of the first marginal projection.

    Any single marginal gives the same number; the projection route avoids
    ever forming the full tensor.
    """
    from .projections import make_engine

    if engine is None:
        engine = make_engine(spec)
        engine.refresh(potentials)
    return engine.marginal(0, potentials).total()


def dual_objective(potentials, spec, engine=None):
    """Concave objective the coordinate updates ascend.

    Equals ``-epsilon * mass - sum of conjugates`` with every conjugate taken
    at the negated log potential.  Returns ``-inf`` when some multiplier sits
    outside its conjugate's domain (a dual-infeasible point).
    """
    mass = total_mass(potentials, spec, engine)
    if not math.isfinite(mass):
        return -math.inf
    val = -spec.epsilon * mass
    for (kind, where), fn in spec.blocks.items():
        factors = (potentials.nodes if kind == "node" else potentials.edges)[where]
        for part, factor in zip(_parts(fn), factors):
            with np.errstate(invalid="ignore"):
                s = -spec.epsilon * factor.log_value()
            c = part.conjugate(s)
            if c == math.inf:
                return -math.inf
            val -= c
    return val
