"""Builders translating application inputs into solvable problem specs.

Two families are covered: dynamic network flows over a directed graph with
per-edge convex costs (endpoint or origin-destination constrained), and
multi-species density steering on a spatial grid where a hub mode carries
the species index.
"""

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput
from .functions import Blockwise, Congestion, Equality, Zero, stack_rows
from .model import GraphTopology, ProblemSpec, SeparableKernel, build_kernel, integer


@dataclass(frozen=True)
class FlowEdge:
    tail: object
    head: object
    length: float = 1.0
    capacity: float = math.inf

    def __post_init__(self):
        if self.length != 1:
            raise InvalidInput("edge (%r, %r) has length %r, but every edge takes one time "
                               "step" % (self.tail, self.head, self.length))


@dataclass
class FlowNetwork:
    """Directed transport network with sources and sinks.

    Plan states are laid out as all edges first, then sources, then sinks,
    giving ``N = |E| + |sources| + |sinks|`` states per time point.
    """

    nodes: list
    edges: list
    sources: list
    sinks: list
    horizon: int

    def __post_init__(self):
        self.edges = [e if isinstance(e, FlowEdge) else FlowEdge(*e) for e in self.edges]
        node_set = set(self.nodes)
        for i, e in enumerate(self.edges):
            if e.tail not in node_set or e.head not in node_set:
                raise InvalidInput("edge %d references unknown nodes (%r, %r)"
                                   % (i, e.tail, e.head))
            if not (e.capacity > 0):
                raise InvalidInput("edge %d needs a positive capacity" % i)
        for s in self.sources:
            if s not in node_set:
                raise InvalidInput("unknown source node %r" % (s,))
        for s in self.sinks:
            if s not in node_set:
                raise InvalidInput("unknown sink node %r" % (s,))
        if self.horizon < 2:
            raise InvalidInput("the horizon needs at least two time points")
        incident = set()
        for e in self.edges:
            incident.add(e.tail)
            incident.add(e.head)
        for s in self.sources:
            if s not in incident:
                warnings.warn("source %r has no incident edge; its mass cannot leave" % (s,))
        for s in self.sinks:
            if s not in incident:
                warnings.warn("sink %r has no incident edge; it cannot receive mass" % (s,))

    @property
    def n_states(self):
        return len(self.edges) + len(self.sources) + len(self.sinks)

    @property
    def edge_count(self):
        return len(self.edges)

    def capacities(self):
        return np.array([e.capacity for e in self.edges], dtype=float)


def build_flow_cost_matrix(net):
    """Zero/infinity transition costs encoding the network topology.

    A transition costs zero exactly when it is realizable in one time step:
    edge to edge through a shared node, source onto an outgoing edge, edge
    into a sink, and waiting in place at a source or a sink.  Everything
    else is forbidden.
    """
    n_e = net.edge_count
    n_src = len(net.sources)
    n = net.n_states
    c = np.full((n, n), math.inf)
    src_index = {s: n_e + i for i, s in enumerate(net.sources)}
    sink_index = {s: n_e + n_src + i for i, s in enumerate(net.sinks)}
    for i, ei in enumerate(net.edges):
        for k, ek in enumerate(net.edges):
            if ei.head == ek.tail:
                c[i, k] = 0.0
        if ei.head in sink_index:
            c[i, sink_index[ei.head]] = 0.0
    for s, row in src_index.items():
        c[row, row] = 0.0
        for k, ek in enumerate(net.edges):
            if ek.tail == s:
                c[row, k] = 0.0
    for s, col in sink_index.items():
        c[col, col] = 0.0
    return c


def _on_edge_states(fn, edge_count, n_states):
    """``fn`` on the first ``edge_count`` states (the edges), no cost on the rest."""
    return Blockwise(n_states, [(np.arange(edge_count), fn),
                                (np.arange(edge_count, n_states), Zero())])


def embed_od_matrix(net, od):
    """Lift a sources-by-sinks demand table to the full state space."""
    od = np.asarray(od, dtype=float)
    n_src, n_snk = len(net.sources), len(net.sinks)
    if od.shape != (n_src, n_snk):
        raise InvalidInput("od matrix must be %d x %d (sources x sinks)" % (n_src, n_snk))
    if np.any(od < 0) or not np.all(np.isfinite(od)):
        raise InvalidInput("od entries must be finite and nonnegative")
    full = np.zeros((net.n_states, net.n_states))
    r0 = net.edge_count
    c0 = net.edge_count + n_src
    full[r0:r0 + n_src, c0:c0 + n_snk] = od
    return full


def build_flow_problem(net, od=None, terminals=None, edge_cost=None, epsilon=0.05):
    """Problem spec for a dynamic flow, OD-coupled or endpoint-constrained.

    ``od`` gives a sources-by-sinks demand matrix enforced on the joint
    first/last marginal.  ``terminals`` gives the pair of full state
    distributions pinned at the first and last time.  ``edge_cost`` replaces
    the default congestion cost on the edge-flow block (pass ``Zero()`` for
    uncapacitated transport).
    """
    if (od is None) == (terminals is None):
        raise InvalidInput("give exactly one of an od matrix or terminal marginals")
    T = net.horizon
    n = net.n_states
    cost = build_flow_cost_matrix(net)
    kernel = build_kernel(cost, epsilon)

    if edge_cost is None:
        edge_cost = Congestion(net.capacities())
    interior = _on_edge_states(edge_cost, net.edge_count, n)

    node_functions = {j: interior for j in range(1, T - 1)}
    if od is not None:
        topo = GraphTopology.od_cycle(T)
        kernels = {(j, j + 1): kernel for j in range(T - 1)}
        edge_functions = {topo.chord: Equality(embed_od_matrix(net, od))}
        return ProblemSpec(topo, kernels, node_functions, edge_functions, epsilon)

    mu_first, mu_last = terminals
    mu_first = np.asarray(mu_first, dtype=float)
    mu_last = np.asarray(mu_last, dtype=float)
    if mu_first.shape != (n,) or mu_last.shape != (n,):
        raise InvalidInput("terminal marginals must have one entry per state (%d)" % n)
    topo = GraphTopology.chain(T)
    kernels = {(j, j + 1): kernel for j in range(T - 1)}
    node_functions = dict(node_functions)
    node_functions[0] = Equality(mu_first)
    node_functions[T - 1] = Equality(mu_last)
    return ProblemSpec(topo, kernels, node_functions, {}, epsilon)


def edge_utilization(net, marginal):
    """Per-edge load fractions from one time marginal."""
    flows = np.asarray(marginal, dtype=float)[: net.edge_count]
    return flows / net.capacities()


def grid_points(shape, extent):
    """Cell-centered grid coordinates over a rectangle, row-major order."""
    shape = tuple(integer(s, "grid shape entry") for s in shape)
    try:
        extent = np.asarray(extent, dtype=float)
    except (TypeError, ValueError):
        extent = None
    if extent is None or extent.shape != (2 * len(shape),) or not np.isfinite(extent).all():
        raise InvalidInput("extent needs finite numbers (lo, hi) per grid dimension")
    axes = []
    for d, n in enumerate(shape):
        lo, hi = float(extent[2 * d]), float(extent[2 * d + 1])
        step = (hi - lo) / n
        axes.append(lo + step * (0.5 + np.arange(n)))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def build_mfg_cost_matrix(grid=None, matrix=None, scale=1.0):
    """Squared-distance displacement costs, or a validated user matrix."""
    if (grid is None) == (matrix is None):
        raise InvalidInput("give exactly one of grid coordinates or a cost matrix")
    if matrix is not None:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise InvalidInput("cost matrix must be square")
        if np.any(np.isnan(matrix)) or np.any(matrix == -math.inf):
            raise InvalidInput("cost entries must be > -inf and not NaN")
        return float(scale) * matrix
    grid = np.asarray(grid, dtype=float)
    if grid.ndim == 1:
        grid = grid[:, None]
    # One axis at a time, so no (n, n, d) difference array is formed.
    cost = np.zeros((len(grid),) * 2)
    sq = np.empty_like(cost)
    for x in grid.T:
        np.subtract.outer(x, x, out=sq)
        sq *= sq
        cost += sq
    cost *= float(scale)
    return cost


def check_cost_matrix(matrix, n_points):
    """``matrix`` as a float array: one row and one column per grid point."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (n_points, n_points):
        raise InvalidInput("cost matrix of shape %r, but the grid has %d points"
                           % (matrix.shape, n_points))
    return matrix


@dataclass
class MFGSetup:
    """Inputs of a multi-species density steering problem.

    ``n_steps`` is the number of transitions, so there are ``n_steps + 1``
    time points.  Running costs are keyed by interior time index (1 ..
    ``n_steps - 1``; any other key is an error) and are scaled by ``dt``
    when the problem is assembled; terminal costs are not.  Species costs
    may be None (no cost) per species and time.
    """

    grid: np.ndarray
    n_steps: int
    initial_densities: list
    dt: float = None
    epsilon: float = 0.05
    cost_scale: float = 1.0
    cost_matrix: np.ndarray = None
    total_running: dict = field(default_factory=dict)
    total_terminal: object = None
    species_running: dict = field(default_factory=dict)
    species_terminal: list = None

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        if self.grid.ndim == 1:
            self.grid = self.grid[:, None]
        if self.n_steps < 1:
            raise InvalidInput("need at least one time step")
        if self.dt is None:
            self.dt = 1.0 / self.n_steps
        if not isinstance(self.dt, numbers.Real) or not 0 < self.dt < math.inf:
            raise InvalidInput("dt must be a positive finite number, got %r" % (self.dt,))
        self._interior_running()
        self.initial_densities = [np.asarray(m, dtype=float) for m in self.initial_densities]
        n = self.grid.shape[0]
        for idx, mu in enumerate(self.initial_densities):
            if mu.shape != (n,):
                raise InvalidInput("initial density %d must have %d entries" % (idx, n))
            if np.any(mu < 0) or float(mu.sum()) <= 0:
                raise InvalidInput("initial density %d must be nonnegative with positive mass"
                                   % idx)

    def _interior_running(self):
        """``total_running``, whose keys must be interior time indices."""
        outside = [k for k in self.total_running
                   if not (isinstance(k, numbers.Integral) and 1 <= k < self.n_steps)]
        if outside:
            raise InvalidInput("total_running keys must be interior time indices 1 .. %d, "
                               "got %r" % (self.n_steps - 1, outside))
        return self.total_running

    @property
    def n_species(self):
        return len(self.initial_densities)

    @property
    def n_points(self):
        return self.grid.shape[0]


def _species_edge_function(setup, table, terminal):
    if len(table) != setup.n_species:
        raise InvalidInput("species cost tables need one entry per species")
    return stack_rows([fn if fn is None or terminal else fn.scaled(setup.dt) for fn in table],
                      setup.n_points)


def build_mfg_problem(setup):
    """Hub-structured spec for the multi-species steering problem.

    The hub bimarginal at time zero is pinned to the stacked initial
    densities; later hub edges carry the per-species costs and the time
    nodes carry the shared costs on total densities.  Hub edges whose row
    tables hold the same functions share one species-row cost; the spec makes
    its zero (no cost), linear and indicator rows constants of the plan.
    """
    tc = setup.n_steps + 1
    topo = GraphTopology.species_hub(tc, setup.n_species)

    start = np.stack([mu for mu in setup.initial_densities], axis=0)
    edge_functions = {(topo.hub, 0): Equality(start)}
    built = {}
    for j in range(1, tc):
        terminal = j == tc - 1
        table = setup.species_terminal if terminal else setup.species_running.get(j)
        if table is None:
            continue
        key = (terminal, *map(id, table))
        if key not in built:
            built[key] = _species_edge_function(setup, table, terminal)
        edge_functions[(topo.hub, j)] = built[key]

    return ProblemSpec(topo, _time_kernels(setup), _total_node_functions(setup),
                       edge_functions, setup.epsilon)


def _grid_axes(points):
    """Per-axis coordinates of the n x d ``points`` when d >= 2 and they are,
    in the order given, the row-major Cartesian product of those axes."""
    sizes = [np.unique(c).size for c in points.T]
    if len(sizes) < 2 or math.prod(sizes) != len(points):
        return None
    axes = [points[::math.prod(sizes[a + 1:]), a][:s] for a, s in enumerate(sizes)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return axes if np.array_equal(np.stack([m.ravel() for m in mesh], axis=1), points) else None


def _time_kernels(setup):
    """The transport kernel on every edge between consecutive time nodes.

    The squared distance on a grid that :func:`_grid_axes` splits is a sum of
    one cost per axis, so its kernel is a :class:`SeparableKernel`; any other
    grid and a given cost matrix get the dense kernel.
    """
    matrix = setup.cost_matrix
    if matrix is not None:
        matrix = check_cost_matrix(matrix, setup.n_points)
    grid = None if matrix is not None else setup.grid
    axes = None if grid is None else _grid_axes(grid)
    if axes is None:
        kernel = build_kernel(build_mfg_cost_matrix(grid, matrix, setup.cost_scale), setup.epsilon)
    else:
        kernel = SeparableKernel([build_kernel(build_mfg_cost_matrix(x, scale=setup.cost_scale),
                                               setup.epsilon) for x in axes])
    return {(j, j + 1): kernel for j in range(setup.n_steps)}


def _total_node_functions(setup):
    """Costs on the total density per time node: running ones scaled by ``dt``
    (indicators scale to themselves), the terminal one as given."""
    node_functions = {j: fn.scaled(setup.dt) for j, fn in setup._interior_running().items()
                      if fn is not None}
    if setup.total_terminal is not None:
        node_functions[setup.n_steps] = setup.total_terminal
    return node_functions

