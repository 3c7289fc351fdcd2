"""Shared helpers for the test suite: instance generators and comparisons."""

import copy
import importlib.util
import math
import pathlib

import numpy as np

from gtop import (Blockwise, Box, CompositeFunction, Congestion, DualPotentials, Equality,
                  GraphTopology, Linear, MFGSetup, ProblemSpec, QuadraticDistance, ScaledArray,
                  SeparableKernel, Zero, build_kernel, build_mfg_cost_matrix,
                  build_mfg_problem, builders, stack_rows)


def load_workloads():
    """``perfbench/workloads.py``, imported by path: the benchmark's inputs and
    nothing else of it."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_maxnorm_close(a, b, rtol, context=""):
    """Max-norm relative comparison after reconciling scales to plain values."""
    av = a.value() if isinstance(a, ScaledArray) else np.asarray(a, dtype=float)
    bv = b.value() if isinstance(b, ScaledArray) else np.asarray(b, dtype=float)
    scale = max(float(np.max(np.abs(bv))), 1e-300)
    err = float(np.max(np.abs(av - bv))) / scale
    assert err <= rtol, "%s: max-norm relative error %.3g exceeds %.3g" % (context, err, rtol)


def masked_kernel(cost, epsilon):
    """The kernel formula that gathers the finite costs through a mask and
    scatters their exponentials into a zero matrix: ``(mantissa, log_scale,
    underflows)``, where ``underflows`` counts the finite costs whose entry
    is zero.  The reference ``build_kernel`` must match bit for bit."""
    cost = np.asarray(cost, dtype=float)
    finite = np.isfinite(cost)
    if not finite.any():
        return np.zeros(cost.shape), 0.0, 0
    vals = cost[finite]
    cmin = float(vals.min())
    vals -= cmin
    vals /= -epsilon
    np.exp(vals, out=vals)
    m = np.zeros(cost.shape)
    m[finite] = vals
    return m, -cmin / epsilon, int(np.count_nonzero(vals == 0.0))


def masked_log_u_to_scaled(log_u, shape):
    """``exp(log_u)`` peaking at 1, with the non-finite entries masked to zero:
    ``ScaledArray.from_log`` must match it on finite and -inf entries."""
    finite = np.isfinite(log_u)
    if not finite.any():
        return ScaledArray(np.zeros(shape), 0.0)
    peak = float(np.max(log_u[finite]))
    m = np.exp(log_u - peak)
    m[~finite] = 0.0
    return ScaledArray(m.reshape(shape), peak)


def mfg_chain_spec(setup):
    """The single-population problem of ``setup`` on a plain path, with its
    total costs and the summed initial densities: what a one-species hub
    (``build_mfg_problem``) must reproduce."""
    node_functions = builders._total_node_functions(setup)
    node_functions[0] = Equality(np.sum(setup.initial_densities, axis=0))
    return ProblemSpec(GraphTopology.chain(setup.n_steps + 1), builders._time_kernels(setup),
                       node_functions, {}, setup.epsilon)


def dense_tensor(spec, pots, exclude=None):
    """Brute-force plan: the broadcast product of every factor, materialized.

    ``exclude`` leaves out one node potential (``("node", j)``) or one edge
    potential (``("edge", e)``; the kernel stays), as the projection weights
    do.  A node or edge with no factor reads it as 1.  The ground truth the
    contraction engines are checked against.
    """
    sizes = spec.node_sizes

    def along(m, axes):
        """``m`` over the modes ``axes``, shaped to broadcast against the plan."""
        if list(axes) != sorted(axes):
            m = m.T
        shape = [1] * len(sizes)
        for ax in axes:
            shape[ax] = sizes[ax]
        return m.reshape(shape)

    m = np.ones(sizes)
    ls = 0.0
    for j in range(len(sizes)):
        u = None if exclude == ("node", j) else pots.value(("node", j))
        if u is not None:
            m = m * along(u.m, (j,))
            ls += u.log_scale
    for e in spec.topology.edges:
        k = spec.kernels[e]
        km, ls = k.full(), ls + k.log_scale
        u_edge = None if exclude == ("edge", e) else pots.value(("edge", e))
        if u_edge is not None:
            km, ls = km * u_edge.m, ls + u_edge.log_scale
        m = m * along(km, e)
    out = ScaledArray(m, ls)
    out.renormalize()
    return out


def random_potentials(spec, rng, zero_rate=0.0, log_spread=1.0):
    """Positive potentials with optional exact zeros and varied magnitudes."""
    pots = DualPotentials.ones_for(spec)
    for block, factors in pots.factors.items():
        for i in range(len(factors)):
            vals = np.exp(rng.uniform(-log_spread, log_spread, spec.block_shape(block)))
            if zero_rate > 0:
                mask = rng.uniform(size=vals.shape) < zero_rate
                if mask.all():
                    mask.flat[0] = False
                vals[mask] = 0.0
            factors[i] = ScaledArray.from_values(vals)
    return pots


def inclusion_residual(fn, u, w, epsilon):
    """Entrywise distance of ``u * w`` from the conjugate subdifferential of
    ``fn`` at ``s = -epsilon * log u`` (inf where it is empty)."""
    p = (u.m * w.m).ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        # a zero entry stays zero even where the scale overflows (0 * inf)
        p = np.where(p == 0.0, 0.0, p * np.exp(u.log_scale + w.log_scale))
    s = -epsilon * u.log_value().ravel()
    lower, upper = fn.conjugate_subgradient(s)
    return np.maximum(np.maximum(lower - p, p - upper), 0.0)


def block_functions(spec, kind):
    """The cost of each ``kind`` ("node" or "edge") block of ``spec`` in the
    form ``ProblemSpec`` takes: its one part, or a composite of its parts."""
    return {where: parts[0] if len(parts) == 1 else CompositeFunction(parts)
            for (k, where), parts in spec.blocks.items() if k == kind}


def random_chain_spec(rng, n_nodes=None, sizes=None, epsilon=1.0, with_edge_fn=False,
                      zero_cost_rate=0.0):
    n_nodes = n_nodes or int(rng.integers(2, 6))
    sizes = sizes or [int(rng.integers(2, 6)) for _ in range(n_nodes)]
    topo = GraphTopology.chain(n_nodes)
    kernels = {}
    for j in range(n_nodes - 1):
        cost = rng.uniform(0.0, 2.0, (sizes[j], sizes[j + 1]))
        if zero_cost_rate > 0:
            cost[rng.uniform(size=cost.shape) < zero_cost_rate] = np.inf
        kernels[(j, j + 1)] = build_kernel(cost, epsilon)
    node_fns = {0: Equality(rng.uniform(0.1, 1.0, sizes[0]))}
    edge_fns = {}
    if with_edge_fn and n_nodes >= 3:
        shape = (sizes[1], sizes[2])
        edge_fns[(1, 2)] = Equality(rng.uniform(0.1, 1.0, shape))
    return ProblemSpec(topo, kernels, node_fns, edge_fns, epsilon)


def random_od_spec(rng, n_nodes=None, n_states=None, epsilon=1.0):
    """Random OD cycle; about half of the draws put a non-ones kernel on the chord."""
    n_nodes = n_nodes or int(rng.integers(3, 6))
    n = n_states or int(rng.integers(2, 6))
    topo = GraphTopology.od_cycle(n_nodes)
    kernels = {(j, j + 1): build_kernel(rng.uniform(0.0, 2.0, (n, n)), epsilon)
               for j in range(n_nodes - 1)}
    if rng.uniform() < 0.5:
        kernels[topo.chord] = build_kernel(rng.uniform(0.0, 2.0, (n, n)), epsilon)
    edge_fns = {topo.chord: Equality(rng.uniform(0.05, 1.0, (n, n)))}
    return ProblemSpec(topo, kernels, {}, edge_fns, epsilon)


def random_hub_spec(rng, time_nodes=None, n_states=None, species=None, epsilon=1.0):
    """Random species hub; each hub edge has a non-ones kernel with probability 1/2."""
    tc = time_nodes or int(rng.integers(2, 5))
    n = n_states or int(rng.integers(2, 6))
    L = species or int(rng.integers(1, 4))
    topo = GraphTopology.species_hub(tc, L)
    kernels = {(j, j + 1): build_kernel(rng.uniform(0.0, 2.0, (n, n)), epsilon)
               for j in range(tc - 1)}
    for e in [(topo.hub, j) for j in topo.time_nodes]:
        if rng.uniform() < 0.5:
            kernels[e] = build_kernel(rng.uniform(0.0, 2.0, (L, n)), epsilon)
    edge_fns = {(topo.hub, 0): Equality(rng.uniform(0.05, 1.0, (L, n)))}
    return ProblemSpec(topo, kernels, {}, edge_fns, epsilon)


def as_general(spec):
    """The same instance declared as a small general graph.

    A chain or an OD cycle declared general is a path plus chords from
    node 0, so it still runs on the path engine; only a hub gets the dense
    engine.  ``solve_dense`` solves any spec on the dense engine.
    """
    general = copy.copy(spec)
    general.topology = GraphTopology.general(spec.topology.node_count, spec.topology.edges)
    return general


def solve_dense(spec, config=None, initial=None):
    """``solve`` with ``gtop.solver.make_engine`` patched to ``DenseEngine`` for
    this one call: the dense ground truth of a solve, whatever the topology."""
    from gtop import DenseEngine, solver
    routed = solver.make_engine
    solver.make_engine = DenseEngine
    try:
        return solver.solve(spec, config, initial)
    finally:
        solver.make_engine = routed


def row_major_grid(rng, sizes):
    """Points of a random grid with ``sizes`` points per axis, in row-major
    order; each axis is unsorted."""
    axes = [rng.uniform(0.0, 1.0, s) for s in sizes]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def grid_mfg_specs(rng, sizes, steps=3, species=2, epsilon=0.3, cost_scale=1.7,
                   path_edge_cost=False):
    """A species-hub MFG on a random row-major grid, built with its separable
    kernels, and the same instance with the dense n x n kernel.

    Species costs, linear, reweight the hub edges' kernels; ``path_edge_cost``
    adds a quadratic cost, and with it a potential, on the time edge (1, 2).
    """
    grid = row_major_grid(rng, sizes)
    n = grid.shape[0]
    initials = [rng.uniform(0.1, 1.0, n) for _ in range(species)]
    initials = [mu / mu.sum() / species for mu in initials]
    setup = MFGSetup(grid=grid, n_steps=steps, initial_densities=initials, epsilon=epsilon,
                     cost_scale=cost_scale,
                     species_running={j: [Linear(rng.uniform(0.0, 1.0, n))] * species
                                      for j in range(1, steps)},
                     total_terminal=QuadraticDistance(2.0, np.full(n, 1.0 / n)))
    spec = build_mfg_problem(setup)
    assert isinstance(spec.kernels[(0, 1)], SeparableKernel)
    edge_fns = block_functions(spec, "edge")
    if path_edge_cost:
        edge_fns[(1, 2)] = QuadraticDistance(1.0, rng.uniform(0.0, 0.1, (n, n)))
    dense = build_kernel(build_mfg_cost_matrix(grid, scale=cost_scale), epsilon)
    dense_kernels = {e: dense if isinstance(k, SeparableKernel) else k
                     for e, k in spec.kernels.items()}
    return tuple(ProblemSpec(spec.topology, kernels, block_functions(spec, "node"), edge_fns,
                             epsilon)
                 for kernels in (spec.kernels, dense_kernels))


def _random_part(rng, shape, mass, nested=True):
    """One catalog cost on a block of ``shape`` in a plan of total ``mass``:
    zero, linear, box (a third of them indicators of a support), distance
    with p in {1.5, 2, 3}, congestion, and, if ``nested``, blockwise rows or
    a composite of two parts."""
    n = math.prod(shape)
    kind = int(rng.integers(7 if nested else 5))
    if kind == 0:
        return Zero()
    if kind == 1:
        return Linear(rng.uniform(0.0, 1.0, shape))
    if kind == 2:
        if rng.uniform() < 1.0 / 3.0:
            upper = np.where(rng.uniform(size=shape) < 0.25, 0.0, np.inf)
            return Box(0.0, upper)
        upper = np.where(rng.uniform(size=shape) < 0.5, np.inf,
                         rng.uniform(0.5, 2.0, shape) * mass)
        return Box(rng.uniform(0.0, 0.2, shape) * mass / n, upper)
    if kind == 3:
        return QuadraticDistance(rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * mass / n, shape),
                                 exponent=float(rng.choice([1.5, 2.0, 3.0])))
    if kind == 4:
        return Congestion(rng.uniform(1.0, 3.0, shape) * mass)
    if kind == 5:
        if len(shape) == 2:
            return stack_rows([_random_part(rng, (shape[1],), mass, nested=False)
                               for _ in range(shape[0])], shape[1])
        cut = int(rng.integers(1, n))
        return Blockwise(n, [(np.arange(cut), _random_part(rng, (cut,), mass, nested=False)),
                             (np.arange(cut, n),
                              _random_part(rng, (n - cut,), mass, nested=False))])
    return CompositeFunction([_random_part(rng, shape, mass, nested=False) for _ in range(2)])


def random_problem(rng):
    """A random small instance for the engine cross-checks.

    The graph is a path plus random chords from node 0, or a species hub,
    with 3-6 nodes of 2-5 states and epsilon in {0.5, 0.2, 0.1, 0.05}.
    Every other node, and two edges in three, draw a cost from the whole
    catalog (``_random_part``); an equality at node 0 fixes the plan mass.
    """
    n_nodes = int(rng.integers(3, 7))
    if rng.uniform() < 0.5:
        chords = [(0, b) for b in range(2, n_nodes) if rng.uniform() < 0.5]
        topo = GraphTopology.general(n_nodes, [(j, j + 1) for j in range(n_nodes - 1)] + chords)
        sizes = [int(rng.integers(2, 6)) for _ in range(n_nodes)]
    else:
        species = int(rng.integers(2, 6))
        topo = GraphTopology.species_hub(n_nodes - 1, species)
        sizes = [int(rng.integers(2, 6)) for _ in range(n_nodes - 1)] + [species]
    epsilon = float(rng.choice([0.5, 0.2, 0.1, 0.05]))
    mass = rng.uniform(0.5, 2.0)
    kernels = {e: build_kernel(rng.uniform(0.0, 1.0, (sizes[e[0]], sizes[e[1]])), epsilon)
               for e in topo.edges}
    target = rng.uniform(0.1, 1.0, sizes[0])
    node_fns = {0: Equality(target * mass / target.sum())}
    node_fns.update({j: _random_part(rng, (sizes[j],), mass) for j in range(1, n_nodes)})
    edge_fns = {e: _random_part(rng, (sizes[e[0]], sizes[e[1]]), mass)
                for e in topo.edges if rng.uniform() < 2.0 / 3.0}
    return ProblemSpec(topo, kernels, node_fns, edge_fns, epsilon)
