"""Core problem model: scaled arrays, graph topologies, kernels, dual potentials.

Plans are never stored as full tensors.  A plan is the elementwise product of
edge kernels and rank-structured potential factors; all magnitudes are kept as
a float mantissa array paired with a single log-scale offset so that products
of many small kernel entries survive strong regularization.

A :class:`ProblemSpec` is data only, resolved once at construction, and no
solve writes into it: a cost part whose update ignores its weight is a
constant of the plan, and ``blocks`` lists the other parts, the coordinates
of the dual.  The dual objective is the plain formula, exact for any
potentials.
"""

import ctypes
import functools
import math
import operator
import warnings
from pathlib import Path

import numpy as np

from .errors import InvalidInput, NumericalFailure

# exp(-x) may round to zero only for x beyond this spread.
_UNDERFLOW_SPREAD = -math.log(np.finfo(float).smallest_subnormal)
_SYMV_MIN_SIDE = 512  # for dsymv in ``EdgeKernel.apply``; matmul wins below about 400


class ScaledArray:
    """Nonnegative array stored as ``mantissa * exp(log_scale)``.

    The mantissa max-norm is pulled back to 1 by :meth:`renormalize`, which
    leaves the represented value unchanged.  Entries may be exactly zero;
    those encode states that have been eliminated from the plan.
    :meth:`log_value` keeps its result, so ``m`` and ``log_scale`` are
    written only by :meth:`renormalize`, which drops it.
    """

    __slots__ = ("m", "log_scale", "_log")

    def __init__(self, mantissa, log_scale=0.0):
        self.m = np.asarray(mantissa, dtype=float)
        self.log_scale = float(log_scale)
        self._log = None

    @classmethod
    def from_values(cls, values):
        # The peak of |values| keeps the log finite for any real input; a
        # caller that takes outside input rejects negative entries itself.
        out = cls(np.array(values, dtype=float), 0.0)
        out._rescale(float(np.max(np.abs(out.m))) if out.m.size else 0.0)
        return out

    @classmethod
    def from_log(cls, log_values, shape):
        """``exp(log_values)`` of ``shape``, peaking at 1; -inf gives exact zeros."""
        peak = float(log_values.max(initial=-math.inf))
        if not peak < math.inf:
            raise NumericalFailure("a coordinate update produced %d NaN or +inf log potentials "
                                   "out of %d" % (np.count_nonzero(~(log_values < math.inf)),
                                                  log_values.size))
        if peak == -math.inf:
            return cls(np.zeros(shape), 0.0)
        return cls(np.exp(log_values - peak).reshape(shape), peak)

    @classmethod
    def ones(cls, shape):
        return cls(np.ones(shape), 0.0)

    @property
    def shape(self):
        return self.m.shape

    def renormalize(self):
        """Rescale the mantissa peak to 1; returns the absolute log shift.

        The mantissa is nonnegative, so its peak is its largest entry."""
        return self._rescale(float(self.m.max()) if self.m.size else 0.0)

    def _rescale(self, peak):
        """Move ``peak``, the largest mantissa magnitude, into the log scale."""
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
        self._log = None
        return abs(shift)

    def value(self):
        with np.errstate(over="ignore"):
            return self.m * np.exp(self.log_scale)

    def log_value(self):
        """``log(m) + log_scale``, computed once and returned read-only."""
        if self._log is None:
            with np.errstate(divide="ignore"):
                self._log = np.log(self.m) + self.log_scale
            self._log.flags.writeable = False
        return self._log

    def max_abs_log(self):
        """Largest finite |log| of an entry (0 if there is none).

        The finite logs lie between their smallest and their largest entry,
        so these two are found first; only a -inf or NaN log needs a mask.
        """
        lv = self.log_value()
        lo = float(lv.min(initial=math.inf))
        hi = float(lv.max(initial=-math.inf))
        if not (math.isfinite(lo) and math.isfinite(hi)):
            finite = np.isfinite(lv)
            lo = float(lv.min(where=finite, initial=math.inf))
            hi = float(lv.max(where=finite, initial=-math.inf))
        return max(abs(lo), abs(hi)) if lo <= hi else 0.0

    def total(self):
        """Sum of the represented values as a plain float (inf on overflow)."""
        s = float(self.m.sum())
        if s == 0.0:
            return 0.0
        with np.errstate(over="ignore"):
            return float(s * np.exp(self.log_scale))

    def copy(self):
        return ScaledArray(self.m.copy(), self.log_scale)

    def __repr__(self):
        return "ScaledArray(shape=%s, log_scale=%.6g)" % (self.m.shape, self.log_scale)


def smul(*factors):
    """Elementwise product of scaled arrays (numpy broadcasting applies)."""
    m = factors[0].m.copy()
    ls = factors[0].log_scale
    for f in factors[1:]:
        m = m * f.m
        ls += f.log_scale
    out = ScaledArray(m, ls)
    out.renormalize()
    return out


def integer(x, what):
    """``x`` as an int: a Python or numpy integer, never a bool, float or string."""
    if isinstance(x, bool) or not hasattr(type(x), "__index__"):
        raise InvalidInput("%s must be an integer, got %r" % (what, x))
    return operator.index(x)


class GraphTopology:
    """Connected marginal graph, given by its edge list.

    Nodes are the tensor modes, numbered ``0 .. node_count-1``.  A species
    hub is the node ``hub`` of size ``species_count``; every other node is a
    time node.  The edges alone decide which structure the graph has
    (:attr:`path_chords`).
    """

    def __init__(self, node_count, edges, hub=None, species_count=None):
        self.node_count = integer(node_count, "node count")
        self.edges = tuple((integer(a, "edge end"), integer(b, "edge end")) for a, b in edges)
        self.hub = None if hub is None else integer(hub, "hub")
        self.species_count = None if species_count is None else integer(species_count, "species")
        self._validate()

    @classmethod
    def chain(cls, node_count):
        edges = [(t, t + 1) for t in range(integer(node_count, "node count") - 1)]
        return cls(node_count, edges)

    @classmethod
    def od_cycle(cls, node_count):
        if integer(node_count, "node count") < 3:
            raise InvalidInput("a cycle over the endpoints needs at least 3 nodes")
        edges = [(t, t + 1) for t in range(node_count - 1)]
        edges.append((0, node_count - 1))
        return cls(node_count, edges)

    @classmethod
    def species_hub(cls, time_node_count, species_count):
        hub = integer(time_node_count, "time node count")
        if hub < 2:
            raise InvalidInput("a species hub needs at least two time nodes")
        edges = [(t, t + 1) for t in range(time_node_count - 1)]
        edges += [(hub, j) for j in range(time_node_count)]
        return cls(time_node_count + 1, edges, hub=hub, species_count=species_count)

    @classmethod
    def general(cls, node_count, edges):
        return cls(node_count, edges)

    @property
    def chord(self):
        """The edge (0, n-1) closing an origin-destination cycle, or None."""
        chord = (0, self.node_count - 1)
        if self.hub is None and self.node_count >= 3 and chord in self.edges:
            return chord
        return None

    @property
    def path_chords(self):
        """``(path, chords)`` when the edges are exactly the path steps
        (path[i], path[i+1]) plus chords (path[0], b), as given; None for any
        other graph.  The path is the hub, if any, then the time nodes."""
        path = self.time_nodes
        if self.hub is not None:
            path = (self.hub,) + path
        steps = set(zip(path, path[1:]))
        chords = tuple(e for e in self.edges if e not in steps)
        if len(self.edges) - len(chords) < len(steps) or any(a != path[0] for a, _ in chords):
            return None
        return path, chords

    @property
    def time_nodes(self):
        return tuple(v for v in range(self.node_count) if v != self.hub)

    def _validate(self):
        n = self.node_count
        if n < 2:
            raise InvalidInput("a graph needs at least two nodes, got %d" % n)
        if self.hub is not None and not (0 <= self.hub < n and (self.species_count or 0) >= 1):
            raise InvalidInput("a hub must be a node and have a positive species count")
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


class EdgeKernel(ScaledArray):
    """Pairwise kernel ``exp(-cost / epsilon)`` stored in mantissa form.

    Zero mantissa entries encode forbidden transitions and stay exactly zero
    through every operation.
    """

    __slots__ = ("_symmetric",)

    def __init__(self, mantissa, log_scale=0.0):
        super().__init__(mantissa, log_scale)
        if self.m.ndim != 2:
            raise InvalidInput("kernel must be a matrix")
        if self.m.size and not (self.m.min() >= 0 and self.m.max() < math.inf):
            raise InvalidInput("kernel entries must be finite and nonnegative")
        self._symmetric = None

    @classmethod
    def _of_exp(cls, mantissa, log_scale):
        """A kernel from ``build_kernel``'s matrix of exp of non-positive numbers
        (or 0), which holds no entry that ``__init__`` would reject."""
        k = cls.__new__(cls)
        ScaledArray.__init__(k, mantissa, log_scale)
        k._symmetric = None
        return k

    def apply(self, m, transpose=False):
        """``m @ K``, or ``m @ K.T``: the rows of ``m`` times the kernel.

        A one-row float64 message times an exactly symmetric C-ordered kernel
        of side ``_SYMV_MIN_SIDE`` or more takes ``dsymv`` of numpy's OpenBLAS,
        if any: it reads half the kernel, differs from matmul at roundoff, and
        checks the symmetry once, on the first such apply."""
        k, n = self.m, self.m.shape[0]
        if (m.shape == (1, n) and k.shape[1] == n >= _SYMV_MIN_SIDE and m.dtype == k.dtype == float
                and k.flags.c_contiguous and _dsymv() is not None):
            if self._symmetric is None:
                self._symmetric = bool(np.array_equal(k, k.T))
            if self._symmetric:
                x, y = np.ascontiguousarray(m), np.zeros((1, n))
                _dsymv()(101, 121, n, 1.0, k.ctypes.data, n, x.ctypes.data, 1, 0.0,
                         y.ctypes.data, 1)  # 101, 121: CblasRowMajor, CblasUpper
                return y
        return m @ (k.T if transpose else k)

    def times(self, x):
        """``x * K`` elementwise, written into ``x``."""
        x *= self.m
        return x

    def full(self):
        return self.m


@functools.cache
def _dsymv():
    """``cblas_dsymv(order, uplo, n, alpha, a, lda, x, incx, beta, y, incy)``,
    int64 sizes, of the scipy-openblas numpy loaded from its own install, else None."""
    root = Path(np.__file__).parent
    libs = [*root.parent.glob("numpy.libs/libscipy_openblas64_*"),
            *root.glob(".dylibs/libscipy_openblas64_*")]
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if (blas["name"] != "scipy-openblas" or "USE64BITINT" not in blas["openblas configuration"]
                or len(libs) != 1):
            return None
        fn = ctypes.CDLL(str(libs[0])).scipy_cblas_dsymv64_
    except (KeyError, TypeError, OSError, AttributeError):
        return None
    i64, dbl, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    fn.argtypes = [ctypes.c_int, ctypes.c_int, i64, dbl, ptr, i64, ptr, i64, dbl, ptr, i64]
    fn.restype = None
    return fn


class SeparableKernel:
    """Kernel on a row-major grid: the Kronecker product of one square
    :class:`EdgeKernel` per axis, ``K[(i0, i1, ..), (j0, j1, ..)] =
    K0[i0, j0] * K1[i1, j1] * ..`` (Solomon et al., "Convolutional Wasserstein
    distances", ACM TOG 2015).  It is applied one axis at a time; only
    :meth:`full` forms the n x n mantissa, anew on every call.
    """

    def __init__(self, axes):
        self.axes = tuple(axes)
        if any(k.shape[0] != k.shape[1] for k in self.axes):
            raise InvalidInput("axis kernels must be square")
        self.sizes = tuple(k.shape[0] for k in self.axes)
        self.shape = (math.prod(self.sizes),) * 2
        self.log_scale = sum(k.log_scale for k in self.axes)

    def apply(self, m, transpose=False):
        """``m @ K``, or ``m @ K.T``, by one small matmul per axis."""
        x = m
        for a, k in enumerate(self.axes):
            km = k.m.T if transpose else k.m
            if a == len(self.axes) - 1:
                x = x.reshape(-1, self.sizes[a]) @ km
            else:
                x = km.T @ x.reshape(-1, self.sizes[a], math.prod(self.sizes[a + 1:]))
        return x.reshape(m.shape)

    def times(self, x):
        """``x * K`` elementwise, written into the n x n ``x`` by broadcasting
        each axis factor over its (s0, s1, .., s0, s1, ..) view."""
        view = x.reshape(self.sizes * 2)
        for a, k in enumerate(self.axes):
            shape = [1] * len(view.shape)
            shape[a] = shape[a + len(self.sizes)] = self.sizes[a]
            view *= k.m.reshape(shape)
        return view.reshape(x.shape)

    def full(self):
        return functools.reduce(np.kron, [k.m for k in self.axes])


def build_kernel(cost, epsilon):
    """Exponentiate ``-cost/epsilon`` into an :class:`EdgeKernel`.

    Infinite costs map to exact zeros; the log scale is chosen so the largest
    mantissa equals 1, which makes the stored matrix safe to multiply.  A
    finite cost more than about 745 * epsilon above the smallest one
    underflows to zero as well; a RuntimeWarning reports how many did.
    """
    # One working copy of the costs is checked, then becomes the kernel in
    # place; inf -> exp(-inf) = 0.
    m = np.array(cost, dtype=float, order="C")
    if not (np.isscalar(epsilon) or np.ndim(epsilon) == 0) or not math.isfinite(float(epsilon)) \
            or float(epsilon) <= 0:
        raise InvalidInput("epsilon must be a positive finite scalar")
    epsilon = float(epsilon)
    if m.ndim != 2:
        raise InvalidInput("cost must be a matrix")
    cmin = float(m.min()) if m.size else math.inf
    if not cmin > -math.inf:
        raise InvalidInput("cost entries must be > -inf and not NaN")
    if cmin == math.inf:
        return EdgeKernel._of_exp(np.zeros(m.shape), 0.0)
    # With +inf costs the spread is +inf and the zeros are counted: a finite
    # entry can only underflow when the finite spread exceeds the bound too.
    spread = (float(m.max()) - cmin) / epsilon
    forbidden = m.size - int(np.count_nonzero(np.isfinite(m))) if spread == math.inf else 0
    m -= cmin
    m /= -epsilon
    np.exp(m, out=m)
    if spread > _UNDERFLOW_SPREAD:
        lost = m.size - int(np.count_nonzero(m)) - forbidden
        if lost:
            warnings.warn("%d finite-cost kernel entries underflow to zero (forbidden "
                          "transitions) at epsilon=%g: their cost exceeds the smallest by "
                          "more than %.0f * epsilon" % (lost, epsilon, _UNDERFLOW_SPREAD),
                          RuntimeWarning, stacklevel=2)
    return EdgeKernel._of_exp(m, -cmin / epsilon)


class DualPotentials:
    """Scaling factors of the plan: ``factors[block]``, one per stacked cost
    part of each block of ``ProblemSpec.blocks``, and ``constants``, the spec's
    node constants (an edge's is in its kernel); their product acts on the plan."""

    def __init__(self, factors, constants=None):
        self.factors = factors
        self.constants = constants or {}

    @classmethod
    def ones_for(cls, spec):
        return cls({block: [ScaledArray.ones(spec.block_shape(block)) for _ in parts]
                    for block, parts in spec.blocks.items()},
                   {b: c for b, c in spec.constants.items() if b[0] == "node"})

    def value(self, block):
        """The product of the block's factors and constant, or None where
        there is neither."""
        factors = self.factors.get(block, ())
        if block in self.constants:
            factors = [*factors, self.constants[block]]
        if not factors:
            return None
        return factors[0] if len(factors) == 1 else smul(*factors)


class ProblemSpec:
    """Immutable description of one optimization instance.

    Holds the graph, a kernel per edge, one convex cost per node and per
    edge, and the regularization strength.  Construction validates the
    shapes and splits each distinct cost part once (:func:`_split`): fixed
    factors multiply into the ``constants`` of a node or edge, an edge's
    also into its kernel (exp(-C / epsilon) * K), and ``blocks`` holds the
    parts left to update; any other node or edge is summed out.
    """

    def __init__(self, topology, kernels, node_functions=None, edge_functions=None,
                 epsilon=1.0):
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
            if not 0 <= integer(key, "node function key") < topology.node_count:
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

        # Keyed by ("node", j) or ("edge", e), nodes first.  Every given
        # function is size-checked, zero costs included, and split once.
        given = [(("node", j), node_functions.get(j)) for j in range(topology.node_count)]
        given += [(("edge", e), edge_functions.get(e)) for e in topology.edges]
        self.blocks, self.constants = {}, {}
        split = functools.cache(functools.partial(_split, epsilon=self.epsilon))
        for (kind, where), fn in given:
            if fn is None:
                continue
            shape = self.block_shape((kind, where))
            fn.validate_size(math.prod(shape), where="%s %r" % (kind, where))
            c, rest = split(fn, shape)
            if rest:
                self.blocks[kind, where] = rest
            if c is not None:
                self.constants[kind, where] = c
                if kind == "edge":
                    k = self.kernels[where]
                    k = self.kernels[where] = EdgeKernel._of_exp(k.full() * c.m,
                                                                 k.log_scale + c.log_scale)
                    k.renormalize()

    def block_shape(self, block):
        """The shape of a ("node", j) or ("edge", (a, b)) block's factors."""
        kind, where = block
        return tuple(self.node_sizes[j] for j in ((where,) if kind == "node" else where))

    @staticmethod
    def _infer_sizes(topology, kernels):
        sizes = {}
        if topology.hub is not None:
            sizes[topology.hub] = topology.species_count
        for e, k in kernels.items():
            for node, dim in zip(e, k.shape):
                if sizes.setdefault(node, dim) != dim:
                    raise InvalidInput("inconsistent size for node %d" % node)
        missing = [j for j in range(topology.node_count) if j not in sizes]
        if missing:
            raise InvalidInput("cannot infer sizes for nodes %r; give kernels covering them"
                               % (missing,))
        return [sizes[j] for j in range(topology.node_count)]


def _split(fn, shape, epsilon):
    """``(constant, parts)`` of a node's or edge's cost on ``shape``: the factors
    its parts give whatever the weight, multiplied (None if all are ones, as a
    zero cost's), and the parts left to update; a blockwise part splits by block."""
    fixed, rest = [], []
    for part in getattr(fn, "parts", (fn,)):
        if part.ignores_weight:
            fixed.append(part.fixed_factor(shape, epsilon))
        elif any(f.ignores_weight for _, f in getattr(part, "blocks", ())):
            fixed.append(part.restricted(lambda f: f.ignores_weight).fixed_factor(shape, epsilon))
            rest.append(part.restricted(lambda f: not f.ignores_weight))
        else:
            rest.append(part)
    fixed = [c for c in fixed if c.log_scale != 0.0 or not (c.m == 1.0).all()]
    return (fixed[0] if len(fixed) == 1 else smul(*fixed) if fixed else None), tuple(rest)


def dual_objective(potentials, spec, engine, block=("node", 0)):
    """Concave objective the coordinate updates ascend.

    Equals ``-epsilon * mass - sum of conjugates`` with every conjugate taken
    at the negated log potential.  The plan mass is the total of one
    projection from ``engine``, whose messages must be current for
    ``potentials`` (``engine.refresh``): the marginal of node 0 unless
    ``block`` names another node or edge.  Any block gives the same number,
    and no full tensor is formed.  Returns ``-inf`` when some multiplier sits
    outside its conjugate's domain (a dual-infeasible point).
    """
    mass = engine.projection(block, potentials).total()
    if not math.isfinite(mass):
        return -math.inf
    val = -spec.epsilon * mass
    for block, parts in spec.blocks.items():
        for part, factor in zip(parts, potentials.factors[block]):
            with np.errstate(invalid="ignore"):
                s = -spec.epsilon * factor.log_value()
            c = part.conjugate(s)
            if c == math.inf:
                return -math.inf
            val -= c
    return val
