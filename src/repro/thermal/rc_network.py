"""Equivalent-electrical RC network assembly (Figure 3b).

Each cell carries one thermal capacitance and couples to its neighbours
through thermal resistances: four lateral and one vertical (Figure 3b).
A resistance between two cells is the series of each cell's *half*
resistance, so the non-linear silicon conductivity is evaluated at each
cell's own temperature — exactly the "non-linear resistances inside the
silicon" the paper adopts.  The heat spreader is linear copper.

Boundary conditions (Section 5.2):

* power enters as current sources on the bottom (die) cells, each
  injecting the covering components' power density times the overlap
  area;
* no heat is transferred down into the package from the bottom cells
  (adiabatic bottom and sides);
* the top (spreader) cells lose heat by natural convection through a
  resistance equal to the package-to-air resistance weighted by the
  spreader-to-cell area ratio, in series with the cell's own vertical
  half resistance.

Every cell interacts only with its neighbours, so assembly and solve
cost are linear in the number of cells (sparse matrices).

The sparsity pattern of ``C/dt + G(T)`` never changes with temperature,
so :class:`AssemblyPlan` lays it out once per structure (lazily, on the
first solve, and shared by every clone): each step then only fills the
CSC ``data`` array from the edge conductances.  The plan repeats the
exact additions, in the exact order, of building the matrix through
scipy's COO -> CSR -> plus diagonal -> CSC route, so the matrix handed
to the factorization is bit-identical to that route's.

Power injection and component readout are precomputed sparse maps:
``set_power`` is one matrix-vector product ``P = M_inj @ w`` over the
component wattage vector, and per-component mean temperatures are one
product ``W @ T`` — no per-window Python loops on the hot path.

:func:`network_for` is a structure-keyed assembly cache: scenarios that
share a floorplan and grid configuration (a parameter sweep, a batched
run) get clones of one assembled network — grid generation and edge/
matrix assembly happen exactly once per structure per process.
"""

import copy

import numpy as np
from scipy import sparse

from repro.thermal.grid import LAYER_DIE, build_grid
from repro.thermal.properties import silicon_conductivity


#: Longest sum padded together with the others.  A die cell's diagonal
#: sums a handful of neighbours; a coarse spreader cell over a fine die
#: sums one term per die cell beneath it (147 for 24x24 under 2x2).
_WIDE_SUM = 32


class AssemblyPlan:
    """The fixed CSC layout of ``C/dt + G(T)`` for one network structure.

    Every contribution to the matrix is one entry of the value vector
    ``[-g, g, g_ambient, -0.0]`` (``g`` the edge conductances): edge
    ``e = (i, j)`` adds ``-g[e]`` at ``(i, j)`` and ``(j, i)`` and
    ``g[e]`` at ``(i, i)`` and ``(j, j)``; cell ``k`` adds
    ``g_ambient[k]`` at ``(k, k)``.  The plan records which
    contributions scipy's COO -> CSR conversion sums into each slot, and
    in which order:

    * COO -> CSR buckets entries by row in input order, then
      ``sort_indices`` orders each row by column.  That sort is not
      stable, so the plan runs the very same sort on contribution ids
      instead of re-deriving its tie order.
    * ``sum_duplicates`` adds each run of equal columns strictly left to
      right; :meth:`matrix` does the same with ``np.add.accumulate``
      (``np.sum`` and ``np.add.reduceat`` are pairwise, so they would
      round differently).
    * adding the diagonal ``C/dt`` matrix adds ``C/dt`` to each summed
      diagonal entry, and the CSR -> CSC conversion only moves values.
    """

    def __init__(self, edge_i, edge_j, num_cells):
        n, m = num_cells, len(edge_i)
        cells = np.arange(n)
        edges = np.arange(m)
        rows = np.concatenate([edge_i, edge_j, edge_i, edge_j, cells])
        cols = np.concatenate([edge_j, edge_i, edge_i, edge_j, cells])
        source = np.concatenate(
            [edges, edges, m + edges, m + edges, 2 * m + cells]
        )
        # COO -> CSR: each row's entries in input order, then scipy's own
        # per-row column sort, run with contribution ids as the data.
        order = np.argsort(rows, kind="stable")
        row_ptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        tagged = sparse.csr_matrix(
            (order.astype(float), cols[order], row_ptr), shape=(n, n)
        )
        tagged.sort_indices()
        contribution = tagged.data.astype(np.int64)
        row, col = rows[contribution], tagged.indices
        # sum_duplicates: each run of equal (row, col) is one slot.
        starts = np.flatnonzero(
            np.concatenate([[True], (row[1:] != row[:-1]) | (col[1:] != col[:-1])])
        )
        lengths = np.diff(np.append(starts, len(col)))
        slot_row, slot_col = row[starts], col[starts]
        # CSR -> CSC: slots by column, rows ascending within each column.
        csc = np.lexsort((slot_row, slot_col))
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(slot_col, minlength=n))]
        ).astype(np.int32)
        self.indices = slot_row[csc].astype(np.int32)
        self.nnz = len(csc)
        # Columns ascend, so the diagonal positions come in cell order.
        self._diagonal = np.flatnonzero(slot_row[csc] == slot_col[csc])
        # Every matrix shares the pattern arrays: make them read-only.
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False
        # Steps copy this template and swap in their data: constructing a
        # fresh csc_matrix would re-validate the fixed pattern every step.
        self._template = sparse.csc_matrix(
            (np.zeros(self.nnz), self.indices, self.indptr), shape=(n, n)
        )
        self._template.sum_duplicates()  # caches the canonical-format flag
        self._tiers = self._pad_tiers(
            source[contribution], starts[csc], lengths[csc], pad=2 * m + n
        )

    @staticmethod
    def _pad_tiers(summed, seg_start, seg_len, pad):
        """Group the CSC slots into rectangular ``(width, slots)`` index
        blocks, each slot's contributions down one column, padded with
        the ``-0.0`` entry.

        Single-contribution slots (off-diagonals) form a block of width
        one, and sums longer than :data:`_WIDE_SUM` a block of their
        own, so the few wide spreader diagonals do not pad every other
        sum to their width.
        """
        tiers = []
        for group in (
            seg_len == 1,
            (seg_len > 1) & (seg_len <= _WIDE_SUM),
            seg_len > _WIDE_SUM,
        ):
            positions = np.flatnonzero(group)
            if not len(positions):
                continue
            depth = np.arange(seg_len[positions].max())[:, None]
            valid = depth < seg_len[positions]
            flat = np.where(valid, seg_start[positions] + depth, 0)
            tiers.append((positions, np.where(valid, summed[flat], pad)))
        return tiers

    def matrix(self, g, g_ambient, c_over_dt):
        """``C/dt + G`` as a CSC matrix, from the edge conductances ``g``,
        the ambient conductances and ``c_over_dt`` (per cell, or a
        scalar such as 0)."""
        # The trailing -0.0 is the pad: ``x + -0.0 == x`` for every x,
        # signed zeros included, so padding never changes a sum's bits.
        values = np.concatenate((-g, g, g_ambient, [-0.0]))
        data = np.empty(self.nnz)
        for positions, index in self._tiers:
            data[positions] = np.add.accumulate(values[index], axis=0)[-1]
        data[self._diagonal] += c_over_dt
        matrix = copy.copy(self._template)
        matrix.data = data
        return matrix


class RCNetwork:
    """Sparse thermal RC network over a :class:`repro.thermal.grid.Grid`."""

    #: process-wide count of full assemblies (clones don't count) — lets
    #: tests assert that a sweep shared one assembly across B scenarios.
    assemblies = 0

    #: process-wide count of :class:`AssemblyPlan` builds — lets tests
    #: assert that clones share one plan and unsolved networks build none.
    plans_built = 0

    #: content key of the structure this network was assembled from
    #: (set by :func:`network_for`; ``None`` for direct/custom-property
    #: builds).  Equal keys mean identical structure arrays even across
    #: distinct prototype objects, so batch grouping can key on
    #: configuration instead of object identity.
    structure_key = None

    def __init__(self, grid):
        RCNetwork.assemblies += 1
        self.grid = grid
        self.properties = grid.properties
        n = grid.num_cells
        self.num_cells = n

        cells = grid.cells
        props = self.properties
        # Per-cell capacitance C = volumetric heat * volume.
        self.capacitance = np.array(
            [
                (
                    props.die_material.volumetric_heat
                    if c.layer == LAYER_DIE
                    else props.spreader_material.volumetric_heat
                )
                * c.volume
                for c in cells
            ]
        )
        # Which cells have temperature-dependent conductivity (silicon die).
        self.is_nonlinear = np.array(
            [
                c.layer == LAYER_DIE and props.die_material.nonlinear
                for c in cells
            ],
            dtype=bool,
        )
        self._linear_k = np.array(
            [
                (
                    props.die_material.k(300.0)
                    if c.layer == LAYER_DIE
                    else props.spreader_material.k(300.0)
                )
                for c in cells
            ]
        )

        # Edge arrays: conductance of edge e = 1 / (geom_i/k_i + geom_j/k_j)
        # where geom is the half-resistance geometric factor (1/m).
        edge_i, edge_j, geom_i, geom_j = [], [], [], []
        for i, j, face_len, axis in grid.lateral_edges:
            ci, cj = cells[i], cells[j]
            di = ci.width if axis == "x" else ci.height
            dj = cj.width if axis == "x" else cj.height
            edge_i.append(i)
            edge_j.append(j)
            geom_i.append((di / 2.0) / (face_len * ci.thickness))
            geom_j.append((dj / 2.0) / (face_len * cj.thickness))
        for i, j, area in grid.vertical_edges:
            ci, cj = cells[i], cells[j]
            edge_i.append(i)
            edge_j.append(j)
            geom_i.append((ci.thickness / 2.0) / area)
            geom_j.append((cj.thickness / 2.0) / area)
        self.edge_i = np.array(edge_i, dtype=np.int64)
        self.edge_j = np.array(edge_j, dtype=np.int64)
        self.geom_i = np.array(geom_i)
        self.geom_j = np.array(geom_j)

        # Convection from top (spreader) cells to ambient: the package
        # resistance weighted by area ratio, in series with the copper
        # half resistance of the cell itself.
        spreader_area = grid.floorplan.area
        g_amb = np.zeros(n)
        k_cu = props.spreader_material.k(300.0)
        for index in grid.spreader_cells:
            cell = cells[index]
            r_conv = props.package_to_air_resistance * (spreader_area / cell.area)
            r_half = (cell.thickness / 2.0) / (k_cu * cell.area)
            g_amb[index] = 1.0 / (r_conv + r_half)
        self.g_ambient = g_amb

        # Precomputed sparse injection / readout maps (component order is
        # the floorplan's cover order; both matrices are built once).
        self.component_names = tuple(grid.component_cover)
        self._comp_index = {
            name: k for k, name in enumerate(self.component_names)
        }
        comp_area = {
            comp.name: comp.area for comp in grid.floorplan.components
        }
        inj_rows, inj_cols, inj_data = [], [], []
        read_rows, read_cols, read_data = [], [], []
        for k, name in enumerate(self.component_names):
            cover = grid.component_cover[name]
            cover_area = sum(area for _, area in cover)
            for cell_index, overlap in cover:
                inj_rows.append(cell_index)
                inj_cols.append(k)
                inj_data.append(overlap / comp_area[name])
                read_rows.append(k)
                read_cols.append(cell_index)
                read_data.append(overlap / cover_area)
        m = len(self.component_names)
        # injection: watts vector (m,) -> per-cell sources (n,)
        self._injection = sparse.csr_matrix(
            (inj_data, (inj_rows, inj_cols)), shape=(n, m)
        )
        # readout: cell temperatures (n,) -> area-weighted means (m,)
        self._readout = sparse.csr_matrix(
            (read_data, (read_rows, read_cols)), shape=(m, n)
        )

        # Power injection vector (set_power refreshes it).
        self.power = np.zeros(n)

        # Holder for the lazily built AssemblyPlan.  Clones are shallow
        # copies, so they share this list and therefore the one plan.
        self._plan = [None]

    # -- power -----------------------------------------------------------------
    def watts_vector(self, component_powers):
        """A ``{component: watts}`` map as a vector in
        ``component_names`` order.

        Shared by :meth:`set_power` and the power-trace capture
        (:mod:`repro.trace.capture`): replay fidelity depends on the
        recorded vector being built exactly the way injection consumes
        it, so there must be only one implementation.
        """
        watts = np.zeros(len(self.component_names))
        for name, value in component_powers.items():
            if value == 0.0:  # passive/filler entries carry no source
                continue
            index = self._comp_index.get(name)
            if index is None:
                raise KeyError(f"no floorplan component {name!r}")
            watts[index] = value
        return watts

    def set_power(self, component_powers):
        """Set the current sources from a ``{component: watts}`` map.

        Power is spread over the component's covering die cells
        proportionally to overlap area ("the heat injected by the current
        source corresponds to the power density of the architectural
        component covering the cell multiplied by the surface area of the
        cell") — one sparse product ``P = M_inj @ w``.
        """
        self.power = self._injection @ self.watts_vector(component_powers)

    def total_power(self):
        return float(self.power.sum())

    # -- readout ---------------------------------------------------------------
    def component_temperatures(self, temperatures):
        """Area-weighted mean temperature per component: ``W @ T``."""
        means = self._readout @ np.asarray(temperatures)
        return dict(zip(self.component_names, means.tolist()))

    def component_temperature(self, name, temperatures):
        index = self._comp_index.get(name)
        if index is None:
            raise KeyError(f"no floorplan component {name!r}")
        row = self._readout.getrow(index)
        return float((row @ np.asarray(temperatures))[0])

    # -- conductance assembly ---------------------------------------------------
    def cell_conductivity(self, temperatures):
        """Per-cell conductivity at the given temperatures."""
        k = self._linear_k.copy()
        if self.is_nonlinear.any():
            t = np.asarray(temperatures)
            k[self.is_nonlinear] = silicon_conductivity(t[self.is_nonlinear])
        return k

    def edge_conductances(self, temperatures):
        k = self.cell_conductivity(temperatures)
        r = self.geom_i / k[self.edge_i] + self.geom_j / k[self.edge_j]
        return 1.0 / r

    def assembly_plan(self):
        """The structure's :class:`AssemblyPlan`, built on first use and
        shared by every clone of this network."""
        plan = self._plan[0]
        if plan is None:
            plan = AssemblyPlan(self.edge_i, self.edge_j, self.num_cells)
            self._plan[0] = plan
            RCNetwork.plans_built += 1
        return plan

    def system_matrix(self, temperatures, c_over_dt):
        """``C/dt + G(T)`` as a CSC matrix; ``c_over_dt = 0`` gives the
        sparse G(T) alone (graph Laplacian over the edges + ambient
        leakage)."""
        return self.assembly_plan().matrix(
            self.edge_conductances(temperatures), self.g_ambient, c_over_dt
        )

    def rhs(self):
        """Right-hand side: injected power + ambient Dirichlet term."""
        return self.power + self.g_ambient * self.properties.ambient

    # -- energy bookkeeping (property tests) ---------------------------------
    def heat_outflow(self, temperatures):
        """Watts leaving through the package at the given temperatures."""
        t = np.asarray(temperatures)
        return float(
            np.sum(self.g_ambient * (t - self.properties.ambient))
        )

    # -- structure sharing ----------------------------------------------------
    def clone(self):
        """A new network sharing this one's immutable structure arrays.

        Only the per-run ``power`` vector is private; capacitances, edge
        arrays, ambient conductances, the injection/readout matrices and
        the (lazily built) :class:`AssemblyPlan` are shared read-only.
        This is what makes the assembly cache in :func:`network_for`
        safe and cheap.
        """
        twin = copy.copy(self)
        twin.power = np.zeros(self.num_cells)
        return twin


# -- structure-keyed assembly cache ------------------------------------------

#: Prototype networks by structure key, least recently used first.
_ASSEMBLY_CACHE = {}
#: Room for every structure of the default design space (24 core mixes
#: x 2 spreader grids = 48) plus headroom, so a shuffled sweep builds
#: each structure once.  Evicting sooner saves no memory: the clones a
#: batched run holds until it co-steps keep their prototype's arrays
#: alive anyway, and a rebuild only duplicates them.
_ASSEMBLY_CACHE_LIMIT = 64


def network_for(
    floorplan,
    mode="component",
    refine_critical=1,
    die_resolution=(8, 8),
    spreader_resolution=(4, 4),
    properties=None,
):
    """A ready :class:`RCNetwork` for the floorplan + grid configuration.

    Structurally identical requests (same floorplan geometry, same grid
    knobs, default properties) share one grid generation and one matrix
    assembly per process: later calls return :meth:`RCNetwork.clone`
    views of the cached prototype.  The cache keeps the
    :data:`_ASSEMBLY_CACHE_LIMIT` most recently used structures.
    Custom ``properties`` bypass the cache (the key would need a
    material fingerprint).
    """
    if properties is not None:
        grid = build_grid(
            floorplan,
            properties=properties,
            mode=mode,
            refine_critical=refine_critical,
            die_resolution=die_resolution,
            spreader_resolution=spreader_resolution,
        )
        return RCNetwork(grid)
    key = (
        floorplan.fingerprint(),
        mode,
        refine_critical,
        tuple(die_resolution),
        tuple(spreader_resolution),
    )
    prototype = _ASSEMBLY_CACHE.pop(key, None)
    if prototype is None:
        grid = build_grid(
            floorplan,
            mode=mode,
            refine_critical=refine_critical,
            die_resolution=die_resolution,
            spreader_resolution=spreader_resolution,
        )
        prototype = RCNetwork(grid)
        prototype.structure_key = key
        if len(_ASSEMBLY_CACHE) >= _ASSEMBLY_CACHE_LIMIT:
            _ASSEMBLY_CACHE.pop(next(iter(_ASSEMBLY_CACHE)))
    _ASSEMBLY_CACHE[key] = prototype  # (re)inserted as most recently used
    return prototype.clone()


def clear_assembly_cache():
    """Drop all cached network prototypes (tests, floorplan edits)."""
    _ASSEMBLY_CACHE.clear()
