"""Per-path electric fields, RSS maps, and the image-method ray model.

Received signal strength follows the coherent field sum
``RSS = lambda^2 / (8*pi*eta0) * |sum_l E_l|^2`` and, equivalently on the
channel side, ``RSS = P_T * sum_d ||H_d||_F^2`` once path gains are
calibrated as ``alpha_l = lambda * E_l / sqrt(8*pi*eta0*P_T*Nr*Nt)``.

The ray model returns the line-of-sight path plus specular reflections
(image method) off the ground and off vertical building facets, up to two
bounces. Facets are arrays (normal axis, plane value, outward sign, 3-D
bounds, unbounded along the normal and for the ground). Once per scene, the
tx images of every facet and ordered facet pair are built, and the chains
that no receiver can use are dropped: a first facet that does not face tx,
or a pair with one facet wholly behind the other's plane. One batch tracer
then bisects its receivers into spatially compact leaves and, for each bounce
order, drops each (leaf, chain) pair that no receiver of the leaf can use: the
leaf's bounding box, projected through the chain's images onto its facets,
misses a facet's bounds or never crosses its plane (the beam-tracing cull of
Heckbert & Hanrahan, 1984, on a group of receivers). It runs the hit-point,
facing and occlusion tests as masks over the surviving (receiver, chain) lanes
and returns one flat record of per-path columns (receiver, length, Gamma^b,
segment geometry), each receiver's paths in bounce order, then chain: for one
receiver in :func:`trace_paths`, for every outdoor grid cell in
:func:`generate_rss_map`. Every tolerance of the tracer is one length,
``_EPS`` = 1e-9 m, never a fraction of a segment, so a path traced either
way between two points meets the same tests; the cull only widens what it
keeps by its own rounding, so it drops no lane that the tests accept. Scenes
are immutable; every function here is pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from ._checks import count, count_fields, finite_array, point, read_arrays, real, write_arrays
from .channel_model import ChannelTensor, PathSet

__all__ = [
    "ETA0",
    "C0",
    "Box",
    "Scene",
    "RssMap",
    "RssPatch",
    "GainCalibration",
    "trace_paths",
    "calibrate_alphas",
    "rss_from_fields",
    "rss_from_channel",
    "generate_rss_map",
    "rss_patch_at",
    "save_rss_map",
    "load_rss_map",
]

ETA0 = 376.730          # intrinsic impedance of free space, ohms
C0 = 2.99792458e8       # speed of light, m/s


@dataclass(frozen=True)
class Box:
    """Axis-aligned building footprint, meters: finite bounds, each min below its max."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    zmin: float
    zmax: float

    def __post_init__(self):
        for name, value in vars(self).items():
            real(value, name)
        if not (self.xmin < self.xmax and self.ymin < self.ymax and self.zmin < self.zmax):
            raise ValueError(f"degenerate box {self}")

    def contains(self, p) -> bool:
        return (
            self.xmin < p[0] < self.xmax
            and self.ymin < p[1] < self.ymax
            and self.zmin < p[2] < self.zmax
        )

    @property
    def bounds(self) -> np.ndarray:
        return np.array(
            [[self.xmin, self.ymin, self.zmin], [self.xmax, self.ymax, self.zmax]]
        )


@dataclass(frozen=True)
class Scene:
    """Static propagation environment: buildings, ground plane at z=0, one tx.

    ``buildings`` is a sequence of :class:`Box` and ``tx_position`` 3 finite
    values, stored as a tuple of boxes and a tuple of floats so that a scene
    stays hashable and compares by value. ``carrier_freq`` is finite and > 0,
    ``max_bounces`` the integer 0, 1 or 2. Every facet, the ground included,
    reflects with Gamma = -0.7, whatever the carrier and the incidence angle.
    """

    buildings: tuple[Box, ...]
    tx_position: tuple[float, float, float]
    carrier_freq: float
    max_bounces: int = 1

    def __post_init__(self):
        try:
            buildings = tuple(self.buildings)
        except TypeError:
            buildings = None
        if buildings is None or not all(isinstance(b, Box) for b in buildings):
            raise ValueError(f"buildings must be a sequence of Box, got {self.buildings!r}")
        object.__setattr__(self, "buildings", buildings)
        tx = point(self.tx_position, "tx_position")
        object.__setattr__(self, "tx_position", tuple(tx.tolist()))
        count_fields(self, "max_bounces")
        real(self.carrier_freq, "carrier_freq", positive=True)
        if self.max_bounces not in (0, 1, 2):
            raise ValueError("max_bounces must be 0, 1 or 2")

    @property
    def wavelength(self) -> float:
        return C0 / self.carrier_freq

    @cached_property
    def _tracer(self) -> _Geometry:
        """:func:`_geometry` of this scene, built on first use and shared by its
        traces; not a field, so it takes no part in ``==`` or ``hash``."""
        return _geometry(self)


@dataclass
class RssMap:
    """Gridded RSS field. ``values[row, col]`` sits at
    ``(origin[0] + col*spacing, origin[1] + row*spacing)``."""

    origin: np.ndarray
    spacing: float
    values: np.ndarray
    rx_height: float

    def __post_init__(self):
        self.origin = point(self.origin, "origin", 2)
        real(self.spacing, "spacing", positive=True)
        real(self.rx_height, "rx_height")
        self.values = finite_array(self.values, "RSS values")
        if self.values.ndim != 2:
            raise ValueError("RSS values must be a 2-D array")
        if (negative := self.values < 0).any():
            at = np.unravel_index(negative.argmax(), negative.shape)
            raise ValueError(f"RSS values{list(map(int, at))}={self.values[at]} is negative")

    def nearest_cell(self, xy) -> tuple[int, int]:
        """``(row, col)`` of the cell nearest the finite point ``xy[:2]``, which
        must be a cell of the map."""
        try:
            xy = xy[:2]
        except (TypeError, IndexError):  # a scalar or None, which point() rejects by name
            pass
        pos = point(xy, "position", 2)
        # Far off a fine grid the offset overflows to inf, which is off the map too.
        with np.errstate(over="ignore"):
            col, row = np.rint((pos - self.origin) / self.spacing)
        rows, cols = self.values.shape
        if not (0 <= row < rows and 0 <= col < cols):
            raise ValueError(f"position {tuple(pos.tolist())} is outside the RSS map bounds")
        return int(row), int(col)


@dataclass
class RssPatch:
    """Square 2-D window of finite RSS values around a coarse UE position."""

    values: np.ndarray
    center: tuple[int, int]

    def __post_init__(self):
        self.values = finite_array(self.values, "patch values")
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise ValueError(f"patch values must be square, got shape {self.values.shape}")


@dataclass(frozen=True)
class GainCalibration:
    """Context needed to map a field amplitude to a channel gain.

    ``alpha = lambda * E / sqrt(8*pi*eta0 * p_t * nr * nt)`` makes the
    field-side and channel-side RSS agree exactly for a single on-grid path
    (``||outer(a_r, a_t)||_F^2 = nr*nt`` and unit pulse energy on-grid).
    ``p_t`` must be finite and > 0, ``nr`` and ``nt`` integers >= 1.
    """

    p_t: float = 1.0
    nr: int = 1
    nt: int = 1

    def __post_init__(self):
        count_fields(self, "nr", "nt", low=1)
        real(self.p_t, "transmit power p_t", positive=True)


# ---------------------------------------------------------------------------
# image-method tracer
# ---------------------------------------------------------------------------

_EPS = 1e-9  # m; every tolerance of the tracer is this length
_GAMMA = -0.7  # every facet's reflection coefficient; as a float, the fields keep their rounding
# Lanes ((receiver, chain) pairs) that _trace runs at once, over whole leaves of at
# most _LANE_BUDGET // chains receivers; half as many (leaf, chain) pairs are culled
# at once, and _blocked tests as many (box, segment) pairs. A lane's temporaries take
# ~150 B, so 2**13 lanes cost ~1 MB of peak memory; each doubling beyond saves under
# 5% of a map's time and adds as much memory again.
_LANE_BUDGET = 2**13


@dataclass(frozen=True)
class _Geometry:
    """Scene-only arrays of the image method, built once per scene.

    Facet ``f`` is the plane ``x[axis[f]] == value[f]``, outward normal
    ``sign[f]``, clipped to ``lo[f] <= x <= hi[f]`` (unbounded along the
    normal). Facet 0 is the ground, unbounded; then each building's x-min,
    x-max, y-min and y-max walls. ``chains[b]`` holds the ``b``-bounce
    candidates: facets ``[n, b]`` and images ``[n, b, 3]``, image ``j`` being
    tx mirrored in facets ``0..j`` in turn. Chain 0 is the line of sight,
    chain 1 the facets, chain 2 ordered pairs of distinct facets, in facet
    order: all of them from :func:`_candidates`, the live ones from
    :func:`_geometry`.
    """

    tx: np.ndarray
    axis: np.ndarray
    value: np.ndarray
    sign: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    boxes_lo: np.ndarray
    boxes_hi: np.ndarray
    chains: list[tuple[np.ndarray, np.ndarray]]


def _candidates(scene: Scene) -> _Geometry:
    """The scene's facets and every chain up to ``scene.max_bounces``: each
    facet, and each ordered pair of distinct facets in ``(f1, f2)`` C order."""
    bounds = np.array([b.bounds for b in scene.buildings]).reshape(-1, 2, 3)
    n = len(bounds)
    axis = np.concatenate([[2], np.tile([0, 0, 1, 1], n)])
    value = np.concatenate([[0.0], bounds[:, [0, 1, 0, 1], [0, 0, 1, 1]].ravel()])
    sign = np.concatenate([[1.0], np.tile([-1.0, 1.0, -1.0, 1.0], n)])
    lo = np.concatenate([np.full((1, 3), -np.inf), np.repeat(bounds[:, 0], 4, axis=0)])
    hi = np.concatenate([np.full((1, 3), np.inf), np.repeat(bounds[:, 1], 4, axis=0)])
    facets = np.arange(len(axis))
    lo[facets, axis] = -np.inf
    hi[facets, axis] = np.inf
    tx = np.asarray(scene.tx_position, dtype=np.float64)
    img1 = np.tile(tx, (len(axis), 1))
    img1[facets, axis] = 2.0 * value - tx[axis]
    f1, f2 = np.nonzero(facets[:, None] != facets)  # C order
    img2 = img1[f1]
    img2[np.arange(len(f2)), axis[f2]] = 2.0 * value[f2] - img2[np.arange(len(f2)), axis[f2]]
    chains = [
        (np.zeros((1, 0), dtype=int), np.zeros((1, 0, 3))),
        (facets[:, None], img1[:, None]),
        (np.stack([f1, f2], axis=1), np.stack([img1[f1], img2], axis=1)),
    ]
    return _Geometry(tx, axis, value, sign, lo, hi, bounds[:, 0], bounds[:, 1],
                     chains[: scene.max_bounces + 1])


def _geometry(scene: Scene) -> _Geometry:
    """:func:`_candidates` without the chains that no receiver can use, the
    survivors in their order. A chain is dead if its first facet does not face
    tx, or if, in a pair, either facet lies wholly on the inner side of the
    other's plane, so that :func:`_trace` always rejects the pair's
    reflection points. A facet's extent there is its bounds widened by
    ``_hit``'s ``_EPS`` slack, and its plane value by ``_EPS`` for the hit
    point's rounding. The ground faces every point, so only its partner can
    make a pair with it dead."""
    g = _candidates(scene)
    facets = np.arange(len(g.axis))
    faces_tx = _outside(g, facets, np.broadcast_to(g.tx, (len(facets), 3)))
    ext = np.stack([g.lo - _EPS, g.hi + _EPS])
    ext[:, facets, g.axis] = [g.value - _EPS, g.value + _EPS]
    # reach[i, j]: the largest outward offset from facet i's plane of facet j's extent
    reach = np.max(g.sign[:, None] * (ext[:, :, g.axis].transpose(0, 2, 1) - g.value[:, None]),
                   axis=0)
    inner = (g.axis[:, None] != 2) & (reach <= _EPS)
    live = [np.ones(1, dtype=bool), faces_tx]
    if len(g.chains) > 2:
        f1, f2 = g.chains[2][0].T
        live.append(faces_tx[f1] & ~inner[f1, f2] & ~inner[f2, f1])
    return replace(g, chains=[(f[k], im[k]) for (f, im), k in zip(g.chains, live)])


def _outside(g: _Geometry, f: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Whether points ``p`` lie on the outer side of facets ``f``; the ground
    counts every point as outside."""
    ax = g.axis[f]
    off = g.sign[f] * (p[np.arange(len(f)), ax] - g.value[f])
    return (ax == 2) | (off > _EPS)


def _inside(g: _Geometry, p: np.ndarray) -> np.ndarray:
    """Whether points ``p [m, 3]`` lie strictly inside a building, as :meth:`Box.contains`."""
    p = p[:, None]
    return np.any(np.all((p > g.boxes_lo) & (p < g.boxes_hi), axis=2), axis=1)


def _hit(g: _Geometry, f: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The indices of the segments ``a[i] -> b[i]`` that strictly cross facets
    ``f[i]`` within ``_EPS`` of the facet's bounds, and where they cross. A
    crossing next to an endpoint is left to :func:`_trace`'s facing tests."""
    rows = np.arange(len(f))
    ax, v = g.axis[f], g.value[f]
    da = a[rows, ax] - v
    db = b[rows, ax] - v
    i = np.flatnonzero(da * db < 0)
    f, a, b, da = f[i], np.take(a, i, axis=0), np.take(b, i, axis=0), da[i]
    r = a + (da / (da - db[i]))[:, None] * (b - a)
    within = (r >= np.take(g.lo, f, axis=0) - _EPS) & (r <= np.take(g.hi, f, axis=0) + _EPS)
    ok = within[:, 0] & within[:, 1] & within[:, 2]
    return i[ok], r[ok]


def _blocked(g: _Geometry, verts: np.ndarray) -> np.ndarray:
    """Slab test of every segment of the polylines ``verts [n, k, 3]`` against
    every box shrunk by ``_EPS`` on each side, over the open range ``0 < t < 1``;
    true where any segment is blocked. It runs coordinate-major, on
    ``[3, boxes, k-1, lanes]``, so that each reduction over x, y and z is
    elementwise over contiguous lanes, and over about ``_LANE_BUDGET``
    (box, segment) pairs at once."""
    n, k = verts.shape[:2]
    lo = (g.boxes_lo + _EPS).T[:, :, None, None]
    hi = (g.boxes_hi - _EPS).T[:, :, None, None]
    blocked = np.empty(n, dtype=bool)
    lanes = max(1, _LANE_BUDGET // max(1, lo.shape[1] * (k - 1)))
    for s in range(0, n, lanes):
        v = np.ascontiguousarray(verts[s : s + lanes].transpose(2, 1, 0))[:, None]
        p0 = v[:, :, :-1]
        d = v[:, :, 1:] - p0
        par = d == 0.0
        step = np.where(par, 1.0, d)
        with np.errstate(over="ignore"):    # a near-parallel axis sends t to +-inf: its slab limit
            t0 = (lo - p0) / step
            t1 = (hi - p0) / step
        tmin, tmax = np.minimum(t0, t1), np.maximum(t0, t1)
        if par.any():
            # Parallel axes: inside the slab -> (-inf, inf), outside -> empty.
            inside = (p0 >= lo) & (p0 <= hi)
            tmin = np.where(par, np.where(inside, -np.inf, np.inf), tmin)
            tmax = np.where(par, np.where(inside, np.inf, -np.inf), tmax)
        enter, leave = tmin.max(axis=0), tmax.min(axis=0)
        blocked[s : s + lanes] = np.any((enter < leave) & (leave > 0.0) & (enter < 1.0), axis=(0, 1))
    return blocked


def _leaves(rx: np.ndarray, size: int) -> list[np.ndarray]:
    """Indices into receivers ``rx [m, 3]``, in spatially compact leaves of at
    most ``size``: a set is halved at the median of its bounding box's longest axis."""
    leaves, todo = [], [np.arange(len(rx))]
    while todo:
        idx = todo.pop()
        if len(idx) <= size:
            leaves.append(idx)
            continue
        p = np.take(rx, idx, axis=0)
        idx = idx[np.argsort(p[:, np.argmax(p.max(axis=0) - p.min(axis=0))], kind="stable")]
        todo += [idx[len(idx) // 2 :], idx[: len(idx) // 2]]
    return leaves


def _crossings(g: _Geometry, f: np.ndarray, a: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Whether a segment from image ``a[:, i]`` to some point ``b`` of the box
    ``lo[:, i]..hi[:, i]`` may cross facet ``f[i]`` where :func:`_hit` accepts
    it, and a box that holds every crossing it accepts; all coordinate-major
    ``[3, n]``.

    The pair is dead if no point of the box lies strictly beyond the plane from
    ``a``, as ``_hit``'s crossing needs. If the whole box lies beyond the plane
    or on it, the crossings are the central projection of the box from ``a``,
    which lies in the hull of its 8 projected corners. There each corner's ratio
    ``t`` of offsets from the plane is in (0, 1], so along each axis the hull runs
    from the lower of the box's low coordinate projected at the 2 corner ratios
    to the higher of its high one. Both that hull and ``_hit``'s crossing round
    by under 5 eps * s per coordinate, s being the largest coordinate of ``a``
    plus that of the box, so the hull is widened by ``16 * eps * s``: no fixed
    length covers the rounding of coordinates of every size, though at city
    scale (s < 1e3 m) this slack is under 4e-12 m, far below ``_EPS``. The pair
    is dead too if the widened hull misses the facet's bounds widened by
    ``_EPS``, as ``_hit`` has them. The box of crossings is the widened hull
    clipped to those bounds, and the plane value widened by the slack along the
    normal. A box that straddles the plane keeps its pair, and its crossings'
    box is the facet's bounds alone, which for the ground are not finite; a
    box that is not finite keeps its pair."""
    rows = np.arange(len(f))
    ax, v = g.axis[f], g.value[f]
    da, dlo, dhi = a[ax, rows] - v, lo[ax, rows] - v, hi[ax, rows] - v
    cross = ((da > 0) & (dlo < 0)) | ((da < 0) & (dhi > 0))
    beyond = ((da > 0) & (dhi <= 0)) | ((da < 0) & (dlo >= 0))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_lo, t_hi = da / (da - dlo), da / (da - dhi)
        to_lo, to_hi = lo - a, hi - a
        slack = 16 * np.finfo(np.float64).eps * (
            np.abs(a).max(axis=0) + np.maximum(np.abs(lo), np.abs(hi)).max(axis=0))
        plo = np.minimum(a + t_lo * to_lo, a + t_hi * to_lo) - slack
        phi = np.maximum(a + t_lo * to_hi, a + t_hi * to_hi) + slack
        plo[:, ~beyond], phi[:, ~beyond] = -np.inf, np.inf
        plo[ax, rows], phi[ax, rows] = v - slack, v + slack
        plo = np.maximum(plo, np.take(g.lo, f, axis=0).T - _EPS)
        phi = np.minimum(phi, np.take(g.hi, f, axis=0).T + _EPS)
        finite = np.isfinite(lo).all(axis=0) & np.isfinite(hi).all(axis=0)
        return ~finite | (cross & ~(plo > phi).any(axis=0)), plo, phi


def _live(g: _Geometry, facets: np.ndarray, images: np.ndarray, rx: np.ndarray,
          leaves: list[np.ndarray]) -> list[np.ndarray]:
    """For each leaf of receivers ``rx[leaf]``, the indices of the chains of
    ``facets [n, b]`` and ``images [n, b, 3]`` that its receivers may use. A leaf
    of one receiver keeps every chain, since :func:`_hit` tests its one lane per
    chain exactly. Other leaves keep the chains that :func:`_crossings` passes
    from the leaf's bounding box backwards, over at most ``_LANE_BUDGET // 2``
    (leaf, chain) pairs at once, since a pair's temporaries take about twice a
    lane's."""
    n, bounces = facets.shape
    live = [np.arange(n)] * len(leaves)
    many = [i for i, leaf in enumerate(leaves) if len(leaf) > 1] if bounces and n else []
    step = max(1, _LANE_BUDGET // (2 * max(n, 1)))
    for part in (many[s : s + step] for s in range(0, len(many), step)):
        sizes = [len(leaves[i]) for i in part]
        p = np.take(rx, np.concatenate([leaves[i] for i in part]), axis=0)
        starts = np.cumsum(sizes) - sizes
        lo = np.repeat(np.minimum.reduceat(p, starts).T, n, axis=1)
        hi = np.repeat(np.maximum.reduceat(p, starts).T, n, axis=1)
        alive = np.ones(len(part) * n, dtype=bool)
        for j in reversed(range(bounces)):
            ok, lo, hi = _crossings(g, np.tile(facets[:, j], len(part)),
                                    np.tile(images[:, j].T, len(part)), lo, hi)
            alive &= ok
        for i, mask in zip(part, alive.reshape(-1, n)):
            live[i] = np.flatnonzero(mask)
    return live


def _lanes(leaves: list[np.ndarray], live: list[np.ndarray]):
    """Each leaf's receivers times its ``live`` chains, receiver-major, as
    (receiver, chain) index arrays over whole leaves, at most ``_LANE_BUDGET``
    lanes at once unless one leaf holds more."""
    idx, chain = [], []
    for leaf, chains in zip(leaves, live):
        if idx and sum(map(len, idx)) + len(leaf) * len(chains) > _LANE_BUDGET:
            yield np.concatenate(idx), np.concatenate(chain)
            idx, chain = [], []
        idx.append(leaf.repeat(len(chains)))
        chain.append(np.tile(chains, len(leaf)))
    yield np.concatenate(idx), np.concatenate(chain)


def _trace(g: _Geometry, rx: np.ndarray) -> tuple[np.ndarray, ...]:
    """The unblocked paths to receivers ``rx [m, 3]`` as one record of flat
    per-path columns: the index into ``rx`` of the path's receiver, its length
    ``d`` (m), ``Gamma^b`` for its ``b`` reflections, the summed magnitudes of
    its segments' components ``[3]``, and its first and last segments ``[3]``.

    :func:`_leaves` splits the receivers into leaves of at most
    ``_LANE_BUDGET // chains``. Each bounce order drops the (leaf, chain) pairs
    that :func:`_live` finds dead, then traces the rest as (receiver, chain)
    lanes. Paths are listed by bounce order, then leaf, receiver and chain, so
    within a receiver by bounce order, then chain, as :func:`trace_paths` lists
    them; the record of a receiver traced among others is the one it has alone.
    Reflection points are found from rx backwards, each where the ray from its
    image to the next point crosses its facet; each facet must face both
    neighbouring vertices, by more than ``_EPS``. No length is divided by, so a
    receiver at tx traces too."""
    leaves = _leaves(rx, max(1, _LANE_BUDGET // sum(len(facets) for facets, _ in g.chains)))
    record = []
    for facets, images in g.chains:
        bounces = facets.shape[1]
        for idx, chain in _lanes(leaves, _live(g, facets, images, rx, leaves)):
            points = [np.take(rx, idx, axis=0)]
            for j in reversed(range(bounces)):
                hit, r = _hit(g, facets[chain, j], np.take(images[:, j], chain, axis=0), points[0])
                idx, chain = idx[hit], chain[hit]
                points = [r] + [np.take(p, hit, axis=0) for p in points]
            verts = np.concatenate([g.tx[None, None].repeat(len(idx), axis=0)]
                                   + [p[:, None] for p in points], axis=1)
            ok = np.ones(len(idx), dtype=bool)
            for j in range(bounces):
                f = facets[chain, j]
                ok &= _outside(g, f, verts[:, j]) & _outside(g, f, verts[:, j + 2])
            ok[ok] = ~_blocked(g, verts[ok])
            segs = np.diff(verts[ok], axis=1)
            record.append((idx[ok], np.linalg.norm(segs, axis=2).sum(axis=1),
                           np.full(len(segs), _GAMMA**bounces), np.abs(segs).sum(axis=1),
                           segs[:, 0], segs[:, -1]))
    return tuple(map(np.concatenate, zip(*record)))


def _gain_scale(wavelength: float, calib: GainCalibration) -> float:
    """Field-to-gain factor ``lambda / sqrt(8*pi*eta0 * p_t * nr * nt)``."""
    return wavelength / math.sqrt(8.0 * math.pi * ETA0 * calib.p_t * calib.nr * calib.nt)


def _fields(gamma: np.ndarray, dist: np.ndarray, wavelength: float) -> np.ndarray:
    """Fields ``E = Gamma^b * exp(-2j*pi*d/lambda) / d`` (V/m, for a 1 V/m reference
    field at 1 m) of paths of length ``d``, Gamma being -0.7 at every facet whatever
    the carrier and the incidence angle."""
    return gamma * np.exp(-2j * np.pi * dist / wavelength) / dist


def trace_paths(scene: Scene, rx_position) -> PathSet:
    """Image-method ray trace from the scene transmitter to ``rx_position``.

    Returns the unobstructed line-of-sight path plus specular reflections off
    the ground and vertical building facets up to ``scene.max_bounces``, as
    one :class:`PathSet` whose columns list the paths by bounce order, then
    facet chain. An occluded receiver with no reflected path yields an empty
    PathSet. ``fields`` holds ``E = Gamma^b * exp(-2j*pi*d/lambda) / d``, with
    Gamma = -0.7 at every facet whatever the carrier and the incidence angle,
    and ``alphas`` the channel gains for the default :class:`GainCalibration`;
    :func:`calibrate_alphas` recomputes them for another transmit power or
    other array sizes. ``rx_position`` must be 3 finite values, outside every
    building and not at the transmitter.
    """
    rx = point(rx_position, "rx_position")[None]
    g = scene._tracer
    if _inside(g, rx)[0]:
        raise ValueError("receiver position lies inside a building")
    if np.array_equal(rx[0], g.tx):
        raise ValueError(f"rx_position {scene.tx_position} lies at the transmitter")
    _, dist, gamma, span, first, last = _trace(g, rx)
    efield = _fields(gamma, dist, scene.wavelength)
    # Facets are axis-aligned, so each segment runs along the unfolded path up to
    # the signs of its components. Their summed magnitudes give that direction
    # without the rounding of a short first or last segment (an endpoint next to
    # a wall); the end segments give only the signs.
    span /= np.linalg.norm(span, axis=1, keepdims=True)
    # u[0]: direction the wave arrives from, seen at rx; u[1]: departure from tx
    u = np.stack([np.copysign(span, -last), np.copysign(span, first)])
    az = np.arctan2(u[..., 1], u[..., 0])
    el = np.arcsin(np.clip(u[..., 2], -1.0, 1.0))
    scale = _gain_scale(scene.wavelength, GainCalibration())
    return PathSet(efield * scale, dist / C0, az[0], el[0], az[1], el[1], fields=efield)


def calibrate_alphas(paths: PathSet, wavelength: float, calib: GainCalibration) -> PathSet:
    """``paths`` with ``alphas`` recomputed from ``fields`` for a finite ``wavelength`` > 0
    and the transmit power and array sizes of ``calib``, as :func:`trace_paths` computes
    them; other columns shared."""
    real(wavelength, "wavelength", positive=True)
    return replace(paths, alphas=paths.fields * _gain_scale(wavelength, calib))


# ---------------------------------------------------------------------------
# RSS
# ---------------------------------------------------------------------------


def _coherent_power(total, wavelength: float):
    """``lambda^2/(8*pi*eta0) * |total|^2`` of summed fields ``total``."""
    return wavelength**2 / (8.0 * math.pi * ETA0) * np.abs(total) ** 2


def rss_from_fields(fields, wavelength: float) -> float:
    """Coherent-sum received power ``lambda^2/(8*pi*eta0) * |sum E_l|^2`` of finite fields."""
    real(wavelength, "wavelength", positive=True)
    fields = finite_array(fields, "fields", np.complex128)
    return float(_coherent_power(np.sum(fields), wavelength))


def rss_from_channel(h: ChannelTensor, p_t: float) -> float:
    """Channel-side received power ``P_T * sum_d ||H_d||_F^2`` of a :class:`ChannelTensor`."""
    if not isinstance(h, ChannelTensor):
        raise ValueError(f"h must be a ChannelTensor, got {type(h).__name__}")
    real(p_t, "transmit power p_t", positive=True)
    return float(p_t * np.sum(np.abs(h.taps) ** 2))


def generate_rss_map(
    scene: Scene,
    origin,
    spacing: float,
    shape: tuple[int, int],
    rx_height: float,
) -> RssMap:
    """Evaluate the coherent RSS at every grid cell center.

    Cells whose receiver point is occluded (or strictly inside a building, as
    :meth:`Box.contains` has it) hold 0. The grid geometry is checked as
    :class:`RssMap` checks it, and no outdoor cell may lie at the transmitter,
    before any cell is traced. Each cell's fields are summed in path order, as
    :func:`trace_paths` lists them. ``shape`` is two integers ``(rows, cols)``,
    each ``>= 1``.
    """
    try:
        rows, cols = shape
    except (TypeError, ValueError):
        raise ValueError(f"grid shape must be two counts (rows, cols), got {shape!r}") from None
    rows, cols = count(rows, "grid shape", 1), count(cols, "grid shape", 1)
    rss = RssMap(origin=origin, spacing=spacing, values=np.zeros((rows, cols)), rx_height=rx_height)
    origin, values = rss.origin, rss.values
    g = scene._tracer
    r, c = np.indices((rows, cols)).reshape(2, -1)
    cells = np.stack([origin[0] + c * spacing, origin[1] + r * spacing,
                      np.full(r.size, float(rx_height))], axis=1)
    outdoor = np.flatnonzero(~_inside(g, cells))
    at_tx = outdoor[np.all(cells[outdoor] == g.tx, axis=1)]
    if len(at_tx):
        raise ValueError(f"grid cell {divmod(int(at_tx[0]), cols)} lies at the transmitter")
    idx, dist, gamma, *_ = _trace(g, cells[outdoor])
    efield = _fields(gamma, dist, scene.wavelength)
    total = (np.bincount(idx, efield.real, len(outdoor))
             + 1j * np.bincount(idx, efield.imag, len(outdoor)))
    values.flat[outdoor] = _coherent_power(total, scene.wavelength)
    return rss


def rss_patch_at(rss_map: RssMap, ue_estimate, p: int) -> RssPatch:
    """Extract a p x p window centered at the grid cell nearest ``ue_estimate``.

    Cells outside the map are zero-padded. The side ``p`` is an odd integer
    ``>= 1``. The estimate itself must be finite and fall within map bounds.
    """
    p = count(p, "patch side", 1)
    if p % 2 != 1:
        raise ValueError(f"patch side must be odd and >= 1, got {p}")
    rows, cols = rss_map.values.shape
    row, col = rss_map.nearest_cell(ue_estimate)
    half = p // 2
    out = np.zeros((p, p), dtype=np.float64)
    r0, r1 = row - half, row + half + 1
    c0, c1 = col - half, col + half + 1
    sr0, sc0 = max(r0, 0), max(c0, 0)
    sr1, sc1 = min(r1, rows), min(c1, cols)
    out[sr0 - r0 : sr1 - r0, sc0 - c0 : sc1 - c0] = rss_map.values[sr0:sr1, sc0:sc1]
    return RssPatch(values=out, center=(row, col))


def save_rss_map(rss_map: RssMap, path) -> None:
    """Write ``rss_map`` at exactly ``path`` as an ``.npz``, which ``np.load`` reads:
    ``values.npy``, float32 ``[rows, cols]``, and ``grid.npy``, float64 ``[origin x,
    origin y, spacing, rx height]``. A non-:class:`RssMap`, a map that :class:`RssMap`
    rejects (it is checked again, since its fields may have changed since it was made)
    and a value beyond the float32 range raise ``ValueError`` and write nothing."""
    if not isinstance(rss_map, RssMap):
        raise ValueError(f"rss_map must be an RssMap, got {type(rss_map).__name__}")
    rss_map = replace(rss_map)
    if np.any(rss_map.values > np.finfo(np.float32).max):
        raise ValueError("RSS values exceed the float32 range of the map format")
    grid = np.array([*rss_map.origin, rss_map.spacing, rss_map.rx_height], dtype=np.float64)
    write_arrays(path, {"values": rss_map.values.astype("<f4"), "grid": grid})


def load_rss_map(path) -> RssMap:
    """Read a map that :func:`save_rss_map` wrote. A malformed file (see
    :func:`mbce._checks.read_arrays`), entries other than those two or of another
    dtype or shape, and a map that :class:`RssMap` rejects raise ``ValueError``."""
    arrays = read_arrays(path, "RSS map")
    values, grid = arrays.get("values"), arrays.get("grid")
    if (arrays.keys() != {"values", "grid"} or values.dtype != np.float32
            or grid.dtype != np.float64 or grid.shape != (4,)):
        layout = {name: f"{a.dtype}{list(a.shape)}" for name, a in arrays.items()}
        raise ValueError(f"an RSS map holds float32 values and a float64 grid[4], got {layout}")
    *origin, spacing, rx_height = grid.tolist()
    return RssMap(origin, spacing, values.astype(np.float64), rx_height)
