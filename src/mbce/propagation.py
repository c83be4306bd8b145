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
or a pair with one facet wholly behind the other's plane. The hit-point,
facing and occlusion tests are then masks over a batch of receivers times
the live chains of a bounce order: one receiver for :func:`trace_paths`,
chunks of grid cells for :func:`generate_rss_map`. Scenes are immutable;
every function here is pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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

_EPS = 1e-9
_GAMMA = -0.7  # every facet's reflection coefficient; as a float, the fields keep their rounding
# Lanes (receivers times live chains) that generate_rss_map traces at once. A lane's
# temporaries take ~150 B, so 2**13 lanes cost ~1 MB of peak memory; each doubling
# beyond saves under 5% of a map's time and adds as much memory again.
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
    """Where segments ``a[i] -> b[i]`` cross facets ``f[i]``, and a mask of the
    strict crossings that land inside the facet's bounds."""
    rows = np.arange(len(f))
    ax = g.axis[f]
    da = a[rows, ax] - g.value[f]
    db = b[rows, ax] - g.value[f]
    cross = da * db < 0
    t = np.divide(da, da - db, out=np.zeros_like(da), where=cross)
    r = a + t[:, None] * (b - a)
    ok = cross & (t > _EPS) & (t < 1.0 - _EPS)
    ok &= np.all((r >= g.lo[f] - _EPS) & (r <= g.hi[f] + _EPS), axis=1)
    return r, ok


def _blocked(g: _Geometry, verts: np.ndarray) -> np.ndarray:
    """Slab test of every segment of the polylines ``verts [n, k, 3]`` against
    every box, segment endpoints excluded; true where any segment is blocked."""
    p0 = verts[:, :-1, None]            # [n, k-1, 1, 3] against boxes [B, 3]
    d = verts[:, 1:, None] - p0
    par = d == 0.0
    step = np.where(par, 1.0, d)
    with np.errstate(over="ignore"):    # a near-parallel axis sends t to +-inf: its slab limit
        t0 = (g.boxes_lo - p0) / step
        t1 = (g.boxes_hi - p0) / step
    # Parallel axes: inside the slab -> (-inf, inf), outside -> empty.
    inside = (p0 >= g.boxes_lo) & (p0 <= g.boxes_hi)
    tmin = np.where(par, np.where(inside, -np.inf, np.inf), np.minimum(t0, t1))
    tmax = np.where(par, np.where(inside, np.inf, -np.inf), np.maximum(t0, t1))
    enter, leave = tmin.max(axis=-1), tmax.min(axis=-1)
    return np.any((enter < leave) & (leave > _EPS) & (enter < 1.0 - _EPS), axis=(1, 2))


def _trace(g: _Geometry, rx: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """For receivers ``rx [m, 3]``, one ``(verts, idx)`` pair per bounce order
    ``b``: the vertices ``[n, b+2, 3]`` (tx, reflection points, rx) of the
    unblocked paths and the index into ``rx`` of each path's receiver, listed
    receiver-major, then in chain order. Reflection points are found from rx
    backwards, each where the ray from its image to the next point crosses its
    facet; each facet must face both neighbouring vertices."""
    orders = []
    for facets, images in g.chains:
        n, bounces = facets.shape
        idx = np.repeat(np.arange(len(rx)), n)
        chain = np.tile(np.arange(n), len(rx))
        points = [rx[idx]]
        for j in reversed(range(bounces)):
            r, hit = _hit(g, facets[chain, j], images[chain, j], points[0])
            idx, chain = idx[hit], chain[hit]
            points = [r[hit]] + [p[hit] for p in points]
        verts = np.stack([np.broadcast_to(g.tx, (len(idx), 3)), *points], axis=1)
        ok = np.ones(len(idx), dtype=bool)
        for j in range(bounces):
            f = facets[chain, j]
            ok &= _outside(g, f, verts[:, j]) & _outside(g, f, verts[:, j + 2])
        ok[ok] = ~_blocked(g, verts[ok])
        orders.append((verts[ok], idx[ok]))
    return orders


def _gain_scale(wavelength: float, calib: GainCalibration) -> float:
    """Field-to-gain factor ``lambda / sqrt(8*pi*eta0 * p_t * nr * nt)``."""
    return wavelength / math.sqrt(8.0 * math.pi * ETA0 * calib.p_t * calib.nr * calib.nt)


def _unfold(verts: np.ndarray, scene: Scene):
    """Segments, total lengths and fields ``E = Gamma^b * exp(-2j*pi*d/lambda) / d``
    (V/m, for a 1 V/m reference field at 1 m) of same-order paths, Gamma being -0.7
    at every facet whatever the carrier and the incidence angle."""
    segs = np.diff(verts, axis=1)
    dist = np.linalg.norm(segs, axis=2).sum(axis=1)
    gamma = _GAMMA ** (verts.shape[1] - 2)
    efield = gamma * np.exp(-2j * np.pi * dist / scene.wavelength) / dist
    return segs, dist, efield


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
    other array sizes. ``rx_position`` must be 3 finite values.
    """
    rx = point(rx_position, "rx_position")[None]
    g = _geometry(scene)
    if _inside(g, rx)[0]:
        raise ValueError("receiver position lies inside a building")
    scale = _gain_scale(scene.wavelength, GainCalibration())
    orders = []
    for verts, _ in _trace(g, rx):
        segs, dist, efield = _unfold(verts, scene)
        # Facets are axis-aligned, so each segment runs along the unfolded path up to
        # the signs of its components. Their summed magnitudes give that direction
        # without the rounding of a short first or last segment (an endpoint next to
        # a wall); the end segments give only the signs.
        span = np.abs(segs).sum(axis=1)
        span /= np.linalg.norm(span, axis=1, keepdims=True)
        # u[0]: direction the wave arrives from, seen at rx; u[1]: departure from tx
        u = np.stack([np.copysign(span, -segs[:, -1]), np.copysign(span, segs[:, 0])])
        az = np.arctan2(u[..., 1], u[..., 0])
        el = np.arcsin(np.clip(u[..., 2], -1.0, 1.0))
        orders.append((efield, dist / C0, az[0], el[0], az[1], el[1]))
    efield, toas, *angles = map(np.concatenate, zip(*orders))
    return PathSet(efield * scale, toas, *angles, fields=efield)


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
        raise TypeError(f"h must be a ChannelTensor, got {type(h).__name__}")
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
    :class:`RssMap` checks it, before any cell is traced. The outdoor cells
    are traced in chunks of about ``_LANE_BUDGET`` chain lanes, and each
    cell's fields are summed in path order, as :func:`trace_paths` lists them.
    ``shape`` is two integers ``(rows, cols)``, each ``>= 1``.
    """
    try:
        rows, cols = shape
    except (TypeError, ValueError):
        raise ValueError(f"grid shape must be two counts (rows, cols), got {shape!r}") from None
    rows, cols = count(rows, "grid shape", 1), count(cols, "grid shape", 1)
    rss = RssMap(origin=origin, spacing=spacing, values=np.zeros((rows, cols)), rx_height=rx_height)
    origin, values = rss.origin, rss.values
    g = _geometry(scene)
    r, c = np.indices((rows, cols)).reshape(2, -1)
    cells = np.stack([origin[0] + c * spacing, origin[1] + r * spacing,
                      np.full(r.size, float(rx_height))], axis=1)
    outdoor = np.flatnonzero(~_inside(g, cells))
    per_chunk = max(1, _LANE_BUDGET // sum(len(facets) for facets, _ in g.chains))
    for start in range(0, len(outdoor), per_chunk):
        chunk = outdoor[start : start + per_chunk]
        orders = [(_unfold(verts, scene)[2], idx) for verts, idx in _trace(g, cells[chunk])]
        efield, idx = map(np.concatenate, zip(*orders))
        total = (np.bincount(idx, efield.real, len(chunk))
                 + 1j * np.bincount(idx, efield.imag, len(chunk)))
        values.flat[chunk] = _coherent_power(total, scene.wavelength)
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
