"""Per-path electric fields, RSS maps, and the built-in image-method ray model.

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

import cmath
import csv
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .channel_model import ChannelTensor, PathSet, _index_fields

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
    "import_paths",
    "PathImportError",
    "save_rss_map",
    "load_rss_map",
    "RSS_MAP_MAGIC",
]

ETA0 = 376.730          # intrinsic impedance of free space, ohms
C0 = 2.99792458e8       # speed of light, m/s
E0_REF = 1.0            # reference field, 1 V/m at 1 m

RSS_MAP_MAGIC = b"RSSM"
_PATH_CSV_COLUMNS = (
    "sample_id",
    "path_id",
    "e_real",
    "e_imag",
    "toa_s",
    "aoa_az_rad",
    "aoa_el_rad",
    "aod_az_rad",
    "aod_el_rad",
)


@dataclass(frozen=True)
class Box:
    """Axis-aligned building footprint, meters."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    zmin: float
    zmax: float

    def __post_init__(self):
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


def _point3(p, name: str) -> np.ndarray:
    """``p`` as a float64 array of 3 finite values, else ``ValueError``."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (3,) or not np.all(np.isfinite(p)):
        raise ValueError(f"{name} must be 3 finite values, got {p.tolist()}")
    return p


@dataclass(frozen=True)
class Scene:
    """Static propagation environment: buildings, ground plane at z=0, one tx.

    ``tx_position`` is 3 finite values, ``carrier_freq`` finite and > 0,
    ``reflection_coeff`` finite with magnitude <= 1.
    """

    buildings: tuple[Box, ...]
    tx_position: tuple[float, float, float]
    carrier_freq: float
    reflection_coeff: complex = -0.7
    max_bounces: int = 1

    def __post_init__(self):
        _point3(self.tx_position, "tx_position")
        f, gamma = self.carrier_freq, self.reflection_coeff
        if not (math.isfinite(f) and f > 0):
            raise ValueError(f"carrier frequency must be finite and > 0, got {f}")
        if not (cmath.isfinite(gamma) and abs(gamma) <= 1.0 + 1e-12):
            raise ValueError(f"reflection coefficient must be finite, |.| <= 1, got {gamma}")
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
        self.origin = np.asarray(self.origin, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.origin.shape != (2,) or not np.all(
            np.isfinite([*self.origin, self.spacing, self.rx_height])
        ):
            raise ValueError("origin must be 2 finite values; spacing and rx_height finite")
        if self.spacing <= 0:
            raise ValueError("grid spacing must be > 0")
        if self.values.ndim != 2:
            raise ValueError("RSS values must be a 2-D array")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("RSS values must be finite")
        if np.any(self.values < 0):
            raise ValueError("RSS values must be non-negative")

    def nearest_cell(self, xy) -> tuple[int, int]:
        """``(row, col)`` of the cell nearest the finite point ``xy[:2]``."""
        x, y = float(xy[0]), float(xy[1])
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"position must be finite, got {(x, y)}")
        col = int(round((x - self.origin[0]) / self.spacing))
        row = int(round((y - self.origin[1]) / self.spacing))
        return row, col


@dataclass
class RssPatch:
    """Square window of an RSS map around a coarse UE position."""

    values: np.ndarray
    center: tuple[int, int]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        p = self.values.shape[0]
        if self.values.shape != (p, p):
            raise ValueError("patch must be square")


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
        _index_fields(self, "nr", "nt")
        if not (math.isfinite(self.p_t) and self.p_t > 0):
            raise ValueError(f"transmit power p_t must be finite and > 0, got {self.p_t}")
        if self.nr < 1 or self.nt < 1:
            raise ValueError(f"array sizes nr, nt must be >= 1, got {self.nr}, {self.nt}")


# ---------------------------------------------------------------------------
# image-method tracer
# ---------------------------------------------------------------------------

_EPS = 1e-9
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
    """Segments, segment lengths, total lengths and fields
    ``E = E0 * Gamma^b * exp(-2j*pi*d/lambda) / d`` of same-order paths."""
    segs = np.diff(verts, axis=1)
    lengths = np.linalg.norm(segs, axis=2)
    dist = lengths.sum(axis=1)
    gamma = E0_REF * scene.reflection_coeff ** (verts.shape[1] - 2)
    efield = gamma * np.exp(-2j * np.pi * dist / scene.wavelength) / dist
    return segs, lengths, dist, efield


def trace_paths(
    scene: Scene,
    rx_position,
    calib: GainCalibration | None = None,
) -> PathSet:
    """Image-method ray trace from the scene transmitter to ``rx_position``.

    Returns the unobstructed line-of-sight path plus specular reflections off
    the ground and vertical building facets up to ``scene.max_bounces``, as
    one :class:`PathSet` whose columns list the paths by bounce order, then
    facet chain. An occluded receiver with no reflected path yields an empty
    PathSet. ``fields`` holds ``E = E0 * Gamma^b * exp(-2j*pi*d/lambda) / d``
    and ``alphas`` the channel gains calibrated against ``calib`` (transmit
    power and array sizes). ``rx_position`` must be 3 finite values.
    """
    calib = calib or GainCalibration()
    rx = _point3(rx_position, "rx_position")[None]
    g = _geometry(scene)
    if _inside(g, rx)[0]:
        raise ValueError("receiver position lies inside a building")
    scale = _gain_scale(scene.wavelength, calib)
    orders = []
    for verts, _ in _trace(g, rx):
        segs, _, dist, efield = _unfold(verts, scene)
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
    """``paths`` with ``alphas`` recomputed from ``fields`` for the transmit power and
    array sizes of ``calib``, as :func:`trace_paths` computes them; other columns shared."""
    return replace(paths, alphas=paths.fields * _gain_scale(wavelength, calib))


# ---------------------------------------------------------------------------
# RSS
# ---------------------------------------------------------------------------


def _coherent_power(total, wavelength: float):
    """``lambda^2/(8*pi*eta0) * |total|^2`` of summed fields ``total``."""
    return wavelength**2 / (8.0 * math.pi * ETA0) * np.abs(total) ** 2


def rss_from_fields(fields, wavelength: float) -> float:
    """Coherent-sum received power ``lambda^2/(8*pi*eta0) * |sum E_l|^2`` of finite fields."""
    if not (math.isfinite(wavelength) and wavelength > 0):
        raise ValueError(f"wavelength must be finite and > 0, got {wavelength}")
    fields = np.asarray(fields, dtype=np.complex128)
    if not np.all(np.isfinite(fields)):
        raise ValueError("fields must be finite")
    return float(_coherent_power(np.sum(fields), wavelength))


def rss_from_channel(h: ChannelTensor, p_t: float) -> float:
    """Channel-side received power ``P_T * sum_d ||H_d||_F^2`` of a :class:`ChannelTensor`."""
    if not isinstance(h, ChannelTensor):
        raise TypeError(f"h must be a ChannelTensor, got {type(h).__name__}")
    if not (math.isfinite(p_t) and p_t > 0):
        raise ValueError(f"transmit power must be finite and > 0, got {p_t}")
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
    """
    rows, cols = shape
    if rows < 1 or cols < 1:
        raise ValueError("grid must be at least 1x1")
    values = np.zeros((rows, cols), dtype=np.float64)
    origin = RssMap(origin=origin, spacing=spacing, values=values, rx_height=rx_height).origin
    g = _geometry(scene)
    r, c = np.indices((rows, cols)).reshape(2, -1)
    cells = np.stack([origin[0] + c * spacing, origin[1] + r * spacing,
                      np.full(r.size, float(rx_height))], axis=1)
    outdoor = np.flatnonzero(~_inside(g, cells))
    per_chunk = max(1, _LANE_BUDGET // sum(len(facets) for facets, _ in g.chains))
    for start in range(0, len(outdoor), per_chunk):
        chunk = outdoor[start : start + per_chunk]
        orders = [(_unfold(verts, scene)[3], idx) for verts, idx in _trace(g, cells[chunk])]
        efield, idx = map(np.concatenate, zip(*orders))
        total = (np.bincount(idx, efield.real, len(chunk))
                 + 1j * np.bincount(idx, efield.imag, len(chunk)))
        values.flat[chunk] = _coherent_power(total, scene.wavelength)
    return RssMap(origin=origin, spacing=spacing, values=values, rx_height=rx_height)


def rss_patch_at(rss_map: RssMap, ue_estimate, p: int) -> RssPatch:
    """Extract a p x p window centered at the grid cell nearest ``ue_estimate``.

    Cells outside the map are zero-padded. The estimate itself must be
    finite and fall within map bounds.
    """
    if p % 2 != 1:
        raise ValueError(f"patch side must be odd, got {p}")
    rows, cols = rss_map.values.shape
    row, col = rss_map.nearest_cell(ue_estimate)
    if not (0 <= row < rows and 0 <= col < cols):
        raise ValueError(
            f"UE estimate {tuple(ue_estimate)} is outside the RSS map bounds"
        )
    half = p // 2
    out = np.zeros((p, p), dtype=np.float64)
    r0, r1 = row - half, row + half + 1
    c0, c1 = col - half, col + half + 1
    sr0, sc0 = max(r0, 0), max(c0, 0)
    sr1, sc1 = min(r1, rows), min(c1, cols)
    out[sr0 - r0 : sr1 - r0, sc0 - c0 : sc1 - c0] = rss_map.values[sr0:sr1, sc0:sc1]
    return RssPatch(values=out, center=(row, col))


# ---------------------------------------------------------------------------
# external interfaces
# ---------------------------------------------------------------------------


class PathImportError(ValueError):
    """Malformed ray-tracer export."""


def _csv_rows(stream):
    """The rows of a CSV stream; a CSV syntax error becomes a :class:`PathImportError`."""
    reader = csv.reader(stream)
    try:
        yield from reader
    except csv.Error as exc:
        raise PathImportError(f"line {reader.line_num}: {exc}") from None


def import_paths(stream) -> list[tuple[int, PathSet]]:
    """Parse a ray-tracer CSV export into per-sample PathSets.

    ``stream`` is a text-mode file object or a path. The header must be
    exactly ``sample_id,path_id,e_real,e_imag,toa_s,aoa_az_rad,aoa_el_rad,
    aod_az_rad,aod_el_rad``; decimal and exponential notation are both
    accepted. Rows are grouped by sample_id into one :class:`PathSet` each, in
    row order; errors name the line, and a repeated ``(sample_id, path_id)``
    names both lines. ``alphas`` is zero until :func:`calibrate_alphas` is
    applied.
    """
    if isinstance(stream, (str, bytes)) or hasattr(stream, "__fspath__"):
        with open(stream, "r", encoding="utf-8", newline="") as fh:
            return import_paths(fh)

    reader = _csv_rows(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise PathImportError("empty stream: missing header row") from None
    header = [h.strip() for h in header]
    if tuple(header) != _PATH_CSV_COLUMNS:
        unknown = [h for h in header if h not in _PATH_CSV_COLUMNS]
        if unknown:
            raise PathImportError(f"unknown column(s): {', '.join(unknown)}")
        raise PathImportError(
            f"bad header: expected {','.join(_PATH_CSV_COLUMNS)}, got {','.join(header)}"
        )

    groups: dict[int, list[tuple]] = {}
    first_line: dict[tuple[int, int], int] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(_PATH_CSV_COLUMNS):
            raise PathImportError(
                f"line {lineno}: expected {len(_PATH_CSV_COLUMNS)} fields, got {len(row)}"
            )
        vals = {}
        for name, raw in zip(_PATH_CSV_COLUMNS, row):
            try:
                vals[name] = int(raw) if name in ("sample_id", "path_id") else float(raw)
            except ValueError:
                raise PathImportError(
                    f"line {lineno}: field '{name}' is not numeric: {raw!r}"
                ) from None
        path = (0j, vals["toa_s"], vals["aoa_az_rad"], vals["aoa_el_rad"], vals["aod_az_rad"],
                vals["aod_el_rad"], complex(vals["e_real"], vals["e_imag"]))
        try:
            PathSet(*([v] for v in path))
        except ValueError as exc:
            raise PathImportError(f"line {lineno}: {exc}") from None
        key = (vals["sample_id"], vals["path_id"])
        if key in first_line:
            raise PathImportError(f"line {lineno}: sample_id {key[0]}, path_id {key[1]} "
                                  f"repeats line {first_line[key]}")
        first_line[key] = lineno
        groups.setdefault(vals["sample_id"], []).append(path)
    return [(sid, PathSet(*zip(*rows))) for sid, rows in groups.items()]


def save_rss_map(rss_map: RssMap, path) -> None:
    """Write the flat binary map format (magic RSSM, version 1).

    Values are stored as float32; a value beyond its range raises
    ``ValueError`` and writes nothing.
    """
    if np.any(rss_map.values > np.finfo(np.float32).max):
        raise ValueError("RSS values exceed the float32 range of the map format")
    rows, cols = rss_map.values.shape
    header = struct.pack(
        "<4sIIIdddd",
        RSS_MAP_MAGIC,
        1,
        rows,
        cols,
        float(rss_map.origin[0]),
        float(rss_map.origin[1]),
        float(rss_map.spacing),
        float(rss_map.rx_height),
    )
    body = rss_map.values.astype("<f4").tobytes(order="C")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body)


def load_rss_map(path) -> RssMap:
    with open(path, "rb") as fh:
        raw = fh.read()
    head_size = struct.calcsize("<4sIIIdddd")
    if len(raw) < head_size:
        raise ValueError("truncated RSS map file")
    magic, version, rows, cols, ox, oy, spacing, rx_h = struct.unpack(
        "<4sIIIdddd", raw[:head_size]
    )
    if magic != RSS_MAP_MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {RSS_MAP_MAGIC!r}")
    if version != 1:
        raise ValueError(f"unsupported RSS map version {version}")
    expected = rows * cols * 4
    if len(raw) != head_size + expected:
        raise ValueError("RSS map payload size mismatch")
    values = np.frombuffer(raw[head_size:], dtype="<f4").reshape(rows, cols)
    return RssMap(
        origin=np.array([ox, oy]),
        spacing=spacing,
        values=values.astype(np.float64),
        rx_height=rx_h,
    )
