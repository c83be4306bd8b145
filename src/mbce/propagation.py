"""Per-path electric fields, RSS maps, and the built-in image-method ray model.

Received signal strength follows the coherent field sum
``RSS = lambda^2 / (8*pi*eta0) * |sum_l E_l|^2`` and, equivalently on the
channel side, ``RSS = P_T * sum_d ||H_d||_F^2`` once path gains are
calibrated as ``alpha_l = lambda * E_l / sqrt(8*pi*eta0*P_T*Nr*Nt)``.

The ray model returns the line-of-sight path plus specular reflections
(image method) off the ground and off vertical building facets, up to two
bounces. Scenes are immutable; every function here is pure and safe to call
concurrently.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass

import numpy as np

from .channel_model import Path, PathSet

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


@dataclass(frozen=True)
class Scene:
    """Static propagation environment: buildings, ground plane at z=0, one tx."""

    buildings: tuple[Box, ...]
    tx_position: tuple[float, float, float]
    carrier_freq: float
    reflection_coeff: complex = -0.7
    max_bounces: int = 1

    def __post_init__(self):
        if self.carrier_freq <= 0:
            raise ValueError("carrier frequency must be > 0")
        if abs(self.reflection_coeff) > 1.0 + 1e-12:
            raise ValueError("|reflection coefficient| must be <= 1")
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
        if self.spacing <= 0:
            raise ValueError("grid spacing must be > 0")
        if self.values.ndim != 2:
            raise ValueError("RSS values must be a 2-D array")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("RSS values must be finite")
        if np.any(self.values < 0):
            raise ValueError("RSS values must be non-negative")

    def cell_center(self, row: int, col: int) -> np.ndarray:
        return np.array(
            [self.origin[0] + col * self.spacing, self.origin[1] + row * self.spacing]
        )

    def nearest_cell(self, xy) -> tuple[int, int]:
        col = int(round((xy[0] - self.origin[0]) / self.spacing))
        row = int(round((xy[1] - self.origin[1]) / self.spacing))
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
    """

    p_t: float = 1.0
    nr: int = 1
    nt: int = 1


# ---------------------------------------------------------------------------
# geometry internals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Facet:
    """Planar reflector: ground plane or a vertical building wall.

    ``axis`` is the normal axis (0=x, 1=y, 2=z/ground), ``value`` the plane
    coordinate, ``sign`` the outward normal direction. ``lo``/``hi`` bound the
    in-plane rectangle (unused for the infinite ground plane).
    """

    axis: int
    value: float
    sign: float
    lo: tuple[float, float] = (0.0, 0.0)
    hi: tuple[float, float] = (0.0, 0.0)
    infinite: bool = False

    def mirror(self, p: np.ndarray) -> np.ndarray:
        q = p.copy()
        q[self.axis] = 2.0 * self.value - q[self.axis]
        return q

    def outside(self, p: np.ndarray) -> bool:
        return self.sign * (p[self.axis] - self.value) > 1e-9

    def hit_point(self, a: np.ndarray, b: np.ndarray):
        """Intersection of segment a->b with the plane, or None."""
        da = a[self.axis] - self.value
        db = b[self.axis] - self.value
        if da * db >= 0:  # no strict crossing
            return None
        t = da / (da - db)
        if not 1e-9 < t < 1.0 - 1e-9:
            return None
        r = a + t * (b - a)
        if self.infinite:
            return r
        others = [i for i in range(3) if i != self.axis]
        for k, i in enumerate(others):
            if not self.lo[k] - 1e-9 <= r[i] <= self.hi[k] + 1e-9:
                return None
        return r


def _scene_facets(scene: Scene) -> list[_Facet]:
    facets = [_Facet(axis=2, value=0.0, sign=1.0, infinite=True)]  # ground
    for b in scene.buildings:
        facets.append(_Facet(0, b.xmin, -1.0, (b.ymin, b.zmin), (b.ymax, b.zmax)))
        facets.append(_Facet(0, b.xmax, +1.0, (b.ymin, b.zmin), (b.ymax, b.zmax)))
        facets.append(_Facet(1, b.ymin, -1.0, (b.xmin, b.zmin), (b.xmax, b.zmax)))
        facets.append(_Facet(1, b.ymax, +1.0, (b.xmin, b.zmin), (b.xmax, b.zmax)))
    return facets


def _segment_blocked(p0: np.ndarray, p1: np.ndarray, boxes_lo, boxes_hi) -> bool:
    """Slab test of segment p0->p1 against all boxes, endpoints excluded."""
    if len(boxes_lo) == 0:
        return False
    d = p1 - p0
    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = (boxes_lo - p0) / d
        t1 = (boxes_hi - p0) / d
    tmin = np.minimum(t0, t1)
    tmax = np.maximum(t0, t1)
    # Parallel axes: inside the slab -> (-inf, inf), outside -> empty.
    par = d == 0.0
    if np.any(par):
        inside = (p0 >= boxes_lo) & (p0 <= boxes_hi)
        tmin = np.where(par, np.where(inside, -np.inf, np.inf), tmin)
        tmax = np.where(par, np.where(inside, np.inf, -np.inf), tmax)
    enter = np.max(tmin, axis=1)
    leave = np.min(tmax, axis=1)
    eps = 1e-9
    return bool(np.any((enter < leave) & (leave > eps) & (enter < 1.0 - eps)))


def _gain_scale(wavelength: float, p_t: float, nr: int, nt: int) -> float:
    """Field-to-gain factor ``lambda / sqrt(8*pi*eta0 * p_t * nr * nt)``."""
    return wavelength / math.sqrt(8.0 * math.pi * ETA0 * p_t * nr * nt)


def _make_path(points: list[np.ndarray], scene: Scene, calib: GainCalibration) -> Path:
    segs = [points[i + 1] - points[i] for i in range(len(points) - 1)]
    lengths = [float(np.linalg.norm(s)) for s in segs]
    dist = sum(lengths)
    bounces = len(points) - 2
    lam = scene.wavelength
    efield = (
        E0_REF
        * scene.reflection_coeff**bounces
        * np.exp(-2j * np.pi * dist / lam)
        / dist
    )
    alpha = efield * _gain_scale(lam, calib.p_t, calib.nr, calib.nt)

    u_dep = segs[0] / lengths[0]            # departure direction from tx
    u_arr = -segs[-1] / lengths[-1]         # direction the wave arrives from, seen at rx
    return Path(
        alpha=complex(alpha),
        toa=dist / C0,
        aoa_az=math.atan2(u_arr[1], u_arr[0]),
        aoa_el=math.asin(max(-1.0, min(1.0, u_arr[2]))),
        aod_az=math.atan2(u_dep[1], u_dep[0]),
        aod_el=math.asin(max(-1.0, min(1.0, u_dep[2]))),
        field=complex(efield),
    )


def trace_paths(
    scene: Scene,
    rx_position,
    calib: GainCalibration | None = None,
) -> PathSet:
    """Image-method ray trace from the scene transmitter to ``rx_position``.

    Returns the unobstructed line-of-sight path plus specular reflections off
    the ground and vertical building facets up to ``scene.max_bounces``. An
    occluded receiver with no reflected path yields an empty PathSet. Each
    path carries ``E = E0 * Gamma^b * exp(-2j*pi*d/lambda) / d`` and a channel
    gain calibrated against ``calib`` (transmit power and array sizes).
    """
    calib = calib or GainCalibration()
    tx = np.asarray(scene.tx_position, dtype=np.float64)
    rx = np.asarray(rx_position, dtype=np.float64)
    for b in scene.buildings:
        if b.contains(rx):
            raise ValueError("receiver position lies inside a building")

    boxes_lo = np.array([b.bounds[0] for b in scene.buildings]).reshape(-1, 3)
    boxes_hi = np.array([b.bounds[1] for b in scene.buildings]).reshape(-1, 3)

    def clear(a, b):
        return not _segment_blocked(a, b, boxes_lo, boxes_hi)

    paths: list[Path] = []
    if clear(tx, rx):
        paths.append(_make_path([tx, rx], scene, calib))

    facets = _scene_facets(scene)
    if scene.max_bounces >= 1:
        for f in facets:
            if not (f.infinite or (f.outside(tx) and f.outside(rx))):
                continue
            r1 = f.hit_point(f.mirror(tx), rx)
            if r1 is None:
                continue
            if clear(tx, r1) and clear(r1, rx):
                paths.append(_make_path([tx, r1, rx], scene, calib))

    if scene.max_bounces >= 2:
        for f1 in facets:
            i1 = f1.mirror(tx)
            for f2 in facets:
                if f1 is f2:
                    continue
                i2 = f2.mirror(i1)
                r2 = f2.hit_point(i2, rx)
                if r2 is None:
                    continue
                r1 = f1.hit_point(i1, r2)
                if r1 is None:
                    continue
                if not (f1.infinite or (f1.outside(tx) and f1.outside(r2))):
                    continue
                if not (f2.infinite or (f2.outside(r1) and f2.outside(rx))):
                    continue
                if clear(tx, r1) and clear(r1, r2) and clear(r2, rx):
                    paths.append(_make_path([tx, r1, r2, rx], scene, calib))

    return PathSet(paths)


def calibrate_alphas(
    paths: PathSet, wavelength: float, p_t: float, nr: int, nt: int
) -> PathSet:
    """Recompute channel gains from fields for a given power/array context."""
    scale = _gain_scale(wavelength, p_t, nr, nt)
    out = [
        Path(
            alpha=p.field * scale,
            toa=p.toa,
            aoa_az=p.aoa_az,
            aoa_el=p.aoa_el,
            aod_az=p.aod_az,
            aod_el=p.aod_el,
            field=p.field,
        )
        for p in paths
    ]
    return PathSet(out)


# ---------------------------------------------------------------------------
# RSS
# ---------------------------------------------------------------------------


def rss_from_fields(fields, wavelength: float) -> float:
    """Coherent-sum received power: ``lambda^2/(8*pi*eta0) * |sum E_l|^2``."""
    if wavelength <= 0:
        raise ValueError("wavelength must be > 0")
    fields = np.asarray(fields, dtype=np.complex128)
    if fields.size == 0:
        return 0.0
    total = np.sum(fields)
    return float(wavelength**2 / (8.0 * math.pi * ETA0) * np.abs(total) ** 2)


def rss_from_channel(h, p_t: float) -> float:
    """Channel-side received power: ``P_T * sum_d ||H_d||_F^2``."""
    if p_t <= 0:
        raise ValueError("transmit power must be > 0")
    taps = h.taps if hasattr(h, "taps") else np.asarray(h)
    return float(p_t * np.sum(np.abs(taps) ** 2))


def generate_rss_map(
    scene: Scene,
    origin,
    spacing: float,
    shape: tuple[int, int],
    rx_height: float,
) -> RssMap:
    """Evaluate the coherent RSS at every grid cell center.

    Cells whose receiver point is occluded (or inside a building) hold 0.
    """
    rows, cols = shape
    if rows < 1 or cols < 1:
        raise ValueError("grid must be at least 1x1")
    origin = np.asarray(origin, dtype=np.float64)
    lam = scene.wavelength
    values = np.zeros((rows, cols), dtype=np.float64)
    for r in range(rows):
        y = origin[1] + r * spacing
        for c in range(cols):
            x = origin[0] + c * spacing
            pos = (x, y, rx_height)
            if any(b.contains(pos) for b in scene.buildings):
                continue
            ps = trace_paths(scene, pos)
            if len(ps):
                values[r, c] = rss_from_fields(ps.fields, lam)
    return RssMap(origin=origin, spacing=spacing, values=values, rx_height=rx_height)


def rss_patch_at(rss_map: RssMap, ue_estimate, p: int) -> RssPatch:
    """Extract a p x p window centered at the grid cell nearest ``ue_estimate``.

    Cells outside the map are zero-padded. The estimate itself must fall
    within map bounds.
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


def import_paths(stream) -> list[tuple[int, PathSet]]:
    """Parse a ray-tracer CSV export into per-sample PathSets.

    ``stream`` is a text-mode file object or a path. The header must be
    exactly ``sample_id,path_id,e_real,e_imag,toa_s,aoa_az_rad,aoa_el_rad,
    aod_az_rad,aod_el_rad``; decimal and exponential notation are both
    accepted. Rows are grouped by sample_id preserving row order; imported
    paths carry zero channel gain until :func:`calibrate_alphas` is applied.
    """
    if isinstance(stream, (str, bytes)) or hasattr(stream, "__fspath__"):
        with open(stream, "r", encoding="utf-8", newline="") as fh:
            return import_paths(fh)

    reader = csv.reader(stream)
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

    groups: dict[int, list[Path]] = {}
    order: list[int] = []
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
        try:
            path = Path(
                alpha=0j,
                toa=vals["toa_s"],
                aoa_az=vals["aoa_az_rad"],
                aoa_el=vals["aoa_el_rad"],
                aod_az=vals["aod_az_rad"],
                aod_el=vals["aod_el_rad"],
                field=complex(vals["e_real"], vals["e_imag"]),
            )
        except ValueError as exc:
            raise PathImportError(f"line {lineno}: {exc}") from None
        sid = vals["sample_id"]
        if sid not in groups:
            groups[sid] = []
            order.append(sid)
        groups[sid].append(path)
    return [(sid, PathSet(groups[sid])) for sid in order]


def save_rss_map(rss_map: RssMap, path) -> None:
    """Write the flat binary map format (magic RSSM, version 1)."""
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
