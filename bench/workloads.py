"""The benchmark's four workloads and the inputs each generates from a seed.

Every workload builds its inputs from ``numpy.random.default_rng([seed, tag])``
and hands the library only those inputs. Each one keeps a fixed pool of
inputs (scenes, links or one training batch) and its timed loop cycles
through the pool, so quality figures are a function of the seed alone and
not of how many operations fit in the run. A repeated visit must reproduce
the first result exactly.

All library calls go through ``call(name, fn, *args)`` (see ``tracing``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from mbce import autodiff as ad
from mbce.channel_model import ArrayGeometry, PulseConfig, synth_channel
from mbce.estimation import (
    OmpDictionary,
    PilotConfig,
    interpolate_full_band,
    ls_estimate,
    nmse_db,
    omp_estimate,
    to_time_domain,
    transmit_pilots,
)
from mbce.propagation import (
    Box,
    Scene,
    generate_rss_map,
    load_rss_map,
    rss_from_fields,
    rss_patch_at,
    save_rss_map,
    trace_paths,
)

import model

CARRIER_HZ = 15e9
TS = 10e-9                     # 100 MHz sampling
BETA = 0.3
SNR_DB = 10.0
LR = 0.01                      # SGD step size of refine_step
TX_POSITION = (0.0, 0.0, 25.0)
RX_HEIGHT = 1.5
HALF_SIDE = 80.0               # UEs and map cells lie in [-80, 80]^2 m
PRE_TAPS = 2                   # t_off puts the earliest path at tap 2
FOOTPRINT = 20.0               # building side, m
STREET = 4.0                   # least gap between buildings, m
NMSE_FLOOR = 1e-20             # -200 dB: outputs agree to float64 rounding
MAP_REF_CELLS = 16             # outdoor cells per map traced one by one as a reference
MAP_REF_RTOL = 1e-6            # map cells against their per-cell reference


@dataclass(frozen=True)
class Sizes:
    boxes: int = 6
    rx: tuple[int, int] = (4, 4)
    tx: tuple[int, int] = (8, 4)
    taps: int = 32
    n_sc: int = 256
    n_pilot: int = 32
    map_shape: tuple[int, int] = (16, 16)
    map_scenes: int = 8
    patch: int = 5
    link_scenes: int = 8
    links_per_scene: int = 16
    omp_scenes: int = 8
    omp_links_per_scene: int = 3
    omp_k: int = 16
    batch: int = 16
    widths: tuple[int, int] = (32, 64)
    quality_steps: int = 32


DEFAULT = Sizes()
# Small enough for the benchmark's own tests to run every workload in seconds.
TINY = Sizes(
    boxes=2, rx=(2, 2), tx=(2, 2), taps=8, n_sc=32, n_pilot=8, map_shape=(4, 4),
    map_scenes=2, patch=3, link_scenes=2, links_per_scene=3, omp_scenes=1,
    omp_links_per_scene=2, omp_k=3, batch=2, widths=(4, 8), quality_steps=3,
)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def make_scene(rng: np.random.Generator, n_boxes: int) -> Scene:
    """``n_boxes`` 20 m x 20 m buildings, 10-40 m tall, apart from each other
    and from the mast, inside the area.

    Equal footprints keep the indoor share of a map, and so the work per map,
    alike across seeds.
    """
    boxes: list[Box] = []
    while len(boxes) < n_boxes:
        x0, y0 = rng.uniform(-HALF_SIDE, HALF_SIDE - FOOTPRINT, 2)
        box = Box(x0, x0 + FOOTPRINT, y0, y0 + FOOTPRINT, 0.0, rng.uniform(10.0, 40.0))
        near_mast = (box.xmin - 5.0 < 0.0 < box.xmax + 5.0
                     and box.ymin - 5.0 < 0.0 < box.ymax + 5.0)
        if near_mast or any(_close(box, other, STREET) for other in boxes):
            continue
        boxes.append(box)
    return Scene(tuple(boxes), TX_POSITION, CARRIER_HZ, max_bounces=2)


def _close(a: Box, b: Box, gap: float) -> bool:
    return (a.xmin - gap < b.xmax and b.xmin - gap < a.xmax
            and a.ymin - gap < b.ymax and b.ymin - gap < a.ymax)


@dataclass(frozen=True)
class Link:
    scene: Scene
    ue: tuple[float, float, float]
    noise_seed: int


def make_links(rng, sizes: Sizes, n_scenes: int, per_scene: int, call) -> list[Link]:
    """Outdoor UEs with at least one path; UEs in outage have no channel."""
    links = []
    for _ in range(n_scenes):
        scene = make_scene(rng, sizes.boxes)
        found = 0
        while found < per_scene:
            x, y = rng.uniform(-HALF_SIDE, HALF_SIDE, 2)
            ue = (float(x), float(y), RX_HEIGHT)
            if any(b.contains(ue) for b in scene.buildings):
                continue
            if len(call("propagation.trace_paths", trace_paths, scene, ue)) == 0:
                continue
            links.append(Link(scene, ue, int(rng.integers(2**32))))
            found += 1
    return links


@dataclass(frozen=True)
class Radio:
    rx: ArrayGeometry
    tx: ArrayGeometry
    taps: int
    pilots: PilotConfig

    @classmethod
    def of(cls, sizes: Sizes) -> "Radio":
        rx, tx = ArrayGeometry(*sizes.rx), ArrayGeometry(*sizes.tx)
        pilots = PilotConfig(n_sc=sizes.n_sc, n_pilot=sizes.n_pilot, nt=tx.size, snr_db=SNR_DB)
        return cls(rx, tx, sizes.taps, pilots)


@dataclass
class CoarseLink:
    n_paths: int
    n_in_window: int
    h: object          # true ChannelTensor
    obs: object        # PilotObservation
    h_ls: object       # coarse ChannelTensor


def coarse_link(call, link: Link, radio: Radio) -> CoarseLink:
    """trace -> synth -> pilots -> LS -> band interpolation -> IDFT."""
    paths = call("propagation.trace_paths", trace_paths, link.scene, link.ue)
    toas = paths.toas
    t_off = float(toas.min()) - PRE_TAPS * TS
    pulse = PulseConfig(ts=TS, beta=BETA, t_off=t_off)
    h = call("channel_model.synth_channel", synth_channel, paths, radio.taps, pulse,
             radio.rx, radio.tx)
    obs = call("estimation.transmit_pilots", transmit_pilots, h, radio.pilots, link.noise_seed)
    est = call("estimation.ls_estimate", ls_estimate, obs, radio.pilots)
    full = call("estimation.interpolate_full_band", interpolate_full_band, est, radio.pilots)
    h_ls = call("estimation.to_time_domain", to_time_domain, full, radio.taps)
    in_window = int(np.count_nonzero((toas - t_off) < radio.taps * TS))
    return CoarseLink(len(paths), in_window, h, obs, h_ls)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """One fixed-seed workload: set-up in ``__init__``, then ``op`` in a loop.

    ``op(i, call)`` runs one closed-loop operation on pool entry ``i`` and
    returns the work it did (cells, links or steps). ``complete`` runs, untimed,
    what the quality figure still needs after the timed loop; ``finish`` runs
    the once-per-run extras. ``problems`` lists failed correctness checks.
    """

    name = ""
    tag = 0

    def __init__(self, seed: int, sizes: Sizes, call, out_dir: str):
        self.sizes = sizes
        self.rng = np.random.default_rng([seed, self.tag])
        self.out_dir = out_dir
        self.errors: list[str] = []

    def op(self, i: int, call) -> float:
        raise NotImplementedError

    def complete(self, done: int, call) -> None:
        for i in range(done, self.pool_size()):
            self.op(i, call)

    def finish(self, call) -> None:
        pass

    def pool_size(self) -> int:
        raise NotImplementedError

    def quality_db(self) -> float:
        """The ``nmse_db`` metric: output against its reference, over the pool."""
        raise NotImplementedError

    def problems(self) -> list[str]:
        return list(self.errors)

    def counters(self) -> dict[str, float]:
        return {}

    def golden(self) -> dict:
        return {}

    def _path(self, stem: str) -> str:
        return os.path.join(self.out_dir, f"{stem}-{os.getpid()}.bin")


class RssMapWorkload(Workload):
    """One 2-bounce RSS map per op, a patch from it, and a file round trip."""

    name = "rss_map"
    tag = 1

    def __init__(self, seed, sizes, call, out_dir):
        super().__init__(seed, sizes, call, out_dir)
        rows, cols = sizes.map_shape
        self.origin = (-HALF_SIDE, -HALF_SIDE)
        self.spacing = 2.0 * HALF_SIDE / (max(rows, cols) - 1)
        self.scenes = [make_scene(self.rng, sizes.boxes) for _ in range(sizes.map_scenes)]
        self.ues = [tuple(self.rng.uniform(-HALF_SIDE, HALF_SIDE, 2)) for _ in self.scenes]
        self.indoor = [self._indoor_mask(s) for s in self.scenes]
        # outdoor cells of each map that complete() traces one by one, as a reference
        self.ref_cells = [self._sample_outdoor(mask) for mask in self.indoor]
        self.references: dict[int, np.ndarray] = {}
        self.file = self._path("rss_map")
        self.results: dict[int, tuple] = {}
        # warm-up on a 2x2 grid: every code path, a fraction of the work
        self._map_round_trip(call, self.scenes[0], self.origin, (2, 2))

    def _indoor_mask(self, scene):
        rows, cols = self.sizes.map_shape
        return np.array([
            [any(b.contains((self.origin[0] + c * self.spacing,
                             self.origin[1] + r * self.spacing, RX_HEIGHT))
                 for b in scene.buildings) for c in range(cols)]
            for r in range(rows)
        ])

    def _sample_outdoor(self, indoor):
        cells = np.argwhere(~indoor)
        pick = self.rng.choice(len(cells), min(MAP_REF_CELLS, len(cells)), replace=False)
        return cells[np.sort(pick)]

    def _map_round_trip(self, call, scene, ue, shape):
        m = call("propagation.generate_rss_map", generate_rss_map, scene, self.origin,
                 self.spacing, shape, RX_HEIGHT)
        patch = call("propagation.rss_patch_at", rss_patch_at, m, ue, self.sizes.patch)
        call("propagation.save_rss_map", save_rss_map, m, self.file)
        back = call("propagation.load_rss_map", load_rss_map, self.file)
        return m, patch, back

    def pool_size(self):
        return len(self.scenes)

    def op(self, i, call):
        j = i % len(self.scenes)
        m, patch, back = self._map_round_trip(call, self.scenes[j], self.ues[j],
                                              self.sizes.map_shape)
        if j not in self.results:
            self.results[j] = (m.values, patch, back.values, os.path.getsize(self.file))
        elif not np.array_equal(self.results[j][0], m.values):
            self.errors.append(f"rss_map: map {j} changed on a repeated visit")
        return float(m.values.size)

    def complete(self, done, call):
        super().complete(done, call)
        for j in sorted(self.results):
            scene = self.scenes[j]
            ref = []
            for r, c in self.ref_cells[j]:
                pos = (self.origin[0] + c * self.spacing, self.origin[1] + r * self.spacing,
                       RX_HEIGHT)
                paths = call("propagation.trace_paths", trace_paths, scene, pos)
                ref.append(call("propagation.rss_from_fields", rss_from_fields, paths.fields,
                                scene.wavelength))
            self.references[j] = np.array(ref)

    def finish(self, call):
        if os.path.exists(self.file):
            os.remove(self.file)

    def _map_at_references(self, j):
        rows, cols = self.ref_cells[j].T
        return self.results[j][0][rows, cols]

    def quality_db(self):
        # the maps at sampled cells against a per-cell trace_paths + rss_from_fields
        err = sum(float(np.sum((self._map_at_references(j) - ref) ** 2))
                  for j, ref in self.references.items())
        power = sum(float(np.sum(ref**2)) for ref in self.references.values())
        return 10.0 * np.log10(max(err / power, NMSE_FLOOR))

    def problems(self):
        out = list(self.errors)
        for j, (v, patch, back, _) in sorted(self.results.items()):
            if not np.all(np.isfinite(v)) or np.any(v < 0):
                out.append(f"rss_map: map {j} has negative or non-finite cells")
            if np.any(v[self.indoor[j]] != 0):
                out.append(f"rss_map: map {j} has power inside a building")
            if j not in self.references:
                out.append(f"rss_map: map {j} has no per-cell reference")
            elif not np.allclose(self._map_at_references(j), self.references[j],
                                 rtol=MAP_REF_RTOL, atol=0.0):
                out.append(f"rss_map: map {j} differs from its per-cell reference")
            if not np.array_equal(back, v.astype(np.float32).astype(np.float64)):
                out.append(f"rss_map: map {j} load differs from its float32 cast")
            r, c = patch.center
            half = self.sizes.patch // 2
            if patch.values[half, half] != v[r, c]:
                out.append(f"rss_map: patch {j} is not centred on its cell")
        return out

    def counters(self):
        vals = [v for v, _, _, _ in self.results.values()]
        return {
            "propagation.rss_map.covered_share": float(np.mean([np.mean(v > 0) for v in vals])),
            "propagation.rss_map.bytes": float(np.mean([n for *_, n in self.results.values()])),
        }

    def golden(self):
        vals = [self.results[j][0] for j in sorted(self.results)]
        return {
            "map_sum": [float(v.sum()) for v in vals],
            "covered_cells": [int(np.count_nonzero(v)) for v in vals],
        }


class LinkCoarseWorkload(Workload):
    """Hundreds of UE links over a few scenes; the coarse LS chain per link."""

    name = "link_coarse"
    tag = 2

    def __init__(self, seed, sizes, call, out_dir):
        super().__init__(seed, sizes, call, out_dir)
        self.radio = Radio.of(sizes)
        self.links = make_links(self.rng, sizes, sizes.link_scenes, sizes.links_per_scene, call)
        self.results: dict[int, tuple] = {}
        coarse_link(call, self.links[0], self.radio)  # warm-up

    def pool_size(self):
        return len(self.links)

    def op(self, i, call):
        j = i % len(self.links)
        r = coarse_link(call, self.links[j], self.radio)
        nm = call("estimation.nmse_db", nmse_db, r.h_ls, r.h)
        self._record(j, (r.n_paths, r.n_in_window, nm, bool(np.all(np.isfinite(r.h_ls.taps)))))
        return 1.0

    def _record(self, j, result):
        if j not in self.results:
            self.results[j] = result
        elif self.results[j] != result:
            self.errors.append(f"{self.name}: link {j} changed on a repeated visit")

    def quality_db(self):
        return float(np.mean([r[2] for r in self.results.values()]))

    def problems(self):
        out = list(self.errors)
        out += [f"{self.name}: link {j} estimate is not finite"
                for j, r in sorted(self.results.items()) if not r[3]]
        return out

    def counters(self):
        rs = list(self.results.values())
        paths = sum(r[0] for r in rs)
        return {
            "propagation.trace_paths.calls": 1.0,
            "propagation.trace_paths.paths_per_call": paths / len(rs),
            "propagation.trace_paths.covered_share": float(np.mean([r[0] > 0 for r in rs])),
            "channel_model.synth_channel.paths_in_window_share": sum(r[1] for r in rs) / paths,
        }

    def golden(self):
        rs = [self.results[j] for j in sorted(self.results)]
        return {"path_counts": [r[0] for r in rs], "ls_nmse_db": [r[2] for r in rs]}


class LinkOmpWorkload(LinkCoarseWorkload):
    """A few links, each the coarse chain plus OMP over the full dictionary."""

    name = "link_omp"
    tag = 3

    def __init__(self, seed, sizes, call, out_dir):
        Workload.__init__(self, seed, sizes, call, out_dir)
        self.radio = r = Radio.of(sizes)
        self.dictionary = call("estimation.OmpDictionary.build", OmpDictionary.build,
                               r.taps, r.rx, r.tx)
        self.links = make_links(self.rng, sizes, sizes.omp_scenes, sizes.omp_links_per_scene,
                                call)
        self.results = {}
        warm = coarse_link(call, self.links[0], r)  # warm-up, one OMP iteration
        call("estimation.omp_estimate", omp_estimate, warm.obs, r.pilots, self.dictionary, 1)

    def op(self, i, call):
        j = i % len(self.links)
        r = coarse_link(call, self.links[j], self.radio)
        info = call("estimation.omp_estimate", omp_estimate, r.obs, self.radio.pilots,
                    self.dictionary, self.sizes.omp_k, return_info=True)
        nm = call("estimation.nmse_db", nmse_db, info.estimate, r.h)
        finite = bool(np.all(np.isfinite(r.h_ls.taps)) and np.all(np.isfinite(info.estimate.taps)))
        self._record(j, (r.n_paths, r.n_in_window, nm, finite, tuple(info.selected),
                         tuple(info.residual_norms)))
        return 1.0

    def problems(self):
        out = super().problems()
        for j, r in sorted(self.results.items()):
            norms = np.asarray(r[5])
            if np.any(np.diff(norms) > 1e-9 * norms[0]):
                out.append(f"link_omp: link {j} OMP residual norm increased")
        return out

    def counters(self):
        rs = list(self.results.values())
        iters = float(np.mean([len(r[4]) for r in rs]))
        return {
            **super().counters(),
            "estimation.omp_estimate.iterations": iters,
            "estimation.omp_estimate.atoms_scanned": iters * self.dictionary.n_atoms,
            "estimation.omp_estimate.final_residual_ratio":
                float(np.mean([r[5][-1] / r[5][0] for r in rs])),
        }

    def golden(self):
        return {"selected": [list(self.results[j][4]) for j in sorted(self.results)]}


class RefineStepWorkload(Workload):
    """SGD steps of the stand-in refinement model on one fixed batch.

    Inputs are coarse LS estimates of ``batch`` links, the targets their true
    channels: the taps x tx-antenna plane at rx antenna 0, real and imaginary
    parts as two channels, each sample scaled to unit mean power.
    """

    name = "refine_step"
    tag = 4

    def __init__(self, seed, sizes, call, out_dir):
        super().__init__(seed, sizes, call, out_dir)
        radio = Radio.of(sizes)
        links = make_links(self.rng, sizes, (sizes.batch + 1) // 2, 2, call)[: sizes.batch]
        xs, ys = [], []
        for link in links:
            r = coarse_link(call, link, radio)
            truth = r.h.taps[:, 0, :]
            scale = 1.0 / np.sqrt(np.mean(np.abs(truth) ** 2))
            xs.append(self._planes(r.h_ls.taps[:, 0, :] * scale))
            ys.append(self._planes(truth * scale))
        self.x = ad.Tensor(np.stack(xs))
        self.y = ad.Tensor(np.stack(ys))
        self.params = model.init_params(self.rng, *sizes.widths)
        self.losses: list[float] = []
        self.nodes = 0
        self.bytes_held = 0
        self.checkpoint: tuple[float, bool] | None = None
        self._step(call, update=False)  # warm-up: forward and backward, no update

    @staticmethod
    def _planes(h):
        return np.stack([h.real, h.imag]).astype(np.float32)

    def _step(self, call, update):
        held = []

        def keep(name, fn, *args, **kwargs):
            out = call(name, fn, *args, **kwargs)
            held.append(out)
            return out

        with ad.Tape() as tape:
            pred = model.forward(self.params, self.x, keep)
            loss = model.mse(pred, self.y, keep)
        call("autodiff.Tape.backward", tape.backward, loss)
        self.nodes = len(tape)
        self.bytes_held = sum(t.data.nbytes for t in held) + self.x.data.nbytes + self.y.data.nbytes
        for name, p in self.params.items():
            if p.grad is None or not np.all(np.isfinite(p.grad)):
                self.errors.append(f"refine_step: gradient of {name} is missing or not finite")
            elif update:
                p.data -= np.float32(LR) * p.grad
            p.grad = None
        return loss.item()

    def pool_size(self):
        return self.sizes.quality_steps + 1

    def op(self, i, call):
        self.losses.append(self._step(call, update=True))
        return 1.0

    def finish(self, call):
        path = self._path("refine_params")
        try:
            call("autodiff.save_params", ad.save_params, self.params, path)
            size = os.path.getsize(path)
            back = call("autodiff.load_params", ad.load_params, path)
        finally:
            if os.path.exists(path):
                os.remove(path)
        exact = back.keys() == self.params.keys() and all(
            np.array_equal(back[k].data, self.params[k].data) for k in self.params
        )
        self.checkpoint = (float(size), exact)

    def _quality_loss(self) -> float:
        q = self.sizes.quality_steps
        return self.losses[q] if len(self.losses) > q else float("nan")

    def loss_ratio(self) -> float:
        return self._quality_loss() / self.losses[0] if self.losses else float("nan")

    def quality_db(self):
        power = float(np.mean(self.y.data.astype(np.float64) ** 2))
        return 10.0 * np.log10(self._quality_loss() / power)

    def problems(self):
        out = list(self.errors)
        if not np.all(np.isfinite(self.losses)) or len(self.losses) <= self.sizes.quality_steps:
            out.append(f"refine_step: no finite loss after {self.sizes.quality_steps} steps")
        elif self.loss_ratio() >= 1.0:
            out.append("refine_step: loss did not fall")
        if self.checkpoint is not None and not self.checkpoint[1]:
            out.append("refine_step: checkpoint round trip is not exact")
        return out

    def counters(self):
        out = {"autodiff.tape.nodes": float(self.nodes),
               "autodiff.tape.bytes_held": float(self.bytes_held)}
        if self.checkpoint is not None:
            out["autodiff.checkpoint.bytes"] = self.checkpoint[0]
        return out

    def golden(self):
        return {"first_loss": self.losses[0]}


WORKLOADS = {w.name: w for w in (RssMapWorkload, LinkCoarseWorkload, LinkOmpWorkload,
                                 RefineStepWorkload)}
