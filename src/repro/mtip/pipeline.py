"""The full M-TIP reconstruction loop (paper Sec. V, Fig. 8, Table II).

The driver synthesizes a diffraction experiment from a known density, then
iterates the four M-TIP steps -- slicing (type-2 NUFFT), orientation matching,
merging (two type-1 NUFFTs) and phasing -- until the density is recovered.
Every NUFFT goes through :class:`repro.core.plan.Plan`, so each iteration's
modelled GPU time is available per step, which is what the Table II and
Fig. 9 benchmarks report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.errors import relative_l2_error
from .density import synthetic_density
from .ewald import ewald_slice_points, random_rotations
from .merging import MergingOperator
from .orientation import match_orientations
from .phasing import centered_fft, phase_retrieval
from .slicing import SlicingOperator

__all__ = ["MTIPConfig", "MTIPIterationRecord", "MTIPReconstruction"]


@dataclass(frozen=True)
class MTIPConfig:
    """Configuration of one M-TIP reconstruction run.

    The paper-scale per-rank problem (Table II) corresponds to
    ``n_modes = 81, n_pix = 128, n_images ~ 1000``; the defaults here are a
    laptop-scale version that runs in seconds while exercising every step.
    """

    n_modes: int = 16
    n_pix: int = 12
    n_images: int = 12
    n_candidates: int = 24
    eps: float = 1e-6
    q_max: float = 0.8 * np.pi
    curvature: float = 0.25
    n_blobs: int = 6
    phasing_iterations: int = 60
    precision: str = "double"
    backend: str = "auto"
    #: Plan-parameter autotuning mode of the slicing/merging plans the
    #: reconstruction owns ("off", "model" or "measure"; see
    #: :mod:`repro.tuning`).  When the plans are leased from a
    #: :class:`~repro.service.TransformService`, the service's own ``tune``
    #: policy governs instead.
    tune: str = "off"
    seed: int = 0


@dataclass
class MTIPIterationRecord:
    """Metrics of one M-TIP iteration."""

    iteration: int
    density_error: float
    fourier_error: float
    mean_orientation_score: float
    nufft_seconds: dict = field(default_factory=dict)


class MTIPReconstruction:
    """End-to-end M-TIP driver on synthetic diffraction data.

    Parameters
    ----------
    config : MTIPConfig
    device : Device, optional
        Simulated GPU all plans run on (one rank's view); the multi-GPU
        drivers pass per-rank devices.
    service : TransformService, optional
        Lease every NUFFT plan from a shared
        :class:`repro.service.TransformService` instead of owning them: the
        slicing and merging plans then come from (and return to) the
        service's pool, so repeated reconstructions -- or several running
        against one service -- amortize planning exactly like external
        requests.  Mutually exclusive with ``device``.
    """

    def __init__(self, config=None, device=None, service=None):
        self.config = config if config is not None else MTIPConfig()
        if device is not None and service is not None:
            raise ValueError(
                "pass either a device or a service (whose fleet places the "
                "plans), not both"
            )
        self.device = device
        self.service = service
        self.rng = np.random.default_rng(self.config.seed)
        self._build_ground_truth()
        self._simulate_measurements()
        self.history = []
        # Reusable NUFFT operators: the plans (kernel, fine grid, correction
        # factors, device buffers) survive across iterations; only set_pts --
        # the bin sort and stencil cache -- reruns when the candidate or
        # assigned orientations move the slice points.  This is exactly the
        # plan/setpts/execute amortization the paper's Sec. V-A interface is
        # designed for.
        self._slicer = None
        self._merger = None

    # ------------------------------------------------------------------ #
    # experiment synthesis
    # ------------------------------------------------------------------ #
    def _build_ground_truth(self):
        cfg = self.config
        self.true_density, self.support = synthetic_density(
            cfg.n_modes, n_blobs=cfg.n_blobs, rng=self.rng
        )
        self.true_modes = centered_fft(self.true_density)

    def _simulate_measurements(self):
        """Forward-model the diffraction images at random unknown orientations."""
        cfg = self.config
        self.true_rotations = random_rotations(cfg.n_images, rng=self.rng)
        points = ewald_slice_points(
            self.true_rotations, cfg.n_pix, q_max=cfg.q_max, curvature=cfg.curvature
        )
        n_modes3 = (cfg.n_modes,) * 3
        slicer = SlicingOperator(n_modes3, points, eps=cfg.eps, device=self.device,
                                 precision=cfg.precision, backend=cfg.backend,
                                 tune=cfg.tune, service=self.service)
        values = slicer(self.true_modes)
        slicer.destroy()
        intensities = np.abs(values.reshape(cfg.n_images, -1)) ** 2
        self.measured_intensities = intensities
        self.measured_magnitudes = np.sqrt(intensities)

    # ------------------------------------------------------------------ #
    # the four steps
    # ------------------------------------------------------------------ #
    def _candidate_orientations(self):
        """Candidate orientation set: the true ones plus random decoys.

        Including the true orientations keeps the synthetic loop convergent
        with a modest candidate count; a production run would sample a dense
        quasi-uniform grid of SO(3).
        """
        cfg = self.config
        decoys = random_rotations(max(1, cfg.n_candidates - cfg.n_images), rng=self.rng)
        return np.concatenate([self.true_rotations, decoys], axis=0)

    def _get_slicer(self, points):
        cfg = self.config
        if self._slicer is None:
            self._slicer = SlicingOperator(
                (cfg.n_modes,) * 3, points, eps=cfg.eps, device=self.device,
                precision=cfg.precision, backend=cfg.backend,
                tune=cfg.tune, service=self.service,
            )
        else:
            self._slicer.set_points(points)
        return self._slicer

    def _get_merger(self, points):
        cfg = self.config
        if self._merger is None:
            self._merger = MergingOperator(
                (cfg.n_modes,) * 3, points, eps=cfg.eps, device=self.device,
                precision=cfg.precision, backend=cfg.backend,
                tune=cfg.tune, service=self.service,
            )
        else:
            self._merger.set_points(points)
        return self._merger

    def close(self):
        """Release the reusable NUFFT operators (their simulated GPU buffers)."""
        if self._slicer is not None:
            self._slicer.destroy()
            self._slicer = None
        if self._merger is not None:
            self._merger.destroy()
            self._merger = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def __del__(self):  # pragma: no cover - defensive cleanup
        try:
            self.close()
        except Exception:
            pass

    def run_iteration(self, model_modes, iteration_index=0):
        """Run one M-TIP iteration from the current Fourier model.

        Returns the new Fourier model (from the phased density) and an
        :class:`MTIPIterationRecord`.
        """
        cfg = self.config
        nufft_seconds = {}

        # --- step i: slicing at candidate orientations ---------------------
        candidates = self._candidate_orientations()
        candidate_points = ewald_slice_points(
            candidates, cfg.n_pix, q_max=cfg.q_max, curvature=cfg.curvature
        )
        slicer = self._get_slicer(candidate_points)
        candidate_values = slicer(model_modes).reshape(candidates.shape[0], -1)
        nufft_seconds["slicing"] = slicer.nufft_seconds()["total"]
        candidate_intensities = np.abs(candidate_values) ** 2

        # --- step ii: orientation matching ---------------------------------
        assignment, scores = match_orientations(
            self.measured_intensities, candidate_intensities
        )
        assigned_rotations = candidates[assignment]

        # --- step iii: merging ----------------------------------------------
        merge_points = ewald_slice_points(
            assigned_rotations, cfg.n_pix, q_max=cfg.q_max, curvature=cfg.curvature
        )
        # Complex slice estimates: measured magnitudes with the model's phases.
        model_phases = np.exp(1j * np.angle(candidate_values[assignment]))
        slice_values = (self.measured_magnitudes * model_phases).reshape(-1)
        merger = self._get_merger(merge_points)
        merged = merger(slice_values)
        nufft_seconds["merging"] = merger.nufft_seconds()["total"]

        # --- step iv: phasing ------------------------------------------------
        density = phase_retrieval(
            np.abs(merged), self.support, n_iterations=cfg.phasing_iterations,
            method="hio", rng=self.rng,
        )
        new_modes = centered_fft(density)

        record = MTIPIterationRecord(
            iteration=iteration_index,
            density_error=relative_l2_error(density, self.true_density),
            fourier_error=relative_l2_error(np.abs(new_modes), np.abs(self.true_modes)),
            mean_orientation_score=float(np.mean(scores)),
            nufft_seconds=nufft_seconds,
        )
        return new_modes, record

    # ------------------------------------------------------------------ #
    # full run
    # ------------------------------------------------------------------ #
    def run(self, n_iterations=3, initial_modes=None):
        """Run several M-TIP iterations; returns the final density estimate."""
        if n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        cfg = self.config
        if initial_modes is None:
            # Start from the merged measured magnitudes at random orientations
            # (zero phase): a crude but data-driven initial model.
            init_rot = random_rotations(cfg.n_images, rng=self.rng)
            init_points = ewald_slice_points(
                init_rot, cfg.n_pix, q_max=cfg.q_max, curvature=cfg.curvature
            )
            merger = self._get_merger(init_points)
            model_modes = merger(self.measured_magnitudes.reshape(-1).astype(np.complex128))
        else:
            model_modes = np.asarray(initial_modes, dtype=np.complex128)

        self.history = []
        for it in range(n_iterations):
            model_modes, record = self.run_iteration(model_modes, iteration_index=it)
            self.history.append(record)

        density = phase_retrieval(
            np.abs(model_modes), self.support,
            n_iterations=cfg.phasing_iterations, method="er", rng=self.rng,
        )
        return density, self.history
