"""Figures 13 & 14: LFS vs LFS++ on a 25 fps video.

mplayer plays a 1400-frame 25 fps video under adaptive reservations, once
with the original LFS (binary saturation feedback, fixed reservation
period, sampled every server period) and once with LFS++ (consumed-time
sensor, quantile predictor, period from the analyser).  Rate detection is
disabled for the LFS run exactly as in §5.4 ("to make the results more
reliable").

Reported, as in the paper:
- the inter-frame-time series and the reserved-fraction series (Fig. 13),
- their CDFs (Fig. 14),
- mean/std of the inter-frame time for both laws (the paper measured
  39.992 ms / 11.287 ms for LFS and 40.925 ms / 4.631 ms for LFS++).

Expected shape: equal ~40 ms means; LFS takes ~100 frames to bring the
inter-frame time under control while LFS++ adapts almost immediately, so
LFS's std and CDF tail are several times worse.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core import Lfs, LfsPlusPlus, SelfTuningRuntime
from repro.core.analyser import AnalyserConfig
from repro.core.controller import FeedbackLaw, TaskControllerConfig
from repro.core.runtime import AdoptedTask
from repro.core.spectrum import SpectrumConfig
from repro.experiments.base import ExperimentResult, Series
from repro.metrics import InterFrameProbe, cdf_points
from repro.sim.time import MS, SEC
from repro.workloads import VideoPlayer
from repro.workloads.desktop import desktop_load, desktop_suite
from repro.workloads.mplayer import VideoPlayerConfig

#: analyser band for the 25 fps video (fundamental 25 Hz, harmonics in band)
VIDEO_SPECTRUM = SpectrumConfig(f_min=20.0, f_max=100.0, df=0.1)

#: the video analyser: :data:`VIDEO_SPECTRUM` over a 2 s horizon
VIDEO_ANALYSER = AnalyserConfig(spectrum=VIDEO_SPECTRUM, horizon_ns=2 * SEC)


def law_config(law: str) -> dict:
    """:func:`build_playback` arguments of feedback law ``"lfs"`` or ``"lfs++"``.

    LFS++ is the builder's default loop.  LFS samples every 40 ms with
    rate detection disabled, exactly as in §5.4 ("to make the results
    more reliable").
    """
    if law == "lfs":
        return {
            "feedback": Lfs(),
            "controller_config": TaskControllerConfig(
                sampling_period=40 * MS, use_period_estimate=False
            ),
        }
    if law == "lfs++":
        return {"feedback": LfsPlusPlus()}
    raise ValueError(f"unknown law {law!r}; use 'lfs' or 'lfs++'")


def build_playback(
    rt: SelfTuningRuntime,
    *,
    n_frames: int,
    seed: int,
    wrap_program: Callable | None = None,
    feedback: FeedbackLaw | None = None,
    controller_config: TaskControllerConfig | None = None,
    analyser_config: AnalyserConfig | None = VIDEO_ANALYSER,
    u_min: float = 0.0,
) -> tuple[AdoptedTask, VideoPlayer, InterFrameProbe]:
    """Spawn the Figure 13 adaptive playback on ``rt`` and adopt it.

    mplayer plays ``n_frames`` of a seeded 25 fps video (its program
    passed through ``wrap_program`` when given) under an inter-frame
    probe, next to the desktop background mix, and is adopted with the
    remaining ``rt.adopt`` arguments (default: LFS++ on the video
    analyser band).  The caller builds ``rt`` (tracer configuration,
    reservation policy, telemetry), adds any other processes and runs it.
    Returns ``(task, player, probe)``.
    """
    player = VideoPlayer(VideoPlayerConfig(seed=seed))
    program = player.program(n_frames)
    proc = rt.spawn("mplayer", program if wrap_program is None else wrap_program(program))
    probe = InterFrameProbe(pid=proc.pid)
    probe.install(rt.kernel)
    # the desktop background mix: reservations only matter because the
    # best-effort class (where budget-exhausted tasks overflow) is busy
    for i, cfg in enumerate(desktop_suite(seed + 40)):
        rt.spawn(f"desktop{i}", desktop_load(cfg))
    task = rt.adopt(
        proc,
        feedback=feedback,
        controller_config=controller_config,
        analyser_config=analyser_config,
        u_min=u_min,
    )
    return task, player, probe


def run_one(law_name: str, *, n_frames: int, seed: int) -> dict:
    """One playback run under the given feedback law; returns raw series."""
    rt = SelfTuningRuntime()
    task, player, probe = build_playback(rt, n_frames=n_frames, seed=seed, **law_config(law_name))
    rt.run((n_frames * 40 + 2000) * MS)

    ift_ms = np.array(probe.inter_frame_times, dtype=np.float64) / MS
    bw_t = np.array([t for t, _ in task.controller.granted_history], dtype=np.float64) / SEC
    bw = np.array([g.bandwidth for _, g in task.controller.granted_history])
    # cut the post-playback tail (requests decay once the player exits)
    active = bw_t <= (n_frames * 40 / 1000.0)
    return {
        "ift_ms": ift_ms,
        "bw_time_s": bw_t[active],
        "bw": bw[active],
        "frames": player.frames_played,
        "utilisation": player.config.utilisation,
    }


def run(*, n_frames: int = 1400, seed: int = 13) -> ExperimentResult:
    """Compare LFS and LFS++ on the same video."""
    result = ExperimentResult(
        experiment="fig13",
        title="Inter-frame times and reserved CPU fraction: LFS vs LFS++ (Figs. 13-14)",
    )
    runs = {name: run_one(name, n_frames=n_frames, seed=seed) for name in ("lfs", "lfs++")}

    for name, data in runs.items():
        ift = data["ift_ms"]
        # Fig. 13 time series
        s_ift = Series(name=f"ift_ms[{name}]")
        for i, v in enumerate(ift):
            s_ift.add(i + 1, float(v))
        result.series.append(s_ift)
        s_bw = Series(name=f"reserved_fraction[{name}]")
        for t, b in zip(data["bw_time_s"], data["bw"], strict=True):
            s_bw.add(float(t), float(b))
        result.series.append(s_bw)
        # Fig. 14 CDFs
        xs, ps = cdf_points(ift)
        s_cdf = Series(name=f"ift_cdf[{name}]")
        for x, p in zip(xs[:: max(1, len(xs) // 200)], ps[:: max(1, len(xs) // 200)], strict=True):
            s_cdf.add(float(x), float(p))
        result.series.append(s_cdf)

        late = np.where(ift > 80.0)[0]
        steady = ift[len(ift) // 5 :]
        result.add_row(
            law=name.upper(),
            ift_mean_ms=float(ift.mean()),
            ift_std_ms=float(ift.std(ddof=1)),
            steady_std_ms=float(steady.std(ddof=1)),
            last_frame_over_80ms=int(late[-1] + 1) if late.size else 0,
            frames_over_80ms=int(late.size),
            mean_reserved_fraction=float(np.mean(data["bw"])),
        )
    result.notes.append(
        f"video utilisation ~{runs['lfs']['utilisation']:.2f}; expected: equal "
        "~40ms means, LFS std several times larger, LFS late frames up to "
        "~100, LFS++ almost immediate"
    )
    return result
