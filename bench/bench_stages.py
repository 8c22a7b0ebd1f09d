"""Per-stage timings of the trial pipeline, as a pytest-benchmark suite.

    PYTHONPATH=src python -m pytest bench/bench_stages.py --benchmark-json=BENCH_<n>.json

The file name does not match ``test_*.py``, so the tier-1 run never collects
it; name it on the command line.  ``--benchmark-disable`` runs every case
once, untimed, which is how CI keeps the suite working.  Each stage is timed
through an entry point of the library's public API (``harness.draw_trial``,
``channel.apply_channel``, ``sync.estimator_bundle`` on a cold cache,
``sync.estimate_cfo`` of one region, ``harness.true_pilot_taps``, a
one-point ``harness.run_trial`` and a small ``harness.run_experiment``), on
the north-star configs: default Q = 2 EVA, Q = 4 EVA and ``eva-bem``.  A
BENCH file of one commit is comparable with another's when both ran on the
same machine.
"""

import numpy as np
import pytest

from otfsync import channel as chan
from otfsync import harness, modem, pilot, sync
from otfsync.config import SystemConfig

CONFIGS = {
    "q2-eva": SystemConfig(),
    "q4-eva": SystemConfig(num_users=4),
    "eva-bem": SystemConfig(channel_model="eva-bem"),
}
#: trial index of every one-trial case
TRIAL = 3


@pytest.fixture(params=list(CONFIGS), ids=list(CONFIGS))
def cfg(request):
    return CONFIGS[request.param].validate()


def test_draw_trial(benchmark, cfg):
    benchmark(harness.draw_trial, cfg, TRIAL)


def test_apply_channel(benchmark, cfg):
    rng = harness.trial_rng(cfg.rng_seed, TRIAL)
    realization = chan.draw_realization(rng, cfg)
    pcp = pilot.make_pcp(cfg.zc_len, cfg.zc_root, cfg.pilot_power_db)
    bands = sync.doppler_mask(cfg, np.arange(cfg.num_users)[:, np.newaxis])
    frames = [modem.build_data_frame(rng, cfg.m, cfg.n, band, pilot.guard_rows(cfg))
              for band in bands]
    streams = modem.transmit(pilot.embed_pilots(frames, cfg, pcp), cfg.cp_len)
    benchmark(chan.apply_channel, streams, realization, cfg.n_s, cfg.theta_max)


def test_true_pilot_taps(benchmark, cfg):
    realization = chan.draw_realization(harness.trial_rng(cfg.rng_seed, TRIAL), cfg)
    benchmark(harness.true_pilot_taps, realization.paths[0], cfg, int(realization.to[0]))


def test_cold_estimator_bundle(benchmark, cfg):
    # each round builds the table of theta_hat = 2 anew
    benchmark.pedantic(sync.estimator_bundle, args=(cfg, 2),
                       setup=sync._cached_bundle.cache_clear, rounds=30)


def test_estimate_cfo_of_one_region(benchmark, cfg):
    rng = np.random.default_rng(TRIAL)
    shape = (1, 1, cfg.n, cfg.zc_len)
    samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    bundle = sync.estimator_bundle(cfg, 2)
    benchmark(sync.estimate_cfo, samples, bundle, cfg, [0.0], [0])


def test_run_trial_of_one_point(benchmark, cfg):
    benchmark(harness.run_trial, cfg, TRIAL)


def test_small_run_experiment(benchmark, cfg):
    # three SNR points of eight trials, which share each trial's draw
    spec = harness.ExperimentSpec("bench", "snr_db", (0.0, 10.0, 20.0), 8)
    benchmark.pedantic(harness.run_experiment, args=(spec, cfg), rounds=5)
