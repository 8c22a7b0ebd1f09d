"""Per-stage timings of the trial pipeline, as a pytest-benchmark suite.

    PYTHONPATH=src python -m pytest bench/bench_stages.py --benchmark-json=BENCH_<n>.json

The file name does not match ``test_*.py``, so the tier-1 run never collects
it; name it on the command line.  ``--benchmark-disable`` runs every case
once, untimed, which is how CI keeps the suite working.  Each stage is timed
through an entry point of the library's public API (``harness.draw_trial``,
``channel.apply_channel``, ``sync.estimator_bundle`` on a cold cache,
``sync.estimate_cfo`` of one region, ``harness.true_pilot_taps``, a
one-point ``harness.run_trial`` and a small ``harness.run_experiment``), on
the north-star configs: default Q = 2 EVA, Q = 4 EVA and ``eva-bem``.
``sync.front_end`` (the filtered PCP correlation and the TO decisions of a
draw) is timed on the two lane layouts of the benchmark's workloads instead
(``FRONT_ENDS``).  A
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
#: the front end's lane layouts: (config, SNR points, pinned CFOs).  The seven
#: SNR points of a Q = 4 sweep read one stream of K = 2 rows, the signal and
#: the unit noise; the six pinned CFOs of an ``eva-bem`` sweep at 20 dB are a
#: K = 1 stream each, holding its rotation and its noise
FRONT_ENDS = {
    "q4-snr-stack": (SystemConfig(num_users=4), (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0), ()),
    "q2-pinned-cfo": (SystemConfig(channel_model="eva-bem", snr_db=20.0), (),
                      (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)),
}


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


@pytest.mark.parametrize("layout", list(FRONT_ENDS))
def test_front_end(benchmark, layout):
    cfg, snrs, cfos = FRONT_ENDS[layout]
    cfg = cfg.validate()
    if snrs:
        draw = harness.draw_trial(cfg, TRIAL)
        received = np.stack([draw.rx, draw.noise])[np.newaxis]
        stream, amplitude = [0] * len(snrs), [chan.noise_amplitude(snr) for snr in snrs]
    else:
        draw = harness.draw_trial(cfg, TRIAL, [(cfg.snr_db, cfo) for cfo in cfos])
        received = np.stack([chan.add_awgn(draw.rx * chan.cfo_rotation(cfo, cfg.n_s),
                                           cfg.snr_db, draw.noise) for cfo in cfos])[:, np.newaxis]
        stream, amplitude = list(range(len(cfos))), [0.0] * len(cfos)
    benchmark(sync.front_end, received, stream, amplitude, draw.pcp, cfg)


def test_run_trial_of_one_point(benchmark, cfg):
    benchmark(harness.run_trial, cfg, TRIAL)


def test_small_run_experiment(benchmark, cfg):
    # three SNR points of eight trials, which share each trial's draw
    spec = harness.ExperimentSpec("bench", "snr_db", (0.0, 10.0, 20.0), 8)
    benchmark.pedantic(harness.run_experiment, args=(spec, cfg), rounds=5)
