"""The numpy draws that fronts, run logs and synthetic caches rest on,
pinned at fixed seeds as numpy 2.4.6 draws them.

NEP 19 keeps bit-generator streams stable across numpy versions, but lets
``Generator`` methods change how they turn a stream into values. Every
digest pinned in tests/ and perfbench/ rests on these methods, at these
shapes: the strategy VM's k-of-n draws (``choice`` without replacement),
variation's ``integers`` and ``random``, the repetition streams of
``spawn``, and ``synth_cache``'s draws. A numpy that draws any of them
otherwise fails here first, with its cause named, rather than only as
digest mismatches.
"""

import hashlib

import numpy as np
import pytest

RECORDED_UNDER = "2.4.6"


def rng(seed):
    return np.random.default_rng(seed)


def floats(values):
    return [float(value).hex() for value in np.atleast_1d(values)]


def digest(values):
    return hashlib.sha256(np.asarray(values, dtype=np.int64).tobytes()).hexdigest()


def synth_draws():
    generator = rng(6)
    weights = 2.0 ** -np.arange(5)
    return (floats(generator.uniform(0.5, 5.0, size=2)),
            floats(generator.lognormal(0.0, 0.6, size=2)),
            generator.geometric(0.45, size=4).tolist(),
            generator.choice(5, size=6, p=weights / weights.sum()).tolist())


def spawned_draws():
    child = rng(5).spawn(4)[2]
    return (child.choice(8, 3, replace=False).tolist(),
            child.integers(0, 256, size=4).tolist(), floats(child.random()))


def integer_draws():
    generator = rng(3)
    return (generator.integers(0, 256, size=8).tolist(), int(generator.integers(5)),
            int(generator.integers(1, 40)))


def random_draws():
    generator = rng(4)
    return floats(generator.random()) + floats(generator.random(3))


# Each draw, and what numpy 2.4.6 drew.
DRAWS = {
    "choice(8, 3, replace=False)": (
        lambda: rng(1).choice(8, 3, replace=False).tolist(), [3, 2, 6]),
    "choice(600, 180, replace=False)": (
        lambda: digest(rng(2).choice(600, 180, replace=False)),
        "d2847181c3ce43dafa6d008c1b9ba5a1e2c682f8b314e21530fd9b3d7a4dec57"),
    "integers": (integer_draws, ([207, 21, 45, 60, 46, 205, 222, 149], 0, 4)),
    "random": (random_draws, ["0x1.e2d83ff773f04p-1", "0x1.05ccb999c3465p-1",
                              "0x1.f3d63709e1811p-1", "0x1.4b1ab6ef864a8p-4"]),
    "spawn(4)[2]": (spawned_draws, ([3, 6, 4], [132, 99, 228, 179], ["0x1.93a64bdc935aep-1"])),
    "synth_cache's uniform, lognormal, geometric and weighted choice": (synth_draws, (
        ["0x1.75fb90074058ap+1", "0x1.05b95970ea3b2p+1"],
        ["0x1.ba970bace81aep-3", "0x1.d752ec7e4534ap-1"],
        [2, 1, 2, 1], [0, 2, 0, 4, 2, 2])),
}


@pytest.mark.parametrize("name", DRAWS)
def test_numpy_draws_as_recorded(name):
    draw, recorded = DRAWS[name]
    assert draw() == recorded, (
        f"numpy {np.__version__} draws {name} otherwise than numpy {RECORDED_UNDER}, "
        "under which every pinned digest was recorded. NEP 19 "
        "(numpy.org/neps/nep-0019-rng-policy.html) keeps bit-generator streams "
        "stable but lets Generator methods change; ROADMAP item 3 (own the draw "
        "contract) removes this dependence. Until then, run with numpy "
        f"{RECORDED_UNDER}.")
