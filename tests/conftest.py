import subprocess
import sys

import numpy as np
import pytest

from gaussent.states import (
    CorrelationMatrix4,
    SqueezedBeam,
    apply_loss,
    entangle_on_beamsplitter,
)

# Published anchor matrices (entries rounded to two significant figures;
# amplitude correlations negative, phase correlations positive).
ANCHOR_35_ENTRIES = [
    [6.2, 0.0, -5.3, 0.0],
    [0.0, 6.1, 0.0, 5.7],
    [-5.3, 0.0, 6.2, 0.0],
    [0.0, 5.7, 0.0, 6.1],
]
ANCHOR_65_ENTRIES = [
    [3.3, 0.0, -2.9, 0.0],
    [0.0, 3.3, 0.0, 2.9],
    [-2.9, 0.0, 3.3, 0.0],
    [0.0, 2.9, 0.0, 3.3],
]

# Directly measured values behind the 6.5 MHz matrix.
MEASURED_65 = {"v_sum_plus": 0.44, "v_diff_minus": 0.44, "cv_plus": 0.77, "cv_minus": 0.76}


@pytest.fixture
def cm_35mhz():
    return CorrelationMatrix4(ANCHOR_35_ENTRIES)


@pytest.fixture
def cm_65mhz():
    return CorrelationMatrix4(ANCHOR_65_ENTRIES)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_squeezed_beam(rng, impure: bool = True) -> SqueezedBeam:
    """A physical amplitude-squeezed beam with random squeezing and purity."""
    v_plus = rng.uniform(0.1, 0.9)
    excess = rng.uniform(1.0, 3.0) if impure else 1.0
    return SqueezedBeam(v_plus, excess / v_plus)


def random_entangled_cm(rng) -> CorrelationMatrix4:
    """Entangled two-mode matrix from random squeezed inputs and equal loss."""
    state = entangle_on_beamsplitter(
        random_squeezed_beam(rng), random_squeezed_beam(rng)
    )
    eta = rng.uniform(0.5, 1.0)
    return apply_loss(state, eta, eta).cm


def run_measuring_peak_rss(argv, env) -> tuple[int, int]:
    """Exit code and peak resident set (``ru_maxrss``, KiB on Linux) of ``argv``.

    A spawned child's ru_maxrss counts the resident set of the process that
    spawned it (the child shares that memory until exec), so a small
    launcher, not pytest, starts the command and reports both figures.
    """
    launcher = (
        "import os, sys; pid = os.posix_spawn(sys.executable, sys.argv[1:], os.environ); "
        "_, status, usage = os.wait4(pid, 0); "
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)"
    )
    result = subprocess.run([sys.executable, "-c", launcher, *argv], env=env,
                            capture_output=True, text=True, timeout=120)
    code, max_rss_kib = map(int, result.stdout.split())
    return code, max_rss_kib
