"""CPU-speed probe that makes timings comparable on a shared machine.

On a small virtual machine the speed of a CPU can change by a third within
seconds and stay changed for a minute, because the host runs other work on
the same core.  Such drift moves every wall-clock time far more than most
changes to the program do.  The probe runs a fixed micro-kernel in a
background thread of the measured process, on the same CPU, every
``PERIOD_S`` seconds, and records the kernel's thread CPU time.  Thread CPU
time excludes the time the probe waits for the interpreter lock, so it
tracks only how fast this CPU executes.  A wall-clock interval is then
rescaled to the speed at which the kernel takes its nominal time:

    rescaled = wall * mean(nominal / kernel_time)  over the interval

The mean of the speed ratios weights the samples equally in time, which is
the right average when the speed changes within the interval.  The kernels
run nothing of the program, so a change to the program cannot move them;
only the machine's speed does.

Two kernels are used.  Before numpy is imported (the set-up being timed
includes that import) the kernel is a pure-Python loop.  Afterwards it is
25 SVDs of a fixed 4 x 4 complex matrix: a numpy call with a small LAPACK
kernel, which on the 2-vCPU machine the baseline was taken on tracked the
drift of every workload far better than the Python loop did.
"""
import os
import statistics
import threading
import time

PERIOD_S = 0.05
# Kernel times at the speed the baseline was taken at; they set the scale
# of rescaled times, which then read close to wall seconds on that machine.
NOMINAL_S = {"python": 6.5e-4, "numpy": 4.7e-4}


def pin_to_one_cpu():
    """Run this process, and so the probe thread, on a single CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _python_kernel():
    acc = 0
    for i in range(10_000):
        acc += i * i % 7


class _NumpyKernel:
    def __init__(self):
        import numpy as np
        self.svd = np.linalg.svd
        k = np.arange(16.0).reshape(4, 4)
        self.matrix = np.sin(k) + 1j * np.cos(k)

    def __call__(self):
        for _ in range(25):
            self.svd(self.matrix)


class SpeedProbe:
    """Samples the kernel in a background thread while it is entered."""

    def __init__(self):
        self.samples = []           # (perf_counter at the end, speed ratio)
        self._kernel = (_python_kernel, NOMINAL_S["python"])
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def use_numpy(self):
        """Switch to the numpy kernel; call once numpy has been imported."""
        self._kernel = (_NumpyKernel(), NOMINAL_S["numpy"])

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            self.sample()

    def sample(self):
        kernel, nominal = self._kernel    # one read: the pair stays matched
        started = time.thread_time()
        kernel()
        ratio = nominal / (time.thread_time() - started)
        self.samples.append((time.perf_counter(), ratio))

    def normalize(self, start, end):
        """The wall interval [start, end] rescaled to the nominal speed."""
        ratios = [r for t, r in self.samples if start <= t <= end]
        return (end - start) * statistics.mean(ratios)
