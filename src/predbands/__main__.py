"""The launcher of the console script, ``python -m predbands`` and ``python -m predbands.cli``.

It imports the CLI with the cyclic garbage collector off, then freezes
what the imports made, so the command's own collections do not walk
numpy's and predbands' objects again.  After the command it runs the
atexit hooks, flushes stdout and stderr and leaves by ``os._exit``: the
interpreter's teardown would only free memory, at 3-4 ms of CPU.
"""

import atexit
import gc
import os
import sys


def run():
    # The CLI runs numpy's BLAS on one thread unless the caller chose a count.
    # predbands' only BLAS calls are short row dots and its parallelism is
    # worker processes (--threads), which inherit this setting.  A threaded dot
    # over 100,000+ values rounds differently with the core count, and starting
    # the thread pool costs each process about 0.1 s of CPU on 2 cores.  This
    # must run before numpy loads.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc.disable()
    from predbands.cli import main
    gc.freeze()
    gc.enable()
    code = main()  # argparse's usage errors leave by SystemExit, as usual
    atexit._run_exitfuncs()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
