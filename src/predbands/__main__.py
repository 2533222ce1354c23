"""The launcher of the console script, ``python -m predbands`` and ``python -m predbands.cli``.

It imports the CLI with the cyclic garbage collector off, then freezes
what the imports made, so neither the command's own collections nor
interpreter exit walk numpy's and predbands' objects again.
"""

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
    sys.exit(main())


if __name__ == "__main__":
    run()
