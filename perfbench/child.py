"""One scheme-forge CLI invocation, run by ``run.py`` in a fresh process.

    python3 perfbench/child.py FD MODE [CLI ARGS...]

MODE is ``import`` (import the CLI and describe the environment), ``plain``
(run the command as the ``scheme-forge`` console script does) or ``trace``
(run it with the layers of ``layers.TRACED`` wrapped in spans).  The
package is imported from ``src/`` under the working directory.  A JSON report goes to file descriptor FD: the monotonic clock
reading taken right after ``scheme_forge.cli`` was imported, plus the
environment or the per-layer metrics where the mode asks for them.
"""

import os
import sys
import time


def main() -> int:
    fd, mode, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from scheme_forge import cli
    imported = time.monotonic()

    import json
    report = {"imported": imported, "module": cli.__file__}
    if mode == "import":
        import numpy
        from scheme_forge import _kernels, search
        report["env"] = {
            "backend": "numba" if _kernels.use_numba() else "numpy",
            "scan_threads": search._thread_budget(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
        }
        rc = 0
    elif mode == "plain":
        with os.fdopen(fd, "w") as out:
            json.dump(report, out)
        return cli.main(argv)
    else:
        import layers
        from scheme_forge import search
        from tracer import Tracer

        tracer = Tracer(heap_spans=layers.HEAP_SPANS)
        layers.install(tracer)
        root = tracer.enter("cli.main")
        try:
            rc = cli.main(argv)
        finally:
            tracer.exit(root)
        report["metrics"] = layers.summarise(tracer, search._thread_budget())
        report["spans"] = len(tracer.spans)
    with os.fdopen(fd, "w") as out:
        json.dump(report, out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
