"""Process entry point: ``python -m affasym`` and the ``affasym`` console
script both call ``run()``.

Each command is a fresh process that imports only what it runs, and no
module generates code while it imports: records are plain classes, not
dataclasses.  ``tools/startup_cost.py`` times the start-up.

A command's process keeps every module it imports until it exits.  ``run()``
imports the command line (numpy with it) with the cyclic collector off and
moves the imported heap into the permanent generation (``gc.freeze``) before
the command runs, and again after it returns, so no collection walks the
modules while they import or while the interpreter tears them down at exit.
``cli.main``, which callers in the same process use, leaves the collector
alone.
"""

import gc
import sys


def run():
    """Run the command in ``sys.argv`` and return its exit code."""
    gc.disable()
    try:
        from .cli import main
    finally:
        gc.freeze()
        gc.enable()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
