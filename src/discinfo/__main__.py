"""``python -m discinfo``: the ``discinfo`` command line, :func:`discinfo.cli.main`."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
