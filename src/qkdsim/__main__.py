"""`python -m qkdsim`: the command line of `qkdsim.cli`."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
