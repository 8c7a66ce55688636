"""`python -m crscl`: the same command line as the installed `crscl` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
