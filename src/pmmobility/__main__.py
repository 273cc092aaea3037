"""Module entry point, mirrors the console script."""

from .cli import main

if __name__ == "__main__":
    main()
