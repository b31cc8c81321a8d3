"""`python -m crfas`: the `crfas` command line."""
from .cli import main

if __name__ == "__main__":
    main()
