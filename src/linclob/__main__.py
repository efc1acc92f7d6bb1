"""`python -m linclob ...`: the `linclob` command line (`cli.main`)."""

from .cli import main

if __name__ == "__main__":
    main()
