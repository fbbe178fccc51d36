from .cli import main

if __name__ == "__main__":  # importing the module runs nothing
    raise SystemExit(main())
