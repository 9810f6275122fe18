"""Wave-domain stacked-metasurface classifier: simulator, trainer, tooling."""

__version__ = "0.1.0"
