"""The exceptions that ``fedrr.cli`` turns into exit codes, in a module that imports nothing: the CLI names them
without loading the modules that raise them, which import them from here, so ``harness.ConfigError`` and the
like are these classes."""


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class DatasetError(ValueError):
    """Malformed input file or invalid partitioning request."""


class ProblemError(ValueError):
    pass


class SolverError(RuntimeError):
    def __init__(self, message: str, grad_norm: float):
        super().__init__(message)
        self.grad_norm = grad_norm


class DivergenceError(RuntimeError):
    def __init__(self, message: str, meta_epoch=None, round_index=None, client=None, iterate_norm=None):
        super().__init__(message)
        self.meta_epoch, self.round_index = meta_epoch, round_index
        self.client, self.iterate_norm = client, iterate_norm  # the client whose local pass ended non-finite, or None
