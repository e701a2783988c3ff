"""Exception types shared across the package.

Each class maps to a distinct CLI exit code so that scripted callers can
tell configuration mistakes, resource limits, generator failures and I/O
problems apart without parsing messages.
"""

__all__ = ["ConfigError", "BudgetError", "GeneratorError", "DiagnosticError"]


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""

    exit_code = 2


class BudgetError(ConfigError):
    """A resource rule (torus side, memory budget) cannot be satisfied."""

    exit_code = 3


class GeneratorError(RuntimeError):
    """A random-field or point-set generator failed."""

    exit_code = 4


class DiagnosticError(RuntimeError):
    """A diagnostic cannot be computed on the given data (e.g. torus too small)."""

    exit_code = 5


IO_EXIT_CODE = 6  # OSError and friends, mapped at the CLI boundary
USAGE_EXIT_CODE = 2  # argparse-level misuse shares the config-error code
INTERRUPT_EXIT_CODE = 130  # KeyboardInterrupt, the shell's 128 + SIGINT
