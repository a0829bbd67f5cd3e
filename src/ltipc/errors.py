"""Exception types shared across the package."""


class BudgetExceededError(RuntimeError):
    """Arrays a computation needs at once would exceed the memory budget;
    raised before they are allocated."""

    def __init__(self, message: str, n_inputs: int, n_outputs: int, budget: int):
        super().__init__(message)
        self.n_inputs = n_inputs
        self.n_outputs = n_outputs
        self.budget = budget


class ConvergenceError(RuntimeError):
    """An iterative solver stopped at max_iters without meeting its gap tolerance.

    Carries the last certified optimality gap so callers can decide whether the
    partial answer is still usable.
    """

    def __init__(self, message: str, gap: float, iterations: int):
        super().__init__(message)
        self.gap = gap
        self.iterations = iterations
