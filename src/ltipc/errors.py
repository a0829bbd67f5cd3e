"""Exception types shared across the package."""


class BudgetExceededError(RuntimeError):
    """Arrays a computation needs at once would exceed the memory budget;
    raised before they are allocated.  The message names the arrays, their
    bytes, the budget and the setting to change."""


class ConvergenceError(RuntimeError):
    """An iterative solver stopped at max_iters without meeting its gap tolerance.

    Carries the last certified optimality gap so callers can decide whether the
    partial answer is still usable.
    """

    def __init__(self, message: str, gap: float, iterations: int):
        super().__init__(message)
        self.gap = gap
        self.iterations = iterations
