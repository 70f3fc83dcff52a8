import pickle

import pytest

from fwdreg import errors
from fwdreg.errors import FwdregError

# constructor arguments of the errors that take more than a message
ARGS = {
    errors.ColumnError: (3,),
    errors.ZeroVarianceColumn: (3,),
    errors.OverflowingColumn: (3,),
    errors.CollinearCandidate: (5,),
    errors.BudgetExceeded: ("C(40, 6) = 3838380 subsets exceed the budget", 6),
}

ERRORS = [cls for cls in vars(errors).values()
          if isinstance(cls, type) and issubclass(cls, FwdregError)]


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_error_survives_pickling(cls):
    """A process pool pickles a worker's error to re-raise it in the parent."""
    exc = cls(*ARGS.get(cls, ("something went wrong",)))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)
