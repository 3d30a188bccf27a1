"""`import nshd` loads no scipy module beyond those that `import scipy.fft` loads.

scipy.integrate alone (with the scipy.optimize, scipy.sparse.linalg and
scipy.linalg it pulls in) once took about a third of every process's start-up.
"""

import os
import subprocess
import sys

import nshd

SRC = os.path.dirname(os.path.dirname(os.path.abspath(nshd.__file__)))


def _scipy_modules(statement):
    """The scipy modules a fresh interpreter holds after `statement`."""
    code = (f"import sys\nsys.path.insert(0, {SRC!r})\n{statement}\n"
            "print('\\n'.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    return set(out.split())


def test_import_nshd_loads_only_the_scipy_modules_of_scipy_fft():
    fft = _scipy_modules("import scipy.fft")
    package = _scipy_modules("import nshd")
    extra = package - fft
    under = sorted({".".join(m.split(".")[:2]) for m in extra})
    assert not extra, (f"import nshd also loads {len(extra)} scipy modules that "
                       f"import scipy.fft does not, under {', '.join(under)}")
    assert package == fft, f"import nshd lacks {', '.join(sorted(fft - package))}"
