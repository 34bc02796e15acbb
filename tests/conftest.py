import sys
import warnings
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile("dscjscc", max_examples=25, deadline=None)
settings.load_profile("dscjscc")

# When a @given test fails, hypothesis's pytest plugin imports this module to
# print an @example patch.  Its libcst import warns (mypy_extensions.TypedDict
# is deprecated), and under filterwarnings = error that warning, raised inside
# the plugin's report hook, ends the whole run in INTERNALERROR.  Imported once
# here with the warning ignored, the plugin finds it already loaded.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst absent: the plugin then prints no patch, and nothing warns
        pass
