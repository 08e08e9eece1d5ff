import warnings

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, max_examples=80)
settings.load_profile("deterministic")

# The hypothesis pytest plugin imports hypothesis.extra._patching when it
# reports a failing property test.  Where libcst is installed, that import
# warns about mypy_extensions.TypedDict, and under -W error the warning
# replaces the falsifying example with an INTERNALERROR.  Import it here
# with only that warning ignored; without libcst the import fails harmlessly.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
