"""Build script wiring the optional C kernel.

The extension compiles the committed src/abdukit/solver/_kernel.c with the
plain C compiler.  It is a pure accelerator: if the compiler is missing or
fails, the build falls back to the pure-Python kernel and the install still
succeeds.  The .c is generated from _kernel.pyx; after editing the .pyx,
regenerate it with ``cython src/abdukit/solver/_kernel.pyx`` (Cython 3)
and commit both.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """build_ext that downgrades compiler failures to a warning."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing entirely
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        import sys

        print(
            "warning: C kernel build failed (%s); using the pure-Python kernel"
            % exc,
            file=sys.stderr,
        )


setup(
    ext_modules=[
        Extension("abdukit.solver._kernel", ["src/abdukit/solver/_kernel.c"])
    ],
    cmdclass={"build_ext": optional_build_ext},
)
