"""Package metadata: the ``repro`` package under ``src/``.

``pip install -e .`` installs it.  It has no runtime dependency beyond
the Python standard library; the test suite needs ``pytest`` and
``hypothesis``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "Reproduction of 'Serialized Asynchronous Links for NoC' "
        "(Ogg et al., DATE 2008) and its evaluation harness"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
)
