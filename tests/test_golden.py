"""Golden outputs of the command line: each row is one command on the
specs of the console-script CI job, its exit code and the sha256 of its
stdout, of its stderr and of the files it writes under --out.

The stderr of a run that ends normally is its progress lines, which are
deterministic, so it is hashed; a usage error's stderr (exit 4) is not,
since argparse's usage text differs across Python versions. The rows are
printed by running this file as a script (python tests/test_golden.py,
with the package on the path), never written by hand: they were recorded
from the package before the change that added them, and a change meant
to alter an output records them again and names the rows that changed.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from borel_rees.cli import main

SPECS = {
    "one.json": {"n": 5, "ideals": [{"borel_generators": ["x3^2", "x2*x5"]}]},
    "pair.json": {"n": 6, "ideals": [
        {"borel_generators": ["x4*x5", "x2*x6"]},
        {"borel_generators": ["x4^2", "x3*x6"]}]},
    "first.json": {"n": 6,
                   "ideals": [{"borel_generators": ["x4*x5", "x2*x6"]}]},
    "g2shape.json": {"n": 6,
                     "ideals": [{"borel_generators": ["x2^2", "x1*x3"]}]},
    "singletons.json": {"n": 2, "ideals": [{"borel_generators": ["x1^2"]},
                                           {"borel_generators": ["x1^2"]}]},
    "cubic.json": {"n": 5, "ideals": [
        {"borel_generators": ["x2*x3*x4", "x1*x4^2", "x2^2*x5"]}]},
    "triple.json": {"n": 5, "ideals": [
        {"borel_generators": ["x3^2", "x1*x5"]},
        {"borel_generators": ["x3^2", "x2*x4"]},
        {"borel_generators": ["x2*x4", "x1*x5"]}]},
}

# argv, exit code, sha256 of stdout, of stderr (None: a usage error), of
# the --out files (None: no --out)
GOLDEN = [
    ('closure --spec pair.json',
     0,
     'c1941edfdf5f0b2a4dc2dd7fe519056ef0afc1e507b705115090f0fbab054cca',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    ('closure --spec one.json',
     0,
     'b76d89e6ed9169a9d0ae7eceb09823df02ca1e2c47ff0a23afa0bb7aecb094e2',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    ('verify --spec pair.json',
     0,
     'fa430cf9aed9477f87a7735b0e21d03b4064024ba68582ac423784c6c9761829',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    ('verify --spec pair.json --budget 1,1 --basis ht --out out',
     0,
     'dea81b2f3335a99e5c000ff3953ade8bfc6494cf645cfa85b4b9fe92666a8cba',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     'c60acd09ff99ef8e4b926b58172c3507dcd8875dacd6caae73ef213b23a46c55'),
    ('verify --spec pair.json --budget 2,2 --basis g3 --out out',
     2,
     '7c1cf31789ce1449f4f4e992858971cb577e1a2fb34f8c2ce4ea1a0d5b9f2cbd',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '8a4e557b5d9badc669340851ff0ea4d39ebc3f60edf27080968ea04a79e676f2'),
    ('verify --spec pair.json --budget 2,1 --basis fiber-type',
     0,
     '2ca0392b7bbab54e55bb98842d3ca9232314940dec111be0b78f29f11f284f5b',
     '8f200da02f3dd3df17a5de3a9140e898cab1fac71e90113a41f95a1f64b80947',
     None),
    ('verify --spec pair.json --budget 3,3 --basis ht',
     0,
     '26ab7b74d9f3199446401d3dc7c7291298c339a77b2edcc1d62fdb01ecbb1198',
     'fc0de35c38c94e41c5681c932880045b8780d2ba5fa517a99594042bf1841fe8',
     None),
    ('verify --spec pair.json --budget 1,0 --basis ht',
     3,
     '945830adb7d6cc86ba3bcbb215ed1b0941bc39b8bd875fb7563677053a8c4a57',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    ('verify --spec pair.json --budget 2,2 --basis fiber-type --xdeg 1',
     3,
     '53654590610fd7f765003c00b81d4ff9d3b5db9d0ee30b9243fb4a0a28fbc4e8',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    ('verify --spec pair.json --budget 2,1 --basis fiber-type --xdeg 5',
     0,
     '93e8930374445f26df63761c4789a6ae9d6bd35097418b675e8a013e89eda9e1',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    ('kernel-oracle --spec pair.json --budget 2,1 --out out',
     0,
     '9ded71edb76538af72e00b545d7b38db6737e9679b17a4a484bd7cf91677dde5',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '8f90f635ae0468d2e72925f8cd25659d4078e4eae4c9582784217de69f1ab97a'),
    ('kernel-oracle --spec pair.json --budget 2,1 --basis g3',
     2,
     '2115da443b89d9678969bef48d9554a88bab98d389af44d91d865b3ee6766abb',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    ('kernel-oracle --spec pair.json --budget 1,1 --basis fiber-type',
     0,
     'fae560984761e2a1dc6f956c47a000e17e5c21730f57d6a07c7b51359d9487c9',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    ('kernel-oracle --spec pair.json --budget 2,2 --basis fiber-type --xdeg 1',
     3,
     'a854e9730af3bdcd2ab61852f458fb616197cc3f1f2106b53b6bc651b9f62e0b',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    ('detect-cubics --spec pair.json --budget 2,2',
     0,
     'b2abf181172bcd5b88c21e2526e9ebadc99f5aa8f9fa4f865ffe3f9fcf68418d',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    ('koszul-report --spec pair.json --budget 2,1',
     0,
     '6476d30f423dcf4da896995edb1902fe5853b179eedf51a0b81c112edfc13fc9',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    ('fiber-graph --spec pair.json --mu x2*x3*x4^2*x5*x6 --t 2,1 --basis ht --out out',
     0,
     '797825e357c387ea9835008c39c7bfccc3c7bd1e72d9e54533e47b00ed635855',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     'ef86a72115a55c8a27ea9c8dda965e9df8df8e1c3ff355059b102808c64b769e'),
    ('fiber-graph --spec pair.json --mu x2*x3*x4^2*x5*x6 --t 2,1 --basis g3',
     0,
     'cb173db941876ad61038f44ddde39c418ad40f30f81db2b5fa6dd14cd1d12d61',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    ('fiber-graph --spec first.json --basis fiber-type --mu x2*x4*x5*x6 --t 1 --out out',
     0,
     '835248d377fceca44c504f6d1ddc80397d2a556122398c64810cc3f07da41b14',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '8d094682ddb51d853945f8100e98c10f783da98b5085d13f2b0c3238115fdc5d'),
    ('fiber-graph --spec one.json --mu x1*x2*x3 --t 2',
     0,
     'e61d815ce5f42d1c1502743ff91478b55dc6f6bd6f8ea4b656590248db779fe8',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    ('verify --spec one.json --budget 2 --basis g1',
     0,
     '4c2a6abadb4bd65f8e61a924108c2101afc2e096d1b5f78ae8b2c0db3c6714d6',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    ('verify --spec one.json --budget 2 --basis g2 --out out',
     0,
     '668fe871fd851998f270c6a501e66129ff352ccf3ea36fc87856ce9916094b14',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     '3307700ed29444eba353252b0806a8a43f273bc545ea54f1ca860ea7acd83a3e'),
    ('verify --spec one.json --budget 2 --basis fiber-type',
     0,
     'c8572459edacd1053724668787e73906caad3dbc3f4572b6a5a2d482ee46c5e1',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    ('kernel-oracle --spec one.json --budget 2 --basis fiber-type --xdeg 4',
     0,
     'e0b4db379d392ef35ff64c1fcecb088f6304773c3d1563c2cf58e1fc895c01a3',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    ('verify --spec first.json --budget 2 --basis g2',
     0,
     'b609437bcd0f528fbab2e2776375fd7ec3e3b19b681a1627434a745772f0ce42',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    ('verify --spec g2shape.json --budget 2 --basis g2',
     0,
     'f8d5c2e846949d7ed5a9ffd65b6e11fbfcdf5c6102b5b61c7d0d13c5615aaccc',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    ('verify --spec cubic.json --budget 2 --basis fiber-type',
     0,
     '58dc54d0382f14c7c9b4e0b59e967c154fbfe58440537550444a11bfb2393c06',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    ('verify --spec singletons.json --budget 2,2',
     3,
     '192a9da690ab5126cb210001eb02c101d072d21b2f07574ad7fd49d6ee564431',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    ('kernel-oracle --spec singletons.json --budget 2,2',
     3,
     '6b1fd419a803d30881d5283de4f5da05db2f025226ae3b507ba244d2eacf2f61',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    ('koszul-report --spec singletons.json --budget 2,2',
     3,
     '72ce7359bcfa29d1d96f570d1e31fe602d22af7724dbf1c0b9d4a594dd5e08d7',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    ('detect-cubics --spec triple.json --budget 1,2,2',
     2,
     '7100d8f9f8d552d884586a53999178e54b037df45bd42e9d91611a13718be6b1',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    ('koszul-report --spec triple.json --budget 1,1,1',
     2,
     'dfabd2bdc56727cd14822a2b20d9501c10db7ce34efb8fc4500b3b2c103da03e',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    ('paper-examples fig4',
     0,
     'ec741f5ef09f6b4ade78faec87cb346f2912e8ee83fb726ceca9ba2f08773260',
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None),
    ('verify --spec pair.json --budget 1',
     4,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None,
     None),
    ('verify --spec one.json --basis g3',
     4,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None,
     None),
    ('fiber-graph --spec pair.json --mu x1*y2 --t 1,1',
     4,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None,
     None),
    ('verify --spec missing.json',
     4,
     'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
     None,
     None),
]


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def outcome(argv: str) -> tuple:
    """(exit code, stdout, stderr, --out files) hashes of one in-process run
    of argv, split on blanks, in the current directory, where the specs
    are. The --out files are hashed as one: each name and content in
    name order."""
    args = argv.split()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = main(args)
    files = None
    if "--out" in args:
        out = Path(args[args.index("--out") + 1])
        files = _sha("".join(f"{p.name}\0{p.read_text()}\0"
                             for p in sorted(out.iterdir())))
    return (code, _sha(stdout.getvalue()),
            None if code == 4 else _sha(stderr.getvalue()), files)


def _write_specs(directory: Path) -> None:
    for name, spec in SPECS.items():
        (directory / name).write_text(json.dumps(spec))


@pytest.mark.parametrize("row", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_output_is_byte_identical(row, tmp_path, monkeypatch):
    _write_specs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert outcome(row[0]) == row[1:]


if __name__ == "__main__":
    for argv, *_ in GOLDEN:
        with tempfile.TemporaryDirectory() as directory:
            _write_specs(Path(directory))
            here = os.getcwd()
            os.chdir(directory)
            try:
                print(f"    ({argv!r},\n" + ",\n".join(
                    f"     {value!r}" for value in outcome(argv)) + "),")
            finally:
                os.chdir(here)
