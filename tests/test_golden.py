"""Golden CLI outputs: (exit code, stdout hash, stderr hash) per command line.

The hashes pin every subcommand in both formats, the --model, --require,
--dedupe and --filter paths, and the usage and input errors, so that a
refactor that changes any byte of a report fails here.  Each entry is the
first 16 hex digits of the SHA-256 of the stream.  Input files are written
into a fresh working directory and named relative to it, because reports
echo the path they were given.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from setlab.cli import main

FILES = {
    "quine.uni": "e = {}\nq = {q}\n",
    # Unique, absent and multiple lookups, a lower, an upper and a 2-cycle.
    "mixed.uni": (
        "a = {}\nb = {a}\nc = {a}\nd = {a, b, c, d}\n"
        "x = {y}\ny = {x}\nt = {a, b, c, t, x, y}\n"
    ),
    "broken.uni": "a = {\n",
    "undefined.uni": "a = {b}\n",
    "pair.model": (
        "h0 = {}\n"
        "urelement u index ( {0rep} , {} )\n"
        "urelement n index ( {0rep} , {m} )\n"
        "urelement m index ( {0rep} , {m, n} )\n"
    ),
    "plain.model": "h0 = {}\nurelement u index ( {0rep} , {} )\nurelement spare\n",
    "listing.model": (
        "h0 = {}\nh1 = {h0}\n"
        "urelement u index ( {0rep} , {} )\n"
        "urelement l index ( {} , {h1, l} )\n"
        "urelement spare1\nurelement spare2\n"
    ),
    "slot.model": "h0 = {}\nurelement u index ( {0rep,\n",
    "badslot.model": "h0 = {}\nurelement u index ( {h0} , {} )\n",
}

GOLDEN = {
    "check quine.uni": (0, "200f8f33a22a0826", "e3b0c44298fc1c14"),
    "classify quine.uni": (0, "4823740c750e6917", "e3b0c44298fc1c14"),
    "verify quine.uni": (0, "6812f6b6be7b127c", "e3b0c44298fc1c14"),
    "check quine.uni --require successor": (1, "cb3c1d05dd890825", "e3b0c44298fc1c14"),
    "check quine.uni --require predecessor": (0, "2e3dd9695be4576b", "e3b0c44298fc1c14"),
    "check quine.uni --require both": (1, "1711a6f52cd00127", "e3b0c44298fc1c14"),
    "check quine.uni --format json": (0, "d3bc8708ce421dc6", "e3b0c44298fc1c14"),
    "classify quine.uni --format json": (0, "1ad05d2cdd578f59", "e3b0c44298fc1c14"),
    "verify quine.uni --format json": (0, "8b163906508adf21", "e3b0c44298fc1c14"),
    "check quine.uni --require successor --format json": (1, "d7b5e674c1aff5d9", "e3b0c44298fc1c14"),
    "check quine.uni --require predecessor --format json": (0, "f7b843ee852396d9", "e3b0c44298fc1c14"),
    "check quine.uni --require both --format json": (1, "c0d09ad4259ac76d", "e3b0c44298fc1c14"),
    "check mixed.uni": (0, "8fa6684498659df0", "e3b0c44298fc1c14"),
    "classify mixed.uni": (0, "2cc935f851b105d2", "e3b0c44298fc1c14"),
    "verify mixed.uni": (0, "5b5157d5a7f907ed", "e3b0c44298fc1c14"),
    "check mixed.uni --require successor": (1, "2e7e0d0c75a8c869", "e3b0c44298fc1c14"),
    "check mixed.uni --require predecessor": (1, "eea8eca32a9e4c27", "e3b0c44298fc1c14"),
    "check mixed.uni --require both": (1, "680d4fb8ff28b807", "e3b0c44298fc1c14"),
    "check mixed.uni --format json": (0, "c737b829f7f19db1", "e3b0c44298fc1c14"),
    "classify mixed.uni --format json": (0, "a2b7465fcb37182c", "e3b0c44298fc1c14"),
    "verify mixed.uni --format json": (0, "b5f1a4933309bb97", "e3b0c44298fc1c14"),
    "check mixed.uni --require successor --format json": (1, "b84da58f886a7493", "e3b0c44298fc1c14"),
    "check mixed.uni --require predecessor --format json": (1, "76f867e55b4f7126", "e3b0c44298fc1c14"),
    "check mixed.uni --require both --format json": (1, "83d248904f54b1fc", "e3b0c44298fc1c14"),
    "chains quine.uni --from q --dir asc": (0, "bafd9c88022acc6c", "e3b0c44298fc1c14"),
    "chains quine.uni --from e --dir desc": (0, "97bc3f1a209f3fa6", "e3b0c44298fc1c14"),
    "chains mixed.uni --from a --dir asc": (0, "5549f9654c4dc4a3", "e3b0c44298fc1c14"),
    "chains mixed.uni --from t --dir desc --cap 2": (0, "2fd68f9cd4c4a182", "e3b0c44298fc1c14"),
    "chains mixed.uni --from x --dir asc --cap 3": (0, "1e0599fca9b11672", "e3b0c44298fc1c14"),
    "enumerate --size 0": (0, "1e9cb160861f5c22", "e3b0c44298fc1c14"),
    "enumerate --size 1": (0, "5d19fe7d44896d95", "e3b0c44298fc1c14"),
    "enumerate --size 2": (0, "3712e0b1d8613fb6", "e3b0c44298fc1c14"),
    "enumerate --size 2 --dedupe": (0, "1fcbc9857466158b", "e3b0c44298fc1c14"),
    "enumerate --size 3 --dedupe": (0, "f3d8390cab23fe08", "e3b0c44298fc1c14"),
    "enumerate --size 4 --dedupe": (0, "f8624df034a0407c", "e3b0c44298fc1c14"),
    "enumerate --size 2 --filter satisfies-successor": (0, "5d80b92c0111b63b", "e3b0c44298fc1c14"),
    "enumerate --size 3 --filter satisfies-successor --dedupe": (0, "f32fbdd219032128", "e3b0c44298fc1c14"),
    "enumerate --size 4 --filter satisfies-successor --dedupe": (0, "d0c726fb23dadd56", "e3b0c44298fc1c14"),
    "enumerate --size 2 --filter satisfies-predecessor": (0, "7e827ea3a646545b", "e3b0c44298fc1c14"),
    "enumerate --size 3 --filter satisfies-predecessor --dedupe": (0, "2d5d26f58762f0f2", "e3b0c44298fc1c14"),
    "enumerate --size 2 --filter satisfies-both": (0, "9c2720e1c5694b1b", "e3b0c44298fc1c14"),
    "enumerate --size 3 --filter satisfies-both --dedupe": (0, "940c770836b1bcee", "e3b0c44298fc1c14"),
    "enumerate --size 2 --filter has-upper": (0, "26700e694b984a63", "e3b0c44298fc1c14"),
    "enumerate --size 3 --filter has-upper --dedupe": (0, "e00a713f6ad9bb24", "e3b0c44298fc1c14"),
    "enumerate --size 2 --filter has-lower": (0, "f0e8ed9afe5beb29", "e3b0c44298fc1c14"),
    "enumerate --size 3 --filter has-lower --dedupe": (0, "cf503343546960a1", "e3b0c44298fc1c14"),
    "enumerate --size 2 --filter has-strictly-russellian": (0, "15e797c662b7831c", "e3b0c44298fc1c14"),
    "enumerate --size 3 --filter has-strictly-russellian --dedupe": (0, "d67a10392ec826b1", "e3b0c44298fc1c14"),
    "interp --demo forster": (0, "26b95d1707d06474", "e3b0c44298fc1c14"),
    "interp --demo quine": (0, "acde80821fbed712", "e3b0c44298fc1c14"),
    "interp --demo upperchain": (0, "a8a4e3c2998d52b9", "e3b0c44298fc1c14"),
    "interp --demo upperchain --k 5": (0, "a5fd11eaf48d4241", "e3b0c44298fc1c14"),
    "interp --demo forster --model pair.model": (0, "08048efdc3b5ae61", "e3b0c44298fc1c14"),
    "interp --demo forster --model plain.model": (1, "f5e4f9385e84a6ec", "e3b0c44298fc1c14"),
    "interp --demo forster --model listing.model": (1, "9188e26d3dd6bee1", "e3b0c44298fc1c14"),
    "interp --demo upperchain --k 1 --model plain.model": (0, "0b85dc22ae97be26", "e3b0c44298fc1c14"),
    "interp --demo upperchain --k 2 --model listing.model": (0, "870765f7f1cd388b", "e3b0c44298fc1c14"),
    "interp --demo upperchain --model pair.model": (2, "e3b0c44298fc1c14", "8c8faeb712a6d59e"),
    "chains quine.uni --from q --dir asc --format json": (0, "c354889b87a6bae8", "e3b0c44298fc1c14"),
    "chains quine.uni --from e --dir desc --format json": (0, "ed845c145ff52990", "e3b0c44298fc1c14"),
    "chains mixed.uni --from a --dir asc --format json": (0, "f2371006bd064aaa", "e3b0c44298fc1c14"),
    "chains mixed.uni --from t --dir desc --cap 2 --format json": (0, "063e3d9f0bd14a9d", "e3b0c44298fc1c14"),
    "chains mixed.uni --from x --dir asc --cap 3 --format json": (0, "d613eb5a3b8e74b0", "e3b0c44298fc1c14"),
    "enumerate --size 0 --format json": (0, "c4b381043c01ed78", "e3b0c44298fc1c14"),
    "enumerate --size 1 --format json": (0, "f369bf5df6ecee2b", "e3b0c44298fc1c14"),
    "enumerate --size 2 --format json": (0, "7ae39f0952e07a41", "e3b0c44298fc1c14"),
    "enumerate --size 2 --dedupe --format json": (0, "20a01771b17c8fc6", "e3b0c44298fc1c14"),
    "enumerate --size 3 --dedupe --format json": (0, "80edb2fd0e313ba4", "e3b0c44298fc1c14"),
    "enumerate --size 4 --dedupe --format json": (0, "13b81350518313ba", "e3b0c44298fc1c14"),
    "enumerate --size 2 --filter satisfies-successor --format json": (0, "fbc0da039dfed4bd", "e3b0c44298fc1c14"),
    "enumerate --size 3 --filter satisfies-successor --dedupe --format json": (0, "896d28016437247d", "e3b0c44298fc1c14"),
    "enumerate --size 4 --filter satisfies-successor --dedupe --format json": (0, "cec18f80354a93f4", "e3b0c44298fc1c14"),
    "enumerate --size 2 --filter satisfies-predecessor --format json": (0, "ad2d36ee350113ef", "e3b0c44298fc1c14"),
    "enumerate --size 3 --filter satisfies-predecessor --dedupe --format json": (0, "708892cb98aab1c5", "e3b0c44298fc1c14"),
    "enumerate --size 2 --filter satisfies-both --format json": (0, "cbacac2aab33b209", "e3b0c44298fc1c14"),
    "enumerate --size 3 --filter satisfies-both --dedupe --format json": (0, "d27a8f9f991903d2", "e3b0c44298fc1c14"),
    "enumerate --size 2 --filter has-upper --format json": (0, "4a58e72b0f3e74d1", "e3b0c44298fc1c14"),
    "enumerate --size 3 --filter has-upper --dedupe --format json": (0, "4462e0a76eb6536c", "e3b0c44298fc1c14"),
    "enumerate --size 2 --filter has-lower --format json": (0, "11c0bf38e290a893", "e3b0c44298fc1c14"),
    "enumerate --size 3 --filter has-lower --dedupe --format json": (0, "b97027e69cb18362", "e3b0c44298fc1c14"),
    "enumerate --size 2 --filter has-strictly-russellian --format json": (0, "232366b09a83d935", "e3b0c44298fc1c14"),
    "enumerate --size 3 --filter has-strictly-russellian --dedupe --format json": (0, "3bc49fd306f04e87", "e3b0c44298fc1c14"),
    "interp --demo forster --format json": (0, "2e0ac98a80e628d2", "e3b0c44298fc1c14"),
    "interp --demo quine --format json": (0, "3510fbc432dcd6d4", "e3b0c44298fc1c14"),
    "interp --demo upperchain --format json": (0, "313a46cd0bf85bf6", "e3b0c44298fc1c14"),
    "interp --demo upperchain --k 5 --format json": (0, "8980ed2941aa0b79", "e3b0c44298fc1c14"),
    "interp --demo forster --model pair.model --format json": (0, "80acd35e7082ea47", "e3b0c44298fc1c14"),
    "interp --demo forster --model plain.model --format json": (1, "3b3e33994bc5bde1", "e3b0c44298fc1c14"),
    "interp --demo forster --model listing.model --format json": (1, "a13ea34a14e6e4bf", "e3b0c44298fc1c14"),
    "interp --demo upperchain --k 1 --model plain.model --format json": (0, "fcb3931e2e672a46", "e3b0c44298fc1c14"),
    "interp --demo upperchain --k 2 --model listing.model --format json": (0, "4741391af71c35d2", "e3b0c44298fc1c14"),
    "interp --demo upperchain --model pair.model --format json": (2, "e3b0c44298fc1c14", "8c8faeb712a6d59e"),
    "chains quine.uni --from zz --dir asc": (2, "e3b0c44298fc1c14", "ca32127d6588780a"),
    "chains quine.uni --from q --dir asc --cap 0": (2, "e3b0c44298fc1c14", "0cd1bfd11857036f"),
    "enumerate --size 1 --filter bogus": (2, "e3b0c44298fc1c14", "77b516c9090ceb1a"),
    "enumerate --size 6": (2, "e3b0c44298fc1c14", "86e39a18e21ee6eb"),
    "enumerate --size -1": (2, "e3b0c44298fc1c14", "54c4c2c66bc7b386"),
    "interp --demo upperchain --k 0": (2, "e3b0c44298fc1c14", "cd4b7d83ec048247"),
    "interp --demo quine --model plain.model": (2, "e3b0c44298fc1c14", "2378cf85b1967f24"),
    "interp --demo forster --model no-such.model": (2, "e3b0c44298fc1c14", "56fa02e63a9ba715"),
    # stderr: "error: line 2, column 27: expected a name or 0rep"
    "interp --demo forster --model slot.model": (2, "e3b0c44298fc1c14", "4a4a241d3890806b"),
    "interp --demo forster --model badslot.model": (2, "e3b0c44298fc1c14", "d84e6700d05808f5"),
    "interp --demo upperchain --k 3 --model plain.model": (2, "e3b0c44298fc1c14", "dd7b49730872d8a8"),
    "verify broken.uni": (2, "e3b0c44298fc1c14", "f3db33f3dcf6999f"),
    "verify undefined.uni": (2, "e3b0c44298fc1c14", "205ff5efb75d0399"),
    "verify no-such-file.uni": (2, "e3b0c44298fc1c14", "2cd34a9bf9373034"),
    "check pair.model": (2, "e3b0c44298fc1c14", "bb527c37058e4b1b"),
    "chains": (2, "e3b0c44298fc1c14", "800ef29c030076e0"),
    "check": (2, "e3b0c44298fc1c14", "2bf00396f4606802"),
    "bogus": (2, "e3b0c44298fc1c14", "077f423ba9ecb170"),
    "check quine.uni --format xml": (2, "e3b0c44298fc1c14", "25ae11693a71a49e"),
    "check quine.uni --require none": (2, "e3b0c44298fc1c14", "192931f03d9886c2"),
    "interp --demo nope": (2, "e3b0c44298fc1c14", "7c5976d227c7f65a"),
    "enumerate --size two": (2, "e3b0c44298fc1c14", "03071ef6a147bc6a"),
    "": (2, "e3b0c44298fc1c14", "e32f7e6137e670a2"),
}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return (
        code,
        hashlib.sha256(out.getvalue().encode()).hexdigest()[:16],
        hashlib.sha256(err.getvalue().encode()).hexdigest()[:16],
    )


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("line", list(GOLDEN))
def test_output_matches_golden(workdir, line):
    assert run_cli(line.split()) == GOLDEN[line]
