"""Every command's output, pinned.

The logs are built here: three `simulate --seed 7` corpora from the pinned
argument lists of test_cli.py, one hand-written log with user ids, every
reject reason, a stream too short for `rbo` and `kl`, a single-tag stream,
a non-ASCII tag and a resource id holding a comma, and one log whose every
row is rejected.  Each run is pinned by the sha256 of its stdout and stderr
and by its exit code.

`powerlaw` goes through libm's `log` and `expm1`, whose last bit can
differ between platforms, and sums with `math.fsum`; a last-bit change
can move where its optimizers stop.  Its stdout is therefore pinned by
cell: text cells exactly, and numeric cells to one unit in their sixth
significant digit.
"""

import csv
import hashlib
import io
import math

import pytest

from tagstab.cli import main
from test_cli import GOLDEN_BACKGROUND, GOLDEN_SIMULATIONS

SIMULATED = ("mixture", "background", "imitation")

REJECTS = [
    "",  # blank line
    "a,b\tpython\t98",  # field count mismatch
    " \tpython\t97\tu1",  # empty resource_id
    "a,b\t  \t96\tu1",  # empty tag
    "a,b\tpython\tx7\tu1",  # invalid seq
    "a,b\tdup\t1\tu9",  # duplicate seq
]


def hand_log() -> str:
    tags = ["Python", "python ", "Ünïcode", "data", "naïve", "python", "data", "ML"]
    rows = ["resource_id\ttag\tseq\tuser_id"]
    for seq in range(1, 31):
        user = f"u{seq % 4}" if seq % 5 else ""
        rows.append(f"a,b\t{tags[seq % len(tags)] if seq % 3 else 'Python'}\t{seq}\t{user}")
    rows += [f"solo\tonly\t{seq}\tu1" for seq in range(20, 0, -1)]
    rows += ["tiny\tx\t1\t", "tiny\ty\t2\tu2", "tiny\tx\t3\tu2"]
    rows[7:7] = REJECTS
    return "\n".join(rows) + "\n"


def write_logs(directory):
    (directory / "background-table.tsv").write_text(GOLDEN_BACKGROUND, encoding="utf-8")
    for name in SIMULATED:
        argv, _ = GOLDEN_SIMULATIONS[name]
        argv = ["background-table.tsv" if a == "BACKGROUND" else a for a in argv]
        assert main(["simulate", *argv, "--seed", "7", "--out", str(directory / f"{name}.tsv")]) == 0
    (directory / "hand.tsv").write_text(hand_log(), encoding="utf-8")
    (directory / "bad.tsv").write_text("resource_id\ttag\tseq\n\tx\t1\nr\tx\tnone\n", encoding="utf-8")


@pytest.fixture(scope="module")
def logs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("logs")
    write_logs(directory)
    return directory


SURFACE = ["--t-grid", "50:300:50", "--k-grid", "0:1:0.1"]

RUNS = {
    "validate-hand": ["validate", "hand.tsv"],
    "validate-mixture": ["validate", "mixture.tsv"],
    "rbo-plain": ["rbo", "mixture.tsv", "--variant", "plain"],
    "rbo-tie_aware": ["rbo", "mixture.tsv", "--variant", "tie_aware"],
    "rbo-tie_corrected": ["rbo", "mixture.tsv", "--variant", "tie_corrected"],
    "rbo-p0.5-window5": ["rbo", "mixture.tsv", "--p", "0.5", "--window", "5"],
    "rbo-hand": ["rbo", "hand.tsv"],
    "kl-m7-k3": ["kl", "mixture.tsv", "--m", "7", "--k", "3"],
    "kl-hand": ["kl", "hand.tsv", "--m", "7", "--k", "3"],
    "kl-baseline": ["kl-baseline", "--vocab", "30", "--m", "5", "--k", "10",
                    "--length", "50", "--trials", "3", "--seed", "8"],
    "kl-baseline-vocab100k": ["kl-baseline", "--vocab", "100000", "--m", "10", "--k", "25",
                              "--length", "3000", "--trials", "4", "--seed", "7"],
    "proportions": ["proportions", "mixture.tsv"],
    "proportions-hand": ["proportions", "hand.tsv", "--window", "5", "--top", "3"],
    "ccdf": ["ccdf", "mixture.tsv"],
    "ccdf-hand": ["ccdf", "hand.tsv"],
    "surface": ["surface", "mixture.tsv", *SURFACE],
    "surface-hand": ["surface", "hand.tsv", "--window", "5", "--t-grid", "10:30:10",
                     "--k-grid", "0:1:0.25"],
    "compare": ["compare", "mixture.tsv", "background.tsv", "imitation.tsv",
                "--t-grid", "20:40:20", "--k-grid", "0:1:0.5"],
    "data-error": ["validate", "bad.tsv"],
    "usage-error": ["rbo", "mixture.tsv", "--p", "1.5"],
    "powerlaw-per-resource": ["powerlaw", "mixture.tsv", "--per-resource"],
    "powerlaw-pooled": ["powerlaw", "mixture.tsv", "--pooled"],
    "powerlaw-background": ["powerlaw", "background.tsv"],
    "powerlaw-hand": ["powerlaw", "hand.tsv"],
}

# run -> (exit code, sha256 of stdout, sha256 of stderr); the stdout of a
# powerlaw run is pinned by cell in POWERLAW instead.
PINS = {
    'ccdf': (0, '9f253af94f94a3ff6aae56af6d1834e8b0572264e2f4b01380b5b605a34d766e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'ccdf-hand': (0, 'cf5aafa6a152944bf71097c7a12b51faf7375a2800ccb17409f73d81d9de53ee', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'compare': (0, '0f782ea00fcdc3826f36683f60e5eb03ba6646ff2fe81cff466bb949065b2b34', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'data-error': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '4ec40a3b83be8a86e30fdbd0afc6c3472aa0bffc0e17f02021ccb23818b30211'),
    'kl-baseline': (0, '7ee3771d79ddd81d03493afe59012b67501383db95a8fc0f8d5d08c03bce2e92', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'kl-baseline-vocab100k': (0, '7c5e65c9c0277453a393b5bbf9219b006aaa1e869e7a3050bb85cf528bce1478', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'kl-hand': (0, 'bd95e6aa82d02b59b18973dd18fe92acea17155fb05a8b658689e4472b7fe878', '9c245534aa3c0585ca489aaf9e9e59eff6a51bae247e0f395a2a22d83eaeebf1'),
    'kl-m7-k3': (0, '8a4b868b535c6c1de9d4240a2d95b84f899fb5b6cf8130f0a45790c7bc128fc2', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'powerlaw-background': (0, None, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'powerlaw-hand': (0, None, 'b41c7aa920e051c1bc9859d48809b00850e12548e2a4f65ff817b0728822a2c4'),
    'powerlaw-per-resource': (0, None, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'powerlaw-pooled': (0, None, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'proportions': (0, 'e9573abc7ba2e42bc8c1a5b6f9a0c22d73f24296737ea637fa681cbc42c585a6', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'proportions-hand': (0, '5d084a99020ad64e2da42283a067da1b697952ff065ca3e0617e069491be1969', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'rbo-hand': (0, '2acc7ab96ba34da393fe03428f7e70781d535ea6d3247848ff46058ccb9004f5', '3acc24866a374a6509ccdc6f72e35fd9a14942cce7bd4c82718a8547fb250ecc'),
    'rbo-p0.5-window5': (0, '21dd5bf03a62796e29decee1e8669f593f5dcc63158a698a9e2822ef29862b3e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'rbo-plain': (0, '33195806a494bb59a03f39ae78e2d37f293b769eba4caf37396af8923f52034e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'rbo-tie_aware': (0, 'f03ccde18bb01e7462303a1aae47693a1dec39599ba1e355911ea38b423d3b2e', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'rbo-tie_corrected': (0, '25e5ebba3e18fda8ccbd00014c162363d182c1c160574efc355ab30eb560f64d', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'surface': (0, '946304ed88d098759f143254320c183ce806e134d3940ace966c8abae3bdaf22', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'surface-hand': (0, '28c37b1a8cd680ae3b3165fc6a6292dd2cc3322b1a7a3a9ba4596572d83e80bd', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'usage-error': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', '16ec397ee971e53ded5722cdb70fe75ccd1a7aa6eb1a9f07e9043c0765c886e4'),
    'validate-hand': (0, 'f184f7afdbb24cc62acceac1c1787b8468998937016dd6dacb9e8e03a95d7553', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'validate-mixture': (0, 'a498d9e607330ebbcdc60a95d8c5db3de425f107c02498e14eb5fd6f4d1b221b', 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
}

# powerlaw run -> stdout
POWERLAW = {
    'powerlaw-background': (
        'resource_id,alpha,xmin,ks_d,n_tail,r_exp,p_exp,r_lognorm,p_lognorm,r_stretched,p_stretched\n'
        'stream-00000,2.30852,2.00000,0.0482511,25,4.09809,0.234224,-0.241487,0.598449,-0.231663,0.585367\n'
        'stream-00001,2.38049,2.00000,0.140097,27,5.96399,0.0529520,-0.0223317,0.845127,-0.0249401,0.843788\n'
        'stream-00002,2.13846,2.00000,0.0412987,24,2.36609,0.439208,-0.713267,0.390405,-0.674996,0.364502\n'
        'mean,2.27582,2.00000,0.0765489,25.3333,4.14272,0.242128,-0.325695,0.611327,-0.310533,0.597886\n'
        'std,0.124287,0.00000,0.0551437,1.52753,1.79936,0.193249,0.353081,0.227634,0.332127,0.239888\n'
    ),
    'powerlaw-hand': (
        'resource_id,alpha,xmin,ks_d,n_tail,r_exp,p_exp,r_lognorm,p_lognorm,r_stretched,p_stretched\n'
        '"a,b",1.97282,2.00000,0.179566,5,0.215553,0.758936,-0.279936,0.394067,-0.263888,0.382131\n'
        'tiny,1.96180,1.00000,0.0944380,2,-0.771052,0.00244114,-1.36217,0.00337313,-1.40928,0.115809\n'
        'mean,1.96731,1.50000,0.137002,3.50000,-0.277749,0.380688,-0.821051,0.198720,-0.836585,0.248970\n'
        'std,0.00779260,0.707107,0.0601945,2.12132,0.697635,0.534922,0.765252,0.276262,0.809917,0.188318\n'
    ),
    'powerlaw-per-resource': (
        'resource_id,alpha,xmin,ks_d,n_tail,r_exp,p_exp,r_lognorm,p_lognorm,r_stretched,p_stretched\n'
        'stream-00000,1.93698,2.00000,0.0637827,33,11.9321,0.0545905,-0.279245,0.566801,-0.292353,0.556505\n'
        'stream-00001,2.22206,2.00000,0.0784468,38,27.1502,0.0644929,0.00000,1.00000,0.00000,1.00000\n'
        'stream-00002,2.39463,5.00000,0.0808047,17,6.68615,0.0532357,0.00000,1.00000,0.00000,1.00000\n'
        'mean,2.18456,3.00000,0.0743447,29.3333,15.2561,0.0574397,-0.0930818,0.855600,-0.0974508,0.852168\n'
        'std,0.231119,1.73205,0.00922266,10.9697,10.6292,0.00614574,0.161222,0.250108,0.168790,0.256052\n'
    ),
    'powerlaw-pooled': (
        'resource_id,alpha,xmin,ks_d,n_tail,r_exp,p_exp,r_lognorm,p_lognorm,r_stretched,p_stretched\n'
        'pooled,1.96056,2.00000,0.0336463,99,41.5946,0.00882336,-1.04241,0.369835,-0.976865,0.351968\n'
    ),
}


def execute(logs, monkeypatch, capsys, name):
    monkeypatch.chdir(logs)
    code = main(RUNS[name])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_output_is_pinned(logs, monkeypatch, capsys, name):
    code, out, err = execute(logs, monkeypatch, capsys, name)
    expected_code, expected_out, expected_err = PINS[name]
    assert (code, sha256(err)) == (expected_code, expected_err), err
    if name in POWERLAW:
        assert_cells_match(out, POWERLAW[name])
    else:
        assert sha256(out) == expected_out


def assert_cells_match(out: str, expected: str) -> None:
    got_rows = list(csv.reader(io.StringIO(out)))
    want_rows = list(csv.reader(io.StringIO(expected)))
    assert [len(row) for row in got_rows] == [len(row) for row in want_rows], out
    for got_row, want_row in zip(got_rows, want_rows):
        for got, want in zip(got_row, want_row):
            assert cell_matches(got, want), f"{got} != {want} in {got_row}"


def cell_matches(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    if not (math.isfinite(a) and math.isfinite(b)) or b == 0.0 or "." not in want:
        return False
    unit = 10.0 ** (math.floor(math.log10(abs(b))) - 5)
    return abs(a - b) <= unit * 1.000001
