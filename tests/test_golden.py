"""Byte-stability gate: the README CLI tour, digest by digest.

Each command of the tour runs in-process, once in human form and once with
--machine, inside a fresh directory with relative paths (so no temporary
path reaches an output).  The SHA-256 of every stdout and of every file the
tour writes must equal the digests below, recorded from the implementation
that first shipped these outputs.  A refactor that changes one byte of any
number, label or file fails here.

Past the README tour, three runs reach paths no README command does: cosim
on the estimated-cycle path (a latency estimate plus the frame's word
count), explore at the S=61 regime (its power figures), and an
interpolated synth estimate.
"""

import hashlib

import pytest

from svmsoc.cli import main

from test_cli import anchors_csv_text

TOUR = (
    ("gen", ["gen", "61", "27", "7", "--out", "fixtures"]),
    ("classify-csv", ["classify", "--svs", "fixtures/svs.txt", "--alpha",
                      "fixtures/alpha.txt", "--input", "fixtures/dataset.csv"]),
    ("classify-one", ["classify", "--svs", "fixtures/svs.txt", "--alpha",
                      "fixtures/alpha.txt", "--input", "fixtures/test.txt"]),
    ("cosim", ["cosim", "--svs", "fixtures/svs.txt", "--alpha", "fixtures/alpha.txt",
               "--test", "fixtures/test.txt", "--directive", "pipeline-inner",
               "--fpga-mhz", "250", "--arm-mhz", "250"]),
    ("synth", ["synth", "248", "27", "pipeline-inner", "100"]),
    ("explore", ["explore", "248", "27", "100"]),
    ("fit", ["fit", "anchors.csv"]),
    ("fit-out", ["fit", "anchors.csv", "--out", "cal.json"]),
    ("synth-cal", ["synth", "248", "27", "pipeline-inner", "100",
                   "--calibration", "cal.json"]),
    ("cosim-estimated", ["cosim", "--svs", "fixtures/svs.txt", "--alpha",
                         "fixtures/alpha.txt", "--test", "fixtures/test.txt",
                         "--directive", "unroll-most"]),
    ("explore-61", ["explore", "61", "27", "250"]),
    ("synth-interpolated", ["synth", "300", "27", "pipeline-inner", "100"]),
)

GOLDEN = {
    "gen": "09fbc5e2e0da179072879b02146f79a773db7a55a1ea3a93e6681533ff1cfbeb",
    "classify-csv": "30bbfbcb7d9667926f81a722f8c9171b71f45aa3043eda80646d59ffb6b4f786",
    "classify-one": "6db956f4d95d28354d193e8c76d7b78a12a74099e97d6669266fecba0f58cad7",
    "cosim": "3ed5a3f08cc9765af076cf1f3b7da394cf748a191a05780ceee4ac9dbb53e11c",
    "synth": "92516445dc3506e1427bdccfe3ca35373d4abdfc449199bbd8289fe93d67fa85",
    "explore": "f273375b46b5d2170ba123aaddad61b0ef7b4dfa26d6b1b49e0304e09aa1bdfb",
    "fit": "2455a2a4cb71c00926e5c268f53cab610b9093a689e1c2caf2a8e1385f844b73",
    "fit-out": "75ad89d8ef732d6cd7787610e2e9180d4c4014391c355e933010ba5775152e6e",
    "synth-cal": "92516445dc3506e1427bdccfe3ca35373d4abdfc449199bbd8289fe93d67fa85",
    "cosim-estimated": "705caace9a7d5bf70484118c623bb588f0a57275ddda833133ec7d5d6eb1a2f1",
    "explore-61": "8d41a8ee10bdf6df550bfb28f2bc7d78f0cbecc06ffd4fd669cd198577cf4549",
    "synth-interpolated": "99d97aaa09e359c02d6ba58b84aa2a816628fb6d4e828b43bfe9e7d77bc2b740",
    "cal.json": "2455a2a4cb71c00926e5c268f53cab610b9093a689e1c2caf2a8e1385f844b73",
    "fixtures/alpha.txt": "e47d0d8f692130630dac011da16b2aab6e4cc4bffcd1f08107fb4f9f04f47e1d",
    "fixtures/dataset.csv": "628d3f29f1577e0db45a521562223c59fc19c3f0f5d0ba2cf08edb034ebfdf24",
    "fixtures/svs.txt": "cacf1e67745b138242a25959f110a9a44d868a6c0155c356aeb557c9911b78e6",
    "fixtures/test.txt": "553cbb2e657b9ed4b5ab838cb14cfedac8b473392d3980ed1de4ef4def84549c",
    "gen --machine": "61a9959f3020b864cc93591517d15420b8bc95b30f845e9e7717ad9bf59e0df1",
    "classify-csv --machine": "84fc8f96267f42ac9c23bd94d31cdd5872c094b2efc20be25be7e55341a2bbd7",
    "classify-one --machine": "3679fd16941be50d8306d1c962bfe485c46b429081c81746c53acd1e2869290e",
    "cosim --machine": "78a08b83920021b127af319be5d605145e2b3de139e71130643a34105508b206",
    "synth --machine": "f075688af3cfacd563ec92d5eaaa3c1c3f78846a17af62f6367f812c789fc5c9",
    "explore --machine": "4f396cd1abcbfefb69b0f47b6c1804e27e016af0123e9f329bfc87310ea32f18",
    "fit --machine": "2455a2a4cb71c00926e5c268f53cab610b9093a689e1c2caf2a8e1385f844b73",
    "fit-out --machine": "0987440cf0ad2c6a4aefceb327df7c9a075345d2a4c7aad5755a2e4a39d488c3",
    "synth-cal --machine": "f075688af3cfacd563ec92d5eaaa3c1c3f78846a17af62f6367f812c789fc5c9",
    "cosim-estimated --machine": "e84fad098ed33e65fc1104f8d8fb8c51184ffe69619e0daad2126bbd57b648c7",
    "explore-61 --machine": "5353ddeb308d7d594d979e724eb8fae7cf824d1fc7c80e9baf1226bae4061434",
    "synth-interpolated --machine": "94c2914f17a6f2246b9da3d8a8ef592b3ddbe50544b0d2f93d20ef85e542f5f5",
    "cal.json --machine": "2455a2a4cb71c00926e5c268f53cab610b9093a689e1c2caf2a8e1385f844b73",
    "fixtures/alpha.txt --machine": "e47d0d8f692130630dac011da16b2aab6e4cc4bffcd1f08107fb4f9f04f47e1d",
    "fixtures/dataset.csv --machine": "628d3f29f1577e0db45a521562223c59fc19c3f0f5d0ba2cf08edb034ebfdf24",
    "fixtures/svs.txt --machine": "cacf1e67745b138242a25959f110a9a44d868a6c0155c356aeb557c9911b78e6",
    "fixtures/test.txt --machine": "553cbb2e657b9ed4b5ab838cb14cfedac8b473392d3980ed1de4ef4def84549c",
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tour_digests(root, capsys, machine: bool) -> dict:
    suffix = " --machine" if machine else ""
    (root / "anchors.csv").write_text(anchors_csv_text())
    digests = {}
    for name, argv in TOUR:
        code = main(argv + ["--machine"] * machine)
        out = capsys.readouterr().out
        assert code == 0, name + suffix
        digests[f"{name}{suffix}"] = sha(out.encode())
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "anchors.csv":
            digests[f"{path.relative_to(root).as_posix()}{suffix}"] = sha(path.read_bytes())
    return digests


@pytest.mark.parametrize("machine", [False, True], ids=["human", "machine"])
def test_readme_tour_is_byte_stable(tmp_path, monkeypatch, capsys, machine):
    monkeypatch.chdir(tmp_path)
    got = tour_digests(tmp_path, capsys, machine)
    want = {k: v for k, v in GOLDEN.items() if k.endswith(" --machine") == machine}
    assert got == want
