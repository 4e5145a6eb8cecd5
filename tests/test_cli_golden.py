"""Byte-identity guard for CLI stdout on the bundled fixtures.

Each case's stdout is hashed and compared with a SHA-256 digest pinned
from a known-good build. A refactor of the computation behind a
subcommand must leave every digest unchanged; re-pin a digest only for
an intended change of output, and say which in the change log.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from gridcarbon.cli import main

SCALAR_CONTRACTS = (
    "- {id: w, buyer: c, kind: financial, source: wind, energy_mwh: 20}\n"
    "- {source: solar, energy_mwh: 5}\n"
)
LIST_CONTRACTS = (
    "- {id: w, buyer: c, kind: rec, source: wind, region: south-australia, energy_mwh: ["
    + ", ".join(str(2 * h) for h in range(24))
    + "]}\n"
)
CEF_TABLE = "gas: 900\n"

_CI_SPECS = {
    "none": "none",
    "all": "all-solar-wind",
    "half": "solar-wind:0.5",
    "scalar": "{scalar}",
    "list": "{list}",
}

CASES: dict[str, tuple[str, ...]] = {}
for _spec_name, _spec in _CI_SPECS.items():
    for _fmt in ("json-records", "csv"):
        for _cef in (False, True):
            _argv = ("ci", "--mix", "{dir}/south-australia.csv", "--contracts", _spec, "--format", _fmt)
            if _cef:
                _argv += ("--cef", "{cef}")
            CASES[f"ci-{_spec_name}-{_fmt}{'-cef' if _cef else ''}"] = _argv
CASES.update(
    {
        "residual": ("residual", "--mix", "{dir}/south-australia.csv", "--fraction", "0.5"),
        "residual-csv": (
            "residual", "--mix", "{dir}/duck-curve.csv", "--fraction", "0.8", "--format", "csv",
        ),
        "inflation-cef": ("inflation", "--mix", "{dir}/south-australia.csv", "--fraction", "0.8"),
        "inflation-cef-table": (
            "inflation", "--mix", "{dir}/duck-curve.csv", "--fraction", "0.5", "--cef", "{cef}",
        ),
        "inflation-published": (
            "inflation", "--mix", "{dir}/south-australia.csv", "--fraction", "0.8",
            "--basis", "published",
        ),
        "schedule-best": (
            "schedule", "--signal", "{dir}/duck-curve.csv", "--residual-fraction", "1.0",
            "--duration", "3", "--energy-per-hour", "7000",
        ),
        "schedule-worst": (
            "schedule", "--signal", "{dir}/duck-curve.csv", "--residual-fraction", "0.6",
            "--duration", "3", "--policy", "worst_window",
        ),
        "schedule-fixed": (
            "schedule", "--signal", "{dir}/duck-curve.csv", "--residual-fraction", "0.6",
            "--duration", "4", "--policy", "5", "--format", "csv",
        ),
        "penetration": ("penetration", "--data", "{dir}"),
        "penetration-hourly-csv": (
            "penetration", "--data", "{dir}", "--per-hour-mean", "--format", "csv",
        ),
        "penetration-hourly": ("penetration", "--data", "{dir}", "--per-hour-mean"),
        # Consumer, region and grid records: CSV takes the union of their keys.
        "scenario": ("scenario", "commercial-case-3"),
        "scenario-csv": ("scenario", "commercial-case-3", "--format", "csv"),
        "attribute-market": ("attribute", "commercial-case-3", "--method", "market_based"),
        "attribute-market-csv": (
            "attribute", "commercial-case-3", "--method", "market_based", "--format", "csv",
        ),
        "scenario-list": ("scenario", "--list"),
        "fixtures-list": ("fixtures", "list"),
    }
)

DIGESTS: dict[str, str] = {
    "attribute-market": "af2aa12006769f13f4f7aa111eca118bc0a6e20d48d1ef56e51eb970b3ee7894",
    "attribute-market-csv": "81f612bcc6114e6f8e230e946b851cc6a39ef7b9d9cb0f6346218539b361f451",
    "ci-all-csv": "568397a1ed309e3b6ed80966546420da50aeed8e8a56975174959bdd1fbea5b4",
    "ci-all-csv-cef": "24428514d613d4d4b75b0fcef1d6cb0f1338c05a6a8dd12d23e1aae93b94f6fa",
    "ci-all-json-records": "2d429752d1a55142d28d9e21edfd10dd5c738641db4bdcab33d201fc54bb262e",
    "ci-all-json-records-cef": "cd1da31ca083b3f8b7d8aa767bff6f1a384784f1ba9a999ac590d0c7c4f63681",
    "ci-half-csv": "f6b04101f8a197f73ab2e05cefd6badfbc9770cf2f1b8684e54717bc0c8f579d",
    "ci-half-csv-cef": "29e9942d549c5a8120eed0d838cef0dbe1b471ff5b9fc5edf99dc6228b942d14",
    "ci-half-json-records": "c25087e97005f03ed56c9baa44b5dc43c148b1f08f015d3b91e71acafae8c0fa",
    "ci-half-json-records-cef": "e4059c1b0a78ff5a59a0bba9d0a60421de5595306e0c1d44b7a85b31ad4da039",
    "ci-list-csv": "ad24880a6b3f925552c7a6b3fe548a07b5f19255ba46239e867a5d4bbd8b3e99",
    "ci-list-csv-cef": "e53b953e5e97ef492eac575b92d6e9bf424596d7c547c6993029180fee1e2822",
    "ci-list-json-records": "c6cf3db501bb8c51d1dd827761aa9bcdeaf7b1c257bbc9802892faa376d637fd",
    "ci-list-json-records-cef": "575f7edc1d548f36f263007f0e0e53f800f93d98644d144880276cb10dfe6e59",
    "ci-none-csv": "b0e8afae7cb19b9b6fb3ed4b010991aa391f24b1c65214fb7b12298f3fc6a6a8",
    "ci-none-csv-cef": "b3a2acbb2bedb3c6ae9183847472baaa3ea0fdd45bdd474ff85e50e68f5779b2",
    "ci-none-json-records": "02288d560de4243718fe9b3d29c09d754ea9a105c17c6d00f6c4040cc9e3a3e2",
    "ci-none-json-records-cef": "01c9ea61ff0a22e4bdfd60a374f850d63d3e170c883b3e37a1900cf8bbab7b77",
    "ci-scalar-csv": "912d5f172fec04db9f50de91ed1a0374c9e106066d624231397fa75f39e9ed88",
    "ci-scalar-csv-cef": "c7218090f394fbff94a2ce70f3087d65c7cb7c2915b1d1c153c4646a6ca232a4",
    "ci-scalar-json-records": "7308f513a3b2aa76f99b1ac5b264a0dc22b4e9aa8dcc3c98a2826021756e4845",
    "ci-scalar-json-records-cef": "218e6fc9311e6f6394b6478b23ae4aafe4bfe1ba15b8272df923518c342ef804",
    "fixtures-list": "e2c8170c5efa672495de6dfe00bcaa8a1167c25352a9a3284accaf6838f10f65",
    "inflation-cef": "c87fb34da96db2dd830a5488d4442159851d3341c2fd72a244fc2d93a649da48",
    "inflation-cef-table": "6a9aa7ec072e6d8e0fda9853b5a0ce9a5dcdd00ba247734599550aa2722d5454",
    "inflation-published": "c87fb34da96db2dd830a5488d4442159851d3341c2fd72a244fc2d93a649da48",
    "penetration": "7ee9b5d80f23d1f1065a3b7e19ad0abb797b49ebca3485c8f65c762f41d8ba5f",
    "penetration-hourly": "8ff6484b1ed440fd69ac889fc8a25f2df75733cdb7d4c65dda56ede69f7c6650",
    "penetration-hourly-csv": "a8151ce5ea0fe92768b81d632a3aa4ae77ec0cfc117cbed0fb608f06a6793fd3",
    "residual": "fc6ad90c8fffaac7e14c82df027ac2c10266d25b38592f52c5a407849a96067f",
    "residual-csv": "efc6d214ec12d07a58383e635a6b9267b3b9897b5ebf5a676704bdba437dcb93",
    "scenario": "39b1ffbd5334528c26efbc6a48170665bc50f4c7775025cba6d7f73c1b3de823",
    "scenario-csv": "bbd0ab3b6585e2c75d0adc10a23022d76aaa222853f9d8efdd37329b39b7c740",
    "scenario-list": "4b849787f72627fe77b3f0138b74e642bd654803edd4827f4f5e1979cf575dbb",
    "schedule-best": "a9622f845cec0610bd4248e0e75fb09aec0edbe730d12580043eb9b7c7b8d4af",
    "schedule-fixed": "b6b72ab508fd31475cff7f961ffb5c61b691a628247e5881211eefc5f7b0b7fb",
    "schedule-worst": "120287a17d728386230ae9cea5460d3253d4a344a410a2ec0fa560b929591509",
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, str]:
    directory = tmp_path_factory.mktemp("golden")
    fixtures = directory / "fixtures"
    assert main(["fixtures", "export", "--dir", str(fixtures), "--out", str(directory / "x")]) == 0
    files = {"scalar": SCALAR_CONTRACTS, "list": LIST_CONTRACTS, "cef": CEF_TABLE}
    paths = {"dir": str(fixtures)}
    for name, text in files.items():
        path = directory / f"{name}.yaml"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


def _run_case(argv: tuple[str, ...], paths: dict[str, str], capsys) -> str:
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def test_every_case_is_pinned() -> None:
    assert set(DIGESTS) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_stdout_is_byte_identical(case: str, inputs, capsys) -> None:
    out = _run_case(CASES[case], inputs, capsys)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[case]
