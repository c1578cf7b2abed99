"""Every report of every task, pinned by its SHA-256.

One run of all seven tasks per builtin and side, at `--depth 8 --p-max 6`,
in both report formats: sixteen runs.  Each run's exit code and the digest
of every file it writes (the reports and `summary.json`) must equal the
recorded ones, so a refactor that changes a single byte of a report fails
here.

The digests were recorded with Python 3.11.7 and numpy 2.4.6.  A change
that alters a report on purpose re-records them and says so, with the
reason, in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from sftgeom.cli import TASKS, main

RECORDED = {
    ("horseshoe", "u", "csv"): (
        4,
        {
            "dimension.json": "b923e64009c07f2b3f091ebe99602a1c78861e33caa23991230a9a91087faaa7",
            "eigenvalues.csv": "9a2b7bc9913f582ea2551ebc3df201a142938382d55725eb62dc3a0fe928c78b",
            "gibbs.csv": "64c8c8057491aae1f12c808176d8152c7a23d07f0a63279b8a5721066f8b4a7d",
            "livsic.csv": "6064cce2baadb1a573ced95cbb7c99a844cce59af34d45ea0a6c16d193128a8d",
            "solenoid-check.csv": "a171d03a69b3d658e073f12c25740a4ef349ad9b7e94d5d9c67275d10a42f27a",
            "summary.json": "80a1959d20bd3b27ec1b9ea3e9cf58a5b7172c044d1e93b79cee288de0f3713d",
            "synthesize.csv": "6a6868cfa99941f383baf36e19247b8626ae89e1669498d092eea88a547e8e54",
        },
    ),
    ("horseshoe", "u", "json"): (
        4,
        {
            "dimension.json": "b923e64009c07f2b3f091ebe99602a1c78861e33caa23991230a9a91087faaa7",
            "eigenvalues.json": "46e699529c3849bb80f241d80a5762ac33f93a5e732c5cb289a3560e0ae98047",
            "gibbs.json": "89aafd9678174714a5a6ab94b955ce51f6ec0145a68044fff2be1bed8b8170e6",
            "livsic.json": "97f39f1b189eb05ef87009034ef450a173d058fac838c5b20968c9572687444a",
            "solenoid-check.json": "349291a1dc2e96b67d22e479c021e8ced93b74e9be0b06dfc32488e65745d3c2",
            "summary.json": "80938f224242787a2da5c1f5733d4e564349df783927eba5d6d00366550733ab",
            "synthesize.json": "228946a082cd84ba7391fd5a9be6c58f26d95d05c77743f95136bdbd113a21e0",
        },
    ),
    ("horseshoe", "s", "csv"): (
        4,
        {
            "dimension.json": "597825fcdb19922fbc6bf576c4c3a6023588bcd24c0c3861da5766798b899d15",
            "eigenvalues.csv": "9a2b7bc9913f582ea2551ebc3df201a142938382d55725eb62dc3a0fe928c78b",
            "gibbs.csv": "64c8c8057491aae1f12c808176d8152c7a23d07f0a63279b8a5721066f8b4a7d",
            "livsic.csv": "6064cce2baadb1a573ced95cbb7c99a844cce59af34d45ea0a6c16d193128a8d",
            "solenoid-check.csv": "a171d03a69b3d658e073f12c25740a4ef349ad9b7e94d5d9c67275d10a42f27a",
            "summary.json": "344b23e41a9e13a96b95c1fae5ea253613d9dc9c79a0e78333d0df2e9b65ac4f",
            "synthesize.csv": "6a6868cfa99941f383baf36e19247b8626ae89e1669498d092eea88a547e8e54",
        },
    ),
    ("horseshoe", "s", "json"): (
        4,
        {
            "dimension.json": "597825fcdb19922fbc6bf576c4c3a6023588bcd24c0c3861da5766798b899d15",
            "eigenvalues.json": "46e699529c3849bb80f241d80a5762ac33f93a5e732c5cb289a3560e0ae98047",
            "gibbs.json": "89aafd9678174714a5a6ab94b955ce51f6ec0145a68044fff2be1bed8b8170e6",
            "livsic.json": "97f39f1b189eb05ef87009034ef450a173d058fac838c5b20968c9572687444a",
            "solenoid-check.json": "349291a1dc2e96b67d22e479c021e8ced93b74e9be0b06dfc32488e65745d3c2",
            "summary.json": "9713420c951286647a840a89d1ee511f65f8ce95af790be320572d319d0f0fe4",
            "synthesize.json": "228946a082cd84ba7391fd5a9be6c58f26d95d05c77743f95136bdbd113a21e0",
        },
    ),
    ("golden-anosov", "u", "csv"): (
        4,
        {
            "dimension.json": "d2da53932f3b1502b727360f32d55b760a72af83bfd7bdc131d8df87cfcba0c2",
            "dual.csv": "a01b53dbedb77593c5f06960d84934eea9d5ca56a6db3ab0397ec51a6cf51c2f",
            "eigenvalues.csv": "eb7c5ebee732bd63b7b5a2506cd250fcac5b5217d535029e2428feb15bf2c040",
            "gibbs.csv": "cf33d504b91612879f35d248842c13dab88a0e495782b0862020d70a7e7dfb92",
            "livsic.csv": "aaa42c0ce2e9e5b02c8f07e7d046730857d67415b42a61895916efac5702e124",
            "solenoid-check.csv": "5527c2df8dfe8de122f07e02ec4658aeebab98d40d95c436c4fb987166cff376",
            "summary.json": "9d0034cb12e6442f882d81acf1d312701bcff783d6a1d77c072d728969f2a2a2",
        },
    ),
    ("golden-anosov", "u", "json"): (
        4,
        {
            "dimension.json": "d2da53932f3b1502b727360f32d55b760a72af83bfd7bdc131d8df87cfcba0c2",
            "dual.json": "6b64553cf4135ef24789344444161fdd6a38304be4b2bbf54c7f65e3bf0bd75c",
            "eigenvalues.json": "b3f31b7f316af035bb7a48f45b87f00c1860827efe5cf47d31f4b5180f12f016",
            "gibbs.json": "2dec91736206bb6bc9c74b7a0f5479ab8cca1d4d46d30ec3cce5d37368eaac89",
            "livsic.json": "5102acc722a8c9e5a2c0ee3377b8d5820e7c494757888959d19d023913a2c6cc",
            "solenoid-check.json": "9e64f8e378ece22d6c380be83accf8907ef57ed2b8d2d64e10e841caa32b4dd5",
            "summary.json": "ab87c079ed0934ef5af958f22082e484e87b8dc0d0648cf70ebd427f4c7e10ae",
        },
    ),
    ("golden-anosov", "s", "csv"): (
        4,
        {
            "dimension.json": "4942751530fcd3ee0ace8bd4fd76df0fce4e9b8676e2827900c6e5563c4e7cb6",
            "dual.csv": "a01b53dbedb77593c5f06960d84934eea9d5ca56a6db3ab0397ec51a6cf51c2f",
            "eigenvalues.csv": "9152a9c496c8c2829ce6a8f2de5be5d7ff63f146d94b7820aae5d3e484e6f9d0",
            "gibbs.csv": "cf33d504b91612879f35d248842c13dab88a0e495782b0862020d70a7e7dfb92",
            "livsic.csv": "aaa42c0ce2e9e5b02c8f07e7d046730857d67415b42a61895916efac5702e124",
            "solenoid-check.csv": "5527c2df8dfe8de122f07e02ec4658aeebab98d40d95c436c4fb987166cff376",
            "summary.json": "e6879d98d29a3bd1380613ae285872463c8fde5fcc477d751592e59f4f0afb8b",
        },
    ),
    ("golden-anosov", "s", "json"): (
        4,
        {
            "dimension.json": "4942751530fcd3ee0ace8bd4fd76df0fce4e9b8676e2827900c6e5563c4e7cb6",
            "dual.json": "6b64553cf4135ef24789344444161fdd6a38304be4b2bbf54c7f65e3bf0bd75c",
            "eigenvalues.json": "280cd88102231f38f440537f1e0cebc15a0e884232d42046bbe8455c5230c0bc",
            "gibbs.json": "2dec91736206bb6bc9c74b7a0f5479ab8cca1d4d46d30ec3cce5d37368eaac89",
            "livsic.json": "5102acc722a8c9e5a2c0ee3377b8d5820e7c494757888959d19d023913a2c6cc",
            "solenoid-check.json": "9e64f8e378ece22d6c380be83accf8907ef57ed2b8d2d64e10e841caa32b4dd5",
            "summary.json": "a35a6a633f24af6918a9777ecb4097ea9a2d1e65c374100797b7ca84e647f698",
        },
    ),
    ("cantor-third", "u", "csv"): (
        4,
        {
            "dimension.json": "a5f0c369b750869327638d09ae3bc448b47ef4d5370848311c06bd860a36e8d3",
            "eigenvalues.csv": "e1037d5ad54950da6edb4b4d4019ab1682eb12f2fd1346f2658669826b4f3886",
            "gibbs.csv": "64c8c8057491aae1f12c808176d8152c7a23d07f0a63279b8a5721066f8b4a7d",
            "livsic.csv": "22e2b378a7944526f16c75ebb60fe71aa1f3f60ed0527d6a0b469e771bdc9c2c",
            "solenoid-check.csv": "a171d03a69b3d658e073f12c25740a4ef349ad9b7e94d5d9c67275d10a42f27a",
            "summary.json": "418627f120eea6bfb68845a4a560a17e92915ef6b2dd42f435fdd38e54ebd9f7",
            "synthesize.csv": "2dde5c92f6c7545e3de9ef9c2e7c9733a8f3eb2a8599f2ba6b642316fce87f5b",
        },
    ),
    ("cantor-third", "u", "json"): (
        4,
        {
            "dimension.json": "a5f0c369b750869327638d09ae3bc448b47ef4d5370848311c06bd860a36e8d3",
            "eigenvalues.json": "1fa4fbf2fe92258392ca3bbe14bcb8fe2dd5a311363fef51d25e2881ac810637",
            "gibbs.json": "89aafd9678174714a5a6ab94b955ce51f6ec0145a68044fff2be1bed8b8170e6",
            "livsic.json": "44039f239380bf38ceb4b46f70741c5e628f033fa12d63ee9d6e536435717e71",
            "solenoid-check.json": "349291a1dc2e96b67d22e479c021e8ced93b74e9be0b06dfc32488e65745d3c2",
            "summary.json": "0c61091eb160443f848fad0449bac884c997ab853d9e7356abf2970d3431f1fb",
            "synthesize.json": "05a946e170ed8a093fedda1d77546aa7122bfa4bf3bdefd8fbe5cfb435fe2ef9",
        },
    ),
    ("cantor-third", "s", "csv"): (
        4,
        {
            "dimension.json": "6f061707902583819e6d7de92e112bbd970643ccec4a471b5f30441c6a890d3f",
            "eigenvalues.csv": "e1037d5ad54950da6edb4b4d4019ab1682eb12f2fd1346f2658669826b4f3886",
            "gibbs.csv": "64c8c8057491aae1f12c808176d8152c7a23d07f0a63279b8a5721066f8b4a7d",
            "livsic.csv": "22e2b378a7944526f16c75ebb60fe71aa1f3f60ed0527d6a0b469e771bdc9c2c",
            "solenoid-check.csv": "a171d03a69b3d658e073f12c25740a4ef349ad9b7e94d5d9c67275d10a42f27a",
            "summary.json": "43429ea28d3e510289b4e145695a018f9680bc88b3673cbb6a79cd1273ec0b8b",
            "synthesize.csv": "2dde5c92f6c7545e3de9ef9c2e7c9733a8f3eb2a8599f2ba6b642316fce87f5b",
        },
    ),
    ("cantor-third", "s", "json"): (
        4,
        {
            "dimension.json": "6f061707902583819e6d7de92e112bbd970643ccec4a471b5f30441c6a890d3f",
            "eigenvalues.json": "1fa4fbf2fe92258392ca3bbe14bcb8fe2dd5a311363fef51d25e2881ac810637",
            "gibbs.json": "89aafd9678174714a5a6ab94b955ce51f6ec0145a68044fff2be1bed8b8170e6",
            "livsic.json": "44039f239380bf38ceb4b46f70741c5e628f033fa12d63ee9d6e536435717e71",
            "solenoid-check.json": "349291a1dc2e96b67d22e479c021e8ced93b74e9be0b06dfc32488e65745d3c2",
            "summary.json": "cce83df24bc07a89012af2131ed5f28683469376b0e2ff209fce8f360699f430",
            "synthesize.json": "05a946e170ed8a093fedda1d77546aa7122bfa4bf3bdefd8fbe5cfb435fe2ef9",
        },
    ),
    ("da-attractor-toy", "u", "csv"): (
        4,
        {
            "dimension.json": "d2da53932f3b1502b727360f32d55b760a72af83bfd7bdc131d8df87cfcba0c2",
            "eigenvalues.csv": "dc9e6d9b1f309d1458a374941f81c48c19fc8b2b3923c1cfec35fc7ea9195cdb",
            "gibbs.csv": "26f772b68e75a2c952a07a8501dcb1e8fd56855c331d48da4adfb82790e4670d",
            "livsic.csv": "30f4dc3223f9a13370fc65d5a6657d582b705d3375dbc9c6c465234ab854eae3",
            "solenoid-check.csv": "379765b353fc3dcb500c190ded7df566782e47ac17e2935e879670572cdd4f69",
            "summary.json": "d0fca1e54595b66814c3dc9b34b5489ce49fdfc3e9c2fd55826d35704072703a",
        },
    ),
    ("da-attractor-toy", "u", "json"): (
        4,
        {
            "dimension.json": "d2da53932f3b1502b727360f32d55b760a72af83bfd7bdc131d8df87cfcba0c2",
            "eigenvalues.json": "c7fb0d4e7925224fab4859c1641d7cbb40b46f764158f185381a1b1c173262d9",
            "gibbs.json": "bfff6f03144814bf1b68eb649dcd71796e1da8e97dbcb4591c7681bceaa88838",
            "livsic.json": "537c038b1b54b677303a0a9a84cb5be2eaab660f53c9951fb526f15a3006deb2",
            "solenoid-check.json": "9bd7b560f6050cd5ab8be4f246e3b7a33659cfbc0cad326efbb60c87f4470a9c",
            "summary.json": "ff041e77579d7e210477310b8441ef2e093828f335bdbd1a783da5538dca0751",
        },
    ),
    ("da-attractor-toy", "s", "csv"): (
        0,
        {
            "dimension.json": "8572e3003bc0eee57079c0f14738c2cf9baa0c324fbbe8ed2afe00d637af66dc",
            "dual.csv": "b31ed9fb0802830f6f5db4e1abd6c211e322367faa8095de00a4f19d9a7dae0a",
            "eigenvalues.csv": "adf1b36c05122373d368f057622cb7248458f55d5a6e7bf93619c88e5ac75919",
            "gibbs.csv": "26f772b68e75a2c952a07a8501dcb1e8fd56855c331d48da4adfb82790e4670d",
            "livsic.csv": "30f4dc3223f9a13370fc65d5a6657d582b705d3375dbc9c6c465234ab854eae3",
            "solenoid-check.csv": "379765b353fc3dcb500c190ded7df566782e47ac17e2935e879670572cdd4f69",
            "summary.json": "9166b272449f8f22b194f10463f613d012635de688c28f5662706000a599e64e",
            "synthesize.csv": "9b6fdb1e51066388c544ac2e4e292b881bc5c86ecd67d65edc707636e05dbfea",
        },
    ),
    ("da-attractor-toy", "s", "json"): (
        0,
        {
            "dimension.json": "8572e3003bc0eee57079c0f14738c2cf9baa0c324fbbe8ed2afe00d637af66dc",
            "dual.json": "d09c244e0f094d65d3e9fa0a1818f332003920d3d49c12cb48011310c8cbb221",
            "eigenvalues.json": "9414c81789add6ff9e4be2e80c3b0381f00cf520e89c4eb12ce37fea7ac4b7c5",
            "gibbs.json": "bfff6f03144814bf1b68eb649dcd71796e1da8e97dbcb4591c7681bceaa88838",
            "livsic.json": "537c038b1b54b677303a0a9a84cb5be2eaab660f53c9951fb526f15a3006deb2",
            "solenoid-check.json": "9bd7b560f6050cd5ab8be4f246e3b7a33659cfbc0cad326efbb60c87f4470a9c",
            "summary.json": "13ac093f9a93c7ee93d28766b1f4825d625a657da350fdf3d2fd17c016f4ff32",
            "synthesize.json": "551d3f8c46e185469c0e4fc92c22ac9baaefc12a7edd55aa9c58e7b895eff29c",
        },
    ),
}


@pytest.mark.parametrize("name,side,fmt", sorted(RECORDED))
def test_reports_match_recorded_digests(tmp_path, capsys, name, side, fmt):
    code, digests = RECORDED[(name, side, fmt)]
    argv = ["run", name, *TASKS, "--side", side, "--depth", "8", "--p-max", "6"]
    assert main([*argv, "--format", fmt, "--out", str(tmp_path)]) == code
    written = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()
    }
    assert written == digests
