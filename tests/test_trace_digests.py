"""Bit-identity of what `leashed run` writes, for every stack and adversary.

Every pairing of a stack with an adversary kind runs through `cli.main` at
T = 300 with seed 0 (the vector stacks in 3 dimensions, fixed_diameter with
--D 1), and the sha256 of its trace.csv and summary.json must equal the pin.
A pairing that exits nonzero is pinned by its exit code instead. Two small
`sweep --jobs 1` grids, one scalar and one vector, pin sweep.csv and
exponents.csv the same way, and two longer runs pin seeded streams past the
first block of draws.

The pins were generated from the code before the per-round path was
rewritten for speed. To regenerate them, print the table from the commit
whose outputs are the reference:

    PYTHONPATH=<that commit>/src python3 tests/test_trace_digests.py

Any change to a pin changes what a user's trace reads; justify it in
CHANGES.md.
"""
import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

T = 300
SEED = 0
VECTOR_DIM = 3
FILES = ("trace.csv", "summary.json")

PINS = {
    "ons_hints/constant": (
        "8444e05b34919516d71793f6191b0f2df7087cce6c905d3afc65a43ad7badf61",
        "9978bcf769ec544f27ef94bf1963df96a8ae380954e0c78fd2a680d1d103bc05",
    ),
    "ons_hints/alternating": (
        "dcbc2a5d288d8015310b4be077cecdb9675211c72a1d8848576bc005a1032b0c",
        "3dba5b9ca77f34b336b621dc50f6bed3453cade9d626844fd82b5339e6f6e0d1",
    ),
    "ons_hints/growing": 1,
    "ons_hints/spike": (
        "dfd065149333f8a2b6ff8762e6d90aac8d97ff379ee05fbaa20816c7e4fa6d7b",
        "2309ca00d477b4f2b4ec778155db8a25845fb8a91cb6cdc80589600e784b42fd",
    ),
    "ons_hints/seeded_uniform": (
        "9049c28a578c836449b4f0035b8ab8ced34a834f3c2edc887924f2c6ac6272dc",
        "1bb778bcc6f685c221534de18ff452529128a3757fa6fbda99bb578a969c7d3a",
    ),
    "ons_hints/seeded_signs": (
        "0f008b8d9d7aeb888f9c5bd3e517a26ac3be8211f11a0066a1811d7eb14ae260",
        "06d143d677c6b46798a065021631817cf9472f68db829ac8efe08cb4103ca410",
    ),
    "ons_hints/zero": (
        "cbc531150a851ce891460b9680a635e9f46c6fea75e81bc58f76c2d44f773727",
        "b351c8fcb230478b00bf8033281f280968f7491bec412cf02d8ebf5052bdd2bd",
    ),
    "ons_hints/adaptive_sign": (
        "dcbc2a5d288d8015310b4be077cecdb9675211c72a1d8848576bc005a1032b0c",
        "b1a393b84b7be8b5e27dfaf53fd6cf53561a3821b59f413f9e197653e700e46d",
    ),
    "hintless/constant": (
        "8444e05b34919516d71793f6191b0f2df7087cce6c905d3afc65a43ad7badf61",
        "e9a32e64fd2d9f6c46a292a71bd7f2b4a4da8554458233b164b2b592f062f68d",
    ),
    "hintless/alternating": (
        "dcbc2a5d288d8015310b4be077cecdb9675211c72a1d8848576bc005a1032b0c",
        "45dfd9b906f61a35293257edd9041fb620130c46b1841b5f3c2bbe91e4a132c7",
    ),
    "hintless/growing": (
        "946879da1d4d93e4475e81d12fddaaa9cd59db45b0c08363ecadd55884330b7d",
        "b23979db854125aa3a5cbe5bc1bfb61cea41c470ea097ed56c57e7660c733203",
    ),
    "hintless/spike": (
        "a2f75829b0551c36186c68d1df93aaf67ec8542da73ba324fc7323de4c1ebdca",
        "703bb21e95d0cefc559a0284f4fc514f16144d94dadc7eccfb47d04c2e284a5a",
    ),
    "hintless/seeded_uniform": (
        "9049c28a578c836449b4f0035b8ab8ced34a834f3c2edc887924f2c6ac6272dc",
        "db7d170224a859a70d630b139632af16403bce13203a652405b79af679a8e9ad",
    ),
    "hintless/seeded_signs": (
        "0f008b8d9d7aeb888f9c5bd3e517a26ac3be8211f11a0066a1811d7eb14ae260",
        "355864fd120831aa38267c4edf1ed215d714eec30acc0848c3c12796313310d0",
    ),
    "hintless/zero": (
        "cbc531150a851ce891460b9680a635e9f46c6fea75e81bc58f76c2d44f773727",
        "5879e335472ab4741df577cae9c356d22284cd5558bd1687b111509cface5384",
    ),
    "hintless/adaptive_sign": (
        "dcbc2a5d288d8015310b4be077cecdb9675211c72a1d8848576bc005a1032b0c",
        "c636f9d1650e50b1b833bc225c25cf6015e6a123f638c2e6fed55fc424a0b0b9",
    ),
    "leashed/constant": (
        "547d3cf20553a7359c1b02827325551f1787ee2c3f6d4299b0f60d18b867cb6d",
        "eb1a59d0a9f72cc9ad7e8786c9cba36c22269794489b1d150f92bc14c07175a4",
    ),
    "leashed/alternating": (
        "778c00c8be7d451d44baeed95c4f291739ee23c99786be20ac6a17245d6aaa8c",
        "8b39d0bbbcea45a1a993d84439247c913fdf2d6b4407f1e590cde2bc727849b4",
    ),
    "leashed/growing": (
        "0d16e0cb7c0ddfd7009b3ff04b0e3327eed3f13b7f94875437033c5a8f89ffdd",
        "09b3c37911aef09bcd635c30aaba55d33daf482351e33fefb16de4c695e959c7",
    ),
    "leashed/spike": (
        "becf238898da660c55c04cd832c61e8d055129d32e69a1a5aacda96fe73e7c5c",
        "5e920132c24a90eb7751dc1511b3a44b856be38cf1aebd10d0cb54aab9e96837",
    ),
    "leashed/seeded_uniform": (
        "e068b822921213cd04cb8a6d8a9472be19fbf231dccb7a120b99c0ff3d457eca",
        "be39e60f02782c093efb3283845a3d8a3d8b013dcd48397e2ae072d9c48efa39",
    ),
    "leashed/seeded_signs": (
        "341fcce0ffba602de53955218b146d69e65f67f2c229cd5dfe0e4affd651668d",
        "14b39d8e0b1980afa2c691ab85708d37ca11da8c675bdf65a7b3e0746f23d291",
    ),
    "leashed/zero": (
        "b1fba225da12475701738c4b6d36ae3a690226112d3e21cf880df1262d61f63b",
        "09b50966d235a2a2cf6927baddc31da5e6bfcf20382a46b4e08119e7c9244e93",
    ),
    "leashed/adaptive_sign": (
        "778c00c8be7d451d44baeed95c4f291739ee23c99786be20ac6a17245d6aaa8c",
        "5063b0054dc34a74f4cdc24950cbe6499e36f01d65176ae87a449d4453f28218",
    ),
    "leashed_dimfree/constant": (
        "d8ea081e189c86f779214e3411e82878af791ed284ab1881c8806db656d52e20",
        "d00854c34ca0b9d09b830efe93788ab490718931f19cde7ed0d8c69a8259f692",
    ),
    "leashed_dimfree/alternating": (
        "d723d57e6927dc11e4eabc18c858f5f45a68f10ad70f2ddae97e5adb30bea251",
        "d79a846c9f01f66519679eb2029be80ebde175ef4dba969c2d86c85715d542c9",
    ),
    "leashed_dimfree/growing": (
        "b1a6509879cb30a630530fca3ab2a50795fc0769f61bae6e6c67f6164f7cf169",
        "440b06f3e34ceaf533002e7065593a938afa985f6524bd928d42cb6b30459670",
    ),
    "leashed_dimfree/spike": (
        "716faf5a5652421e3fee42f378565e6775a21a56af5cd9c7ef94b6087f95f25a",
        "2ca5966be1a195dc7de2365fbd284e55f3772daf3ca3509f54ee513503046a96",
    ),
    "leashed_dimfree/seeded_uniform": (
        "bae1ada59a6e3cf2d8d7f82e6f0d9c328f309310dce7cc8109d42e570c5d5ddb",
        "5675229c626fb2057b5ef1160c561c7d7370a9c3a3e61b797a600bb157a8d204",
    ),
    "leashed_dimfree/seeded_signs": (
        "2c56235bd1ea6f039495f99d806dd442ba3966e2999ecf1ec8cedca272067194",
        "0b7c7baedabdd0f85d5ae2f0b85e6ae78daafd95b9a3e25efa96bf3783c674fd",
    ),
    "leashed_dimfree/zero": (
        "b1fba225da12475701738c4b6d36ae3a690226112d3e21cf880df1262d61f63b",
        "da6422869d086a28fbe2c9472de666516624871e40672ceb46b859bbb67df4f5",
    ),
    "leashed_dimfree/adaptive_sign": (
        "40498b3f891f1a00d7be2b580ef128f15f390b9c2edde9f9dbe491a6a46bd066",
        "bbdc71a158d6bac8508c4644b4d11891109be28267286cbd57d9cd7e3974e6de",
    ),
    "fixed_diameter/constant": (
        "dc25d127a7d3e65c3645531f0423ad865c98caa3c910b5b4eb298ccce37768b0",
        "5e084807ec019176710ce82983ce383a5dc622c8eec551f1d104590b07339224",
    ),
    "fixed_diameter/alternating": (
        "44865789ad1ddd0f344f2e8ddfe3e85409eade8326fa7fc87f50e2dbe3cc0068",
        "01eedc7371d2fb39e178a2f76c9f883b1906225d16d2a22ecf3e8553916f8231",
    ),
    "fixed_diameter/growing": (
        "2b156f6c44473a2f28ffd9a4257fbb8b248e9d2f528954fba4f37edf40176061",
        "dbf41e9a52507109919f1847078d97331cba541cf11e21511786232e4724fb6e",
    ),
    "fixed_diameter/spike": (
        "1c753b983b3e7e398cbe0b6a5aefc3ceaf644144a476a71c287f4e4edcf5b8f1",
        "08537a007516a493f8e817838c8f6ccefe0eba1d07b051fc37bea17ed471a14c",
    ),
    "fixed_diameter/seeded_uniform": (
        "c93c6b09ea1b70e72b3381d4b18d549a39b0ea6aea25896fc66afdf87c4c1b03",
        "cbdcaf8102e97fe910b4cc2336a985466049446679c763ccfc2fa15c1a807636",
    ),
    "fixed_diameter/seeded_signs": (
        "07abcc28a1ecc85047839bc181923458fc3f319459958a543f4092c46961b0d4",
        "05544337983c7032f4d41e2eae9c17ecfca470a6d5a96553554b5ff5d3c08995",
    ),
    "fixed_diameter/zero": (
        "174e4b1387289dac44ecaee283b753246889d81e203e3faf6850156352ddc800",
        "37d05983992ad9b255f4dddeb67deda261058bdcbcbadc2d7a1de8c069477930",
    ),
    "fixed_diameter/adaptive_sign": (
        "44865789ad1ddd0f344f2e8ddfe3e85409eade8326fa7fc87f50e2dbe3cc0068",
        "b7e13d735716c32c315eb6ac69e64136d1403a5dcf60f74fbf336591b994e53f",
    ),
    "adagrad_ball/constant": (
        "95ff00a3869a25f5b0bd472d5cdc2f6be1e48534c4e5e75092a50b48bd024d57",
        "048ba88e961d48e83655e44c0750d4e9bff9f6959a681a893e487d4a1eccefae",
    ),
    "adagrad_ball/alternating": (
        "3704e6cca33cbd9bbe7b2548839a166e2c641c92745676f1e845c73cd207a161",
        "b9a3ebec7ee1d15ce7f4ab1910aea7faec01e29a7ccf0deff5ec6352376ec2f4",
    ),
    "adagrad_ball/growing": (
        "df1967ff3c9bc877524aa2986804b2128ad636ae877c535949115024de859172",
        "ace9801162d83b48f691d99eb22ba932e48ed20bc9546f072af61d75a9f89e0a",
    ),
    "adagrad_ball/spike": (
        "86aa71fdf075ae1035c3991fdad1e3ae477a312836015e03f9d14f2116ea3f6a",
        "164a52b3aab231b953da45fd207b82354cdf90abbdd4f002560b2435039ffe33",
    ),
    "adagrad_ball/seeded_uniform": (
        "419fa36727167f210b1958577f93dae5385b48b794dfdc453a67c67ab2113861",
        "7d2585f5fa2737ead2ae69ceffb06f8345dfdc9dd94212400d8a6b25c5e68e2e",
    ),
    "adagrad_ball/seeded_signs": (
        "3ee50f3f033892dfb31e1798f031893eab1594a11fdf2794533ad538c4de0e52",
        "7ce0093cd94673c70380a0ea933ac79870ac06ace6d57ebddbee1e95c53d4a7b",
    ),
    "adagrad_ball/zero": (
        "afb2d48dc4e43d118e6a8ba852bafd93e72d6418113f6cd226ea433612af30f4",
        "8129ea95d3d8667bcfceb5082244c6677d9de738104191dc0451c0063fbd7ebb",
    ),
    "adagrad_ball/adaptive_sign": (
        "4fc470f95a1f617f52934cb129658a8c68a12f450526f4da66bfb42eca1343eb",
        "e99de96eb0df2d5ff0b2aaad74c0e8fee1b7cf0160f3b7f14ef604eb9fb299f6",
    ),
}

# (run arguments, sha256 of trace.csv, sha256 of summary.json), each at seed 0:
# games long enough to draw their seeded streams in more than one block,
# pinned from the code that drew one round at a time
LONG_PINS = {
    "leashed/seeded_uniform": (
        ["--algo", "leashed", "--adversary", "seeded_uniform", "--T", "5000"],
        "1c8757c5e5d952373aee8537b0b1a851f0a4cf193155b0739ca6e5aa4eec74bc",
        "8996405e7c7f9f5e57d97af4edee065d59c6acb44f1648e270952a3ae2116b6e",
    ),
    "leashed_dimfree/seeded_signs": (
        ["--algo", "leashed_dimfree", "--adversary", "seeded_signs", "--dim", "3",
         "--T", "3000"],
        "9ee8d83f681a136c2b4783adbe4a9d83160357628e2ac30dd698aa89c98d0091",
        "d57b19800eaccd5e60e71067defaa876d2e96e4a2748f83f7d2b971bc1caba94",
    ),
}

# (sweep arguments, sha256 of sweep.csv, sha256 of exponents.csv), each at seed 3
SWEEP_PINS = {
    "leashed": (
        ["--algo", "leashed", "--k", "0.5,2", "--p", "0.5,0.3333333333333333",
         "--adversary", "seeded_uniform,spike", "--T", "100,1000"],
        "d0fe6205c137fbc893ae497f9216865ea8b23d9b104028d871d26f9b244cade9",
        "35cbdaf59e8d353c65a028217322277c83a3338fec61135952ed3c29833e3795",
    ),
    # a vector comparator's label is its norm and its index among the spec's comparators
    "leashed_dimfree": (
        ["--algo", "leashed_dimfree", "--dim", "3",
         "--adversary", "seeded_uniform,alternating", "--T", "50,300"],
        "bd1ab0afc3e52a817bd118ae69e47c716e7821a90e4a1ebdfed6f8e23744020e",
        "6d08e92c93986b1b605edca7561e338194c1aef24af3ac3a8f07b428084326ca",
    ),
    # a tight leash on streams whose rounds meet the hint and stray past the
    # barrier, pinned from the code that clipped and hinged through truncate
    # and surrogate_grad
    "leashed_clipped": (
        ["--algo", "leashed", "--k", "0.25", "--p", "0.5,0.3333333333333333",
         "--adversary", "constant,alternating,adaptive_sign,growing", "--T", "100,1000"],
        "cea4a9ec043068a059f13cba90a78e869f95ff60eb494fd0fb1ddcec4d5b67ed",
        "2dd1185b0b834482bec3c6e0a0cfc5228e5c067b4a9258a874ad788bf47abd1a",
    ),
}
SWEEP_FILES = ("sweep.csv", "exponents.csv")


def run_digest(work: Path, args: list):
    """(trace sha256, summary sha256) of `leashed run <args>` at SEED, or its
    exit code if it fails."""
    from leashed import cli

    for name in FILES:
        (work / name).unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["run", *args, "--seed", str(SEED), "--out", str(work)])
    return tuple(
        hashlib.sha256((work / name).read_bytes()).hexdigest() for name in FILES
    ) if rc == 0 else rc


def digests(work: Path) -> dict:
    """{"algo/kind": (trace sha256, summary sha256) or exit code} for every pairing."""
    from leashed import ALGOS, KINDS

    out = {}
    for algo in ALGOS:
        for kind in KINDS:
            args = ["--algo", algo, "--adversary", kind, "--T", str(T)]
            if algo in ("adagrad_ball", "leashed_dimfree"):
                args += ["--dim", str(VECTOR_DIM)]
            if algo == "fixed_diameter":
                args += ["--D", "1"]
            out[f"{algo}/{kind}"] = run_digest(work, args)
    return out


def test_every_pairing_writes_the_pinned_bytes(tmp_path, monkeypatch):
    for key in [k for k in os.environ if k.startswith("LEASHED_")]:
        monkeypatch.delenv(key)
    got = digests(tmp_path)
    assert set(got) == set(PINS)
    changed = sorted(pair for pair in PINS if got[pair] != PINS[pair])
    assert not changed, f"outputs differ from the pins for {changed}"


def test_games_longer_than_a_block_write_the_pinned_bytes(tmp_path, monkeypatch):
    for key in [k for k in os.environ if k.startswith("LEASHED_")]:
        monkeypatch.delenv(key)
    got = {name: run_digest(tmp_path, args) for name, (args, *_) in LONG_PINS.items()}
    assert got == {name: tuple(pin[1:]) for name, pin in LONG_PINS.items()}


def sweep_digests(work: Path) -> dict:
    """{"name": (sweep.csv sha256, exponents.csv sha256)} for each pinned grid."""
    from leashed import cli

    out = {}
    for name, (args, *_) in SWEEP_PINS.items():
        for f in SWEEP_FILES:
            (work / f).unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["sweep", *args, "--seed", "3", "--jobs", "1", "--out", str(work)])
        assert rc == 0, name
        out[name] = tuple(hashlib.sha256((work / f).read_bytes()).hexdigest()
                          for f in SWEEP_FILES)
    return out


def test_sweeps_write_the_pinned_bytes(tmp_path, monkeypatch):
    for key in [k for k in os.environ if k.startswith("LEASHED_")]:
        monkeypatch.delenv(key)
    got = sweep_digests(tmp_path)
    assert got == {name: tuple(pin[1:]) for name, pin in SWEEP_PINS.items()}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = digests(Path(tmp))
    print("PINS = {")
    for pair, value in table.items():
        if isinstance(value, tuple):
            print(f'    "{pair}": (\n        "{value[0]}",\n        "{value[1]}",\n    ),')
        else:
            print(f'    "{pair}": {value},')
    print("}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, (args, *_) in LONG_PINS.items():
            print(f"{name} {' '.join(args)}: {run_digest(Path(tmp), args)}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, (sweep_csv, exponents_csv) in sweep_digests(Path(tmp)).items():
            print(f"{name}: sweep.csv {sweep_csv}, exponents.csv {exponents_csv}")
