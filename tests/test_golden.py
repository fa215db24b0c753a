"""CLI stdout pinned byte for byte.

Each entry is a command, with the fixture named by its file stem wherever
it stands (global options such as `--format` come first), and the sha256 of
its stdout.  The cohomology, `verify-complex atomic3`, classify
and qsqrt2 audit entries were recorded before cochains were stored as
sparse flat vectors; the atomic4, cubic2, atomic3 and q audit entries were
recorded before the chain maps were written as sums of terms; the
`verify-complex cubic2` and `verify-complex atomic4` entries, full
complexes through d_4 o d_3, were recorded before matrix products and
elimination computed each shared row once; the qhalf entries were
recorded while every exact scalar was still a Fraction; the escname
entries were recorded while the JSON was still built whole by
`json.dumps`; the `--format text` entries were recorded while the text
report was still built whole by a second, compact `json.dumps` encoder;
the qsqrt2 and cubic2 `Jodd --n 2` audit entries were recorded while the
naive evaluator walked every permutation once per audited cochain; the
tm2sq entries pin the trace-form refutation of a non-reduced algebra, and
REFUSED pins the refusal of its ideal complex, by exit code and stderr, as
it does t2m49's, whose classify entries were recorded when its rational
roots first decided Kadison, and the big3 entries were recorded when
its rational roots were first found with no bound on the search, by
lifting from a prime;
the standard-convention band cohomology, atomic4 `K` and `Jodd --n 2`
audit and `verify-complex atomic4 --complex band` entries were recorded
while `coboundary_images` applied d column by column rather than through
one matrix product, and `classify` computed the orthomorphism quotient
apart from `cohomology`.
Any change to the bytes of a representative, witness or verdict fails
here.  The whole set runs in process in about five seconds.

Run as a script to record pins: `python tests/test_golden.py "<command>" …`
prints one ready-to-paste entry per command, through the same fixture path
rule and the same in-process `main` as the test.  Put the `src` of the
commit to record on PYTHONPATH.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import pytest

from cohomolab.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

GOLDEN = {
    "cohomology q --degree 0 --complex full":
        "532a9441aacf4a813c461fa4c87569c43c9a61764621306c82a0f7e4565d576e",
    "cohomology q --degree 1 --complex full":
        "79255706bb1783eff575a4f1e60c678680114349a97330a10848b89cb9282504",
    "cohomology q --degree 2 --complex full":
        "cf848a015406cfe6df3eec7a87f7a638fade9606d187661e9950e96eb4cea1eb",
    "cohomology q --degree 0 --complex ideal":
        "c6a5d38efdea6e18d632c507ad38001866853803a71595123a70e3dcc284f7cf",
    "cohomology q --degree 1 --complex ideal":
        "7d831ca46a35e5b11f718f938e817bdd1de0a49b0263c11f394d77b94f146ddc",
    "cohomology q --degree 2 --complex ideal":
        "8815da550d76abdd9f3d00e2ddda15e94b71bb52fb6e31ff1e3e07ee7e7731c7",
    "cohomology qsqrt2 --degree 0 --complex full":
        "46cc7024a4bb47c3adc156027dae37044e9ff833e3a5e0c7b41680b38d1a1932",
    "cohomology qsqrt2 --degree 1 --complex full":
        "a21190c7c2b12da910b52c04f6cd09ed35495f217a9f44fff9f318f689908f43",
    "cohomology qsqrt2 --degree 2 --complex full":
        "d61dc50c61267fb1129634502df5987b9e6b1ad1db1ff96016d1e950c54184ba",
    "cohomology qsqrt2 --degree 0 --complex ideal":
        "baa24e66435f67ce3d52a19d1b1a3f5ac03612d4504850c32f6e5019b2aee2b8",
    "cohomology qsqrt2 --degree 1 --complex ideal":
        "f61a2de7be604328046ae28bdee76f0ab272091288c7e863cb2f547ea1975995",
    "cohomology qsqrt2 --degree 2 --complex ideal":
        "c3542d65db752c13bbab8c4b489031f4c5a0ad402b124669a7746cc8ed672105",
    "cohomology cubic2 --degree 0 --complex full":
        "c519f48b1e82bd2bc7e25748003881ac1b1cb81ba0cfc0fc1de1e9362ab45a23",
    "cohomology cubic2 --degree 1 --complex full":
        "7c4f067dd8f3939e153dcae8bc5abb4b4b457c28d7778cb07ca64deafe7f6c26",
    "cohomology cubic2 --degree 2 --complex full":
        "a845b41a718f73f1d3d3097e58cb75ea4a422bc81a47d235227f3a26606777d3",
    "cohomology cubic2 --degree 0 --complex ideal":
        "604bd38e915721964be6127e1d75c4fda6fbe1bbd6f1c953020a1bd4c3d61621",
    "cohomology cubic2 --degree 1 --complex ideal":
        "1f8ed57eb15b559764018cb53bbecaf3b5cda6b1fbcb09608e098d261b9d99cf",
    "cohomology cubic2 --degree 2 --complex ideal":
        "f710645c4e09079836d90c1791771a164f59953b6831cd33fe44faf66dc65268",
    "cohomology atomic2 --degree 0 --complex full":
        "7b27c89eb213a0637ed7be11c8691906109ac8fd3742e6fa70bb1bbe809b1617",
    "cohomology atomic2 --degree 1 --complex full":
        "41d564e22057d14a7d0394826179ba57dc890a6748f2a1d4297c8259c3c3a31d",
    "cohomology atomic2 --degree 2 --complex full":
        "12c27df990d23b615609aa80eb46ec37e7cbd25165fd0fa0db025aeb7dda29d6",
    "cohomology atomic2 --degree 0 --complex ideal":
        "a68c13477e8fa017e448403bfef4f54895c6177e910876865991e88562cf8b46",
    "cohomology atomic2 --degree 1 --complex ideal":
        "7999381f2bf9e058cdd7614cc85be95b74cf360e467fb540ce1adfeec13e4799",
    "cohomology atomic2 --degree 2 --complex ideal":
        "bd9904b045306f42171f7c513012a4be9cce9ceb86341829e94f696a806b38bc",
    "cohomology atomic2 --degree 0 --complex band":
        "9c61817e88264cfeaf62a0ff48299caeef621db63724638dc084de820e75e671",
    "cohomology atomic2 --degree 1 --complex band":
        "ed52e54bd7734a595e045e3c0f395473a24f62d4f5c7822f902860f4d878fb09",
    "cohomology atomic2 --degree 2 --complex band":
        "56a639314101c288f0f6e9bdfad0d7af18096fc52b421c44154249e8e8fd151b",
    "cohomology atomic3 --degree 0 --complex full":
        "01bb2987e79384980b65604e896abe3901139210650da4899aafff40bb9c1e1e",
    "cohomology atomic3 --degree 1 --complex full":
        "7f6656de09475b2b2381d10d0ccb2c7ca20019d715c88b54d0cf243a34bbc80f",
    "cohomology atomic3 --degree 2 --complex full":
        "2c57ea83c7ebc12ddafbc51bc178b9942923c80306a42419551fa444d463831b",
    "cohomology atomic3 --degree 0 --complex ideal":
        "8d4ffd3d8a3bde7175f6a04fffed6b77f66c4d3a5a140ecd6607b8c1fa8cf2cd",
    "cohomology atomic3 --degree 1 --complex ideal":
        "5bb194c54ee0d9dcdff3bef3a51cd30900f27cb7ae5038ceede082ae06e63123",
    "cohomology atomic3 --degree 2 --complex ideal":
        "66d0f6e2ae750ab48fd2258660dd611cc6efeb6c7032f0aaafa85605607fbaa2",
    "cohomology atomic3 --degree 0 --complex band":
        "989f81d1b4b744b3d65d58866da50c0016113ebf1519cae51af7d28ceb83b9f8",
    "cohomology atomic3 --degree 1 --complex band":
        "f823ae7f5682b01db6cb0cb7b239e2005c38599d95d7509e26e53f6c4add35f1",
    "cohomology atomic3 --degree 2 --complex band":
        "e748d4241d98542cc7d1d8924cc1837848e8ca238342f7f808e79c8263c396c1",
    "cohomology atomic4 --degree 0 --complex full":
        "744159161c3562203b457932aa9059cf37a0208866df39837d328ff1aeb64893",
    "cohomology atomic4 --degree 1 --complex full":
        "ea77a01c8e3ae75df46fb35a50b3879a4d1f37cf54af9f52daaeae99446f3021",
    "cohomology atomic4 --degree 2 --complex full":
        "cb2ba6fe09aedc7235d2adb3b7ff82fa7516fadbf3628808b95fa9a031e12301",
    "cohomology atomic4 --degree 0 --complex ideal":
        "87aaf257abfc666429a4bacf946a3d9a37735396da1de4c99b43cd9e6e0d3585",
    "cohomology atomic4 --degree 1 --complex ideal":
        "aab570407db8958f8059961cc3dc22d59d305e457a34a7dc18e0046b24d6d788",
    "cohomology atomic4 --degree 2 --complex ideal":
        "7ec190ff9e92a822cd52aa90ad2a4ce1ff43de0ddbd21ab82d340f672ceb2f79",
    "cohomology atomic4 --degree 0 --complex band":
        "71d2da3b80f9eaa25cf10303ef38c47ea41e5e62ff55046f969c8c52fe01ddfe",
    "cohomology atomic4 --degree 1 --complex band":
        "b667e4b7529094222e1f492344aa4c183c60d27ce0de3982407297ff6b877d10",
    "cohomology atomic4 --degree 2 --complex band":
        "ca1176a31ebe2dd1bb5027b461cc4cd080e4e3d28d247bae5fd5fde33939158b",
    "cohomology cubic2 --degree 3":
        "629d7997ef937900e2986ac8e43ff60735a04289d9505119b14a3df9d9388bcf",
    "audit qsqrt2 --map K":
        "6f7fb82fc4d0d5c82e856342edf0e487d7fe631e6b171cbb8c4e8dc2a60a9424",
    "audit qsqrt2 --map J":
        "1f26797020509d4467a6e94f127abcfc1ce22d83e0b72104c3959270ba067fdc",
    "audit qsqrt2 --map Jeven --n 1":
        "31cf96f0a21fed6fb685b470ee4075fa4a0076381a51c7af803e72498af89638",
    "audit qsqrt2 --map Jodd --n 1":
        "1dbfba3c2579f02dc68ab4d6f43bf881a1105ac2ddd7cb6661a3375a4f6941fb",
    "audit atomic4 --map J":
        "8e56e0abafa9db4ae33ec97258215c50cdca0405a46fd018b539c32674e9cb20",
    "audit atomic4 --map Jeven --n 1":
        "6d6fe307dd061c247ab2cc40e47c690ee8b663aa669c03f4cce2477d5270b5b7",
    "audit cubic2 --map J":
        "210a799a3e61fc2029fae86f5dbf11ce1610260d62a799f4551e2e5761362f21",
    "audit cubic2 --map Jodd --n 1":
        "3a3de190f1d847ac0ec3c7d0e541ec11789ba15679b0d6335b182fe53c7f36ce",
    "audit atomic3 --map K":
        "6eeaf66e992519f212e2da2fd45ff732790eb5f1d655230cca548782bd4f753d",
    "audit q --map Jodd --n 2":
        "f86b9798efef4fa10b8d252232a3e52b9db4bec9f4909fd3038d93ec62c522d1",
    "audit qsqrt2 --map Jodd --n 2":
        "3a21910e086335cadfc18f00a511f04201cd38f69a1d0680fb4a49be5e591cad",
    "audit cubic2 --map Jodd --n 2":
        "79d86e739378877eb747ebf4f921c50fd61dbc5476a7d3e64ebb05561a0383fc",
    "verify-complex atomic3 --complex band --max-degree 2":
        "cbcbeecfa80fb5fafe977b5ead49d7a48d24a6761655e5ff3c0fc0ee5440f64d",
    "verify-complex cubic2 --max-degree 3":
        "dd392641d147d6ff8018840b6ffcee86a95c4b9275335970e462352d03d01a2c",
    "verify-complex atomic4 --max-degree 3":
        "dd6c2223e07e796cd0b6e91dfa12d28c9d52b05602703394e4ea502cbc1c5585",
    # qhalf has the one non-integral structure constant among the fixtures
    # (u^2 = 1/2); these pin the Fraction half of the exact-scalar rule
    "cohomology qhalf --degree 0":
        "c4b59d63a2b6c20eee489cd991d7f350af055d479f983d4581499579a28e04ac",
    "cohomology qhalf --degree 1":
        "539ffd243a8a90e93f56ac33bff79aa27f17b5c4a1534d067ad53c2b88ad1f98",
    "cohomology qhalf --degree 2":
        "6c02077944a6306d07a4473d622bd3dce6bff024066d6a0f60db3c9c847a5769",
    "audit qhalf --map K":
        "64f91ac013a58ba60b3b0f0b9bfc92e0a663a170c2ef0592217ff8d0a4773911",
    "audit qhalf --map Jodd --n 1":
        "c1e6d3f24d00627c9114518bfbea719ba0e45eb6650c87a1d7c81f3995fe602d",
    "classify qhalf":
        "fc5e95204f37d5bb6f73329e9aa8aab5a3e5c5d704aa36b2d64d9d5d4ae746ce",
    "verify-complex qhalf --max-degree 3":
        "b59dc50021271ba687111689704db8403b51e349d3c92d9a00ca2d3056bcf438",
    "classify q":
        "0836b051e89106c8171d00983df87ff52a69e6289ad0588ddb6b54c439f37fd9",
    "classify qsqrt2":
        "873fa09e9ec3762075e01022ab768a305c7de755b2dd05d934ecca3d1f5c79da",
    "classify cubic2":
        "a8f977ded8d17d2fc05ffda00c7a2c6b89d4fbc45404f86afc2ce4413d334973",
    "classify atomic2":
        "018100f947e1e5f62bce6c73751b4aecf21269e4a13c39469d774ed9c93b8456",
    "classify atomic3":
        "2f72c9514bd5cf97b7b2a7d406b79aba07e48327a8c0b8d1afed96b6a753f892",
    "classify atomic4":
        "ecaf63fa89c0c6de29cd27fa2f8385c7c48e30a4f45f2710fcdc14575115b36b",
    # Q[t]/(t^2-49) is Q x Q: the roots -7 and 7 refute a domain and prove
    # the algebra split, so Kadison is yes
    "classify t2m49":
        "b33f4b6ee47c16a4ef2acb0b1004d557a1cc4fa0d4e5b08bc33bb1839753dc18",
    # Q[t]/((t-2)^2) is not reduced: its singular trace form refutes a domain
    "validate tm2sq":
        "b448bea3028f60deca26e7a9f6f2f93849c5a5fed92f5f3cacd61c7e3d15a2bb",
    "classify tm2sq":
        "c83b21b812da0b4d97e60743a51b9d13aa3f22de5ea42569e8e61a65eb413d40",
    # Q[t]/(t^3 - (10^39 + 7)) has no rational root, found by lifting at any
    # size, so it is a field: asserted, Kadison no with its witness, and the
    # ideal complex is the full complex
    "validate big3":
        "642543145b4fe4018a627b8b846fb9d18f8905bd2c19eaadbb422f5579d4265c",
    "classify big3":
        "4e0dc344c222849e0a9c7ff1514198ef0484ccc38eb153430e7aaf4658754804",
    "cohomology big3 --degree 0 --complex ideal":
        "4bbdd88379fb91b30655fe0c8151931688645863c405cd6faba977b57807480c",
    # dense4 = Q[t]/(t^4 + t^3 + 2t^2 - 4t + 3), whose eliminations grow
    # large fractions: recorded while elimination divided each pivot row by
    # its lead, in Fractions
    "validate dense4":
        "b1d386510820d3440117a62bece1f752a94b0f221e9c2b9c2d9d3e21f39bdeb0",
    "classify dense4":
        "ffb641987d9f1f1713ea175de4b1ece6d66a358d57032cf66adfa9ac8d97234f",
    "cohomology dense4 --degree 0":
        "acf69c9ad644c01d8d5f3ba57cf36f193b2a74c18e28b3406aa4902ad711c4d9",
    "cohomology dense4 --degree 1":
        "f2beeae1870f04150956f20d2c70df929d1e14cd525e686f53e4392c34391439",
    "cohomology dense4 --degree 2":
        "fedf3d3292a6f5f8e6b28b20b4b11c925d187937404a07831f976233651e6f20",
    # escname's name holds a quote, a backslash and non-ASCII letters: these
    # pin the JSON string escapes
    "validate escname":
        "7d06252b7f2117e34862298398c13884976ea4e80c30c92f3b583d2d79b0fdb2",
    "classify escname":
        "8b755a42d599fe7901b8eb7fc09ec2f22ade8a85cf73f5431751cca52f5e665f",
    "cohomology escname --degree 1":
        "cd1d0d8e4f31847bfc901d09c9fd526bef0f11c34b846e74adb1dfa6d78da14b",
    # the text layout, one `key: compact JSON` line per field, on every
    # command: escapes, verdicts, representatives, witnesses and results
    "--format text validate escname":
        "4abb03427893da8c877f3be52513873a763564b09dabb96279d276a5f6482722",
    "--format text classify t2m49":
        "fdf0538e1279c0f89abbb83f960ab9fb27969b29ec5c6fff10e5c21b864d106c",
    "--format text cohomology qsqrt2 --degree 1":
        "102d9b70d63cec65dd0e56e3015ba07d10703ee1fb686e00676ffab348944763",
    "--format text audit qsqrt2 --map K":
        "65b9793e677f397f59048b035da3cf2a60bfde780b93bdf6f109726825c745db",
    "--format text verify-complex atomic3 --max-degree 2 --complex band":
        "c8b326567c67bbb4a074937a03fc7a03324b7d3ec46c5e4b0e23433685a81333",
    # recorded while a hand-written encoder rebuilt json.dumps's bytes for
    # every value: empty and several one-line representatives, a certificate
    # with an index field, and a list of result objects
    "--format text cohomology atomic2 --degree 1 --complex band":
        "64e7f64777ca822fe81f1fad1e940f51037b9781799982919ffdbf72dd5e34f6",
    "--format text cohomology cubic2 --degree 1":
        "a11d30254b5656b8f15f7f4409f2c63b6122e56089d06cef60b815099f6a7604",
    "--format text classify atomic3":
        "faaf72b56f787ec7ca79e284c575fd586010d2abf29603b37809dcc15240333e",
    "--format text verify-complex cubic2 --max-degree 2":
        "8c2585dfbc6b3cf3a194edc2582b44f56a87a14e247b20539614a9c8e446687b",
    # Wickstead's group, H^1 of the band complex under "standard", and the
    # coboundary images of chain maps and band cochains up through d_4
    "cohomology atomic3 --degree 1 --complex band --convention standard":
        "e29791a2bb26e4deac5ac133e78a8cd4d8d344d88e0fa8a025f5848b9ad9f24b",
    "cohomology atomic4 --degree 1 --complex band --convention standard":
        "f8057661f2d0917cd53fb9e7e666dadc8398f3bb0e4cd98da790fbd79787cdec",
    "audit atomic4 --map K":
        "af246e8a02772f98f0ed9b7011472309f4ff75f7e3dc2d110ba9c5bc98d95cf8",
    "audit atomic4 --map Jodd --n 2":
        "5496da4e6966f161b52cfd575f31b2e8f647a83f0eab36de1bb3f1306a1e580b",
    "verify-complex atomic4 --complex band --max-degree 3":
        "e5c6cb590787e8a6d35ff527aca04f6e928c818db5afc2d98391607b69347b2e",
}


# commands refused with exit code 1: their stderr, with stdout empty
REFUSED = {
    # a refuted non-atomic algebra has no ideal complex; before the trace
    # form this answered for the full complex
    "cohomology tm2sq --degree 0 --complex ideal":
        "error: ideal-preserving subspace is only defined for asserted domains "
        "and atomic algebras\n",
    # a split non-atomic algebra has none either; before the rational roots
    # the falsifier missed t2m49's zero divisors and answered dim_H 2 here,
    # the full complex's
    "cohomology t2m49 --degree 1 --complex ideal":
        "error: ideal-preserving subspace is only defined for asserted domains "
        "and atomic algebras\n",
}


def run(command):
    """Exit code, sha256 of stdout and stderr of one command run in process."""
    argv = [str(FIXTURES / f"{a}.alg") if (FIXTURES / f"{a}.alg").is_file() else a
            for a in command.split()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue()


@pytest.mark.parametrize("command", list(GOLDEN))
def test_stdout_is_pinned(command):
    assert run(command)[:2] == (0, GOLDEN[command])


@pytest.mark.parametrize("command", list(REFUSED))
def test_refusal_is_pinned(command):
    assert run(command) == (1, hashlib.sha256(b"").hexdigest(), REFUSED[command])


if __name__ == "__main__":
    for command in sys.argv[1:]:
        code, digest, _ = run(command)
        if code:
            sys.exit(f"{command!r} exited with code {code}")
        print(f'    "{command}":\n        "{digest}",')
