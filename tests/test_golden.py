"""Golden output bytes of the CLI.

Each digest is the sha256 of what one command prints to stdout. The values
were recorded before the model trials and the state table were shared
between the CLI and the acceptance suite, and that change kept every byte.
A later change to any of these bytes is logged in CHANGES.md together with
the new digest.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nonlocal_lab import cli, mc, states

# Parameters of every named state, as `witness` takes them.
STATE_ARGS = {
    "singlet": [],
    "werner": ["--d", "3", "--phi", "-0.4"],
    "werner-local": ["--d", "3"],
    "werner2x2": ["--alpha", "0.7"],
    "barrett": ["--d", "3"],
    "rho-g": ["--q", "0.4"],
    "rho-g-prime": ["--q", "0.4"],
    "rho-e": ["--q", "0.3"],
}
# The two-qubit states, as `chsh` takes them.
QUBIT_ARGS = {
    "singlet": [],
    "werner": ["--d", "2", "--phi", "-0.6"],
    "werner-local": ["--d", "2"],
    "werner2x2": ["--alpha", "0.7"],
    "barrett": ["--d", "2"],
    "rho-g": ["--q", "0.4"],
    "rho-g-prime": ["--q", "0.4"],
}
SETTINGS = ["--x", "0,0,1", "--x2", "1,0,0", "--y", "0.6,0,0.8", "--y2", "0,1,0"]
MODELS = [["werner", "--d", d] for d in ("2", "3", "8")] + [["barrett", "--d", d] for d in ("2", "3", "8")]
MODELS += [["gd", "--x", "0.6,0,0.8", "--y", "0,0.6,0.8"], ["epr1bit", "--x", "0,0.6,0.8"]]
MODELS += [["hirsch", "--q", "0.3", "--x", "0.6,0,0.8", "--y", "0,0,1"], ["povm-lift", "--q", "0.4"]]
MODELS += [["gd"], ["epr1bit"], ["hirsch"]]

CASES = {}
for name, args in STATE_ARGS.items():
    for fmt in ("text", "json"):
        CASES[f"witness {name} {fmt}"] = ["witness", name, *args, "--format", fmt]
for name, args in QUBIT_ARGS.items():
    CASES[f"chsh {name} optimal"] = ["chsh", name, *args, "--optimal"]
    CASES[f"chsh {name} settings"] = ["chsh", name, *args, *SETTINGS]
for model in MODELS:
    for fmt in ("csv", "json"):
        CASES[f"simulate {' '.join(model[:3])} {fmt}"] = ["simulate", *model, "--n", "3000", "--seed", "5", "--format", fmt]
# at q = 0, rho-g has T = 0 (the canonical settings) and rho-g-prime a
# rank-1 T (the fallback row for Alice's second direction)
for family in ("rho-g", "rho-g-prime"):
    CASES[f"chsh {family} --q 0 optimal"] = ["chsh", family, "--q", "0", "--optimal"]
for family in ("rho-g", "rho-g-prime"):
    CASES[f"filter-scan {family}"] = ["filter-scan", family, "--q", "0.3"]
for d in ("5", "20"):
    CASES[f"filter-scan popescu {d}"] = ["filter-scan", "popescu", "--d", d]

GOLDEN = {
    "chsh barrett optimal": [0, "41ffdbba6488999053d1d5dc8f8c399e2394a1dc04f6f110c1861115c7090067"],
    "chsh barrett settings": [0, "341da74ca8e849739c8a7d1f8ad32f213f11315995704ec2c0841d36d0224655"],
    "chsh rho-g --q 0 optimal": [0, "5d672f0272c02c45a00ffead16c87bf61b3a8a279d92696f84711b283fa86ccc"],
    "chsh rho-g optimal": [0, "424bcf2bddb5bd8c6183ecbf1a23d5cc09deb223c4415ca4c7e41d3b32094acd"],
    "chsh rho-g settings": [0, "22d3e03f8d7f92c9d1f46c226b7dfd89f832758fa64127312b475fc8d9aa1ff9"],
    "chsh rho-g-prime --q 0 optimal": [0, "59759313d81003ac1b0127ca1a6ef34293a5d4a19fcf3b460c9819cf91d8906e"],
    "chsh rho-g-prime optimal": [0, "2a36b461bc34355140917ce88c10716158a78436a62ebc27f9a70593d74ced82"],
    "chsh rho-g-prime settings": [0, "37506f97400f50ca43d27bd1b790d37b58c78f5374fd93d1f2fe8eeb06f8e80c"],
    "chsh singlet optimal": [0, "1652cad9cdd4c11474b68395d6f20e50bc0c288742a2b34cbcbe8de3afff70a7"],
    "chsh singlet settings": [0, "5e6af4f84d53f9a62339d3b34d5b0137483db709ebafb4508743126a9b18eabf"],
    "chsh werner optimal": [0, "e767cf0b6fda6cc982974b1cfd1d197de987682884a8ef39c5913c51138170eb"],
    "chsh werner settings": [0, "195d05b344af647b4a378332911d17824b24e764d0c147e2041e160e8938b606"],
    "chsh werner-local optimal": [0, "958f3763ee88e1b0c3e723f37ad41fd0bc9cf4866f95103a1c5d0f00b57edd0e"],
    "chsh werner-local settings": [0, "1c1cd27684087903ffb4a9e026fde87e05c9394fd4384c14fd6d8c8348022609"],
    "chsh werner2x2 optimal": [0, "92cfcb8a1607903ac54468a8879228b2e052329ae3eedc255ff693bb6451d967"],
    "chsh werner2x2 settings": [0, "de466890bb9e97aef1cb5787084153bc5fffd201a3dac450110e0590e413cdc5"],
    "filter-scan popescu 20": [0, "9f4b04a9726d7642387ab996a306909b2ddffbccfa99b9ba376e30a9393c6f20"],
    "filter-scan popescu 5": [0, "bd2da07f375273beb0296013644fffa0342a5c0bca12dea8f3c20a56d66f1d86"],
    "filter-scan rho-g": [0, "caf1a9bda5c9f491979b9f61c341d3482669b740c26f7eba5e38c533f02d0d79"],
    "filter-scan rho-g-prime": [0, "b7ae1811f959777d16aee86faaa4db71195fe5dab50d6efbc958c767aea56856"],
    "simulate barrett --d 2 csv": [0, "46b7be7b247f3602c0500d0d3ad7dd8649527201e11ee19c57807006a9f7ac0b"],
    "simulate barrett --d 2 json": [0, "4b72af1feda0471fc0fa70cbfaf2be7e5933ffb0a2fa372e6df40e8aaeb90434"],
    "simulate barrett --d 3 csv": [0, "f454cd8a6054ce465fe06ffe35c454619630908114f2cb2b832440a148a1c767"],
    "simulate barrett --d 3 json": [0, "cbe18fd8c4974c69373191b7cf0bca96221505b853f7ce63ae1015eb3c21141b"],
    "simulate barrett --d 8 csv": [0, "d8554929dfe33dfb859504f1ab9122d9815996964aa2f01eea7a280d54b2ff6d"],
    "simulate barrett --d 8 json": [0, "91c824c3dee3a556e878fbfcb698cf9fc8dbc1e5ae48051dac48d2f7f22c3089"],
    "simulate epr1bit --x 0,0.6,0.8 csv": [0, "2f0b156e3227d507d997fcec55464dff11480c50dab255c119c530a673ea1c32"],
    "simulate epr1bit --x 0,0.6,0.8 json": [0, "458d0b0b1e711fe38ef011a7f49289b933e6402f70be1f8e63db0ecb8fb552d7"],
    "simulate epr1bit csv": [0, "d8e27da968ff26dd4ac8eaff9eb359a2097d83006c9cf0960e08dda18aac80f1"],
    "simulate epr1bit json": [0, "cb9f4c2903570e5edefd3e098f9f352aec3b493e4889aa386a830a780f0ddb89"],
    "simulate gd --x 0.6,0,0.8 csv": [0, "186505212aa865dbbd0288c63b1c0f3399ea4d62c0faef052a536a4b8b1d32dc"],
    "simulate gd --x 0.6,0,0.8 json": [0, "f86f007c8a7c1cb8ddc7923fab4a709d2d74f0e4164ef9631759da79e9c7cc59"],
    "simulate gd csv": [0, "d5e3f756267f3f9efb4eba8e91c144f0493f28e5c474600a01a767862b2ff64a"],
    "simulate gd json": [0, "a3ac59e592063f85396943df701e081e7a1bfd304554dbe1a0774006b79bf4f3"],
    "simulate hirsch --q 0.3 csv": [0, "f866e75219e102355f8e0f302fdd9b7bd4d06cd3c5fab0b32616cb0469a10e73"],
    "simulate hirsch --q 0.3 json": [0, "3112626c613a48193e7b95b310c8669b186c1ed4d57687aabd0a03493dd862dc"],
    "simulate hirsch csv": [0, "1a1a4c168144f3a3bc52c6043a41ca0cf099cff6901022d421b2f17687c3c8cd"],
    "simulate hirsch json": [0, "ee480720b9ca8215d028cb55e75ab03d96dc90cbc6739203fad300f972505769"],
    "simulate povm-lift --q 0.4 csv": [0, "081884d95977456072f7abdaebf4d264102edc1bb52fbe3fae7ae87cfd07340f"],
    "simulate povm-lift --q 0.4 json": [0, "4a1a273f08a72e289ceb87b98c7ea0f33d935f0e36674cd94be440c98547de98"],
    "simulate werner --d 2 csv": [0, "eeed40a9370754070c37754844ff894cb60794146e60218675d01c41e8dd90f1"],
    "simulate werner --d 2 json": [0, "fac0dc332efadaf10d44e2d47eb6e5072a33193776504c7581ff7a580bea0c7e"],
    "simulate werner --d 3 csv": [0, "b3c7bd09616ff850774f16312921cb2df472307c08e00ded3ba14dbe9c8a2bfe"],
    "simulate werner --d 3 json": [0, "5cae47ea0501c5030e0c6c3b3a5486914d6675583252922ed5fcb25a85033e2c"],
    "simulate werner --d 8 csv": [0, "7d19cd02a59bcfe8b715127205cac3685fd1842f5ceda3e11f35c869258ce124"],
    "simulate werner --d 8 json": [0, "8983030aeeef659b5bd5b81759c4837f9e3ade36e132a595d3a1421d72794597"],
    "witness barrett json": [0, "605390eab7727f6e62c87c44ad3ad450d0fbc5927fc68fa99f032d5875b6343c"],
    "witness barrett text": [0, "0bac13c620054ecee58eeddbcae5110b86a75014d3252349d6e280b6ba597b62"],
    "witness rho-e json": [0, "2b85dced93279c76ed68d8656202bedf017efa7974d5bd014b592329132d1198"],
    "witness rho-e text": [0, "f72d61a3f6d0245e0dfe7aa8304f32ec86bc0b89d3ba915c9245fce38000612a"],
    "witness rho-g json": [0, "7952cdbf835a3b777dbaaa6f636d8fafa5026eaa8bbefd1a809571c1cd64931b"],
    "witness rho-g text": [0, "b041a17169b38d065a57d3868e8966d28cec462bf8cac9aacfd872af6e7274dd"],
    "witness rho-g-prime json": [0, "35238fc36eea9a3db0569c5c16d4ffbcb0b56791602d26f37bbad84004356cb5"],
    "witness rho-g-prime text": [0, "4128abb8e73d54b94e7ca884f89a72f3d33ff271d2ec404dd842a49a622d03d5"],
    "witness singlet json": [0, "7b15f81d508d86c7c3cc3206f2dc81e73f00ce178b4d3a59fb567c27a0b5901f"],
    "witness singlet text": [0, "31b194cd4d991b3ddf045159c36e73afe9d4d7500e784fadcc84a767652d5b02"],
    "witness werner json": [0, "76993b8ae6b259bbff830d9561717b9506b2a0001ce47d574a6af84a5e53c540"],
    "witness werner text": [0, "8332e865c1c79857293d3c75e6abce9d01ca2a4d8f90cc5aec0ed9868420758d"],
    "witness werner-local json": [0, "7071f0e482d341301b946833c6a3f762058518479d38c9ac20fe5af9970d5075"],
    "witness werner-local text": [0, "08a6652ee6333e561184243c9248b3786c198c3f5e2270bf66f60d340f6a6a0a"],
    "witness werner2x2 json": [0, "4882fdcd0a74e249de711f9df1d743f9ba4c41d1a2e107a605150d2585b74bda"],
    "witness werner2x2 text": [0, "42667f5c9af9c3fec69ef88b09ead1db993d7eb4e3a983e9223b821c6822f505"],
}


def digest(argv: list[str]) -> tuple[int, str]:
    """Exit code and sha256 of the stdout of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_every_named_state_has_a_case():
    assert set(STATE_ARGS) == set(states.STATES)
    assert set(QUBIT_ARGS) == {name for name in states.STATES if name != "rho-e"}


# The digests whose bytes follow the BLAS kernel, as they read under the
# Haswell kernels (OPENBLAS_CORETYPE=Haswell). The Werner d = 3 oracle, in
# closed form at the Haar bases of the LAPACK QR, moves by an ulp, and the
# CSV's 12 digits of |mean - oracle| show it in one cell: 0.000848355872519
# in place of 0.00084835587252.
HASWELL_GOLDEN = {"simulate werner --d 3 csv": [0, "8ac80341ebb855cce4fca10df9312955f90c3df8aa4266df1ecd6b947248a826"]}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_bytes(case):
    haswell = os.environ.get("OPENBLAS_CORETYPE") == "Haswell"
    assert list(digest(CASES[case])) == (HASWELL_GOLDEN.get(case, GOLDEN[case]) if haswell else GOLDEN[case])


def _has_avx2() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get("AVX2"))


# C13's Haar bases come from a LAPACK QR whose last bits follow the BLAS
# kernel, and its table's abs_diff column, 12 digits of |mean - oracle|,
# shows an ulp of the oracle: under the Haswell kernels one cell reads
# 4.3295859284e-05 in place of 4.32958592841e-05. Every other byte holds.
_KERNEL_DEPENDENT = ["tests/test_acceptance.py::test_report_bytes_are_golden[barrett_d2_table.csv]"]


@pytest.mark.skipif(mc._OPENBLAS is None or not _has_avx2(), reason="needs numpy's bundled OpenBLAS and an AVX2 CPU")
def test_goldens_hold_under_the_haswell_kernels():
    """The CLI digests, the C-details and the report files, replayed in a
    child process whose OpenBLAS loads its Haswell kernels, in place of the
    ones it picks for this CPU: a golden byte that depends on the kernel
    fails here on any AVX2 host."""
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "PYTHONPATH": os.pathsep.join(map(str, sys.path))}
    itself = f"tests/test_golden.py::{test_goldens_hold_under_the_haswell_kernels.__name__}"
    deselect = [f"--deselect={case}" for case in (itself, *_KERNEL_DEPENDENT)]
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *deselect, "tests/test_golden.py", "tests/test_acceptance.py"]
    run = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-4000:]
