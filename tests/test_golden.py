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

import pytest

from nonlocal_lab import cli, states

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
    "chsh barrett optimal": [0, "93505f2b7f095496caffe1e0f0902351e502052a31ba876c50dba4cabc52e08c"],
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
    "simulate barrett --d 2 csv": [0, "2cca907395e9655c1b99f7c842e8549c1a5645152ade21a21f6658a5b904d954"],
    "simulate barrett --d 2 json": [0, "0f70a6617dd365aebf6dd49e4969560ba2758bba59b29f64480e75c517a02aa8"],
    "simulate barrett --d 3 csv": [0, "0bf2fbbe3bf512c2eee1eb6c096d79879f168d8cc77d5fb399122b5a2afdd6ac"],
    "simulate barrett --d 3 json": [0, "a54da111a0d368ac9d731e689901068eb61ca0edab6da40af6db0a7d1b8370c3"],
    "simulate barrett --d 8 csv": [0, "783094060549aeda59b9f70972b0c31a4b886c390fe901eb5d37360896933e47"],
    "simulate barrett --d 8 json": [0, "932a34aad357696203450c0d467abc6fe549653a159924b82660286031e72084"],
    "simulate epr1bit --x 0,0.6,0.8 csv": [0, "602b68ea7436d46b98d8088cc572094e618aebb199c066bb754c23efba3224a5"],
    "simulate epr1bit --x 0,0.6,0.8 json": [0, "196a9b516eac7ff04144c5020e4a3ad706c2562cc4c5a77d5719d63a9fd20231"],
    "simulate epr1bit csv": [0, "2323ea2fdefc480f330db2d10953b3fcb50897e6923f402e96db740f74470458"],
    "simulate epr1bit json": [0, "8cb3783cdad62ee4a27adad52ac8f350fa5f5a72858b5b1845c70c0a66670ff2"],
    "simulate gd --x 0.6,0,0.8 csv": [0, "e2ba64dc8dc6350a00856b2e2337b5f47d057c30b0967041ccff007d34c0d573"],
    "simulate gd --x 0.6,0,0.8 json": [0, "263be2e22602a8892803add95bf68ed6cc947b7dbd364cb8b070b536fa4a49d9"],
    "simulate gd csv": [0, "b5062f69cd856b61e5c207f0f8da625bf39da10ad2797141e6172b8f4f3f10e9"],
    "simulate gd json": [0, "02a4711a1da1ab8462e33cfac1ca15da7f24c5138d5e722321afc4f942e0c4f2"],
    "simulate hirsch --q 0.3 csv": [0, "1c11e20dd9519dff8995b099fbf818d28a739c9eb762d9015cf6745ce2709d5d"],
    "simulate hirsch --q 0.3 json": [0, "8c39bfe5a4cd7c733aa21f1a9b1b3cbe8795a2397ca2843e8cccd7906b0e6665"],
    "simulate hirsch csv": [0, "dc132ffdb1871a66af132b8ae8b4fd32d64a04f985a3d112427336e003174c7b"],
    "simulate hirsch json": [0, "de69d509f1f81e7ed48ba82a92fde4d38bff168df31c8f559b50f21dbf04c486"],
    "simulate povm-lift --q 0.4 csv": [0, "e5f627c894f7ca36f3ca37356b4ef9e4f1eba5eb4c816ee590bcfa06bc4f66dc"],
    "simulate povm-lift --q 0.4 json": [0, "6a7042ed46c713c8c19bf7e723562a4aa29a6b18f18052a98fe40882a9b103b0"],
    "simulate werner --d 2 csv": [0, "4c7aeaebb1ba98309493cd15e693e46e2cdd1526eb7667d41f856e568e4946bd"],
    "simulate werner --d 2 json": [0, "160c72ba64f104f06013bcf3115615731b549941ee3fd3e0c9d721cbfde7a25a"],
    "simulate werner --d 3 csv": [0, "40acda494b65d219d03f7209e9487cc35ef3345835565bbadd0636ad013a3694"],
    "simulate werner --d 3 json": [0, "2bc17ee48c4c0e7fef4a5ff8d0b674531a4283ffe74fe1f10773ad4d71d81274"],
    "simulate werner --d 8 csv": [0, "f84df4f3093e0a1129076cf09e87b794c45d83a2d77a5c72fe326ef2453f0871"],
    "simulate werner --d 8 json": [0, "1def9d4a684f9f737f338bed7f4564ee35c9185f3eec4b80a4f83ee88ac0e59a"],
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


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_bytes(case):
    assert list(digest(CASES[case])) == GOLDEN[case]
