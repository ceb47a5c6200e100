"""Byte identity of the CLI's output files.

Each command line below is run in-process through ``catsim.cli.main`` and
the SHA-256 of the file it writes is compared with the recorded hash.  A
change that alters any digit of any row fails here; a change meant to move
an output must update its hash and say why.
"""

import hashlib

import pytest

from catsim.cli import main

GOLDEN = [
    ("fig1 --format csv", "7bb2768fb0b87e7c61695071f77a4e325556165efe176329bad481542e995e16"),
    ("fig1 --format json", "ac2a26956c97d5416a75becbe014160738f6bb4986dab4e25b6422d3627f8a33"),
    ("thresholds --format csv", "4c3af48d090441e40cd49d3eb94edb39baa76beba1d57513a9f9ea5fe32739af"),
    ("thresholds --format json", "eba0c64e079bacab3626b0b7546094d80339250e5789ea8f903d90551ed12db6"),
    ("fig4 --format csv", "c4ce514fa5649a1f39288182bddf90692c9624a9d26ff0c7377f6a5eac7d855a"),
    ("fig4 --format json", "a33bedf198832e913ecd285828c19488dc619ed8a182419c1c27bfa3d44b2903"),
    ("fig4 --n 3000 --m-max 300", "5390dec1936ca16e31ce55bef27e00132a990b4f53e489808767e6178fc5cbcc"),
    ("fig4 --n 70 --m-max 60 --p-max 0.5 --p-step 0.01", "6a29e4bd80438fab9be9d04fd77dac4273055e88f13f10be1efb9943021ea254"),
    ("fig2 --p-step 0.05", "587c2267af68d6a8256bf82f4cfe2e39a91e1bb39fcefd59de4c696e6fdc466d"),
    ("fig3 --p-step 0.05", "4144d81390dc19c111217140c38200ec24b5d7e45fd50f2c874331adab0fa24f"),
    ("sweep --state wcat --n 8 --m 2 --engine both --format csv", "73213850c6ef4da0cf8a4e79b4f7ab3052f081d7c5b17e5c6a9f4ae04a013e78"),
    ("sweep --state wcat --n 8 --m 2 --engine both --format json", "93b3ef2c0fb7c676bbbbbd6d2dcf99bf87b07273301e22deb8967faaf8f4199a"),
    ("sweep --state wcat --n 64 --m 3 --engine analytic --p-step 0.001", "e905b4ee8dc2136c6f6f8e188581b7e49fe7b79d9be60e62e7d9b80deda999f4"),
    ("sweep --state wcat --n 65 --engine analytic --p-step 0.001", "ebc035296e4eedb4b7d5edf58311d7374ce4c48ec51c35552bc2a76c30070a29"),
    ("sweep --state wcat --n 500 --m 7 --engine analytic --p-step 0.0005", "cf89f74547683cbcbc5301a351c6796ccb6452bb7963827f4afa30e5596824aa"),
    ("sweep --state wcat --n 3 --m 1 --engine both", "3d5b5b7de6180b35048ae2a020b4f79213437bf512672d0ff0bcc96b8488a3fc"),
    ("sweep --state ghzcat --n 9", "45c03900b463d3c17f2331dff24e72e83102e6afc43a8ee028ded6afb8ee42dd"),
    ("sweep --state psi1 --n 6", "822c1f17d7263050f188bcdd95f3e50c33552cb61c60e49e3f68794f150b32ff"),
    ("sweep --state psi2 --n 8 --format json", "81d299a13fca8b232f59fab51942e0c3cc624b69bb8b39c2c0e12846f4175e37"),
    ("sweep --state psi3 --n 3 --l 2", "049b3fcbcf07054a85ba003cce11ac5e67c7e0cbeb039c0eda575b8b45230a76"),
    ("fig3", "0819bdcc3871f17942e89269f8a77fe7e0626dbf59524aebdf0b0c0b39e3400c"),
]


@pytest.mark.parametrize("command,sha256", GOLDEN, ids=[command for command, _ in GOLDEN])
def test_output_bytes_are_unchanged(command, sha256, tmp_path):
    out = tmp_path / "out"
    assert main([*command.split(), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
