"""Verdict bytes pinned across changes to the frame and symmetry layers.

The strong-symmetry report, the spectral verdict and the certificates of
the ordered 2-frames of every converse-catalog body, and of two seeded
images of each, are hashed as canonical JSON; so is the converse driver's
report over all of them.  The digests were taken from the implementation
that listed every ordered frame and checked every moved certificate, so
counting orbits and checking one certificate per orbit must reproduce its
output byte for byte.
"""

import hashlib
import json
import random

import pytest

from jordan_spectra.classification import (
    default_converse_catalog,
    verify_converse_on_polytopes,
)
from jordan_spectra.geometry import polytope
from jordan_spectra.operational import enumerate_frames, is_spectral
from jordan_spectra.scalars import format_scalar
from jordan_spectra.symmetry import is_strongly_symmetric


def seeded_images(name, body):
    """The body and two images under signed coordinate permutations with
    shuffled vertices, seeded by the body's name."""
    rng = random.Random(name)
    out = [(name, body)]
    d = len(body.vertices[0])
    for i in (1, 2):
        axes = rng.sample(range(d), d)
        signs = [rng.choice((1, -1)) for _ in range(d)]
        moved = [tuple(s * v[a] for s, a in zip(signs, axes)) for v in body.vertices]
        rng.shuffle(moved)
        out.append((f"{name}#{i}", polytope(moved)))
    return out


BODIES = [
    image for name, body in default_converse_catalog() for image in seeded_images(name, body)
]


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def fingerprint(body) -> dict:
    frames = [
        [
            list(f.indices),
            [
                [[format_scalar(c) for c in e.coeffs], format_scalar(e.offset)]
                for e in f.certificate
            ],
        ]
        for f in enumerate_frames(body, 2)
    ]
    return {
        "strong_symmetry": is_strongly_symmetric(body).to_dict(),
        "spectral": is_spectral(body).to_dict(),
        "frames_2": frames,
    }


PINNED = {
    "simplex(1)": "83b7237423464f49cf3c9183c3c131e2ce02fc6214d0cfdb06b2cdd14167c14f",
    "simplex(1)#1": "9c1e6335adcf02e10ec9ea5694c1a936828c7b752d2288fce0871d0deda905e6",
    "simplex(1)#2": "e7b601e26a53f3904ad8a585e3350eb270c0f8c663ba3fbe8a757cc3fc4e7623",
    "simplex(2)": "fd9acb9550057bb29dbde937a86e94c706892dfa50db32505fc859ab8622352d",
    "simplex(2)#1": "fd5a2bef00dee98f3ff1027a564596f6c5c866e6706dd11beec764cab946546e",
    "simplex(2)#2": "a79f777f0ad77811c2ae34ffb27c113014c971efa2487ac44df66f7e14d4ec76",
    "simplex(3)": "88f9a2f7a3c2adc61c4b5043d9a33341443ac9b40c5e1c87286236dafbeca819",
    "simplex(3)#1": "fec4200ce8b7e717d30826e7fdf3b10c6566b0fcbd4cff1dbde3221a6f1e7074",
    "simplex(3)#2": "6c30c2607c8f310ad92430d6bc1382021114d2b012faa3dd8079813a0efaabd1",
    "simplex(4)": "a3837b299b0cce256c4eb9793cbe53e9efdbc88787d6febb2c13a86a7bfc3d30",
    "simplex(4)#1": "af2d330a9afbbbb6d4d3d4c81a2b2c96e00b8c659a80c143597e92b5ff437f19",
    "simplex(4)#2": "65c306f6a0ce1380c78ebe5a147de4806fa4097ae3e805ec250504a3bfcbd4a6",
    "square": "028c882625b40c3b05dc0da5f3aa741b73c691de8c4ddb00de401cd61909dec9",
    "square#1": "dcd9e57d7f29422c000fd731a76199697ddc6f3bf3208cd8859073bd8f35a90e",
    "square#2": "a9ebfca44ed0ab5877c6ef7360f6d622124278485f15bb394983d1279997f81f",
    "rectangle": "2542c9441221d29861781b159babda185e30a9e97160c47633e086dded7c78a4",
    "rectangle#1": "03750f73a7d3a0e5529b8f9faac27d4cc120fc807619f1b0d07999d0dbbf13d1",
    "rectangle#2": "60d67ea833ad3e1b380c872c143178301f70444e2b9cdbc178fb2de940efc314",
    "pentagon": "bc9bf1671fadb567e3493c083fdc2b882021f8d3590767676ebd4ab6623a2d33",
    "pentagon#1": "01c6825f61bdb2f9ca5cf1fd6a89e23a241cb6e4e719896245b1a8eccb489951",
    "pentagon#2": "07b3053101f21a8ada4ca3b07b0e0898afa2153d3b9ae422e89858346e18e927",
    "hexagon": "4a4fd6ba1d7e89e96803c9cfcde2e566ec7c31cc06ed196aaa44c019b0b8458c",
    "hexagon#1": "c68004a1dccdd8a52609213abea28198aab2781c3cf252a4ce300e1e8908c896",
    "hexagon#2": "ba4afb68e272becad531ae67751d1892ec0811f3e9887a95dbf604625b2d84ac",
    "cube": "d1e5ff4f4c365665876509d3d47a00ca849821ff5df061edf9650faed391c952",
    "cube#1": "920af8ee0a9de9677e663abf6baf25290ea61d99ebd474f76c798f9d093b5c41",
    "cube#2": "731988fe6f1fcd961fee63c58a759e893f54dbfe9fc315eba4114d2fc872302b",
    "octahedron": "9682550996de0672f9928ed54825fa1c82ad040d636617b3e35c90cc1a4d59e8",
    "octahedron#1": "26afdb909febcb4bd4fdc941b9c75619e6a9dc9a608d32857919b17e8825d495",
    "octahedron#2": "771c6085e18005435d34431642da9006029dcb1f423f110a20d163a10986d094",
}

CONVERSE_PINNED = "35347d73720b3682da28c107c1687eb48282f94b137aa4a9d6a9cba6c55c3229"


@pytest.mark.parametrize("name,body", BODIES, ids=[name for name, _ in BODIES])
def test_reports_and_certificates_are_byte_identical(name, body):
    doc = fingerprint(body)
    assert digest(doc) == PINNED[name], json.dumps(doc, sort_keys=True)[:2000]


def test_converse_report_is_byte_identical():
    report = verify_converse_on_polytopes(BODIES)
    assert digest(report) == CONVERSE_PINNED, json.dumps(report, sort_keys=True)[:2000]
