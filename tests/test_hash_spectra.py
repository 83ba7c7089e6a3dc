"""The diagonal spectral path against a record of its bits.

`benchmarks/hash_spectra.py` hashes, for each of its 23 configurations,
what `spectral._diagonal_values` and `spectral.diagonal_spectrum` return
at three gammas and two cutoffs.  Each digest, and their total, must equal
the record below, which was made with numpy 2.4.6: another numpy may round
an operation differently.  A change meant to move bits updates the record
in the same change and says in CHANGES.md why they moved."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "hash_spectra.py"

RECORD = {
    "n1-model":
        "2f89214bea49f39685701f3757602190f7264aa23842c3005cb8cb0511b5c770",
    "n1-hankel":
        "f936dd8289437c2ea9a70d351cc1993f74516d172ac7ea0b93101bfce0229a57",
    "n1-commutator":
        "e72fa70c4b8a7cefc41873d48c8d3feefcf60777005973354701f2eb777ac1af",
    "n1-toeplitz-chain":
        "20e2a6ee1866c6a504e62adfb0229e85dd7c05a29895a2ccf8b6876b591672fd",
    "n1-hankel^3":
        "f0ffe384fe137bff141bb357ca9c3b39d240dc3177c314ca0494295a61327810",
    "n1-complex-hankel":
        "b784bfabd0b66a8032a9fffb9780b6c40d3004eed90a78c751c6fd414e259916",
    "n1-complex-commutator^2":
        "d8be884defa36d201e349b7a28160554e1b1eddc92dfaa12630ec727fc9a5f68",
    "n1-t=-3-hankel":
        "577c241e59e7dd303ae263f823e6a95e774d9ddee26d1b90e46c68ca79c6894e",
    "n1-three-chains":
        "30bede41d6ebda7d9d53677c9f8720e611f095b79fc50922b2016ff0159b8b16",
    "n1-t=3-toeplitz":
        "e5046f9b406978212fe392911399d6982262453c39e90700fc976f340533a6b8",
    "n1-lowering":
        "ea9f397a12f6ea755875d3e0432dff78dba267561902fbfaae6fc7fcbc35dee6",
    "n2-radial":
        "9f4c225df1f1eeafe2c4814d05c1824b5dd129eea75f0b5aefc29c529e713858",
    "n2-radial^2":
        "02c78a74b17f9151d4b480374280069c750b80e6c43aad9afcc7d191794a05af",
    "n2-hankel":
        "9d3cb1ad9e2ecf3dea9a04a8783b01fe20d2829e7bc32107c2a55afa3ce1738a",
    "n2-commutator":
        "330fb2979f106c524647fcaef2b7ecedd9c261218af313aee00b342185fd36e9",
    "n2-mixed":
        "d4bc388a8f1f3834dbd025fcc5373f6b5f7a065fb5ca5fe5db26e6e12cdb9cc2",
    "n2-hankel^2":
        "d0a462c6584539c873f665cff280f3e0217dd0e03cbb1a8e27821fe28f8e6e57",
    "n2-complex-hankel^3":
        "5f331a6cd7a193cb95d942e89dc9efd24a4a6f448affc73e26c34b1e206aedf2",
    "n2-z2-hankel":
        "735d8deba06f22ff17d41f0e319d062f00eaa1df3b93b19df77dd32884b2d784",
    "n2-lowering":
        "78809c7ed0e5e9efdcbd2a2cdc98162cf3fef54a51d52c4a04583de1127e5f1f",
    "n2-two-coords":
        "782322af10232253dab9ae453830482ca506a9c46d6627d76ea5e42654c7b2cb",
    "n3-toeplitz":
        "72cffbb946ab8f28fada28ac1dabde790a976dcad80f78d6c2d3335bb8ad8bf0",
    "n3-hankel^3":
        "3d501cbde430304e65606765e085d44a02b27e64cd0b2643f09a462a74c0bdc1",
    "total":
        "3b08459cae1f5e75df83d5ef78f68b09f9976e4c640f72c22ad8417c1652d667",
}


def test_spectra_equal_the_recorded_digests():
    spec = importlib.util.spec_from_file_location("hash_spectra", SCRIPT)
    hash_spectra = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hash_spectra)
    got = hash_spectra.digests()
    moved = sorted(name for name in RECORD.keys() | got.keys()
                   if got.get(name) != RECORD.get(name))
    assert not moved, f"digests that moved: {moved}"
