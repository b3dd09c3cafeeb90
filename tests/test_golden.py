"""Golden CLI outputs: the sha256 of stdout for fixed argument lists.

Each digest is recorded in CHANGES.md.  A change that moves bytes on
purpose edits the digest here in the same diff, and records old -> new in
CHANGES.md with each changed entry's deviation before and after."""

import hashlib

import pytest

from bosecount.cli import main

GOLDEN = {
    "dist --model bose --N 100000 --m 3 --w 3":
        "b46e1e016e141049af4fcb40dff1c07601aac4433e32b22a8c284b614f27eb1a",
    "dist --model bose --N 100000 --m 3 --w 3 --format json":
        "54f9174ed3174cd063faa23c76635beac4213e6b841b671c068c70604c257e2a",
    "dist --model classical --N 100000 --m 3 --w 3":
        "00223ba5763348a1bb3be8b4138046dde7d5d6bf0e92369e879914595557d08b",
    "dist --model classical --N 100000 --m 3 --w 3 --format json":
        "abf5ec4c3965034393006033a304da0b7cd083c598b0d197a9e6bcdc2835115e",
    "dist --model bose --N 100000 --m 0 --w 3":
        "320b002f614b8cc7a62aad6577ed95d5d310ef09264be2f4aa9bd2c24478b40f",
    "dist --model bose --N 100000 --m 100000 --w 3":
        "debdbd7e48dd223b388878e3f4117af40d9da367e009c23eace3294a9efb6eb8",
    "dist --model classical --N 100000 --m 0 --w 3":
        "320b002f614b8cc7a62aad6577ed95d5d310ef09264be2f4aa9bd2c24478b40f",
    "dist --model classical --N 100000 --m 100000 --w 3 --format json":
        "f5313a8d1bf5219252b88db8f613da9a266022929db379b91b147197793e7b8b",
    "dist --model bose --N 100000 --m 20 --w 3":
        "2804e1df6e164e53038fd859d593464909c1eb9355d693d9014cc71cb0e5c4cc",
    "dist --model bose --N 100000 --m 99980 --w 3 --format json":
        "3e6234f09122b61237ed5197adb7268b5eec2712669332b5e7e075673fff85b7",
    "dist --model bose --N 2 --m 1 --p 0.5":
        "ef6795fbbf357df3fd9781690cc7704d2f584c06280a6681ef7c0c3a78b77e5d",
    "dist --model classical --N 2 --m 1 --p 0.5":
        "39037f06bbc4f4f3235f0c7f27172f685a330d55176e9dcfbfc7fc2cbf28086c",
    "dist --model bose --limit --m 3 --w 3":
        "b3e6ff6c045bebb95d968c95d3ecefeae6b57fde9744b24438c98227ed09d38a",
    "dist --model bose --limit --m 3 --w 3 --format json":
        "d275fa933cfb3617f0a5f558924d08023403f85086adaaaa49eaf6455950d7a6",
    "dist --model bose --limit --m 3 --w 3 --mmax 20":
        "bc8e0e3378139ad06410ea8e0aac25bd24adede0c35ffc1e4f2b7b68049ea796",
    "dist --model bose --limit --m 3 --w 3 --mmax 20 --format json":
        "78495da0c87557255b3b518efd29d883fd0a4c3ae683959b55c8b2cab11524cb",
    "dist --model classical --limit --m 3 --w 3":
        "ccbdfb82239605b70176be4a55e3ae38ca40ddf7c30d922d7d87b6bfa8d36b7e",
    "dist --model classical --limit --m 3 --w 3 --format json":
        "efa18b3a8e29206038838dac0f3198a6b5f2f72356a5cbff6980da33415ccc83",
    "dist --model bose --limit --m 300 --w 20":
        "69744ef1f40c87d4217414cff94db67560fedf9033e5fe61cb0739a5056f42bf",
    "dist --model bose --limit --m 1000 --w 3 --format json":
        "2593b496e290c0497880c9cf317921d0e6006106beec240762d6f394b73a7086",
    "figure --id 3":
        "7c49911d2fa249255526a5aa11c4d1d0554d7cf19451cf9536c07ac498ecef12",
    "figure --id 4":
        "2432a986cd1adade2bb5e1f5c598387cf20682d1a4c9833820c05078c62bd653",
    "figure --id 5":
        "0d4e47add131499df22e71116a6993b93c36ee3c13034f215e17930f8a2eca0f",
    "figure --id 6":
        "7eacddfe460e2c94520515651c9c1e8a8af9f3d667cf0012f9e11901457807b7",
    "plan --N 100000":
        "12943c6f64092247bf08e8c838ead8e243d77f42d606f9a57496ccc453478eda",
    "plan --xi 1 --N 100000 --m 3 --w 3":
        "d91948b8ddd8689e0830ade801f61b07d8dc3660e55f57d2d1c75cad6e9cf6cd",
    "verify --max-N 6":
        "9a18367b1b03c874178dea45cafc3988d7d079891a11f1d915256e63996d278f",
    "verify --max-N 8":
        "254c0c91136ce18b018b251b36e85dfadb5a2915e3bb2d421652ea4fe01bbba8",
    "verify --max-N 9":
        "fdeccd5fa979d9331db4928db0c0342a4e2476527fff3c7d75b9a743bfd901aa",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_stdout_digest(capsys, argv):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[argv]
