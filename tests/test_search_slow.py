"""Opt-in long runs (n = 8, the pinned CLI reports, brute force at n = 6):
pytest -m slow."""

import hashlib
import io
import sys

import numpy as np
import pytest

from signed_extremal.bounds import edge_bound, rho_bound
from signed_extremal.cli import run
from signed_extremal import core
from signed_extremal.core import (
    canonical_signed_code,
    permute,
    signed_isomorphic,
    switch,
    switching_isomorphic,
)
from signed_extremal.families import build_complete, build_kn_switched_maxneg
from signed_extremal.search import SearchConfig, _canonical_children, search

from _oracles import (
    all_signatures,
    connected_graphs_up_to_isomorphism,
    per_order_signed_code,
    unpruned_canonical_children,
)
from test_search import deletion_rows

SEARCH = sys.modules[search.__module__]

pytestmark = pytest.mark.slow

# sha256 of the stdout of `<argv> --format json`, less its final newline: every
# search cell at n = 4..7, the two n = 8 searches of the theorems, and every
# verifier over its full range. Those up to `l2_2 --n 12` were recorded when the
# scan ran in batches of 256 classes with an optional worker pool, with the
# config's since-removed "workers":1 key taken out; the closed-form ranges
# after them (t1_2_neg n = 9..16, l3_6_order n = 5..40) were recorded when
# t1_2_neg compared the peaks of the gst splits by hand. The four n = 7 `none`
# cells of max-edges and max-neg-edges-at-max-edges, refused before, were
# recorded when core's work cap became the only limit on witness keys.
PINNED_REPORTS = {
    "search --n 4 --objective max-edges --forbid c3-minus":
        "3de588893c60d4aa0b669079b35c9ccb4f344f74563e1171c1e2d25ba83a9821",
    "search --n 4 --objective max-edges --forbid c3-minus --allow-balanced":
        "57669d2c08807054a7f24486d5e8f36983e5869a471a44ec62ede6e5c8fa275e",
    "search --n 4 --objective max-edges --forbid c3-plus":
        "62a1afb24d3a0b4fe99490178473a6ca8a258c3d764a147ff41550032f4be98f",
    "search --n 4 --objective max-edges --forbid c3-plus --allow-balanced":
        "132dbfe6556afcecc9ce80aa922720670049c04f033f9f0cbbf4f159be43f75c",
    "search --n 4 --objective max-edges --forbid none":
        "29f38254537d8c5ae63c6fa132f131a9b51448dc89c1f7749ce86e7f5986d4a8",
    "search --n 4 --objective max-edges --forbid none --allow-balanced":
        "1fcd622baa645fb85771bd504ba7918eafb21e895a7c9042937bc889a8d97e61",
    "search --n 4 --objective max-rho --forbid c3-minus":
        "5abb33f5d887a663c1807156e45d6a8e327a2567426143d4be85a695963b63fb",
    "search --n 4 --objective max-rho --forbid c3-minus --allow-balanced":
        "33621bd4ed157071babe6e1b6af91819b5ce41a45f75d257a026df8af41b59b4",
    "search --n 4 --objective max-rho --forbid c3-plus":
        "43cbe87a2a56c3b83ce488cc05b4af89c9dec6c0739cde2482c6d93263be1870",
    "search --n 4 --objective max-rho --forbid c3-plus --allow-balanced":
        "3e6e3213c007381d317e99b07f6d304c0d0f3f95af13363e3c7c37fae9ce0e69",
    "search --n 4 --objective max-rho --forbid none":
        "324ffe951ff19f03f174c39f0662ddd3e6f03bcec89acd23b4694f29166f9907",
    "search --n 4 --objective max-rho --forbid none --allow-balanced":
        "a7b43bd9450669f4a46d72643177f27e3e94c0969a1c08edf21187a53eb5903f",
    "search --n 4 --objective max-neg-edges-at-max-edges --forbid c3-minus":
        "3a61d1a107b52d32f2b288414208b7494ce0bf451aba24c036ffc69b9f0cc676",
    "search --n 4 --objective max-neg-edges-at-max-edges --forbid c3-minus --allow-balanced":
        "be94563bec08dc643ebe962ae026b44d08f18552521c37918400a6d69fa7011e",
    "search --n 4 --objective max-neg-edges-at-max-edges --forbid c3-plus":
        "84b4a7b93045e32fef47d5ce17d4179fa6b0485fd1ff2466484181efb6e929d2",
    "search --n 4 --objective max-neg-edges-at-max-edges --forbid c3-plus --allow-balanced":
        "5d453984aef23b1beda717f7b4a00cd53c246c3c9061ee0e8643fc44cc7fe86a",
    "search --n 4 --objective max-neg-edges-at-max-edges --forbid none":
        "b8269c2b78ac5fc8ad1897374048d97a5bed4489ad2c5f66c9c203c6bde4aa04",
    "search --n 4 --objective max-neg-edges-at-max-edges --forbid none --allow-balanced":
        "c262e854f667d330ff8141409e9dde297d8dc5a2bba55b9c850c59726ec07f8a",
    "search --n 5 --objective max-edges --forbid c3-minus":
        "1801980c605c2e951b1763b16a13318d51f753d9ef45e6590ac274744d1113ac",
    "search --n 5 --objective max-edges --forbid c3-minus --allow-balanced":
        "6970cabcad045a6118fe85ed81cdaa8392df022af9fb5d1a1d6e927cf619c5fd",
    "search --n 5 --objective max-edges --forbid c3-plus":
        "dd6641b21bf2a48a628dbcd0e21c27108b0a20b6764bf3814a5d45d8e43e3ead",
    "search --n 5 --objective max-edges --forbid c3-plus --allow-balanced":
        "43a2483e17f12c43b5472ed4fc326fda31cf968b735714283f5c8946d8fce943",
    "search --n 5 --objective max-edges --forbid none":
        "5de0c996f572ff2491e5ed825b5c3faac52ebd671f4e6eba488c36c8c5c806d8",
    "search --n 5 --objective max-edges --forbid none --allow-balanced":
        "2f801addb042680a41b43302f44923cbbca5e126d1cb1901ff3bb2697e96abf4",
    "search --n 5 --objective max-rho --forbid c3-minus":
        "6675e293e600587a25ec0d8cc51819d51e0dae992012c1a05da1d17f61bf1b0a",
    "search --n 5 --objective max-rho --forbid c3-minus --allow-balanced":
        "9fd1b35da7479c8775130054503468f3c6683e479ac2e6c2d29d0b4a5a2da884",
    "search --n 5 --objective max-rho --forbid c3-plus":
        "952d366ecc174eb9d46779270174c5d172f6a0eeb60665d01707aaa3a6ce8064",
    "search --n 5 --objective max-rho --forbid c3-plus --allow-balanced":
        "79fba55bbe595acea9dbe27a191da3367f39bb4a6b8f286c291641c0da536034",
    "search --n 5 --objective max-rho --forbid none":
        "6d1cf3cbb04809e6c6f3dd5e7dbc02dbe20dd164272f6f03fa1d4eb4366f2f69",
    "search --n 5 --objective max-rho --forbid none --allow-balanced":
        "9b3587ceb8c90266b19cf5312e80b9d867380e2cd50bb9793d8a3cd528d37d1e",
    "search --n 5 --objective max-neg-edges-at-max-edges --forbid c3-minus":
        "dc413adca8ac1fb1a335cf52dbdadaa12b8516853718e94d1bbe29aba61f2027",
    "search --n 5 --objective max-neg-edges-at-max-edges --forbid c3-minus --allow-balanced":
        "3ffc0f971b48c3d12474d94597e9bc07c07724fdc25b318f4a5422783e24c91b",
    "search --n 5 --objective max-neg-edges-at-max-edges --forbid c3-plus":
        "4d46373c3357a08252b4c8cfbcec99ea5bb7244b5c10c9a26fe0387eb95fb1e5",
    "search --n 5 --objective max-neg-edges-at-max-edges --forbid c3-plus --allow-balanced":
        "b8c24769c2c0a795da0ddc7c70cc20480fb8fe47f1bcf3a4f2aba7cfca0353e1",
    "search --n 5 --objective max-neg-edges-at-max-edges --forbid none":
        "499a661680e69387f7435392d718b31b9cd392c087d9bbe83d24d4753af9002d",
    "search --n 5 --objective max-neg-edges-at-max-edges --forbid none --allow-balanced":
        "e93cc8da0e670024c336288db84e37ad306e0c4308a63fc93298ff1f17b91482",
    "search --n 6 --objective max-edges --forbid c3-minus":
        "442cc111b36f786bd539be5dd9aac5f46ae431e0a943fdee4ea13b5f4be8e6e0",
    "search --n 6 --objective max-edges --forbid c3-minus --allow-balanced":
        "dbc5b12448bcdf650ae070acee7fcf6f6107849085d07b5f02382f63fa82e179",
    "search --n 6 --objective max-edges --forbid c3-plus":
        "b88562674f90b14e41f06705c5a15da8af08947df2cddc9f62e1eb9cb359bb89",
    "search --n 6 --objective max-edges --forbid c3-plus --allow-balanced":
        "abf3db2bc8835844168660b637934c7f15dad933a123e63858a0dd5cd83adca2",
    "search --n 6 --objective max-edges --forbid none":
        "b51d7f87a3a60f58f92ed291657cf48797d09eb86124dd2c0e6fd5042a9eef3a",
    "search --n 6 --objective max-edges --forbid none --allow-balanced":
        "4853a6300ac25449f373709d91e914616edbe371b09ca0be62e924146f1929d0",
    "search --n 6 --objective max-rho --forbid c3-minus":
        "123e08cad061ac7dfe54c2a274dcc538a93ba99ab6a0c2c8a9245b3a78becb57",
    "search --n 6 --objective max-rho --forbid c3-minus --allow-balanced":
        "cc86f2c622cd6fbbc7084d228cabd756875e5ff3c23fc6d5bed2ee70b56ac4e3",
    "search --n 6 --objective max-rho --forbid c3-plus":
        "0ecba0f89096dbc9ad61ebb0b1e6605867c14518a6c1c7c2c562545bbfda9bb0",
    "search --n 6 --objective max-rho --forbid c3-plus --allow-balanced":
        "a87dbbaf7132ebe615c396a638d820118f5906cb926562fb348e954e7d456711",
    "search --n 6 --objective max-rho --forbid none":
        "aa1830956b0c93353fce1d787d8996eb0123722d97a0e3894b70d1a044703159",
    "search --n 6 --objective max-rho --forbid none --allow-balanced":
        "b95a70d17324b9b4a0a024e7cc9442afcd4bb56a853ce7123984a3245244cad6",
    "search --n 6 --objective max-neg-edges-at-max-edges --forbid c3-minus":
        "28abfdcb26c204737cffc782e1bf639084026042db90f67ab66e39538b86187e",
    "search --n 6 --objective max-neg-edges-at-max-edges --forbid c3-minus --allow-balanced":
        "a8c70297435fd2a0eb0a6421ff4a15dfc06194992670948c47a8c5b52dc9d70b",
    "search --n 6 --objective max-neg-edges-at-max-edges --forbid c3-plus":
        "1522b0b3a2d1ed7a3d5bc6517cd73a773a71a8cdee39064b94ce05a29b34d1c8",
    "search --n 6 --objective max-neg-edges-at-max-edges --forbid c3-plus --allow-balanced":
        "029f699d3c547b7d08c7deea143d8e2492c4412c77b80cae2f23566be1843fe9",
    "search --n 6 --objective max-neg-edges-at-max-edges --forbid none":
        "a7c4c5621c945eb5decbc9ee7970aea9bd5cf17aff62fd747d51e01e46276999",
    "search --n 6 --objective max-neg-edges-at-max-edges --forbid none --allow-balanced":
        "1360ec6d3575e32c86b87b42f8ee2aa6443b28287565ec2f774660bfd6904dae",
    "search --n 7 --objective max-edges --forbid c3-minus":
        "eb7fb7b60e242f7ec19ce613fefd08a91b88eb89eea3cd8934534a8013af8244",
    "search --n 7 --objective max-edges --forbid c3-minus --allow-balanced":
        "03b5202b173da9ba53ad9ab36bf471b53a94f5592e211201830e258060d925b7",
    "search --n 7 --objective max-edges --forbid c3-plus":
        "513b310ef56993d46474559760b7b7da1687d540fad2a27799e3efeae66b51bd",
    "search --n 7 --objective max-edges --forbid c3-plus --allow-balanced":
        "22a2dc932d46fffd62449c19c06668a150bb924465be50f95d510af8e3b4142c",
    "search --n 7 --objective max-edges --forbid none":
        "41661663a5c64bfea1a73a8230c77bf3e1d862b5353b75179c749f41490be8f4",
    "search --n 7 --objective max-edges --forbid none --allow-balanced":
        "92c466c1b462d3e5a1a54614e5bb8dc78c6a20a79402892a7ccb6c24345faf1b",
    "search --n 7 --objective max-rho --forbid c3-minus":
        "ae65758e486b7fabef31b4c285e85bc96b4afafe011a74c69016ab64a173891e",
    "search --n 7 --objective max-rho --forbid c3-minus --allow-balanced":
        "5473ac7f076186e857c8e713706f4b24e63fb08bbd2402c7899dc043df9274db",
    "search --n 7 --objective max-rho --forbid c3-plus":
        "05ab3bbda117803ec429c0a4a36804264488060bc60eb5ae508072fdf2ec06ad",
    "search --n 7 --objective max-rho --forbid c3-plus --allow-balanced":
        "fa7d97e2537e68c26b04df36cd29b155cde928bb39def81ba4806838beec5aa0",
    "search --n 7 --objective max-rho --forbid none":
        "264585b5b0fb4d1457cc1b7f0b2f05dbb387a06c6b84d6ddf85583ce3113c957",
    "search --n 7 --objective max-rho --forbid none --allow-balanced":
        "29047b01f801da329a85ea1167b7c8c1a925e4568f9496f239140026599866db",
    "search --n 7 --objective max-neg-edges-at-max-edges --forbid c3-minus":
        "c864a14ad5d006b19d31474d5a6a04122959a2d3c82898cbb64bf6c37138fcd7",
    "search --n 7 --objective max-neg-edges-at-max-edges --forbid c3-minus --allow-balanced":
        "d3ac30a6939d7b62f6b3e58df44935501f5927e1153f683f43819351061a7bbd",
    "search --n 7 --objective max-neg-edges-at-max-edges --forbid c3-plus":
        "a873da2507ab7300a08706c6418c1f495de496568bbe28e7494f5252397a1e71",
    "search --n 7 --objective max-neg-edges-at-max-edges --forbid c3-plus --allow-balanced":
        "ec2c876aa6974769ef4371c3340f6e1cedb711df85ac59d550c65ac181845997",
    "search --n 7 --objective max-neg-edges-at-max-edges --forbid none":
        "5d5be7d80020fc213f4189d95b66b7c2a49e6b92162224dbadc2aa59d086b4f8",
    "search --n 7 --objective max-neg-edges-at-max-edges --forbid none --allow-balanced":
        "0461278816ddd0465646163a5472073e73f11ce306aaae1f2f148bce744a3035",
    "search --n 8 --objective max-edges":
        "57a6a958b193708828e56af049f8bd0ed9c4509d344d8a58c900d2a9fe9568a9",
    "search --n 8 --objective max-rho":
        "5350b09e2813c0dca7d80bc8fb931d2b9d2f84a483e26cb654f6736202c7e4d0",
    "verify --theorem t1_1 --n 3":
        "eb71442ad69274935e41fa6aca81a2bdc16fd44ab4fd7d3b20fdcc78320299bb",
    "verify --theorem t1_1 --n 4":
        "057c8e083ed3149c393a4ac430bf6a9cc4654806e8d6d89084179ffbf8fffc31",
    "verify --theorem t1_1 --n 5":
        "84c78cfc83e16ea315d247a6d66df50292f94164293a2ffbc4d4cb6a3c1bfd62",
    "verify --theorem t1_1 --n 6":
        "076cf4b29c18dad67be77ee675e955801ce9f6c67f0584fbfb4949bcb62e895b",
    "verify --theorem t1_1 --n 7":
        "ca04f827b506ec4ba94ebba80f0cd9194ed090d7d2f937b0f3b1bb2cc7c87591",
    "verify --theorem t1_1 --n 8":
        "046b67a8ccfbc6c3d319b67f61565f5806da9bbcdf548df28c0b623116d387b7",
    "verify --theorem t1_2_edges --n 5":
        "1cad4b1320981e07d14bcccdb681b6d0b58a70f067ae75a4a0c68773c26dc930",
    "verify --theorem t1_2_edges --n 6":
        "68f22f553ce5133b44231726005a9a4c440d1c527f72a54279028ecf193612f1",
    "verify --theorem t1_2_edges --n 7":
        "c2bdb468e88968580fab91742cf1c01c2232f604fe3fd2effeb4ff5661853f4a",
    "verify --theorem t1_2_edges --n 8":
        "96e6245a6f60b10fd8cb91c0ddcaed78c00216e6bbdc029a0d9ea0a5d70de2b9",
    "verify --theorem t1_3 --n 5":
        "2ab255cc9b61ef64fb9a682c478e1f620b91a5b8e51f8cdecfa347403a47e199",
    "verify --theorem t1_3 --n 6":
        "3992e9698bce6e953e019ca8e6626670a1ef485c5618cba59d33c75039f70ca2",
    "verify --theorem t1_3 --n 7":
        "fa27c5a2ac156ae3994920b9def618a0bd6f4db183b17209dc94662c2837b508",
    "verify --theorem t1_3 --n 8":
        "ca39f34b6b3f6ab97f3f9fa46e07660ba21712f6872f7a38a00c76f171720d37",
    "verify --theorem t1_2_neg --n 4":
        "4563b944c5a18cb72c9bf322bce5a6c1bd16d94720632953c37cd0b1f565d21b",
    "verify --theorem t1_2_neg --n 5":
        "807fa74e1d927081d9bd5b78eb53b5bc1f7e0b7701bcb997bb90ec07a8a939d8",
    "verify --theorem t1_2_neg --n 6":
        "c8e94745bed3db71dc264839c59cc1084438cc1362011dc67323060ca8717555",
    "verify --theorem t1_2_neg --n 7":
        "25185c0ae424b9a789ccfe25336e849108a0afd295651e7d241add74862a2a36",
    "verify --theorem t1_2_neg --n 8":
        "839ff7003f34d8333f04b7e8c0cc99e58f42ea9e8bdd4d3869eeec679ab875ca",
    "verify --theorem l2_2 --n 3":
        "bd7a51f6e88f0bd2107d579c0ebed0006d208b45d4a837d007a1afa8346dd8a0",
    "verify --theorem l2_2 --n 4":
        "c2d77137af7dc948b76b1fbbf199eee4a58ef4dc0c3dcfcf26f63388fa513ea7",
    "verify --theorem l2_2 --n 5":
        "b6b35b8c608c5cd07cc2cefb30944f670ef6e757a1fc98941f48b4ff22b00089",
    "verify --theorem l2_2 --n 6":
        "d58e362b660be87453d9c6d4881749fc90b00adf7606e9b5778f9aed5ccee8dc",
    "verify --theorem l2_2 --n 7":
        "57a50b3255129f25ee50adc9d2d9849f3a20c52c1d6814890967417f36c4b850",
    "verify --theorem l2_2 --n 8":
        "0d76ba20a95b311292a58e00b65afcac5c3962b3f1aa813bfe7c33251c1227ec",
    "verify --theorem l2_2 --n 9":
        "9f16d5dccd3080e000f917a9fd302826c998a416ac01646dcae1bac8f32fc4b8",
    "verify --theorem l2_2 --n 10":
        "111c39fe48e6806c071cb84e6f38a59073314c7b9dd7b9f3432edeaad2b83e45",
    "verify --theorem l2_2 --n 11":
        "2faa55aeeb0139a56e7eeeb5d674d9ec75393651593cdb8c1e6466e5395b12d2",
    "verify --theorem l2_2 --n 12":
        "67a61fd8a0e8ba1843a5a49325a38e5031fc23571a53fabd6e9a009d42c79265",
    "verify --theorem t1_2_neg --n 9":
        "31e813924493563e2367dd56797686d6fc293ef4d26ee824d6bdfd871439846e",
    "verify --theorem t1_2_neg --n 10":
        "4f11fb707d1dd1a0db27ee8b2a69c55d108158a3711de2dba5723e533c827967",
    "verify --theorem t1_2_neg --n 11":
        "e4bc5bfd1a486e1295e57f064e10456f532daf13f25f6bc6ab82129649939691",
    "verify --theorem t1_2_neg --n 12":
        "7c38d6cc95def6cf6e4e056732e49cd80be54865055764232b0761806094a2d7",
    "verify --theorem t1_2_neg --n 13":
        "b19866103d1624f7b1f69b4966b8a3ac0ad5bcd550a5a1f09b6e6a84401ccf42",
    "verify --theorem t1_2_neg --n 14":
        "143318d37632e1d2b939e38e27c8256dd4d468584fd4a8cd2218053f911ca95c",
    "verify --theorem t1_2_neg --n 15":
        "f736e5fa147b1f6a45b14821e11da7a90c6e9788ee1ed960f665b7781f8b0cf4",
    "verify --theorem t1_2_neg --n 16":
        "96b494023f4928c68819d0deaf493c5c662c74387c19b784a6a770ed93541391",
    "verify --theorem l3_6_order --n 5":
        "0e2a88018f41606aca6762c7e9c3c5d4b387aa99f39a66839577f0f9a226c68b",
    "verify --theorem l3_6_order --n 6":
        "3bdb227a96fc935e0a9edd67c6f2b254360289803d30547d628917ab949a98f8",
    "verify --theorem l3_6_order --n 7":
        "252cdd93c7d7f6d16061c1fa161b6f879bff087f0068b19e172417a32b1df0f0",
    "verify --theorem l3_6_order --n 8":
        "c2dbbc1540e68077eff4a6ef973cc166f6f6929eff9769e523fe485ed3f47560",
    "verify --theorem l3_6_order --n 9":
        "690875dc179487a03ca0c7fe5c48615bdc30339cc8ee502a8fac367ab3fd31f0",
    "verify --theorem l3_6_order --n 10":
        "71b818e7158498fe907021e7e13f16595fa9a93ddcd3e263934f6e29d7150777",
    "verify --theorem l3_6_order --n 11":
        "29592a3a93368daa98b31ff0a2e5e6610b4feef2ebe8c32fb0bca2b0b495b9ef",
    "verify --theorem l3_6_order --n 12":
        "4c80f5655d4f90c0352619d1d003c2c48a0c9f498a647ed8f6ee5cab1dca0cad",
    "verify --theorem l3_6_order --n 13":
        "875ee968b0792c03f177f60d475eb4c36c5edf819f26496143bf1e47596882a6",
    "verify --theorem l3_6_order --n 14":
        "93790a96dafdd7abb5664fe2d8c04a084c0528312a6dd815605a2f9523ee53a8",
    "verify --theorem l3_6_order --n 15":
        "70c5db661923f49348ba82a2abb071da1947c6f706ed6309c92a18e35611844b",
    "verify --theorem l3_6_order --n 16":
        "331ff6436fc6f795f546b23370020efc010e67331629b90acd2d8f011def7a47",
    "verify --theorem l3_6_order --n 17":
        "cf4ae43240bbdf4691e8892db48f8b83a6a6e8b1518f471182deddb4a3720263",
    "verify --theorem l3_6_order --n 18":
        "dd9f2ab49abff94ebd9cfe054e4a6b1946d752589857de38c781a1aeb9a6e317",
    "verify --theorem l3_6_order --n 19":
        "5262b1bea49dbe38ae821120b4b82922b224f8ee7bff713b2b0a9ecaa00418f0",
    "verify --theorem l3_6_order --n 20":
        "7d2541ed8e3fc3f558533745fa4a2ffba61298b222d8554e3a718b5001d79dc2",
    "verify --theorem l3_6_order --n 21":
        "5c2b713e9406e98b914dcc059c9aaf20c61fc0018627f577a9c96bb9a39240c9",
    "verify --theorem l3_6_order --n 22":
        "5a9b3f19172fc1ed91241896fbee0a94fd8d09bfba4ad597d389d1b509553fe1",
    "verify --theorem l3_6_order --n 23":
        "9c78cea30ca5a4f9bd940f1d7a07768fb94ce9b5e40e380e3a810400299f6498",
    "verify --theorem l3_6_order --n 24":
        "5f8ede2014a9b4f638877766e5c51030ddece4a70b0456c8ab2d6cdba6ca9914",
    "verify --theorem l3_6_order --n 25":
        "e2590bd166df1b7f66a878114bceed8bfcd2164e1713eab61410fa88b921b580",
    "verify --theorem l3_6_order --n 26":
        "abf7d1f014d28a35a234661f59e84f09dae00dd8b9e7d58b287e7424864ef804",
    "verify --theorem l3_6_order --n 27":
        "57505b5203d77c759bd17245cd308785783327acf5ca1e96d2932de94d8a97b4",
    "verify --theorem l3_6_order --n 28":
        "403a82819785d62df79dce533472a37e59a44d28105f01647a6f92f3847a4a92",
    "verify --theorem l3_6_order --n 29":
        "ce40d9ef3dbc37f690821f35d93d7190618422139dd59f5740348bb918e0515b",
    "verify --theorem l3_6_order --n 30":
        "8667f10079d4c0690d1a2c604b3fdb7b1e63beb6ba4e1183514a4635bf9c85e7",
    "verify --theorem l3_6_order --n 31":
        "01259d329ebe3697a72b3065554300f9297d8f98220afddcfb802cef73eefcbe",
    "verify --theorem l3_6_order --n 32":
        "f24d718afc104349642fdb023b18fd9d916a58bff70500d18852e9d8022b27c5",
    "verify --theorem l3_6_order --n 33":
        "c8fc8a0572f61b93486dab2084002b38fe24df136294f1721a5b0dc496a60803",
    "verify --theorem l3_6_order --n 34":
        "2b0828e464c66740a50b048a003bca14c6678cce1abbf60d31cce60ba4aef822",
    "verify --theorem l3_6_order --n 35":
        "aaebf8d8c8113869eb9287e4e30aaa90f6ef5a846c87baa974e9b0a1cbd9650a",
    "verify --theorem l3_6_order --n 36":
        "f73046e91140d6173b42d6e667215f2078a0f34d92504a88d0aaac9d8f184ea4",
    "verify --theorem l3_6_order --n 37":
        "e5f6e37b7e3642d5f42fa93f25e1fdb3394e37d68bed723252e6af77b075f36f",
    "verify --theorem l3_6_order --n 38":
        "71a87fe0fe1a6decdb254589e4202c762b90208dd7a68911b843c92ad9625b37",
    "verify --theorem l3_6_order --n 39":
        "ddd7377ca9bc20b8aa298ce1f0968e2c76b51c43857c4611d88972995785412e",
    "verify --theorem l3_6_order --n 40":
        "b0f2b5f2a2e8f2ef06a0a4358554d7db3cb255dd9c2840f019e5a8ab6e30c467",
}

_KEYS = "witness keys capped at 1048576 signatures, got"

# the n = 8 NONE cells whose tied K_8 signatures, every signing or every one
# but (K_8, +), pass core's one work cap on witness keys
PINNED_REFUSALS = {
    "search --n 8 --objective max-edges --forbid none": f"{_KEYS} 2097151",
    "search --n 8 --objective max-edges --forbid none --allow-balanced": f"{_KEYS} 2097152",
    "search --n 8 --objective max-neg-edges-at-max-edges --forbid none": f"{_KEYS} 2097151",
    "search --n 8 --objective max-neg-edges-at-max-edges --forbid none --allow-balanced":
        f"{_KEYS} 2097152",
}


def test_two_graph_cells_n7():
    # every signing of K_7 ties under NONE. K_n is admissible there, so the
    # optimum of MAX_EDGES is n(n - 1)/2, and (K_n, -) makes every edge
    # negative, so that of MAX_NEG_EDGES_AT_MAX_EDGES is n(n - 1)/2 too
    # (perfbench's workloads.selector_optimum). The edge witnesses are the 54
    # two-graphs on 7 vertices (OEIS A002854), 53 without the balanced
    # (K_7, +), and the negative-edge maximum is (K_7, -) alone
    for require_unbalanced, classes in ((True, 53), (False, 54)):
        for objective, witnesses in (("MAX_EDGES", classes), ("MAX_NEG_EDGES_AT_MAX_EDGES", 1)):
            rep = search(SearchConfig(n=7, objective=objective, forbidden="NONE",
                                      require_unbalanced=require_unbalanced))
            assert rep.optimum == 21 and len(rep.witnesses) == witnesses
        assert rep.witnesses[0] == build_complete(7, -1)


def test_edge_maximum_n8():
    rep = search(SearchConfig(n=8, objective="MAX_EDGES"))
    assert rep.optimum == edge_bound(8) == 22
    assert sorted(rep.matched_family) == ["gst(1,5)", "gst(2,4)", "gst(3,3)"]


def test_spectral_maximum_n8():
    rep = search(SearchConfig(n=8, objective="MAX_RHO"))
    assert rep.optimum == pytest.approx(rho_bound(8), abs=1e-9)
    assert rep.matched_family == ["gst(1,5)"]


def test_pruned_augmentation_matches_the_unpruned_loop_n8():
    assert list(map(bytes, _canonical_children(8)[0])) == unpruned_canonical_children(8)


def test_deletion_test_rows_are_pinned_n8(monkeypatch):
    # 67,141 without the degree bound
    assert deletion_rows(monkeypatch, 8)[8] == 16950


def test_signed_code_matches_per_order_reference_on_k8():
    # the reference walks 40,320 optimal orders each, the key one order per
    # arrangement of signed twins; the tier-1 test stops at K_7
    for g in (build_complete(8, 1), build_complete(8, -1), build_kn_switched_maxneg(8)):
        assert canonical_signed_code(g) == per_order_signed_code(g)


def test_signed_code_matches_per_order_reference_on_moved_halved_k8():
    # the halved K_8 relabelled, and relabelled then switched: K_8 labels
    # to one order, and 70 arrangements of it are evaluated
    g = build_kn_switched_maxneg(8)
    rng = np.random.default_rng(8)
    moved = permute(g, rng.permutation(8))
    switched = switch(moved, [0, 3, 5])
    for h in (moved, switched):
        assert canonical_signed_code(h) == per_order_signed_code(h)
    assert signed_isomorphic(g, moved) and not signed_isomorphic(g, switched)


def test_every_signing_of_the_connected_classes_n5_matches_the_reference():
    # one labelled representative of each of the 21 classes, every signing
    # of its edges, keyed with and without switching
    count = 0
    for adj in connected_graphs_up_to_isomorphism(5):
        for g in all_signatures(adj):
            assert canonical_signed_code(g) == per_order_signed_code(g)
            assert core._signed_keys(g.adj[None], switched=False)[0] == per_order_signed_code(
                g, switched=False)
            count += 1
    assert count == 3_088


def test_signings_of_k7_fall_into_the_two_graphs_on_7_vertices():
    # every switching class of K_7 has one signing whose edges at vertex 0
    # are positive: the 2^15 of them key to the 54 two-graphs on 7 vertices
    # (OEIS A002854)
    iu, ju = np.triu_indices(6, 1)
    bits = (np.arange(1 << 15)[:, None] >> np.arange(15)) & 1
    stack = np.ones((1 << 15, 7, 7), dtype=np.int8)
    stack[:, 1 + iu, 1 + ju] = stack[:, 1 + ju, 1 + iu] = 1 - 2 * bits
    stack[:, np.arange(7), np.arange(7)] = 0
    keys = core._signed_keys(stack, switched=True)
    assert len(set(keys)) == 54
    sample = np.random.default_rng(7).choice(1 << 15, 20, replace=False)
    assert [canonical_signed_code(core.SignedGraph(stack[i])) for i in sample] == [
        keys[i] for i in sample]


def test_switching_isomorphic_on_a_moved_halved_k9():
    # one order of K_9, expanded into the 126 arrangements of the two
    # signed-twin classes
    g = build_kn_switched_maxneg(9)
    rng = np.random.default_rng(9)
    h = switch(permute(g, rng.permutation(9)), [1, 2, 6])
    assert switching_isomorphic(g, h) and switching_isomorphic(h, g)
    assert not switching_isomorphic(g, build_complete(9, -1))


@pytest.mark.parametrize("argv", sorted(PINNED_REPORTS))
def test_report_pinned(argv):
    out = io.StringIO()
    assert run([*argv.split(), "--format", "json"], out=out) == 0
    text = out.getvalue()
    assert text.endswith("\n")
    assert hashlib.sha256(text[:-1].encode()).hexdigest() == PINNED_REPORTS[argv]


@pytest.mark.parametrize("argv", sorted(PINNED_REFUSALS))
def test_refusal_pinned(argv, capsys, monkeypatch):
    # refused before any tied signature becomes a matrix
    def no_stack(*args):
        raise AssertionError("signature stack built")

    monkeypatch.setattr(SEARCH, "_signature_stack", no_stack)
    out = io.StringIO()
    assert run([*argv.split(), "--format", "json"], out=out) == 2
    assert out.getvalue() == ""
    # search prints its progress lines to stderr before the error
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"error: {PINNED_REFUSALS[argv]}"
