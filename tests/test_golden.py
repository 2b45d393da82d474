"""Golden output guard: the exact stdout bytes of `bcopt solve`, `bench`,
`exact`, `nps` and `verify` on the shipped fixtures, pinned by sha256,
plus an independent check of the exact oracle that every acceptance test
leans on.  `solve --strategy lagrangian` and `nps --strategy lagrangian`
pin the Lagrangian path, which `--strategy auto` never reaches on these
fixtures.  A refactor of the search code must leave all of these
unchanged."""

import hashlib
import itertools
import json
import pathlib

import pytest

import bcopt as B
from bcopt import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = sorted(p.name for p in (ROOT / "fixtures" / "corpus").glob("*.json"))
SOLVE_PATHS = [f"fixtures/corpus/{name}" for name in CORPUS] + [
    "fixtures/fig1.json",
    "fixtures/fig2_shape.json",
]

# (instance, epsilon, alpha, class r, candidate ids): exchange sets, where
# the whole Δ walk runs, and non-exchange sets, where a witness ends it
# early; the BI cases need swap probes
EXCHANGE_CASES = [
    ("fixtures/fig1.json", "1/2", "11", 2, [0, 1]),
    ("fixtures/fig1.json", "1/2", "11", 2, [0]),
    ("fixtures/fig1.json", "1/2", "11", 2, []),
    ("fixtures/corpus/bm_007.json", "1/3", "14", 2, [3]),
    ("fixtures/corpus/bm_007.json", "1/3", "14", 2, []),
    ("fixtures/corpus/bi_004.json", "1/3", "40", 4, [2, 3, 6, 7]),
    ("fixtures/corpus/bi_004.json", "1/3", "40", 4, [3, 6]),
    ("fixtures/corpus/bi_004.json", "1/3", "40", 4, [2, 6, 7]),
    ("fixtures/corpus/bi_006.json", "1/3", "37", 4, [0, 3, 7]),
    ("fixtures/corpus/bi_006.json", "1/3", "37", 4, [1, 4, 6]),
]

# (instance, epsilon, candidate R): R = ∅ searches everything and fails,
# R = all heavy elements stops at the first set reaching the target
REPRESENTATIVE_CASES = [
    ("fixtures/fig1.json", "1/8", []),
    ("fixtures/fig1.json", "1/8", [0, 1]),
    ("fixtures/fig1.json", "1/2", []),
    ("fixtures/corpus/bi_003.json", "1/8", []),
    ("fixtures/corpus/bi_003.json", "1/8", [0, 2, 3, 4, 6]),
    ("fixtures/corpus/bi_005.json", "1/6", [0, 3, 4, 5, 6, 7, 8]),
    ("fixtures/corpus/bm_007.json", "1/6", [0, 1, 3, 4]),
]


def _cases():
    out = {}
    for path in SOLVE_PATHS:
        for eps in ("1/2", "1/3"):
            out[f"solve {path} {eps}"] = (["solve", path, "--epsilon", eps], None)
        out[f"solve lagrangian {path}"] = (
            ["solve", path, "--epsilon", "1/2", "--strategy", "lagrangian"], None
        )
        out[f"nps lagrangian {path}"] = (
            ["nps", path, "--strategy", "lagrangian"], None
        )
    out["bench corpus"] = (
        ["bench", "fixtures/corpus", "--epsilons", "1/2,1/3"], None
    )
    out["exact fig1"] = (["exact", "fixtures/fig1.json"], None)
    for path, eps, alpha, r, ids in EXCHANGE_CASES:
        argv = ["verify", path, "--check", "exchange-set", "--epsilon", eps]
        cand = {"alpha": alpha, "r": r, "ids": ids}
        out[f"exchange-set {path} {eps} {ids}"] = (argv, cand)
    for path, eps, ids in REPRESENTATIVE_CASES:
        argv = ["verify", path, "--check", "representative", "--epsilon", eps]
        out[f"representative {path} {eps} {ids}"] = (argv, {"ids": ids})
    return out


CASES = _cases()


def case_argv(name, tmp_dir):
    """The argv of one case; a candidate file goes into tmp_dir."""
    argv, cand = CASES[name]
    if cand is not None:
        cand_path = pathlib.Path(tmp_dir) / "candidate.json"
        cand_path.write_text(json.dumps(cand), encoding="utf-8")
        argv = argv + ["--candidate", str(cand_path)]
    return argv


# sha256 of the stdout bytes of each case
GOLDEN = {
    'bench corpus': (
        '1ac723acecb55350e1b72a191948fb57975702bfdee8ec4319488563e5cdf591'
    ),
    'exact fig1': (
        'e6697cb03e2e956c6012f9cf4b8def311259ddde562529117adba7be5e39e004'
    ),
    'exchange-set fixtures/corpus/bi_004.json 1/3 [2, 3, 6, 7]': (
        '83bcc63534d591edfd0aa37452199ac465b8f2b56d6f5640159f3a834deade3b'
    ),
    'exchange-set fixtures/corpus/bi_004.json 1/3 [2, 6, 7]': (
        '4b72e4e462e9d36403aa68791d7831b6ceb04a39e9d7b11a0f7311c52aedd6f0'
    ),
    'exchange-set fixtures/corpus/bi_004.json 1/3 [3, 6]': (
        '2cca04cf1f4c437a2a67a426c34c08f252ffcdeb6ad18623c3f668ef037ebbca'
    ),
    'exchange-set fixtures/corpus/bi_006.json 1/3 [0, 3, 7]': (
        'bb9068b10484d9bdde5b91da961980691b1faa2fdd01d52533a7bd4719fb1ae5'
    ),
    'exchange-set fixtures/corpus/bi_006.json 1/3 [1, 4, 6]': (
        'dad949c67f570da4cd9225fd227fc35a8447c50486130ddf9d9604c4e8ee607a'
    ),
    'exchange-set fixtures/corpus/bm_007.json 1/3 [3]': (
        '0e3c76427aaa0409e0bdba17de3948369d1af9c70ec2784896a6262885843516'
    ),
    'exchange-set fixtures/corpus/bm_007.json 1/3 []': (
        '23b75328cdf269be97a2c218c5045753328a5cd16d3518860f1632738aad351c'
    ),
    'exchange-set fixtures/fig1.json 1/2 [0, 1]': (
        'ff66949ce29939f59d20aad8e1f7fa97697cce907777b7db7b3d1f16bec3bfe0'
    ),
    'exchange-set fixtures/fig1.json 1/2 [0]': (
        '3ab36075bb7fcb646fa64921ce0def3114a7eea64fac9943295a5088c5728b77'
    ),
    'exchange-set fixtures/fig1.json 1/2 []': (
        'e4a089d0dc761a261f1ad4fadc10935c5f9f4480e3625b1596f1d0acff275e8c'
    ),
    'nps lagrangian fixtures/corpus/bi_000.json': (
        '75b7ec0a0774faa59f1d9a343f0116bfda0f2c0574625a73908a7c7170dc7447'
    ),
    'nps lagrangian fixtures/corpus/bi_001.json': (
        '54727f5b5bd66d8f9700832b00f77d8b5643c38a626b0ead17aee2001975fbab'
    ),
    'nps lagrangian fixtures/corpus/bi_002.json': (
        '5c2def259e3d0d6d2bbda0bc0d81b34b857e22e26ad8ed63eb7d4cc3f82a692c'
    ),
    'nps lagrangian fixtures/corpus/bi_003.json': (
        '15a0d881e0902d2095f61ae10c9a57479592095544f83ec5bf9de211b7f6a195'
    ),
    'nps lagrangian fixtures/corpus/bi_004.json': (
        '29fa04e70f3a84581483cfdb67fcd976f62174280ef5837674365a844baba4f5'
    ),
    'nps lagrangian fixtures/corpus/bi_005.json': (
        'a9383d0ad4a847d2736d51b762e34458d94e6b5b7135004350fb64434801647e'
    ),
    'nps lagrangian fixtures/corpus/bi_006.json': (
        'f9a733bc39dbaa612fa497c5bc0f4cae02de1af80b2ea178cf434b97e11f90be'
    ),
    'nps lagrangian fixtures/corpus/bi_007.json': (
        'd956148da6b8eb8bc94eed87b991df54cfa1945ad65db25e06feb21c9d834f5d'
    ),
    'nps lagrangian fixtures/corpus/bi_008.json': (
        'e4807c7a5fa252dc55603945a19dd99be80795011f07136b124d72f60d2f44c4'
    ),
    'nps lagrangian fixtures/corpus/bi_009.json': (
        'ff80e81e87349b23a6fe7ef71f5c91127691159a51b4c7875096068ec4e0333a'
    ),
    'nps lagrangian fixtures/corpus/bi_010.json': (
        '84aa8b82a27f18738ab48505f1400dfdc97e374aeb152440ddf6da5331442001'
    ),
    'nps lagrangian fixtures/corpus/bi_011.json': (
        '56c9bc4441d944244a31ae53c7380f18300087846280e1b6e7c28d86160d5d40'
    ),
    'nps lagrangian fixtures/corpus/bi_012.json': (
        '1fef2c48800c7183794f5c2aff17a1bc81e90b887544f4f269ead2c313a79328'
    ),
    'nps lagrangian fixtures/corpus/bi_013.json': (
        '168bb60bea5f28f3b28b2e6528f0a30c45bedec2940f56d31960a36b446a0141'
    ),
    'nps lagrangian fixtures/corpus/bi_014.json': (
        'c8e3b6343f656d5a1025dcebfbb8c04e82b6c2e82eba67ddcfb0dfb51604b117'
    ),
    'nps lagrangian fixtures/corpus/bi_015.json': (
        '91342237b77025aff0d2b101752d5daa7baddd7c5a1c9a0013385ed081e25740'
    ),
    'nps lagrangian fixtures/corpus/bi_016.json': (
        '5ee22a149306dcb29315aaf00e38d15cca1cc6548f37b2b2d648547738c7f0dd'
    ),
    'nps lagrangian fixtures/corpus/bi_017.json': (
        '54a48e7df1ec79065a9a94370735b3673f4b552f213f84408df989706d2fe322'
    ),
    'nps lagrangian fixtures/corpus/bi_018.json': (
        '4f082364277bfbfbdbf3c1d57c8073e5bf5926a4cf6d1945f79b3e459cef549b'
    ),
    'nps lagrangian fixtures/corpus/bi_019.json': (
        'd5939c8739c9c7163338d80c9480fd82de6533a794c6106154271142895373ca'
    ),
    'nps lagrangian fixtures/corpus/bm_000.json': (
        '138cb0185039c96106c9b59024cd9622c9e4a7f7276a293e7415d683b015efb5'
    ),
    'nps lagrangian fixtures/corpus/bm_001.json': (
        'b386c9d667a5788cc9303c534dc044ee33715d7f0a38b5550275d80de71461a1'
    ),
    'nps lagrangian fixtures/corpus/bm_002.json': (
        '0f55ce4a5a5097ff892b4c17b835b4418bfef0b3ff5253e2ebe6aa78ac574743'
    ),
    'nps lagrangian fixtures/corpus/bm_003.json': (
        '4a938d005ccf8cfc317a2fe6095e3fd092b31977bf0b4b77500831b0d3b8f41f'
    ),
    'nps lagrangian fixtures/corpus/bm_004.json': (
        '105bb563770e0026bea8d76c884bad9764d891755485efb44ac5afe754f72721'
    ),
    'nps lagrangian fixtures/corpus/bm_005.json': (
        'db443182cabe5afe5a2fb561189132263097692fa5cb52098aa005491b35e401'
    ),
    'nps lagrangian fixtures/corpus/bm_006.json': (
        '8c63291046aab2327153a98834dcd5bb8694ae76b64b8c79a8de4b1d96e7fa33'
    ),
    'nps lagrangian fixtures/corpus/bm_007.json': (
        '656b94d4e3763b4e71a8efc677f5c94cc8bfbbcf72791d644791b6ad3da82751'
    ),
    'nps lagrangian fixtures/corpus/bm_008.json': (
        '772d08a113be44f4fcf4da5ec9384d37fde1a1c4b9cb6e8e33dd10e82fe75ecd'
    ),
    'nps lagrangian fixtures/corpus/bm_009.json': (
        '5b12c3411cfbb19e06c0305cbecfadf962721de225b124b71aea6f881d8df39b'
    ),
    'nps lagrangian fixtures/corpus/bm_010.json': (
        '0e066c39e6c658b1f49022c40bd3959ff2d1b828c031e578a173115fe18e6d9d'
    ),
    'nps lagrangian fixtures/corpus/bm_011.json': (
        '05ee97347ceb4dbd8c4a3aabb581f7f5f9c6804af4d64db4fae835bd10e566c4'
    ),
    'nps lagrangian fixtures/corpus/bm_012.json': (
        'f94b2d5fbcb0207b13adb8d4515ae084b1c5fde1a9315fea754aba968c61583d'
    ),
    'nps lagrangian fixtures/corpus/bm_013.json': (
        '2597fdd203f3da60718889177ad5609ffe5b192b03786f976d8a6a48db5e2a49'
    ),
    'nps lagrangian fixtures/corpus/bm_014.json': (
        'e564a133e0328517704a1698ea64da78ae8a744078d438f37f9ea7a700d1f2fa'
    ),
    'nps lagrangian fixtures/corpus/bm_015.json': (
        '6af73bef2c6565d4cc9275e07574c903c2250455e11bedecad868e7b1d3becd5'
    ),
    'nps lagrangian fixtures/corpus/bm_016.json': (
        '90a4b7e91d31fcc1a60f18451214a44e7547d8e1f22dc3eeb07d4392984ca838'
    ),
    'nps lagrangian fixtures/corpus/bm_017.json': (
        'f2d1f48edeeb49c58173fb091117a54517971847bb4e06607976ad5b4d916dc6'
    ),
    'nps lagrangian fixtures/corpus/bm_018.json': (
        'cb80e6589c8f956a64455be655ab14016685c6f7ca211db82b70f586fba6e338'
    ),
    'nps lagrangian fixtures/corpus/bm_019.json': (
        '04df73fb9f0051098b886b9d3240cabcf35280a7426d9e66cd33396e26c8d235'
    ),
    'nps lagrangian fixtures/fig1.json': (
        'ead33f6db71e450229d6eb3681b62dbcbe794bb39bf9b42da8d956c58a12649f'
    ),
    'nps lagrangian fixtures/fig2_shape.json': (
        '695918f8a925dfc2e26be82661ec008e50a89ca1102301d02320066eac9d3a03'
    ),
    'representative fixtures/corpus/bi_003.json 1/8 [0, 2, 3, 4, 6]': (
        '63a20d091711cce61157438e76ca6f523b6aa538b5d1ff1e7958e7cefa126f75'
    ),
    'representative fixtures/corpus/bi_003.json 1/8 []': (
        '944c42464f28140d9efe7485340f66a5c8bf4ee917115216a4c6664161235c8a'
    ),
    'representative fixtures/corpus/bi_005.json 1/6 [0, 3, 4, 5, 6, 7, 8]': (
        '9f56c2bc5c2b880c72a672430711ce416c74de6c405b5d2e265701d7c860c0a6'
    ),
    'representative fixtures/corpus/bm_007.json 1/6 [0, 1, 3, 4]': (
        'be9c0311316ddec96a17c9f47716a5c0923d9f20170bcef946b458e857d25ba1'
    ),
    'representative fixtures/fig1.json 1/2 []': (
        '0df9077b2af3e0625a6ffa17a7cc78327ded8904d3e219067b2fda083774120d'
    ),
    'representative fixtures/fig1.json 1/8 [0, 1]': (
        '47668df9843b60ccc82fe6d1687ad8001ba01fe8a991d497c1008f3cfa8eb098'
    ),
    'representative fixtures/fig1.json 1/8 []': (
        '203ff00c4041bd3369101928fe401bc0cc286ccce0841b5c6a836e43ace6b23b'
    ),
    'solve fixtures/corpus/bi_000.json 1/2': (
        '410366cb6fefec03d74cb9ae989002e4be3e6a9ed2b111da31ae1a60d02724f6'
    ),
    'solve fixtures/corpus/bi_000.json 1/3': (
        'b47c8d54fbd959695eea6832f68d74fef6dbfd6b0b5c79ca659a988fe84497a8'
    ),
    'solve fixtures/corpus/bi_001.json 1/2': (
        '4aa2b10b69509d2d3456eadccbb1d9f439b991a6657f76881beb08dd76dec005'
    ),
    'solve fixtures/corpus/bi_001.json 1/3': (
        'c2babe7ab307d066a5bd7e40901af183a051b01f17a2e34a852b59970e7fd0b1'
    ),
    'solve fixtures/corpus/bi_002.json 1/2': (
        '1b13a23f5dee5c23521b3e06410c065d9cf4d2a7fb9afa6f1c5bd190970ccccd'
    ),
    'solve fixtures/corpus/bi_002.json 1/3': (
        '91b4144678133a21b537c75e67686bac203906abd39eb2a636a38b82ca93d35f'
    ),
    'solve fixtures/corpus/bi_003.json 1/2': (
        '630c83606bb78ef1617a0e934eceb87c3c309f2ce43120b09f5b404a50266de2'
    ),
    'solve fixtures/corpus/bi_003.json 1/3': (
        'c7633ee4b899f0420f0e72e2eff606f0ad4e951322554cc884e63d5969a7686e'
    ),
    'solve fixtures/corpus/bi_004.json 1/2': (
        'b43fafbd07f0d00d18a54d6deb5daf3a3184ffc2c47329e81c96871385fa0f7f'
    ),
    'solve fixtures/corpus/bi_004.json 1/3': (
        '702f5f3d84c94046839e703b0bd8e82e866a463940263b62273719c7477d888e'
    ),
    'solve fixtures/corpus/bi_005.json 1/2': (
        '48c74e94114550f2cf3fa3bb939ef2aa6e3e7c17c4c9cee0280e4d849120ec62'
    ),
    'solve fixtures/corpus/bi_005.json 1/3': (
        '00cd7c6aecede163f94aa4ffe767b571fa50ee54435186e5e032c74da7617698'
    ),
    'solve fixtures/corpus/bi_006.json 1/2': (
        'f3ebf5db4912bb3dea51b6cef7fd2d304bc9900e9787c8df7a5b2bd9f79d868b'
    ),
    'solve fixtures/corpus/bi_006.json 1/3': (
        '9b3018185c7c8b1f978ce01dfb759b4b3ed8624a654a1bc2ce55bbcbe04e73e4'
    ),
    'solve fixtures/corpus/bi_007.json 1/2': (
        '02ad4fb24a317b8656a569717e298e2fc46510100e0fefb04a0dd9ce6e9ced95'
    ),
    'solve fixtures/corpus/bi_007.json 1/3': (
        '7f16ae6c9ce1543577fd3dad8702af320f53b03eb585b527eb65c34e1b39be6d'
    ),
    'solve fixtures/corpus/bi_008.json 1/2': (
        '89ac58057016b5208666806c03e4a7802307c6585bd28b3875f7e212459d63b9'
    ),
    'solve fixtures/corpus/bi_008.json 1/3': (
        'fdaa9cde6a43636561fba63c7a5ffb33bee7301eabd0641a00d01bc65a08485e'
    ),
    'solve fixtures/corpus/bi_009.json 1/2': (
        'ea1130de6cefc15c6b6b58f198fd6d71171664cc3b0d0a545bcd8786a133f97c'
    ),
    'solve fixtures/corpus/bi_009.json 1/3': (
        '036bdbcaf4838e91ce16c088bbb42d2350f797358607bdf657da65b264351000'
    ),
    'solve fixtures/corpus/bi_010.json 1/2': (
        '826fab4e2685a93726b2aa97919b1906cc314255a11f08cabfe89adbe1c9df5f'
    ),
    'solve fixtures/corpus/bi_010.json 1/3': (
        'f3ac0308a4c5b94fa948d7cfc4375b6efea9df4222bc25027046dae6e1338061'
    ),
    'solve fixtures/corpus/bi_011.json 1/2': (
        'b41a672a53d0adad82be51d86e456ed609d06d3f0da9be584770b3f3a4ab8c72'
    ),
    'solve fixtures/corpus/bi_011.json 1/3': (
        '71e956df74f44fb111c05f2cb74521c7afa4bbdbeb4142422b620128c51f198c'
    ),
    'solve fixtures/corpus/bi_012.json 1/2': (
        '3e12a656d3c51f0a314d1978a4716fd4cef61c3824b50af396683bc181c12d3a'
    ),
    'solve fixtures/corpus/bi_012.json 1/3': (
        '6feab3072aed9184061863e55c2dc18b139c6f48387f1eba49106d3201fd054d'
    ),
    'solve fixtures/corpus/bi_013.json 1/2': (
        '9a47d8789bad1c807306d0f17d1ec5d17c67fb65ed83b0fe3e34838383fb27a9'
    ),
    'solve fixtures/corpus/bi_013.json 1/3': (
        '608363b7aa06a3a147312b612f22730154bb6829f7dd06c98b630b72fa353a3f'
    ),
    'solve fixtures/corpus/bi_014.json 1/2': (
        '86bd2c98fd4f2f976c58aa1460bf413d540314ca1e820e27e8df7b88427d090a'
    ),
    'solve fixtures/corpus/bi_014.json 1/3': (
        '3be01268af1edad93003451e58fe584b1c4e2107f213eacc22134d3816d9a80c'
    ),
    'solve fixtures/corpus/bi_015.json 1/2': (
        '6302dcf55444ca5ef8ae13a8d0752376275384c4c73f30f4cc1fe0c36104c16b'
    ),
    'solve fixtures/corpus/bi_015.json 1/3': (
        '6468fc401da955afe7dc4e0ae142db964ef689338e6ee289d0cd63ca3dc5bde3'
    ),
    'solve fixtures/corpus/bi_016.json 1/2': (
        'bb92e8ac3b68eb62fce80a8619b2beb7d70bb791588e6b1fa6c04e90696f39be'
    ),
    'solve fixtures/corpus/bi_016.json 1/3': (
        '6ad6fbcf60ac4cdedd148c7daa61409114338d41d1436b165633290a0b5154b3'
    ),
    'solve fixtures/corpus/bi_017.json 1/2': (
        'cb86cd3b06ff68920ebe29012fedeb8dbb19c34492c1a52988eef252a3419bd1'
    ),
    'solve fixtures/corpus/bi_017.json 1/3': (
        'a84d75f74d900aed7280e143159c7aff3f9d5deef55ad7f62ba27b906c92352a'
    ),
    'solve fixtures/corpus/bi_018.json 1/2': (
        '2d22b27eb9e2e1fcff1b76367c8a3d956d1b66c8dc796a12c299f8ceb3ba8623'
    ),
    'solve fixtures/corpus/bi_018.json 1/3': (
        '1b6faeefdf6623cffc5a6f9c431798bb003c9fadf54d7391c5060d0c3d26f13c'
    ),
    'solve fixtures/corpus/bi_019.json 1/2': (
        'dac335f29be7dd44393b2a484339d1984ea97efa8d8999424f71dfb3af69bc78'
    ),
    'solve fixtures/corpus/bi_019.json 1/3': (
        '5dc7372b4398c16d716f208e2f5f25fb195b431928d7ab2ea785c6185622b0ac'
    ),
    'solve fixtures/corpus/bm_000.json 1/2': (
        '42a9292a6fd7fc6d380aa8f0d20cde53ac07fa0a026e5b18c2e926d3cd84b2ff'
    ),
    'solve fixtures/corpus/bm_000.json 1/3': (
        '8a8a4bdbeb66be0efd7a11cfa58f4693e55193828917a47b3c67dc299337685b'
    ),
    'solve fixtures/corpus/bm_001.json 1/2': (
        'ac6791ba0c93099566c0bce4a78e39e4aa1ef4cf8038c212f5045f104123ecaa'
    ),
    'solve fixtures/corpus/bm_001.json 1/3': (
        '3069904147b7a8c8509f49ad66fdf276f87e5240b25c3632966b64ec88e9e013'
    ),
    'solve fixtures/corpus/bm_002.json 1/2': (
        '0e6ffcc40bc7d8d63486eefab1accad6bdcff4f1030d3586e73ddfd87989351b'
    ),
    'solve fixtures/corpus/bm_002.json 1/3': (
        '69e3ba616b0e29cf7fc91b6056eac8cd9502289a4c80757d749de80c22542cd4'
    ),
    'solve fixtures/corpus/bm_003.json 1/2': (
        '61c56fd71ad9137942db61f7a444b7824dbfbb78f3c41c031f5e68812bb4ce82'
    ),
    'solve fixtures/corpus/bm_003.json 1/3': (
        '55f339e924e232d0a39ec099f2f76ac35982c577b26805b8013572d8df30edb3'
    ),
    'solve fixtures/corpus/bm_004.json 1/2': (
        'f4459997ba996f617e8731e027e631db94c67f6ba53264f9814c28897b1c328b'
    ),
    'solve fixtures/corpus/bm_004.json 1/3': (
        '645c3acfadf0d08e56bbdb22db8877e91622afe617496ec5f4ecd3f1d785b698'
    ),
    'solve fixtures/corpus/bm_005.json 1/2': (
        '48675d5f52423a28c953f043a4a898c3998a938b538ec343330b0572917dd621'
    ),
    'solve fixtures/corpus/bm_005.json 1/3': (
        'c3040ba146d3f9b6c20631fc42a6db44ea13e17a0fa902ac93913b97926d2ce1'
    ),
    'solve fixtures/corpus/bm_006.json 1/2': (
        'ef0b06ce9ed298e600bf1ae5272d48002f2353c5804a8a8f1f02b51c45a6fa1a'
    ),
    'solve fixtures/corpus/bm_006.json 1/3': (
        '384219321e68490f4421d20c9b56634556dff5c9716e35c49e20aa6c90405261'
    ),
    'solve fixtures/corpus/bm_007.json 1/2': (
        'a68d5fafafe68b23aec90bd2ec3a59d91322d2f80dc46825e8943fc3544424be'
    ),
    'solve fixtures/corpus/bm_007.json 1/3': (
        'a6e9e62d2c7675153b506307e2917da735c2ccd07a1437e7c1fd8d4215c0a2b4'
    ),
    'solve fixtures/corpus/bm_008.json 1/2': (
        '69024ad5fdf41990e70f3fac77534e85b8d92920bc4fa81949217a5c6a6f0116'
    ),
    'solve fixtures/corpus/bm_008.json 1/3': (
        '287edc8fb39010e457431aa6e4e30520445499fdc0d0519b50f3422616c9cf91'
    ),
    'solve fixtures/corpus/bm_009.json 1/2': (
        '9db1cde9d2541e4862896f30ed03d88527de741c03ba43ed78a404b319dad54e'
    ),
    'solve fixtures/corpus/bm_009.json 1/3': (
        '0f33eced1b9ec3dc7c6288d47b993f753d91793a1b4a87479b8ce514960ff99e'
    ),
    'solve fixtures/corpus/bm_010.json 1/2': (
        '9ed16f873a283aaae6319d1a16a1480d205c0917705a068b1946595efc8e0948'
    ),
    'solve fixtures/corpus/bm_010.json 1/3': (
        'e1275837d7d0a325fce3813966c832fe335f0a7102ae2989f5a8383d8f35fb77'
    ),
    'solve fixtures/corpus/bm_011.json 1/2': (
        'c30dc9d7d6c86afe4a5f2256fc07088d2f035b6cc964381a7af45b5773d48f09'
    ),
    'solve fixtures/corpus/bm_011.json 1/3': (
        'ca0e0d272b147db254b2ea65cce6879da892eed66fc1c57ab93d820c9148f062'
    ),
    'solve fixtures/corpus/bm_012.json 1/2': (
        'cbddfb7516bf15dc9d9c1081ede29b476b2bff031fbdf01f8589292ebdb21b77'
    ),
    'solve fixtures/corpus/bm_012.json 1/3': (
        '9f16e7c00cd420ccac4da71eeb60e91764831326da8c73c686e4aacc7effba20'
    ),
    'solve fixtures/corpus/bm_013.json 1/2': (
        'ecf7286ae8133b2f4fe90267631f5b1af45d1f098a394d531db381c403f221d3'
    ),
    'solve fixtures/corpus/bm_013.json 1/3': (
        '9a823c22a7e290bf6e3ec38b76e41090e37f32770175dd0532456eec60de3dd5'
    ),
    'solve fixtures/corpus/bm_014.json 1/2': (
        '1052b898448be63876797f514b191dc5ddb81aa70c73872eb617c7ccc5a0fbc0'
    ),
    'solve fixtures/corpus/bm_014.json 1/3': (
        'ff28a362011f8ebb649ec833381e82841b95240e320da0329a4a4f605d17f76e'
    ),
    'solve fixtures/corpus/bm_015.json 1/2': (
        '3671fd2c9c7237aca066e54888c64ef675a4c11a53d192db573307e169aa8170'
    ),
    'solve fixtures/corpus/bm_015.json 1/3': (
        '4a6c4e38fde8a9be48c3542edfcf89e537c89594729385513d8187d0e2882c49'
    ),
    'solve fixtures/corpus/bm_016.json 1/2': (
        '18f76779540cda5843f330e8278bbe62596f95b77df34fbf80d5612945bbd88b'
    ),
    'solve fixtures/corpus/bm_016.json 1/3': (
        '9c58e5ceff9ad5ed97f08b38608e830eca82e55cc9dc7caab15db009f8690356'
    ),
    'solve fixtures/corpus/bm_017.json 1/2': (
        'fe47582678fe8a7681c4a8ed2504652d45abff0dc4884301d4310535841d1ff8'
    ),
    'solve fixtures/corpus/bm_017.json 1/3': (
        '85deb904dd28a6863bde3c5079dc60a2ee78e137be3bac03cb4c3de5ede35cc9'
    ),
    'solve fixtures/corpus/bm_018.json 1/2': (
        'c9d334c399f717ffa4dddea7e510231d8010615f7afd9e5aee818ec2d62cdc7d'
    ),
    'solve fixtures/corpus/bm_018.json 1/3': (
        'f433326e5ccc97f7ede1efc7b9d83014fd19333219f7979002ab297c6d105ec0'
    ),
    'solve fixtures/corpus/bm_019.json 1/2': (
        'a412c2549e38d95dd56b38eb89afb0856c82e6b03f53575a0a26b6e994e60f67'
    ),
    'solve fixtures/corpus/bm_019.json 1/3': (
        '086dd8cb1a01bc4e3a59f1ac091acc8b430d6dbfd2f968391849be70c9fc9793'
    ),
    'solve fixtures/fig1.json 1/2': (
        'dafee23adbdbd2eaebd493156d868cfd9b69c266a1397b7a0b6b50c37c58741c'
    ),
    'solve fixtures/fig1.json 1/3': (
        '1beb4657812aef0c20817902f268b9db9e0e5cb52587977df9fdbbe310358efd'
    ),
    'solve fixtures/fig2_shape.json 1/2': (
        '7cdda2b37f1336c3fcb13a4bfce4c45ed857d5cbdca6a7af04b189c0270bb734'
    ),
    'solve fixtures/fig2_shape.json 1/3': (
        'c87e8bbfbef340873e9bf34624fac917f27971a5f27fc60c6ee786ab1d48ad86'
    ),
    'solve lagrangian fixtures/corpus/bi_000.json': (
        'c7a53ef31551dabe870450bde0c904be49339bb9195da6994afdc37953f11ab7'
    ),
    'solve lagrangian fixtures/corpus/bi_001.json': (
        'f65de445cfba46059684b8148a03edce8777c91e72dbd55e9d7c5004ce16ca41'
    ),
    'solve lagrangian fixtures/corpus/bi_002.json': (
        '3745894280ded7c362b806e4fba309cf99a186ad6050dbb4f9cfdb597f036f9a'
    ),
    'solve lagrangian fixtures/corpus/bi_003.json': (
        '9c046b8b993082e8fcb77240f5f0c7fbb3eb0bbc65be77670cfa5ba3384ef46d'
    ),
    'solve lagrangian fixtures/corpus/bi_004.json': (
        '21ed4dd0d35393368f40bdf4f050fa28a3466be9241c9b32f5a71cdb6dbfeb63'
    ),
    'solve lagrangian fixtures/corpus/bi_005.json': (
        'b0b3bcc4256be4e1244095421b34b2aef122ff2f4d6a3ae09a664fa572e7254f'
    ),
    'solve lagrangian fixtures/corpus/bi_006.json': (
        'e7f7bc4dac62d27a0d2ed66bb47cf70a0ee95ab44c4932d2574421ccb38c0b1d'
    ),
    'solve lagrangian fixtures/corpus/bi_007.json': (
        'ef39500f159170c462ed1518b9eb5eef261f251e74c21150571835565e05a77e'
    ),
    'solve lagrangian fixtures/corpus/bi_008.json': (
        '90c5fa336e98046c6eed7f375fa5913d18e3c01281a2eae1e56719a840825311'
    ),
    'solve lagrangian fixtures/corpus/bi_009.json': (
        'e1787ec10c023f76bef13a0134b20992f59c76f69ef77cf20281a3b016773d19'
    ),
    'solve lagrangian fixtures/corpus/bi_010.json': (
        'bf6a70aa19256ef3ea993521cc2fa2980324f6a53074c324e16c272e6d81ca5c'
    ),
    'solve lagrangian fixtures/corpus/bi_011.json': (
        '5d0018df2d75dfd726052d5457b38c65c13272044e8216d7bf6c0fb1059c47a2'
    ),
    'solve lagrangian fixtures/corpus/bi_012.json': (
        '8aff4d3e20cfc6157d4160f19e73ae0d378e55cea9fec95e5f37423d1d43d0b1'
    ),
    'solve lagrangian fixtures/corpus/bi_013.json': (
        'cdb7b20c558e0bb82bf15f66f22bd07310ca46f1434219b2cca295b789989749'
    ),
    'solve lagrangian fixtures/corpus/bi_014.json': (
        '17e33fc6aa284095fb6b8005c26e29402a42d4298a61ece843e3130b29c35a0a'
    ),
    'solve lagrangian fixtures/corpus/bi_015.json': (
        '8a046c0c670f40e47f71591f949dc8375eff24eaf2911268cf5d59447033f6c8'
    ),
    'solve lagrangian fixtures/corpus/bi_016.json': (
        'db841e055e4bc2319baaafbce590859cd8c1d61e86d7f88e1e76f4556cbeb729'
    ),
    'solve lagrangian fixtures/corpus/bi_017.json': (
        'f91a9524f665412c71e0cdad22ab4190ea35b37c999dae76fea1ad0cd9a5ab27'
    ),
    'solve lagrangian fixtures/corpus/bi_018.json': (
        'dce521769759590c7968697793294cef6e6f13d56786908a6a524547cc0a99fa'
    ),
    'solve lagrangian fixtures/corpus/bi_019.json': (
        'dba8a5652afd8f0dfed0d252d18ade0ab268b7a7c785e542a598b198eeafd7ee'
    ),
    'solve lagrangian fixtures/corpus/bm_000.json': (
        '80fff8a31fc526d46d1f6f84d3daea61f45b75f0d0cee2d5379df016b7c5fe85'
    ),
    'solve lagrangian fixtures/corpus/bm_001.json': (
        '43f6ab17a149cbccfadbec4fe7cb4d9458502f94a70048b40d1c2a9e02fe6984'
    ),
    'solve lagrangian fixtures/corpus/bm_002.json': (
        '9ecdc776ac12f1350bd3f824778c6c8f8740058977cf10e4c169e13c74e28ed6'
    ),
    'solve lagrangian fixtures/corpus/bm_003.json': (
        '72b5ada04dae100be074ddb51791ea8e1843450e957ecab90e55a3bfee229205'
    ),
    'solve lagrangian fixtures/corpus/bm_004.json': (
        'de6d8dbe319ab232b86d59d4fc92e27381cba9132518f21d82be51928b035165'
    ),
    'solve lagrangian fixtures/corpus/bm_005.json': (
        '41b8a2d1e3db6c4e3b0b9c20b965aa7951f11a002018bb520a806eb6979ef4a8'
    ),
    'solve lagrangian fixtures/corpus/bm_006.json': (
        '2d18820e2dbdd26fbb01a3512bbdb59e3fe5bf0a5511cd76b1cf3ba9b707f164'
    ),
    'solve lagrangian fixtures/corpus/bm_007.json': (
        '56ab7578e2d1566f4adacfcee38f40ba0460322e9be2a7c4b625573f9447952d'
    ),
    'solve lagrangian fixtures/corpus/bm_008.json': (
        '3e3cc8efd6f50332a23eef99a9b5ad637ba14e366fa13c727a581abebf80f680'
    ),
    'solve lagrangian fixtures/corpus/bm_009.json': (
        'fd9d2e026a3257d05b40b3dbfc119dac0b146ee992cf1bff5d80d66f8b4c2316'
    ),
    'solve lagrangian fixtures/corpus/bm_010.json': (
        '60ee373d27b13c0e4ec9645e1c3af845daa0a3445384b6ced335a82f57a3c662'
    ),
    'solve lagrangian fixtures/corpus/bm_011.json': (
        'fb4a9e0075df2e1509a41411be7f7a372e5608b359aaea3c1a00bea44fb1473a'
    ),
    'solve lagrangian fixtures/corpus/bm_012.json': (
        '04ec9a60ff4f73febf6ef4d2f6eb8fa718eeda6ebbd2655dc8a5b3ffbf8e24ae'
    ),
    'solve lagrangian fixtures/corpus/bm_013.json': (
        '5c1cbc007355cc11eedad91c3928f364dc8689d05649a7df27ea778a4c4ac323'
    ),
    'solve lagrangian fixtures/corpus/bm_014.json': (
        '1ec28d533cc98d11d25ed6200509862ff439244b32a022fd795bc66c56702a98'
    ),
    'solve lagrangian fixtures/corpus/bm_015.json': (
        'f44401eb37db39ecb3e7b0a3bd2e399c402c5b63301fa76f12857756a619f9c5'
    ),
    'solve lagrangian fixtures/corpus/bm_016.json': (
        'c097ed03ec294d3d09c4a54166b62b742dcf5503894c12aab8316926bb6251bf'
    ),
    'solve lagrangian fixtures/corpus/bm_017.json': (
        '0adb1cf0874e7b490943407109568513287bd45a4844d188b3d4b201b9e9587e'
    ),
    'solve lagrangian fixtures/corpus/bm_018.json': (
        'fc488b985d258c7393f76999923676069ca6b47010670f41fa48bf1675a9373b'
    ),
    'solve lagrangian fixtures/corpus/bm_019.json': (
        '6a182660db12dc334cba332072ee15723942a3a0d6736436c53bbe88300f0f31'
    ),
    'solve lagrangian fixtures/fig1.json': (
        '265c899330affd39c14299872d713d4c0d75aadfc07866c186915274d7e0b44a'
    ),
    'solve lagrangian fixtures/fig2_shape.json': (
        '66068094cbb6e68a612c67369dcd7f5829f32631ac4fcfc459a8dc486ea58750'
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    argv = case_argv(name, tmp_path)
    capsys.readouterr()
    assert cli.main(argv) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == GOLDEN[name]


def canonical_opt(inst):
    """(profit desc, lex-smallest ids) winner by plain combinations."""
    best_key = None
    for k in range(inst.n + 1):
        for combo in itertools.combinations(inst.ids, k):
            if B.feasible(inst, combo):
                key = (-inst.profit_of(combo), combo)
                if best_key is None or key < best_key:
                    best_key = key
    return best_key


@pytest.mark.parametrize("family", ["bm", "bi"])
def test_brute_force_matches_combinations(family):
    make = B.corpus_bm if family == "bm" else B.corpus_bi
    for i in range(8):
        inst = make(i)
        neg_profit, ids = canonical_opt(inst)
        sol = B.brute_force_opt(inst)
        assert sol.ids == ids
        assert sol.profit == -neg_profit
