"""Golden-output lock: the SHA-256 of every file a small experiment writes.

Each case is a flat config run through ``run_experiment``; the digests pin
the exact bytes of every file it writes.  A refactor must leave them all
unchanged.  A change that moves output bytes on purpose updates the digests
(print the current ones with ``PYTHONPATH=src python
tests/test_golden_outputs.py``) and says in CHANGES.md which bytes moved
and why.

The digests were recorded with numpy 2.4.6 on x86-64; the float results
behind them may differ in the last bit on other numpy builds or platforms.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from fairsort.harness import build_spec, run_experiment

BASE = {
    "dataset": "synthetic",
    "users": 12,
    "items": 30,
    "providers": 3,
    "skew": 1.2,
    "data_seed": 5,
    "k": [4],
    "seed": 3,
    "rounds": 2,
}

MODELS = ("fairsort", "top_k", "mixed_k", "all_random", "min_exposure")

CASES = {
    f"{scenario}-{notion}-{model}": dict(scenario=scenario, notion=notion, model=model)
    for scenario in ("offline", "online")
    for notion in ("uf", "qf")
    for model in MODELS
}
CASES.update({
    "offline-ratio": dict(scenario="offline", model="fairsort", ratio=0.5),
    "online-ratio": dict(scenario="online", model="fairsort", notion="qf", ratio=0.5),
    "offline-shuffled": dict(scenario="offline", model="fairsort", service_order="shuffled"),
    "offline-accumulate": dict(scenario="offline", model="fairsort", exposure_update="accumulate"),
    "online-accumulate": dict(scenario="online", model="fairsort", exposure_update="accumulate"),
    "offline-search": dict(
        scenario="offline", model="fairsort", k=[3, 5],
        threshold=0.8, lambda_max=4.0, gap=2.0**-5,
    ),
    "online-search": dict(
        scenario="online", model="fairsort", notion="qf", k=[3, 5],
        threshold=0.95, lambda_max=8.0, gap=0.01,
    ),
    "offline-files": dict(scenario="offline", model="fairsort", notion="qf", dataset="files"),
    "online-files": dict(scenario="online", model="fairsort", dataset="files"),
})

FILE_CASES = sorted(case for case, overrides in CASES.items() if "dataset" in overrides)


def matrix_rows() -> list[str]:
    """Rows of a 10-user, 24-item preference file.

    Scores are multiples of 0.25, so rankings are full of ties; some pairs
    are written as explicit zero rows, and every row of user 3 is zero.
    """
    rows = []
    for user in range(10):
        for item in range(24):
            if user == 3:
                if item < 3:
                    rows.append(f"{user}\t{item}\t0")
            elif (user + 2 * item) % 3 == 0:
                rows.append(f"{user}\t{item}\t{(user * 5 + item * 3) % 7 / 4!r}")
            elif user * item % 7 == 1:
                rows.append(f"{user}\t{item}\t0")
    return rows


def write_dataset(directory: Path, layout: str) -> dict[str, str]:
    """Write the file-backed dataset; return its config keys.

    The ``bulk`` layout has CRLF endings and a blank line; ``scanned`` adds
    a trailing tab to one row, which sends the file to the line-by-line
    parser.  Both hold the same matrix.
    """
    rows = matrix_rows()
    if layout == "scanned":
        rows[7] += "\t"
    matrix = directory / "matrix.tsv"
    providers = directory / "providers.tsv"
    matrix.write_bytes(("\r\n".join(rows[:20] + [""] + rows[20:]) + "\r\n").encode())
    # a skewed assignment: items 0-11, 12-19 and 20-23
    providers.write_text("".join(
        f"{item}\t{(item >= 12) + (item >= 20)}\n" for item in range(24)
    ))
    return {"matrix": str(matrix), "provider_map": str(providers)}


def run_case(case: str, out_dir: Path, layout: str = "bulk") -> dict[str, str]:
    """Run one case; map every written file name to its SHA-256."""
    overrides = CASES[case]
    if case in FILE_CASES:
        out_dir.parent.mkdir(parents=True, exist_ok=True)
        overrides = dict(overrides, **write_dataset(out_dir.parent, layout))
    spec = build_spec(dict(BASE, out=str(out_dir), **overrides))
    written = run_experiment(spec)
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(p.name for p in written)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written}


DIGESTS: dict[str, dict[str, str]] = {
    "offline-accumulate": {
        "ledger_fairsort_offline_K4.tsv":
            "6c51cd93d6f55ad6ccacbbba9cd2e5f464091ade858324d33aeb1b483798cce9",
        "ndcg_users_fairsort_offline_K4.tsv":
            "595bd89b171de09ad222a184c14806aa717ca02d1a66a81592a652a967ca18bb",
        "summary.csv":
            "65b6e8374e210328ec13943b192a1ec142e6aeda8d26a4b440bdf29ebcd7509a",
    },
    "offline-files": {
        "ledger_fairsort_offline_K4.tsv":
            "94ac302417545fcc57eec45f90c9ecb8cbaa8e690e7cfd585a9925e5eac61f12",
        "ndcg_users_fairsort_offline_K4.tsv":
            "8f0cf6d0621af85fc6dd8c1c8c9b5e3e88979c8d067eae610e653fc3440d8053",
        "summary.csv":
            "1de2e7c250f5e78e85572df2ffb64e8835bcd1b10e5ca5eac284c62f776dae40",
    },
    "offline-qf-all_random": {
        "ledger_all_random_offline_K4.tsv":
            "19b8c9f3dcea23378f2e87165d0865a92598382b1cae58c3cee45db0629d7382",
        "ndcg_users_all_random_offline_K4.tsv":
            "38db38277cd6ffa601a0155fe42c8e1bb2cd9aa2d95493f274d4435ffe950609",
        "summary.csv":
            "26810722322c786ef724e8e5bac0cfb1cd901de307d8be5c5006d2f0a6432487",
    },
    "offline-qf-fairsort": {
        "ledger_fairsort_offline_K4.tsv":
            "620e6584fad4783f92cf30ff122a056be3f811fa241867ca6c41a3538c3d5ef0",
        "ndcg_users_fairsort_offline_K4.tsv":
            "38dfe7407d584f2f4ee56bc07e64e43e7f2f0aa41dbfcbe5f501a9db0ec04e8e",
        "summary.csv":
            "0076da37f3ed1d6bcb74148e61dcec65dcb055673079e41876f234810e05d153",
    },
    "offline-qf-min_exposure": {
        "ledger_min_exposure_offline_K4.tsv":
            "a233e8b1bbf0b44adc9a78505708e1dbe96427a9141c2d0356fb807f72a0af71",
        "ndcg_users_min_exposure_offline_K4.tsv":
            "8233c08633e85e95e9d95f68142c9e46d6734b8f45525bad1b10f5a9dae74d42",
        "summary.csv":
            "f0a3df910969052f51a9f0748190c978f843ccb640d8021763b82782df3c6b32",
    },
    "offline-qf-mixed_k": {
        "ledger_mixed_k_offline_K4.tsv":
            "22bc34451638b811d4c8b04e5db8077fbc9b1a31455cbb2df536f5dec362baa8",
        "ndcg_users_mixed_k_offline_K4.tsv":
            "93e54e7d67817a6337cef5df9b6003ba716c675b1659ad5b1f0e53dc69578e2b",
        "summary.csv":
            "e0cbc2371bc1b2e71a1902346dc099c2221c91f1272a2ffeb44d12b06a7b8be1",
    },
    "offline-qf-top_k": {
        "ledger_top_k_offline_K4.tsv":
            "c2f8534a9990184cec3cab6b91a412be8e00a76ec6e11afb8615baf0c44eb8bb",
        "ndcg_users_top_k_offline_K4.tsv":
            "b5d63592024121961854647d05e3aa83215893ced937a689369f2a0977eb3752",
        "summary.csv":
            "993e0a59488e91c5283af92b8194e18eec200ddfa396d8740da6cdce5e7383a7",
    },
    "offline-ratio": {
        "ledger_fairsort_offline_K4.tsv":
            "e8b7ca7dc4494880ba49cd5d1e66f0ddd28dd22748f5095130c70ac165065eea",
        "ndcg_users_fairsort_offline_K4.tsv":
            "6086d4705d29f3728bc39313362fbee13981cf4f4598df16a154c7f636bf80ac",
        "summary.csv":
            "5f8e3998bb4e39eda580cd3472a08cbc352c4b737eff5fff233c3fb0eadda47f",
    },
    "offline-search": {
        "ledger_fairsort_offline_K3.tsv":
            "6d7aa7a9a4063854a66183a34bf787c5078ab69809e9b2faedfd7cbb26e5d742",
        "ledger_fairsort_offline_K5.tsv":
            "03067a084b6cec1e8be5b9a0c0d1b39a40f472b611b111ca5f5c8d203f3be767",
        "ndcg_users_fairsort_offline_K3.tsv":
            "a1da24dd91b0282e12531a3c64beccf507825f84aadf41117148875a9da1fce5",
        "ndcg_users_fairsort_offline_K5.tsv":
            "7805b5d736ac19acdcc861324fc01598b9f04a2e474d217bd4b6ad50f54229bd",
        "summary.csv":
            "646512134a22e8713537c1bca910fa7b075eea1664fa84d6380232017fe916b1",
    },
    "offline-shuffled": {
        "ledger_fairsort_offline_K4.tsv":
            "0f4cd0839937049883bbe94703a1d9c8adf882728adbd39bec5fe21e54292169",
        "ndcg_users_fairsort_offline_K4.tsv":
            "99ddee5959f39e03989e8415691a07a833021a3f3ebaee6983f89d174fc5b28a",
        "summary.csv":
            "8433e3ee4296c11d50e4b672d570f2614d6dc0e87444531d847fc0ae3c1d07e2",
    },
    "offline-uf-all_random": {
        "ledger_all_random_offline_K4.tsv":
            "e062bef1e431d7187ef4360c28581a5eec26dfd689c6ad16c84b243794a4c2ab",
        "ndcg_users_all_random_offline_K4.tsv":
            "38db38277cd6ffa601a0155fe42c8e1bb2cd9aa2d95493f274d4435ffe950609",
        "summary.csv":
            "9cf71473b248545defcae5c3f8d2a9abdd23fc341af328b958f2654eccbfb6c9",
    },
    "offline-uf-fairsort": {
        "ledger_fairsort_offline_K4.tsv":
            "e8b7ca7dc4494880ba49cd5d1e66f0ddd28dd22748f5095130c70ac165065eea",
        "ndcg_users_fairsort_offline_K4.tsv":
            "6086d4705d29f3728bc39313362fbee13981cf4f4598df16a154c7f636bf80ac",
        "summary.csv":
            "882631fe07b9e928f31a3f68d4abfdfdb6d322d51411a9ff9b80440499b09ccd",
    },
    "offline-uf-min_exposure": {
        "ledger_min_exposure_offline_K4.tsv":
            "70e1c8ae4c9dc8e1f709a284b248ad265cefec3e70efe64c9622d62b26a58b3c",
        "ndcg_users_min_exposure_offline_K4.tsv":
            "8233c08633e85e95e9d95f68142c9e46d6734b8f45525bad1b10f5a9dae74d42",
        "summary.csv":
            "0fe73472e50b4fae095ba7fc50e6d3fa742d036d82cf30a5a63ab27939d88595",
    },
    "offline-uf-mixed_k": {
        "ledger_mixed_k_offline_K4.tsv":
            "18b3ebdddc57ee40d441d8b8b039625e6b59a4b7608980447e25467207260ee8",
        "ndcg_users_mixed_k_offline_K4.tsv":
            "93e54e7d67817a6337cef5df9b6003ba716c675b1659ad5b1f0e53dc69578e2b",
        "summary.csv":
            "f970ece65ee300b46d2a4364032b0c9002c541ef27a3fdffaba5903fc9a7f26d",
    },
    "offline-uf-top_k": {
        "ledger_top_k_offline_K4.tsv":
            "5c45fadc53df963ef62653ea62010f7d80688b0e7e95a6411544ababd8426c80",
        "ndcg_users_top_k_offline_K4.tsv":
            "b5d63592024121961854647d05e3aa83215893ced937a689369f2a0977eb3752",
        "summary.csv":
            "fc47601f34d20afeb28ba74ddcab17d22810e15f53e04d82c008ed8fa34eb512",
    },
    "online-accumulate": {
        "ledger_fairsort_online_K4.tsv":
            "78bc1ceaeddc60195cf319909942a809c67f8bcbcfd12d38dbfd16cc02a7cb8f",
        "summary.csv":
            "39506e90b32f2c4632ace03d6108039888e6a8f99da5603a8cf7038348206981",
        "timeseries_fairsort_K4.csv":
            "2a2982b2f0a84a4137c71e34b645fc81a3ceac9022df8f2835ce773504d54fe6",
    },
    "online-files": {
        "ledger_fairsort_online_K4.tsv":
            "f64449840f38a499986f688017835322a08b306c38a9604c27f6e97903bbe7f4",
        "summary.csv":
            "673ce4ba33afb0b6fbbb5953de9d9948e47dab96f8f5b918484cc6246ebc2af2",
        "timeseries_fairsort_K4.csv":
            "d0811ded0ba98e59dcc88286e514f82ee3a6e44aaf46332b82934f9c03066aa4",
    },
    "online-qf-all_random": {
        "ledger_all_random_online_K4.tsv":
            "0d4767646cf7e5cb468b09f82103a3121f9d6cbfeeab83975ef1cf36cfa96a71",
        "summary.csv":
            "cceb21ca954fe3089666b8fd2658d78544c3d3c9cb4b4822f3c0338ea55f30b6",
        "timeseries_all_random_K4.csv":
            "55ce5b901ca66fc325076e7ac04df408f4cfebc237a3ba46d980b66e80a7d712",
    },
    "online-qf-fairsort": {
        "ledger_fairsort_online_K4.tsv":
            "9f9945f6c68114552eaa875848f04670bcc62cbc4976e48718e84605274fd31d",
        "summary.csv":
            "254533cda907d988bf5780ae4a4e115e0fa5ed113bdd5ad1e269d61f67a44630",
        "timeseries_fairsort_K4.csv":
            "4acccdc0c4f6a8414e63d74a012a84929eb94f4b887e8e922ec5b8ae80b265c0",
    },
    "online-qf-min_exposure": {
        "ledger_min_exposure_online_K4.tsv":
            "908f3747bb896a22345db24121a29ed00bfab0895779c004a2cbb3cb1bde61e6",
        "summary.csv":
            "40d83c3d6c5a4ed53aeb8f70f6c93eb810c546da1c4fd02263a0552b54b42fd6",
        "timeseries_min_exposure_K4.csv":
            "882a031fb1b00ed75bdf3628407e4ffe57d78c34e69d3baea53cd5bb18017089",
    },
    "online-qf-mixed_k": {
        "ledger_mixed_k_online_K4.tsv":
            "ff24b76c1277ef15961213ae5a06ee04250862189972a68355f71c2f9dd89c03",
        "summary.csv":
            "0566fbe67f93b46ccd16c43e66e35686cf938f8e8f3aecb0913a4a45c20d2f62",
        "timeseries_mixed_k_K4.csv":
            "43e3a5d377173a575d02693655c388d5ef6e3c2d3b94bd5d7d8b95954f0243e9",
    },
    "online-qf-top_k": {
        "ledger_top_k_online_K4.tsv":
            "0cac9411596a9c27f018ae8cc5616b2b8c0bfeb685048f78f0fe2fdba86e622e",
        "summary.csv":
            "97568e5270a24761259f5b54baa63dbbd7ebd4640a76a9cacfdc0d6b2d235082",
        "timeseries_top_k_K4.csv":
            "fdd00f03f73987cb24cc51d53b0febdc9413318364fb72ddb35fe9cec783a3b1",
    },
    "online-ratio": {
        "ledger_fairsort_online_K4.tsv":
            "9f9945f6c68114552eaa875848f04670bcc62cbc4976e48718e84605274fd31d",
        "summary.csv":
            "c527dba73f48d4cde861dc82715516149cf71277fd50a6dd37dd3bd972db73e0",
        "timeseries_fairsort_K4.csv":
            "4acccdc0c4f6a8414e63d74a012a84929eb94f4b887e8e922ec5b8ae80b265c0",
    },
    "online-search": {
        "ledger_fairsort_online_K3.tsv":
            "23141c3a7570a86d3b3a12dd7424fb0826c7d9be80f1234ee54f6db0552e4258",
        "ledger_fairsort_online_K5.tsv":
            "2ca4f2da82179dcfdfb6aa83018969029f1b88815736dd2e0c085adaafdbab63",
        "summary.csv":
            "3ba320d4c39f800a2eaaca3f6b065d32a4d1e1b86be77fad48ae34b7226bd200",
        "timeseries_fairsort_K3.csv":
            "810ed57c735e98c9077623368213169c8210929b8c2738eced8b2e9d6d9a4ea6",
        "timeseries_fairsort_K5.csv":
            "a5add5e7d545b2f9111bb06b3290c6229fc617a1be385d24317454bd23c1341a",
    },
    "online-uf-all_random": {
        "ledger_all_random_online_K4.tsv":
            "987bb5c5e2583c7c2f8e6b787f3dab9cc9ac10983659e45ffcf2f0c7ff8ed25b",
        "summary.csv":
            "caddc7a804607dde4120d1d00f25499aab759d80bfd54dfd3df7ee6cbd890060",
        "timeseries_all_random_K4.csv":
            "16ac2368e81309df0d45972f04c5787d405907e082739b844af419a077725c10",
    },
    "online-uf-fairsort": {
        "ledger_fairsort_online_K4.tsv":
            "71dd67f28e4d4394203959944dc8f642c1e6b4d8df8ee9aa01340adfbe2bdb80",
        "summary.csv":
            "de6a3ec01173201644c21c14e7680d76fcbe322c191057a04ca1e15ab6661259",
        "timeseries_fairsort_K4.csv":
            "b27dac6c231bb363c775729ccd2e1ff71bf08622c9321324c9f96c33dbe041a6",
    },
    "online-uf-min_exposure": {
        "ledger_min_exposure_online_K4.tsv":
            "dbc12dc777b59aa34a0b902b6b63f90b7b61f3f1fae6daeba0ce520eb6a2af0c",
        "summary.csv":
            "236ab4a6533d51b1d1cf028278fe1c4dda339f7f59a3d034ced75de370eced94",
        "timeseries_min_exposure_K4.csv":
            "09b904cb1bf7fb4a3a003cfb0e00d299aad8ce7fa3be2f1fdf5c98189b2366d7",
    },
    "online-uf-mixed_k": {
        "ledger_mixed_k_online_K4.tsv":
            "e6420ba4e7213b0a9927960361dfd0945f8d5cd1c55e466ffe7b71cc783fd141",
        "summary.csv":
            "bdc5ed1f1dd4e27a59fb13a1a9e06902a05591f28893215d2083e39d1dfa849c",
        "timeseries_mixed_k_K4.csv":
            "12e299b4ba3d21a860221f43e149ac6cda27d809a401b028fbb11b82382e646b",
    },
    "online-uf-top_k": {
        "ledger_top_k_online_K4.tsv":
            "19f6a4e197af432e200485c83e48355206fadf3d79a2f766eceacbddb13a1345",
        "summary.csv":
            "15fad8632e6568d8e9af3024c2a7103c3d6da546381482cbe64d9cd63159ed9e",
        "timeseries_top_k_K4.csv":
            "0964fc0a406e72f5fc59fb1473528ed8184e31b6ff5edba68d9a142519c868cf",
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_unchanged(case, tmp_path):
    assert run_case(case, tmp_path / "out") == DIGESTS[case]


@pytest.mark.parametrize("case", FILE_CASES)
def test_scanned_file_gives_same_bytes(case, tmp_path):
    assert run_case(case, tmp_path / "out", layout="scanned") == DIGESTS[case]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print("DIGESTS: dict[str, dict[str, str]] = {")
        for case in sorted(CASES):
            print(f'    "{case}": {{')
            for name, digest in sorted(run_case(case, Path(tmp) / case).items()):
                print(f'        "{name}":\n            "{digest}",')
            print("    },")
        print("}")
