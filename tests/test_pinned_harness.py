"""Pinned harness artifacts: every pipeline's wiring is bit-exact across refactors.

The pins in ``test_pinned_checkpoints.py`` call ``flow.train`` directly, so
they never see which seed stream, source, target, init, step count or
integration step count the harness picks for a stage. These run every
pipeline of a tiny spec through ``harness.run`` and pin the sha256 of each
stage's ``ckpt.bin``, ``loss.csv``, ``traj.csv`` and ``report.csv`` (with
its two timing columns blanked), plus the output of ``cflow sample`` and
``cflow traj`` on the last checkpoint. ``config.yaml`` and ``meta.yaml`` are
left out: both depend on the output path.

Three variants cover an analytic energy with a data source, a classifier
energy with a model-source pool (plus ``invert_lam``, ``unlearn_steps`` and a
non-default ``finetune_fraction``), and ``unlearn_init: fresh`` with per-step
model-source draws (``source_pool: 0``).

The hashes were recorded with numpy 2.4.6, scipy 1.17.1 and numpy's
bundled OpenBLAS on x86-64 (Python 3.11), like the checkpoint pins.
"""

import csv
import hashlib
import io

import pytest

from cflow import cli, harness

PIPELINES = ("learn", "retrain", "finetune", "refit-ot", "unlearn-erfm", "invert", "sweep-lambda")
STAGE_FILES = ("ckpt.bin", "loss.csv", "traj.csv", "report.csv")
TIMING_COLUMNS = ("train_time_s", "inference_ms_per_sample")

BASE = {
    "name": "pin",
    "benchmark": "circles",
    "seed": 0,
    "data_n": 256,
    "train": {
        "steps": 16,
        "batch": 32,
        "hidden": [16, 16],
        "integration_steps": 3,
        "transport_integration_steps": 4,
    },
    "source_pool": 512,
    "source_steps": 3,
    "lambda_grid": [0.5, 1000.0],
    "eval_seeds": [0],
    "eval_n": 64,
}

VARIANTS = {
    "analytic-data": dict(unlearn_source="data"),
    "classifier-model": dict(
        benchmark="moons",
        seed=2,
        energy={"kind": "classifier", "lam": 2.0},
        train={**BASE["train"], "sigma": 0.05, "lr_decay": "cosine"},
        unlearn_source="model",
        unlearn_steps=12,
        invert_lam=50.0,
        finetune_fraction=0.5,
    ),
    "fresh-pool0": dict(seed=1, unlearn_source="model", unlearn_init="fresh", source_pool=0),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report_without_timings(path) -> bytes:
    rows = list(csv.reader(path.open(newline="")))
    blank = [rows[0].index(name) for name in TIMING_COLUMNS]
    out = io.StringIO()
    writer = csv.writer(out)
    for i, row in enumerate(rows):
        writer.writerow([v if i == 0 or j not in blank else "" for j, v in enumerate(row)])
    return out.getvalue().encode()


def _stage_digests(stage_dir) -> dict[str, str]:
    digests = {}
    for name in STAGE_FILES:
        path = stage_dir / name
        data = _report_without_timings(path) if name == "report.csv" else path.read_bytes()
        digests[name] = _sha(data)
    return digests


def run_variant(tmp_path, overrides: dict) -> dict[str, str]:
    """Run every pipeline of one variant; map '<stage dir>/<file>' to sha256."""
    out = tmp_path / "run"
    spec = harness.spec_from_dict({**BASE, "pipeline": "learn", "out": str(out), **overrides})
    stage_dirs = []
    for pipeline in PIPELINES:
        artifact = harness.run(spec.with_pipeline(pipeline))
        artifacts = artifact if isinstance(artifact, list) else [artifact]
        stage_dirs += [art.stage_dir for art in artifacts]
    digests = {}
    for stage_dir in stage_dirs:
        rel = stage_dir.relative_to(out).as_posix()
        for name, digest in _stage_digests(stage_dir).items():
            digests[f"{rel}/{name}"] = digest
    digests["sweep/report.csv"] = _sha(_report_without_timings(out / "sweep" / "report.csv"))

    ckpt = str(out / "invert" / "ckpt.bin")
    samples, traj = tmp_path / "samples.csv", tmp_path / "traj.csv"
    assert cli.main(["sample", "--ckpt", ckpt, "--n", "16", "--steps", "3",
                     "--seed", "1", "--out", str(samples)]) == 0
    assert cli.main(["traj", "--ckpt", ckpt, "--n", "8", "--steps", "10",
                     "--snapshots", "4", "--seed", "2", "--out", str(traj)]) == 0
    digests["cli/sample.csv"] = _sha(samples.read_bytes())
    digests["cli/traj.csv"] = _sha(traj.read_bytes())
    return digests


PINNED = {
    "analytic-data": {
        "cli/sample.csv": "a7ac2d985341e2219aeac47ba931483089cfc55843fd050947a52881eb6ee2c3",
        "cli/traj.csv": "2b79242111f9d1912552cd5cb48d9e8f0eee0b845fe359336c2c00aa03e737c9",
        "finetune/ckpt.bin": "92ba76d9392345bdb848edbeeabaf9a5864743431f0b9fbcda1021cc902c8e36",
        "finetune/loss.csv": "f07adc48775b0add01129152642a98f4c348a811e6858f2aa367497ffb6067cb",
        "finetune/report.csv": "c642cefca2bd485b36904cbdb7a4ac3d540bef06eb361a90a99897e23c92fdeb",
        "finetune/traj.csv": "0a9d06a7aa4237df95f8f22bd320ce1e9bc4548b5f07a16df5cf5d6df9370354",
        "invert/ckpt.bin": "e56aba1b04bdf80fcb7bdf083a02bbfe6ab7e815cd902e0034602e7fce6f2fb2",
        "invert/loss.csv": "7f89653d442df162d978b8d2a37c3119f669e0c3cf733bc63d77ea8c24a781bb",
        "invert/report.csv": "deb8dce6f444d772eb83dac0b86c061f525b796bcc2a766d91a269b22b4e9c1b",
        "invert/traj.csv": "c4602225a297b1c5d4eac9278aca241acfe671a501892fe1fc110fa025754102",
        "learn/ckpt.bin": "557a91fae554335ea639cdcc354e0828f16844f80cbfe6d5188eee02497d8ba6",
        "learn/loss.csv": "8bb78288d775ba4a5c9c5e3d4588c396afa6600accb0c99c0466e7c4c07b9d41",
        "learn/report.csv": "321c0e428e011b49cafba33c796ab64d32c4da3233478531c362947769eaa301",
        "learn/traj.csv": "6b07b404020b84b474e8fed2337841ce288b0b7c572dc55446a7b8a65225d281",
        "refit/ckpt.bin": "1c16fc32443217e4005cc7093c485b59cce9aa34c176da2fc9bf78f1ca91cc0a",
        "refit/loss.csv": "b25d79141899f5d20217c4cd156b2053d828387c618f88a276e12f845468f5f2",
        "refit/report.csv": "621fda3830504e786e22c328789c8be74f1fba11bec98f43eb5647e00dadc7e9",
        "refit/traj.csv": "0614df85c7d4e2b661508158ea8bd9bd7c485bf65b1363eb3d29d32e87cd0083",
        "retrain/ckpt.bin": "d820912d7f509dc647b831fb69c8c8c1c8de19fe0794c67d815669ed0fa3f045",
        "retrain/loss.csv": "3d74938be1641673727e56bc2ed78f352ab6ea384da70c2d2ca45416486ed508",
        "retrain/report.csv": "ae042d29b2c2cbea3a351102ea891ca84697d785e27af0ae47c7e8bf1b0ebc37",
        "retrain/traj.csv": "54f30e67ad5424143dffafe71486937bb76641306c01bfe1c5dd64f56c239d6b",
        "sweep/lam_0.5/ckpt.bin": "4cb9b30a5cfbb5054c0766aebcf64ce126dbc9ca36a2b3c9d3b4ce55ae08df46",
        "sweep/lam_0.5/loss.csv": "5674e1bf73fabb9dca7bc35d8e4de855a6e0c516e714f86311715ea5cd79c595",
        "sweep/lam_0.5/report.csv": "bef03bf403f1f8f213f2bff150c501ff6f17c6b0211efd6ee795d92c53a5ca66",
        "sweep/lam_0.5/traj.csv": "dadb322cbecd3f684c61dbe79dab2cd7e4dd063eb7755522b1191c4dfac22a49",
        "sweep/lam_1000/ckpt.bin": "a80bbafe6120ad54646a3a1f22c87c34775335a85731d2b9d6a9908db54fd272",
        "sweep/lam_1000/loss.csv": "8fc15507211781de77141b35d3c85bef54cb8d869cda89bfeb382f526f286dbe",
        "sweep/lam_1000/report.csv": "85cb619b960ba090bd3e4ddd13f8bfb17eecc50f612c056379ad1460a23f57a1",
        "sweep/lam_1000/traj.csv": "033cde3f4899142c28b4b29eeb3ee708e8582153eaf7de4ca6ae4accf2e1593a",
        "sweep/report.csv": "25548b3314c77570fe16d3af42f886c725990f7fc6940da25e56c45dae7615c9",
        "unlearn/ckpt.bin": "d68a227df0a7e6d096d88d4f006742a2a63d5335ada76b55459ed63b7e4c7850",
        "unlearn/loss.csv": "300a1f5e98f77fad87aac80b4e09282433263ff6f5d3ba5d434ce81b1d35354f",
        "unlearn/report.csv": "2dc4bd52364703facdcf5dc28354133cd43372483cc71f10868f41a65acd7376",
        "unlearn/traj.csv": "456aeb60df5ba229593ecd69aa33687402ddeb61ac0cc7fa8e9939526219ae03",
    },
    "classifier-model": {
        "cli/sample.csv": "02cf22c0f032f4cdc80b07140e5c8c2fce4e893b500e4cb2aee216318934d98a",
        "cli/traj.csv": "631c3196d57d96592317e737283fcc6747472c1633d55d08a41a97c34e8ce546",
        "finetune/ckpt.bin": "6d3c4a5783c69a10e5fa6cfedacbf3ef69c075e9615a31e14b00221fc5d8ee52",
        "finetune/loss.csv": "18f460023a827f0760c577d690525ee43e6c2c551c39aeac7ebecc5a38c1042f",
        "finetune/report.csv": "fc73212f6047153448fb52dd9d36ac722667da9dacace313194c441c11fae977",
        "finetune/traj.csv": "fa00632a7da557bb47f4aaa025e87c256303e13d7734fb87b6366102267e1d72",
        "invert/ckpt.bin": "7d6059447ac13d83c7bd15d095d4e4b26fbdc952254e93c1594fc18d64bde274",
        "invert/loss.csv": "7dc4fe5f2bb59e7e12d7f125bf0e793da6f92b72000a635622d61200fe6178f0",
        "invert/report.csv": "381ffa0d8a10f8c637702166ec0aa62df3d6c579b73b4cc3a13191c0d229ad6c",
        "invert/traj.csv": "8b4abb64dcd9fe282bf3becdbd989aea070aab3fe4aa10d370b185455348ddff",
        "learn/ckpt.bin": "fd7c54e273160fcd3bf3e92d98c8c09164cd1ed093db5bf09bfd092cb101d778",
        "learn/loss.csv": "8e39b234da4b8ab4a47dc377fa6b3f98740b44ba04112dff192688d6ff4fd162",
        "learn/report.csv": "c3c351c8cb98203c4b8048c8df7135c32983f75c96280a5eab27a05790d0e3fa",
        "learn/traj.csv": "0bee068ea5a9b0fd622055e0b4a83a9610b33f12f71bfa1adf91bd26f0a36b3b",
        "refit/ckpt.bin": "b2cf2fc445852c3aceca457a1b34a91ce309d8c12c82ccf95861154314237766",
        "refit/loss.csv": "cf3eb2cbe533a5a312a21a08e5d9feb7515e2022bcb9c695c57f1d64773f104d",
        "refit/report.csv": "da399b2dca9c586cc233f0e27206606ba9cedae16f39f1a35e41329c87ce0d5e",
        "refit/traj.csv": "650f9861fd97a10cdf0c057eefd1e9d2f32d2817a1228d88aa54f0378eb32cc0",
        "retrain/ckpt.bin": "57e04c8234074cb60da1b24696de806935fde796e1395044c602b1c22f44bf53",
        "retrain/loss.csv": "149b5989da3e09d04ef0ee325ff73024383bb4d220b4cac1c911c82bc02ea4cc",
        "retrain/report.csv": "78936db9ac2773314d943131afa539a017b1cc832347a928e372f361e7c7a4fe",
        "retrain/traj.csv": "64881196fa9d4acebb8fd99d6fa215e4c5d90ae4a63bd58a0ef8010fc92c13f5",
        "sweep/lam_0.5/ckpt.bin": "c530b6741e06091297643bd529962a86544592ca3d33f08f967d055781611021",
        "sweep/lam_0.5/loss.csv": "bade96ad381bfaddc51b08650b83a4ffcb55d88e4fc3a09b57abdbb5c731fe41",
        "sweep/lam_0.5/report.csv": "de0578bf6291cbf80c0d5fe5c06eead7995b1761f0c9acfe107748e9c3a00974",
        "sweep/lam_0.5/traj.csv": "3eef58d8e30e2ecaf83052bf0afcb9f7f659067b400be8f6fd3b02171dfc53a5",
        "sweep/lam_1000/ckpt.bin": "8bd23d8e4e6d1fbf9948bcb9323507bbdac3ea1f5ab941be725013a281528447",
        "sweep/lam_1000/loss.csv": "c291687777a809a1796dd1a417f90cd4d338e26327dd4ea89731ef3571229b10",
        "sweep/lam_1000/report.csv": "2f31fe785ea8de8ca51c5607dbe5a2edbac3fa36b0751eb89571920a558a5c24",
        "sweep/lam_1000/traj.csv": "3ad507a45b62842dc5ad8eac5f3c7ee371706aab4442f7218ea14ffb4d8e6b63",
        "sweep/report.csv": "9f5747a14ac55134b2f5f7020acc66fc03f434e91c62788eeb06d704d5dfe140",
        "unlearn/ckpt.bin": "b529f502d2b515251d84853b31464e545e37d746807fe9e28737545edcaba9df",
        "unlearn/loss.csv": "be5336eb8c86d0461219ebdcc43f1f74f02d1e46d593d953a02fc8dd5162f153",
        "unlearn/report.csv": "37273fc164ed4dee0e3b4400531631aae7b42faddd8156152995f5786a82e517",
        "unlearn/traj.csv": "b510eed208a037dc7c5307a5c4c422499b156968746ea2371e13ab200b784fd6",
    },
    "fresh-pool0": {
        "cli/sample.csv": "b85887414c7dda2c427e124cc674f5ced6b99260a08f8be14315d197282e424f",
        "cli/traj.csv": "d1a53409d33225abf4e6828338b5c5273865e175c5a82404c295e3324f9e2e3e",
        "finetune/ckpt.bin": "850acc86ccf35ff81daa55fbd7f7581bf29494321f2a649a92d62968de46e4bb",
        "finetune/loss.csv": "ebc11450316badeba1a5ef00f66c2407b2868e3f94209aec8b18398d7867809c",
        "finetune/report.csv": "3287041756b1e49759f37a2dbd2869e52ae475afcb82fc5de9c56f298f854536",
        "finetune/traj.csv": "43832876c1beea52726931eb2e89ef0bc18d268f91b6bca6d03ffded880ca42f",
        "invert/ckpt.bin": "d569feb9f3eab5d993fdd38fa63e81afe6a8bced2605b767da0b0aa553d94ee6",
        "invert/loss.csv": "4316fdf48034c3bfe1cb5062155a525bbb4fdfbf636f4ee1d3c56649a614ef03",
        "invert/report.csv": "49d21981c4d9032d68c777bdf2666be2cc4ad1fa0371b753372d57a6b100a273",
        "invert/traj.csv": "0afbd7368351f202d58df34f774c8b10cb1f8690c0248b14723794f94563e811",
        "learn/ckpt.bin": "772db39db22929e8ae13024d826b9b7c6756883e5cee4bc7714c8f56af790fc3",
        "learn/loss.csv": "a28ae627c394b9c38f4337a0a16a47df0ddd931b3534455cda3fe9aa5f4218ab",
        "learn/report.csv": "30db1b40cce87c60279d27a28d9bf22effd7a4526ecdc45b45c557858481fca4",
        "learn/traj.csv": "245bcf18cb6433d2c45a1b51e38306dd6d57cb50b1c59e6e7aa9fbdc16a94464",
        "refit/ckpt.bin": "6ba4c03db1d741b20bfd0d57563b723dc2c8176ebd68583f306be50cef6974e1",
        "refit/loss.csv": "36d2cbb46896a25f132610938c78033ac02351fca624cf44b330b19203ca8fb3",
        "refit/report.csv": "c591faf5d28d5ca2b9d13316a3d403b7f64b843a9940572a72e25aac0bedd768",
        "refit/traj.csv": "4db1ce88f65d54c028475215a039009d71cfd9299ddeb1c7430783dcda24922a",
        "retrain/ckpt.bin": "7c62875c210de7a8b658aea789ea6a52e1c684905b1a3332a9403b794c788600",
        "retrain/loss.csv": "5627de491294fba080c18c1e3a31f490fad087ef1c70a1b13e6fdf1c6aebf02f",
        "retrain/report.csv": "6e2dc2384005b3c38217bbeb501c814b1a300e0bd011d0584e0a14d278415ace",
        "retrain/traj.csv": "653c5ed7885fb8ff7bc35ebf147453589d0229fee4976f58adfe2009cfeb27b9",
        "sweep/lam_0.5/ckpt.bin": "2bb19670e96c469f92bf9bee502af9f2eb15ec8e4082bdfa75c5620b901ae3b8",
        "sweep/lam_0.5/loss.csv": "6cd6328b36852a2ed068f0c8268c77999821820d57c334a4b7caf2f616e9548e",
        "sweep/lam_0.5/report.csv": "b910d074b95df5b914598943648e79f92540a031d9b5364dbdfa27eac82db05b",
        "sweep/lam_0.5/traj.csv": "607b57db87f574f9932d0ebee139e6cea02ca1e55559125b18a17b5488520545",
        "sweep/lam_1000/ckpt.bin": "412977cbd65d3576e4343286c77ee298a171e7381f1c7516f1edb72d79d361d6",
        "sweep/lam_1000/loss.csv": "187924cdd27e9ee822789390067aa85a5c5371789366c4ab83bad817112b0ef4",
        "sweep/lam_1000/report.csv": "d164dfffeee11b562da35d40bbbdcebae02f8bb4cde5124a1d5739302df7c796",
        "sweep/lam_1000/traj.csv": "e5ce122dde84ccd7eaae53f13bfa4a0cf492fb92ca8f1c1c18341277f873d643",
        "sweep/report.csv": "b326ed64dad9f635099039361fae9133b55bb8e1ec97dfcc32dc8fd645a989b8",
        "unlearn/ckpt.bin": "0ec96b719749689e51707a0487fead91afab041f212790da149e7cd84f5334f5",
        "unlearn/loss.csv": "ba01df1b5909bf84724a39c99602ff33a2b1a89bc73d09e0a9368c7d3f09686e",
        "unlearn/report.csv": "f5118420da0c256dbb49c1058fa30e118e20b2e0e296147c9f2dd560e86a1718",
        "unlearn/traj.csv": "c26902c563c235f995ea05946171a4852a28bff9703bbbcc117fc478f1a7e8fd",
    },
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_harness_artifacts_are_pinned(variant, tmp_path):
    assert run_variant(tmp_path, VARIANTS[variant]) == PINNED[variant]
