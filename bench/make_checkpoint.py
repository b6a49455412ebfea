"""Remake bench/model_k30.json, the fixed K=30 model of infer-reg500.

    python3 bench/make_checkpoint.py

Trains with the program's own CLI at desk scale, the equivalent of

    qproj --out D/data gen-data --family regression --n 100 --m 20 --t 200 \\
          --train 60 --val 20 --test 1 --base-seed 0
    qproj --seed 0 --out D/model train --manifest D/data/manifest.json \\
          --k 30 --epochs 30

with BLAS pinned to one thread, then copies D/model/checkpoint.json. Takes
about 8 minutes on the reference machine (see README.md).
"""

import os
import shutil
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from qproj import cli  # noqa: E402

GEN_DATA = ["gen-data", "--family", "regression", "--n", "100", "--m", "20", "--t", "200",
            "--train", "60", "--val", "20", "--test", "1", "--base-seed", "0"]
TRAIN = ["train", "--k", "30", "--epochs", "30"]


def main() -> int:
    work = os.path.join(HERE, "out", "make_checkpoint")
    shutil.rmtree(work, ignore_errors=True)
    data, model = os.path.join(work, "data"), os.path.join(work, "model")
    for argv in (["--out", data, *GEN_DATA],
                 ["--seed", "0", "--out", model, *TRAIN,
                  "--manifest", os.path.join(data, "manifest.json")]):
        code = cli.main(argv)
        if code != 0:
            return code
    shutil.copyfile(os.path.join(model, "checkpoint.json"), os.path.join(HERE, "model_k30.json"))
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
