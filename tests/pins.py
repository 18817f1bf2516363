"""Every value the test suite pins, under one name each.

A pin is a digest, a key or a float of what the code writes.  Like the
`perfbench` digests, these bits belong to the code plus the host's numeric
environment (BLAS kernel, SIMD dispatch): last-bit differences grow through
the chaotic unrolled meta-loss, so a pin holds in the environment it was
taken in.  `pytest -m pinned` runs exactly the tests that read one, and
`tests/test_pins.py` keeps it so.  Each value keeps the algorithm and size
it was taken with.

A digest move (ROADMAP item 6) changes pinned bits on purpose.  It edits
this file and no other expected value in the tests, so its diff lists every
moved pin, and it reports:
- acceptance criteria 1-10 in the default environment
- the equivariance oracles of `tests/test_oracles.py`, passing unedited
  across the move
- the numeric-environment sensitivity report (ROADMAP item 1), before and
  after
- the paired ml2o - tl differences, and the adaptation-step curve
- the cache-identity change, so that no old checkpoint is served: a code
  fingerprint in the cache key, or a `TRAINING_VERSION` constant
- the two end-to-end digests of `perfbench/run.py`, `7c6ae841...` (desk,
  2 seeds) and `84afb327...` (rosenbrock, 4 seeds), which stay in that file
"""

import hashlib

import numpy as np


def digest(*parts, size: int = 16) -> str:
    """blake2b hex digest of `parts`: bytes as they are, arrays as `.tobytes()`, else `repr`."""
    h = hashlib.blake2b(digest_size=size)
    for part in parts:
        if isinstance(part, np.ndarray):
            part = part.tobytes()
        elif not isinstance(part, bytes):
            part = repr(part).encode()
        h.update(part)
    return h.hexdigest()


# test_unroll.test_kernel_bytes_are_pinned, size 8: meta_grad_stack under
# full_second_order and detached_input, unroll_stack, then maml_parts_stack
# under fd_hvp_meta, per (family, stack size)
KERNEL_DIGESTS = {
    ("lasso", 1): (
        "40d9f940f07598da", "26f555d2e66b911e", "a64bdb28b48e43f2", "b9bce2cb454427ff",
    ),
    ("lasso", 2): (
        "4e3b9655d7c69486", "bde2f872b71841e5", "49052b19eaa4f9ad", "f47df34bdc6b4496",
    ),
    ("lasso", 4): (
        "bb4a371b4159039e", "85456f0d7ec81b2c", "644528551e08ccd8", "4e4d979738f72557",
    ),
    ("lasso", 12): (
        "45d9363f970d3d70", "c6c12820678ddf81", "85208b1e30273fe7", "a27210e1f4049fba",
    ),
    ("lasso-d1", 1): (
        "43a9b83f826b4991", "bb6d758691c7b5f2", "6ddd8f16d9bd656b", "5815529c8fe49849",
    ),
    ("lasso-d1", 2): (
        "cb8962dcb8519969", "3938c37b60232f7d", "01c2b427d0b5ef11", "e9cb7940bafc2edc",
    ),
    ("lasso-d1", 4): (
        "9925c9af8b3434ac", "1e0dc8821721807b", "7a078798a4af086f", "9497d2861b75d733",
    ),
    ("lasso-d1", 12): (
        "3a51f79831e4de1b", "5068ec6349f71c61", "6f100c06ff447272", "85b8eb73087d7eca",
    ),
    ("lasso-d7", 1): (
        "eb2922f7934f7e5c", "0e943061bc954cf4", "1c03fa8af8930ada", "3b3b3196b198d720",
    ),
    ("lasso-d7", 2): (
        "81b17abb5d72e5d0", "793b083b531d7fd3", "20b83080153c58f4", "e5cbd59154d3af96",
    ),
    ("lasso-d7", 4): (
        "4d3a6332cf1ff218", "0b468aded0d6446f", "5c68add8c8b75c9c", "79c5eff7498224ef",
    ),
    ("lasso-d7", 12): (
        "bc712c2f85738cdd", "ae6d74231091bcdb", "9ed10703b15e90ec", "02377ab9d441923a",
    ),
    ("quadratic", 1): (
        "e6b6913332296a91", "8bbb37e3cb22445b", "4b6e8929466e61c3", "b234f9cbb1406adb",
    ),
    ("quadratic", 2): (
        "aee6c4aa488739ff", "7c903b0f54247f1a", "56fb4b7ee0f25c7c", "df21ae5d2bfd8f53",
    ),
    ("quadratic", 4): (
        "9c7b41dbf818ff98", "595d7a4cdd9dc4c9", "32230c96387aac91", "2edccbc6cba5f90e",
    ),
    ("quadratic", 12): (
        "655405341690c731", "a81961d971324d42", "f1b01e3dfc748ccd", "5727422144eceda3",
    ),
    ("rosenbrock", 1): (
        "b30b1e9cb5742325", "1e7ebaa9f2c21d18", "1f55bd23b53e8f5e", "78cb54387f22f403",
    ),
    ("rosenbrock", 2): (
        "b13e192bc7d2f013", "ea9692929f89fd1b", "ed472085018ac52b", "6de114659be89b1b",
    ),
    ("rosenbrock", 4): (
        "6faa95c07e1d5b28", "d180cb892c2a2a3e", "fc4460f6b688575b", "841e006432a05624",
    ),
    ("rosenbrock", 12): (
        "562e7b9ee3635f3a", "6e19ed6c3aaada60", "b8e649d594841d19", "2bbe20f7883bc6d2",
    ),
}

# test_unroll.test_jacobian_recursive_bytes_are_pinned, size 8: the dense
# Jacobian; each step's input path runs through the task Hessian applied to
# the (dim, |weights|) Jacobian block, so a reordered Hessian product moves it
JACOBIAN_DIGESTS = {
    "quadratic": "39a19368a47da0c5",
    "rosenbrock": "e9bdd9beaee14347",
}

# test_tasks.test_hvp_on_a_column_block, size 8: the block product, the bytes
# of A^T (A m), or of the dense 2x2 banana Hessian times m, which
# `jacobian_recursive` is pinned to
HVP_BLOCK_DIGESTS = {
    "lasso": "4c221aedcc0b00de",
    "quadratic": "44fea19528fc296c",
    "rosenbrock": "5bcbf4c7ba43e779",
}

# test_tasks.test_draw_law_is_pinned, size 16: the paired-draw contract
DRAW_LAW_DIGEST = "7bd4e310e2b49f415caddbc50ce2b54c"

# test_cell.test_checkpoint_bytes_and_digest_are_pinned: the file's bytes
# (size 16) and `ParamStack.digest()`
CHECKPOINT_FILE_DIGEST = "42e25eaec11696ffed6a59692818c16f"
CHECKPOINT_PARAMS_DIGEST = "92a6d5dad35b2cdfe358420dac2c4238"

# test_cell.test_random_params_bytes_and_digest_are_pinned: sha256 of the
# little-endian flat vector, and `ParamStack.digest()`
RANDOM_PARAMS_SHA256 = "0a384d2394c55fd9d9e8238583cdec645b28919037384855a1417e385eba90be"
RANDOM_PARAMS_DIGEST = "c069342168aa38b2a805d34b0be927ad"

# test_cli: `TrainingCache._key` of the tiny config per trainer, at its
# default grad mode and under detached_input
CACHE_KEYS = {
    "plain": "6f48a3eca64c2117f288cb4c64540ee1",
    "ml2o": "76a21f1c57c1e3dac7a944f69e409fd0",
}
DETACHED_CACHE_KEYS = {
    "plain": "58808e6e9d0a4990fd6bfd0f411cf390",
    "ml2o": "30685abb5ce1a57449ad96bd2bb4cec1",
}

# test_cli.test_weights_entry_names_are_pinned: the sorted names of every
# checkpoint that the tiny config's `compare --n-seeds 2 --jobs 1` caches,
# trained (per trainer and seed) and adapted (per seed and adapted method)
WEIGHTS_ENTRY_NAMES = (
    "adapted-48d0064702c7846f1109bdb7ec6d2d1d.ckpt",
    "adapted-7fc56c8e67b87e0fd2bb27ad2f3bcda2.ckpt",
    "adapted-831ecec780a458146f8db7a97f39d871.ckpt",
    "adapted-a24d5f6cc93519c163ba604ade672680.ckpt",
    "adapted-b2917d219e24e0f102312b88b533b02a.ckpt",
    "adapted-f72dd960de391c1f63d5d265cc0a8acc.ckpt",
    "ml2o-3f6c5fbfce7fb2afc3a650501233e730.ckpt",
    "ml2o-ee117a1c13572c8f6f3c71f9b8027403.ckpt",
    "plain-5c5b7305610a02aca0419987c7a24d46.ckpt",
    "plain-e388ed268c42713476f470ba79aa24f4.ckpt",
)

# test_cli.test_cache_key_grid_is_pinned, size 16: the 192 keys, one a line
CACHE_KEY_GRID_DIGEST = "10b802315439977bc9c9851a207a1ce9"

# test_cli.test_verify_report_values_are_pinned, size 16: `gaps.json`, the
# growth report without its reference column, and that column
GAPS_DIGEST = "43e43f4e484dbff2b24d3823b025f236"
GROWTH_DIGEST = "e8ec4590104de0684692998bda735ccb"
GROWTH_REFERENCE = [
    1.0410793890719954, 1.2822733751316358, 1.533701328220715,
    2.0687524517528346, 2.9577770550428637, 4.32276490845433,
]

# test_cli.test_interpolate_output_bytes_are_pinned, size 16: the summary,
# the named curve files, and stdout
INTERPOLATION_JSON_DIGEST = "bad5a58cead81fb53f11c41b658694ec"
INTERPOLATION_CURVES_DIGEST = "6c180f71ca40a3bae04d78471ba5c940"
INTERPOLATION_STDOUT_DIGEST = "25e4db46062b383bbb683df16f8584af"

# test_cli.test_compare_output_bytes_are_pinned, size 16: `comparison.csv`,
# `comparison.json`, then every curve file's name and bytes
COMPARISON_OUTPUT_DIGEST = "4f0bd71b787793ee183e121fb0347e38"
