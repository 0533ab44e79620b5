"""Golden output bytes of the CLI, recorded with auesim 0.4.0 (stream version of 0.4.0).

Each case runs 300 trials per point, so every point has one full block of
``harness.BLOCK`` trials and one short block, and is run with one and with two
workers.  The expected text must not be edited to make a change pass: a
difference here means the sampling stream, the estimators or the writers no
longer produce the bytes they did.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import auesim
from auesim.cli import main

CASES = {
    "run-uniform-csv": ["run", "--theory", "--seed", "11"],
    "epsilon-uniform-json": [
        "sweep", "--axis", "epsilon", "--values", "0,0.1,0.25", "--schemes", "eig-sum,eig-diff",
        "--format", "json", "--theory", "--seed", "12",
    ],
    "m-gaussian-csv": [
        "sweep", "--axis", "m", "--values", "1,2,8", "--cfo", "gaussian", "--eps-max", "0.2",
        "--theory", "--seed", "13",
    ],
    "snr-gaussian-json": [
        "sweep", "--axis", "snr", "--values=-5,0,20", "--n", "4", "--k", "2", "--m", "2",
        "--cfo", "gaussian", "--schemes", "mle,orthogonal", "--format", "json", "--seed", "14",
    ],
    "k-uniform-csv": [
        "sweep", "--axis", "k", "--values", "1,10,40", "--n", "40", "--theory", "--seed", "15",
    ],
}

EXPECTED = {
    "run-uniform-csv": (
        'axis,axis_value,scheme,nrmse_sim,nrmse_theory,trials,seed\n'
        'none,,eig-sum,0.166389102,0.165613544,300,11\n'
        'none,,eig-diff,0.196516327,,300,11\n'
        'none,,orthogonal,0.216936243,,300,11\n'
        'none,,mle,0.178930154,,300,11\n'
    ),
    "epsilon-uniform-json": (
        '[\n'
        '  {\n'
        '    "axis": "epsilon",\n'
        '    "axis_value": 0,\n'
        '    "scheme": "eig-sum",\n'
        '    "nrmse_sim": 0.1835065848046513,\n'
        '    "nrmse_theory": 0.17713060153457394,\n'
        '    "trials": 300,\n'
        '    "seed": 12\n'
        '  },\n'
        '  {\n'
        '    "axis": "epsilon",\n'
        '    "axis_value": 0,\n'
        '    "scheme": "eig-diff",\n'
        '    "nrmse_sim": 0.18317205026968497,\n'
        '    "nrmse_theory": null,\n'
        '    "trials": 300,\n'
        '    "seed": 12\n'
        '  },\n'
        '  {\n'
        '    "axis": "epsilon",\n'
        '    "axis_value": 0.1,\n'
        '    "scheme": "eig-sum",\n'
        '    "nrmse_sim": 0.17357419162997703,\n'
        '    "nrmse_theory": 0.17176249008805944,\n'
        '    "trials": 300,\n'
        '    "seed": 12\n'
        '  },\n'
        '  {\n'
        '    "axis": "epsilon",\n'
        '    "axis_value": 0.1,\n'
        '    "scheme": "eig-diff",\n'
        '    "nrmse_sim": 0.18473765182008783,\n'
        '    "nrmse_theory": null,\n'
        '    "trials": 300,\n'
        '    "seed": 12\n'
        '  },\n'
        '  {\n'
        '    "axis": "epsilon",\n'
        '    "axis_value": 0.25,\n'
        '    "scheme": "eig-sum",\n'
        '    "nrmse_sim": 0.14961283367412034,\n'
        '    "nrmse_theory": 0.1498483267125138,\n'
        '    "trials": 300,\n'
        '    "seed": 12\n'
        '  },\n'
        '  {\n'
        '    "axis": "epsilon",\n'
        '    "axis_value": 0.25,\n'
        '    "scheme": "eig-diff",\n'
        '    "nrmse_sim": 0.24227807714827743,\n'
        '    "nrmse_theory": null,\n'
        '    "trials": 300,\n'
        '    "seed": 12\n'
        '  }\n'
        ']\n'
    ),
    "m-gaussian-csv": (
        'axis,axis_value,scheme,nrmse_sim,nrmse_theory,trials,seed\n'
        'm,1,eig-sum,0.887609524,0.962684895,300,13\n'
        'm,1,eig-diff,0.954101322,,300,13\n'
        'm,1,orthogonal,0.885561216,,300,13\n'
        'm,1,mle,0.885910454,,300,13\n'
        'm,2,eig-sum,0.710083563,0.680721018,300,13\n'
        'm,2,eig-diff,0.776127137,,300,13\n'
        'm,2,orthogonal,0.706265295,,300,13\n'
        'm,2,mle,0.706004721,,300,13\n'
        'm,8,eig-sum,0.354032014,0.340360509,300,13\n'
        'm,8,eig-diff,0.388219869,,300,13\n'
        'm,8,orthogonal,0.357248746,,300,13\n'
        'm,8,mle,0.353707977,,300,13\n'
    ),
    "snr-gaussian-json": (
        '[\n'
        '  {\n'
        '    "axis": "snr",\n'
        '    "axis_value": -5,\n'
        '    "scheme": "mle",\n'
        '    "nrmse_sim": 0.7778174593052023,\n'
        '    "nrmse_theory": null,\n'
        '    "trials": 300,\n'
        '    "seed": 14\n'
        '  },\n'
        '  {\n'
        '    "axis": "snr",\n'
        '    "axis_value": -5,\n'
        '    "scheme": "orthogonal",\n'
        '    "nrmse_sim": 0.8046738469715541,\n'
        '    "nrmse_theory": null,\n'
        '    "trials": 300,\n'
        '    "seed": 14\n'
        '  },\n'
        '  {\n'
        '    "axis": "snr",\n'
        '    "axis_value": 0,\n'
        '    "scheme": "mle",\n'
        '    "nrmse_sim": 0.6595452979136459,\n'
        '    "nrmse_theory": null,\n'
        '    "trials": 300,\n'
        '    "seed": 14\n'
        '  },\n'
        '  {\n'
        '    "axis": "snr",\n'
        '    "axis_value": 0,\n'
        '    "scheme": "orthogonal",\n'
        '    "nrmse_sim": 0.6776183783418708,\n'
        '    "nrmse_theory": null,\n'
        '    "trials": 300,\n'
        '    "seed": 14\n'
        '  },\n'
        '  {\n'
        '    "axis": "snr",\n'
        '    "axis_value": 20,\n'
        '    "scheme": "mle",\n'
        '    "nrmse_sim": 0.5909032633745279,\n'
        '    "nrmse_theory": null,\n'
        '    "trials": 300,\n'
        '    "seed": 14\n'
        '  },\n'
        '  {\n'
        '    "axis": "snr",\n'
        '    "axis_value": 20,\n'
        '    "scheme": "orthogonal",\n'
        '    "nrmse_sim": 0.5993051532121735,\n'
        '    "nrmse_theory": null,\n'
        '    "trials": 300,\n'
        '    "seed": 14\n'
        '  }\n'
        ']\n'
    ),
    "k-uniform-csv": (
        'axis,axis_value,scheme,nrmse_sim,nrmse_theory,trials,seed\n'
        'k,1,eig-sum,0.100000000,0.185825859,300,15\n'
        'k,1,eig-diff,0.282842712,,300,15\n'
        'k,1,orthogonal,0.152752523,,300,15\n'
        'k,1,mle,0.0816496581,,300,15\n'
        'k,10,eig-sum,0.170195965,0.166923249,300,15\n'
        'k,10,eig-diff,0.210079350,,300,15\n'
        'k,10,orthogonal,0.228181215,,300,15\n'
        'k,10,mle,0.185382487,,300,15\n'
        'k,40,eig-sum,0.110792599,0.165285028,300,15\n'
        'k,40,eig-diff,0.126252063,,300,15\n'
        'k,40,orthogonal,0.212891796,,300,15\n'
        'k,40,mle,0.157546289,,300,15\n'
    ),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_bytes(case, workers, capsys):
    code = main([*CASES[case], "--trials", "300", "--workers", str(workers)])
    assert code == 0
    assert capsys.readouterr().out == EXPECTED[case]


# sha256 of the whole output at the default 20,000 trials, recorded with auesim
# 0.4.0 before its phasors came from a table: a change of g in the last bits
# may not move an integer count anywhere in these 120,000 trials
DEFAULT_SIZE_SHA256 = {
    "run-20k": (
        ["run", "--trials", "20000", "--theory", "--seed", "3"],
        "dbea661f7dafe158533222e69e28f70198a7c1fe18a0993fdfa43565587e56d7",
    ),
    "k-sweep-20k": (
        ["sweep", "--axis", "k", "--values", "5,15,25,35,45", "--trials", "20000", "--seed", "3"],
        "d3fb6f879967fc0fd8c8d1640dea1b55bd999f4b2eb8cf450bb8215bdd9b137f",
    ),
    # recorded with auesim 0.4.1 while each block still formed its own phasors:
    # at K = 2 a pass phases up to 16 blocks in one group, and these runs have
    # 79 and 7 x 79 blocks
    "small-k-run-20k": (
        ["run", "--n", "4", "--k", "2", "--m", "2", "--trials", "20000", "--seed", "3"],
        "ece653b5f2061647f212fad48ce8a9f49eee64b935e06c761c701df8b55587a8",
    ),
    "small-k-snr-sweep-20k": (
        [
            "sweep", "--axis", "snr", "--values=-10,-5,0,5,10,15,20", "--n", "4", "--k", "2", "--m", "2",
            "--trials", "20000", "--seed", "3",
        ],
        "8921674210a275273565a72f0686b0660647f832a82948cc1a587c4584017763",
    ),
}


@pytest.mark.parametrize("case", sorted(DEFAULT_SIZE_SHA256))
def test_default_size_output_sha256(case, capsys):
    argv, digest = DEFAULT_SIZE_SHA256[case]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_default_size_output_sha256_on_numpy_baseline_loops():
    """The four pinned runs give the same bytes on numpy's baseline loops.

    A child interpreter runs them with ``NPY_DISABLE_CPU_FEATURES`` naming
    every dispatch target numpy found on this host (AVX2, AVX-512 and the
    like), so its ufuncs take the baseline SIMD path, whose last bits can
    differ; the variable is set only in the child's environment.  On a host
    where numpy finds no target beyond its baseline, the list is empty and
    the test compares the baseline with itself.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    code = (
        "import contextlib, hashlib, io, json, sys\n"
        f"from {umath.__name__} import __cpu_features__\n"
        "from auesim.cli import main\n"
        "digests = {}\n"
        "for case, argv in json.loads(sys.argv[1]).items():\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert main(argv) == 0\n"
        "    digests[case] = hashlib.sha256(out.getvalue().encode()).hexdigest()\n"
        "on = [t for t in json.loads(sys.argv[2]) if __cpu_features__.get(t)]\n"
        "print(json.dumps([on, digests]))\n"
    )
    src = Path(auesim.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), NPY_DISABLE_CPU_FEATURES=" ".join(targets))
    # numpy refuses to import with both variables set
    env.pop("NPY_ENABLE_CPU_FEATURES", None)
    argvs = {case: argv for case, (argv, _) in DEFAULT_SIZE_SHA256.items()}
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs), json.dumps(targets)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    still_on, digests = json.loads(proc.stdout)
    assert still_on == []
    assert digests == {case: digest for case, (_, digest) in DEFAULT_SIZE_SHA256.items()}
