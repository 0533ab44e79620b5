"""Golden output bytes of the CLI, recorded with auesim 0.3.0 (stream version of 0.3.0).

Each case runs 300 trials per point, so every point has one full block of
``harness.BLOCK`` trials and one short block, and is run with one and with two
workers.  The expected text must not be edited to make a change pass: a
difference here means the sampling stream, the estimators or the writers no
longer produce the bytes they did.
"""

import pytest

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
        'none,,eig-sum,0.156034184,0.165613544,300,11\n'
        'none,,eig-diff,0.179436154,,300,11\n'
        'none,,orthogonal,0.201474564,,300,11\n'
        'none,,mle,0.164113782,,300,11\n'
    ),
    "epsilon-uniform-json": (
        '[\n'
        '  {\n'
        '    "axis": "epsilon",\n'
        '    "axis_value": 0,\n'
        '    "scheme": "eig-sum",\n'
        '    "nrmse_sim": 0.15793669617919706,\n'
        '    "nrmse_theory": 0.17713060153457394,\n'
        '    "trials": 300,\n'
        '    "seed": 12\n'
        '  },\n'
        '  {\n'
        '    "axis": "epsilon",\n'
        '    "axis_value": 0,\n'
        '    "scheme": "eig-diff",\n'
        '    "nrmse_sim": 0.15778466338652816,\n'
        '    "nrmse_theory": null,\n'
        '    "trials": 300,\n'
        '    "seed": 12\n'
        '  },\n'
        '  {\n'
        '    "axis": "epsilon",\n'
        '    "axis_value": 0.1,\n'
        '    "scheme": "eig-sum",\n'
        '    "nrmse_sim": 0.15686937240902063,\n'
        '    "nrmse_theory": 0.17176249008805944,\n'
        '    "trials": 300,\n'
        '    "seed": 12\n'
        '  },\n'
        '  {\n'
        '    "axis": "epsilon",\n'
        '    "axis_value": 0.1,\n'
        '    "scheme": "eig-diff",\n'
        '    "nrmse_sim": 0.16861791126686396,\n'
        '    "nrmse_theory": null,\n'
        '    "trials": 300,\n'
        '    "seed": 12\n'
        '  },\n'
        '  {\n'
        '    "axis": "epsilon",\n'
        '    "axis_value": 0.25,\n'
        '    "scheme": "eig-sum",\n'
        '    "nrmse_sim": 0.1450700979986342,\n'
        '    "nrmse_theory": 0.1498483267125138,\n'
        '    "trials": 300,\n'
        '    "seed": 12\n'
        '  },\n'
        '  {\n'
        '    "axis": "epsilon",\n'
        '    "axis_value": 0.25,\n'
        '    "scheme": "eig-diff",\n'
        '    "nrmse_sim": 0.25150215373497964,\n'
        '    "nrmse_theory": null,\n'
        '    "trials": 300,\n'
        '    "seed": 12\n'
        '  }\n'
        ']\n'
    ),
    "m-gaussian-csv": (
        'axis,axis_value,scheme,nrmse_sim,nrmse_theory,trials,seed\n'
        'm,1,eig-sum,0.930808967,0.962684895,300,13\n'
        'm,1,eig-diff,1.00560827,,300,13\n'
        'm,1,orthogonal,0.932334704,,300,13\n'
        'm,1,mle,0.929992115,,300,13\n'
        'm,2,eig-sum,0.665239806,0.680721018,300,13\n'
        'm,2,eig-diff,0.718973342,,300,13\n'
        'm,2,orthogonal,0.667616656,,300,13\n'
        'm,2,mle,0.664955136,,300,13\n'
        'm,8,eig-sum,0.345847751,0.340360509,300,13\n'
        'm,8,eig-diff,0.378868491,,300,13\n'
        'm,8,orthogonal,0.358448509,,300,13\n'
        'm,8,mle,0.349559723,,300,13\n'
    ),
    "snr-gaussian-json": (
        '[\n'
        '  {\n'
        '    "axis": "snr",\n'
        '    "axis_value": -5,\n'
        '    "scheme": "mle",\n'
        '    "nrmse_sim": 0.794774601171091,\n'
        '    "nrmse_theory": null,\n'
        '    "trials": 300,\n'
        '    "seed": 14\n'
        '  },\n'
        '  {\n'
        '    "axis": "snr",\n'
        '    "axis_value": -5,\n'
        '    "scheme": "orthogonal",\n'
        '    "nrmse_sim": 0.8025999418556338,\n'
        '    "nrmse_theory": null,\n'
        '    "trials": 300,\n'
        '    "seed": 14\n'
        '  },\n'
        '  {\n'
        '    "axis": "snr",\n'
        '    "axis_value": 0,\n'
        '    "scheme": "mle",\n'
        '    "nrmse_sim": 0.67700320038633,\n'
        '    "nrmse_theory": null,\n'
        '    "trials": 300,\n'
        '    "seed": 14\n'
        '  },\n'
        '  {\n'
        '    "axis": "snr",\n'
        '    "axis_value": 0,\n'
        '    "scheme": "orthogonal",\n'
        '    "nrmse_sim": 0.6825198409814424,\n'
        '    "nrmse_theory": null,\n'
        '    "trials": 300,\n'
        '    "seed": 14\n'
        '  },\n'
        '  {\n'
        '    "axis": "snr",\n'
        '    "axis_value": 20,\n'
        '    "scheme": "mle",\n'
        '    "nrmse_sim": 0.5873670062235365,\n'
        '    "nrmse_theory": null,\n'
        '    "trials": 300,\n'
        '    "seed": 14\n'
        '  },\n'
        '  {\n'
        '    "axis": "snr",\n'
        '    "axis_value": 20,\n'
        '    "scheme": "orthogonal",\n'
        '    "nrmse_sim": 0.5930148958219066,\n'
        '    "nrmse_theory": null,\n'
        '    "trials": 300,\n'
        '    "seed": 14\n'
        '  }\n'
        ']\n'
    ),
    "k-uniform-csv": (
        'axis,axis_value,scheme,nrmse_sim,nrmse_theory,trials,seed\n'
        'k,1,eig-sum,0.0577350269,0.185825859,300,15\n'
        'k,1,eig-diff,0.244948974,,300,15\n'
        'k,1,orthogonal,0.100000000,,300,15\n'
        'k,1,mle,0.00000000,,300,15\n'
        'k,10,eig-sum,0.166933120,0.166923249,300,15\n'
        'k,10,eig-diff,0.200997512,,300,15\n'
        'k,10,orthogonal,0.212759645,,300,15\n'
        'k,10,mle,0.173589554,,300,15\n'
        'k,40,eig-sum,0.106516822,0.165285028,300,15\n'
        'k,40,eig-diff,0.122907486,,300,15\n'
        'k,40,orthogonal,0.205030486,,300,15\n'
        'k,40,mle,0.151561319,,300,15\n'
    ),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_bytes(case, workers, capsys):
    code = main([*CASES[case], "--trials", "300", "--workers", str(workers)])
    assert code == 0
    assert capsys.readouterr().out == EXPECTED[case]
