"""Golden output bytes of the CLI, recorded with auesim 0.2.0 (stream version of 0.2.0).

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
        'none,,eig-sum,0.160482605,0.165613544,300,11\n'
        'none,,eig-diff,0.186918877,,300,11\n'
        'none,,orthogonal,0.221449769,,300,11\n'
        'none,,mle,0.179525300,,300,11\n'
    ),
    "epsilon-uniform-json": (
        '[\n'
        '  {\n'
        '    "axis": "epsilon",\n'
        '    "axis_value": 0,\n'
        '    "scheme": "eig-sum",\n'
        '    "nrmse_sim": 0.17645396000090222,\n'
        '    "nrmse_theory": 0.17713060153457394,\n'
        '    "trials": 300,\n'
        '    "seed": 12\n'
        '  },\n'
        '  {\n'
        '    "axis": "epsilon",\n'
        '    "axis_value": 0,\n'
        '    "scheme": "eig-diff",\n'
        '    "nrmse_sim": 0.17649929178328164,\n'
        '    "nrmse_theory": null,\n'
        '    "trials": 300,\n'
        '    "seed": 12\n'
        '  },\n'
        '  {\n'
        '    "axis": "epsilon",\n'
        '    "axis_value": 0.1,\n'
        '    "scheme": "eig-sum",\n'
        '    "nrmse_sim": 0.17179833138498948,\n'
        '    "nrmse_theory": 0.17176249008805944,\n'
        '    "trials": 300,\n'
        '    "seed": 12\n'
        '  },\n'
        '  {\n'
        '    "axis": "epsilon",\n'
        '    "axis_value": 0.1,\n'
        '    "scheme": "eig-diff",\n'
        '    "nrmse_sim": 0.18204761281965037,\n'
        '    "nrmse_theory": null,\n'
        '    "trials": 300,\n'
        '    "seed": 12\n'
        '  },\n'
        '  {\n'
        '    "axis": "epsilon",\n'
        '    "axis_value": 0.25,\n'
        '    "scheme": "eig-sum",\n'
        '    "nrmse_sim": 0.15847607600728467,\n'
        '    "nrmse_theory": 0.1498483267125138,\n'
        '    "trials": 300,\n'
        '    "seed": 12\n'
        '  },\n'
        '  {\n'
        '    "axis": "epsilon",\n'
        '    "axis_value": 0.25,\n'
        '    "scheme": "eig-diff",\n'
        '    "nrmse_sim": 0.26855663586414447,\n'
        '    "nrmse_theory": null,\n'
        '    "trials": 300,\n'
        '    "seed": 12\n'
        '  }\n'
        ']\n'
    ),
    "m-gaussian-csv": (
        'axis,axis_value,scheme,nrmse_sim,nrmse_theory,trials,seed\n'
        'm,1,eig-sum,0.766474179,0.962684895,300,13\n'
        'm,1,eig-diff,0.818105128,,300,13\n'
        'm,1,orthogonal,0.780939605,,300,13\n'
        'm,1,mle,0.771395273,,300,13\n'
        'm,2,eig-sum,0.725162970,0.680721018,300,13\n'
        'm,2,eig-diff,0.774400413,,300,13\n'
        'm,2,orthogonal,0.732702759,,300,13\n'
        'm,2,mle,0.727278030,,300,13\n'
        'm,8,eig-sum,0.343115141,0.340360509,300,13\n'
        'm,8,eig-diff,0.376141817,,300,13\n'
        'm,8,orthogonal,0.352794558,,300,13\n'
        'm,8,mle,0.345971097,,300,13\n'
    ),
    "snr-gaussian-json": (
        '[\n'
        '  {\n'
        '    "axis": "snr",\n'
        '    "axis_value": -5,\n'
        '    "scheme": "mle",\n'
        '    "nrmse_sim": 0.7937253933193772,\n'
        '    "nrmse_theory": null,\n'
        '    "trials": 300,\n'
        '    "seed": 14\n'
        '  },\n'
        '  {\n'
        '    "axis": "snr",\n'
        '    "axis_value": -5,\n'
        '    "scheme": "orthogonal",\n'
        '    "nrmse_sim": 0.7852812659593165,\n'
        '    "nrmse_theory": null,\n'
        '    "trials": 300,\n'
        '    "seed": 14\n'
        '  },\n'
        '  {\n'
        '    "axis": "snr",\n'
        '    "axis_value": 0,\n'
        '    "scheme": "mle",\n'
        '    "nrmse_sim": 0.6928203230275509,\n'
        '    "nrmse_theory": null,\n'
        '    "trials": 300,\n'
        '    "seed": 14\n'
        '  },\n'
        '  {\n'
        '    "axis": "snr",\n'
        '    "axis_value": 0,\n'
        '    "scheme": "orthogonal",\n'
        '    "nrmse_sim": 0.6970174555442161,\n'
        '    "nrmse_theory": null,\n'
        '    "trials": 300,\n'
        '    "seed": 14\n'
        '  },\n'
        '  {\n'
        '    "axis": "snr",\n'
        '    "axis_value": 20,\n'
        '    "scheme": "mle",\n'
        '    "nrmse_sim": 0.6020797289396148,\n'
        '    "nrmse_theory": null,\n'
        '    "trials": 300,\n'
        '    "seed": 14\n'
        '  },\n'
        '  {\n'
        '    "axis": "snr",\n'
        '    "axis_value": 20,\n'
        '    "scheme": "orthogonal",\n'
        '    "nrmse_sim": 0.6,\n'
        '    "nrmse_theory": null,\n'
        '    "trials": 300,\n'
        '    "seed": 14\n'
        '  }\n'
        ']\n'
    ),
    "k-uniform-csv": (
        'axis,axis_value,scheme,nrmse_sim,nrmse_theory,trials,seed\n'
        'k,1,eig-sum,0.100000000,0.185825859,300,15\n'
        'k,1,eig-diff,0.223606798,,300,15\n'
        'k,1,orthogonal,0.191485422,,300,15\n'
        'k,1,mle,0.100000000,,300,15\n'
        'k,10,eig-sum,0.165630110,0.166923249,300,15\n'
        'k,10,eig-diff,0.199916649,,300,15\n'
        'k,10,orthogonal,0.212132034,,300,15\n'
        'k,10,mle,0.177670106,,300,15\n'
        'k,40,eig-sum,0.114154501,0.165285028,300,15\n'
        'k,40,eig-diff,0.125880234,,300,15\n'
        'k,40,orthogonal,0.209751837,,300,15\n'
        'k,40,mle,0.157909521,,300,15\n'
    ),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_bytes(case, workers, capsys):
    code = main([*CASES[case], "--trials", "300", "--workers", str(workers)])
    assert code == 0
    assert capsys.readouterr().out == EXPECTED[case]
