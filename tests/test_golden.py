"""Exact stdout bytes and exit codes of a few CLI invocations.

The transcripts are literals, so any change to a printed value, row
order or number format fails here: the cube and surface cells must
reach the same minima, tie-breaks included, however they are built.
"""

import pytest

from spinhom.cli import run

from conftest import FIXTURES

GOLDEN = {
    "islands_1d": (
        ["phi", "islands_1d.json", "--M", "2,8,13"],
        0,
        (
            "z,m,phi,phi_corrected,lower,upper\n"
            "1,2,0.35,0.35,0.35,1.4\n"
            "1,8,0.15,0.15,0.15,0.4125\n"
            "1,13,21/130,21/130,21/130,21/65\n"
            "-1,2,0,0,0,1.05\n"
            "-1,8,0,0,0,0.2625\n"
            "-1,13,0,0,0,21/130\n"
        ),
    ),
    "anti_json": (
        ["phi", "chain_soft_even_anti.json", "--M", "4,9", "--json"],
        0,
        (
            "{\n"
            " \"island_error_constant\": \"0\",\n"
            " \"rows\": [\n"
            "  {\n"
            "   \"lower\": \"-0.75\",\n"
            "   \"m\": 4,\n"
            "   \"phi\": \"-0.75\",\n"
            "   \"phi_corrected\": \"-0.75\",\n"
            "   \"upper\": \"-0.75\",\n"
            "   \"z\": \"1\"\n"
            "  },\n"
            "  {\n"
            "   \"lower\": \"-8/9\",\n"
            "   \"m\": 9,\n"
            "   \"phi\": \"-8/9\",\n"
            "   \"phi_corrected\": \"-8/9\",\n"
            "   \"upper\": \"-8/9\",\n"
            "   \"z\": \"1\"\n"
            "  },\n"
            "  {\n"
            "   \"lower\": \"-0.75\",\n"
            "   \"m\": 4,\n"
            "   \"phi\": \"-0.75\",\n"
            "   \"phi_corrected\": \"-0.75\",\n"
            "   \"upper\": \"-0.75\",\n"
            "   \"z\": \"-1\"\n"
            "  },\n"
            "  {\n"
            "   \"lower\": \"-8/9\",\n"
            "   \"m\": 9,\n"
            "   \"phi\": \"-8/9\",\n"
            "   \"phi_corrected\": \"-8/9\",\n"
            "   \"upper\": \"-8/9\",\n"
            "   \"z\": \"-1\"\n"
            "  }\n"
            " ]\n"
            "}\n"
        ),
    ),
    "two_chains": (
        ["phi", "two_chains.json", "--M", "4,8"],
        0,
        (
            "z,m,phi,phi_corrected,lower,upper\n"
            "\"1,1\",4,0,0,0,0\n"
            "\"1,1\",8,0,0,0,0\n"
            "\"1,-1\",4,0.75,0.75,0.75,0.75\n"
            "\"1,-1\",8,0.875,0.875,0.875,0.875\n"
            "\"-1,1\",4,0.75,0.75,0.75,0.75\n"
            "\"-1,1\",8,0.875,0.875,0.875,0.875\n"
            "\"-1,-1\",4,0,0,0,0\n"
            "\"-1,-1\",8,0,0,0,0\n"
        ),
    ),
    "inclusions_enum": (
        ["phi", "soft_inclusions_2d.json", "--M", "3,8", "--z", "-1", "--method", "enum"],
        0,
        (
            "z,m,phi,phi_corrected,lower,upper\n"
            "-1,3,166/45,166/45,166/45,166/45\n"
            "-1,8,3.2625,3.2625,3.2625,3.2625\n"
        ),
    ),
    "inclusions_enum_cap": (
        ["phi", "soft_inclusions_2d.json", "--M", "3,8,13", "--z", "-1", "--method", "enum"],
        2,
        "",
    ),
    "inclusions_cut": (
        ["phi", "soft_inclusions_2d.json", "--M", "3,8,13", "--z", "-1", "--method", "cut"],
        0,
        (
            "z,m,phi,phi_corrected,lower,upper\n"
            "-1,3,166/45,166/45,166/45,166/45\n"
            "-1,8,3.2625,3.2625,3.2625,3.2625\n"
            "-1,13,204/65,204/65,204/65,204/65\n"
        ),
    ),
    "fhom_oblique": (
        ["fhom", "diagonal_2d.json", "--normal", "1,2", "--T", "16,37"],
        0,
        (
            "phase,normal,side,value\n"
            "1,\"1,2\",16,0.9375\n"
            "1,\"1,2\",37,34/37\n"
        ),
    ),
    "converge": (
        ["converge", "soft_inclusions_2d.json", "--omega", "{\"lo\":[\"0\",\"0\"],\"hi\":[\"1\",\"1\"]}", "--target", "{\"phases\":[{\"boxes\":[{\"lo\":[\"0.25\",\"0.25\"],\"hi\":[\"0.75\",\"0.75\"]}]}]}", "--eps", "1/16,1/32", "--M", "4", "--phi-side", "8"],
        0,
        (
            "eps,energy,gap,reference\n"
            "0.0625,3.1546875,0.2921875,3.446875\n"
            "0.03125,3.313671875,0.133203125,3.446875\n"
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_transcript(capsys, name):
    argv, code, stdout = GOLDEN[name]
    argv = [argv[0], str(FIXTURES.joinpath(argv[1])), *argv[2:]]
    assert run(argv) == code
    assert capsys.readouterr().out == "".join(stdout)
