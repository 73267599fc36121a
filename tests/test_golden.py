"""Exact stdout bytes and exit codes of a few CLI invocations.

The transcripts are literals, so any change to a printed value, row
order or number format fails here: the cube and surface cells must
reach the same minima, tie-breaks included, however they are built.
"""

import json

import pytest

from spinhom.cli import run

from conftest import FIXTURES, frus1d_document

# models built by the test helpers rather than shipped with the package
BUILT = {"frus1d.json": frus1d_document}

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
    # at most 24 free groups: eliminated
    "inclusions_enum": (
        ["phi", "soft_inclusions_2d.json", "--M", "3,8", "--z", "-1"],
        0,
        (
            "z,m,phi,phi_corrected,lower,upper\n"
            "-1,3,166/45,166/45,166/45,166/45\n"
            "-1,8,3.2625,3.2625,3.2625,3.2625\n"
        ),
    ),
    # 49 free groups at M = 13: the min-cut
    "inclusions_cut": (
        ["phi", "soft_inclusions_2d.json", "--M", "3,8,13", "--z", "-1"],
        0,
        (
            "z,m,phi,phi_corrected,lower,upper\n"
            "-1,3,166/45,166/45,166/45,166/45\n"
            "-1,8,3.2625,3.2625,3.2625,3.2625\n"
            "-1,13,204/65,204/65,204/65,204/65\n"
        ),
    ),
    # the solver is not an option
    "method_flag": (
        ["phi", "soft_inclusions_2d.json", "--M", "3", "--z", "-1", "--method", "cut"],
        2,
        "",
    ),
    "frus1d": (
        ["phi", "frus1d.json", "--M", "8,60", "--z", "-1"],
        0,
        (
            "z,m,phi,phi_corrected,lower,upper\n"
            "-1,8,-0.0625,-0.0625,-0.0625,-0.0625\n"
            "-1,60,-19/120,-19/120,-19/120,-19/120\n"
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
    # the benchmark's side: one min-cut on about 8k nodes per row
    "fhom_oblique_128": (
        ["fhom", "diagonal_2d.json", "--normal", "3,5", "--T", "128"],
        0,
        (
            "phase,normal,side,value\n"
            "1,\"3,5\",128,0.859375\n"
        ),
    ),
    "fhom_inclusions_128": (
        ["fhom", "soft_inclusions_2d.json", "--normal", "1/2,-1/3", "--T", "64,128"],
        0,
        (
            "phase,normal,side,value\n"
            "1,\"0.5,-1/3\",64,0.703125\n"
            "1,\"0.5,-1/3\",128,0.703125\n"
        ),
    ),
    # 33k- and 49k-node networks whose flow the greedy pass routes nearly alone
    "fhom_oblique_256": (
        ["fhom", "diagonal_2d.json", "--normal", "1,2", "--T", "256"],
        0,
        (
            "phase,normal,side,value\n"
            "1,\"1,2\",256,0.8984375\n"
        ),
    ),
    "fhom_inclusions_256": (
        ["fhom", "soft_inclusions_2d.json", "--normal", "2,-3", "--T", "256"],
        0,
        (
            "phase,normal,side,value\n"
            "1,\"2,-3\",256,0.6953125\n"
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
    # an oblique slab: pasted cubes on both sides of a rational line
    "converge_oblique": (
        ["converge", "diagonal_2d.json", "--omega", "{\"lo\":[\"0\",\"0\"],\"hi\":[\"1\",\"1\"]}", "--target", "{\"phases\":[{\"slab\":{\"normal\":[\"-1/3\",\"1/2\"],\"offset\":\"-1/10\"}}]}", "--eps", "1/16,1/32", "--M", "4", "--phi-side", "8"],
        0,
        (
            "eps,energy,gap,reference\n"
            "0.0625,0.8583984375,0.3452926934415974,1.2036911309415974\n"
            "0.03125,0.912841796875,0.2908493340665974,1.2036911309415974\n"
        ),
    ),
    # a slab and a constant: pasted cubes carry two phase states
    "converge_two_phase": (
        ["converge", "two_chains.json", "--omega", "{\"lo\":[\"0\"],\"hi\":[\"1\"]}", "--target", "{\"phases\":[{\"slab\":{\"normal\":[\"1\"],\"offset\":\"1/3\"}},{\"constant\":-1}]}", "--eps", "1/32,1/64", "--M", "4", "--phi-side", "8"],
        0,
        (
            "eps,energy,gap,reference\n"
            "0.03125,1.65625,7/96,19/12\n"
            "0.015625,1.640625,11/192,19/12\n"
        ),
    ),
    # marked cubes (2, 3), (3, 5), (5, 2) in lexicographic order; a soft
    # -1 at (16, 16) is filled with +1 and a soft +1 at (24, 24) with -1
    "extend_marked": (
        ["extend", "soft_inclusions_2d.json", "--field", "{\"eps\":\"0.03125\",\"omega\":{\"lo\":[\"0\",\"0\"],\"hi\":[\"1\",\"1\"]},\"spins_rle\":[[1,-1],[195,1],[1,-1],[195,1],[1,-1],[87,1],[1,-1],[114,1],[1,-1],[76,1],[4,-1],[27,1],[4,-1],[27,1],[2,-1],[1,1],[1,-1],[27,1],[4,-1],[192,1]]}", "--phase", "1", "--M", "4"],
        0,
        (
            "{\n"
            " \"field\": {\n"
            "  \"eps\": \"0.03125\",\n"
            "  \"omega\": {\n"
            "   \"hi\": [\n"
            "    \"1\",\n"
            "    \"1\"\n"
            "   ],\n"
            "   \"lo\": [\n"
            "    \"0\",\n"
            "    \"0\"\n"
            "   ]\n"
            "  },\n"
            "  \"spins_rle\": [\n"
            "   [\n"
            "    1,\n"
            "    -1\n"
            "   ],\n"
            "   [\n"
            "    195,\n"
            "    1\n"
            "   ],\n"
            "   [\n"
            "    1,\n"
            "    -1\n"
            "   ],\n"
            "   [\n"
            "    195,\n"
            "    1\n"
            "   ],\n"
            "   [\n"
            "    1,\n"
            "    -1\n"
            "   ],\n"
            "   [\n"
            "    202,\n"
            "    1\n"
            "   ],\n"
            "   [\n"
            "    1,\n"
            "    -1\n"
            "   ],\n"
            "   [\n"
            "    76,\n"
            "    1\n"
            "   ],\n"
            "   [\n"
            "    4,\n"
            "    -1\n"
            "   ],\n"
            "   [\n"
            "    27,\n"
            "    1\n"
            "   ],\n"
            "   [\n"
            "    4,\n"
            "    -1\n"
            "   ],\n"
            "   [\n"
            "    27,\n"
            "    1\n"
            "   ],\n"
            "   [\n"
            "    4,\n"
            "    -1\n"
            "   ],\n"
            "   [\n"
            "    27,\n"
            "    1\n"
            "   ],\n"
            "   [\n"
            "    4,\n"
            "    -1\n"
            "   ],\n"
            "   [\n"
            "    192,\n"
            "    1\n"
            "   ]\n"
            "  ]\n"
            " },\n"
            " \"m\": 4,\n"
            " \"marked\": [\n"
            "  [\n"
            "   2,\n"
            "   3\n"
            "  ],\n"
            "  [\n"
            "   3,\n"
            "   5\n"
            "  ],\n"
            "  [\n"
            "   5,\n"
            "   2\n"
            "  ]\n"
            " ],\n"
            " \"marked_count\": 3,\n"
            " \"phase\": 1\n"
            "}\n"
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_transcript(capsys, tmp_path, name):
    argv, code, stdout = GOLDEN[name]
    model = FIXTURES.joinpath(argv[1])
    if argv[1] in BUILT:
        model = tmp_path / argv[1]
        model.write_text(json.dumps(BUILT[argv[1]]()))
    assert run([argv[0], str(model), *argv[2:]]) == code
    assert capsys.readouterr().out == "".join(stdout)
