#!/usr/bin/env python3
"""End-to-end demo: the corpus study on a paper-sized synthetic collection.

Generates the seeded collection of the paper-pair benchmark, whose
syntactic giant has the paper's 269 nodes and 633 links (within 1%) and
whose concept annotations both merge name variants and split generic
names, writes it as collection.json, and runs the study of
run_sawsdl_corpus.py on it: both networks, their reports, community
partitions, dendrograms and degree distributions, and the comparison, all
under --out. A bad argument exits 1.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from generators import paper_collection
from run_sawsdl_corpus import analysis_parser, config_of, study
from wsdepnet.model import collection_from_dict, write_canonical


def main(argv=None) -> int:
    parser = analysis_parser(__doc__, er_samples=50, bootstrap=200)
    parser.add_argument("--out", default="demo_out", help="output directory")
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    collection = collection_from_dict(paper_collection(args.seed, 269, 633, 1500))
    write_canonical(collection, out / "collection.json")
    study(collection, config_of(args), casefold=False, out=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
