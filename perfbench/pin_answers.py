#!/usr/bin/env python3
"""Pin the known answer of every pooled request into answers.json.

Run from the root of a checkout of the commit whose answers are taken as
correct:

    python3 perfbench/pin_answers.py

Each distinct request of every pool is served once, in process exactly as the
benchmark serves it.  A request is refused if its exit code differs from the
one its pool declares.
"""

import json
import sys

import gate
import run
import workloads


def main():
    cli = run.import_cli()
    answers = {}
    for name, pool in workloads.POOLS.items():
        for argv, expected in workloads.distinct(pool):
            code, stdout = run.call(cli.main, argv)
            if code != expected:
                raise SystemExit(f"{name}: {gate.key(argv)} exited {code}, pool says {expected}")
            answers[gate.key(argv)] = gate.answer_of(code, stdout)
            print(f"{code} {gate.key(argv)}", file=sys.stderr)
    with open(gate.ANSWERS_PATH, "w") as fh:
        json.dump(answers, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
